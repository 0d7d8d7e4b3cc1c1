"""End-to-end experiment harness: per-project runs, reports, sweeps.

Every run follows the same shape: load a project's issues, tokenize
(optionally keeping only verbs and nouns), split, then train and score the
word-graph model and the tf-idf forest on byte-identical splits. Results
land in one subdirectory per experiment: report files, model files, and a
config snapshot.

Seeding: one master seed; each project/component pair gets its own stream
through stable hashing, so projects are independent and safe to run in
parallel without sharing generator state.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import baseline as bl
from . import gnn
from .corpus import (
    DatasetFormat,
    StoryPointLevel,
    TokenizedDocument,
    DatasetSplit,
    load_issues,
    split_dataset,
    tokenize_issues,
)
from .embeddings import (
    DEFAULT_DIM,
    EmbeddingTable,
    EncodedDocument,
    Vocabulary,
    build_vocab,
    load_pretrained_vectors,
)
from .graph import EdgeTable, assign_edge_params, build_graphs, count_cooccurrences
from .model_io import BaselineBundle, ModelBundle, save_baseline_model, save_model
from .tagging import LexiconTagger

DEFAULT_WINDOWS = (2, 5, 10, 20, 50, 100)

TASK_CLASSIFY = "level-classification"
TASK_REGRESS = "sp-as-label-regression"
MODE_RAW = "raw"
MODE_FILTERED = "verb-noun-filter"


@dataclass
class ExperimentConfig:
    """One run's settings. Its field defaults, with TrainConfig's, are the
    built-in defaults of every run, the CLI's included."""

    data_dir: Path
    output_dir: Path = Path("runs")
    projects: tuple[str, ...] = ()  # empty: every *.csv under data_dir
    model: str = "both"  # "gnn" | "tfidf-rf" | "both"
    text_mode: str = MODE_RAW
    task: str = TASK_CLASSIFY
    windows: tuple[int, ...] = DEFAULT_WINDOWS
    train: gnn.TrainConfig = field(default_factory=gnn.TrainConfig)
    vectors_path: Path | None = None
    embedding_dim: int = DEFAULT_DIM
    jobs: int = 1
    include_timings: bool = True
    save_models: bool = True

    def resolved_projects(self) -> tuple[str, ...]:
        if self.projects:
            return self.projects
        return tuple(sorted(p.stem for p in Path(self.data_dir).glob("*.csv")))

    def echo(self) -> dict[str, object]:
        """Everything a reader needs to audit or rerun the experiment."""
        return {
            **asdict(self.train),
            "task": self.task,
            "text_mode": self.text_mode,
            "model": self.model,
            "optimizer": "adam",
            "embedding_dim": self.embedding_dim,
            "vectors": Path(self.vectors_path).name if self.vectors_path else "none",
            "windows": list(self.windows),
            "idf": "ln((1+N)/(1+df))+1",
            "forest": bl.RandomForestConfig().describe(),
        }


def derive_seed(master: int, *parts: str) -> int:
    """Stable per-component seed from the master seed and name parts."""
    digest = hashlib.sha256("|".join([str(master), *parts]).encode()).digest()
    return int.from_bytes(digest[:8], "little") % (2**63)


def split_hash(split: DatasetSplit) -> str:
    """Fingerprint of exactly which document ids landed in which split."""
    payload = "\n".join(
        [
            "train:" + ",".join(d.doc_id for d in split.train),
            "val:" + ",".join(d.doc_id for d in split.validation),
            "test:" + ",".join(d.doc_id for d in split.test),
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def accuracy_percent(predictions, labels) -> float:
    """Exact-match count over size, as a percentage."""
    if len(predictions) != len(labels):
        raise ValueError("prediction/label count mismatch")
    if not labels:
        return 0.0
    hits = sum(1 for p, t in zip(predictions, labels) if p == t)
    return 100.0 * hits / len(labels)


def mean_absolute_error(predictions, targets) -> float:
    if len(predictions) != len(targets):
        raise ValueError("prediction/target count mismatch")
    if not targets:
        return 0.0
    return float(
        np.mean(np.abs(np.asarray(predictions, float) - np.asarray(targets, float)))
    )


def score_gnn(
    bundle: ModelBundle,
    encoded: list[EncodedDocument],
    docs: tuple[TokenizedDocument, ...],
) -> tuple[float, float | None]:
    """A model's accuracy (%) on documents encoded against its vocabulary,
    and, when its classes are story points, its MAE in story points."""
    cv = bundle.class_values
    task = TASK_REGRESS if cv else TASK_CLASSIFY
    graphs = build_graphs(
        encoded, bundle.config.window, bundle.edge_table,
        labels=labels_for(docs, task, cv),
    )
    rounds = bundle.config.rounds
    predictions = [gnn.predict(bundle.params, g, rounds=rounds)[0] for g in graphs]
    accuracy = accuracy_percent(predictions, [g.label for g in graphs])
    if not cv:
        return accuracy, None
    actual = [d.raw_story_point for d in docs]
    return accuracy, mean_absolute_error([cv[p] for p in predictions], actual)


@dataclass
class PreparedProject:
    project: str
    split: DatasetSplit
    split_hash: str
    class_values: tuple[int, ...]  # regression task: story point per class index


def prepare_project(config: ExperimentConfig, project: str) -> PreparedProject:
    """Load, tokenize (with optional verb-noun filter) and split one project."""
    path = Path(config.data_dir) / f"{project}.csv"
    issues, _ = load_issues(path, DatasetFormat(), project=project)
    tagger = LexiconTagger() if config.text_mode == MODE_FILTERED else None
    docs, _ = tokenize_issues(issues, tagger=tagger)
    split = split_dataset(docs, seed=derive_seed(config.train.seed, project, "split"))
    class_values: tuple[int, ...] = ()
    if config.task == TASK_REGRESS:
        class_values = tuple(sorted({d.raw_story_point for d in split.train}))
    return PreparedProject(
        project=project,
        split=split,
        split_hash=split_hash(split),
        class_values=class_values,
    )


def labels_for(
    docs: tuple[TokenizedDocument, ...],
    task: str,
    class_values: tuple[int, ...],
) -> list[int]:
    if task == TASK_CLASSIFY:
        return [int(d.level) for d in docs]
    value_to_class = {v: i for i, v in enumerate(class_values)}
    # story points unseen in training have no class; -1 never matches a
    # prediction, so such documents count as errors
    return [value_to_class.get(d.raw_story_point, -1) for d in docs]


@dataclass
class ProjectResult:
    project: str
    train_size: int = 0
    val_size: int = 0
    test_size: int = 0
    split_hash: str = ""
    gnn_accuracy: float | None = None
    baseline_accuracy: float | None = None
    gnn_mae: float | None = None
    baseline_mae: float | None = None
    node_count: int = 0
    edge_count: int = 0
    train_seconds: float = 0.0
    baseline_seconds: float = 0.0


Encoded = tuple[Vocabulary, EmbeddingTable, list[list[EncodedDocument]]]


def _encode(
    config: ExperimentConfig,
    prepared: PreparedProject,
    *docsets,
    use_vectors: bool = False,
) -> Encoded:
    """The training vocabulary, its initial embeddings, and each docset
    encoded against it.

    With `use_vectors` and a vector file configured, embedding rows of
    training tokens come from that file; only their rows are read."""
    train = prepared.split.train
    pretrained = {}
    if use_vectors and config.vectors_path:
        pretrained = load_pretrained_vectors(
            config.vectors_path,
            {tok for doc in train for tok in doc.tokens},
            dim=config.embedding_dim,
        )
    vocab, table = build_vocab(
        train,
        pretrained,
        seed=derive_seed(config.train.seed, prepared.project, "vocab"),
        dim=config.embedding_dim,
    )
    return vocab, table, [vocab.encode_all(docs) for docs in docsets]


def _edge_table(config: ExperimentConfig, train_enc: list[EncodedDocument]) -> EdgeTable:
    window = config.train.window
    counts = count_cooccurrences(train_enc, window)
    return assign_edge_params(counts, config.train.min_edge_frequency, window)


def _run_gnn(
    config: ExperimentConfig,
    prepared: PreparedProject,
    encoded: Encoded,
    result: ProjectResult,
    models_dir: Path | None,
) -> None:
    master = config.train.seed
    project = prepared.project
    split = prepared.split
    vocab, table, (train_enc, val_enc, test_enc) = encoded
    edges = _edge_table(config, train_enc)
    task = config.task
    cv = prepared.class_values
    train_graphs = build_graphs(
        train_enc, config.train.window, edges,
        labels=labels_for(split.train, task, cv),
    )
    val_graphs = build_graphs(
        val_enc, config.train.window, edges,
        labels=labels_for(split.validation, task, cv),
    )

    n_classes = len(cv) if task == TASK_REGRESS else len(StoryPointLevel)
    init_params = gnn.init_parameters(
        table.matrix,
        edges.num_edge_params,
        n_classes,
        seed=derive_seed(master, project, "init"),
    )
    train_cfg = replace(config.train, seed=derive_seed(master, project, "train"))
    started = time.perf_counter()
    trained = gnn.train(init_params, train_graphs, val_graphs, train_cfg)
    result.train_seconds = time.perf_counter() - started

    # the master-seed config goes into the bundle: the per-project train
    # seed is re-derivable from it, and split recovery at eval time needs
    # the master
    bundle = ModelBundle(
        params=trained.params,
        config=config.train,
        vocabulary=vocab,
        edge_table=edges,
        project=project,
        text_mode=config.text_mode,
        split_hash=prepared.split_hash,
        class_values=cv,
    )
    result.gnn_accuracy, result.gnn_mae = score_gnn(bundle, test_enc, split.test)

    # every training token is a node of some training graph, and every
    # counted pair an edge of one
    result.node_count = vocab.size - 1
    result.edge_count = edges.distinct_pair_count

    if models_dir is not None:
        save_model(models_dir / f"{project}.model", bundle)


def _run_baseline(
    config: ExperimentConfig,
    prepared: PreparedProject,
    result: ProjectResult,
    models_dir: Path | None,
) -> None:
    split = prepared.split
    task = "classify" if config.task == TASK_CLASSIFY else "regress"
    started = time.perf_counter()
    tfidf = bl.tfidf_fit([d.tokens for d in split.train])
    train_vecs = [bl.tfidf_transform(tfidf, d.tokens) for d in split.train]
    if task == "classify":
        targets: list = [int(d.level) for d in split.train]
    else:
        targets = [float(d.raw_story_point) for d in split.train]
    rf_config = bl.RandomForestConfig(
        seed=derive_seed(config.train.seed, prepared.project, "baseline")
    )
    forest = bl.rf_fit(train_vecs, targets, rf_config, task=task)
    result.baseline_seconds = time.perf_counter() - started

    test_vecs = [bl.tfidf_transform(tfidf, d.tokens) for d in split.test]
    predictions = bl.rf_predict_many(forest, test_vecs)
    if task == "classify":
        result.baseline_accuracy = accuracy_percent(
            predictions, [int(d.level) for d in split.test]
        )
    else:
        result.baseline_mae = mean_absolute_error(
            predictions, [float(d.raw_story_point) for d in split.test]
        )

    if models_dir is not None:
        save_baseline_model(
            models_dir / f"{prepared.project}.baseline",
            BaselineBundle(tfidf=tfidf, forest=forest),
        )


def _result_for(prepared: PreparedProject) -> ProjectResult:
    split = prepared.split
    return ProjectResult(
        project=prepared.project,
        train_size=len(split.train),
        val_size=len(split.validation),
        test_size=len(split.test),
        split_hash=prepared.split_hash,
    )


def _run_project(config: ExperimentConfig, project: str, run_dir: Path) -> ProjectResult:
    prepared = prepare_project(config, project)
    split = prepared.split
    result = _result_for(prepared)
    models_dir = None
    if config.save_models:
        models_dir = run_dir / "models"
        models_dir.mkdir(parents=True, exist_ok=True)
    if config.model in ("gnn", "both"):
        encoded = _encode(
            config, prepared, split.train, split.validation, split.test,
            use_vectors=True,
        )
        _run_gnn(config, prepared, encoded, result, models_dir)
    if config.model in ("tfidf-rf", "both"):
        _run_baseline(config, prepared, result, models_dir)
    return result


def _stats_project(config: ExperimentConfig, project: str, run_dir: Path) -> ProjectResult:
    """Split sizes and graph scale of one project, without training: every
    training token is a node of some training graph and every counted pair
    an edge of one, so no graph is built."""
    prepared = prepare_project(config, project)
    vocab, _, (train_enc,) = _encode(config, prepared, prepared.split.train)
    result = _result_for(prepared)
    result.node_count = vocab.size - 1
    result.edge_count = _edge_table(config, train_enc).distinct_pair_count
    return result


# report kind -> (the baseline's column, the metric both models report in
# ProjectResult's baseline_<metric> and gnn_<metric>)
REPORT_COLUMNS = {
    "classification": ("TFIDF-RF", "accuracy"),
    "regression": ("TFIDF-RFR", "mae"),
}


def score_columns(kind: str) -> tuple[tuple[str, str], ...]:
    """(column, ProjectResult attribute) of each model's score in a report
    of this kind, baseline first."""
    column, metric = REPORT_COLUMNS[kind]
    return (column, f"baseline_{metric}"), ("GNN", f"gnn_{metric}")


@dataclass
class EvalReport:
    kind: str  # a REPORT_COLUMNS key, or "stats" for runs that train nothing
    config_echo: dict
    rows: list[ProjectResult] = field(default_factory=list)

    def average(self, attr: str) -> float | None:
        """Mean of a ProjectResult attribute over the rows that have it."""
        values = [getattr(r, attr) for r in self.rows]
        values = [v for v in values if v is not None]
        if not values:
            return None
        return float(np.mean(values))


def experiment_name(config: ExperimentConfig, kind: str) -> str:
    return f"{kind}-{config.text_mode}"


def _run_dir(config: ExperimentConfig, kind: str) -> Path:
    """The kind's run directory, holding a snapshot of the config."""
    run_dir = Path(config.output_dir) / experiment_name(config, kind)
    run_dir.mkdir(parents=True, exist_ok=True)
    snapshot = dict(sorted(config.echo().items()))
    (run_dir / "config.json").write_text(
        json.dumps(snapshot, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    return run_dir


def _named(err: Exception, project: str) -> Exception:
    """An error of err's type whose message names the project, or err
    itself when its type is not built from one message."""
    if isinstance(err, UnicodeDecodeError):
        # built from its fields: the name goes in front of the reason
        return UnicodeDecodeError(
            err.encoding, err.object, err.start, err.end, f"{project}: {err.reason}"
        )
    try:
        return type(err)(f"{project}: {err}")
    except TypeError:
        return err


def _run_named(run_one, config: ExperimentConfig, project: str, run_dir: Path):
    """run_one(config, project, run_dir), naming the project in any error
    it raises."""
    try:
        return run_one(config, project, run_dir)
    except Exception as err:
        named = _named(err, project)
        if named is err:
            raise
        raise named from err


def _collect(config: ExperimentConfig, projects, run_dir: Path, run_one) -> list:
    """run_one(config, project, run_dir) per project, in project order, in
    up to config.jobs worker processes. An error names its project."""
    n = len(projects)
    if config.jobs > 1 and n > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            return list(
                pool.map(_run_named, [run_one] * n, [config] * n, projects, [run_dir] * n)
            )
    return [_run_named(run_one, config, p, run_dir) for p in projects]


def _report(config: ExperimentConfig, kind: str, run_one) -> EvalReport:
    rows = _collect(config, config.resolved_projects(), _run_dir(config, kind), run_one)
    return EvalReport(kind=kind, config_echo=config.echo(), rows=rows)


def run_classification(config: ExperimentConfig) -> EvalReport:
    """Per-project effort-level accuracy for the selected model(s)."""
    return _report(replace(config, task=TASK_CLASSIFY), "classification", _run_project)


def run_regression(config: ExperimentConfig) -> EvalReport:
    """Per-project story-point MAE, story points used directly as labels."""
    return _report(replace(config, task=TASK_REGRESS), "regression", _run_project)


def run_graph_stats(config: ExperimentConfig) -> EvalReport:
    """Graph-scale analysis without training: per project, the size of the
    training split and the distinct node/edge counts of its word graphs."""
    return _report(config, "stats", _stats_project)


# --- window sweep -----------------------------------------------------------


@dataclass
class SweepRow:
    project: str
    window: int
    edge_count: int
    accuracy: float | None = None


@dataclass
class SweepReport:
    config_echo: dict
    rows: list[SweepRow] = field(default_factory=list)


def _sweep_project(config: ExperimentConfig, project: str, run_dir: Path) -> list[SweepRow]:
    prepared = prepare_project(config, project)
    split = prepared.split
    if config.model not in ("gnn", "both"):
        _, _, (train_enc,) = _encode(config, prepared, split.train)
        return [
            SweepRow(project, window, len(count_cooccurrences(train_enc, window)))
            for window in config.windows
        ]
    encoded = _encode(
        config, prepared, split.train, split.validation, split.test,
        use_vectors=True,
    )
    rows = []
    for window in config.windows:
        window_config = replace(config, train=replace(config.train, window=window))
        result = ProjectResult(project=project)
        _run_gnn(window_config, prepared, encoded, result, None)
        rows.append(SweepRow(project, window, result.edge_count, result.gnn_accuracy))
    return rows


def run_window_sweep(config: ExperimentConfig) -> SweepReport:
    """Distinct-edge count (and optionally accuracy) per window size.

    Edge counts are pre-threshold distinct ordered pairs on the training
    split, the quantity that grows with the window; accuracy re-trains the
    model at each window unless the model selection excludes it.
    """
    run_dir = _run_dir(config, "sweep")
    report = SweepReport(config_echo=config.echo())
    for rows in _collect(config, config.resolved_projects(), run_dir, _sweep_project):
        report.rows.extend(rows)
    return report


# --- report files -----------------------------------------------------------


def _fmt(value: float | None, decimals: int = 2) -> str:
    return "-" if value is None else f"{value:.{decimals}f}"


def _comment_lines(echo: dict) -> list[str]:
    return [f"# {key} = {echo[key]}" for key in sorted(echo)]


def _write_tables(
    out: Path, stem: str, comments: list[str], header: list[str],
    body: list[list[str]],
) -> list[Path]:
    """The table as <stem>.csv and as column-aligned <stem>.txt."""
    widths = [
        max(len(header[i]), *(len(row[i]) for row in body), 1)
        if body
        else len(header[i])
        for i in range(len(header))
    ]

    def pad(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    tables = {
        ".csv": [",".join(row) for row in (header, *body)],
        ".txt": [pad(header), pad(["-" * w for w in widths]), *map(pad, body)],
    }
    paths = []
    for suffix, lines in tables.items():
        path = out / (stem + suffix)
        path.write_text("\n".join([*comments, *lines]) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def emit_report(
    report: EvalReport | SweepReport,
    out_dir: str | Path,
    include_timings: bool = True,
) -> list[Path]:
    """Write the report as plain text and as delimiter-separated values.

    The config echo rides along as '#' comment lines. Timings can be left
    out to make the stats files reproducible byte for byte. A report of a
    kind without scores (a stats run trains nothing) gets only the stats
    table.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    comments = _comment_lines(report.config_echo)

    if isinstance(report, SweepReport):
        body = [
            [r.project, str(r.window), str(r.edge_count), _fmt(r.accuracy)]
            for r in report.rows
        ]
        return _write_tables(
            out, "sweep", comments, ["Project", "Window", "Edges", "Accuracy"], body
        )

    written: list[Path] = []
    if report.kind in REPORT_COLUMNS:
        columns = score_columns(report.kind)
        body = [
            [
                str(i + 1),
                r.project,
                *(_fmt(getattr(r, attr)) for _, attr in columns),
                r.split_hash,
            ]
            for i, r in enumerate(report.rows)
        ]
        if report.rows:
            body.append(
                ["", "Average", *(_fmt(report.average(attr)) for _, attr in columns), ""]
            )
        header = ["No", "Software", *(column for column, _ in columns), "SplitHash"]
        written += _write_tables(out, "report", comments, header, body)

    body = [
        [
            r.project,
            str(r.train_size),
            str(r.node_count),
            str(r.edge_count),
            _fmt(r.train_seconds) if include_timings else "-",
        ]
        for r in report.rows
    ]
    header = ["Project", "Size", "Nodes", "Edges", "TrainTime"]
    return written + _write_tables(out, "stats", comments, header, body)
