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
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from . import baseline as bl
from . import gnn
from .corpus import (
    TokenizedDocument,
    DatasetSplit,
    class_count,
    load_issues,
    split_dataset,
    tokenize_issues,
)
from .embeddings import (
    EmbeddingTable,
    EncodedDocument,
    Vocabulary,
    build_vocab,
    build_vocabulary,
    dump_vocabulary,
    load_pretrained_vectors,
    row_provenance,
)
from .errors import EmptyDatasetError, StoryGraphError, check_options, option
from .graph import assign_edge_params, build_graphs, count_cooccurrences
from .model_io import BaselineBundle, ModelBundle, save_baseline_model, save_model
from .tagging import LexiconTagger

DEFAULT_WINDOWS = (2, 5, 10, 20, 50, 100)

# each task's name in the paper, as the config echo spells it
TASK_NAMES = {"classify": "level-classification", "regress": "sp-as-label-regression"}
MODE_RAW = "raw"
MODE_FILTERED = "verb-noun-filter"


@dataclass
class ExperimentConfig:
    """One run's settings. Its field defaults, with TrainConfig's, are the
    built-in defaults of every run, the CLI's included; each option's legal
    values sit beside its default and are checked on construction."""

    data_dir: Path = option(kind=Path, key="data")
    output_dir: Path = option(Path("runs"), Path, key="out")
    projects: tuple[str, ...] = option((), str, key="project", many=True)  # (): every *.csv
    text_mode: str = option(MODE_RAW, key="mode", choices=(MODE_RAW, MODE_FILTERED))
    task: str = option("classify", choices=tuple(TASK_NAMES))
    model: str = option("both", choices=("gnn", "tfidf-rf", "both"))
    jobs: int = option(1, int, low=1)
    embedding_dim: int = option(300, int, key="dim", low=1)
    windows: tuple[int, ...] = option(DEFAULT_WINDOWS, int, low=1, many=True)
    vectors_path: Path | None = option(None, Path, key="vectors")
    train: gnn.TrainConfig = field(default_factory=gnn.TrainConfig)
    include_timings: bool = True
    save_models: bool = True

    __post_init__ = check_options

    def resolved_projects(self) -> tuple[str, ...]:
        if self.projects:
            return self.projects
        found = tuple(sorted(p.stem for p in self.data_dir.glob("*.csv")))
        if not found:
            raise EmptyDatasetError(f"{self.data_dir}: no *.csv project files")
        return found

    def echo(self) -> dict[str, object]:
        """Everything a reader needs to audit or rerun the experiment."""
        return {
            **asdict(self.train),
            "task": TASK_NAMES[self.task],
            "text_mode": self.text_mode,
            "model": self.model,
            "optimizer": "adam",
            "embedding_dim": self.embedding_dim,
            "vectors": self.vectors_path.name if self.vectors_path else "none",
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
    bundle: ModelBundle, encoded: list[EncodedDocument]
) -> tuple[float, float | None]:
    """A model's accuracy (%) on documents encoded against its vocabulary,
    and, when its classes are story points, its MAE in story points."""
    cv = bundle.class_values
    graphs = build_graphs(
        encoded, bundle.config.window, bundle.edge_table, labels=labels_for(encoded, cv)
    )
    rounds = bundle.config.rounds
    predictions = [gnn.predict(bundle.params, g, rounds=rounds)[0] for g in graphs]
    accuracy = accuracy_percent(predictions, [g.label for g in graphs])
    if not cv:
        return accuracy, None
    actual = [d.raw_story_point for d in encoded]
    return accuracy, mean_absolute_error([cv[p] for p in predictions], actual)


@dataclass
class PreparedProject:
    project: str
    split: DatasetSplit
    split_hash: str
    class_values: tuple[int, ...]  # story point per class index; (): effort levels
    # the vector file's rows of its training tokens (see _load_vector_rows)
    vector_rows: dict[str, np.ndarray] = field(default_factory=dict)


def prepare_project(config: ExperimentConfig, project: str) -> PreparedProject:
    """Load, tokenize (with optional verb-noun filter) and split one project."""
    path = config.data_dir / f"{project}.csv"
    issues, _ = load_issues(path)
    tagger = LexiconTagger() if config.text_mode == MODE_FILTERED else None
    docs, _ = tokenize_issues(issues, tagger=tagger)
    split = split_dataset(docs, seed=derive_seed(config.train.seed, project, "split"))
    class_values: tuple[int, ...] = ()
    if config.task == "regress":
        class_values = tuple(sorted({d.raw_story_point for d in split.train}))
    return PreparedProject(
        project=project,
        split=split,
        split_hash=split_hash(split),
        class_values=class_values,
    )


def labels_for(
    docs: Sequence[TokenizedDocument | EncodedDocument],
    class_values: tuple[int, ...],
) -> list[int]:
    """Each document's class: its effort level, or with `class_values` the
    index of its story point among them."""
    if not class_values:
        return [int(d.level) for d in docs]
    value_to_class = {v: i for i, v in enumerate(class_values)}
    # story points unseen in training have no class; -1 never matches a
    # prediction, so such documents count as errors
    return [value_to_class.get(d.raw_story_point, -1) for d in docs]


@dataclass
class ProjectResult:
    """One row of a report. A value the run did not compute, or was told
    not to time, is None."""

    project: str
    window: int | None = None  # a sweep row's window size
    train_size: int = 0
    test_size: int = 0
    split_hash: str = ""
    gnn_accuracy: float | None = None
    baseline_accuracy: float | None = None
    gnn_mae: float | None = None
    baseline_mae: float | None = None
    node_count: int | None = None
    edge_count: int | None = None
    train_seconds: float | None = None


Encoded = tuple[Vocabulary, EmbeddingTable, list[list[EncodedDocument]]]


def _trains_gnn(config: ExperimentConfig) -> bool:
    return config.model in ("gnn", "both")


def _load_vector_rows(config: ExperimentConfig, prepared: list[PreparedProject]) -> None:
    """Give each project its rows of the vector file: those of its training
    tokens. The file is read once, for the union of every project's
    training tokens, so its errors name no project."""
    own = [{tok for doc in p.split.train for tok in doc.tokens} for p in prepared]
    rows = load_pretrained_vectors(
        config.vectors_path, set().union(*own), dim=config.embedding_dim
    )
    for p, tokens in zip(prepared, own):
        p.vector_rows = {tok: rows[tok] for tok in tokens if tok in rows}


def _encode(config: ExperimentConfig, prepared: PreparedProject, *docsets) -> Encoded:
    """The training vocabulary, its initial embeddings, and each docset
    encoded against it. Rows of training tokens found in the project's
    vector rows are copied; the rest are random. The rows are emptied once
    the table holds them, so they do not stay in memory while the project
    trains."""
    vocab, table = build_vocab(
        prepared.split.train,
        prepared.vector_rows,
        seed=derive_seed(config.train.seed, prepared.project, "vocab"),
        dim=config.embedding_dim,
    )
    prepared.vector_rows.clear()
    return vocab, table, [vocab.encode_all(docs) for docs in docsets]


def _encode_train(prepared: PreparedProject) -> tuple[Vocabulary, list[EncodedDocument]]:
    """The training vocabulary and the training split encoded against it,
    for runs that train nothing and so read no embedding table."""
    vocab = build_vocabulary(prepared.split.train)
    return vocab, vocab.encode_all(prepared.split.train)


def _run_gnn(
    config: ExperimentConfig,
    prepared: PreparedProject,
    encoded: Encoded,
    result: ProjectResult,
    models_dir: Path | None,
) -> None:
    master = config.train.seed
    project = prepared.project
    vocab, table, (train_enc, val_enc, test_enc) = encoded
    window = config.train.window
    counts = count_cooccurrences(train_enc, window)
    # every training token is a node of some training graph, and every
    # counted pair an edge of one
    result.node_count = vocab.size - 1
    result.edge_count = len(counts)
    edges = assign_edge_params(counts, config.train.min_edge_frequency)
    del counts  # not held while training
    cv = prepared.class_values
    train_graphs = build_graphs(train_enc, window, edges, labels=labels_for(train_enc, cv))
    val_graphs = build_graphs(val_enc, window, edges, labels=labels_for(val_enc, cv))

    init_params = gnn.init_parameters(table.matrix, edges.num_edge_params, class_count(cv),
                                      seed=derive_seed(master, project, "init"))
    train_cfg = replace(config.train, seed=derive_seed(master, project, "train"))
    trained = gnn.train(init_params, train_graphs, val_graphs, train_cfg)
    if config.include_timings:
        result.train_seconds = trained.total_seconds

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
    result.gnn_accuracy, result.gnn_mae = score_gnn(bundle, test_enc)

    if models_dir is not None:
        models_dir.mkdir(parents=True, exist_ok=True)
        save_model(models_dir / f"{project}.model", bundle)


def _run_baseline(
    config: ExperimentConfig,
    prepared: PreparedProject,
    result: ProjectResult,
    models_dir: Path | None,
) -> None:
    split = prepared.split
    task = config.task

    def targets(docs) -> list[int]:
        """The forest's target of each document: its effort level, or its
        story point when regressing."""
        if task == "classify":
            return labels_for(docs, ())
        return [d.raw_story_point for d in docs]

    tfidf = bl.tfidf_fit([d.tokens for d in split.train])
    rf_config = bl.RandomForestConfig(
        seed=derive_seed(config.train.seed, prepared.project, "baseline")
    )
    forest = bl.rf_fit(
        bl.tfidf_transform(tfidf, [d.tokens for d in split.train]),
        targets(split.train), rf_config, task=task,
    )
    predictions = bl.rf_predict_many(
        forest, bl.tfidf_transform(tfidf, [d.tokens for d in split.test])
    )
    if task == "classify":
        result.baseline_accuracy = accuracy_percent(predictions, targets(split.test))
    else:
        result.baseline_mae = mean_absolute_error(predictions, targets(split.test))

    if models_dir is not None:
        models_dir.mkdir(parents=True, exist_ok=True)
        save_baseline_model(
            models_dir / f"{prepared.project}.baseline",
            BaselineBundle(tfidf=tfidf, forest=forest),
        )


def _result_for(prepared: PreparedProject) -> ProjectResult:
    split = prepared.split
    return ProjectResult(
        project=prepared.project,
        train_size=len(split.train),
        test_size=len(split.test),
        split_hash=prepared.split_hash,
    )


def _run_project(
    config: ExperimentConfig, prepared: PreparedProject, run_dir: Path
) -> list[ProjectResult]:
    split = prepared.split
    result = _result_for(prepared)
    # made by the first save, so a run that fails first leaves no directory
    models_dir = run_dir / "models" if config.save_models else None
    if _trains_gnn(config):
        encoded = _encode(config, prepared, split.train, split.validation, split.test)
        _run_gnn(config, prepared, encoded, result, models_dir)
    if config.model in ("tfidf-rf", "both"):
        _run_baseline(config, prepared, result, models_dir)
    return [result]


def _stats_project(
    config: ExperimentConfig, prepared: PreparedProject, run_dir: Path
) -> list[ProjectResult]:
    """Split sizes and graph scale of one project, without training: every
    training token is a node of some training graph and every counted pair
    an edge of one, so no graph is built."""
    vocab, train_enc = _encode_train(prepared)
    result = _result_for(prepared)
    result.node_count = vocab.size - 1
    result.edge_count = len(count_cooccurrences(train_enc, config.train.window))
    return [result]


# report kind -> (the baseline's column, the metric both models report in
# ProjectResult's baseline_<metric> and gnn_<metric>, how the summary shows
# one model's score)
REPORT_COLUMNS = {
    "classification": ("TFIDF-RF", "accuracy", "{} {:.2f}%"),
    "regression": ("TFIDF-RFR", "mae", "{} mae {:.2f}"),
}


def score_columns(kind: str) -> tuple[tuple[str, str], ...]:
    """(column, ProjectResult attribute) of each model's score in a report
    of this kind, baseline first."""
    column, metric, _ = REPORT_COLUMNS[kind]
    return (column, f"baseline_{metric}"), ("GNN", f"gnn_{metric}")


@dataclass
class EvalReport:
    kind: str  # a REPORT_COLUMNS key, "stats" (a run that trains nothing) or "sweep"
    config_echo: dict
    rows: list[ProjectResult] = field(default_factory=list)
    files: list[Path] = field(default_factory=list)  # as emit_report returns them

    def average(self, attr: str) -> float | None:
        """Mean of a ProjectResult attribute over the rows that have it."""
        values = [getattr(r, attr) for r in self.rows]
        values = [v for v in values if v is not None]
        if not values:
            return None
        return float(np.mean(values))

    def summary(self) -> list[str]:
        """The run's lines for a reader: one per row, then, for a kind with
        scores, the averages."""
        if self.kind == "stats":
            return [f"{r.project}: size {r.train_size}, nodes {r.node_count}, "
                    f"edges {r.edge_count}" for r in self.rows]
        if self.kind == "sweep":
            return [f"{r.project} w={r.window}: {r.edge_count} edges"
                    + ("" if r.gnn_accuracy is None else f", accuracy {r.gnn_accuracy:.2f}%")
                    for r in self.rows]
        columns = score_columns(self.kind)
        shown = REPORT_COLUMNS[self.kind][2]

        def scores(values) -> str:
            return ", ".join(
                shown.format(column.lower(), value)
                for (column, _), value in zip(columns, values)
                if value is not None
            )

        return [
            *(f"{r.project}: " + scores(getattr(r, attr) for _, attr in columns)
              for r in self.rows),
            "average: " + scores(self.average(attr) for _, attr in columns),
        ]


def _write_config(config: ExperimentConfig, run_dir: Path) -> None:
    """The config snapshot of a run whose every project has succeeded."""
    run_dir.mkdir(parents=True, exist_ok=True)
    snapshot = dict(sorted(config.echo().items()))
    (run_dir / "config.json").write_text(
        json.dumps(snapshot, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )


def _named(err: Exception, project: str) -> Exception:
    """An error of err's type whose message names the project, or err
    itself when its type is not built from one message; numpy's failed
    allocation, built from a shape and a dtype, becomes a MemoryError."""
    if isinstance(err, UnicodeDecodeError):
        # built from its fields: the name goes in front of the reason
        return UnicodeDecodeError(
            err.encoding, err.object, err.start, err.end, f"{project}: {err.reason}"
        )
    try:
        return type(err)(f"{project}: {err}")
    except TypeError:
        return MemoryError(f"{project}: {err}") if isinstance(err, MemoryError) else err


def _run_named(fn, project: str, *args):
    """fn(*args), naming the project in any error it raises."""
    try:
        return fn(*args)
    except Exception as err:
        named = _named(err, project)
        if named is err:
            raise
        raise named from err


def _collect(
    config: ExperimentConfig, projects, run_dir: Path, run_one, use_vectors: bool
) -> list:
    """run_one(config, prepared, run_dir) per project, in project order, in
    up to config.jobs worker processes, one at most per project.

    Two phases share one pool. Every project is prepared first; then, with
    `use_vectors` and a vector file, this process reads the file once and
    each prepared project carries only its own rows to its run (see
    _load_vector_rows). An error from a project names it; a worker that
    dies (killed, or out of memory) ends the run in a StoryGraphError."""
    n = len(projects)
    parallel = config.jobs > 1 and n > 1
    broken = ()  # what a pool raises once a worker has died
    if parallel:
        # imported only where a pool is made: it costs every CLI process
        # about 16 ms
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool as broken
    try:
        with ProcessPoolExecutor(min(config.jobs, n)) if parallel else nullcontext() as pool:
            map_ = pool.map if parallel else map
            prepared = list(map_(_run_named, [prepare_project] * n, projects,
                                 [config] * n, projects))
            if use_vectors and config.vectors_path:
                _load_vector_rows(config, prepared)
            return list(map_(_run_named, [run_one] * n, projects, [config] * n, prepared,
                             [run_dir] * n))
    except broken as err:
        raise StoryGraphError("a worker process ended without a result") from err


def _run(config: ExperimentConfig, kind: str, run_one, use_vectors: bool) -> EvalReport:
    """The report of the rows run_one returns for each project, in project
    order. The run directory, <kind>-<mode>, gets the report files and the
    config snapshot only once every project has succeeded (a model save
    makes it earlier)."""
    run_dir = config.output_dir / f"{kind}-{config.text_mode}"
    results = _collect(config, config.resolved_projects(), run_dir, run_one, use_vectors)
    report = EvalReport(kind, config.echo(), [row for rows in results for row in rows])
    _write_config(config, run_dir)
    report.files = emit_report(report, run_dir)
    return report


def run_classification(config: ExperimentConfig) -> EvalReport:
    """Per-project effort-level accuracy for the selected model(s)."""
    return _run(replace(config, task="classify"), "classification",
                _run_project, _trains_gnn(config))


def run_regression(config: ExperimentConfig) -> EvalReport:
    """Per-project story-point MAE, story points used directly as labels."""
    return _run(replace(config, task="regress"), "regression",
                _run_project, _trains_gnn(config))


def run_graph_stats(config: ExperimentConfig) -> EvalReport:
    """Graph-scale analysis without training: per project, the size of the
    training split and the distinct node/edge counts of its word graphs."""
    return _run(config, "stats", _stats_project, use_vectors=False)


# --- window sweep -----------------------------------------------------------


def _sweep_project(
    config: ExperimentConfig, prepared: PreparedProject, run_dir: Path
) -> list[ProjectResult]:
    split = prepared.split
    if not _trains_gnn(config):
        _, train_enc = _encode_train(prepared)
        return [
            replace(_result_for(prepared), window=window,
                    edge_count=len(count_cooccurrences(train_enc, window)))
            for window in config.windows
        ]
    vocab, table, docsets = _encode(config, prepared, split.train, split.validation,
                                    split.test)
    rows = []
    for window in config.windows:
        window_config = replace(config, train=replace(config.train, window=window))
        result = replace(_result_for(prepared), window=window)
        # training writes the table it starts from, so every window trains
        # its own copy and starts from the same bytes
        _run_gnn(window_config, prepared,
                 (vocab, replace(table, matrix=table.matrix.copy()), docsets),
                 result, None)
        rows.append(result)
    return rows


def run_window_sweep(config: ExperimentConfig) -> EvalReport:
    """Distinct-edge count (and optionally accuracy) per window size.

    Edge counts are pre-threshold distinct ordered pairs on the training
    split, the quantity that grows with the window; accuracy re-trains the
    model at each window unless the model selection excludes it.
    """
    return _run(config, "sweep", _sweep_project, _trains_gnn(config))


# --- split manifests and saved models ---------------------------------------


def _prepare_files(config: ExperimentConfig, prepared: PreparedProject, out_dir: Path) -> str:
    """Write one project's split manifest and vocabulary dump; returns the
    line that summarises them."""
    project = prepared.project
    split = prepared.split
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"# seed = {config.train.seed}", f"# split_hash = {prepared.split_hash}"]
    for section, docs in (("train", split.train), ("validation", split.validation),
                          ("test", split.test)):
        lines.append(f"[{section}]")
        lines.extend(d.doc_id for d in docs)
    (out_dir / f"{project}.split.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    vocab = build_vocabulary(split.train)
    provenance = row_provenance(vocab, prepared.vector_rows, config.embedding_dim)
    dump_vocabulary(vocab, split.train, provenance, out_dir / f"{project}.vocab.tsv")
    return (f"{project}: {len(split.train)}/{len(split.validation)}/"
            f"{len(split.test)} train/val/test, vocabulary {vocab.size}")


def run_prepare(config: ExperimentConfig) -> tuple[list[str], Path]:
    """Each project's split manifest and vocabulary dump, written into
    <out>/prepare; returns each project's summary line and that directory."""
    out_dir = config.output_dir / "prepare"
    return _collect(config, config.resolved_projects(), out_dir, _prepare_files,
                    use_vectors=True), out_dir


def _eval_project(bundle: ModelBundle, config: ExperimentConfig, prepared: PreparedProject,
                  run_dir: Path) -> ProjectResult:
    if prepared.split_hash != bundle.split_hash:
        raise StoryGraphError(f"the data now splits to hash {prepared.split_hash}, "
                              f"the model was trained on split {bundle.split_hash}")
    result = _result_for(prepared)
    test = bundle.vocabulary.encode_all(prepared.split.test)
    result.gnn_accuracy, result.gnn_mae = score_gnn(bundle, test)
    return result


def eval_model(config: ExperimentConfig, bundle: ModelBundle) -> ProjectResult:
    """A saved model's scores on its project's test split, rebuilt under
    `config`, which holds the model's run. Refuses the model if the split
    no longer hashes to the one it was trained on. An error names the
    project."""
    [result] = _collect(config, (bundle.project,), config.output_dir,
                        partial(_eval_project, bundle), use_vectors=False)
    return result


# --- report files -----------------------------------------------------------


def _fmt(value: float | int | None, spec: str = ".2f") -> str:
    return "-" if value is None else format(value, spec)


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


def emit_report(report: EvalReport, out_dir: str | Path) -> list[Path]:
    """Write the report's tables as plain text and as comma-separated values;
    returns the files written, the kind's own table first.

    The config echo rides along as '#' comment lines, and '-' stands for a
    value the run did not compute or time. A sweep gets the sweep table;
    every other kind gets the stats table, after the report table if the
    kind has scores.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    comments = _comment_lines(report.config_echo)

    if report.kind == "sweep":
        body = [
            [r.project, str(r.window), _fmt(r.edge_count, "d"), _fmt(r.gnn_accuracy)]
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
            _fmt(r.node_count, "d"),
            _fmt(r.edge_count, "d"),
            _fmt(r.train_seconds),
        ]
        for r in report.rows
    ]
    header = ["Project", "Size", "Nodes", "Edges", "TrainTime"]
    return written + _write_tables(out, "stats", comments, header, body)
