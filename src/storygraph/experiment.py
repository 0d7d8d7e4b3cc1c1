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
from dataclasses import dataclass, field, replace
from functools import lru_cache
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
    data_dir: Path
    output_dir: Path
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
            "task": self.task,
            "text_mode": self.text_mode,
            "model": self.model,
            "seed": self.train.seed,
            "window": self.train.window,
            "min_edge_frequency": self.train.min_edge_frequency,
            "batch_size": self.train.batch_size,
            "dropout": self.train.dropout,
            "optimizer": "adam",
            "learning_rate": self.train.learning_rate,
            "weight_decay": self.train.weight_decay,
            "max_epochs": self.train.max_epochs,
            "patience": self.train.patience,
            "rounds": self.train.rounds,
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


@lru_cache(maxsize=4)
def _pretrained(path_str: str, dim: int):
    return load_pretrained_vectors(path_str, dim=dim)


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
    config: ExperimentConfig, prepared: PreparedProject, pretrained, *docsets
) -> Encoded:
    """The training vocabulary, its initial embeddings, and each docset
    encoded against it."""
    vocab, table = build_vocab(
        prepared.split.train,
        pretrained,
        seed=derive_seed(config.train.seed, prepared.project, "vocab"),
        dim=config.embedding_dim,
    )
    return vocab, table, [vocab.encode_all(docs) for docs in docsets]


def _pretrained_vectors(config: ExperimentConfig):
    if not config.vectors_path:
        return {}
    return _pretrained(str(config.vectors_path), config.embedding_dim)


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
    test_graphs = build_graphs(
        test_enc, config.train.window, edges,
        labels=labels_for(split.test, task, cv),
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
    params = trained.params

    predictions = [
        gnn.predict(params, g, rounds=train_cfg.rounds)[0] for g in test_graphs
    ]
    result.gnn_accuracy = accuracy_percent(predictions, [g.label for g in test_graphs])
    if task == TASK_REGRESS:
        predicted_points = [cv[p] for p in predictions]
        actual_points = [d.raw_story_point for d in split.test]
        result.gnn_mae = mean_absolute_error(predicted_points, actual_points)

    # every training token is a node of some training graph, and every
    # counted pair an edge of one
    result.node_count = vocab.size - 1
    result.edge_count = edges.distinct_pair_count

    if models_dir is not None:
        # the master-seed config goes into the file: the per-project train
        # seed is re-derivable from it, and split recovery at eval time
        # needs the master
        bundle = ModelBundle(
            params=params,
            config=config.train,
            vocabulary=vocab,
            edge_table=edges,
            class_values=cv,
        )
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


def _run_project(config: ExperimentConfig, project: str, run_dir: Path) -> ProjectResult:
    prepared = prepare_project(config, project)
    split = prepared.split
    result = ProjectResult(
        project=project,
        train_size=len(split.train),
        val_size=len(split.validation),
        test_size=len(split.test),
        split_hash=prepared.split_hash,
    )
    models_dir = None
    if config.save_models:
        models_dir = run_dir / "models"
        models_dir.mkdir(parents=True, exist_ok=True)
    try:
        if config.model in ("gnn", "both"):
            encoded = _encode(
                config, prepared, _pretrained_vectors(config),
                split.train, split.validation, split.test,
            )
            _run_gnn(config, prepared, encoded, result, models_dir)
        if config.model in ("tfidf-rf", "both"):
            _run_baseline(config, prepared, result, models_dir)
    except Exception as err:
        raise type(err)(f"{project}: {err}") from err
    return result


@dataclass
class EvalReport:
    kind: str  # "classification" | "regression"
    config_echo: dict
    rows: list[ProjectResult] = field(default_factory=list)

    def _mean(self, attr: str) -> float | None:
        values = [getattr(r, attr) for r in self.rows]
        values = [v for v in values if v is not None]
        if not values:
            return None
        return float(np.mean(values))

    def average_gnn_accuracy(self) -> float | None:
        return self._mean("gnn_accuracy")

    def average_baseline_accuracy(self) -> float | None:
        return self._mean("baseline_accuracy")

    def average_gnn_mae(self) -> float | None:
        return self._mean("gnn_mae")

    def average_baseline_mae(self) -> float | None:
        return self._mean("baseline_mae")


def experiment_name(config: ExperimentConfig, kind: str) -> str:
    return f"{kind}-{config.text_mode}"


def _run_dir(config: ExperimentConfig, kind: str) -> Path:
    run_dir = Path(config.output_dir) / experiment_name(config, kind)
    run_dir.mkdir(parents=True, exist_ok=True)
    return run_dir


def _write_config_snapshot(config: ExperimentConfig, run_dir: Path) -> None:
    snapshot = dict(sorted(config.echo().items()))
    (run_dir / "config.json").write_text(
        json.dumps(snapshot, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )


def _collect(config: ExperimentConfig, projects, run_dir: Path, run_one) -> list:
    """run_one(config, project, run_dir) per project, in project order, in
    up to config.jobs worker processes."""
    if config.jobs > 1 and len(projects) > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            return list(
                pool.map(run_one, [config] * len(projects), projects,
                         [run_dir] * len(projects))
            )
    return [run_one(config, p, run_dir) for p in projects]


def run_classification(config: ExperimentConfig) -> EvalReport:
    """Per-project effort-level accuracy for the selected model(s)."""
    config = replace(config, task=TASK_CLASSIFY)
    run_dir = _run_dir(config, "classification")
    _write_config_snapshot(config, run_dir)
    rows = _collect(config, config.resolved_projects(), run_dir, _run_project)
    return EvalReport(kind="classification", config_echo=config.echo(), rows=rows)


def run_regression(config: ExperimentConfig) -> EvalReport:
    """Per-project story-point MAE, story points used directly as labels."""
    config = replace(config, task=TASK_REGRESS)
    run_dir = _run_dir(config, "regression")
    _write_config_snapshot(config, run_dir)
    rows = _collect(config, config.resolved_projects(), run_dir, _run_project)
    return EvalReport(kind="regression", config_echo=config.echo(), rows=rows)


def run_graph_stats(config: ExperimentConfig) -> EvalReport:
    """Graph-scale analysis without training: per project, the size of the
    training split and the distinct node/edge counts of its word graphs.

    Every training token is a node of some training graph and every counted
    pair an edge of one, so no graph is built."""
    run_dir = _run_dir(config, "stats")
    _write_config_snapshot(config, run_dir)
    report = EvalReport(kind="classification", config_echo=config.echo())
    for project in config.resolved_projects():
        prepared = prepare_project(config, project)
        split = prepared.split
        vocab, _, (train_enc,) = _encode(config, prepared, {}, split.train)
        edges = _edge_table(config, train_enc)
        report.rows.append(
            ProjectResult(
                project=project,
                train_size=len(split.train),
                val_size=len(split.validation),
                test_size=len(split.test),
                split_hash=prepared.split_hash,
                node_count=vocab.size - 1,
                edge_count=edges.distinct_pair_count,
            )
        )
    return report


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
        _, _, (train_enc,) = _encode(config, prepared, {}, split.train)
        return [
            SweepRow(project, window, len(count_cooccurrences(train_enc, window)))
            for window in config.windows
        ]
    encoded = _encode(
        config, prepared, _pretrained_vectors(config),
        split.train, split.validation, split.test,
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
    _write_config_snapshot(config, run_dir)
    report = SweepReport(config_echo=config.echo())
    for rows in _collect(config, config.resolved_projects(), run_dir, _sweep_project):
        report.rows.extend(rows)
    return report


# --- report files -----------------------------------------------------------


def _fmt(value: float | None, decimals: int = 2) -> str:
    return "-" if value is None else f"{value:.{decimals}f}"


def _comment_lines(echo: dict) -> list[str]:
    return [f"# {key} = {echo[key]}" for key in sorted(echo)]


def _write_table(
    path: Path, comments: list[str], header: list[str], body: list[list[str]],
    delimiter: bool,
) -> None:
    lines = list(comments)
    if delimiter:
        lines.append(",".join(header))
        lines.extend(",".join(row) for row in body)
    else:
        widths = [
            max(len(header[i]), *(len(row[i]) for row in body), 1)
            if body
            else len(header[i])
            for i in range(len(header))
        ]
        def pad(cells):
            return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
        lines.append(pad(header))
        lines.append(pad(["-" * w for w in widths]))
        lines.extend(pad(row) for row in body)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_report(
    report: EvalReport | SweepReport,
    out_dir: str | Path,
    include_timings: bool = True,
    stats_only: bool = False,
) -> list[Path]:
    """Write the report as plain text and as delimiter-separated values.

    The config echo rides along as '#' comment lines. Timings can be left
    out to make the stats files reproducible byte for byte; stats_only
    skips the accuracy/MAE table for runs that never trained anything.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    comments = _comment_lines(report.config_echo)
    written: list[Path] = []

    if isinstance(report, SweepReport):
        header = ["Project", "Window", "Edges", "Accuracy"]
        body = [
            [r.project, str(r.window), str(r.edge_count), _fmt(r.accuracy)]
            for r in report.rows
        ]
        for name, delim in (("sweep.csv", True), ("sweep.txt", False)):
            path = out / name
            _write_table(path, comments, header, body, delim)
            written.append(path)
        return written

    if not stats_only:
        if report.kind == "classification":
            header = ["No", "Software", "TFIDF-RF", "GNN", "SplitHash"]
            body = [
                [
                    str(i + 1),
                    r.project,
                    _fmt(r.baseline_accuracy),
                    _fmt(r.gnn_accuracy),
                    r.split_hash,
                ]
                for i, r in enumerate(report.rows)
            ]
            if report.rows:
                body.append(
                    [
                        "",
                        "Average",
                        _fmt(report.average_baseline_accuracy()),
                        _fmt(report.average_gnn_accuracy()),
                        "",
                    ]
                )
        else:
            header = ["No", "Software", "TFIDF-RFR", "GNN", "SplitHash"]
            body = [
                [
                    str(i + 1),
                    r.project,
                    _fmt(r.baseline_mae),
                    _fmt(r.gnn_mae),
                    r.split_hash,
                ]
                for i, r in enumerate(report.rows)
            ]
            if report.rows:
                body.append(
                    [
                        "",
                        "Average",
                        _fmt(report.average_baseline_mae()),
                        _fmt(report.average_gnn_mae()),
                        "",
                    ]
                )
        for name, delim in (("report.csv", True), ("report.txt", False)):
            path = out / name
            _write_table(path, comments, header, body, delim)
            written.append(path)

    stats_header = ["Project", "Size", "Nodes", "Edges", "TrainTime"]
    stats_body = [
        [
            r.project,
            str(r.train_size),
            str(r.node_count),
            str(r.edge_count),
            _fmt(r.train_seconds) if include_timings else "-",
        ]
        for r in report.rows
    ]
    for name, delim in (("stats.csv", True), ("stats.txt", False)):
        path = out / name
        _write_table(path, comments, stats_header, stats_body, delim)
        written.append(path)
    return written
