"""End-to-end experiment harness: per-project runs, reports, sweeps.

Every run follows the same shape: load a project's issues, tokenize
(optionally keeping only verbs and nouns), split, then train and score the
word-graph model and the tf-idf forest on byte-identical splits. Results
land in one subdirectory per experiment: report files, model files, and
config.json, the run's settings as a config file states them: the options
that can change its outputs, which --config reads back.

Seeding: one master seed; each project/component pair gets its own stream
through stable hashing, so projects are independent and safe to run in
parallel without sharing generator state.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

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
from .errors import (EmptyDatasetError, StoryGraphError, check_options, named_error,
                     option, options)
from .graph import assign_edge_params, build_graphs, count_cooccurrences
from .model_io import BaselineBundle, ModelBundle, save_baseline_model, save_model
from .tagging import LexiconTagger

DEFAULT_WINDOWS = (2, 5, 10, 20, 50, 100)
MODE_RAW = "raw"
MODE_FILTERED = "verb-noun-filter"


@dataclass
class ExperimentConfig:
    """One run's settings. Its field defaults, with TrainConfig's, are the
    built-in defaults of every run, the CLI's included; each option's legal
    values sit beside its default and are checked on construction."""

    data_dir: Path = option(kind=Path, key="data")
    output_dir: Path = option(Path("runs"), Path, key="out")
    # (): every *.csv; a project is its file's name without .csv
    projects: tuple[str, ...] = option((), str, key="project", many=True, file_name=True)
    text_mode: str = option(MODE_RAW, key="mode", choices=(MODE_RAW, MODE_FILTERED))
    task: str = option("classify", choices=("classify", "regress"))
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


def option_values(config: ExperimentConfig) -> dict:
    """Option key -> the value `config` holds for it."""
    return {key: getattr(part, f.name) for part in (config, config.train)
            for key, f in options(type(part)).items()}


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
    # the graph scale, as _scale_rows counts it
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
    if config.model in ("gnn", "both"):
        encoded = _encode(config, prepared, split.train, split.validation, split.test)
        _run_gnn(config, prepared, encoded, result, models_dir)
    if config.model in ("tfidf-rf", "both"):
        _run_baseline(config, prepared, result, models_dir)
    return [result]


def _scale_rows(prepared: PreparedProject, windows: Sequence[int]) -> list[ProjectResult]:
    """Split sizes and graph scale of one project at each window, without
    training, embeddings or a graph: every training token is a node of some
    training graph and every counted pair an edge of one."""
    vocab = build_vocabulary(prepared.split.train)
    train_enc = vocab.encode_all(prepared.split.train)
    return [replace(_result_for(prepared), window=window, node_count=vocab.size - 1,
                    edge_count=len(count_cooccurrences(train_enc, window)))
            for window in windows]


def _stats_project(
    config: ExperimentConfig, prepared: PreparedProject, run_dir: Path
) -> list[ProjectResult]:
    """A stats row: a sweep row at the run's window, not marked as one."""
    [row] = _scale_rows(prepared, [config.train.window])
    return [replace(row, window=None)]


# report kind -> (the baseline's column, the metric both models report in
# ProjectResult's baseline_<metric> and gnn_<metric>, how a summary line
# shows one model's score cell)
REPORT_COLUMNS = {
    "classification": ("TFIDF-RF", "accuracy", "{} {}%"),
    "regression": ("TFIDF-RFR", "mae", "{} mae {}"),
}


@dataclass
class EvalReport:
    kind: str  # a REPORT_COLUMNS key, "stats" (a run that trains nothing) or "sweep"
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
        """The run's lines for a reader: the rows of its own table, read
        from the cells its files hold."""
        _, _, body, line = _tables(self)[0]
        return [line(cells) for cells in body]


def run_options(kind: str, model: str) -> set[str]:
    """The options a run of `kind` (a REPORT_COLUMNS key, "stats", "sweep"
    or "prepare") reads with `model`: those that can change its outputs. A
    prepare run reads the seed, mode, dimension and any vector file; a
    stats run the seed, mode and window; any other the seed, mode and
    model, and the task unless it is a forest-only sweep; a GNN run also
    every training option, the dimension and any vector file; and a sweep
    its windows in place of the window."""
    if kind == "prepare":
        return {"seed", "mode", "dim", "vectors"}
    if kind == "stats":
        return {"seed", "mode", "window"}
    keys = {"seed", "mode", "model"}
    if model in ("gnn", "both"):
        keys |= {"task", "dim", "vectors", *options(gnn.TrainConfig)}
    elif kind != "sweep":
        keys.add("task")
    if kind == "sweep":
        keys = keys - {"window"} | {"windows"}
    return keys


def _write_config(config: ExperimentConfig, keys: set[str], run_dir: Path) -> None:
    """config.json of a run whose every project has succeeded: the value of
    each option in `keys` (see run_options) the config holds, as a config
    file holds it (a path as its text)."""
    values = option_values(config)
    written = {key: values[key] for key in sorted(keys) if values[key] is not None}
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.json").write_text(
        json.dumps(written, indent=2, ensure_ascii=False, default=str) + "\n",
        encoding="utf-8",
    )


def _run_named(fn, project: str, *args):
    """fn(*args), naming the project in any error it raises."""
    try:
        return fn(*args)
    except Exception as err:
        named = named_error(err, project)
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


def _run(config: ExperimentConfig, kind: str, run_one) -> EvalReport:
    """The report of the rows run_one returns for each project, in project
    order. The run directory, <kind>-<mode>, gets the report files and
    config.json only once every project has succeeded (a model save makes
    it earlier)."""
    run_dir = config.output_dir / f"{kind}-{config.text_mode}"
    keys = run_options(kind, config.model)
    results = _collect(config, config.resolved_projects(), run_dir, run_one,
                       "vectors" in keys)
    report = EvalReport(kind, [row for rows in results for row in rows])
    _write_config(config, keys, run_dir)
    report.files = emit_report(report, run_dir)
    return report


def run_classification(config: ExperimentConfig) -> EvalReport:
    """Per-project effort-level accuracy for the selected model(s)."""
    return _run(replace(config, task="classify"), "classification", _run_project)


def run_regression(config: ExperimentConfig) -> EvalReport:
    """Per-project story-point MAE, story points used directly as labels."""
    return _run(replace(config, task="regress"), "regression", _run_project)


def run_graph_stats(config: ExperimentConfig) -> EvalReport:
    """Graph-scale analysis without training: per project, the size of the
    training split and the distinct node/edge counts of its word graphs."""
    return _run(config, "stats", _stats_project)


# --- window sweep -----------------------------------------------------------


def _sweep_project(
    config: ExperimentConfig, prepared: PreparedProject, run_dir: Path
) -> list[ProjectResult]:
    split = prepared.split
    if config.model == "tfidf-rf":
        return _scale_rows(prepared, config.windows)
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
    return _run(config, "sweep", _sweep_project)


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
                    "vectors" in run_options("prepare", config.model)), out_dir


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
    no longer hashes to the one it was trained on, and a project that is
    not a file name, as a flag's would be. An error names the project."""
    config = replace(config, projects=(bundle.project,))
    [result] = _collect(config, config.projects, config.output_dir,
                        partial(_eval_project, bundle), use_vectors=False)
    return result


# --- report files -----------------------------------------------------------


def _fmt(value: float | int | None, spec: str = ".2f") -> str:
    return "-" if value is None else format(value, spec)


def _write_tables(out: Path, stem: str, header: list[str], body: list[list[str]]) -> list[Path]:
    """The table as <stem>.csv, a cell quoted only where it holds a comma, a
    quote or a newline, and as column-aligned <stem>.txt."""
    widths = [
        max(len(header[i]), *(len(row[i]) for row in body), 1)
        if body
        else len(header[i])
        for i in range(len(header))
    ]

    def pad(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    csv_text = io.StringIO()
    csv.writer(csv_text, lineterminator="\n").writerows([header, *body])
    lines = [pad(header), pad(["-" * w for w in widths]), *map(pad, body)]
    paths = [out / f"{stem}.csv", out / f"{stem}.txt"]
    for path, content in zip(paths, (csv_text.getvalue(), "\n".join(lines) + "\n")):
        path.write_text(content, encoding="utf-8")
    return paths


def _tables(report: EvalReport) -> list[tuple[str, list[str], list[list[str]], Callable]]:
    """Each table the report writes, the kind's own first: its stem, its
    header, its rows of cells, '-' for a value the run did not compute or
    time, and how one row prints as a line. A sweep has the sweep table;
    every other kind the stats table, after the report table if the kind
    has scores."""
    rows = report.rows
    if report.kind == "sweep":
        def sweep_line(cells: list[str]) -> str:
            accuracy = "" if cells[3] == "-" else f", accuracy {cells[3]}%"
            return "{} w={}: {} edges".format(*cells) + accuracy

        body = [[r.project, str(r.window), _fmt(r.edge_count, "d"), _fmt(r.gnn_accuracy)]
                for r in rows]
        return [("sweep", ["Project", "Window", "Edges", "Accuracy"], body, sweep_line)]

    stats = (
        "stats",
        ["Project", "Size", "Nodes", "Edges", "TrainTime"],
        [[r.project, str(r.train_size), _fmt(r.node_count, "d"), _fmt(r.edge_count, "d"),
          _fmt(r.train_seconds)] for r in rows],
        # the train time is not printed
        lambda cells: "{}: size {}, nodes {}, edges {}".format(*cells),
    )
    if report.kind not in REPORT_COLUMNS:
        return [stats]

    baseline, metric, shown = REPORT_COLUMNS[report.kind]
    columns = ((baseline, f"baseline_{metric}"), ("GNN", f"gnn_{metric}"))

    def score_line(cells: list[str]) -> str:
        # the Average row alone has an empty No cell
        scores = (shown.format(column.lower(), cell)
                  for (column, _), cell in zip(columns, cells[2:]) if cell != "-")
        return f"{cells[1] if cells[0] else 'average'}: " + ", ".join(scores)

    body = [[str(i + 1), r.project, *(_fmt(getattr(r, attr)) for _, attr in columns),
             r.split_hash] for i, r in enumerate(rows)]
    if rows:
        body.append(["", "Average", *(_fmt(report.average(attr)) for _, attr in columns), ""])
    header = ["No", "Software", *(column for column, _ in columns), "SplitHash"]
    return [("report", header, body, score_line), stats]


def emit_report(report: EvalReport, out_dir: str | Path) -> list[Path]:
    """Write the report's tables (see _tables) as plain text and as
    comma-separated values; returns the files written, the kind's own table
    first."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return [path for stem, header, body, _ in _tables(report)
            for path in _write_tables(out, stem, header, body)]
