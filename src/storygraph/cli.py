"""Command-line front end.

Subcommands map one-to-one onto the experiment operations: prepare (split
manifests and vocabulary dumps), train (word-graph model, optionally with
the baseline for a side-by-side table), baseline (tf-idf forest only),
eval (score a saved model), stats (graph-scale analysis), sweep (window
sizes). Option values resolve as: command-line flag, then config file
(--config, JSON object keyed by flag name), then built-in default.

The dataset root comes from --data, the config file, or the
STORYGRAPH_DATA environment variable, in that order. Exit codes: 0 on a
complete report, 2 for a missing dataset directory, 1 for any other error
(reported on stderr as "error: <ErrorClass>: <message>").
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from . import experiment as ex
from .embeddings import build_vocab, dump_vocabulary, load_pretrained_vectors
from .errors import StoryGraphError
from .gnn import TrainConfig, predict
from .graph import build_graphs
from .model_io import load_model

DATA_ENV_VAR = "STORYGRAPH_DATA"

DEFAULTS = {
    "out": "runs",
    "seed": 42,
    "mode": ex.MODE_RAW,
    "task": "classify",
    "model": "both",
    "jobs": 1,
    "window": 20,
    "batch_size": 32,
    "dropout": 0.5,
    "min_edge_frequency": 2,
    "learning_rate": 1e-3,
    "weight_decay": 1e-4,
    "max_epochs": 300,
    "patience": 10,
    "rounds": 1,
    "dim": 300,
    "windows": "2,5,10,20,50,100",
}

TASKS = {"classify": ex.TASK_CLASSIFY, "regress": ex.TASK_REGRESS}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", help=f"dataset directory of per-project CSV files "
                        f"(default: ${DATA_ENV_VAR})")
    parser.add_argument("--out", help="output directory (default: runs)")
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--project", action="append",
                        help="project name, repeatable (default: all projects)")
    parser.add_argument("--seed", type=int, help="master seed (default: 42)")
    parser.add_argument("--mode", choices=[ex.MODE_RAW, ex.MODE_FILTERED],
                        help="text mode (default: raw)")
    parser.add_argument("--jobs", type=int,
                        help="projects trained in parallel (default: 1)")


def _add_training(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--window", type=int,
                        help="sliding window size w (default: 20)")
    parser.add_argument("--batch-size", type=int, dest="batch_size",
                        help="minibatch size (default: 32)")
    parser.add_argument("--dropout", type=float,
                        help="input dropout rate (default: 0.5)")
    parser.add_argument("--k", type=int, dest="min_edge_frequency",
                        help="minimum pair count for a private edge weight; "
                        "rarer pairs share the public weight (default: 2)")
    parser.add_argument("--lr", type=float, dest="learning_rate",
                        help="learning rate (default: 0.001)")
    parser.add_argument("--weight-decay", type=float, dest="weight_decay",
                        help="L2 weight decay (default: 0.0001)")
    parser.add_argument("--epochs", type=int, dest="max_epochs",
                        help="epoch budget (default: 300)")
    parser.add_argument("--patience", type=int,
                        help="early-stopping patience in epochs (default: 10)")
    parser.add_argument("--rounds", type=int,
                        help="message-passing rounds (default: 1)")
    parser.add_argument("--dim", type=int,
                        help="embedding dimension (default: 300)")
    parser.add_argument("--vectors", help="pretrained word-vector text file")
    parser.add_argument("--task", choices=sorted(TASKS),
                        help="classify effort levels or regress story points "
                        "(default: classify)")
    parser.add_argument("--no-timings", action="store_true",
                        help="omit wall-clock columns so reruns are byte-identical")
    parser.add_argument("--no-save-models", action="store_true",
                        help="skip writing model files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storygraph",
        description="Story-point effort estimation from issue text: "
        "per-document word-graph classifier vs tf-idf random forest.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="write split manifests and vocabulary dumps")
    _add_common(p)
    p.add_argument("--dim", type=int, help="embedding dimension (default: 300)")
    p.add_argument("--vectors", help="pretrained word-vector text file")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train the word-graph model (and baseline)")
    _add_common(p)
    _add_training(p)
    p.add_argument("--model", choices=["gnn", "tfidf-rf", "both"],
                   help="which model(s) to run (default: both)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("baseline", help="train and score the tf-idf forest only")
    _add_common(p)
    _add_training(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("eval", help="score a saved model on a project's test split")
    _add_common(p)
    p.add_argument("--model", required=True, dest="model_file",
                   help="model file written by train")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stats", help="graph-scale analysis without training")
    _add_common(p)
    _add_training(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("sweep", help="edge counts and accuracy across window sizes")
    _add_common(p)
    _add_training(p)
    p.add_argument("--model", choices=["gnn", "tfidf-rf", "both"],
                   help="include accuracy by training at each window; "
                   "tfidf-rf emits edge counts only (default: both)")
    p.add_argument("--windows",
                   help="comma-separated window sizes (default: 2,5,10,20,50,100)")
    p.set_defaults(func=cmd_sweep)
    return parser


class _Options:
    """Flag > config file > default resolution over the parsed namespace."""

    def __init__(self, args: argparse.Namespace):
        self._args = vars(args)
        self._file: dict = {}
        config_path = self._args.get("config")
        if config_path:
            self._file = json.loads(Path(config_path).read_text(encoding="utf-8"))
            if not isinstance(self._file, dict):
                raise StoryGraphError("config file must hold a JSON object")
            known = set(DEFAULTS) | {"data", "project", "vectors"}
            unknown = sorted(set(self._file) - known)
            if unknown:
                raise StoryGraphError(
                    f"unknown config file key(s): {', '.join(unknown)}"
                )

    def get(self, key: str, fallback=None):
        value = self._args.get(key)
        if value is not None:
            return value
        if key in self._file:
            return self._file[key]
        if key in DEFAULTS:
            return DEFAULTS[key]
        return fallback

    def data_dir(self) -> Path:
        value = self._args.get("data") or self._file.get("data") or os.environ.get(
            DATA_ENV_VAR
        )
        if not value:
            raise _MissingDataDir(
                f"dataset directory not found: give --data, a config entry, "
                f"or ${DATA_ENV_VAR}"
            )
        path = Path(value)
        if not path.is_dir():
            raise _MissingDataDir(f"dataset directory not found: {path}")
        return path


class _MissingDataDir(Exception):
    pass


def _train_config(opts: _Options) -> TrainConfig:
    return TrainConfig(
        window=int(opts.get("window")),
        batch_size=int(opts.get("batch_size")),
        dropout=float(opts.get("dropout")),
        learning_rate=float(opts.get("learning_rate")),
        weight_decay=float(opts.get("weight_decay")),
        max_epochs=int(opts.get("max_epochs")),
        patience=int(opts.get("patience")),
        seed=int(opts.get("seed")),
        min_edge_frequency=int(opts.get("min_edge_frequency")),
        rounds=int(opts.get("rounds")),
    )


def _experiment_config(opts: _Options, model: str | None = None) -> ex.ExperimentConfig:
    vectors = opts.get("vectors", fallback=None)
    windows = tuple(
        int(w) for w in str(opts.get("windows")).replace(" ", "").split(",") if w
    )
    return ex.ExperimentConfig(
        data_dir=opts.data_dir(),
        output_dir=Path(opts.get("out")),
        projects=tuple(opts.get("project", fallback=()) or ()),
        model=model or str(opts.get("model")),
        text_mode=str(opts.get("mode")),
        task=TASKS[str(opts.get("task"))],
        windows=windows,
        train=_train_config(opts),
        vectors_path=Path(vectors) if vectors else None,
        embedding_dim=int(opts.get("dim")),
        jobs=int(opts.get("jobs")),
        include_timings=not opts.get("no_timings", fallback=False),
        save_models=not opts.get("no_save_models", fallback=False),
    )


def cmd_prepare(args: argparse.Namespace) -> int:
    opts = _Options(args)
    config = ex.ExperimentConfig(
        data_dir=opts.data_dir(),
        output_dir=Path(opts.get("out")),
        projects=tuple(opts.get("project", fallback=()) or ()),
        text_mode=str(opts.get("mode")),
        train=TrainConfig(seed=int(opts.get("seed"))),
        embedding_dim=int(opts.get("dim")),
    )
    out_dir = Path(config.output_dir) / "prepare"
    out_dir.mkdir(parents=True, exist_ok=True)
    vectors = opts.get("vectors", fallback=None)
    pretrained = (
        load_pretrained_vectors(Path(vectors), dim=config.embedding_dim)
        if vectors
        else {}
    )
    for project in config.resolved_projects():
        prepared = ex.prepare_project(config, project)
        split = prepared.split
        lines = [
            f"# seed = {config.train.seed}",
            f"# split_hash = {prepared.split_hash}",
        ]
        for section, docs in (
            ("train", split.train),
            ("validation", split.validation),
            ("test", split.test),
        ):
            lines.append(f"[{section}]")
            lines.extend(d.doc_id for d in docs)
        (out_dir / f"{project}.split.txt").write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )
        vocab, table = build_vocab(
            split.train,
            pretrained,
            seed=ex.derive_seed(config.train.seed, project, "vocab"),
            dim=config.embedding_dim,
        )
        dump_vocabulary(vocab, table, out_dir / f"{project}.vocab.tsv")
        print(f"{project}: {len(split.train)}/{len(split.validation)}/"
              f"{len(split.test)} train/val/test, vocabulary {vocab.size}")
    print(f"manifests: {out_dir}")
    return 0


def _print_eval_rows(report: ex.EvalReport) -> None:
    for row in report.rows:
        if report.kind == "classification":
            parts = []
            if row.baseline_accuracy is not None:
                parts.append(f"tfidf-rf {row.baseline_accuracy:.2f}%")
            if row.gnn_accuracy is not None:
                parts.append(f"gnn {row.gnn_accuracy:.2f}%")
        else:
            parts = []
            if row.baseline_mae is not None:
                parts.append(f"tfidf-rfr mae {row.baseline_mae:.2f}")
            if row.gnn_mae is not None:
                parts.append(f"gnn mae {row.gnn_mae:.2f}")
        print(f"{row.project}: " + ", ".join(parts))


def _run_and_emit(config: ex.ExperimentConfig) -> int:
    if config.task == ex.TASK_REGRESS:
        report = ex.run_regression(config)
        kind = "regression"
    else:
        report = ex.run_classification(config)
        kind = "classification"
    run_dir = Path(config.output_dir) / ex.experiment_name(config, kind)
    written = ex.emit_report(report, run_dir, include_timings=config.include_timings)
    _print_eval_rows(report)
    if report.kind == "classification":
        avg_b = report.average_baseline_accuracy()
        avg_g = report.average_gnn_accuracy()
        summary = [
            f"tfidf-rf {avg_b:.2f}%" if avg_b is not None else "",
            f"gnn {avg_g:.2f}%" if avg_g is not None else "",
        ]
    else:
        avg_b = report.average_baseline_mae()
        avg_g = report.average_gnn_mae()
        summary = [
            f"tfidf-rfr mae {avg_b:.2f}" if avg_b is not None else "",
            f"gnn mae {avg_g:.2f}" if avg_g is not None else "",
        ]
    print("average: " + ", ".join(s for s in summary if s))
    print(f"report: {written[0]}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    opts = _Options(args)
    return _run_and_emit(_experiment_config(opts))


def cmd_baseline(args: argparse.Namespace) -> int:
    opts = _Options(args)
    return _run_and_emit(_experiment_config(opts, model="tfidf-rf"))


def cmd_stats(args: argparse.Namespace) -> int:
    opts = _Options(args)
    config = _experiment_config(opts, model="gnn")
    report = ex.run_graph_stats(config)
    run_dir = Path(config.output_dir) / ex.experiment_name(config, "stats")
    written = ex.emit_report(report, run_dir, include_timings=False, stats_only=True)
    for row in report.rows:
        print(f"{row.project}: size {row.train_size}, nodes {row.node_count}, "
              f"edges {row.edge_count}")
    print(f"report: {written[0]}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    opts = _Options(args)
    config = _experiment_config(opts)
    report = ex.run_window_sweep(config)
    run_dir = Path(config.output_dir) / ex.experiment_name(config, "sweep")
    written = ex.emit_report(report, run_dir, include_timings=config.include_timings)
    for row in report.rows:
        acc = f", accuracy {row.accuracy:.2f}%" if row.accuracy is not None else ""
        print(f"{row.project} w={row.window}: {row.edge_count} edges{acc}")
    print(f"report: {written[0]}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    opts = _Options(args)
    bundle = load_model(args.model_file)
    seed = args.seed if args.seed is not None else bundle.config.seed
    config = ex.ExperimentConfig(
        data_dir=opts.data_dir(),
        output_dir=Path(opts.get("out")),
        projects=tuple(opts.get("project", fallback=()) or ()),
        text_mode=str(opts.get("mode")),
        task=ex.TASK_REGRESS if bundle.class_values else ex.TASK_CLASSIFY,
        train=TrainConfig(
            window=bundle.config.window,
            min_edge_frequency=bundle.config.min_edge_frequency,
            seed=seed,
        ),
    )
    projects = config.resolved_projects()
    if not projects:
        raise StoryGraphError("no projects to evaluate")
    for project in projects:
        prepared = ex.prepare_project(config, project)
        split = prepared.split
        encoded = bundle.vocabulary.encode_all(split.test)
        if config.task == ex.TASK_REGRESS:
            labels = ex.labels_for(split.test, config.task, bundle.class_values)
        else:
            labels = [int(d.level) for d in split.test]
        graphs = build_graphs(
            encoded, bundle.config.window, bundle.edge_table, labels=labels
        )
        predictions = [
            predict(bundle.params, g, rounds=bundle.config.rounds)[0] for g in graphs
        ]
        accuracy = ex.accuracy_percent(predictions, labels)
        line = f"{project}: accuracy {accuracy:.2f}% (n={len(graphs)})"
        if bundle.class_values:
            points = [bundle.class_values[p] for p in predictions]
            actual = [d.raw_story_point for d in split.test]
            line += f", mae {ex.mean_absolute_error(points, actual):.2f}"
        print(line)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _MissingDataDir as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (StoryGraphError, OSError, ValueError, csv.Error) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
