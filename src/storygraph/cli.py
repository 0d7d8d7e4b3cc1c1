"""Command-line front end.

Subcommands map one-to-one onto the experiment operations: prepare (split
manifests and vocabulary dumps), train (word-graph model, optionally with
the baseline for a side-by-side table), baseline (tf-idf forest only),
eval (score a saved model), stats (graph-scale analysis), sweep (window
sizes). Option values resolve as: command-line flag, then config file
(--config, JSON object keyed by flag name), then built-in default. The
built-in defaults are the field defaults of ExperimentConfig and
TrainConfig, which the help texts quote; one function builds the
ExperimentConfig of every subcommand.

eval takes the run from the model file: project, text mode, seed, window
and k. It rebuilds that project's split, refuses the model if the split
no longer hashes to the one it was trained on, and refuses any option the
model fixes (project, mode, task, dim, every TrainConfig field) that a
flag or the config file sets to another value.

The dataset root comes from --data, the config file, or the
STORYGRAPH_DATA environment variable, in that order. Exit codes: 0 on a
complete report, 2 for a missing dataset directory, 1 for any other error
(reported on stderr as "error: <ErrorClass>: <message>").
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import experiment as ex
from .embeddings import build_vocabulary, dump_vocabulary, row_provenance
from .errors import StoryGraphError
from .gnn import TrainConfig
from .model_io import load_model

DATA_ENV_VAR = "STORYGRAPH_DATA"

TASKS = {"classify": ex.TASK_CLASSIFY, "regress": ex.TASK_REGRESS}
CHOICES = {
    "mode": (ex.MODE_RAW, ex.MODE_FILTERED),
    "model": ("gnn", "tfidf-rf", "both"),
    "task": tuple(TASKS),
}

# option (flag destination and config-file key) -> the ExperimentConfig
# field it sets; each TrainConfig field is an option of its own name
RUN_OPTIONS = {
    "data": "data_dir",
    "out": "output_dir",
    "project": "projects",
    "mode": "text_mode",
    "task": "task",
    "model": "model",
    "jobs": "jobs",
    "dim": "embedding_dim",
    "windows": "windows",
    "vectors": "vectors_path",
}
TRAIN_OPTIONS = {f.name: type(f.default) for f in fields(TrainConfig)}

# numeric option -> the half-open range [low, high) of its legal values
# (high None: no upper end); a windows list is checked entry by entry
RANGES = {
    "dropout": (0, 1),
    "learning_rate": (0, None),
    "weight_decay": (0, None),
    **dict.fromkeys(("batch_size", "max_epochs", "patience", "rounds", "window",
                     "windows", "min_edge_frequency", "dim", "jobs"), (1, None)),
}


def _field(config: ex.ExperimentConfig, key: str):
    """The value of the config field that option `key` sets; a tuple as
    the comma-separated text a flag gives."""
    if key in TRAIN_OPTIONS:
        return getattr(config.train, key)
    value = getattr(config, RUN_OPTIONS[key])
    return ",".join(map(str, value)) if isinstance(value, tuple) else value


def _option(parser: argparse.ArgumentParser, flag: str, text: str,
            dest: str | None = None, **kwargs) -> None:
    """Add an option whose help shows its built-in default: the default of
    the config field it sets."""
    dest = dest or flag[2:]
    default = _field(ex.ExperimentConfig(data_dir=Path()), dest)
    if dest == "task":
        default = next(name for name, task in TASKS.items() if task == default)
    parser.add_argument(flag, dest=dest, help=f"{text} (default: {default})", **kwargs)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", help=f"dataset directory of per-project CSV files "
                        f"(default: ${DATA_ENV_VAR})")
    _option(parser, "--out", "output directory")
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--project", action="append",
                        help="project name, repeatable (default: all projects)")
    _option(parser, "--seed", "master seed", type=int)
    _option(parser, "--mode", "text mode", choices=CHOICES["mode"])
    _option(parser, "--jobs", "projects run in parallel", type=int)


def _add_embedding(parser: argparse.ArgumentParser) -> None:
    _option(parser, "--dim", "embedding dimension", type=int)
    parser.add_argument("--vectors", help="pretrained word-vector text file")


def _add_training(parser: argparse.ArgumentParser) -> None:
    _option(parser, "--window", "sliding window size w", type=int)
    _option(parser, "--batch-size", "minibatch size", "batch_size", type=int)
    _option(parser, "--dropout", "input dropout rate", type=float)
    _option(parser, "--k", "minimum pair count for a private edge weight; rarer "
            "pairs share the public weight", "min_edge_frequency", type=int)
    _option(parser, "--lr", "learning rate", "learning_rate", type=float)
    _option(parser, "--weight-decay", "L2 weight decay", "weight_decay", type=float)
    _option(parser, "--epochs", "epoch budget", "max_epochs", type=int)
    _option(parser, "--patience", "early-stopping patience in epochs", type=int)
    _option(parser, "--rounds", "message-passing rounds", type=int)
    _add_embedding(parser)
    _option(parser, "--task", "classify effort levels or regress story points",
            choices=sorted(TASKS))
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
    _add_embedding(p)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train the word-graph model (and baseline)")
    _add_common(p)
    _add_training(p)
    _option(p, "--model", "which model(s) to run", choices=CHOICES["model"])
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("baseline", help="train and score the tf-idf forest only")
    _add_common(p)
    _add_training(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("eval", help="score a saved model on its own test split")
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
    _option(p, "--model", "include accuracy by training at each window; "
            "tfidf-rf emits edge counts only", choices=CHOICES["model"])
    _option(p, "--windows", "comma-separated window sizes")
    p.set_defaults(func=cmd_sweep)
    return parser


class _Options:
    """An option's value: its flag, else its config-file entry, else None
    (the config field's default applies)."""

    def __init__(self, args: argparse.Namespace):
        self._args = vars(args)
        self._file: dict = {}
        config_path = self._args.get("config")
        if config_path:
            self._file = json.loads(Path(config_path).read_text(encoding="utf-8"))
            if not isinstance(self._file, dict):
                raise StoryGraphError("config file must hold a JSON object")
            unknown = sorted(set(self._file) - set(RUN_OPTIONS) - set(TRAIN_OPTIONS))
            if unknown:
                raise StoryGraphError(
                    f"unknown config file key(s): {', '.join(unknown)}"
                )

    def get(self, key: str):
        value = self._args.get(key)
        return self._file.get(key) if value is None else value

    def data_dir(self) -> Path:
        value = self.get("data") or os.environ.get(DATA_ENV_VAR)
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


def _option_value(key: str, value):
    """An option's value as the config field it sets holds it, checked
    against the option's range."""
    value = _typed_value(key, value)
    if key in RANGES:
        low, high = RANGES[key]
        for number in value if key == "windows" else (value,):
            if not (math.isfinite(number) and low <= number
                    and (high is None or number < high)):
                legal = f"in [{low}, {high})" if high is not None else f">= {low}"
                raise StoryGraphError(f"{key}: {number!r} is not {legal}")
    return value


def _typed_value(key: str, value):
    """An option's value converted to the type of the config field it sets."""
    if key == "project" and isinstance(value, str):
        value = [value]
    elif key == "windows" and isinstance(value, str):
        value = [int(w) for w in value.replace(" ", "").split(",") if w]
    if key in ("project", "windows"):
        kind, noun = (str, "project") if key == "project" else (int, "window size")
        if not (isinstance(value, list) and all(type(v) is kind for v in value)):
            raise StoryGraphError(
                f"{key}: {value!r} is neither a string nor a list of {kind.__name__}"
            )
        if not value:
            raise StoryGraphError(f"{key}: no {noun} given")
        if len(set(value)) < len(value):
            twice = sorted({v for v in value if value.count(v) > 1})
            raise StoryGraphError(
                f"{key}: {', '.join(map(str, twice))} named more than once"
            )
        return tuple(value)
    if key in CHOICES:
        if value not in CHOICES[key]:
            raise StoryGraphError(
                f"{key}: {value!r} is not one of {', '.join(CHOICES[key])}"
            )
        return TASKS[value] if key == "task" else value
    kind = Path if key in ("out", "vectors") else TRAIN_OPTIONS.get(key, int)
    # int() and float() would take a boolean, and int() drops a fraction
    if isinstance(value, bool) or (
        kind is int and isinstance(value, float) and not value.is_integer()
    ):
        raise StoryGraphError(f"{key}: {value!r} is not a {kind.__name__}")
    try:
        return kind(value)
    except (TypeError, ValueError) as err:
        raise StoryGraphError(f"{key}: {value!r} is not a {kind.__name__}") from err


def _experiment_config(opts: _Options, **fixed) -> ex.ExperimentConfig:
    """The run's configuration, for every subcommand: each option from its
    flag, else the config file, else the config field's default. `fixed`
    fields (the subcommand's model, a saved model's run) override all."""
    values = {
        key: _option_value(key, value)
        for key in (*RUN_OPTIONS, *TRAIN_OPTIONS)
        if key != "data" and (value := opts.get(key)) is not None
    }
    train = TrainConfig(**{k: values.pop(k) for k in TRAIN_OPTIONS if k in values})
    config = ex.ExperimentConfig(
        data_dir=opts.data_dir(),
        train=train,
        include_timings=not opts.get("no_timings"),
        save_models=not opts.get("no_save_models"),
        **{RUN_OPTIONS[key]: value for key, value in values.items()},
    )
    return replace(config, **fixed)


def _prepare_files(config: ex.ExperimentConfig, prepared: ex.PreparedProject,
                   pretrained: dict, out_dir: Path) -> str:
    """Write one project's split manifest and vocabulary dump; returns the
    line that summarises them."""
    project = prepared.project
    split = prepared.split
    out_dir.mkdir(parents=True, exist_ok=True)
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
    vocab = build_vocabulary(split.train)
    provenance = row_provenance(vocab, pretrained, config.embedding_dim)
    dump_vocabulary(vocab, provenance, out_dir / f"{project}.vocab.tsv")
    return (f"{project}: {len(split.train)}/{len(split.validation)}/"
            f"{len(split.test)} train/val/test, vocabulary {vocab.size}")


def cmd_prepare(args: argparse.Namespace) -> int:
    config = _experiment_config(_Options(args))
    out_dir = Path(config.output_dir) / "prepare"
    lines = ex._collect(config, config.resolved_projects(), out_dir, _prepare_files,
                        use_vectors=True)
    for line in lines:
        print(line)
    print(f"manifests: {out_dir}")
    return 0


# metric (a REPORT_COLUMNS suffix) -> how one model's score is printed
SCORE_FORMATS = {"accuracy": "{} {:.2f}%", "mae": "{} mae {:.2f}"}


def _print_scores(report: ex.EvalReport) -> None:
    """One line of scores per project, then their averages."""
    columns = ex.score_columns(report.kind)
    _, metric = ex.REPORT_COLUMNS[report.kind]
    shown = SCORE_FORMATS[metric]

    def scores(values) -> str:
        return ", ".join(
            shown.format(column.lower(), value)
            for (column, _), value in zip(columns, values)
            if value is not None
        )

    for row in report.rows:
        print(f"{row.project}: " + scores(getattr(row, attr) for _, attr in columns))
    print("average: " + scores(report.average(attr) for _, attr in columns))


def _run_and_emit(config: ex.ExperimentConfig) -> int:
    run = ex.run_regression if config.task == ex.TASK_REGRESS else ex.run_classification
    report = run(config)
    run_dir = Path(config.output_dir) / ex.experiment_name(config, report.kind)
    written = ex.emit_report(report, run_dir, include_timings=config.include_timings)
    _print_scores(report)
    print(f"report: {written[0]}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    return _run_and_emit(_experiment_config(_Options(args)))


def cmd_baseline(args: argparse.Namespace) -> int:
    return _run_and_emit(_experiment_config(_Options(args), model="tfidf-rf"))


def cmd_stats(args: argparse.Namespace) -> int:
    config = _experiment_config(_Options(args), model="gnn")
    report = ex.run_graph_stats(config)
    run_dir = Path(config.output_dir) / ex.experiment_name(config, "stats")
    written = ex.emit_report(report, run_dir, include_timings=False)
    for row in report.rows:
        print(f"{row.project}: size {row.train_size}, nodes {row.node_count}, "
              f"edges {row.edge_count}")
    print(f"report: {written[0]}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _experiment_config(_Options(args))
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
    asked = _experiment_config(opts)
    bundle = load_model(args.model_file)
    config = replace(
        asked,
        projects=(bundle.project,),
        text_mode=bundle.text_mode,
        task=ex.TASK_REGRESS if bundle.class_values else ex.TASK_CLASSIFY,
        embedding_dim=bundle.params.embeddings.shape[1],
        train=bundle.config,
    )
    for key in ("project", "mode", "task", "dim", *TRAIN_OPTIONS):
        # an option left at its default never conflicts with the model
        given, saved = _field(asked, key), _field(config, key)
        if opts.get(key) is not None and given != saved:
            raise StoryGraphError(
                f"{args.model_file} was trained with {key} {saved}, not {given}"
            )
    prepared = ex.prepare_project(config, bundle.project)
    if prepared.split_hash != bundle.split_hash:
        raise StoryGraphError(
            f"{bundle.project}: the data now splits to hash {prepared.split_hash}, "
            f"the model was trained on split {bundle.split_hash}"
        )
    test = prepared.split.test
    accuracy, mae = ex.score_gnn(bundle, bundle.vocabulary.encode_all(test), test)
    line = f"{bundle.project}: accuracy {accuracy:.2f}% (n={len(test)})"
    if mae is not None:
        line += f", mae {mae:.2f}"
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
