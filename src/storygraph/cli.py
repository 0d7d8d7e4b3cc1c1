"""Command-line front end.

Subcommands map one-to-one onto the experiment operations: prepare (split
manifests and vocabulary dumps), train (word-graph model, optionally with
the baseline for a side-by-side table), baseline (tf-idf forest only),
eval (score a saved model), stats (graph-scale analysis), sweep (window
sizes). Option values resolve as: command-line flag, then config file
(--config, JSON object keyed by option name), then built-in default. Each
option is an ExperimentConfig or TrainConfig field declaring its default,
type, choices and range, from which come the flags, the help's defaults and
the config-file keys; a config checks each value when built, from a flag, a
config file, a library caller or a saved model's header.

eval takes the run from the model file: project, text mode, seed, window
and k. It rebuilds that project's split, refuses the model if the split
no longer hashes to the one it was trained on, and refuses any option the
model fixes (project, mode, task, dim, every TrainConfig field) that a
flag or the config file sets to another value.

The dataset root comes from --data, the config file, or the
STORYGRAPH_DATA environment variable, in that order. Exit codes: 0 on a
complete report, 2 for a missing dataset directory, 1 for any other error
(reported on stderr as one line, "error: <ErrorClass>: <message>", any CR
or LF in the message written as \\r or \\n).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import experiment as ex
from .errors import StoryGraphError, check_option, options
from .gnn import TrainConfig
from .model_io import load_model

DATA_ENV_VAR = "STORYGRAPH_DATA"


def _text(value) -> str:
    """A config value as a flag spells it: a tuple comma-separated."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _values(config: ex.ExperimentConfig) -> dict:
    """Option key -> the value `config` holds for it."""
    return {key: getattr(part, f.name) for part in (config, config.train)
            for key, f in options(type(part)).items()}


def _option(parser: argparse.ArgumentParser, flag: str, text: str,
            dest: str | None = None) -> None:
    """Add an option with the type or choices of the config field it sets;
    its help shows that field's default."""
    dest = dest or flag[2:]
    f = options(ex.ExperimentConfig, TrainConfig)[dest]
    kind = f.metadata["type"]
    parser.add_argument(flag, dest=dest, help=f"{text} (default: {_text(f.default)})",
                        type=kind if kind in (int, float) and not f.metadata["many"] else None,
                        choices=f.metadata["choices"])


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", help=f"dataset directory of per-project CSV files "
                        f"(default: ${DATA_ENV_VAR})")
    _option(parser, "--out", "output directory")
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--project", action="append",
                        help="project name, repeatable (default: all projects)")
    _option(parser, "--seed", "master seed")
    _option(parser, "--mode", "text mode")
    _option(parser, "--jobs", "projects run in parallel")


def _add_embedding(parser: argparse.ArgumentParser) -> None:
    _option(parser, "--dim", "embedding dimension")
    parser.add_argument("--vectors", help="pretrained word-vector text file")


def _add_training(parser: argparse.ArgumentParser) -> None:
    _option(parser, "--window", "sliding window size w")
    _option(parser, "--batch-size", "minibatch size", "batch_size")
    _option(parser, "--dropout", "input dropout rate")
    _option(parser, "--k", "minimum pair count for a private edge weight; rarer "
            "pairs share the public weight", "min_edge_frequency")
    _option(parser, "--lr", "learning rate", "learning_rate")
    _option(parser, "--weight-decay", "L2 weight decay", "weight_decay")
    _option(parser, "--epochs", "epoch budget", "max_epochs")
    _option(parser, "--patience", "early-stopping patience in epochs")
    _option(parser, "--rounds", "message-passing rounds")
    _add_embedding(parser)
    _option(parser, "--task", "classify effort levels or regress story points")
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
    _option(p, "--model", "which model(s) to run")
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
            "tfidf-rf emits edge counts only")
    _option(p, "--windows", "comma-separated window sizes")
    p.set_defaults(func=cmd_sweep)
    return parser


def _given(args: argparse.Namespace) -> dict:
    """Each option a flag sets, else the config file -> its value; an
    option left out takes its config field's default."""
    given = {}
    if args.config:
        try:
            given = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except ValueError as err:  # not UTF-8 text, or not JSON
            raise StoryGraphError(f"{args.config}: not a JSON file: {err}") from None
        if not isinstance(given, dict):
            raise StoryGraphError("config file must hold a JSON object")
        unknown = sorted(set(given) - set(options(ex.ExperimentConfig, TrainConfig)))
        if unknown:
            raise StoryGraphError(f"unknown config file key(s): {', '.join(unknown)}")
    given.update((key, value) for key, value in vars(args).items() if value is not None)
    return {key: value for key, value in given.items() if value is not None}


class _MissingDataDir(Exception):
    pass


def _typed_value(key: str, f, value):
    """A flag's or config file's value with the conversions only text needs:
    a windows string "2,5", one project name, a number in a string, and an
    integral JSON number (3.0) for an int. An empty list names nothing."""
    kind = f.metadata["type"]
    if f.metadata["many"]:
        if isinstance(value, str) and kind is str:
            value = [value]
        elif isinstance(value, str):
            try:
                value = [kind(w) for w in value.replace(" ", "").split(",") if w]
            except ValueError:
                raise StoryGraphError(f"{key}: {value!r} is not a comma-separated "
                                      f"list of {kind.__name__}") from None
        if isinstance(value, list) and not value:
            raise StoryGraphError(f"{key}: no {key if kind is str else 'window size'} given")
    elif kind in (int, float) and isinstance(value, str):
        try:
            value = kind(value)
        except ValueError:
            pass  # the field's check names the text
    elif kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    return value


def _experiment_config(given: dict, **fixed) -> ex.ExperimentConfig:
    """The run's configuration, for every subcommand: each option given, else
    its field's default, checked in turn before the dataset directory is
    looked up. `fixed` fields (a subcommand's model, a model's run) win."""
    values = {
        f.name: check_option(key, f, _typed_value(key, f, given[key]))
        for key, f in options(ex.ExperimentConfig, TrainConfig).items()
        if key != "data" and key in given
    }
    train = TrainConfig(**{f.name: values.pop(f.name) for f in fields(TrainConfig)
                           if f.name in values})
    data = given.get("data") or os.environ.get(DATA_ENV_VAR)
    if not data:
        raise _MissingDataDir(f"dataset directory not found: give --data, a config entry, "
                              f"or ${DATA_ENV_VAR}")
    config = ex.ExperimentConfig(
        data_dir=data,  # checked here, as "data", like every other option
        train=train,
        include_timings=not given.get("no_timings"),
        save_models=not given.get("no_save_models"),
        **values,
    )
    if not config.data_dir.is_dir():
        raise _MissingDataDir(f"dataset directory not found: {config.data_dir}")
    return replace(config, **fixed)


def cmd_prepare(args: argparse.Namespace) -> int:
    lines, out_dir = ex.run_prepare(_experiment_config(_given(args)))
    for line in lines:
        print(line)
    print(f"manifests: {out_dir}")
    return 0


def _run_and_print(run, config: ex.ExperimentConfig) -> int:
    """Run the experiment, which writes its report; print the report's
    summary lines and the first file it wrote."""
    report = run(config)
    for line in report.summary():
        print(line)
    print(f"report: {report.files[0]}")
    return 0


def _scored(config: ex.ExperimentConfig) -> int:
    run = ex.run_regression if config.task == "regress" else ex.run_classification
    return _run_and_print(run, config)


def cmd_train(args: argparse.Namespace) -> int:
    return _scored(_experiment_config(_given(args)))


def cmd_baseline(args: argparse.Namespace) -> int:
    return _scored(_experiment_config(_given(args), model="tfidf-rf"))


def cmd_stats(args: argparse.Namespace) -> int:
    return _run_and_print(ex.run_graph_stats, _experiment_config(_given(args), model="gnn"))


def cmd_sweep(args: argparse.Namespace) -> int:
    return _run_and_print(ex.run_window_sweep, _experiment_config(_given(args)))


def cmd_eval(args: argparse.Namespace) -> int:
    given = _given(args)
    asked = _experiment_config(given)
    bundle = load_model(args.model_file)
    config = replace(
        asked,
        projects=(bundle.project,),
        text_mode=bundle.text_mode,
        task="regress" if bundle.class_values else "classify",
        embedding_dim=bundle.params.embeddings.shape[1],
        train=bundle.config,
    )
    asked_values = _values(asked)
    for key, saved in _values(config).items():
        # the model fixes the options replaced above; one left at its
        # default never conflicts with it
        if key in given and asked_values[key] != saved:
            raise StoryGraphError(f"{args.model_file} was trained with {key} "
                                  f"{_text(saved)}, not {_text(asked_values[key])}")
    result = ex.eval_model(config, bundle)
    line = f"{bundle.project}: accuracy {result.gnn_accuracy:.2f}% (n={result.test_size})"
    if result.gnn_mae is not None:
        line += f", mae {result.gnn_mae:.2f}"
    print(line)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _MissingDataDir as err:
        line, code = f"error: {err}", 2
    except (StoryGraphError, OSError, ValueError, csv.Error, MemoryError) as err:
        line, code = f"error: {type(err).__name__}: {err}", 1
    print(line.replace("\r", "\\r").replace("\n", "\\n"), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
