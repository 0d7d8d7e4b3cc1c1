"""Command-line behavior: flag layering, exit codes, and the files each
subcommand leaves behind."""

import argparse
import contextlib
import csv
import io
import json
import os
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from storygraph.cli import DATA_ENV_VAR, build_parser, main
from storygraph.errors import options
from storygraph.experiment import ExperimentConfig, _run_project
from storygraph.gnn import TrainConfig

from conftest import (
    FILLER, LEVEL_POOLS, byte_classes, expected_damage, make_dataset, mutations, read_header,
    rewrite_header, synth_rows, write_project_csv, write_vectors,
)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(DATA_ENV_VAR, raising=False)


FAST = [
    "--window", "3", "--batch-size", "8", "--dropout", "0",
    "--k", "1", "--epochs", "2", "--patience", "2", "--dim", "8",
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--no-such-flag"])
    assert exc.value.code == 2


def test_help_shows_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["train", "--help"])
    out = capsys.readouterr().out
    assert "(default: 20)" in out  # window
    assert "(default: 32)" in out  # batch size
    assert "(default: 0.5)" in out  # dropout
    assert "(default: 2)" in out  # min edge frequency


COMMON_DEFAULTS = {"--data": "$STORYGRAPH_DATA", "--out": "runs", "--project": "all projects",
                   "--seed": "42", "--mode": "raw", "--jobs": "1"}
TRAINING_DEFAULTS = {
    **COMMON_DEFAULTS, "--window": "20", "--batch-size": "32", "--dropout": "0.5", "--k": "2",
    "--lr": "0.001", "--weight-decay": "0.0001", "--epochs": "300", "--patience": "10",
    "--rounds": "1", "--dim": "300", "--task": "classify",
}
HELP_DEFAULTS = {
    "prepare": {**COMMON_DEFAULTS, "--dim": "300"},
    "train": {**TRAINING_DEFAULTS, "--model": "both"},
    "baseline": TRAINING_DEFAULTS,
    "eval": COMMON_DEFAULTS,
    "stats": TRAINING_DEFAULTS,
    "sweep": {**TRAINING_DEFAULTS, "--model": "both", "--windows": "2,5,10,20,50,100"},
}


def subcommand_parsers():
    parser = build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_help_of_every_subcommand_shows_each_default():
    for command, parser in subcommand_parsers().items():
        shown = {action.option_strings[-1]: found.group(1)
                 for action in parser._actions
                 if (found := re.search(r"\(default: (.*)\)$", action.help or ""))}
        assert shown == HELP_DEFAULTS[command], command


def test_config_file_keys_are_the_options_the_parsers_expose(capsys, tmp_path):
    dests = {action.dest for parser in subcommand_parsers().values()
             for action in parser._actions if not isinstance(action, argparse._HelpAction)}
    dests -= {"config", "no_timings", "no_save_models", "model_file"}
    assert set(options(ExperimentConfig, TrainConfig)) == dests
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**dict.fromkeys(dests), "windoww": None}))
    code, _, err = run_cli(capsys, "stats", "--config", str(cfg))
    assert (code, err) == (1, "error: StoryGraphError: unknown config file key(s): windoww\n")


@pytest.mark.parametrize("entry", [{"data": 5}, {"data": ["x"]}])
def test_config_file_data_is_typed_like_out_and_vectors(capsys, tmp_path, entry):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(entry))
    code, _, err = run_cli(capsys, "stats", "--out", str(tmp_path / "o"), "--config", str(cfg))
    assert code == 1
    assert err == f"error: StoryGraphError: data: {entry['data']!r} is not a Path\n"


def json_containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    json_containers, max_leaves=4,
)


def is_one_error_line(err: str) -> bool:
    return re.fullmatch(r"error: [^\r\n]*\n", err) is not None


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(sorted(options(ExperimentConfig, TrainConfig))) | st.text(),
       value=JSON_VALUES)
def test_no_config_file_ends_in_a_traceback(tmp_path, key, value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["eval", "--model", str(tmp_path / "missing.model"),
                     "--config", str(cfg)])
    assert code in (1, 2)
    assert is_one_error_line(err.getvalue())


def test_a_line_break_in_a_quoted_value_stays_on_the_error_line(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"project": ["a\nb", "a\r\nb"] * 2}))
    code, _, err = run_cli(capsys, "stats", "--data", str(tmp_path), "--out",
                           str(tmp_path / "o"), "--config", str(cfg))
    assert code == 1
    assert err == "error: StoryGraphError: project: a\\nb, a\\r\\nb named more than once\n"

    data = tmp_path / "x\ny"
    code, _, err = run_cli(capsys, "stats", "--data", str(data), "--out", str(tmp_path / "o"))
    assert code == 2
    assert is_one_error_line(err) and str(tmp_path / "x\\ny") in err


def test_missing_data_dir_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "stats", "--out", str(tmp_path))
    assert code == 2
    assert "error:" in err and "--data" in err


def test_nonexistent_data_dir_exits_2(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "stats", "--data", str(tmp_path / "nope"), "--out", str(tmp_path)
    )
    assert code == 2
    assert "error:" in err


def test_data_dir_from_environment(capsys, tmp_path, synth_dataset, monkeypatch):
    monkeypatch.setenv(DATA_ENV_VAR, str(synth_dataset))
    code, out, _ = run_cli(capsys, "stats", "--out", str(tmp_path / "o"))
    assert code == 0
    assert "alpha:" in out and "beta:" in out


def test_prepare_writes_manifests(capsys, tmp_path, synth_dataset):
    out = tmp_path / "runs"
    code, stdout, _ = run_cli(
        capsys, "prepare", "--data", str(synth_dataset), "--out", str(out)
    )
    assert code == 0
    assert "alpha: 43/5/12 train/val/test" in stdout
    split_txt = (out / "prepare" / "alpha.split.txt").read_text()
    assert split_txt.startswith("# seed = 42\n# split_hash = ")
    assert "[train]\n" in split_txt and "[test]\n" in split_txt
    ids = [l for l in split_txt.splitlines() if l.startswith("ALPHA-")]
    assert len(ids) == 60 and len(set(ids)) == 60
    vocab_tsv = (out / "prepare" / "alpha.vocab.tsv").read_text()
    first = vocab_tsv.splitlines()[0].split("\t")
    assert first[0] == "<unk>" and first[1] == "0"


def test_prepare_is_idempotent(capsys, tmp_path, synth_dataset):
    out = tmp_path / "runs"
    args = ("prepare", "--data", str(synth_dataset), "--out", str(out))
    assert run_cli(capsys, *args)[0] == 0
    first = (out / "prepare" / "alpha.split.txt").read_bytes()
    assert run_cli(capsys, *args)[0] == 0
    assert (out / "prepare" / "alpha.split.txt").read_bytes() == first


def test_train_runs_and_reports(capsys, tmp_path, synth_dataset):
    out = tmp_path / "runs"
    code, stdout, _ = run_cli(
        capsys, "train", "--data", str(synth_dataset), "--out", str(out),
        "--project", "alpha", *FAST,
    )
    assert code == 0
    assert "alpha: tfidf-rf " in stdout and "gnn " in stdout
    assert "average: " in stdout
    assert "report: " in stdout
    run_dir = out / "classification-raw"
    for name in ("report.csv", "report.txt", "stats.csv", "stats.txt",
                 "config.json"):
        assert (run_dir / name).is_file()
    assert (run_dir / "models" / "alpha.model").is_file()
    assert (run_dir / "models" / "alpha.baseline").is_file()


def test_train_regression_task(capsys, tmp_path, synth_dataset):
    code, stdout, _ = run_cli(
        capsys, "train", "--data", str(synth_dataset),
        "--out", str(tmp_path / "runs"), "--project", "beta",
        "--task", "regress", *FAST,
    )
    assert code == 0
    assert "mae" in stdout
    assert (tmp_path / "runs" / "regression-raw" / "report.csv").is_file()


def test_baseline_subcommand_trains_forest_only(capsys, tmp_path, synth_dataset):
    out = tmp_path / "runs"
    code, stdout, _ = run_cli(
        capsys, "baseline", "--data", str(synth_dataset), "--out", str(out),
        "--project", "alpha",
    )
    assert code == 0
    assert "tfidf-rf" in stdout and "gnn" not in stdout
    assert (out / "classification-raw" / "models" / "alpha.baseline").is_file()
    assert not (out / "classification-raw" / "models" / "alpha.model").exists()


def table_rows(table_csv):
    """The cells of each row of a report, stats or sweep table, header
    and config comments left out."""
    lines = [l for l in table_csv.read_text().splitlines() if not l.startswith("#")]
    return [l.split(",") for l in lines[1:]]


def report_scores(report_csv):
    """(project, baseline cell, GNN cell) of each row of a report.csv."""
    return [(r[1], r[2], r[3]) for r in table_rows(report_csv)]


@pytest.mark.parametrize("argv, kind, line", [
    (("train",), "classification", "{0}: tfidf-rf {1}%, gnn {2}%"),
    (("train", "--model", "gnn"), "classification", "{0}: gnn {2}%"),
    (("baseline",), "classification", "{0}: tfidf-rf {1}%"),
    (("baseline", "--task", "regress"), "regression", "{0}: tfidf-rfr mae {1}"),
])
def test_score_lines_are_the_report_rows(capsys, tmp_path, synth_dataset,
                                         argv, kind, line):
    out = tmp_path / "runs"
    code, stdout, err = run_cli(
        capsys, *argv, "--data", str(synth_dataset), "--out", str(out), *FAST
    )
    assert code == 0, err
    report = out / f"{kind}-raw" / "report.csv"
    rows = report_scores(report)
    assert [r[0] for r in rows] == ["alpha", "beta", "Average"]
    assert stdout.splitlines() == [
        *(line.format(*row) for row in rows[:2]),
        line.format("average", *rows[2][1:]),
        f"report: {report}",
    ]


@pytest.mark.parametrize("argv, table, projects, line", [
    (("stats",), "stats-raw/stats.csv", ["alpha", "beta"],
     "{0}: size {1}, nodes {2}, edges {3}"),
    (("sweep", "--model", "tfidf-rf", "--windows", "1,3"), "sweep-raw/sweep.csv",
     ["alpha", "alpha", "beta", "beta"], "{0} w={1}: {2} edges"),
    (("sweep", "--model", "gnn", "--windows", "1,3"), "sweep-raw/sweep.csv",
     ["alpha", "alpha", "beta", "beta"], "{0} w={1}: {2} edges, accuracy {3}%"),
])
def test_row_lines_are_the_table_rows(capsys, tmp_path, synth_dataset,
                                      argv, table, projects, line):
    out = tmp_path / "runs"
    code, stdout, err = run_cli(
        capsys, *argv, "--data", str(synth_dataset), "--out", str(out), *FAST
    )
    assert code == 0, err
    rows = table_rows(out / table)
    assert [r[0] for r in rows] == projects
    assert stdout.splitlines() == [
        *(line.format(*row) for row in rows),
        f"report: {out / table}",
    ]


def test_eval_reproduces_training_accuracy(capsys, tmp_path, synth_dataset):
    out = tmp_path / "runs"
    code, train_out, _ = run_cli(
        capsys, "train", "--data", str(synth_dataset), "--out", str(out),
        "--project", "alpha", "--model", "gnn", *FAST,
    )
    assert code == 0
    reported = next(
        line for line in train_out.splitlines() if line.startswith("alpha: ")
    )
    model_file = out / "classification-raw" / "models" / "alpha.model"
    code, eval_out, _ = run_cli(
        capsys, "eval", "--data", str(synth_dataset), "--out", str(out),
        "--project", "alpha", "--model", str(model_file),
    )
    assert code == 0
    # same split, same parameters: the numbers must agree
    trained_pct = reported.split("gnn ")[1].rstrip("%")
    assert f"accuracy {trained_pct}" in eval_out


def train_gnn(capsys, data, out, *extra):
    """Train alpha's GNN; returns its model file and train-time output line."""
    code, stdout, err = run_cli(
        capsys, "train", "--data", str(data), "--out", str(out),
        "--project", "alpha", "--model", "gnn", *FAST, *extra,
    )
    assert code == 0, err
    line = next(l for l in stdout.splitlines() if l.startswith("alpha: "))
    kinds = [d for d in out.iterdir() if (d / "models" / "alpha.model").is_file()]
    return kinds[0] / "models" / "alpha.model", line


def test_eval_takes_the_run_from_the_model(capsys, tmp_path, synth_dataset):
    model, trained = train_gnn(capsys, synth_dataset, tmp_path / "runs",
                               "--mode", "verb-noun-filter")
    code, out, err = run_cli(
        capsys, "eval", "--data", str(synth_dataset), "--model", str(model)
    )
    assert code == 0, err
    pct = trained.split("gnn ")[1].rstrip("%")
    # only the model's own project, on its own mode and split
    assert out.splitlines() == [f"alpha: accuracy {pct}% (n=12)"]


def test_eval_of_a_regression_model_reports_training_mae(capsys, tmp_path, synth_dataset):
    model, trained = train_gnn(capsys, synth_dataset, tmp_path / "runs",
                               "--task", "regress")
    code, out, err = run_cli(
        capsys, "eval", "--data", str(synth_dataset), "--model", str(model)
    )
    assert code == 0, err
    assert out.rstrip().endswith(f", mae {trained.split('gnn mae ')[1]}")


@pytest.mark.parametrize("conflict", [
    ("--project", "beta"), ("--mode", "raw"), ("--seed", "7"), ("config", {"seed": 7}),
    ("config", {"project": ["beta"]}), ("config", {"task": "regress"}),
    ("config", {"dim": 50}), ("config", {"window": 7}),
    ("config", {"min_edge_frequency": 9}), ("config", {"rounds": 3}),
])
def test_eval_refuses_a_run_the_model_was_not_trained_on(
        capsys, tmp_path, synth_dataset, conflict):
    model, _ = train_gnn(capsys, synth_dataset, tmp_path / "runs",
                         "--mode", "verb-noun-filter")
    flag, value = conflict
    if flag == "config":
        (tmp_path / "run.json").write_text(json.dumps(value))
        flag, value = "--config", str(tmp_path / "run.json")
    code, out, err = run_cli(
        capsys, "eval", "--data", str(synth_dataset), "--model", str(model), flag, value
    )
    assert code == 1
    assert err.startswith("error: StoryGraphError: ") and "Traceback" not in err
    assert out == ""


def test_eval_accepts_options_that_agree_with_the_model(capsys, tmp_path, synth_dataset):
    model, trained = train_gnn(capsys, synth_dataset, tmp_path / "runs")
    (tmp_path / "run.json").write_text(json.dumps(
        {"task": "classify", "dim": 8, "window": 3, "min_edge_frequency": 1,
         "rounds": 1, "seed": 42, "project": "alpha", "mode": "raw"}))
    code, out, err = run_cli(
        capsys, "eval", "--data", str(synth_dataset), "--model", str(model),
        "--config", str(tmp_path / "run.json"),
    )
    assert code == 0, err
    assert out.startswith(f"alpha: accuracy {trained.split('gnn ')[1]} ")


def test_eval_refuses_story_point_values_that_do_not_match_the_classes(
        capsys, tmp_path, synth_dataset):
    model, _ = train_gnn(capsys, synth_dataset, tmp_path / "runs", "--task", "regress")
    rewrite_header(model, class_values=[3])
    code, out, err = run_cli(
        capsys, "eval", "--data", str(synth_dataset), "--model", str(model)
    )
    assert code == 1
    assert err.startswith("error: CorruptFileError: ") and "Traceback" not in err
    assert out == ""


def test_eval_refuses_a_model_whose_config_is_malformed(capsys, tmp_path, synth_dataset):
    model, _ = train_gnn(capsys, synth_dataset, tmp_path / "runs")
    config = read_header(model)["config"]
    rewrite_header(model, config={**config, "window": 3.0})
    code, out, err = run_cli(
        capsys, "eval", "--data", str(synth_dataset), "--model", str(model)
    )
    assert code == 1
    assert err == (f"error: CorruptFileError: {model}: malformed header field: "
                   f"window: 3.0 is not a int\n")
    assert out == ""


def test_eval_refuses_data_that_no_longer_splits_as_in_training(
        capsys, tmp_path, synth_dataset):
    model, _ = train_gnn(capsys, synth_dataset, tmp_path / "runs")
    path = synth_dataset / "alpha.csv"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    write_project_csv(path, rows[1:])
    code, _, err = run_cli(
        capsys, "eval", "--data", str(synth_dataset), "--model", str(model)
    )
    assert code == 1
    assert err.startswith("error: StoryGraphError: alpha: the data now splits to hash ")
    assert err.count("alpha: ") == 1


def test_eval_names_the_project_in_its_data_errors(capsys, tmp_path, synth_dataset):
    model, _ = train_gnn(capsys, synth_dataset, tmp_path / "runs")
    path = synth_dataset / "alpha.csv"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    write_project_csv(path, rows[:5])
    code, out, err = run_cli(
        capsys, "eval", "--data", str(synth_dataset), "--model", str(model)
    )
    assert code == 1 and out == ""
    assert err == "error: DatasetTooSmallError: alpha: need at least 10 documents, got 5\n"


def test_eval_refuses_a_version_1_model_file(capsys, tmp_path, synth_dataset):
    model, _ = train_gnn(capsys, synth_dataset, tmp_path / "runs")
    raw = bytearray(model.read_bytes())
    raw[7] = 1  # the version byte follows the 7-byte magic
    model.write_bytes(bytes(raw))
    code, _, err = run_cli(
        capsys, "eval", "--data", str(synth_dataset), "--model", str(model)
    )
    assert code == 1
    assert err.startswith("error: VersionMismatchError: ") and "retrain" in err


def test_eval_refuses_every_damaged_byte_class_of_a_model(capsys, tmp_path, synth_dataset):
    # a seeded sample of single-byte damage in each part of the file; with
    # the checksum test taken out, 38 of the 62 still score
    from storygraph.model_io import load_model

    model, trained = train_gnn(capsys, synth_dataset, tmp_path / "runs")
    bundle = load_model(model)
    array_bytes = [*((name, arr.nbytes) for name, arr in bundle.params.named_arrays()),
                   ("edge pair codes", bundle.edge_table.codes.nbytes)]
    raw = model.read_bytes()
    classes = byte_classes(model, array_bytes)
    assert len(classes) == 5 + 6
    argv = ("eval", "--data", str(synth_dataset), "--model", str(model))
    for byte_class, what, blob in mutations(raw, classes, seed=17):
        model.write_bytes(blob)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), (byte_class, what, err)
        assert is_one_error_line(err), (byte_class, what, err)
        assert re.match("error: " + expected_damage(byte_class), err), (byte_class, what, err)
    model.write_bytes(raw)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out.startswith(f"alpha: accuracy {trained.split('gnn ')[1]} ")


def test_eval_as_the_benchmark_calls_it(capsys, tmp_path, synth_dataset):
    out = tmp_path / "runs"
    model, _ = train_gnn(capsys, synth_dataset, out, "--mode", "verb-noun-filter")
    code, stdout, err = run_cli(
        capsys, "eval", "--data", str(synth_dataset), "--out", str(out),
        "--mode", "verb-noun-filter", "--project", "alpha", "--model", str(model),
        "--jobs", "1",
    )
    assert code == 0, err
    assert re.fullmatch(r"alpha: accuracy \d+\.\d\d% \(n=\d+\)\n", stdout)


def test_eval_on_missing_model_file_fails_cleanly(capsys, tmp_path, synth_dataset):
    code, _, err = run_cli(
        capsys, "eval", "--data", str(synth_dataset), "--out", str(tmp_path),
        "--project", "alpha", "--model", str(tmp_path / "missing.model"),
    )
    assert code == 1
    assert err.startswith("error: ")


def test_train_skips_a_non_finite_vector_row(capsys, tmp_path, synth_dataset):
    rng = np.random.default_rng(4)
    words = FILLER + [w for pool in LEVEL_POOLS.values() for w in pool]
    lines = [w + " " + " ".join(f"{x:.6f}" for x in rng.normal(size=8))
             for w in words]
    lines[0] = FILLER[0] + " nan" + " 0.5" * 7
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "runs"
    common = ("--data", str(synth_dataset), "--out", str(out), "--project", "alpha",
              "--vectors", str(vectors), "--dim", "8")
    code, _, err = run_cli(capsys, "train", "--model", "gnn", *common, *FAST)
    assert code == 0, err
    code, _, err = run_cli(capsys, "prepare", *common)
    assert code == 0, err
    rows = (out / "prepare" / "alpha.vocab.tsv").read_text().splitlines()
    provenance = dict(line.split("\t")[::3] for line in rows)
    assert provenance[FILLER[0]] == "random"
    assert provenance[FILLER[1]] == "pretrained"


def test_prepare_writes_what_the_embedding_table_holds(capsys, tmp_path, synth_dataset):
    # prepare builds no embedding table; its files must equal those written
    # from the table that training builds for the same split and vectors
    import storygraph.experiment as ex
    from storygraph.embeddings import build_vocab, load_pretrained_vectors

    rng = np.random.default_rng(5)
    words = FILLER + [w for pool in LEVEL_POOLS.values() for w in pool] + ["unseen"]
    lines = [w + " " + " ".join(f"{x:.6f}" for x in rng.normal(size=8)) for w in words]
    lines[0] = FILLER[0] + " 0.5" * 7  # a row of another dimension
    lines[1] = FILLER[1] + " inf" + " 0.5" * 7
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "runs"
    code, _, err = run_cli(capsys, "prepare", "--data", str(synth_dataset), "--out",
                           str(out), "--vectors", str(vectors), "--dim", "8")
    assert code == 0, err

    config = ex.ExperimentConfig(data_dir=synth_dataset, embedding_dim=8)
    for project in ("alpha", "beta"):
        prepared = ex.prepare_project(config, project)
        split = prepared.split
        train_tokens = {tok for doc in split.train for tok in doc.tokens}
        rows = load_pretrained_vectors(vectors, train_tokens, dim=8)
        vocab, table = build_vocab(split.train, rows, seed=0, dim=8)
        counts = Counter(tok for doc in split.train for tok in doc.tokens)
        assert "unseen" not in vocab.token_to_id
        assert {table.provenance[vocab.encode([w])[0]] for w in FILLER[:2]} == {"random"}
        assert "pretrained" in table.provenance
        vocab_tsv = "".join(
            f"{token}\t{i}\t{counts[token]}\t{table.provenance[i]}\n"
            for i, token in enumerate(vocab.id_to_token)
        )
        assert (out / "prepare" / f"{project}.vocab.tsv").read_bytes() == (
            vocab_tsv.encode("utf-8")
        )
        manifest = [f"# seed = {config.train.seed}", f"# split_hash = {prepared.split_hash}"]
        for section, docs in (("train", split.train), ("validation", split.validation),
                              ("test", split.test)):
            manifest += [f"[{section}]", *(d.doc_id for d in docs)]
        assert (out / "prepare" / f"{project}.split.txt").read_bytes() == (
            "\n".join(manifest) + "\n"
        ).encode("utf-8")


# commands that read the vector file, each over both synthetic projects
VECTOR_RUNS = {
    "train": ("train", "--model", "gnn", *FAST),
    "prepare": ("prepare", "--dim", "8"),
    "sweep": ("sweep", "--model", "gnn", "--windows", "2,3", *FAST),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", sorted(VECTOR_RUNS))
def test_one_vector_pass_per_command(capsys, tmp_path, synth_dataset, monkeypatch,
                                     command, jobs):
    import storygraph.experiment as ex

    # a file, not a list, so a load in a worker process is counted too
    log = tmp_path / "loads.txt"
    load = ex.load_pretrained_vectors

    def logged_load(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write("load\n")
        return load(*args, **kwargs)

    monkeypatch.setattr(ex, "load_pretrained_vectors", logged_load)
    vectors = tmp_path / "vectors.txt"
    write_vectors(vectors, dim=8)
    code, stdout, err = run_cli(
        capsys, *VECTOR_RUNS[command], "--data", str(synth_dataset),
        "--out", str(tmp_path / "o"), "--vectors", str(vectors), "--jobs", jobs,
    )
    assert code == 0, err
    assert "alpha" in stdout and "beta" in stdout
    assert log.read_text(encoding="utf-8") == "load\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", sorted(VECTOR_RUNS))
@pytest.mark.parametrize("problem", ["missing", "wrong-dim"])
def test_vector_file_errors_come_before_any_output(capsys, tmp_path, synth_dataset,
                                                   problem, command, jobs):
    vectors = tmp_path / "vectors.txt"
    if problem == "missing":
        expected = f"error: FileNotFoundError: vector file not found: {vectors}\n"
    else:
        lines = write_vectors(vectors, dim=3)
        expected = (f"error: DimensionMismatchError: {vectors}: {lines} lines skipped "
                    f"vs 0 parsed; file does not look 8-dimensional\n")
    out = tmp_path / "o"
    code, stdout, err = run_cli(
        capsys, *VECTOR_RUNS[command], "--data", str(synth_dataset), "--out", str(out),
        "--vectors", str(vectors), "--jobs", jobs,
    )
    assert code == 1
    assert err == expected
    assert stdout == "" and not out.exists()


def test_stats_writes_stats_only(capsys, tmp_path, synth_dataset):
    out = tmp_path / "runs"
    code, stdout, _ = run_cli(
        capsys, "stats", "--data", str(synth_dataset), "--out", str(out)
    )
    assert code == 0
    assert "alpha: size 43, nodes " in stdout
    stats_dir = out / "stats-raw"
    assert (stats_dir / "stats.csv").is_file()
    assert not (stats_dir / "report.csv").exists()
    # no timings: a rerun produces identical bytes
    first = (stats_dir / "stats.csv").read_bytes()
    assert run_cli(capsys, "stats", "--data", str(synth_dataset),
                   "--out", str(out))[0] == 0
    assert (stats_dir / "stats.csv").read_bytes() == first


@pytest.mark.parametrize("command", ["stats", "prepare"])
def test_jobs_leave_files_and_lines_unchanged(capsys, tmp_path, synth_dataset, command):
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        code, stdout, err = run_cli(
            capsys, command, "--data", str(synth_dataset), "--out", str(out),
            "--jobs", jobs,
        )
        assert code == 0, err
        files = {p.relative_to(out): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
        outputs.append((stdout.replace(str(out), "OUT"), files))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][1]) >= 3


def test_sweep_counts_edges_per_window(capsys, tmp_path, synth_dataset):
    code, stdout, _ = run_cli(
        capsys, "sweep", "--data", str(synth_dataset),
        "--out", str(tmp_path / "runs"), "--project", "alpha",
        "--model", "tfidf-rf", "--windows", "1,2",
    )
    assert code == 0
    assert "alpha w=1:" in stdout and "alpha w=2:" in stdout
    sweep_csv = tmp_path / "runs" / "sweep-raw" / "sweep.csv"
    assert sweep_csv.is_file()


def test_config_file_layering(capsys, tmp_path, synth_dataset):
    # file overrides defaults; flags override the file
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"window": 7, "seed": 9, "dim": 8}))
    out = tmp_path / "runs"
    code, _, _ = run_cli(
        capsys, "stats", "--data", str(synth_dataset), "--out", str(out),
        "--config", str(cfg), "--seed", "13",
    )
    assert code == 0
    echo = json.loads((out / "stats-raw" / "config.json").read_text())
    assert echo["window"] == 7  # from file
    assert echo["seed"] == 13  # flag wins
    assert echo["embedding_dim"] == 8  # from file


def test_config_file_with_unknown_key_fails(capsys, tmp_path, synth_dataset):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"windoww": 7}))
    code, _, err = run_cli(
        capsys, "stats", "--data", str(synth_dataset),
        "--out", str(tmp_path / "o"), "--config", str(cfg),
    )
    assert code == 1
    assert "windoww" in err


@pytest.mark.parametrize("content", [b"issuekey,title\nA-1,t\n", b"\xff{}"],
                         ids=["csv", "not-utf-8"])
def test_a_config_file_that_is_not_json_names_itself(capsys, tmp_path, synth_dataset,
                                                     content):
    cfg = tmp_path / "run.csv"
    cfg.write_bytes(content)
    code, stdout, err = run_cli(
        capsys, "train", "--data", str(synth_dataset), "--out", str(tmp_path / "o"),
        "--config", str(cfg),
    )
    assert code == 1 and stdout == ""
    assert err.startswith(f"error: StoryGraphError: {cfg}: not a JSON file: ")
    assert is_one_error_line(err)


@pytest.mark.parametrize("entry", [{"project": "alpha"}, {"project": ["alpha"]}])
def test_config_file_project_is_a_name_or_a_list(capsys, tmp_path, synth_dataset, entry):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(entry))
    code, stdout, err = run_cli(
        capsys, "stats", "--data", str(synth_dataset),
        "--out", str(tmp_path / "o"), "--config", str(cfg),
    )
    assert code == 0, err
    assert "alpha: size " in stdout and "beta" not in stdout


def test_config_file_windows_may_be_a_list(capsys, tmp_path, synth_dataset):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"windows": [2, 5]}))
    code, stdout, err = run_cli(
        capsys, "sweep", "--data", str(synth_dataset), "--out", str(tmp_path / "o"),
        "--project", "alpha", "--model", "tfidf-rf", "--config", str(cfg),
    )
    assert code == 0, err
    assert [l.split(":")[0] for l in stdout.splitlines()[:2]] == [
        "alpha w=2", "alpha w=5"]


@pytest.mark.parametrize("entry", [
    {"project": 3}, {"project": ["alpha", 3]}, {"windows": 5}, {"windows": [2, "5"]},
    {"window": [3]}, {"mode": "lemmas"}, {"project": ["alpha", "beta", "alpha"]},
    {"window": 2.9}, {"seed": 3.5}, {"window": True}, {"learning_rate": True},
    {"dropout": False}, {"jobs": 1.5}, {"project": []}, {"windows": "2,x"},
])
def test_config_file_refuses_other_value_types(capsys, tmp_path, synth_dataset, entry):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(entry))
    code, _, err = run_cli(
        capsys, "sweep", "--data", str(synth_dataset),
        "--out", str(tmp_path / "o"), "--config", str(cfg),
    )
    assert code == 1
    assert err.startswith(f"error: StoryGraphError: {next(iter(entry))}: ")


def test_a_config_file_task_takes_the_library_names(capsys, tmp_path, synth_dataset):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"task": "sp-as-label-regression"}))
    code, stdout, err = run_cli(
        capsys, "train", "--data", str(synth_dataset),
        "--out", str(tmp_path / "o"), "--config", str(cfg),
    )
    assert code == 1 and stdout == ""
    assert err == ("error: StoryGraphError: task: 'sp-as-label-regression' "
                   "is not one of classify, regress\n")


@pytest.mark.parametrize("flag, value, key", [
    ("--dropout", "1.0", "dropout"),
    ("--batch-size", "0", "batch_size"),
    ("--dropout", "-0.5", "dropout"),
    ("--batch-size", "-3", "batch_size"),
    ("--epochs", "0", "max_epochs"),
    ("--lr", "-1", "learning_rate"),
    ("--weight-decay", "-1", "weight_decay"),
    ("--dim", "0", "dim"),
    ("--jobs", "0", "jobs"),
    ("--patience", "0", "patience"),
    ("--rounds", "-1", "rounds"),
    ("--window", "0", "window"),
    ("--k", "0", "min_edge_frequency"),
    ("--lr", "nan", "learning_rate"),
])
def test_out_of_range_option_fails_before_any_project_loads(
        capsys, tmp_path, synth_dataset, flag, value, key):
    out = tmp_path / "o"
    code, stdout, err = run_cli(
        capsys, "train", "--data", str(synth_dataset), "--out", str(out),
        *FAST, flag, value,
    )
    assert code == 1
    assert err.startswith(f"error: StoryGraphError: {key}: ")
    assert err.count("\n") == 1 and "Traceback" not in err and "Warning" not in err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("entry", [
    {"dropout": 1.5}, {"windows": [2, 0]}, {"batch_size": 0}, {"jobs": -1},
])
def test_config_file_values_are_range_checked(capsys, tmp_path, synth_dataset, entry):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(entry))
    code, _, err = run_cli(
        capsys, "sweep", "--data", str(synth_dataset),
        "--out", str(tmp_path / "o"), "--config", str(cfg),
    )
    assert code == 1
    assert err.startswith(f"error: StoryGraphError: {next(iter(entry))}: ")


PROJECT_TWICE = "error: StoryGraphError: project: alpha named more than once\n"
WINDOW_TWICE = "error: StoryGraphError: windows: 2 named more than once\n"
WINDOW_NOT_INT = "error: StoryGraphError: windows: '2,x' is not a comma-separated list of int\n"
ALPHA_TWICE = ("--project", "alpha", "--project", "alpha", "--project", "beta")
ALPHA_SWEEP = ("--project", "alpha", "--model", "tfidf-rf")


@pytest.mark.parametrize("command, extra, config, expected", [
    ("baseline", (*ALPHA_TWICE, "--jobs", "1"), None, PROJECT_TWICE),
    ("baseline", (*ALPHA_TWICE, "--jobs", "2"), None, PROJECT_TWICE),
    ("sweep", (*ALPHA_SWEEP, "--windows", "2,2"), None, WINDOW_TWICE),
    ("sweep", ALPHA_SWEEP, {"windows": [2, 2]}, WINDOW_TWICE),
    ("sweep", (*ALPHA_SWEEP, "--windows", "2,x"), None, WINDOW_NOT_INT),
], ids=["1", "2", "windows-flag", "windows-config", "windows-not-int"])
def test_a_project_named_twice_is_refused(capsys, tmp_path, synth_dataset, command,
                                          extra, config, expected):
    # a window size named twice, or one that is not a whole number, is
    # refused the same way
    if config is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        extra = (*extra, "--config", str(cfg))
    out = tmp_path / "o"
    code, stdout, err = run_cli(
        capsys, command, "--data", str(synth_dataset), "--out", str(out), *extra,
    )
    assert code == 1
    assert err == expected
    assert stdout == "" and not out.exists()


EMPTY_DATA = "error: EmptyDatasetError: {data}: no *.csv project files\n"
NO_WINDOWS = "error: StoryGraphError: windows: no window size given\n"


@pytest.mark.parametrize("command, extra, config, expected", [
    *((command, (), None, EMPTY_DATA)
      for command in ("train", "baseline", "stats", "sweep", "prepare")),
    ("sweep", ("--windows", ","), None, NO_WINDOWS),
    ("sweep", (), {"windows": []}, NO_WINDOWS),
], ids=["train", "baseline", "stats", "sweep", "prepare", "windows-flag", "windows-config"])
def test_a_run_with_nothing_to_do_fails(capsys, tmp_path, synth_dataset, command,
                                        extra, config, expected):
    data = synth_dataset
    if expected is EMPTY_DATA:
        data = tmp_path / "empty"
        data.mkdir()
        (data / "notes.txt").write_text("no projects here\n")
    if config is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        extra = ("--config", str(cfg))
    out = tmp_path / "o"
    code, stdout, err = run_cli(
        capsys, command, "--data", str(data), "--out", str(out), *extra,
    )
    assert code == 1
    assert err == expected.format(data=data)
    assert stdout == "" and not out.exists()


def test_readme_lists_the_declared_ranges():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    readme = " ".join(readme.split())
    listed = {}
    for clause in readme.split("a saved model's header: ")[1].split(". ")[0].split("; "):
        bound = re.search(r"lies in \[(\d+), (\d+)\)|are at least (\d+)", clause)
        low, high = (bound[1], bound[2]) if bound[1] else (bound[3], None)
        listed.update(dict.fromkeys(re.findall(r"`(\w+)`", clause),
                                    (int(low), high and int(high))))
    declared = {key: f.metadata["range"]
                for key, f in options(ExperimentConfig, TrainConfig).items()
                if f.metadata["range"][0] is not None}
    assert listed == declared


def test_range_ends_are_legal(capsys, tmp_path, synth_dataset):
    code, _, err = run_cli(
        capsys, "stats", "--data", str(synth_dataset), "--out", str(tmp_path / "o"),
        "--dropout", "0", "--lr", "0", "--weight-decay", "0", "--batch-size", "1",
        "--epochs", "1", "--patience", "1", "--rounds", "0", "--window", "1",
        "--k", "1", "--dim", "1", "--jobs", "1",
    )
    assert code == 0, err


def test_eval_checks_option_ranges_before_reading_the_model(capsys, tmp_path,
                                                           synth_dataset):
    code, _, err = run_cli(
        capsys, "eval", "--data", str(synth_dataset), "--out", str(tmp_path / "o"),
        "--model", str(tmp_path / "missing.model"), "--jobs", "0",
    )
    assert code == 1
    assert err.startswith("error: StoryGraphError: jobs: ")


def test_error_lines_name_the_exception(capsys, tmp_path):
    # a file, not a directory: OSError path
    f = tmp_path / "file.txt"
    f.write_text("x")
    code, _, err = run_cli(
        capsys, "stats", "--data", str(f), "--out", str(tmp_path / "o")
    )
    assert code in (1, 2)
    assert err.startswith("error: ")


def test_stats_loads_a_description_longer_than_the_csv_default(capsys, tmp_path):
    rows = synth_rows("alpha", 40, seed=5)
    rows[0]["description"] = "pasted log " + "x" * 200_000  # default limit 131,072
    data = tmp_path / "data"
    data.mkdir()
    write_project_csv(data / "alpha.csv", rows)
    code, stdout, err = run_cli(
        capsys, "stats", "--data", str(data), "--out", str(tmp_path / "o")
    )
    assert code == 0, err
    assert "alpha: size " in stdout


def test_csv_errors_follow_the_error_contract(capsys, tmp_path, synth_dataset, monkeypatch):
    import storygraph.experiment as ex

    def unreadable(*args, **kwargs):
        raise csv.Error("field larger than field limit (131072)")

    monkeypatch.setattr(ex, "load_issues", unreadable)
    code, _, err = run_cli(
        capsys, "stats", "--data", str(synth_dataset), "--out", str(tmp_path / "o")
    )
    assert code == 1
    assert err.startswith("error: Error: alpha: field larger than field limit")


SMALL_PROJECT_RUNS = {
    "stats": (),
    "prepare": (),
    "train": ("--model", "tfidf-rf"),
    "sweep": ("--model", "tfidf-rf", "--windows", "2"),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", sorted(SMALL_PROJECT_RUNS))
def test_project_data_errors_name_the_project(capsys, tmp_path, synth_dataset,
                                              command, jobs):
    make_dataset(synth_dataset, {"small": 5})
    code, _, err = run_cli(
        capsys, command, "--data", str(synth_dataset), "--out", str(tmp_path / "o"),
        "--jobs", jobs, *SMALL_PROJECT_RUNS[command],
    )
    assert code == 1
    assert err == "error: DatasetTooSmallError: small: need at least 10 documents, got 5\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_failed_allocation_ends_in_one_error_line(capsys, tmp_path, synth_dataset, jobs):
    # a PiB-sized embedding table: np.zeros refuses it before touching memory
    out = tmp_path / "o"
    code, stdout, err = run_cli(
        capsys, "train", "--data", str(synth_dataset), "--out", str(out),
        *FAST, "--model", "gnn", "--dim", str(10**12), "--jobs", jobs,
    )
    assert code == 1 and stdout == ""
    assert err.startswith("error: MemoryError: alpha: Unable to allocate ")
    assert err.count("\n") == 1 and "Traceback" not in err


def _dies_on_beta(config, prepared, run_dir):
    # beta's worker ends at once, as one the kernel kills (out of memory,
    # say) does; module-level, so the pool can pickle it by name
    if prepared.project == "beta":
        os._exit(9)
    return _run_project(config, prepared, run_dir)


def test_a_worker_that_dies_ends_in_one_error_line(capsys, tmp_path, synth_dataset,
                                                   monkeypatch):
    import storygraph.experiment as ex

    monkeypatch.setattr(ex, "_run_project", _dies_on_beta)  # the fork pool inherits it
    out = tmp_path / "o"
    code, _, err = run_cli(
        capsys, "baseline", "--data", str(synth_dataset), "--out", str(out),
        "--project", "alpha", "--project", "beta", "--jobs", "2",
    )
    assert code == 1
    assert err == "error: StoryGraphError: a worker process ended without a result\n"
    assert not [*out.rglob("report.*"), *out.rglob("config.json")]


def test_undecodable_csv_names_the_project_without_traceback(capsys, tmp_path,
                                                             synth_dataset):
    (synth_dataset / "beta.csv").write_bytes(
        b"issuekey,title,description,storypoint\nB-1,t\xff,d,2\n"
    )
    code, _, err = run_cli(
        capsys, "stats", "--data", str(synth_dataset), "--out", str(tmp_path / "o")
    )
    assert code == 1
    assert err.startswith("error: UnicodeDecodeError: ")
    assert "beta: " in err
    assert "Traceback" not in err


def test_parser_has_all_subcommands():
    parser = build_parser()
    sub = next(
        a for a in parser._actions
        if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    assert set(sub.choices) == {
        "prepare", "train", "baseline", "eval", "stats", "sweep"
    }


def test_forest_regression_refuses_story_points_it_cannot_sum_exactly(capsys, tmp_path):
    rows = synth_rows("alpha", 30, seed=5)
    rows[0]["storypoint"] = str(10**8)  # a training row at the default seed
    data = tmp_path / "data"
    data.mkdir()
    write_project_csv(data / "alpha.csv", rows)
    code, stdout, err = run_cli(
        capsys, "baseline", "--data", str(data), "--out", str(tmp_path / "o"),
        "--task", "regress",
    )
    assert code == 1
    assert err.startswith("error: ValueError: alpha: regression targets must be ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert stdout == "" and not (tmp_path / "o").exists()
    code, _, err = run_cli(
        capsys, "train", "--data", str(data), "--out", str(tmp_path / "g"),
        "--task", "regress", "--model", "gnn", *FAST,
    )
    assert code == 0, err
