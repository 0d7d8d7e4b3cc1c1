"""Command-line behavior: flag layering, exit codes, and the files each
subcommand leaves behind."""

import csv
import json

import pytest

from storygraph.cli import DATA_ENV_VAR, build_parser, main

from conftest import synth_rows, write_project_csv


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


def test_eval_on_missing_model_file_fails_cleanly(capsys, tmp_path, synth_dataset):
    code, _, err = run_cli(
        capsys, "eval", "--data", str(synth_dataset), "--out", str(tmp_path),
        "--project", "alpha", "--model", str(tmp_path / "missing.model"),
    )
    assert code == 1
    assert err.startswith("error: ")


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
    assert err.startswith("error: Error: field larger than field limit")


def test_parser_has_all_subcommands():
    parser = build_parser()
    sub = next(
        a for a in parser._actions
        if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    assert set(sub.choices) == {
        "prepare", "train", "baseline", "eval", "stats", "sweep"
    }
