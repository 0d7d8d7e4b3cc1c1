"""Experiment orchestration: derived seeds, split fingerprints, report
assembly, and end-to-end runs on synthetic projects."""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from storygraph.baseline import RandomForestConfig
from storygraph.corpus import DatasetSplit, StoryPointLevel, TokenizedDocument
from storygraph.embeddings import build_vocab, load_pretrained_vectors
from storygraph.errors import StoryGraphError
from storygraph.experiment import (
    MODE_FILTERED,
    EvalReport,
    ExperimentConfig,
    ProjectResult,
    accuracy_percent,
    derive_seed,
    emit_report,
    eval_model,
    labels_for,
    mean_absolute_error,
    prepare_project,
    run_classification,
    run_graph_stats,
    run_regression,
    run_window_sweep,
    split_hash,
)
from storygraph.gnn import TrainConfig
from storygraph.graph import assign_edge_params, build_graphs, count_cooccurrences
from storygraph.model_io import load_model

from conftest import make_dataset, synth_rows, write_project_csv, write_vectors
from test_model_io import make_bundle


def fast_train(seed=5):
    return TrainConfig(
        window=3,
        batch_size=8,
        dropout=0.0,
        min_edge_frequency=1,
        max_epochs=2,
        patience=2,
        seed=seed,
    )


def make_config(data_dir, out_dir, **overrides):
    defaults = dict(
        data_dir=data_dir,
        output_dir=out_dir,
        train=fast_train(),
        embedding_dim=8,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def tok(doc_id, words, sp=2):
    return TokenizedDocument(doc_id=doc_id, tokens=tuple(words), raw_story_point=sp)


# --- small helpers -------------------------------------------------------------


# each message is the one the CLI prints after "error: StoryGraphError: "
@pytest.mark.parametrize("build, message", [
    (lambda p: TrainConfig(batch_size=0), "batch_size: 0 is not >= 1"),
    (lambda p: TrainConfig(window="3"), "window: '3' is not a int"),
    (lambda p: TrainConfig(dropout=True), "dropout: True is not a float"),
    (lambda p: ExperimentConfig(data_dir=p, jobs=0), "jobs: 0 is not >= 1"),
    (lambda p: ExperimentConfig(data_dir=p, text_mode="lemmas"),
     "mode: 'lemmas' is not one of raw, verb-noun-filter"),
    # the library takes the CLI's task names, not the paper's
    (lambda p: ExperimentConfig(data_dir=p, task="sp-as-label-regression"),
     "task: 'sp-as-label-regression' is not one of classify, regress"),
    (lambda p: ExperimentConfig(data_dir=p, windows=(2, 2)),
     "windows: 2 named more than once"),
    (lambda p: ExperimentConfig(data_dir=p, projects=("alpha", "../alpha")),
     "project: '../alpha' is not a file name"),
    # a saved model's project, which eval_model reads the data file of
    (lambda p: eval_model(ExperimentConfig(data_dir=p),
                          replace(make_bundle()[0], project="../alpha")),
     "project: '../alpha' is not a file name"),
    (lambda p: replace(TrainConfig(), window=0), "window: 0 is not >= 1"),
    (lambda p: RandomForestConfig(n_trees=0), "n_trees: 0 is not >= 1"),
    (lambda p: RandomForestConfig(bootstrap=1), "bootstrap: 1 is not a bool"),
    (lambda p: RandomForestConfig(max_features=7), "max_features: 7 is not one of auto, all"),
], ids=["batch_size", "window-text", "dropout-bool", "jobs", "mode", "task", "windows", "project-path",
        "model-project-path", "replace",
        "forest-trees", "forest-bootstrap-int", "forest-max-features"])
def test_configs_check_their_own_values(tmp_path, build, message):
    with pytest.raises(StoryGraphError) as err:
        build(tmp_path)
    assert str(err.value) == message


def test_derive_seed_matches_definition():
    # independent recomputation of the sha256-based derivation
    expected = (
        int.from_bytes(
            hashlib.sha256(b"42|alpha|split").digest()[:8], "little"
        )
        % 2**63
    )
    assert derive_seed(42, "alpha", "split") == expected


def test_derive_seed_varies_by_part_and_master():
    base = derive_seed(1, "p", "train")
    assert derive_seed(1, "p", "train") == base
    assert derive_seed(1, "p", "init") != base
    assert derive_seed(2, "p", "train") != base
    assert 0 <= base < 2**63


def test_split_hash_matches_definition_and_moves_with_membership():
    a, b, c = tok("A-1", ["x"]), tok("A-2", ["y"]), tok("A-3", ["z"])
    split = DatasetSplit(train=(a, b), validation=(), test=(c,))
    payload = "train:A-1,A-2\nval:\ntest:A-3"
    assert split_hash(split) == hashlib.sha256(payload.encode()).hexdigest()[:12]
    moved = DatasetSplit(train=(a,), validation=(b,), test=(c,))
    assert split_hash(moved) != split_hash(split)


def test_accuracy_percent_hand_counted():
    preds = [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]
    truth = [0, 1, 2, 3, 0, 1, 2, 0, 1, 2]  # 7 of 10 match
    assert accuracy_percent(preds, truth) == pytest.approx(70.0)
    assert accuracy_percent([], []) == 0.0
    with pytest.raises(ValueError):
        accuracy_percent([1], [])


def test_mean_absolute_error_hand_counted():
    assert mean_absolute_error([1.0, 5.0], [2.0, 3.0]) == pytest.approx(1.5)
    assert mean_absolute_error([], []) == 0.0
    with pytest.raises(ValueError):
        mean_absolute_error([1.0], [])


def test_labels_for_classification_uses_levels():
    docs = (tok("a", ["x"], sp=5), tok("b", ["y"], sp=41))
    assert [d.level for d in docs] == [StoryPointLevel.SMALL, StoryPointLevel.HUGE]
    assert labels_for(docs, ()) == [0, 3]


def test_labels_for_regression_maps_unseen_to_sentinel():
    docs = (tok("a", ["x"], sp=3), tok("b", ["y"], sp=8), tok("c", ["z"], sp=99))
    assert labels_for(docs, (3, 8)) == [0, 1, -1]


def test_experiment_name_combines_kind_and_mode(synth_dataset, tmp_path):
    cfg = make_config(synth_dataset, tmp_path, projects=("alpha",))
    report = run_graph_stats(cfg)
    assert report.files[0] == tmp_path / "stats-raw" / "stats.csv"
    cfg = make_config(synth_dataset, tmp_path, projects=("alpha",), text_mode=MODE_FILTERED,
                      model="tfidf-rf", windows=(2,))
    report = run_window_sweep(cfg)
    assert report.files[0] == tmp_path / "sweep-verb-noun-filter" / "sweep.csv"


def test_eval_report_averages_skip_missing():
    report = EvalReport(kind="classification")
    assert report.average("gnn_accuracy") is None
    report.rows.append(ProjectResult(project="a", gnn_accuracy=80.0))
    report.rows.append(ProjectResult(project="b", gnn_accuracy=60.0))
    report.rows.append(ProjectResult(project="c"))  # no value: excluded
    assert report.average("gnn_accuracy") == pytest.approx(70.0)
    assert report.average("baseline_mae") is None


# --- preparation ----------------------------------------------------------------


def test_prepare_project_splits_and_fingerprints(synth_dataset, tmp_path):
    cfg = make_config(synth_dataset, tmp_path)
    prepared = prepare_project(cfg, "alpha")
    split = prepared.split
    assert len(split.test) == 12  # round(0.2 * 60)
    assert len(split.validation) == 5  # round(0.1 * 48)
    assert len(split.train) == 43
    assert prepared.split_hash == split_hash(split)
    assert prepared.class_values == ()


def test_prepare_project_regression_class_values(synth_dataset, tmp_path):
    cfg = make_config(synth_dataset, tmp_path, task="regress")
    prepared = prepare_project(cfg, "alpha")
    cv = prepared.class_values
    assert cv == tuple(sorted(set(cv)))
    assert set(cv) == {d.raw_story_point for d in prepared.split.train}


def test_prepare_project_is_seed_stable(synth_dataset, tmp_path):
    cfg = make_config(synth_dataset, tmp_path)
    h1 = prepare_project(cfg, "alpha").split_hash
    h2 = prepare_project(cfg, "alpha").split_hash
    assert h1 == h2
    other = replace(cfg, train=fast_train(seed=99))
    assert prepare_project(other, "alpha").split_hash != h1


def test_resolved_projects_discovers_csvs(synth_dataset, tmp_path):
    cfg = make_config(synth_dataset, tmp_path)
    assert cfg.resolved_projects() == ("alpha", "beta")
    cfg = make_config(synth_dataset, tmp_path, projects=("beta",))
    assert cfg.resolved_projects() == ("beta",)


# --- end-to-end runs -------------------------------------------------------------


def test_run_classification_end_to_end(synth_dataset, tmp_path):
    cfg = make_config(synth_dataset, tmp_path / "out")
    report = run_classification(cfg)
    assert report.kind == "classification"
    assert [r.project for r in report.rows] == ["alpha", "beta"]
    for row in report.rows:
        assert row.gnn_accuracy is not None and 0 <= row.gnn_accuracy <= 100
        assert row.baseline_accuracy is not None
        assert row.gnn_mae is None and row.baseline_mae is None
        assert row.node_count > 0 and row.edge_count > 0
        assert len(row.split_hash) == 12
    assert report.average("gnn_accuracy") == pytest.approx(
        np.mean([r.gnn_accuracy for r in report.rows])
    )

    run_dir = tmp_path / "out" / "classification-raw"
    assert (run_dir / "config.json").is_file()
    written = json.loads((run_dir / "config.json").read_text())
    assert written["window"] == 3
    assert written["task"] == "classify"  # as a config file names it

    # saved models carry the master-seed config so eval can recover the split
    bundle = load_model(run_dir / "models" / "alpha.model")
    assert bundle.config.seed == cfg.train.seed
    assert bundle.vocabulary.size > 1


def test_run_regression_end_to_end(synth_dataset, tmp_path):
    cfg = make_config(
        synth_dataset, tmp_path / "out", projects=("alpha",), task="regress"
    )
    report = run_regression(cfg)
    row = report.rows[0]
    assert row.gnn_mae is not None and row.gnn_mae >= 0
    assert row.baseline_mae is not None and row.baseline_mae >= 0
    assert row.baseline_accuracy is None
    bundle = load_model(
        tmp_path / "out" / "regression-raw" / "models" / "alpha.model"
    )
    assert bundle.class_values  # story-point mapping rides along
    written = json.loads((tmp_path / "out" / "regression-raw" / "config.json").read_text())
    assert written["task"] == "regress"


def test_run_classification_gnn_only_skips_baseline(synth_dataset, tmp_path):
    cfg = make_config(
        synth_dataset, tmp_path / "out", projects=("beta",), model="gnn"
    )
    report = run_classification(cfg)
    assert report.rows[0].baseline_accuracy is None
    assert report.rows[0].gnn_accuracy is not None


def test_run_classification_rerun_is_byte_identical(synth_dataset, tmp_path):
    outputs = []
    for name in ("one", "two"):
        cfg = make_config(synth_dataset, tmp_path / name, include_timings=False)
        run_classification(cfg)
        emit_dir = tmp_path / name / "classification-raw"
        blob = b"".join(
            (emit_dir / f).read_bytes()
            for f in ("report.csv", "report.txt", "stats.csv", "stats.txt",
                      "config.json")
        )
        blob += (emit_dir / "models" / "alpha.model").read_bytes()
        blob += (emit_dir / "models" / "beta.model").read_bytes()
        blob += (emit_dir / "models" / "alpha.baseline").read_bytes()
        outputs.append(blob)
    assert outputs[0] == outputs[1]


def test_run_with_worker_pool_matches_serial(synth_dataset, tmp_path):
    serial = run_classification(make_config(synth_dataset, tmp_path / "s"))
    pooled = run_classification(
        make_config(synth_dataset, tmp_path / "p", jobs=2)
    )
    assert [r.project for r in pooled.rows] == [r.project for r in serial.rows]
    for a, b in zip(serial.rows, pooled.rows):
        assert a.gnn_accuracy == b.gnn_accuracy
        assert a.baseline_accuracy == b.baseline_accuracy
        assert a.split_hash == b.split_hash


@pytest.mark.parametrize("jobs, projects", [
    (4, ("alpha", "beta")), (3, ("alpha", "beta")), (2, ("alpha", "beta", "gamma")),
], ids=["4-jobs-2-projects", "3-jobs-2-projects", "2-jobs-3-projects"])
def test_the_pool_starts_no_more_workers_than_projects(tmp_path, monkeypatch, jobs, projects):
    # a fork pool starts every worker up front: `--jobs 4` on 2 projects
    # started 4 processes
    import concurrent.futures

    made = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    data = make_dataset(tmp_path / "data", dict.fromkeys(projects, 40))
    report = run_graph_stats(make_config(data, tmp_path / "out", jobs=jobs))
    assert made == [min(jobs, len(projects))]
    assert [r.project for r in report.rows] == list(projects)


def test_run_with_pretrained_vectors(synth_dataset, tmp_path, tiny_vectors_file):
    cfg = make_config(
        synth_dataset,
        tmp_path / "out",
        projects=("alpha",),
        model="gnn",
        vectors_path=tiny_vectors_file,
    )
    report = run_classification(cfg)
    assert report.rows[0].gnn_accuracy is not None
    written = json.loads((tmp_path / "out" / "classification-raw" / "config.json").read_text())
    assert written["vectors"] == str(tiny_vectors_file)  # the path, as a config file takes it


def rows_and_table(config, prepared, run_dir):
    """A per-project run that returns the vector rows its project carries,
    the embedding table they give and the rows left once it is built;
    module-level, so a worker process can take it."""
    import storygraph.experiment as ex

    sent = sorted(prepared.vector_rows)
    _, table, _ = ex._encode(config, prepared)
    return sent, table, len(prepared.vector_rows)


@pytest.mark.parametrize("jobs", [1, 2])
def test_each_project_is_sent_the_rows_of_its_own_tokens(tmp_path, jobs):
    import storygraph.experiment as ex

    # "zebra" is an alpha word and "yak" a beta word; both have vectors
    data = tmp_path / "data"
    data.mkdir()
    for project, own, seed in (("alpha", "zebra", 1), ("beta", "yak", 2)):
        rows = synth_rows(project, 40, seed)
        for row in rows:
            row["description"] += " " + own
        write_project_csv(data / f"{project}.csv", rows)
    vectors = tmp_path / "vectors.txt"
    write_vectors(vectors, dim=8, extra=("zebra", "yak"))
    cfg = make_config(data, tmp_path / "out", vectors_path=vectors, jobs=jobs)

    results = ex._collect(cfg, ("alpha", "beta"), tmp_path / "out", rows_and_table,
                          use_vectors=True)
    for project, (sent, table, left) in zip(("alpha", "beta"), results):
        train = prepare_project(cfg, project).split.train
        own = load_pretrained_vectors(vectors, {t for d in train for t in d.tokens}, dim=8)
        assert sent == sorted(own)
        assert ("zebra" in sent, "yak" in sent) == (project == "alpha", project == "beta")
        _, expected = build_vocab(
            train, own, seed=derive_seed(cfg.train.seed, project, "vocab"), dim=8
        )
        assert np.array_equal(table.matrix, expected.matrix)
        assert table.provenance == expected.provenance
        assert "pretrained" in table.provenance
        assert left == 0  # the rows are let go once the table holds them


def test_run_filtered_mode_shrinks_graphs(synth_dataset, tmp_path):
    raw = run_graph_stats(make_config(synth_dataset, tmp_path / "a"))
    filtered = run_graph_stats(
        make_config(synth_dataset, tmp_path / "b", text_mode=MODE_FILTERED)
    )
    for r_raw, r_filt in zip(raw.rows, filtered.rows):
        assert r_filt.node_count <= r_raw.node_count
        assert r_filt.edge_count <= r_raw.edge_count


def test_project_errors_carry_project_name(synth_dataset, tmp_path, monkeypatch):
    import storygraph.experiment as ex

    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(ex.gnn, "train", boom)
    cfg = make_config(synth_dataset, tmp_path, projects=("alpha",), model="gnn")
    with pytest.raises(ValueError, match="alpha: boom"):
        run_classification(cfg)


@pytest.mark.parametrize("fails_in", ["prepare", "run"])
def test_a_failed_run_writes_no_report(synth_dataset, tmp_path, monkeypatch, fails_in):
    # a project that fails after alpha has run keeps alpha's models but
    # leaves no report files or config snapshot beside them
    import storygraph.experiment as ex

    if fails_in == "prepare":  # too few documents to split
        write_project_csv(synth_dataset / "gamma.csv", synth_rows("gamma", 5, 3))
        match = "gamma: need at least 10"
    else:
        real_train, calls = ex.gnn.train, []

        def second_fails(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise ValueError("boom")
            return real_train(*args, **kwargs)

        monkeypatch.setattr(ex.gnn, "train", second_fails)
        match = "beta: boom"
    with pytest.raises((StoryGraphError, ValueError), match=match):
        run_classification(make_config(synth_dataset, tmp_path))
    run_dir = tmp_path / "classification-raw"
    if fails_in == "prepare":  # every project is prepared before any runs
        assert not run_dir.exists()
    else:
        left = sorted(p.relative_to(run_dir).as_posix() for p in run_dir.rglob("*"))
        assert left == ["models", "models/alpha.baseline", "models/alpha.model"]


# --- graph stats and sweep -------------------------------------------------------


def test_run_graph_stats_counts_without_training(synth_dataset, tmp_path):
    cfg = make_config(synth_dataset, tmp_path / "out")
    report = run_graph_stats(cfg)
    assert report.kind == "stats"
    assert [r.project for r in report.rows] == ["alpha", "beta"]
    for row in report.rows:
        assert row.node_count > 0
        assert row.edge_count > 0
        assert row.train_seconds is None
        assert row.gnn_accuracy is None


@pytest.mark.parametrize("mode", ["raw", MODE_FILTERED])
def test_run_graph_stats_matches_training_graphs(synth_dataset, tmp_path, mode):
    # oracle: distinct token ids and distinct ordered token pairs over the
    # word graphs of each project's training split
    cfg = make_config(synth_dataset, tmp_path / "out", text_mode=mode)
    report = run_graph_stats(cfg)
    assert [r.project for r in report.rows] == ["alpha", "beta"]
    for row in report.rows:
        train = prepare_project(cfg, row.project).split.train
        vocab, _ = build_vocab(train, {}, seed=0, dim=8)
        encoded = vocab.encode_all(train)
        window = cfg.train.window
        table = assign_edge_params(count_cooccurrences(encoded, window), 1)
        nodes, pairs = set(), set()
        for g in build_graphs(encoded, window, table):
            ids = g.node_ids.tolist()
            nodes.update(ids)
            pairs.update(
                (ids[s], ids[d]) for s, d in zip(g.edge_src.tolist(), g.edge_dst.tolist())
            )
        assert row.train_size == len(train)
        assert row.node_count == len(nodes)
        assert row.edge_count == len(pairs)


def test_run_window_sweep_prepares_each_project_once(synth_dataset, tmp_path, monkeypatch):
    import storygraph.experiment as ex

    calls = []

    def counting_prepare(config, project):
        calls.append(project)
        return prepare_project(config, project)

    monkeypatch.setattr(ex, "prepare_project", counting_prepare)
    cfg = make_config(synth_dataset, tmp_path / "out", model="tfidf-rf", windows=(1, 2, 4))
    report = run_window_sweep(cfg)
    assert sorted(calls) == ["alpha", "beta"]
    assert len(report.rows) == 6


def test_run_window_sweep_worker_pool_matches_serial(synth_dataset, tmp_path):
    serial = run_window_sweep(
        make_config(synth_dataset, tmp_path / "a", model="tfidf-rf", windows=(1, 3))
    )
    pooled = run_window_sweep(
        make_config(synth_dataset, tmp_path / "b", model="tfidf-rf", windows=(1, 3), jobs=2)
    )
    assert [(r.project, r.window) for r in serial.rows] == [
        ("alpha", 1), ("alpha", 3), ("beta", 1), ("beta", 3)
    ]
    assert pooled.rows == serial.rows


def test_run_window_sweep_edges_grow_with_window(synth_dataset, tmp_path):
    cfg = make_config(
        synth_dataset,
        tmp_path / "out",
        projects=("alpha",),
        model="tfidf-rf",  # edge counting only, no re-training
        windows=(1, 2, 4, 8),
    )
    report = run_window_sweep(cfg)
    assert [r.window for r in report.rows] == [1, 2, 4, 8]
    edges = [r.edge_count for r in report.rows]
    assert edges == sorted(edges)
    assert all(r.gnn_accuracy is None for r in report.rows)


def test_run_window_sweep_with_model_reports_accuracy(synth_dataset, tmp_path):
    cfg = make_config(
        synth_dataset,
        tmp_path / "out",
        projects=("beta",),
        model="gnn",
        windows=(2, 3),
    )
    report = run_window_sweep(cfg)
    assert all(r.gnn_accuracy is not None for r in report.rows)


def test_runs_that_train_nothing_build_no_embedding_table(
    synth_dataset, tmp_path, monkeypatch
):
    import storygraph.embeddings as emb
    import storygraph.experiment as ex

    def refuse(*args, **kwargs):
        raise AssertionError("an embedding table was built")

    expected_stats = run_graph_stats(make_config(synth_dataset, tmp_path / "a"))
    sweep_cfg = make_config(synth_dataset, tmp_path / "b", model="tfidf-rf", windows=(2, 3))
    expected_sweep = run_window_sweep(sweep_cfg)
    monkeypatch.setattr(emb, "build_vocab", refuse)
    monkeypatch.setattr(ex, "build_vocab", refuse)
    assert run_graph_stats(make_config(synth_dataset, tmp_path / "c")).rows == (
        expected_stats.rows
    )
    assert run_window_sweep(replace(sweep_cfg, output_dir=tmp_path / "d")).rows == (
        expected_sweep.rows
    )


@pytest.mark.parametrize("run", ["sweep", "classification"])
def test_training_leaves_the_embedding_table_unwritten(
    synth_dataset, tmp_path, monkeypatch, run
):
    # init_parameters takes the table's matrix itself and train writes its
    # initial parameters: a sweep trains a copy per window, so its table
    # stays as built, while a classification run trains the table itself,
    # which shows that it made no copy
    import storygraph.experiment as ex

    tables = []

    def recording_build_vocab(*args, **kwargs):
        vocab, table = build_vocab(*args, **kwargs)
        tables.append((table, table.matrix.tobytes()))
        return vocab, table

    monkeypatch.setattr(ex, "build_vocab", recording_build_vocab)
    cfg = make_config(synth_dataset, tmp_path / "out", projects=("beta",), model="gnn",
                      windows=(2, 3), save_models=False)
    if run == "sweep":
        assert len(run_window_sweep(cfg).rows) == 2
    else:
        assert run_classification(cfg).rows[0].gnn_accuracy is not None
    assert len(tables) == 1
    table, before = tables[0]
    assert (table.matrix.tobytes() == before) == (run == "sweep")


# --- report files -----------------------------------------------------------------


def sample_report():
    report = EvalReport(kind="classification")
    report.rows.append(
        ProjectResult(
            project="alpha",
            train_size=40,
            test_size=10,
            split_hash="abc123def456",
            gnn_accuracy=81.25,
            baseline_accuracy=79.0,
            node_count=120,
            edge_count=456,
            train_seconds=3.25,
        )
    )
    report.rows.append(
        ProjectResult(
            project="beta",
            train_size=30,
            test_size=8,
            split_hash="fedcba654321",
            gnn_accuracy=90.0,
            baseline_accuracy=None,
            node_count=90,
            edge_count=300,
            train_seconds=2.0,
        )
    )
    return report


def test_emit_report_writes_plain_tables(tmp_path):
    paths = emit_report(sample_report(), tmp_path)
    names = {p.name for p in paths}
    assert names == {"report.csv", "report.txt", "stats.csv", "stats.txt"}
    csv_text = (tmp_path / "report.csv").read_text()
    lines = csv_text.splitlines()
    assert lines[0] == "No,Software,TFIDF-RF,GNN,SplitHash"
    assert lines[1] == "1,alpha,79.00,81.25,abc123def456"
    assert lines[2] == "2,beta,-,90.00,fedcba654321"
    assert lines[3].startswith(",Average,79.00,85.62")
    txt = (tmp_path / "report.txt").read_text()
    assert txt.startswith("No  Software") and "alpha" in txt
    stats = (tmp_path / "stats.csv").read_text().splitlines()
    assert stats[0] == "Project,Size,Nodes,Edges,TrainTime"
    assert stats[1] == "alpha,40,120,456,3.25"


def test_emit_report_without_timings_masks_train_time(synth_dataset, tmp_path):
    cfg = make_config(synth_dataset, tmp_path, projects=("alpha",), include_timings=False)
    row, = run_classification(cfg).rows
    assert row.train_seconds is None
    stats = (tmp_path / "classification-raw" / "stats.csv").read_text().splitlines()
    assert stats[-1] == f"alpha,43,{row.node_count},{row.edge_count},-"


def test_a_forest_only_run_writes_no_graph_figures(synth_dataset, tmp_path):
    # it builds no graph and trains no GNN: "-", not 0 nodes in 0.00 s
    cfg = make_config(synth_dataset, tmp_path, projects=("alpha",), model="tfidf-rf")
    run_classification(cfg)
    stats = (tmp_path / "classification-raw" / "stats.csv").read_text().splitlines()
    assert stats[-1] == "alpha,43,-,-,-"


def test_emit_report_stats_only_skips_accuracy_table(tmp_path):
    report = sample_report()
    report.kind = "stats"
    paths = emit_report(report, tmp_path)
    assert {p.name for p in paths} == {"stats.csv", "stats.txt"}
    assert not (tmp_path / "report.csv").exists()


def test_emit_report_regression_uses_mae_columns(tmp_path):
    report = EvalReport(kind="regression")
    report.rows.append(
        ProjectResult(
            project="alpha",
            split_hash="h",
            gnn_mae=2.5,
            baseline_mae=3.0,
        )
    )
    emit_report(report, tmp_path)
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == "No,Software,TFIDF-RFR,GNN,SplitHash"
    assert lines[1] == "1,alpha,3.00,2.50,h"


def test_summary_prints_the_cells_of_the_report_table():
    # a score the run did not compute is left out of its line; an empty
    # report has no Average row, so no average line
    assert sample_report().summary() == [
        "alpha: tfidf-rf 79.00%, gnn 81.25%",
        "beta: gnn 90.00%",
        "average: tfidf-rf 79.00%, gnn 85.62%",
    ]
    assert EvalReport(kind="classification").summary() == []


def test_emit_sweep_report(tmp_path, synth_dataset):
    cfg = make_config(
        synth_dataset, tmp_path / "out", projects=("alpha",),
        model="tfidf-rf", windows=(1, 2),
    )
    report = run_window_sweep(cfg)
    assert [p.name for p in report.files] == ["sweep.csv", "sweep.txt"]
    lines = report.files[0].read_text().splitlines()
    assert lines[0] == "Project,Window,Edges,Accuracy"
    assert lines[1].startswith("alpha,1,")
