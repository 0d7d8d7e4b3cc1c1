"""Acceptance suite: ten numbered criteria, one test each.

Criteria 1, 2, 9 and 10 are pure property/oracle checks and always run.
Criteria 3 through 8 replicate published benchmark numbers and need the
issue dataset: point STORYGRAPH_DATA at the directory of per-project CSV
files to enable them (and optionally STORYGRAPH_VECTORS at a word-vector
text file). Without it they skip, never silently pass. Each of them
compares what a measure function returns with the published values, and
test_criteria_03_to_08_measure_a_generated_corpus runs every measure, on
any checkout, on a corpus the benchmark's generator writes.
"""

import os
import statistics
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from storygraph.baseline import rf_predict_many, tfidf_transform
from storygraph.corpus import (
    bucket_level,
    load_issues,
    tokenize_issues,
)
from storygraph.embeddings import EncodedDocument, build_vocab
from storygraph.experiment import (
    MODE_FILTERED,
    MODE_RAW,
    EvalReport,
    ExperimentConfig,
    ProjectResult,
    run_classification,
    run_graph_stats,
    run_regression,
    run_window_sweep,
)
from storygraph import gnn
from storygraph.graph import (
    assign_edge_params,
    build_graph,
    count_cooccurrences,
    decode_pairs,
)
from storygraph.model_io import (
    BaselineBundle,
    ModelBundle,
    load_baseline_model,
    load_model,
    save_baseline_model,
    save_model,
)

from conftest import load_corpus_gen, make_dataset

corpus_gen = load_corpus_gen()

SEEDS = (13, 42, 2021)  # fixed retry seeds; per-project results take the median

PUBLISHED_LEVEL_HISTOGRAM = {
    "Small": 16759, "Medium": 5173, "Large": 1085, "Huge": 296
}
PUBLISHED_EDGE_COUNTS = {
    2: 22511, 5: 58752, 10: 99626, 20: 151170, 50: 229599, 100: 287869
}
GNN_AVERAGE = 78.63
BASELINE_AVERAGE = 80.25
REGRESSION_AVERAGE_MAE = 3.09
FILTERED_AVERAGE = 79.66


def dataset_dir() -> Path:
    value = os.environ.get("STORYGRAPH_DATA")
    if not value:
        pytest.skip("published dataset not available: set STORYGRAPH_DATA")
    path = Path(value)
    if not path.is_dir() or not list(path.glob("*.csv")):
        pytest.skip(f"no project CSV files under STORYGRAPH_DATA: {path}")
    return path


def vectors_path() -> Path | None:
    value = os.environ.get("STORYGRAPH_VECTORS")
    return Path(value) if value else None


def full_config(data: Path, out: Path, seed: int, **overrides) -> ExperimentConfig:
    settings = dict(
        data_dir=data,
        output_dir=out,
        train=gnn.TrainConfig(seed=seed),
        vectors_path=vectors_path(),
        jobs=min(8, os.cpu_count() or 1),
        save_models=False,
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


@pytest.fixture(scope="module")
def published_classification(tmp_path_factory):
    """One full classification run per fixed seed, shared by criteria 5/6/8."""
    return measure_classification(
        full_config(dataset_dir(), tmp_path_factory.mktemp("classification"), SEEDS[0]), SEEDS)


@pytest.fixture(scope="module")
def published_filtered_classification(tmp_path_factory):
    config = full_config(dataset_dir(), tmp_path_factory.mktemp("filtered"), SEEDS[0],
                         text_mode=MODE_FILTERED)
    return [report for report, _ in measure_classification(config, SEEDS)]


def median_by_project(reports, attr):
    projects = [r.project for r in reports[0].rows]
    out = {}
    for i, project in enumerate(projects):
        out[project] = statistics.median(
            getattr(rep.rows[i], attr) for rep in reports
        )
    return out


# --- criterion 1 ---------------------------------------------------------------


def random_gradient_instance(rng):
    vocab = int(rng.integers(2, 21))  # V <= 20
    dim = int(rng.integers(1, 9))  # d <= 8
    n_classes = int(rng.integers(2, 5))  # C <= 4
    length = int(rng.integers(1, 11))  # <= 10 tokens
    window = int(rng.integers(1, 4))  # w <= 3
    ids = rng.integers(1, vocab, size=length).tolist() if vocab > 1 else [0]
    doc = EncodedDocument(
        doc_id="g", token_ids=tuple(ids), raw_story_point=1,
    )
    table = assign_edge_params(count_cooccurrences([doc], window), int(rng.integers(1, 3)))
    graph = build_graph(doc, window, table, label=int(rng.integers(0, n_classes)))
    params = gnn.ModelParameters(
        embeddings=rng.normal(size=(vocab, dim)),
        edge_weights=rng.normal(size=table.num_edge_params),
        gates=rng.normal(size=vocab),
        classifier_weights=rng.normal(size=(n_classes, dim)),
        classifier_bias=rng.normal(size=n_classes),
    )
    return params, graph


def test_criterion_01_gradient_correctness():
    step = 1e-4
    started = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(50):
        params, graph = random_gradient_instance(rng)
        trace = gnn.forward(params, graph)
        grads = gnn.backward(trace, graph, params, graph.label)

        def loss_at():
            t = gnn.forward(params, graph)
            return gnn.loss(t.probabilities, graph.label)

        for name, arr in params.named_arrays():
            analytic = getattr(grads, name)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                original = arr[idx]
                arr[idx] = original + step
                up = loss_at()
                arr[idx] = original - step
                down = loss_at()
                arr[idx] = original
                numeric = (up - down) / (2 * step)
                a = float(analytic[idx])
                worst = max(
                    worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-3)
                )
    elapsed = time.perf_counter() - started
    assert worst < 1e-4, f"max relative gradient error {worst:.3e}"
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


# --- criterion 2 ---------------------------------------------------------------


def brute_force_pairs(ids, window):
    counts = Counter()
    for i in range(len(ids)):
        for j in range(len(ids)):
            if i != j and abs(i - j) <= window:
                counts[(ids[i], ids[j])] += 1
    return counts


def test_criterion_02_graph_construction_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(777)
    for _ in range(200):
        vocab = int(rng.integers(1, 11))  # vocab <= 10
        length = int(rng.integers(1, 31))  # <= 30 tokens
        window = int(rng.integers(1, 6))  # w in 1..5
        ids = rng.integers(0, vocab, size=length).tolist()
        doc = EncodedDocument(
            doc_id="o", token_ids=tuple(ids), raw_story_point=1,
        )
        expected = brute_force_pairs(ids, window)
        counted = count_cooccurrences([doc], window)
        counted_pairs = [tuple(p) for p in decode_pairs(counted.codes).tolist()]
        assert dict(zip(counted_pairs, counted.counts.tolist())) == dict(expected)

        table = assign_edge_params(counted, int(rng.integers(1, 3)))
        table_pairs = [tuple(p) for p in decode_pairs(table.codes).tolist()]
        pair_index = {pair: i + 1 for i, pair in enumerate(table_pairs)}
        graph = build_graph(doc, window, table, label=0)
        seen, order = [], {}
        for t in ids:
            if t not in order:
                order[t] = len(order)
                seen.append(t)
        assert graph.node_ids.tolist() == seen
        entries = {
            (int(s), int(d)): int(p)
            for s, d, p in zip(graph.edge_src, graph.edge_dst, graph.edge_param)
        }
        expected_entries = {
            (order[s], order[d]): pair_index.get((s, d), 0)
            for (s, d) in expected
        }
        assert entries == expected_entries
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"graph oracle took {elapsed:.1f}s"


# --- criteria 3-8: measures --------------------------------------------------------
#
# Each measure returns the numbers its criterion compares with the published
# values. The criteria run the measures on the published corpus and skip
# without it; test_criteria_03_to_08_measure_a_generated_corpus runs every
# measure on a generated one, checking only facts that hold on any corpus.


def measure_level_histogram(data: Path) -> Counter:
    """Issues per effort level, by level name, over every project file."""
    histogram = Counter()
    for csv_path in sorted(data.glob("*.csv")):
        issues, _ = load_issues(csv_path)
        for issue in issues:
            histogram[bucket_level(issue.story_point).name.title()] += 1
    return histogram


def measure_edge_counts(csv_path: Path, windows) -> dict[int, int]:
    """Distinct co-occurring token pairs of one project's issues, per window."""
    issues, _ = load_issues(csv_path)
    docs, _ = tokenize_issues(issues)
    vocab, _ = build_vocab(docs, {}, seed=0, dim=2)
    encoded = vocab.encode_all(docs)
    return {w: len(count_cooccurrences(encoded, w)) for w in sorted(windows)}


def measure_classification(config: ExperimentConfig, seeds) -> list[tuple[EvalReport, float]]:
    """One classification run per master seed, each under its own directory,
    with its wall time in seconds."""
    runs = []
    for seed in seeds:
        started = time.perf_counter()
        report = run_classification(replace(config, output_dir=config.output_dir / str(seed),
                                             train=replace(config.train, seed=seed)))
        runs.append((report, time.perf_counter() - started))
    return runs


def measure_forest_seconds(config: ExperimentConfig) -> float:
    """Wall time of a whole forest-only classification run, one project at
    a time, loading and scoring included."""
    started = time.perf_counter()
    run_classification(replace(config, model="tfidf-rf", jobs=1))
    return time.perf_counter() - started


def measure_regression_mae(config: ExperimentConfig) -> dict[str, float]:
    """Each project's GNN MAE with story points as the labels."""
    report = run_regression(replace(config, model="gnn"))
    return {r.project: r.gnn_mae for r in report.rows}


def measure_filter_scale(config: ExperimentConfig,
                         project: str) -> tuple[ProjectResult, ProjectResult]:
    """One project's graph-scale row in raw and in verb-noun-filter mode."""
    config = replace(config, projects=(project,))
    raw = run_graph_stats(replace(config, output_dir=config.output_dir / "raw",
                                  text_mode=MODE_RAW))
    filtered = run_graph_stats(replace(config, output_dir=config.output_dir / "filtered",
                                       text_mode=MODE_FILTERED))
    return raw.rows[0], filtered.rows[0]


# --- criterion 3 ---------------------------------------------------------------


def test_criterion_03_level_histogram():
    histogram = measure_level_histogram(dataset_dir())
    assert sum(histogram.values()) == 23313
    assert dict(histogram) == PUBLISHED_LEVEL_HISTOGRAM


# --- criterion 4 ---------------------------------------------------------------


def test_criterion_04_edge_scale():
    data = dataset_dir()
    csv_path = data / "jirasoftware.csv"
    if not csv_path.is_file():
        pytest.skip("jirasoftware.csv not present under STORYGRAPH_DATA")
    started = time.perf_counter()
    measured = measure_edge_counts(csv_path, PUBLISHED_EDGE_COUNTS)
    counts = [measured[w] for w in sorted(measured)]
    assert counts == sorted(set(counts)), "edge counts must increase with window"
    for w, published in PUBLISHED_EDGE_COUNTS.items():
        low, high = 0.85 * published, 1.15 * published
        assert low <= measured[w] <= high, (
            f"w={w}: {measured[w]} edges outside ±15% of {published}"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"edge-scale check took {elapsed:.1f}s"


# --- criteria 5 and 6 ------------------------------------------------------------


def test_criterion_05_gnn_accuracy(published_classification):
    reports = [r for r, _ in published_classification]
    for _, elapsed in published_classification:
        assert elapsed < 3600.0, f"full run took {elapsed / 60:.1f} minutes"
    medians = median_by_project(reports, "gnn_accuracy")
    assert medians.get("bamboo") == pytest.approx(100.0)
    assert medians.get("duracloud", 0.0) >= 95.0
    assert medians.get("jirasoftware", 0.0) >= 80.0
    average = statistics.mean(medians.values())
    assert abs(average - GNN_AVERAGE) <= 5.0, f"average {average:.2f}"


def test_criterion_06_baseline_accuracy(published_classification, tmp_path):
    reports = [r for r, _ in published_classification]
    medians = median_by_project(reports, "baseline_accuracy")
    average = statistics.mean(medians.values())
    assert abs(average - BASELINE_AVERAGE) <= 5.0, f"average {average:.2f}"
    # a whole forest-only run against the sum of the GNN's per-project
    # training times
    for seed, report in zip(SEEDS, reports):
        baseline_time = measure_forest_seconds(
            full_config(dataset_dir(), tmp_path / str(seed), seed))
        gnn_time = sum(r.train_seconds for r in report.rows)
        assert baseline_time < 0.5 * gnn_time, (
            f"baseline {baseline_time:.0f}s vs gnn {gnn_time:.0f}s"
        )


# --- criterion 7 ---------------------------------------------------------------


def test_criterion_07_regression_mae(tmp_path):
    by_project = measure_regression_mae(full_config(dataset_dir(), tmp_path, SEEDS[0]))
    assert by_project.get("bamboo", 1.0) <= 0.1
    assert by_project.get("usergrid", 1.0) <= 0.5
    average = statistics.mean(by_project.values())
    assert abs(average - REGRESSION_AVERAGE_MAE) <= 1.0, f"average {average:.2f}"


# --- criterion 8 ---------------------------------------------------------------


def test_criterion_08_verb_noun_filter(
    published_classification, published_filtered_classification, tmp_path
):
    data = dataset_dir()
    if not (data / "datamanagement.csv").is_file():
        pytest.skip("datamanagement.csv not present under STORYGRAPH_DATA")

    raw_row, filtered_row = measure_filter_scale(
        full_config(data, tmp_path, SEEDS[0]), "datamanagement")
    assert filtered_row.node_count <= 0.2 * raw_row.node_count, (
        f"nodes {raw_row.node_count} -> {filtered_row.node_count}"
    )
    assert filtered_row.edge_count <= 0.2 * raw_row.edge_count, (
        f"edges {raw_row.edge_count} -> {filtered_row.edge_count}"
    )

    raw_acc = median_by_project(
        [r for r, _ in published_classification], "gnn_accuracy"
    )
    filtered_acc = median_by_project(
        published_filtered_classification, "gnn_accuracy"
    )
    assert filtered_acc["datamanagement"] > raw_acc["datamanagement"]
    average = statistics.mean(filtered_acc.values())
    assert abs(average - FILTERED_AVERAGE) <= 5.0, f"average {average:.2f}"


# --- criteria 3-8 on a generated corpus ------------------------------------------

# the paper's project names, at the sizes of a generated corpus on which
# criteria 3-8 once reached their published-number assertions
GENERATED_PROJECTS = {"jirasoftware": 90, "datamanagement": 70, "bamboo": 40}
GENERATED_CORPUS_SEED = 3


def test_criteria_03_to_08_measure_a_generated_corpus(tmp_path):
    """Every measure of criteria 3-8 runs here on any checkout, so a change
    that breaks one fails without the published corpus. Only facts that
    hold on any corpus are checked; no published number is."""
    data = tmp_path / "data"
    summary = corpus_gen.write_corpus(data, GENERATED_PROJECTS, GENERATED_CORPUS_SEED)
    projects = sorted(GENERATED_PROJECTS)

    assert sum(measure_level_histogram(data).values()) == summary["issues"]

    edges = measure_edge_counts(data / "jirasoftware.csv", PUBLISHED_EDGE_COUNTS)
    counts = [edges[w] for w in sorted(PUBLISHED_EDGE_COUNTS)]
    assert all(a < b for a, b in zip(counts, counts[1:])), edges

    config = ExperimentConfig(data_dir=data, output_dir=tmp_path / "runs",
                              train=small_train_config(), embedding_dim=8,
                              save_models=False)
    for mode in (MODE_RAW, MODE_FILTERED):
        runs = measure_classification(replace(config, text_mode=mode), SEEDS)
        reports = [report for report, _ in runs]
        for report in reports:
            assert [r.project for r in report.rows] == projects
            for r in report.rows:
                # a NaN fails both comparisons
                assert 0.0 <= r.gnn_accuracy <= 100.0 and 0.0 <= r.baseline_accuracy <= 100.0
        for attr in ("gnn_accuracy", "baseline_accuracy"):
            assert sorted(median_by_project(reports, attr)) == projects
    assert measure_forest_seconds(config) > 0.0

    mae = measure_regression_mae(config)
    assert sorted(mae) == projects
    assert all(value >= 0.0 for value in mae.values()), mae

    raw, filtered = measure_filter_scale(config, "datamanagement")
    assert filtered.node_count <= raw.node_count
    assert filtered.edge_count <= raw.edge_count


# --- criterion 9 ---------------------------------------------------------------


def small_train_config(seed=5):
    return gnn.TrainConfig(
        window=3, batch_size=8, dropout=0.0, min_edge_frequency=1,
        max_epochs=2, patience=2, seed=seed,
    )


def test_criterion_09_determinism(tmp_path):
    data = make_dataset(tmp_path / "data", {"alpha": 60, "beta": 48})
    blobs = []
    for attempt in ("first", "second"):
        out = tmp_path / attempt
        config = ExperimentConfig(
            data_dir=data,
            output_dir=out,
            train=small_train_config(),
            embedding_dim=8,
            include_timings=False,
        )
        run_classification(config)
        run_dir = out / "classification-raw"
        run_window_sweep(
            ExperimentConfig(
                data_dir=data, output_dir=out, train=small_train_config(),
                embedding_dim=8, model="tfidf-rf", windows=(2, 4),
                include_timings=False,
            )
        )
        files = [
            run_dir / "report.csv", run_dir / "report.txt",
            run_dir / "stats.csv", run_dir / "stats.txt",
            run_dir / "config.json",
            run_dir / "models" / "alpha.model",
            run_dir / "models" / "beta.model",
            run_dir / "models" / "alpha.baseline",
            out / "sweep-raw" / "sweep.csv",
        ]
        blobs.append({f.name: f.read_bytes() for f in files})
    assert blobs[0] == blobs[1], "rerun with identical config must match byte for byte"


# --- criterion 10 --------------------------------------------------------------


def test_criterion_10_persistence_round_trip(tmp_path, synth_dataset):
    config = ExperimentConfig(
        data_dir=synth_dataset,
        output_dir=tmp_path,
        projects=("alpha",),
        train=small_train_config(),
        embedding_dim=8,
    )
    report = run_classification(config)
    assert report.rows[0].gnn_accuracy is not None
    models = tmp_path / "classification-raw" / "models"
    bundle = load_model(models / "alpha.model")
    baseline = load_baseline_model(models / "alpha.baseline")

    rng = np.random.default_rng(4242)
    vocab_size = bundle.vocabulary.size
    token_pool = bundle.vocabulary.id_to_token[1:]
    docs = []
    for i in range(100):
        length = int(rng.integers(3, 15))
        ids = rng.integers(0, vocab_size, size=length)
        docs.append(
            EncodedDocument(
                doc_id=f"r{i}", token_ids=tuple(int(t) for t in ids),
                raw_story_point=1,
            )
        )
    graphs = [
        build_graph(d, bundle.config.window, bundle.edge_table, label=0)
        for d in docs
    ]
    before = [gnn.predict(bundle.params, g) for g in graphs]

    resaved = tmp_path / "roundtrip.model"
    save_model(resaved, bundle)
    reloaded = load_model(resaved)
    after = [gnn.predict(reloaded.params, g) for g in graphs]
    for (ia, pa), (ib, pb) in zip(before, after):
        assert ia == ib
        assert np.array_equal(pa, pb)

    token_docs = [
        [str(rng.choice(token_pool)) for _ in range(int(rng.integers(3, 12)))]
        for _ in range(100)
    ]
    vectors = tfidf_transform(baseline.tfidf, token_docs)
    base_before = rf_predict_many(baseline.forest, vectors)
    base_path = tmp_path / "roundtrip.baseline"
    save_baseline_model(base_path, baseline)
    base_after = rf_predict_many(load_baseline_model(base_path).forest, vectors)
    assert base_before == base_after
