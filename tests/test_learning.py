"""Criterion 11: both models learn, on a corpus that ships with the repo.

Criteria 3-8 need the published issue corpus and skip without it, and
criteria 1, 2, 9 and 10 check gradients, graphs, determinism and
persistence, none of which fails for a model that never learns. So both
models train here, in raw text mode, on one project written by the
benchmark's generator (perfbench/corpus_gen.py), whose effort levels each
have their own marker words, and each must beat the majority-class
rate by MARGIN_POINTS of test accuracy. That rate is the larger of the
corpus's and the test accuracy of always predicting the training split's
most common level (58.8% and 60.0% on this project). Both models train
again on the same project in verb-noun-filter mode, where the generator's
marker words survive the filter, and must beat that rate by
FILTER_MARGIN_POINTS.

The forest also regresses story points on the project, and its test MAE
must be REGRESSION_MARGIN points below that of always predicting the
training split's median story point. The GNN's regression is not held to
this yet: it beats the median on this corpus but not on every one (5.200
against 5.175 at corpus seed 602).

Both models' reported accuracies must also be the hit rates of their saved
models against each test issue's level, bucketed in this file from the
story point its CSV row holds. A label rule that moved every document to
another level would train and score both models on the moved levels alike,
which the accuracy alone cannot show.

A second forest run reads the same issues with every test issue moved to
another level. A forest that never trained on a test issue still predicts
each one's true level and so scores low on the moved labels; one that saw
them scores them as labelled.

MARGIN_POINTS, FILTER_MARGIN_POINTS, REGRESSION_MARGIN and LEAK_BOUND
were set once, from corpus seeds that played no part in writing this file
(see CHANGES.md); a later failure is fixed in the program, not in them.

The last test records a behaviour of the paper's model rather than a
fault: at the reference configuration the readout softmax(relu(W R + b))
can stall. A training document whose logits are all <= 0 gets no gradient
at all, and on the stalled project below training keeps its first epochs'
parameters with such documents among its training set.
"""

import csv
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from storygraph import gnn
from storygraph.baseline import rf_predict_many, tfidf_transform
from storygraph.corpus import DatasetSplit
from storygraph.experiment import (
    MODE_FILTERED,
    MODE_RAW,
    ExperimentConfig,
    prepare_project,
    run_classification,
    run_regression,
)
from storygraph.graph import build_graphs
from storygraph.model_io import load_baseline_model, load_model

from conftest import load_corpus_gen

CORPUS_SEED = 101
PROJECT = "atlas"
ISSUES = 200
MARGIN_POINTS = 15.0  # percentage points above the majority-class rate
FILTER_MARGIN_POINTS = 30.0  # the same in verb-noun-filter mode
REGRESSION_MARGIN = 1.0  # story points of MAE below the median predictor's
LEAK_BOUND = 25.0  # % of moved test labels an honest forest may match
LEVEL_TOPS = (5, 15, 40)  # highest story point of Small, Medium and Large

# a 250-issue project on which the GNN stalls at the reference configuration
STALL_CORPUS_SEED = 7
STALL_PROJECT = "cygnus"
STALL_ISSUES = 250
EARLY_EPOCH = 3  # the latest kept epoch that still counts as a stall


corpus_gen = load_corpus_gen()


def learning_config(data: Path, out: Path, mode: str = MODE_RAW) -> ExperimentConfig:
    """Small enough for tier-1: 32-d embeddings, w=5, at most 20 epochs."""
    return ExperimentConfig(
        data_dir=data,
        output_dir=out,
        projects=(PROJECT,),
        model="both",
        text_mode=mode,
        train=gnn.TrainConfig(window=5, batch_size=8, learning_rate=0.003,
                              max_epochs=20, patience=5),
        embedding_dim=32,
        save_models=False,
        include_timings=False,
    )


def majority_percent(corpus_rate: float, split: DatasetSplit) -> float:
    """The larger of the corpus's majority-class rate and the test
    accuracy of always predicting the training split's most common level."""
    top = Counter(int(d.level) for d in split.train).most_common(1)[0][0]
    hits = sum(int(d.level) == top for d in split.test)
    return max(100.0 * corpus_rate, 100.0 * hits / len(split.test))


def median_mae(split: DatasetSplit) -> float:
    """The test MAE of always predicting the training split's median story
    point."""
    median = float(np.median([d.raw_story_point for d in split.train]))
    return float(np.mean([abs(d.raw_story_point - median) for d in split.test]))


def move_test_levels(config: ExperimentConfig, split: DatasetSplit,
                     moved: Path) -> None:
    """Copy the project to `moved` with every test issue's story point
    taken from the next effort level. The split depends on the issue
    order and the seed, not on the labels, so it stays the same."""
    test = {d.doc_id: int(d.level) for d in split.test}
    source = Path(config.data_dir) / f"{PROJECT}.csv"
    with open(source, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    for row in rows:
        if row["issuekey"] in test:
            level = (test[row["issuekey"]] + 1) % len(corpus_gen.LEVEL_POINTS)
            row["storypoint"] = str(corpus_gen.LEVEL_POINTS[level][0])
    moved.mkdir()
    with open(moved / source.name, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def learning_run(root: Path, seed: int):
    """(majority %, result of both models, forest result on moved labels,
    result of both models in verb-noun-filter mode, `root`); the first run
    saves its models."""
    config = learning_config(root / "data", root / "out")
    summary = corpus_gen.write_corpus(config.data_dir, {PROJECT: ISSUES}, seed=seed)
    split = prepare_project(config, PROJECT).split
    majority = majority_percent(summary["majority_class_rate"], split)
    learned = run_classification(replace(config, save_models=True)).rows[0]
    move_test_levels(config, split, root / "moved")
    leak = run_classification(
        replace(config, data_dir=root / "moved", model="tfidf-rf")).rows[0]
    filtered = run_classification(
        learning_config(config.data_dir, root / "filtered", MODE_FILTERED)).rows[0]
    return majority, learned, leak, filtered, root


@pytest.fixture(scope="module")
def learned(tmp_path_factory):
    return learning_run(tmp_path_factory.mktemp("learning"), CORPUS_SEED)


def test_criterion_11_gnn_beats_the_majority_class(learned):
    majority, result, *_ = learned
    assert result.test_size >= 30
    assert result.gnn_accuracy >= majority + MARGIN_POINTS, (
        f"GNN {result.gnn_accuracy:.2f}% against a {majority:.2f}% majority class")


def test_criterion_11_forest_beats_the_majority_class(learned):
    majority, result, *_ = learned
    assert result.baseline_accuracy >= majority + MARGIN_POINTS, (
        f"forest {result.baseline_accuracy:.2f}% against a {majority:.2f}% "
        f"majority class")


def test_criterion_11_forest_regression_beats_the_training_median(tmp_path):
    config = replace(learning_config(tmp_path / "data", tmp_path / "out"), model="tfidf-rf")
    corpus_gen.write_corpus(config.data_dir, {PROJECT: ISSUES}, seed=CORPUS_SEED)
    median = median_mae(prepare_project(config, PROJECT).split)
    forest = run_regression(config).rows[0].baseline_mae
    assert forest <= median - REGRESSION_MARGIN, (
        f"forest MAE {forest:.3f} against {median:.3f} for the training median")


def test_criterion_11_forest_never_trains_on_a_test_issue(learned):
    _, result, leak, *_ = learned
    assert leak.split_hash == result.split_hash
    assert leak.baseline_accuracy <= LEAK_BOUND, (
        f"forest matched {leak.baseline_accuracy:.2f}% of the moved test labels")


def test_criterion_11_both_models_beat_the_majority_class_after_the_filter(learned):
    # the filter drops no document of this project, so the split and the
    # majority-class rate are the raw run's
    majority, raw, _, result, _ = learned
    assert result.split_hash == raw.split_hash
    for name, accuracy in (("GNN", result.gnn_accuracy),
                           ("forest", result.baseline_accuracy)):
        assert accuracy >= majority + FILTER_MARGIN_POINTS, (
            f"{name} {accuracy:.2f}% in {MODE_FILTERED} mode against a "
            f"{majority:.2f}% majority class")


def test_criterion_11_accuracies_are_hit_rates_on_the_csv_levels(learned):
    _, result, *_, root = learned
    config = learning_config(root / "data", root / "out")
    models = config.output_dir / "classification-raw" / "models"
    with open(config.data_dir / f"{PROJECT}.csv", newline="", encoding="utf-8") as handle:
        points = {row["issuekey"]: row["storypoint"] for row in csv.DictReader(handle)}
    test = prepare_project(config, PROJECT).split.test
    levels = [sum(int(points[d.doc_id]) > top for top in LEVEL_TOPS) for d in test]

    bundle = load_model(models / f"{PROJECT}.model")
    encoded = bundle.vocabulary.encode_all(test)
    graphs = build_graphs(encoded, bundle.config.window, bundle.edge_table,
                          labels=[0] * len(encoded))
    gnn_predictions = [gnn.predict(bundle.params, g, rounds=bundle.config.rounds)[0]
                       for g in graphs]
    forest = load_baseline_model(models / f"{PROJECT}.baseline")
    forest_predictions = rf_predict_many(
        forest.forest, tfidf_transform(forest.tfidf, [d.tokens for d in test]))

    for name, predictions, accuracy in (
            ("GNN", gnn_predictions, result.gnn_accuracy),
            ("forest", forest_predictions, result.baseline_accuracy)):
        hits = sum(p == level for p, level in zip(predictions, levels))
        assert accuracy == 100.0 * hits / len(test), (
            f"{name} reported {accuracy:.2f}%, its saved model hits "
            f"{hits} of {len(test)} CSV levels")


def test_gnn_readout_stalls_at_the_reference_configuration(tmp_path, monkeypatch):
    corpus_gen.write_corpus(tmp_path / "data", {STALL_PROJECT: STALL_ISSUES},
                            seed=STALL_CORPUS_SEED)
    runs = []
    real_train = gnn.train

    def recording_train(initial, train_graphs, val_graphs, config):
        result = real_train(initial, train_graphs, val_graphs, config)
        runs.append((train_graphs, config, result))
        return result

    monkeypatch.setattr(gnn, "train", recording_train)
    # every setting but the project, the model and the outputs is a default
    config = ExperimentConfig(data_dir=tmp_path / "data", output_dir=tmp_path / "out",
                              projects=(STALL_PROJECT,), model="gnn",
                              save_models=False, include_timings=False)
    run_classification(config)
    (graphs, train_config, result), = runs
    assert (train_config.learning_rate, train_config.batch_size) == (1e-3, 32)
    assert result.best_epoch <= EARLY_EPOCH < len(result.epochs)
    dead = np.mean([np.all(gnn.forward(result.params, g).logits <= 0.0)
                    for g in graphs])
    assert dead > 0.0
