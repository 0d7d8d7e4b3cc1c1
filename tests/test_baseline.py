"""Vectorizer and forest: frozen idf values, split-finding oracles, and
hand-built tree checks."""

import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storygraph import baseline
from storygraph.baseline import (
    Forest,
    RandomForestConfig,
    TfidfMatrix,
    Tree,
    iter_ngrams,
    rf_fit,
    rf_predict_many,
    tfidf_fit,
    tfidf_transform,
)
from storygraph.errors import DegenerateDataError, EmptyCorpusError

import forest_oracle
from conftest import tree_arrays


def from_rows(rows, n_features):
    """TfidfMatrix whose rows are the given (indices, values) pairs."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(idx) for idx, _ in rows], out=indptr[1:])
    indices = [np.zeros(0, dtype=np.int64)] + [np.asarray(i, np.int64) for i, _ in rows]
    values = [np.zeros(0)] + [np.asarray(v, np.float64) for _, v in rows]
    return TfidfMatrix(indptr, np.concatenate(indices), np.concatenate(values), n_features)


def dense(rows, dim):
    """TfidfMatrix of the nonzeros of plain lists, one per row, for readable
    fixtures."""
    arr = np.asarray(rows, dtype=np.float64).reshape(-1, dim)
    return from_rows([(np.flatnonzero(r), r[np.flatnonzero(r)]) for r in arr], dim)


def take(matrix, rows):
    """The matrix of the given rows of `matrix`, in the order given."""
    ptr = matrix.indptr
    return from_rows(
        [(matrix.indices[ptr[r] : ptr[r + 1]], matrix.values[ptr[r] : ptr[r + 1]])
         for r in rows],
        matrix.n_features,
    )


# --- n-grams and tf-idf -------------------------------------------------------


def test_iter_ngrams_enumerates_all_orders():
    grams = list(iter_ngrams(["a", "b", "c"], max_n=4))
    assert grams == ["a", "b", "c", "a b", "b c", "a b c"]


def test_iter_ngrams_short_input():
    assert list(iter_ngrams(["x"], max_n=4)) == ["x"]
    assert list(iter_ngrams([], max_n=4)) == []


def test_idf_frozen_values():
    # Two docs: "a" appears in both, "b" and "c" in one each.
    # idf(a) = ln(3/3) + 1 = 1.0; idf(b) = ln(3/2) + 1
    model = tfidf_fit([["a", "b"], ["a", "c"]], max_ngram=1)
    assert model.vocabulary == {"a": 0, "b": 1, "c": 2}
    assert model.idf[0] == pytest.approx(1.0, abs=0)
    assert model.idf[1] == pytest.approx(1.4054651081081644, abs=1e-15)
    assert model.idf[2] == pytest.approx(1.4054651081081644, abs=1e-15)


def test_idf_single_document_is_one_everywhere():
    model = tfidf_fit([["x", "y", "x"]], max_ngram=2)
    assert np.all(model.idf == 1.0)


def test_fit_columns_in_sorted_gram_order():
    model = tfidf_fit([["b", "a"], ["c"]], max_ngram=2)
    cols = sorted(model.vocabulary, key=model.vocabulary.get)
    assert cols == sorted(model.vocabulary)


def test_fit_counts_document_frequency_not_term_frequency():
    # "a" twice in one doc still counts df=1
    model = tfidf_fit([["a", "a"], ["b"]], max_ngram=1)
    assert model.idf[model.vocabulary["a"]] == pytest.approx(
        math.log(3 / 2) + 1
    )


def test_fit_rejects_empty_corpus():
    with pytest.raises(EmptyCorpusError):
        tfidf_fit([])
    with pytest.raises(EmptyCorpusError):
        tfidf_fit([[], []])


def test_transform_is_unit_norm():
    model = tfidf_fit([["a", "b"], ["a", "c"]], max_ngram=1)
    vec = tfidf_transform(model, [["a", "b", "b"]])
    assert np.sqrt(np.sum(vec.values**2)) == pytest.approx(1.0)
    assert vec.n_features == 3
    # b counted twice, both share the doc's normalizer; c is absent
    assert vec.indices.tolist() == [0, 1]
    a, b = vec.values
    assert b > a > 0


def test_transform_unseen_grams_ignored():
    model = tfidf_fit([["a", "b"]], max_ngram=1)
    vec = tfidf_transform(model, [["a", "zzz"]])
    assert vec.indices.tolist() == [model.vocabulary["a"]]
    assert np.sqrt(np.sum(vec.values**2)) == pytest.approx(1.0)


def test_transform_empty_for_unknown_document():
    model = tfidf_fit([["a", "b"]], max_ngram=1)
    vec = tfidf_transform(model, [["a"], ["zzz"], ["b"]])
    assert len(vec) == 3
    assert vec.indptr.tolist() == [0, 1, 1, 2]
    assert vec.n_features == model.n_features
    assert len(tfidf_transform(model, [])) == 0


def test_transform_values_equal_per_document_formula():
    rng = np.random.default_rng(3)
    docs = [[str(w) for w in rng.choice(list("abcdefg"), size=int(rng.integers(0, 12)))]
            for _ in range(40)]
    model = tfidf_fit([d for d in docs[:30] if d])
    matrix = tfidf_transform(model, docs)
    for r, tokens in enumerate(docs):
        grams = (model.vocabulary.get(g) for g in iter_ngrams(tokens))
        counts = Counter(col for col in grams if col is not None)
        cols = np.array(sorted(counts), dtype=np.int64)
        v = np.array([counts[c] for c in cols], dtype=np.float64) * model.idf[cols]
        if v.size:
            v = v / np.sqrt(np.sum(v**2))
        s, e = matrix.indptr[r], matrix.indptr[r + 1]
        assert np.array_equal(matrix.indices[s:e], cols)
        assert np.array_equal(matrix.values[s:e], v)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6),
        min_size=1,
        max_size=8,
    ),
    st.lists(st.sampled_from("abcdefgh"), max_size=6),
)
def test_transform_norm_is_zero_or_one(corpus, query):
    model = tfidf_fit(corpus)
    n = np.sqrt(np.sum(tfidf_transform(model, [query]).values ** 2))
    assert n == 0.0 or abs(n - 1.0) < 1e-9


@pytest.mark.parametrize("indptr, indices, n_values, message", [
    pytest.param([0, 2], [2, 1], 2, "strictly increasing", id="decreasing-index"),
    pytest.param([0, 2], [1, 1], 2, "strictly increasing", id="repeated-index"),
    pytest.param([0, 1, 3], [0, 2, 2], 3, "strictly increasing", id="second-row"),
    pytest.param([0, 1], [0], 2, "differ in length", id="values-longer"),
    pytest.param([0, 3], [0, 1], 2, "differ in length", id="pointer-past-end"),
    pytest.param([1, 2], [0], 1, "start at 0", id="pointer-not-at-0"),
    pytest.param([], [], 0, "start at 0", id="no-pointers"),
    pytest.param([0, 2, 1, 2], [0, 1], 2, "never decrease", id="pointer-decreases"),
    pytest.param([0, 2], [0, 3], 2, r"lie in \[0, 3\)", id="index-too-large"),
    pytest.param([0, 2], [-1, 0], 2, r"lie in \[0, 3\)", id="negative-index"),
])
def test_matrix_validation(indptr, indices, n_values, message):
    with pytest.raises(ValueError, match=message):
        TfidfMatrix(
            np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64),
            np.ones(n_values), 3,
        )


def test_matrix_rows_may_restart_their_indices():
    matrix = TfidfMatrix(
        np.array([0, 2, 2, 3], dtype=np.int64), np.array([1, 2, 0], dtype=np.int64),
        np.ones(3), 3,
    )
    assert len(matrix) == 3


# --- forest: hand-built trees -------------------------------------------------


def stump(feature, threshold, left_value, right_value):
    """Root split over two leaves, as the flat preorder arrays of a Tree; a
    leaf's value is its class when classifying."""
    return dict(
        feature=np.array([feature, -1, -1], dtype=np.int64),
        threshold=np.array([threshold, 0.0, 0.0]),
        right=np.array([2, -1, -1], dtype=np.int64),
        value=np.array([0.0, left_value, right_value], dtype=np.float64),
    )


def forest_of(arrays, n_features, n_classes=0):
    trees = [Tree(**a) for a in arrays]
    config = RandomForestConfig(n_trees=len(trees))
    return Forest(trees=trees, config=config, n_features=n_features, n_classes=n_classes)


def test_predict_majority_vote():
    trees = [
        stump(0, 0.5, 1, 1),
        stump(0, 0.5, 1, 1),
        stump(0, 0.5, 2, 2),
    ]
    f = forest_of(trees, n_features=2, n_classes=3)
    assert rf_predict_many(f, dense([0.0, 0.0], 2)) == [1]


def test_predict_vote_tie_breaks_to_lowest_class():
    trees = [stump(0, 0.5, 2, 2), stump(0, 0.5, 0, 0)]
    f = forest_of(trees, n_features=2, n_classes=3)
    assert rf_predict_many(f, dense([1.0, 0.0], 2)) == [0]


def test_predict_regression_averages_leaf_means():
    trees = [stump(0, 0.5, 2.0, 2.0), stump(0, 0.5, 4.0, 4.0)]
    f = forest_of(trees, n_features=1)
    assert f.task == "regress"  # a forest without classes regresses
    assert rf_predict_many(f, dense([0.2], 1)) == [pytest.approx(3.0)]


def test_descend_goes_left_on_equality():
    # x <= threshold routes left
    tree = stump(0, 0.5, 7, 9)
    f = forest_of([tree], n_features=1, n_classes=10)
    assert rf_predict_many(f, dense([0.5], 1)) == [7]
    assert rf_predict_many(f, dense([0.50001], 1)) == [9]


def test_predict_refuses_rows_of_another_feature_space():
    xs, ys = separable_xy()
    f = rf_fit(xs, ys, RandomForestConfig(n_trees=3, seed=0))
    model = tfidf_fit([["a", "b", "c"]], max_ngram=2)
    wide = tfidf_transform(model, [["a", "b"]])
    assert (f.n_features, wide.n_features) == (4, 5)
    with pytest.raises(ValueError, match="rows have 5 features, the forest 4"):
        rf_predict_many(f, wide)
    with pytest.raises(ValueError, match="rows have 3 features, the forest 4"):
        rf_predict_many(f, dense([1.0, 0.0, 0.0], 3))


# --- forest: fitting ------------------------------------------------------------


def separable_xy(n_per_class=10, seed=0):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for label in (0, 1):
        for _ in range(n_per_class):
            base = np.zeros(4)
            base[label * 2] = 1.0 + rng.random()
            base[label * 2 + 1] = rng.random()
            xs.append(base)
            ys.append(label)
    return dense(xs, 4), ys


def test_fit_separates_toy_classes():
    xs, ys = separable_xy()
    f = rf_fit(xs, ys, RandomForestConfig(n_trees=15, seed=0), task="classify")
    assert rf_predict_many(f, xs) == ys


def test_fit_regression_memorizes_toy_targets():
    xs, _ = separable_xy()
    ys = [float(3 + 5 * (i >= 10)) for i in range(len(xs))]
    f = rf_fit(xs, ys, RandomForestConfig(n_trees=15, seed=1), task="regress")
    preds = rf_predict_many(f, xs)
    assert all(abs(p - y) < 1.0 for p, y in zip(preds, ys))


def test_fit_constant_labels_yield_constant_prediction():
    xs, _ = separable_xy(n_per_class=3)
    f = rf_fit(xs, [2] * len(xs), RandomForestConfig(n_trees=5, seed=0),
               task="classify")
    assert set(rf_predict_many(f, xs)) == {2}
    g = rf_fit(xs, [8] * len(xs), RandomForestConfig(n_trees=5, seed=0),
               task="regress")
    assert all(p == pytest.approx(8) for p in rf_predict_many(g, xs))


def test_fit_is_deterministic():
    xs, ys = separable_xy(seed=4)
    cfg = RandomForestConfig(n_trees=8, seed=11)
    a = rf_fit(xs, ys, cfg, task="classify")
    b = rf_fit(xs, ys, cfg, task="classify")

    for ta, tb in zip(a.trees, b.trees):
        assert np.array_equal(ta.feature, tb.feature)
        assert np.array_equal(ta.threshold, tb.threshold)


def test_fit_seed_changes_bootstrap():
    xs, ys = separable_xy(seed=4)
    a = rf_fit(xs, ys, RandomForestConfig(n_trees=4, seed=1), task="classify")
    b = rf_fit(xs, ys, RandomForestConfig(n_trees=4, seed=2), task="classify")
    # each tree grows on its own bootstrap sample, so its splits differ
    assert any(not (np.array_equal(ta.feature, tb.feature)
                    and np.array_equal(ta.threshold, tb.threshold))
               for ta, tb in zip(a.trees, b.trees))


def test_fit_rejects_degenerate_input():
    xs, ys = separable_xy(n_per_class=1)
    with pytest.raises(DegenerateDataError):
        rf_fit(take(xs, [0]), ys[:1], RandomForestConfig(), task="classify")
    with pytest.raises(ValueError):
        rf_fit(xs, ys[:1], RandomForestConfig(), task="classify")
    with pytest.raises(ValueError):
        rf_fit(xs, [-1, 0], RandomForestConfig(), task="classify")
    with pytest.raises(ValueError):
        rf_fit(xs, ys, RandomForestConfig(), task="cluster")


def test_min_leaf_limits_tree_growth():
    xs, ys = separable_xy(n_per_class=8)
    cfg = RandomForestConfig(n_trees=3, seed=0, min_leaf=len(xs),
                             bootstrap=False)
    f = rf_fit(xs, ys, cfg, task="classify")
    for t in f.trees:
        assert t.feature.tolist() == [-1]  # cannot split without starving a side


def test_max_depth_zero_is_a_single_leaf():
    xs, ys = separable_xy(n_per_class=4)
    cfg = RandomForestConfig(n_trees=2, max_depth=0, seed=0)
    f = rf_fit(xs, ys, cfg, task="classify")
    for t in f.trees:
        assert t.feature.tolist() == [-1]


def test_a_leaf_of_tied_classes_holds_the_lowest():
    # no feature tells the rows apart, so the root is the only leaf; it
    # holds two rows each of classes 1 and 2, and votes for class 1
    xs = dense([[0.5, 0.0]] * 4, 2)
    config = RandomForestConfig(n_trees=1, bootstrap=False, max_features="all")
    forest = rf_fit(xs, [2, 1, 2, 1], config, task="classify")
    (tree,) = forest.trees
    assert tree.feature.tolist() == [-1]
    assert tree.value.tolist() == [1.0]
    assert rf_predict_many(forest, xs) == [1] * 4


# --- split finding vs brute force ----------------------------------------------


def brute_force_best_split(X, y, min_leaf=1):
    """Exhaustive search over every feature and midpoint, written with the
    same arithmetic as the production scan so results compare exactly."""
    m, n_features = X.shape
    n_classes = int(np.max(y)) + 1
    best = (np.inf, -1, 0.0)
    for j in range(n_features):
        xs = np.sort(np.unique(X[:, j]))
        for lo, hi in zip(xs[:-1], xs[1:]):
            threshold = (lo + hi) / 2.0
            left = X[:, j] <= threshold
            nl, nr = int(np.sum(left)), int(np.sum(~left))
            if nl < min_leaf or nr < min_leaf:
                continue
            cl = np.bincount(y[left], minlength=n_classes).astype(np.float64)
            cr = np.bincount(y[~left], minlength=n_classes).astype(np.float64)
            gl = 1.0 - np.sum((cl / nl) ** 2)
            gr = 1.0 - np.sum((cr / nr) ** 2)
            score = (nl * gl + nr * gr) / m
            if score < best[0]:
                best = (score, j, threshold)
    return best


def fit_single_full_tree(X, y):
    xs = dense(X, X.shape[1])
    cfg = RandomForestConfig(
        n_trees=1, bootstrap=False, max_features="all", seed=0
    )
    return rf_fit(xs, list(y), cfg, task="classify")


def collect_splits(tree):
    """(feature, threshold) of every internal node, in preorder."""
    return [(int(f), float(t)) for f, t in zip(tree.feature, tree.threshold) if f >= 0]


def test_root_split_matches_brute_force_exactly():
    rng = np.random.default_rng(17)
    for _ in range(40):
        m = int(rng.integers(2, 9))
        n_features = int(rng.integers(1, 4))
        X = rng.integers(0, 4, size=(m, n_features)).astype(np.float64)
        y = rng.integers(0, 3, size=m)
        if len(np.unique(y)) < 2:
            continue
        score, feature, threshold = brute_force_best_split(X, y)
        f = fit_single_full_tree(X, y)
        tree = f.trees[0]
        if score == np.inf or not np.isfinite(score):
            continue
        if tree.feature[0] < 0:
            # production found no impurity-reducing split; brute force must
            # agree that no split with finite score beats a pure leaf
            assert len(np.unique(y)) == 1 or score == np.inf
            continue
        assert tree.feature[0] == feature
        assert tree.threshold[0] == threshold


def test_split_tie_breaks_to_lowest_feature_then_threshold():
    # duplicated columns: identical scores, must pick feature 0
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 0, 1])
    f = fit_single_full_tree(X, y)
    assert f.trees[0].feature[0] == 0
    assert f.trees[0].threshold[0] == 0.5


def test_full_tree_purifies_training_data():
    rng = np.random.default_rng(23)
    X = rng.random((12, 3))
    y = rng.integers(0, 2, size=12)
    f = fit_single_full_tree(X, y.astype(int))
    assert rf_predict_many(f, dense(X, 3)) == y.tolist()


def test_fit_invariant_to_duplicating_a_useless_sample_order():
    # shuffling inputs must not change the learned stumps when unbagged
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    f1 = fit_single_full_tree(X, y)
    order = [3, 0, 2, 1]
    f2 = fit_single_full_tree(X[order], y[order])
    assert collect_splits(f1.trees[0]) == collect_splits(f2.trees[0])


# --- forest: vectorised grower and predictor vs the frozen oracle --------------


N_FEATURES = 50


def sparse_rows(seed, n=36):
    """(indices, values) rows whose values tie often, with repeated and
    empty rows; a repeated row is the same object."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        if i > 4 and rng.random() < 0.2:
            rows.append(rows[int(rng.integers(0, i))])
            continue
        nnz = int(rng.integers(0, 10))
        idx = np.sort(rng.choice(N_FEATURES, size=nnz, replace=False))
        if rng.random() < 0.5:
            vals = rng.choice([0.125, 0.25, 0.5, 0.75], size=nnz)
        else:
            vals = rng.random(nnz) + 0.01
        rows.append((idx, vals))
    return rows, rng


def sparse_corpus(seed):
    """sparse_rows as a TfidfMatrix."""
    rows, rng = sparse_rows(seed)
    return from_rows(rows, N_FEATURES), rng


def sparse_labels(task, rng, n):
    if task == "classify":
        return rng.integers(0, 4, size=n).tolist()
    # story points with ties, plus whole numbers of more variety
    points = rng.choice([1.0, 2.0, 3.0, 5.0, 8.0], size=n)
    return np.where(rng.random(n) < 0.5, points, np.ceil(rng.random(n) * 13)).tolist()


GRID = list(itertools.product((True, False), (1, 2), (2, None)))


def assert_trees_equal(forest, expected, *context):
    """forest's trees hold the oracle's arrays: the same names, dtypes and
    values; a failure names the array and `context`."""
    assert len(forest.trees) == len(expected)
    for tree, want in zip(forest.trees, expected):
        got = tree_arrays(tree)
        assert list(got) == list(want)
        for name, array in got.items():
            assert array.dtype == want[name].dtype, name
            assert np.array_equal(array, want[name]), (name, *context)


@pytest.mark.parametrize("block_cells, max_features", [
    pytest.param(None, "auto", id="None"),
    pytest.param(40, "auto", id="40"),
    # every feature a candidate, so no node draws a subsample
    pytest.param(None, "all", id="None-all"),
])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("task", ["classify", "regress"])
def test_fit_matches_frozen_oracle(task, seed, block_cells, max_features, monkeypatch):
    # 40 cells holds one candidate per block when classifying and one to a
    # few when regressing, so the cross-block strict-improvement rule
    # decides most nodes
    if block_cells is not None:
        monkeypatch.setattr(baseline, "SPLIT_BLOCK_CELLS", block_cells)
    vectors, rng = sparse_corpus(seed)
    labels = sparse_labels(task, rng, len(vectors))
    for bootstrap, min_leaf, max_depth in GRID:
        config = RandomForestConfig(
            n_trees=3, seed=seed, bootstrap=bootstrap, min_leaf=min_leaf,
            max_depth=max_depth, max_features=max_features,
        )
        forest = rf_fit(vectors, labels, config, task=task)
        expected = forest_oracle.fit_trees(vectors, labels, config, task)
        assert_trees_equal(forest, expected, bootstrap, min_leaf, max_depth)


def signed_corpus(seed):
    """sparse_corpus's rows with some values stored as explicit zeros of
    either sign (+0.0 and -0.0); repeated rows stay equal. rf_fit refuses a
    negative value, so none is negated; the draw that once chose a third of
    them to negate is still made, which keeps every later draw as it was."""
    rows, rng = sparse_rows(seed)
    changed: dict[int, tuple] = {}
    for row in rows:
        if id(row) in changed:
            continue
        idx, vals = row
        rng.random(vals.size)
        values = vals.copy()
        values[rng.random(vals.size) < 0.15] = rng.choice([0.0, -0.0])
        changed[id(row)] = (idx, values)
    return from_rows([changed[id(row)] for row in rows], N_FEATURES), rng


def largest_exact_target(n):
    """The largest whole max|y| that n regression targets may reach:
    n * max**2 is the largest such value below 2**53."""
    return math.isqrt((2**53 - 1) // n)


def targets_at_the_bound(rng, n):
    """Signed whole numbers with ties whose max|y| is largest_exact_target."""
    top = largest_exact_target(n)
    ties = rng.choice([-top, -top // 3, -1, 0, 2, top // 2, top], size=n)
    y = np.where(rng.random(n) < 0.5, ties, rng.integers(-top, top + 1, size=n))
    y[rng.integers(n)] = -top
    return y.astype(np.float64).tolist()


SIGNED_TARGETS = {
    # whole story points, as every CLI regression passes: sums exact in
    # any order, so the zero block is the node total less the nonzeros
    "story points": ("regress", lambda rng, n: rng.choice(
        [1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 20.0, 40.0, 100.0], size=n).tolist()),
    "classes": ("classify", lambda rng, n: rng.integers(0, 4, size=n).tolist()),
    # the largest targets whose sums and sums of squares stay exact
    "whole numbers at the bound": ("regress", targets_at_the_bound),
}


@pytest.mark.parametrize("block_cells", [None, 40])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("targets", sorted(SIGNED_TARGETS))
def test_fit_on_signed_values_matches_frozen_oracle(targets, seed, block_cells, monkeypatch):
    if block_cells is not None:
        monkeypatch.setattr(baseline, "SPLIT_BLOCK_CELLS", block_cells)
    task, draw = SIGNED_TARGETS[targets]
    vectors, rng = signed_corpus(seed)
    labels = draw(rng, len(vectors))
    assert baseline._split_stats(labels, task)[0].dtype == np.int64
    for bootstrap, min_leaf, max_depth in GRID:
        config = RandomForestConfig(
            n_trees=3, seed=seed, bootstrap=bootstrap, min_leaf=min_leaf,
            max_depth=max_depth,
        )
        forest = rf_fit(vectors, labels, config, task=task)
        expected = forest_oracle.fit_trees(vectors, labels, config, task)
        assert_trees_equal(forest, expected, bootstrap, min_leaf, max_depth)


# tied values, and zeros of either sign for rows to store explicitly
SMALL_VALUES = [0.0, -0.0, 0.125, 0.25, 0.5, 1.0]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fit_on_small_random_matrices_matches_frozen_oracle(data):
    # every cut rule case on few rows: zero blocks present or not, ties at
    # every position, and stored zeros the column store must drop
    n = data.draw(st.integers(2, 10), label="rows")
    width = data.draw(st.integers(1, 4), label="features")
    cells = st.lists(st.sampled_from(SMALL_VALUES), min_size=width, max_size=width)
    stored = st.lists(st.booleans(), min_size=width, max_size=width)
    rows = []
    for row, keep in data.draw(st.lists(st.tuples(cells, stored), min_size=n, max_size=n)):
        idx = [j for j in range(width) if row[j] != 0 or keep[j]]
        rows.append((idx, [row[j] for j in idx]))
    task = data.draw(st.sampled_from(["classify", "regress"]), label="task")
    points = [0, 1, 2] if task == "classify" else [1.0, 2.0, 3.0, 5.0, 8.0]
    labels = data.draw(st.lists(st.sampled_from(points), min_size=n, max_size=n))
    config = RandomForestConfig(
        n_trees=2, max_features="all", bootstrap=data.draw(st.booleans(), label="bootstrap"),
        seed=data.draw(st.integers(0, 2**16), label="seed"),
    )
    vectors = from_rows(rows, width)
    forest = rf_fit(vectors, labels, config, task=task)
    assert_trees_equal(forest, forest_oracle.fit_trees(vectors, labels, config, task))


N_TARGETS = 36
TOP = largest_exact_target(N_TARGETS)
PAST = f"got n={N_TARGETS}, max|y|={float(TOP + 1)!r}"


@pytest.mark.parametrize("task, bad, refusal", [
    ("regress", 2.5, "whole numbers with n * max|y|**2 < 2**53"),
    ("regress", np.nan, "max|y|=nan"),
    ("regress", np.inf, "max|y|=inf"),
    ("regress", -np.inf, "max|y|=inf"),
    ("regress", TOP + 1, PAST),
    ("regress", -TOP - 1, PAST),
    ("regress", TOP, None),
    ("regress", -TOP, None),
    ("classify", 1.7, "got 1.7"),
    ("classify", -1, "got -1.0"),
    ("classify", np.nan, "got nan"),
], ids=["fraction", "nan", "inf", "-inf", "past-bound", "past-minus-bound",
        "at-bound", "at-minus-bound", "class-fraction", "class-negative", "class-nan"])
def test_fit_refuses_targets_it_cannot_sum_exactly(task, bad, refusal):
    vectors, rng = sparse_corpus(0)
    labels = sparse_labels(task, rng, N_TARGETS)
    labels[7] = bad
    config = RandomForestConfig(n_trees=2, seed=0)
    if refusal is not None:
        with pytest.raises(ValueError, match=re.escape(refusal)):
            rf_fit(vectors, labels, config, task=task)
        return
    forest = rf_fit(vectors, labels, config, task=task)
    assert_trees_equal(forest, forest_oracle.fit_trees(vectors, labels, config, task))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5])
def test_fit_rejects_non_finite_feature_values(bad):
    # the forest reads finite, non-negative weights, as tfidf_transform writes
    rows = dense([[1.0, 0.0], [0.0, 2.0], [bad, 1.0], [0.5, 0.5]], 2)
    what = "non-finite" if not np.isfinite(bad) else "negative"
    with pytest.raises(ValueError, match=f"feature vector 2 has a {what} value"):
        rf_fit(rows, [0, 1, 0, 1], RandomForestConfig(n_trees=1), task="classify")


@pytest.mark.parametrize("task", ["classify", "regress"])
def test_predict_many_matches_per_row_walk(task):
    rows, rng = sparse_rows(5)
    labels = sparse_labels(task, rng, len(rows))
    forest = rf_fit(
        from_rows(rows, N_FEATURES), labels, RandomForestConfig(n_trees=7, seed=3),
        task=task,
    )
    empty = (np.zeros(0, dtype=np.int64), np.zeros(0))
    queries = from_rows(rows + [empty] + sparse_rows(6)[0], N_FEATURES)
    many = rf_predict_many(forest, queries)
    n = len(queries)
    assert many == [rf_predict_many(forest, take(queries, [r]))[0] for r in range(n)]
    assert many == [forest_oracle.predict_one(forest, queries, r) for r in range(n)]
    assert rf_predict_many(forest, from_rows([], N_FEATURES)) == []
    assert rf_predict_many(forest, from_rows([empty], N_FEATURES)) == [many[len(rows)]]
