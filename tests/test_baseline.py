"""Vectorizer and forest: frozen idf values, split-finding oracles, and
hand-built tree checks."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storygraph import baseline
from storygraph.baseline import (
    Forest,
    RandomForestConfig,
    SparseVector,
    Tree,
    iter_ngrams,
    rf_fit,
    rf_predict,
    rf_predict_many,
    tfidf_fit,
    tfidf_transform,
)
from storygraph.errors import DegenerateDataError, EmptyCorpusError

import forest_oracle

TREE_FIELDS = ("feature", "threshold", "left", "right", "value", "histogram")


def dense(x, dim):
    """SparseVector from a plain list, for readable fixtures."""
    arr = np.asarray(x, dtype=np.float64)
    nz = np.nonzero(arr)[0]
    return SparseVector(indices=nz.astype(np.int64), values=arr[nz], dim=dim)


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
    assert model.document_count == 2
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
    vec = tfidf_transform(model, ["a", "b", "b"])
    assert vec.norm() == pytest.approx(1.0)
    assert vec.dim == 3
    # b counted twice, both share the doc's normalizer
    a, b = vec.value_at(0), vec.value_at(1)
    assert b > a > 0
    assert vec.value_at(2) == 0.0


def test_transform_unseen_grams_ignored():
    model = tfidf_fit([["a", "b"]], max_ngram=1)
    vec = tfidf_transform(model, ["a", "zzz"])
    assert vec.indices.tolist() == [model.vocabulary["a"]]
    assert vec.norm() == pytest.approx(1.0)


def test_transform_empty_for_unknown_document():
    model = tfidf_fit([["a", "b"]], max_ngram=1)
    vec = tfidf_transform(model, ["zzz"])
    assert vec.nnz == 0
    assert vec.norm() == 0.0
    assert vec.dim == model.n_features


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
    n = tfidf_transform(model, query).norm()
    assert n == 0.0 or abs(n - 1.0) < 1e-9


def test_sparse_vector_validation():
    with pytest.raises(ValueError):
        SparseVector(
            indices=np.array([2, 1], dtype=np.int64),
            values=np.array([1.0, 1.0]),
            dim=3,
        )
    with pytest.raises(ValueError):
        SparseVector(
            indices=np.array([0], dtype=np.int64),
            values=np.array([1.0, 2.0]),
            dim=3,
        )


# --- forest: hand-built trees -------------------------------------------------


def leaf(value, n_classes=None):
    """A leaf's (value, histogram row): a one-hot count of class `value`
    when classifying, no columns when regressing."""
    if n_classes is None:
        return value, np.zeros(0)
    hist = np.zeros(n_classes)
    hist[int(value)] = 1.0
    return 0.0, hist


def stump(feature, threshold, left_value, right_value, n_classes=None):
    """Root split over two leaves, as the flat preorder arrays of a Tree."""
    (lv, lh), (rv, rh) = leaf(left_value, n_classes), leaf(right_value, n_classes)
    return dict(
        feature=np.array([feature, -1, -1], dtype=np.int64),
        threshold=np.array([threshold, 0.0, 0.0]),
        left=np.array([1, -1, -1], dtype=np.int64),
        right=np.array([2, -1, -1], dtype=np.int64),
        value=np.array([0.0, lv, rv]),
        histogram=np.stack([np.zeros_like(lh), lh, rh]),
    )


def forest_of(arrays, task, n_features, n_classes=0):
    trees = [Tree(**a, bootstrap_seed=i) for i, a in enumerate(arrays)]
    config = RandomForestConfig(n_trees=len(trees))
    return Forest(
        trees=trees,
        config=config,
        task=task,
        n_features=n_features,
        n_classes=n_classes,
    )


def test_predict_majority_vote():
    trees = [
        stump(0, 0.5, 1, 1, n_classes=3),
        stump(0, 0.5, 1, 1, n_classes=3),
        stump(0, 0.5, 2, 2, n_classes=3),
    ]
    f = forest_of(trees, "classify", n_features=2, n_classes=3)
    assert rf_predict(f, dense([0.0, 0.0], 2)) == 1


def test_predict_vote_tie_breaks_to_lowest_class():
    trees = [stump(0, 0.5, 2, 2, n_classes=3), stump(0, 0.5, 0, 0, n_classes=3)]
    f = forest_of(trees, "classify", n_features=2, n_classes=3)
    assert rf_predict(f, dense([1.0, 0.0], 2)) == 0


def test_predict_regression_averages_leaf_means():
    trees = [stump(0, 0.5, 2.0, 2.0), stump(0, 0.5, 4.0, 4.0)]
    f = forest_of(trees, "regress", n_features=1)
    assert rf_predict(f, dense([0.2], 1)) == pytest.approx(3.0)


def test_descend_goes_left_on_equality():
    # x <= threshold routes left
    tree = stump(0, 0.5, 7, 9, n_classes=10)
    f = forest_of([tree], "classify", n_features=1, n_classes=10)
    assert rf_predict(f, dense([0.5], 1)) == 7
    assert rf_predict(f, dense([0.50001], 1)) == 9


# --- forest: fitting ------------------------------------------------------------


def separable_xy(n_per_class=10, seed=0):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for label in (0, 1):
        for _ in range(n_per_class):
            base = np.zeros(4)
            base[label * 2] = 1.0 + rng.random()
            base[label * 2 + 1] = rng.random()
            xs.append(dense(base, 4))
            ys.append(label)
    return xs, ys


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
    g = rf_fit(xs, [7.5] * len(xs), RandomForestConfig(n_trees=5, seed=0),
               task="regress")
    assert all(p == pytest.approx(7.5) for p in rf_predict_many(g, xs))


def test_fit_is_deterministic():
    xs, ys = separable_xy(seed=4)
    cfg = RandomForestConfig(n_trees=8, seed=11)
    a = rf_fit(xs, ys, cfg, task="classify")
    b = rf_fit(xs, ys, cfg, task="classify")

    for ta, tb in zip(a.trees, b.trees):
        assert ta.bootstrap_seed == tb.bootstrap_seed
        assert np.array_equal(ta.feature, tb.feature)
        assert np.array_equal(ta.threshold, tb.threshold)


def test_fit_seed_changes_bootstrap():
    xs, ys = separable_xy(seed=4)
    a = rf_fit(xs, ys, RandomForestConfig(n_trees=4, seed=1), task="classify")
    b = rf_fit(xs, ys, RandomForestConfig(n_trees=4, seed=2), task="classify")
    assert [t.bootstrap_seed for t in a.trees] != [t.bootstrap_seed for t in b.trees]


def test_fit_rejects_degenerate_input():
    xs, ys = separable_xy(n_per_class=1)
    with pytest.raises(DegenerateDataError):
        rf_fit(xs[:1], ys[:1], RandomForestConfig(), task="classify")
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
        assert t.left.tolist() == [-1]  # cannot split without starving a side


def test_max_depth_zero_is_a_single_leaf():
    xs, ys = separable_xy(n_per_class=4)
    cfg = RandomForestConfig(n_trees=2, max_depth=0, seed=0)
    f = rf_fit(xs, ys, cfg, task="classify")
    for t in f.trees:
        assert t.left.tolist() == [-1]


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
    xs = [dense(row, X.shape[1]) for row in X]
    cfg = RandomForestConfig(
        n_trees=1, bootstrap=False, max_features="all", seed=0
    )
    return rf_fit(xs, list(y), cfg, task="classify")


def collect_splits(tree):
    """(feature, threshold) of every internal node, in preorder."""
    return [
        (int(f), float(t))
        for f, t, child in zip(tree.feature, tree.threshold, tree.left)
        if child >= 0
    ]


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
        if tree.left[0] < 0:
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
    xs = [dense(row, 3) for row in X]
    assert rf_predict_many(f, xs) == y.tolist()


def test_fit_invariant_to_duplicating_a_useless_sample_order():
    # shuffling inputs must not change the learned stumps when unbagged
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    f1 = fit_single_full_tree(X, y)
    order = [3, 0, 2, 1]
    f2 = fit_single_full_tree(X[order], y[order])
    assert collect_splits(f1.trees[0]) == collect_splits(f2.trees[0])


# --- forest: vectorised grower and predictor vs the frozen oracle --------------


def sparse_corpus(seed, n=36, n_features=50):
    """Sparse rows whose values tie often, with repeated and empty rows."""
    rng = np.random.default_rng(seed)
    vectors = []
    for i in range(n):
        if i > 4 and rng.random() < 0.2:
            vectors.append(vectors[int(rng.integers(0, i))])
            continue
        nnz = int(rng.integers(0, 10))
        idx = np.sort(rng.choice(n_features, size=nnz, replace=False))
        if rng.random() < 0.5:
            vals = rng.choice([0.125, 0.25, 0.5, 0.75], size=nnz)
        else:
            vals = rng.random(nnz) + 0.01
        vectors.append(
            SparseVector(indices=idx.astype(np.int64), values=vals, dim=n_features)
        )
    return vectors, rng


def sparse_labels(task, rng, n):
    if task == "classify":
        return rng.integers(0, 4, size=n).tolist()
    # story points with ties, plus fractions that round differently when
    # summed in another order
    points = rng.choice([1.0, 2.0, 3.0, 5.0, 8.0], size=n)
    return np.where(rng.random(n) < 0.5, points, rng.random(n) * 13).tolist()


GRID = list(itertools.product((True, False), (1, 2), (2, None)))


@pytest.mark.parametrize("block_cells", [None, 40])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("task", ["classify", "regress"])
def test_fit_matches_frozen_oracle(task, seed, block_cells, monkeypatch):
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
            max_depth=max_depth,
        )
        forest = rf_fit(vectors, labels, config, task=task)
        expected = forest_oracle.fit_trees(vectors, labels, config, task)
        assert len(forest.trees) == len(expected)
        for tree, (seed_want, arrays) in zip(forest.trees, expected):
            assert tree.bootstrap_seed == seed_want
            for name in TREE_FIELDS:
                got, want = getattr(tree, name), arrays[name]
                assert got.dtype == want.dtype, name
                assert np.array_equal(got, want), (name, bootstrap, min_leaf, max_depth)


def signed_corpus(seed):
    """sparse_corpus's rows with about a third of the values negated and
    some stored as explicit zeros (+0.0 and -0.0); repeated rows stay equal."""
    vectors, rng = sparse_corpus(seed)
    changed: dict[int, SparseVector] = {}
    for vec in vectors:
        if id(vec) in changed:
            continue
        values = np.where(rng.random(vec.nnz) < 0.35, -vec.values, vec.values)
        values[rng.random(vec.nnz) < 0.15] = rng.choice([0.0, -0.0])
        changed[id(vec)] = SparseVector(indices=vec.indices, values=values, dim=vec.dim)
    return [changed[id(vec)] for vec in vectors], rng


SIGNED_TARGETS = {
    # whole story points, as every CLI regression passes: sums exact in
    # any order, so the zero block is the node total less the nonzeros
    "story points": ("regress", lambda rng, n: rng.choice(
        [1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 20.0, 40.0, 100.0], size=n).tolist(), "i"),
    "classes": ("classify", lambda rng, n: rng.integers(0, 4, size=n).tolist(), "i"),
    # fractions round by summation order, so they take the sequential fold
    "fractions": ("regress", lambda rng, n: (rng.random(n) * 13).tolist(), "f"),
}


@pytest.mark.parametrize("block_cells", [None, 40])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("targets", sorted(SIGNED_TARGETS))
def test_fit_on_signed_values_matches_frozen_oracle(targets, seed, block_cells, monkeypatch):
    if block_cells is not None:
        monkeypatch.setattr(baseline, "SPLIT_BLOCK_CELLS", block_cells)
    task, draw, stat_kind = SIGNED_TARGETS[targets]
    vectors, rng = signed_corpus(seed)
    labels = draw(rng, len(vectors))
    y = np.asarray(labels, dtype=np.int64 if task == "classify" else np.float64)
    n_classes = int(y.max()) + 1 if task == "classify" else 0
    assert baseline._split_stats(y, task, n_classes).dtype.kind == stat_kind
    for bootstrap, min_leaf, max_depth in GRID:
        config = RandomForestConfig(
            n_trees=3, seed=seed, bootstrap=bootstrap, min_leaf=min_leaf,
            max_depth=max_depth,
        )
        forest = rf_fit(vectors, labels, config, task=task)
        expected = forest_oracle.fit_trees(vectors, labels, config, task)
        for tree, (_, arrays) in zip(forest.trees, expected, strict=True):
            for name in TREE_FIELDS:
                got, want = getattr(tree, name), arrays[name]
                assert got.dtype == want.dtype, name
                assert np.array_equal(got, want), (name, bootstrap, min_leaf, max_depth)


def test_integral_targets_too_large_to_sum_exactly_are_folded():
    y = np.array([2.0**26, 1.0, 3.0])
    assert baseline._split_stats(y, "regress", 0).dtype.kind == "f"
    assert baseline._split_stats(y[1:], "regress", 0).dtype.kind == "i"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_rejects_non_finite_feature_values(bad):
    rows = [dense([1.0, 0.0], 2), dense([0.0, 2.0], 2), dense([bad, 1.0], 2),
            dense([0.5, 0.5], 2)]
    with pytest.raises(ValueError, match="feature vector 2 has a non-finite value"):
        rf_fit(rows, [0, 1, 0, 1], RandomForestConfig(n_trees=1), task="classify")


@pytest.mark.parametrize("task", ["classify", "regress"])
def test_predict_many_matches_per_row_walk(task):
    vectors, rng = sparse_corpus(5)
    labels = sparse_labels(task, rng, len(vectors))
    forest = rf_fit(vectors, labels, RandomForestConfig(n_trees=7, seed=3), task=task)
    empty = SparseVector(
        indices=np.zeros(0, dtype=np.int64), values=np.zeros(0), dim=50
    )
    queries = vectors + [empty] + sparse_corpus(6)[0]
    many = rf_predict_many(forest, queries)
    assert many == [rf_predict(forest, v) for v in queries]
    assert many == [forest_oracle.predict_one(forest, v) for v in queries]
    assert rf_predict_many(forest, []) == []
    assert rf_predict_many(forest, iter([empty])) == [rf_predict(forest, empty)]
