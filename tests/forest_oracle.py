"""Frozen reference forest: the per-candidate split search the vectorised
grower in storygraph.baseline replaced, kept as the oracle its trees must
equal array for array.

One candidate feature at a time: read its column for the node's rows,
sort it stably, and scan every midpoint cut with cumulative sums. The
loop draws from the generator exactly as the production grower must, and
numbers nodes in the same preorder, so the two emit identical arrays.
"""

from __future__ import annotations

import numpy as np

from storygraph.baseline import (
    RandomForestConfig,
    TfidfMatrix,
    _resolve_max_features,
)


class ColumnStore:
    """Column-major view of the sparse training matrix: per feature, the
    rows holding a nonzero and their values, sorted by row."""

    def __init__(self, matrix: TfidfMatrix):
        per_col_rows: dict[int, list[int]] = {}
        per_col_vals: dict[int, list[float]] = {}
        for row in range(len(matrix)):
            s, e = matrix.indptr[row], matrix.indptr[row + 1]
            for j, val in zip(matrix.indices[s:e].tolist(), matrix.values[s:e].tolist()):
                per_col_rows.setdefault(j, []).append(row)
                per_col_vals.setdefault(j, []).append(val)
        self.n_features = matrix.n_features
        self._cols = {
            j: (
                np.array(rows, dtype=np.int64),
                np.array(per_col_vals[j], dtype=np.float64),
            )
            for j, rows in per_col_rows.items()
        }

    def values(self, feature: int, rows: np.ndarray) -> np.ndarray:
        out = np.zeros(rows.shape[0])
        col = self._cols.get(feature)
        if col is None:
            return out
        stored_rows, stored_vals = col
        pos = np.searchsorted(stored_rows, rows)
        pos_c = np.minimum(pos, stored_rows.size - 1)
        hit = stored_rows[pos_c] == rows
        out[hit] = stored_vals[pos_c[hit]]
        return out


def gini_best_cut(xs, ys, n_classes, min_leaf):
    """Lowest weighted child Gini over midpoint cuts of a sorted column;
    first (= lowest) threshold wins ties."""
    m = xs.shape[0]
    cuts = np.nonzero(xs[:-1] < xs[1:])[0]
    if cuts.size == 0:
        return None
    onehot = np.zeros((m, n_classes))
    onehot[np.arange(m), ys] = 1.0
    cum = np.cumsum(onehot, axis=0)
    left = cum[cuts]
    right = cum[-1] - left
    nl = (cuts + 1).astype(np.float64)
    nr = m - nl
    ok = (nl >= min_leaf) & (nr >= min_leaf)
    if not ok.any():
        return None
    gini_l = 1.0 - np.sum((left / nl[:, None]) ** 2, axis=1)
    gini_r = 1.0 - np.sum((right / nr[:, None]) ** 2, axis=1)
    score = (nl * gini_l + nr * gini_r) / m
    score[~ok] = np.inf
    best = int(np.argmin(score))
    threshold = (xs[cuts[best]] + xs[cuts[best] + 1]) / 2.0
    return float(score[best]), float(threshold)


def variance_best_cut(xs, ys, min_leaf):
    """Lowest weighted child variance over midpoint cuts of a sorted column."""
    m = xs.shape[0]
    cuts = np.nonzero(xs[:-1] < xs[1:])[0]
    if cuts.size == 0:
        return None
    cum_s = np.cumsum(ys)
    cum_q = np.cumsum(ys**2)
    sl = cum_s[cuts]
    ql = cum_q[cuts]
    nl = (cuts + 1).astype(np.float64)
    nr = m - nl
    ok = (nl >= min_leaf) & (nr >= min_leaf)
    if not ok.any():
        return None
    sr = cum_s[-1] - sl
    qr = cum_q[-1] - ql
    var_l = np.maximum(ql / nl - (sl / nl) ** 2, 0.0)
    var_r = np.maximum(qr / nr - (sr / nr) ** 2, 0.0)
    score = (nl * var_l + nr * var_r) / m
    score[~ok] = np.inf
    best = int(np.argmin(score))
    threshold = (xs[cuts[best]] + xs[cuts[best] + 1]) / 2.0
    return float(score[best]), float(threshold)


def grow_tree(store, labels, rows, config, task, n_classes, rng) -> dict:
    """One tree as the flat preorder arrays of storygraph.baseline.Tree."""
    k = _resolve_max_features(config.max_features, store.n_features, task)
    feature: list[int] = []
    threshold: list[float] = []
    right: list[int] = []
    value: list[float] = []
    # (rows, depth, index of the parent whose right child this is, or -1)
    stack = [(rows, 0, -1)]
    while stack:
        node_rows, depth, right_of = stack.pop()
        node = len(feature)
        if right_of >= 0:
            right[right_of] = node
        feature.append(-1)
        threshold.append(0.0)
        right.append(-1)
        value.append(0.0)

        y = labels[node_rows]
        pure = np.all(y == y[0])
        too_deep = config.max_depth is not None and depth >= config.max_depth
        best_feature = -1
        if not (pure or too_deep or node_rows.shape[0] < max(2, 2 * config.min_leaf)):
            if k >= store.n_features:
                candidates = np.arange(store.n_features)
            else:
                candidates = np.sort(
                    rng.choice(store.n_features, size=k, replace=False)
                )
            best_score = np.inf
            best_threshold = 0.0
            best_x = None
            for j in candidates.tolist():
                x = store.values(j, node_rows)
                order = np.argsort(x, kind="stable")
                found = (
                    gini_best_cut(x[order], y[order], n_classes, config.min_leaf)
                    if task == "classify"
                    else variance_best_cut(x[order], y[order], config.min_leaf)
                )
                if found is None:
                    continue
                score, cut = found
                if score < best_score:
                    best_score = score
                    best_feature = j
                    best_threshold = cut
                    best_x = x
        if best_feature < 0:
            if task == "classify":
                # the most frequent class of the node's rows, bootstrap
                # copies included; argmax takes the lowest of tied classes
                value[node] = float(np.argmax(np.bincount(y.astype(np.int64))))
            else:
                value[node] = float(y.mean())
            continue
        go_left = best_x <= best_threshold
        feature[node] = best_feature
        threshold[node] = best_threshold
        stack.append((node_rows[~go_left], depth + 1, node))
        stack.append((node_rows[go_left], depth + 1, -1))
    return {
        "feature": np.array(feature, dtype=np.int64),
        "threshold": np.array(threshold, dtype=np.float64),
        "right": np.array(right, dtype=np.int64),
        "value": np.array(value, dtype=np.float64),
    }


def fit_trees(
    features: TfidfMatrix,
    labels,
    config: RandomForestConfig,
    task: str,
) -> list[dict]:
    """The arrays of each tree, seeded and sampled as rf_fit is."""
    n = len(features)
    if task == "classify":
        y = np.asarray(labels, dtype=np.int64)
        n_classes = int(y.max()) + 1
    else:
        y = np.asarray(labels, dtype=np.float64)
        n_classes = 0
    store = ColumnStore(features)
    tree_seeds = np.random.SeedSequence(config.seed).generate_state(config.n_trees)
    trees = []
    for seed in tree_seeds.tolist():
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
        trees.append(grow_tree(store, y, rows, config, task, n_classes, rng))
    return trees


def predict_one(forest, matrix: TfidfMatrix, row: int):
    """Per-row, per-tree walk: majority vote with lowest-index ties, or the
    mean of leaf means summed in tree order."""
    s, e = matrix.indptr[row], matrix.indptr[row + 1]
    values = dict(zip(matrix.indices[s:e].tolist(), matrix.values[s:e].tolist()))
    leaves = []
    for tree in forest.trees:
        node = 0
        while tree.feature[node] >= 0:
            x = values.get(int(tree.feature[node]), 0.0)
            node = node + 1 if x <= tree.threshold[node] else tree.right[node]
        leaves.append((tree, node))
    if forest.task == "classify":
        votes = np.zeros(forest.n_classes, dtype=np.int64)
        for tree, node in leaves:
            votes[int(tree.value[node])] += 1
        return int(np.argmax(votes))
    total = 0.0
    for tree, node in leaves:
        total += float(tree.value[node])
    return total / len(forest.trees)
