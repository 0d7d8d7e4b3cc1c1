"""Traditional comparison pipeline: 1-4 gram tf-idf plus a random forest.

Both halves are implemented here rather than imported so the exact split
and tie-break semantics stay pinned down and testable: candidate thresholds
are midpoints between consecutive distinct feature values, the best split
minimizes weighted child impurity (Gini for classification, variance for
regression), and ties fall to the lowest feature index, then the lowest
threshold. Forest votes break ties toward the lowest class index.

A tree is six parallel arrays over its nodes in preorder (a node, then its
left subtree, then its right subtree); `.baseline` files store exactly
these arrays (see model_io):

- ``feature`` (int64): the split feature of an internal node; -1 at a leaf.
- ``threshold`` (float64): a row goes left when its value of ``feature``
  is <= the threshold; 0.0 at a leaf.
- ``left``, ``right`` (int64): child indices. An internal node i has
  ``left[i] == i + 1`` and ``right[i]`` is the first node after its left
  subtree; both are -1 at a leaf. The root is node 0.
- ``value`` (float64): a regression leaf's mean target; 0.0 at internal
  nodes and at classification leaves.
- ``histogram`` (float64, nodes x classes): a classification leaf's class
  counts; zero rows at internal nodes, and zero columns when regressing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateDataError, EmptyCorpusError

MAX_NGRAM = 4
UNIT_NORM_TOLERANCE = 1e-9


# --- tf-idf -----------------------------------------------------------------


@dataclass(frozen=True)
class SparseVector:
    """Sorted sparse feature vector; unit L2 norm unless empty."""

    indices: np.ndarray  # int64, strictly increasing
    values: np.ndarray  # float64
    dim: int

    def __post_init__(self) -> None:
        if self.indices.shape != self.values.shape:
            raise ValueError("index/value arrays differ in length")
        if self.indices.size and np.any(np.diff(self.indices) <= 0):
            raise ValueError("feature indices must be strictly increasing")

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.values**2)))

    def value_at(self, feature: int) -> float:
        pos = int(np.searchsorted(self.indices, feature))
        if pos < self.indices.size and int(self.indices[pos]) == feature:
            return float(self.values[pos])
        return 0.0


def iter_ngrams(tokens: Sequence[str], max_n: int = MAX_NGRAM):
    """All contiguous 1..max_n grams, joined by single spaces."""
    for n in range(1, max_n + 1):
        for i in range(len(tokens) - n + 1):
            yield " ".join(tokens[i : i + n])


@dataclass
class TfidfModel:
    """Fitted vectorizer: n-gram feature space and smoothed idf weights."""

    vocabulary: dict[str, int]  # n-gram -> column
    idf: np.ndarray  # (F,)
    document_count: int
    max_ngram: int = MAX_NGRAM

    @property
    def n_features(self) -> int:
        return int(self.idf.shape[0])


def tfidf_fit(
    token_docs: Sequence[Sequence[str]], max_ngram: int = MAX_NGRAM
) -> TfidfModel:
    """Fit idf weights on the training documents only.

    idf(t) = ln((1 + N) / (1 + df(t))) + 1, the smoothed variant that never
    zeroes a feature out. Columns are assigned in sorted n-gram order so the
    feature space is independent of document order.
    """
    if not token_docs:
        raise EmptyCorpusError("no documents to fit on")
    df: dict[str, int] = {}
    for tokens in token_docs:
        for gram in set(iter_ngrams(tokens, max_ngram)):
            df[gram] = df.get(gram, 0) + 1
    if not df:
        raise EmptyCorpusError("documents contain no n-grams")
    vocabulary = {gram: col for col, gram in enumerate(sorted(df))}
    n = len(token_docs)
    idf = np.zeros(len(vocabulary))
    for gram, col in vocabulary.items():
        idf[col] = math.log((1.0 + n) / (1.0 + df[gram])) + 1.0
    return TfidfModel(
        vocabulary=vocabulary, idf=idf, document_count=n, max_ngram=max_ngram
    )


def tfidf_transform(model: TfidfModel, tokens: Sequence[str]) -> SparseVector:
    """Count-weighted idf vector, L2-normalized; unseen n-grams are ignored
    and a document with no known n-grams maps to the empty vector."""
    counts: dict[int, int] = {}
    for gram in iter_ngrams(tokens, model.max_ngram):
        col = model.vocabulary.get(gram)
        if col is not None:
            counts[col] = counts.get(col, 0) + 1
    if not counts:
        return SparseVector(
            indices=np.zeros(0, dtype=np.int64),
            values=np.zeros(0),
            dim=model.n_features,
        )
    indices = np.array(sorted(counts), dtype=np.int64)
    values = np.array([counts[int(j)] for j in indices], dtype=np.float64)
    values *= model.idf[indices]
    values /= np.sqrt(np.sum(values**2))
    return SparseVector(indices=indices, values=values, dim=model.n_features)


# --- random forest ----------------------------------------------------------

# Most cells of one dense (candidates x node rows) block in the split search;
# a node with more is scored block by block, so a paper-scale regression root
# (F/3 candidates x every training row) never holds its whole block at once.
SPLIT_BLOCK_CELLS = 1 << 16


@dataclass
class RandomForestConfig:
    n_trees: int = 100
    max_depth: int | None = None
    min_leaf: int = 1
    max_features: int | str = "auto"  # "auto": sqrt(F) classify, F/3 regress
    bootstrap: bool = True
    seed: int = 0

    def describe(self) -> str:
        """One line for report headers; the seed is derived per project."""
        depth = (
            "unlimited depth" if self.max_depth is None else f"max depth {self.max_depth}"
        )
        features = {
            "auto": "sqrt(F) features (classify) / F/3 (regress)",
            "all": "all F features",
        }.get(self.max_features, f"{self.max_features} features")
        text = f"{self.n_trees} trees, {depth}, min leaf {self.min_leaf}, {features}"
        return text if self.bootstrap else text + ", no bootstrap"


@dataclass
class Tree:
    """One fitted tree as flat preorder arrays (layout in the module
    docstring)."""

    feature: np.ndarray  # int64
    threshold: np.ndarray  # float64
    left: np.ndarray  # int64
    right: np.ndarray  # int64
    value: np.ndarray  # float64
    histogram: np.ndarray  # float64, (nodes, n_classes)
    bootstrap_seed: int


@dataclass
class Forest:
    trees: list[Tree]
    config: RandomForestConfig
    task: str  # "classify" | "regress"
    n_features: int
    n_classes: int = 0  # classification only


class _RowStore(NamedTuple):
    """CSR copy of sparse rows: row r's nonzeros are
    indices[indptr[r]:indptr[r + 1]], ascending, and the matching values."""

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray


def _row_store(vectors: Sequence[SparseVector]) -> _RowStore:
    indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
    np.cumsum([vec.nnz for vec in vectors], out=indptr[1:])
    indices = [np.zeros(0, dtype=np.int64)] + [vec.indices for vec in vectors]
    values = [np.zeros(0)] + [vec.values for vec in vectors]
    return _RowStore(
        indptr,
        np.concatenate(indices).astype(np.int64, copy=False),
        np.concatenate(values).astype(np.float64, copy=False),
    )


def _cut_scores(
    ys: np.ndarray, rows: np.ndarray, cuts: np.ndarray, task: str, n_classes: int
) -> np.ndarray:
    """Weighted child impurity of cutting row rows[i] of the sorted targets
    ys (b x m) after position cuts[i]: Gini from cumulative class counts, or
    variance from cumulative sums and sums of squares. Each cut gets the
    arithmetic of a scan over its row alone."""
    m = ys.shape[1]
    nl = (cuts + 1).astype(np.float64)
    nr = m - nl
    if task == "classify":
        cum = np.cumsum(ys[:, :, None] == np.arange(n_classes), axis=1)
        left = cum[rows, cuts]
        right = cum[rows, -1] - left
        impurity_l = 1.0 - np.sum((left / nl[:, None]) ** 2, axis=1)
        impurity_r = 1.0 - np.sum((right / nr[:, None]) ** 2, axis=1)
    else:
        # per-row sequential sums: any other order rounds differently
        cum_s = np.cumsum(ys, axis=1)
        cum_q = np.cumsum(ys**2, axis=1)
        sl, ql = cum_s[rows, cuts], cum_q[rows, cuts]
        sr = cum_s[rows, -1] - sl
        qr = cum_q[rows, -1] - ql
        impurity_l = np.maximum(ql / nl - (sl / nl) ** 2, 0.0)
        impurity_r = np.maximum(qr / nr - (sr / nr) ** 2, 0.0)
    return (nl * impurity_l + nr * impurity_r) / m


def _best_split(
    store: _RowStore,
    y: np.ndarray,
    node_rows: np.ndarray,
    is_candidate: np.ndarray,
    task: str,
    n_classes: int,
    min_leaf: int,
) -> tuple[int, float, np.ndarray] | None:
    """Lowest-score (feature, threshold, goes-left mask) over every midpoint
    cut of every candidate feature, or None when no cut leaves min_leaf rows
    a side. Each candidate with a nonzero in the node fills one row of a
    dense block over the node's rows, sorted stably; the first minimum of
    the candidate-major scores is the lowest feature, then the lowest
    threshold, and a later block wins only with a strictly lower score."""
    m = node_rows.shape[0]
    # every stored entry of the node's rows, repeated rows included: its
    # position in node_rows and its index into the store
    starts = store.indptr[node_rows]
    lengths = store.indptr[node_rows + 1] - starts
    pos = np.repeat(np.arange(m), lengths)
    first = np.cumsum(lengths) - lengths
    flat = np.arange(pos.shape[0]) + np.repeat(starts - first, lengths)
    hit = is_candidate[store.indices[flat]]
    pos, flat = pos[hit], flat[hit]
    active, rank = np.unique(store.indices[flat], return_inverse=True)
    nl = np.arange(1, m)
    ok = (nl >= min_leaf) & (m - nl >= min_leaf)

    # Gini keeps a class-count cell per block cell and class
    per_block = max(1, SPLIT_BLOCK_CELLS // (m * max(1, n_classes)))
    best: tuple[int, float, np.ndarray] | None = None
    best_score = np.inf
    for a0 in range(0, active.shape[0], per_block):
        take = (rank >= a0) & (rank < a0 + per_block)
        x = np.zeros((min(per_block, active.shape[0] - a0), m))
        x[rank[take] - a0, pos[take]] = store.values[flat[take]]
        order = np.argsort(x, axis=1, kind="stable")
        xs = np.take_along_axis(x, order, axis=1)
        # cuts between distinct values leaving min_leaf rows a side, by
        # candidate and then threshold
        rows, cuts = np.nonzero((xs[:, :-1] < xs[:, 1:]) & ok)
        if rows.size == 0:
            continue
        score = _cut_scores(y[order], rows, cuts, task, n_classes)
        at = int(np.argmin(score))
        if score[at] < best_score:
            best_score = score[at]
            row, cut = rows[at], cuts[at]
            threshold = float((xs[row, cut] + xs[row, cut + 1]) / 2.0)
            best = (int(active[a0 + row]), threshold, x[row] <= threshold)
    return best


def _resolve_max_features(spec: int | str, n_features: int, task: str) -> int:
    if isinstance(spec, int):
        return max(1, min(spec, n_features))
    if spec == "auto":
        k = int(math.sqrt(n_features)) if task == "classify" else n_features // 3
        return max(1, k)
    if spec == "all":
        return n_features
    raise ValueError(f"unknown max_features {spec!r}")


def _grow_tree(
    store: _RowStore,
    n_features: int,
    labels: np.ndarray,
    rows: np.ndarray,
    config: RandomForestConfig,
    task: str,
    n_classes: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, ...]:
    """The Tree arrays, feature through histogram, of one grown tree."""
    k = _resolve_max_features(config.max_features, n_features, task)
    # per node: [feature, threshold, left, right, value, histogram row]
    nodes: list[list] = []
    # (rows, depth, node whose right child this is, or -1); the stack pops
    # nodes in preorder, and iterating avoids the interpreter's recursion
    # limit on deep trees
    stack: list[tuple[np.ndarray, int, int]] = [(rows, 0, -1)]
    while stack:
        node_rows, depth, right_of = stack.pop()
        node = len(nodes)
        if right_of >= 0:
            nodes[right_of][3] = node
        y = labels[node_rows]
        pure = np.all(y == y[0])
        too_deep = config.max_depth is not None and depth >= config.max_depth
        split = None
        if not (pure or too_deep or node_rows.shape[0] < max(2, 2 * config.min_leaf)):
            is_candidate = np.full(n_features, k >= n_features)
            if k < n_features:
                is_candidate[rng.choice(n_features, size=k, replace=False)] = True
            split = _best_split(
                store, y, node_rows, is_candidate, task, n_classes, config.min_leaf
            )
        if split is None:
            if task == "classify":
                hist = np.bincount(y, minlength=n_classes).astype(np.float64)
                nodes.append([-1, 0.0, -1, -1, 0.0, hist])
            else:
                nodes.append([-1, 0.0, -1, -1, float(y.mean()), np.zeros(0)])
            continue
        feature, threshold, go_left = split
        nodes.append([feature, threshold, node + 1, -1, 0.0, np.zeros(n_classes)])
        stack.append((node_rows[~go_left], depth + 1, node))
        stack.append((node_rows[go_left], depth + 1, -1))
    feature, threshold, left, right, value, histogram = zip(*nodes)
    return (
        np.array(feature, dtype=np.int64),
        np.array(threshold, dtype=np.float64),
        np.array(left, dtype=np.int64),
        np.array(right, dtype=np.int64),
        np.array(value, dtype=np.float64),
        np.array(histogram, dtype=np.float64),
    )


def rf_fit(
    features: Sequence[SparseVector],
    labels: Sequence[int] | Sequence[float],
    config: RandomForestConfig | None = None,
    task: str = "classify",
) -> Forest:
    """Grow the forest: each tree on its own bootstrap sample (same size as
    the training set) with a fresh feature subsample per split."""
    if task not in ("classify", "regress"):
        raise ValueError(f"unknown task {task!r}")
    config = config or RandomForestConfig()
    n = len(features)
    if n < 2:
        raise DegenerateDataError(f"{n} training sample(s), need at least 2")
    if n != len(labels):
        raise ValueError(f"{n} feature vectors but {len(labels)} labels")
    dims = {vec.dim for vec in features}
    if len(dims) != 1:
        raise ValueError(f"inconsistent feature dimensions {sorted(dims)}")
    n_features = dims.pop()

    if task == "classify":
        y = np.asarray(labels, dtype=np.int64)
        if y.min() < 0:
            raise ValueError("class labels must be nonnegative")
        n_classes = int(y.max()) + 1
    else:
        y = np.asarray(labels, dtype=np.float64)
        n_classes = 0

    store = _row_store(features)
    tree_seeds = np.random.SeedSequence(config.seed).generate_state(config.n_trees)
    trees = []
    for seed in tree_seeds.tolist():
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
        tree = _grow_tree(store, n_features, y, rows, config, task, n_classes, rng)
        trees.append(Tree(*tree, bootstrap_seed=int(seed)))
    return Forest(
        trees=trees,
        config=config,
        task=task,
        n_features=n_features,
        n_classes=n_classes,
    )


def _descend(
    tree: Tree, keys: np.ndarray, values: np.ndarray, width: int, n_rows: int
) -> np.ndarray:
    """Leaf index of every row, all rows stepping one level at a time. Row
    r's value of feature j is the one stored under key r * width + j (keys
    ascending, ending in a sentinel above every query), else 0."""
    node = np.zeros(n_rows, dtype=np.int64)
    live = np.flatnonzero(tree.left[node] >= 0)
    while live.size:
        at = node[live]
        want = live * width + tree.feature[at]
        pos = np.searchsorted(keys, want)
        x = np.where(keys[pos] == want, values[pos], 0.0)
        node[live] = np.where(x <= tree.threshold[at], tree.left[at], tree.right[at])
        live = live[tree.left[node[live]] >= 0]
    return node


def rf_predict_many(
    forest: Forest, vectors: Iterable[SparseVector]
) -> list[int] | list[float]:
    """Per vector: majority vote (lowest class index on ties) or the mean of
    leaf means, summed in tree order."""
    vectors = list(vectors)
    n = len(vectors)
    store = _row_store(vectors)
    width = max(forest.n_features, int(store.indices.max(initial=-1)) + 1)
    row_of = np.repeat(np.arange(n), np.diff(store.indptr))
    keys = np.append(row_of * width + store.indices, n * width)
    values = np.append(store.values, 0.0)
    if forest.task == "classify":
        votes = np.zeros((n, forest.n_classes), dtype=np.int64)
        for tree in forest.trees:
            leaf = _descend(tree, keys, values, width, n)
            votes[np.arange(n), np.argmax(tree.histogram[leaf], axis=1)] += 1
        return np.argmax(votes, axis=1).tolist()
    total = np.zeros(n)
    for tree in forest.trees:
        total += tree.value[_descend(tree, keys, values, width, n)]
    return (total / len(forest.trees)).tolist()


def rf_predict(forest: Forest, vector: SparseVector) -> int | float:
    """Majority vote (lowest class index on ties) or mean of leaf means."""
    return rf_predict_many(forest, [vector])[0]
