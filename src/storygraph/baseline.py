"""Traditional comparison pipeline: 1-4 gram tf-idf plus a random forest.

A set of documents is one TfidfMatrix: CSR arrays with one row per
document, which tfidf_transform writes and rf_fit and rf_predict_many read.

Both halves are implemented here rather than imported so the exact split
and tie-break semantics stay pinned down and testable: candidate thresholds
are midpoints between consecutive distinct feature values, the best split
minimizes weighted child impurity (Gini for classification, variance for
regression), and ties fall to the lowest feature index, then the lowest
threshold. Forest votes break ties toward the lowest class index.

The trees of a forest grow in lockstep: each step pops the next preorder
node of every unfinished tree and scores all of the step's split nodes in
one search. Each tree keeps its own stack and generator and draws its
bootstrap sample, then one candidate subsample per split node, in its own
preorder, so its draws, node numbers and arrays are those of growing it
alone. A bootstrap sample is a count per training row (Breiman, Random
Forests, 2001), so a node holds each of its distinct rows once and weighs
the row's split stats by its count. rf_fit reads finite, non-negative
weights, as tfidf_transform writes. The search reads only the candidates'
nonzeros. A candidate's values in a node sort into one block of zeros,
then its positives, so its cuts are those between distinct nonzeros plus
at most one at the zero block's edge, and every threshold is positive.
The rows right of a cut are the candidate's nonzeros from it on; the
left side's class counts, or target sums and sums of squares, are the
node's totals less the right side's. That is exact, and so equal to a
sequential scan of the sorted column, because rf_fit takes only targets
whose every sum is exact: class labels that are whole numbers >= 0, and
regression targets that are whole numbers with n * max(|y|)**2 < 2**53
(n training rows).

A tree is four parallel arrays over its nodes in preorder (a node, then its
left subtree, then its right subtree), so an internal node i's left child
is node i + 1, and the root is node 0; `.baseline` files store exactly
these arrays (see model_io):

- ``feature`` (int64): the split feature of an internal node; -1 at a leaf.
- ``threshold`` (float64): a row goes left when its value of ``feature``
  is <= the threshold; 0.0 at a leaf.
- ``right`` (int64): an internal node's right child, the first node after
  its left subtree; -1 at a leaf.
- ``value`` (float64): a leaf's prediction. Regressing, it is the leaf's
  mean target; classifying, the class with the most bootstrap-weighted
  rows, ties to the lowest (each tree casts one vote for it). 0.0 at
  internal nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateDataError, EmptyCorpusError, check_options, option

MAX_NGRAM = 4


# --- tf-idf -----------------------------------------------------------------


@dataclass(frozen=True)
class TfidfMatrix:
    """Documents as CSR rows: row r's nonzeros are at feature columns
    indices[indptr[r]:indptr[r + 1]], strictly increasing, with the matching
    values. A row that tfidf_transform writes has unit L2 norm unless empty,
    and positive values: counts times idf weights, which tfidf_fit makes
    >= 1."""

    indptr: np.ndarray  # int64, rows + 1 pointers
    indices: np.ndarray  # int64
    values: np.ndarray  # float64
    n_features: int

    def __post_init__(self) -> None:
        if self.indptr.size == 0 or self.indptr[0] != 0 or np.any(np.diff(self.indptr) < 0):
            raise ValueError("row pointers must start at 0 and never decrease")
        if self.indices.shape != self.values.shape or self.indptr[-1] != self.indices.size:
            raise ValueError("index/value arrays differ in length")
        if self.indices.size and not (
            0 <= self.indices.min() and self.indices.max() < self.n_features
        ):
            raise ValueError(f"feature indices must lie in [0, {self.n_features})")
        # a row may only start below the index before it; descents lie
        # below indptr[-1], so each has a slot in the sorted pointers
        descents = np.flatnonzero(np.diff(self.indices) <= 0) + 1
        if np.any(self.indptr[np.searchsorted(self.indptr, descents)] != descents):
            raise ValueError("feature indices must be strictly increasing")

    def __len__(self) -> int:
        return int(self.indptr.size) - 1


def iter_ngrams(tokens: Sequence[str], max_n: int = MAX_NGRAM):
    """All contiguous 1..max_n grams, joined by single spaces."""
    for n in range(1, min(max_n, len(tokens)) + 1):
        for i in range(len(tokens) - n + 1):
            yield " ".join(tokens[i : i + n])


@dataclass
class TfidfModel:
    """Fitted vectorizer: n-gram feature space and smoothed idf weights."""

    vocabulary: dict[str, int]  # n-gram -> column
    idf: np.ndarray  # (F,)
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
    return TfidfModel(vocabulary=vocabulary, idf=idf, max_ngram=max_ngram)


def tfidf_transform(
    model: TfidfModel, token_docs: Sequence[Sequence[str]]
) -> TfidfMatrix:
    """One row per document: count-weighted idf, L2-normalized. Unseen
    n-grams are ignored, and a document with no known n-grams is an empty
    row."""
    indptr = np.zeros(len(token_docs) + 1, dtype=np.int64)
    columns: list[int] = []
    counts: list[int] = []
    for r, tokens in enumerate(token_docs):
        row: dict[int, int] = {}
        for gram in iter_ngrams(tokens, model.max_ngram):
            col = model.vocabulary.get(gram)
            if col is not None:
                row[col] = row.get(col, 0) + 1
        for col in sorted(row):
            columns.append(col)
            counts.append(row[col])
        indptr[r + 1] = len(columns)
    indices = np.array(columns, dtype=np.int64)
    values = np.array(counts, dtype=np.float64)
    values *= model.idf[indices]
    for s, e in zip(indptr[:-1].tolist(), indptr[1:].tolist()):
        if e > s:
            values[s:e] /= np.sqrt(np.sum(values[s:e] ** 2))
    return TfidfMatrix(indptr, indices, values, model.n_features)


# --- random forest ----------------------------------------------------------

# Most column entries (a candidate feature's nonzero in some training row)
# one split-search call gathers. A step's split nodes are searched in calls
# of whole nodes up to this many entries; a node with more is searched alone.
SPLIT_BLOCK_CELLS = 1 << 11


@dataclass
class RandomForestConfig:
    n_trees: int = option(100, int, low=1)
    max_depth: int | None = option(None, int, low=0)
    min_leaf: int = option(1, int, low=1)
    # "auto": sqrt(F) classify, F/3 regress
    max_features: str = option("auto", str, choices=("auto", "all"))
    bootstrap: bool = option(True, bool)
    seed: int = option(0, int)

    __post_init__ = check_options


@dataclass
class Tree:
    """One fitted tree as flat preorder arrays (layout in the module
    docstring). A split's threshold is positive, so a row without the
    split feature goes left."""

    feature: np.ndarray  # int64
    threshold: np.ndarray  # float64
    right: np.ndarray  # int64
    value: np.ndarray  # float64


@dataclass
class Forest:
    trees: list[Tree]
    config: RandomForestConfig
    n_features: int
    n_classes: int = 0  # classification only

    @property
    def task(self) -> str:
        """The task it was fitted for: a regression forest has no classes."""
        return "classify" if self.n_classes else "regress"


class _ColumnStore(NamedTuple):
    """CSC copy of the training rows without their stored zeros: column j's
    nonzeros are in rows[indptr[j]:indptr[j + 1]], ascending, with values."""

    indptr: np.ndarray
    rows: np.ndarray
    values: np.ndarray


def _column_store(rows: TfidfMatrix) -> _ColumnStore:
    row_of = np.repeat(np.arange(len(rows)), np.diff(rows.indptr))
    keep = rows.values != 0
    columns = rows.indices[keep]
    order = np.argsort(columns, kind="stable")
    counts = np.bincount(columns, minlength=rows.n_features)
    indptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return _ColumnStore(indptr, row_of[keep][order], rows.values[keep][order])


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges [starts[i], starts[i] + counts[i]), concatenated."""
    first = np.cumsum(counts) - counts
    return np.arange(int(counts.sum())) + np.repeat(starts - first, counts)


class _Step(NamedTuple):
    """The nodes of one lockstep step, over the flat list of their distinct
    rows: node i holds positions off[i]:off[i + 1]."""

    off: np.ndarray
    # per position, int64, times the row's bootstrap count: 1, then its
    # one-hot class (Gini) or its target and the target's square (variance)
    stat: np.ndarray
    total: np.ndarray  # per node: stat summed over its positions
    # per key node * n_rows + training row: the node's position holding the
    # row, or -1
    slot: np.ndarray
    n_rows: int


def _step(
    rows: list[np.ndarray], trees: list[int], counts: np.ndarray, stat: np.ndarray
) -> tuple[_Step, np.ndarray]:
    """The step over these nodes' distinct rows, and the flat row list. Node
    i's rows are weighted by tree trees[i]'s row of counts, the bootstrap
    count of every training row."""
    n_rows = counts.shape[1]
    sizes = [r.size for r in rows]
    off = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(sizes, out=off[1:])
    flat = np.concatenate(rows)
    keys = np.repeat(np.arange(len(rows)) * n_rows, sizes) + flat
    slot = np.full(len(rows) * n_rows, -1)
    slot[keys] = np.arange(flat.size)
    stat = stat[flat] * counts[np.repeat(trees, sizes), flat][:, None]
    return _Step(off, stat, np.add.reduceat(stat, off[:-1], axis=0), slot, n_rows), flat


def _gather(
    columns: _ColumnStore, step: _Step, pair_node: np.ndarray, pair_feature: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pair, value, position) triples, pair ascending: every nonzero of each
    pair's feature among its node's distinct rows, each row once."""
    starts = columns.indptr[pair_feature]
    counts = columns.indptr[pair_feature + 1] - starts
    entry = _ranges(starts, counts)
    pos = step.slot[np.repeat(pair_node * step.n_rows, counts) + columns.rows[entry]]
    hit = pos >= 0
    return (
        np.repeat(np.arange(pair_node.size), counts)[hit],
        columns.values[entry[hit]],
        pos[hit],
    )


def _best_splits(
    columns: _ColumnStore,
    step: _Step,
    batch: list[tuple[int, np.ndarray]],
    task: str,
    min_leaf: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(node, feature, threshold) of the lowest-score cut of every node of
    the batch, given as (node, ascending candidates), that has a cut leaving
    min_leaf rows a side. Each (node, candidate) is a pair.

    Every threshold is positive, so a pair's rows without a nonzero go left
    of each cut and its right side is a suffix of the pair's nonzeros by
    value. A cut falls just below each nonzero above the value before it,
    which for a pair's first nonzero is the zero block, if the node has
    zero rows. So cuts are listed in threshold order, and the first minimum
    of a node's candidate-major scores is the lowest feature, then the
    lowest threshold.
    """
    pair_node = np.repeat([i for i, _ in batch], [c.size for _, c in batch])
    pair_feature = np.concatenate([c for _, c in batch])
    pair, value, pos = _gather(columns, step, pair_node, pair_feature)
    # each pair's nonzeros by value; no cut falls between equal values, so
    # their order changes no sum at a cut
    order = np.lexsort((value, pair))
    pair, value, pos = pair[order], value[order], pos[order]
    new = np.ones(pair.size, dtype=bool)
    new[1:] = pair[1:] != pair[:-1]
    first = np.flatnonzero(new)
    rank = np.cumsum(new) - 1
    last = np.append(first[1:], pair.size) - 1
    node = pair_node[pair[first]]
    has_zero = np.diff(step.off)[node] > last - first + 1
    low = np.where(new, 0.0, np.append(0.0, value[:-1]))
    cut = np.flatnonzero(np.where(new, has_zero[rank], low < value))
    # stats right of each cut: the pair's nonzeros from it on, exact in any
    # order. Running sums that wrap past int64 wrap alike, so their
    # differences stay exact.
    stat = step.stat.take(pos, axis=0)
    csum = np.cumsum(stat, axis=0)
    at = rank[cut]
    rhs = csum[last[at]] - csum[cut] + stat[cut]
    lhs = step.total[node[at]] - rhs
    nl = lhs[:, 0].astype(np.float64)
    nr = rhs[:, 0].astype(np.float64)
    ok = np.flatnonzero((nl >= min_leaf) & (nr >= min_leaf))
    cut, lhs, rhs, nl, nr = cut[ok], lhs[ok, 1:], rhs[ok, 1:], nl[ok], nr[ok]
    if task == "classify":
        impurity_l = 1.0 - np.sum((lhs / nl[:, None]) ** 2, axis=1)
        impurity_r = 1.0 - np.sum((rhs / nr[:, None]) ** 2, axis=1)
    else:
        sl, ql, sr, qr = lhs[:, 0], lhs[:, 1], rhs[:, 0], rhs[:, 1]
        impurity_l = np.maximum(ql / nl - (sl / nl) ** 2, 0.0)
        impurity_r = np.maximum(qr / nr - (sr / nr) ** 2, 0.0)
    score = (nl * impurity_l + nr * impurity_r) / (nl + nr)
    cut_node = node[rank[cut]]
    by_score = np.lexsort((score, cut_node))
    head = np.ones(by_score.size, dtype=bool)
    head[1:] = cut_node[by_score[1:]] != cut_node[by_score[:-1]]
    best = cut[by_score[head]]
    return node[rank[best]], pair_feature[pair[best]], (low[best] + value[best]) / 2.0


def _batches(
    draws: Iterable[tuple[int, np.ndarray]], column_nnz: np.ndarray
) -> Iterator[list[tuple[int, np.ndarray]]]:
    """The (node, candidates) draws in runs of whole nodes whose candidates
    hold at most SPLIT_BLOCK_CELLS column entries, or of one node that holds
    more. Draws lazily, so only one run's candidates are held."""
    batch: list[tuple[int, np.ndarray]] = []
    held = 0
    for node, candidates in draws:
        entries = int(column_nnz[candidates].sum())
        if batch and held + entries > SPLIT_BLOCK_CELLS:
            yield batch
            batch, held = [], 0
        batch.append((node, candidates))
        held += entries
    if batch:
        yield batch


def _resolve_max_features(spec: str, n_features: int, task: str) -> int:
    if spec == "all":
        return n_features
    k = int(math.sqrt(n_features)) if task == "classify" else n_features // 3
    return max(1, k)


def _grow_trees(
    columns: _ColumnStore,
    n_features: int,
    labels: np.ndarray,
    stat: np.ndarray,
    counts: np.ndarray,
    rngs: list[np.random.Generator],
    config: RandomForestConfig,
    task: str,
) -> list[Tree]:
    """Every tree, grown in lockstep: each step pops the next preorder node
    of every unfinished tree and searches all of the step's split nodes
    together. counts holds each tree's bootstrap count per training row."""
    k = _resolve_max_features(config.max_features, n_features, task)
    min_rows = max(2, 2 * config.min_leaf)
    column_nnz = np.diff(columns.indptr)
    # per tree, per node: [feature, threshold, right, value]
    nodes: list[list[list]] = [[] for _ in rngs]
    # per tree: (distinct rows, depth, node whose right child this is, or
    # -1); the stack pops its tree's nodes in preorder
    stacks = [[(np.flatnonzero(c), 0, -1)] for c in counts]
    live = list(range(len(rngs)))
    while live:
        popped = [stacks[t].pop() for t in live]
        step, flat = _step([p[0] for p in popped], live, counts, stat)
        off = step.off
        y = labels[flat]
        pure = np.minimum.reduceat(y, off[:-1]) == np.maximum.reduceat(y, off[:-1])
        split = ~pure & (step.total[:, 0] >= min_rows)
        if config.max_depth is not None:
            split &= np.array([p[1] for p in popped]) < config.max_depth

        feature = np.full(len(popped), -1)
        threshold = np.zeros(len(popped))
        # each tree draws from its own generator in its own preorder
        draws = (
            (i, np.arange(n_features) if k >= n_features
             else np.sort(rngs[live[i]].choice(n_features, size=k, replace=False)))
            for i in np.flatnonzero(split).tolist()
        )
        for batch in _batches(draws, column_nnz):
            found, feature_found, threshold_found = _best_splits(
                columns, step, batch, task, config.min_leaf
            )
            feature[found], threshold[found] = feature_found, threshold_found

        won = np.flatnonzero(feature >= 0)
        # a row without the split feature goes left of its positive threshold
        go_left = np.ones(flat.size, dtype=bool)
        pair, x, pos = _gather(columns, step, won, feature[won])
        go_left[pos] = x <= threshold[won][pair]
        # a leaf's value: its weighted majority class (argmax takes the
        # lowest of tied classes) or its weighted mean target
        value = np.where(
            feature < 0,
            np.argmax(step.total[:, 1:], axis=1) if task == "classify"
            else step.total[:, 1] / step.total[:, 0],
            0.0,
        )
        for i, (t, (rows, depth, right_of)) in enumerate(zip(live, popped)):
            tree = nodes[t]
            node = len(tree)
            if right_of >= 0:
                tree[right_of][2] = node
            tree.append([feature[i], threshold[i], -1, value[i]])
            if feature[i] >= 0:
                mask = go_left[off[i] : off[i + 1]]
                stacks[t].append((rows[~mask], depth + 1, node))
                stacks[t].append((rows[mask], depth + 1, -1))
        live = [t for t in live if stacks[t]]
    dtypes = (np.int64, np.float64, np.int64, np.float64)
    return [
        Tree(*(np.array(column, dtype=dtype) for column, dtype in zip(zip(*tree), dtypes)))
        for tree in nodes
    ]


def _split_stats(
    labels: Sequence[int] | Sequence[float], task: str
) -> tuple[np.ndarray, np.ndarray, int]:
    """The split stats, targets and class count (0 when regressing) of
    these labels. A row's stats are 1, then its one-hot class or its target
    and the target's square, all int64. A node weighs them by the row's
    bootstrap count, whose sum is n, so every sum is exact in any order.

    Class labels must be finite whole numbers >= 0. Regression targets must
    be finite whole numbers with n * max|y|**2 < 2**53 (n training rows)."""
    y = np.asarray(labels, dtype=np.float64)
    n = y.shape[0]
    whole = np.isfinite(y) & (y == np.trunc(y))
    if task == "classify":
        bad = y[~whole | (y < 0)]
        if bad.size:
            raise ValueError(
                f"class labels must be finite whole numbers >= 0, got {float(bad[0])!r}"
            )
        classes = y.astype(np.int64)
        n_classes = int(classes.max()) + 1
        stat = np.zeros((n, 1 + n_classes), dtype=np.int64)
        stat[:, 0] = 1
        stat[np.arange(n), 1 + classes] = 1
        return stat, classes, n_classes
    top = float(np.max(np.abs(y)))
    if not (whole.all() and n * top * top < 2.0**53):
        raise ValueError(
            "regression targets must be whole numbers with n * max|y|**2 < 2**53, "
            f"got n={n}, max|y|={top!r}"
        )
    yi = y.astype(np.int64)
    return np.column_stack([np.ones(n, dtype=np.int64), yi, yi * yi]), y, 0


def rf_fit(
    features: TfidfMatrix,
    labels: Sequence[int] | Sequence[float],
    config: RandomForestConfig | None = None,
    task: str = "classify",
) -> Forest:
    """Grow the forest: each tree on its own bootstrap sample, n draws with
    replacement held as a count per training row (a count of 1 each without
    bootstrap), with a fresh feature subsample per split. A negative or
    non-finite feature value, and labels whose sums could round (see
    _split_stats), are refused with ValueError."""
    if task not in ("classify", "regress"):
        raise ValueError(f"unknown task {task!r}")
    config = config or RandomForestConfig()
    n = len(features)
    if n < 2:
        raise DegenerateDataError(f"{n} training sample(s), need at least 2")
    if n != len(labels):
        raise ValueError(f"{n} feature vectors but {len(labels)} labels")
    bad = np.flatnonzero(~(np.isfinite(features.values) & (features.values >= 0)))
    if bad.size:
        row = int(np.searchsorted(features.indptr, bad[0], "right")) - 1
        what = "negative" if np.isfinite(features.values[bad[0]]) else "non-finite"
        raise ValueError(f"feature vector {row} has a {what} value")

    stat, y, n_classes = _split_stats(labels, task)
    tree_seeds = np.random.SeedSequence(config.seed).generate_state(config.n_trees)
    rngs = [np.random.default_rng(seed) for seed in tree_seeds.tolist()]
    counts = np.array([
        np.bincount(rng.integers(0, n, size=n), minlength=n) if config.bootstrap
        else np.ones(n, dtype=np.int64) for rng in rngs
    ])
    trees = _grow_trees(
        _column_store(features), features.n_features, y, stat, counts, rngs, config, task
    )
    return Forest(
        trees=trees,
        config=config,
        n_features=features.n_features,
        n_classes=n_classes,
    )


def _descend(
    tree: Tree, keys: np.ndarray, values: np.ndarray, width: int, n_rows: int
) -> np.ndarray:
    """Leaf index of every row, all rows stepping one level at a time. Row
    r's value of feature j is the one stored under key r * width + j (keys
    ascending, ending in a sentinel above every query), else 0."""
    node = np.zeros(n_rows, dtype=np.int64)
    live = np.flatnonzero(tree.feature[node] >= 0)
    while live.size:
        at = node[live]
        want = live * width + tree.feature[at]
        pos = np.searchsorted(keys, want)
        x = np.where(keys[pos] == want, values[pos], 0.0)
        node[live] = np.where(x <= tree.threshold[at], at + 1, tree.right[at])
        live = live[tree.feature[node[live]] >= 0]
    return node


def rf_predict_many(forest: Forest, rows: TfidfMatrix) -> list[int] | list[float]:
    """Per row: majority vote (lowest class index on ties) or the mean of
    leaf means, summed in tree order. The rows must have the forest's
    feature space."""
    if rows.n_features != forest.n_features:
        raise ValueError(
            f"rows have {rows.n_features} features, the forest {forest.n_features}"
        )
    n = len(rows)
    width = forest.n_features
    row_of = np.repeat(np.arange(n), np.diff(rows.indptr))
    keys = np.append(row_of * width + rows.indices, n * width)
    values = np.append(rows.values, 0.0)
    if forest.task == "classify":
        votes = np.zeros((n, forest.n_classes), dtype=np.int64)
        for tree in forest.trees:
            leaf = _descend(tree, keys, values, width, n)
            votes[np.arange(n), tree.value[leaf].astype(np.int64)] += 1
        return np.argmax(votes, axis=1).tolist()
    total = np.zeros(n)
    for tree in forest.trees:
        total += tree.value[_descend(tree, keys, values, width, n)]
    return (total / len(forest.trees)).tolist()
