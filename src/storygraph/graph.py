"""Per-document word graphs from sliding-window co-occurrence.

Every document becomes a graph whose nodes are its distinct token ids. For
every pair of positions (i, j) with 0 < |i - j| <= w there is a directed
edge token_i -> token_j. Each distinct ordered token pair seen at least k
times across the training split owns a trainable edge parameter; rarer
pairs share the single "public" edge parameter at index 0, which is also
the fallback for pairs first seen at test time.

Pair codes: the ordered token-id pair (src, dst) is the int64 code
(src << 32) | dst. Token ids are non-negative and below 2**31, so codes
sort in the same order as (src, dst) tuples. The edge table is the sorted
array of the codes of the pairs that own a parameter; a pair's parameter
index is its rank in that array plus one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .embeddings import EncodedDocument
from .errors import EmptyDocumentError

PUBLIC_EDGE_INDEX = 0

_CODE_SHIFT = 32
_DST_MASK = (1 << _CODE_SHIFT) - 1


def encode_pairs(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Pair codes of parallel src and dst token-id arrays."""
    return (np.asarray(src, dtype=np.int64) << _CODE_SHIFT) | np.asarray(
        dst, dtype=np.int64
    )


def decode_pairs(codes: np.ndarray) -> np.ndarray:
    """(n, 2) int64 array of the (src, dst) token ids behind n pair codes."""
    return np.stack([codes >> _CODE_SHIFT, codes & _DST_MASK], axis=1)


def _position_pairs(n: int, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions (i, j) with i < j <= i + window in an n-token document."""
    starts = np.arange(n)[:, None]
    ends = starts + np.arange(1, min(window, n - 1) + 1)
    inside = ends < n
    return np.broadcast_to(starts, ends.shape)[inside], ends[inside]


def _run_heads(sorted_codes: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal values in a sorted
    array: its distinct values are sorted_codes[mask]. Unlike np.unique,
    it never imports numpy.ma."""
    heads = np.empty(sorted_codes.shape, dtype=bool)
    heads[:1] = True
    np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=heads[1:])
    return heads


@dataclass
class CooccurrenceCounts:
    """Distinct ordered token pairs as sorted pair codes, with their counts."""

    codes: np.ndarray  # (n,) int64, strictly increasing
    counts: np.ndarray  # (n,) int64

    def __len__(self) -> int:
        return int(self.codes.shape[0])


def count_cooccurrences(
    docs: Sequence[EncodedDocument], window: int
) -> CooccurrenceCounts:
    """Count ordered token-id pairs within the sliding window.

    Every position pair (i, j) with 0 < |i - j| <= window contributes one
    count to (token_i, token_j). Repeated words at different positions do
    produce pairs of a token with itself; |i - j| = 0 never does.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    chunks = [np.empty(0, dtype=np.int64)]
    for doc in docs:
        ids = np.asarray(doc.token_ids, dtype=np.int64)
        first, second = _position_pairs(ids.shape[0], window)
        a, b = ids[first], ids[second]
        chunks.append(encode_pairs(a, b))
        chunks.append(encode_pairs(b, a))
    # one buffer of every pair code, sorted in place once the chunks are
    # freed; each run of equal codes is one distinct pair
    pairs = np.concatenate(chunks)
    chunks.clear()
    pairs.sort()
    heads = np.flatnonzero(_run_heads(pairs))
    codes = pairs[heads]
    counts = np.diff(heads, append=pairs.shape[0])
    return CooccurrenceCounts(codes=codes, counts=counts)


@dataclass
class EdgeTable:
    """Global map from ordered token-id pairs to edge parameter indices.

    `codes` holds the sorted pair codes of the pairs that own a parameter;
    the pair at rank r owns index r + 1 and every other pair shares
    PUBLIC_EDGE_INDEX. A model file stores this array as it is; the window
    and frequency threshold it was counted with are the training config's.
    """

    codes: np.ndarray  # (n,) int64, strictly increasing

    @property
    def num_edge_params(self) -> int:
        return 1 + int(self.codes.shape[0])

    def edge_params(self, codes: np.ndarray) -> np.ndarray:
        """Parameter index of every pair code; PUBLIC_EDGE_INDEX if not owned."""
        rank = np.searchsorted(self.codes, codes)
        owned = np.zeros(rank.shape, dtype=bool)
        inside = rank < self.codes.shape[0]
        owned[inside] = self.codes[rank[inside]] == codes[inside]
        return np.where(owned, rank + 1, PUBLIC_EDGE_INDEX)


def assign_edge_params(counts: CooccurrenceCounts, min_frequency: int) -> EdgeTable:
    """Give every sufficiently frequent ordered pair its own parameter index.

    Indices follow sorted pair order, so the table is independent of
    counting order.
    """
    if min_frequency < 1:
        raise ValueError(f"min_frequency must be >= 1, got {min_frequency}")
    return EdgeTable(codes=counts.codes[counts.counts >= min_frequency])


@dataclass
class DocumentGraph:
    """One document's nodes and incoming adjacency.

    node_ids holds the distinct token ids in first-occurrence order. The
    adjacency arrays are parallel: entry e is an edge from node position
    edge_src[e] into node position edge_dst[e] carrying edge parameter
    edge_param[e]. Entries are sorted by (dst, src) and duplicates
    (same source node into same destination node) are collapsed.

    The adjacency arrays are int32, half the size of int64: a node
    position is below the document's token count, and an edge parameter
    index is below the edge table's size plus 1, both far below 2**31.
    Code that multiplies a position by the embedding width widens it to
    int64 first.
    """

    doc_id: str
    label: int
    node_ids: np.ndarray  # (n,) int64 token ids
    edge_src: np.ndarray  # (m,) int32, source node positions
    edge_dst: np.ndarray  # (m,) int32, destination node positions
    edge_param: np.ndarray  # (m,) int32, edge parameter indices

    @property
    def n_nodes(self) -> int:
        return int(self.node_ids.shape[0])

    @property
    def n_entries(self) -> int:
        return int(self.edge_src.shape[0])


def build_graph(
    doc: EncodedDocument,
    window: int,
    table: EdgeTable,
    label: int | None = None,
) -> DocumentGraph:
    """Construct the word graph of one document against a fixed edge table.

    Pairs unseen in training (or below the frequency threshold) fall back to
    the public edge parameter. The label defaults to the document's effort
    level; regression-as-classification callers pass their own.
    """
    ids = np.asarray(doc.token_ids, dtype=np.int64)
    if not ids.shape[0]:
        raise EmptyDocumentError(f"{doc.doc_id}: no tokens")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")

    tokens, first_seen, token_of = np.unique(
        ids, return_index=True, return_inverse=True
    )
    order = np.argsort(first_seen)
    nodes = tokens[order]
    n = nodes.shape[0]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    position = rank[token_of]

    first, second = _position_pairs(ids.shape[0], window)
    a, b = position[first], position[second]
    # entry code dst * n + src sorts entries by (dst, src)
    entries = np.concatenate([b * n + a, a * n + b])
    entries.sort()
    edge_dst, edge_src = (
        part.astype(np.int32) for part in np.divmod(entries[_run_heads(entries)], n)
    )
    codes = encode_pairs(nodes[edge_src], nodes[edge_dst])
    if label is None:
        label = int(doc.level)
    return DocumentGraph(
        doc_id=doc.doc_id,
        label=label,
        node_ids=nodes,
        edge_src=edge_src,
        edge_dst=edge_dst,
        edge_param=table.edge_params(codes).astype(np.int32),
    )


def build_graphs(
    docs: Iterable[EncodedDocument],
    window: int,
    table: EdgeTable,
    labels: Sequence[int] | None = None,
) -> list[DocumentGraph]:
    """build_graph over a document collection, with optional explicit labels."""
    docs = list(docs)
    if labels is None:
        return [build_graph(d, window, table) for d in docs]
    if len(labels) != len(docs):
        raise ValueError("labels and docs must have equal length")
    return [build_graph(d, window, table, label=l) for d, l in zip(docs, labels)]
