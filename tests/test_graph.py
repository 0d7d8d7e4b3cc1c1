"""Graph construction against a brute-force position-pair oracle."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from storygraph.corpus import StoryPointLevel
from storygraph.embeddings import EncodedDocument
from storygraph.errors import EmptyDocumentError
from storygraph.graph import (
    PUBLIC_EDGE_INDEX,
    CooccurrenceCounts,
    assign_edge_params,
    build_graph,
    build_graphs,
    count_cooccurrences,
    decode_pairs,
    encode_pairs,
)


def doc(ids, doc_id="d", sp=2):
    return EncodedDocument(
        doc_id=doc_id,
        token_ids=tuple(ids),
        raw_story_point=sp,
    )


def brute_force_pairs(ids, window):
    """Independent oracle: enumerate ordered position pairs directly."""
    counts = Counter()
    n = len(ids)
    for i in range(n):
        for j in range(n):
            if i != j and abs(i - j) <= window:
                counts[(ids[i], ids[j])] += 1
    return counts


def pair_counts(counted):
    """(src, dst) -> count, from the counted pair codes."""
    pairs = [tuple(p) for p in decode_pairs(counted.codes).tolist()]
    return dict(zip(pairs, counted.counts.tolist()))


def pair_index(table):
    """(src, dst) -> parameter index, built from the table's pairs rather than
    its lookup."""
    pairs = [tuple(p) for p in decode_pairs(table.codes).tolist()]
    return {pair: i + 1 for i, pair in enumerate(pairs)}


# --- counting ----------------------------------------------------------------


def test_count_small_example():
    counts = count_cooccurrences([doc([1, 2, 3])], window=1)
    assert pair_counts(counts) == {(1, 2): 1, (2, 1): 1, (2, 3): 1, (3, 2): 1}
    assert len(counts) == 4


def test_count_repeated_token_self_pair():
    counts = count_cooccurrences([doc([1, 2, 1])], window=2)
    assert pair_counts(counts) == {(1, 2): 2, (2, 1): 2, (1, 1): 2}


def test_count_accumulates_over_documents():
    counts = count_cooccurrences([doc([1, 2]), doc([1, 2])], window=1)
    assert pair_counts(counts)[(1, 2)] == 2


def test_count_codes_sort_like_pairs():
    counts = count_cooccurrences([doc([3, 0, 2**31 - 1, 1])], window=3)
    pairs = [tuple(p) for p in decode_pairs(counts.codes).tolist()]
    assert pairs == sorted(pairs)
    assert np.array_equal(encode_pairs(*decode_pairs(counts.codes).T), counts.codes)


def test_count_window_validation():
    with pytest.raises(ValueError):
        count_cooccurrences([doc([1, 2])], window=0)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=30),
    st.integers(min_value=1, max_value=5),
)
def test_count_matches_brute_force(ids, window):
    counted = pair_counts(count_cooccurrences([doc(ids)], window))
    assert counted == brute_force_pairs(ids, window)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=20),
             max_size=4),
    st.integers(min_value=1, max_value=4),
)
def test_count_equals_np_unique_of_every_pair_code(docs_ids, window):
    codes = [
        (ids[i] << 32) | ids[j]
        for ids in docs_ids
        for i in range(len(ids))
        for j in range(len(ids))
        if i != j and abs(i - j) <= window
    ]
    expected_codes, expected_counts = np.unique(
        np.array(codes, dtype=np.int64), return_counts=True
    )
    counted = count_cooccurrences([doc(ids) for ids in docs_ids], window)
    for got, want in ((counted.codes, expected_codes), (counted.counts, expected_counts)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=8), min_size=2, max_size=25),
    st.integers(min_value=1, max_value=4),
)
def test_count_monotone_in_window(ids, window):
    narrow = pair_counts(count_cooccurrences([doc(ids)], window))
    wide = pair_counts(count_cooccurrences([doc(ids)], window + 1))
    assert set(narrow) <= set(wide)
    assert all(wide[pair] >= narrow[pair] for pair in narrow)


# --- edge parameter assignment -------------------------------------------------


def test_assign_edge_params_threshold_and_order():
    # pairs in sorted order: (1,2), (1,3), (2,2), (3,1)
    counts = CooccurrenceCounts(
        codes=encode_pairs([1, 1, 2, 3], [2, 3, 2, 1]),
        counts=np.array([1, 5, 2, 5]),
    )
    table = assign_edge_params(counts, min_frequency=2)
    assert pair_index(table) == {(1, 3): 1, (2, 2): 2, (3, 1): 3}
    assert table.num_edge_params == 4
    looked_up = table.edge_params(encode_pairs([1, 9, 3, 1, 0], [2, 9, 1, 3, 0]))
    assert looked_up.tolist() == [PUBLIC_EDGE_INDEX, PUBLIC_EDGE_INDEX, 3, 1,
                                  PUBLIC_EDGE_INDEX]


def test_edge_params_on_empty_table():
    table = assign_edge_params(count_cooccurrences([doc([1])], 1), 1)
    assert table.num_edge_params == 1
    assert table.edge_params(encode_pairs([1, 2], [2, 1])).tolist() == [
        PUBLIC_EDGE_INDEX, PUBLIC_EDGE_INDEX]


def test_assign_edge_params_validation():
    with pytest.raises(ValueError):
        assign_edge_params(count_cooccurrences([], 1), min_frequency=0)


# --- graph building ------------------------------------------------------------


def _table_for(docs, window, k=1):
    return assign_edge_params(count_cooccurrences(docs, window), k)


def test_build_graph_nodes_first_occurrence():
    d = doc([5, 3, 5, 7])
    g = build_graph(d, window=1, table=_table_for([d], 1))
    assert g.node_ids.tolist() == [5, 3, 7]


def test_build_graph_adjacency_sorted_and_collapsed():
    d = doc([1, 2, 1, 2])
    g = build_graph(d, window=3, table=_table_for([d], 3))
    entries = list(zip(g.edge_dst.tolist(), g.edge_src.tolist()))
    assert entries == sorted(entries)
    assert len(entries) == len(set(entries))


def test_build_graph_incoming_and_params():
    d = doc([1, 2, 3])
    table = _table_for([d], 1)
    index = pair_index(table)
    g = build_graph(d, window=1, table=table)
    # node positions: 1->0, 2->1, 3->2; entries are (dst, src, param)
    entries = list(zip(g.edge_dst.tolist(), g.edge_src.tolist(), g.edge_param.tolist()))
    assert entries == [
        (0, 1, index[(2, 1)]),
        (1, 0, index[(1, 2)]),
        (1, 2, index[(3, 2)]),
        (2, 1, index[(2, 3)]),
    ]


def test_build_graph_index_arrays_are_int32_and_ids_int64():
    d = doc([1, 2, 3, 1, 2, 9])
    table = _table_for([d], 2)
    g = build_graph(d, window=2, table=table)
    assert g.n_entries
    for arr in (g.edge_src, g.edge_dst, g.edge_param):
        assert arr.dtype == np.int32
    # token ids and the saved edge table keep their int64 format
    assert g.node_ids.dtype == np.int64
    assert table.codes.dtype == np.int64


def test_build_graph_public_fallback_for_unseen_pairs():
    train = doc([1, 2])
    table = _table_for([train], 1)
    g = build_graph(doc([3, 4]), window=1, table=table)
    assert set(g.edge_param.tolist()) == {PUBLIC_EDGE_INDEX}


def test_build_graph_empty_document():
    with pytest.raises(EmptyDocumentError):
        build_graph(doc([]), window=1, table=_table_for([doc([1])], 1))


def test_build_graph_label_defaults_to_level():
    d = doc([1, 2])
    g = build_graph(d, window=1, table=_table_for([d], 1))
    assert g.label == int(StoryPointLevel.SMALL)
    g2 = build_graph(d, window=1, table=_table_for([d], 1), label=3)
    assert g2.label == 3


def test_build_graphs_with_labels():
    docs = [doc([1, 2], doc_id="a"), doc([2, 3], doc_id="b")]
    table = _table_for(docs, 1)
    graphs = build_graphs(docs, 1, table, labels=[2, 1])
    assert [g.label for g in graphs] == [2, 1]
    with pytest.raises(ValueError):
        build_graphs(docs, 1, table, labels=[1])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=30),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=3),
)
def test_build_graph_matches_brute_force(ids, window, k):
    d = doc(ids)
    counts = count_cooccurrences([d], window)
    table = assign_edge_params(counts, k)
    g = build_graph(d, window, table)

    # oracle: distinct tokens, first-occurrence positions
    seen = []
    for t in ids:
        if t not in seen:
            seen.append(t)
    assert g.node_ids.tolist() == seen
    position = {t: i for i, t in enumerate(seen)}

    oracle_pairs = brute_force_pairs(ids, window)
    index = pair_index(table)
    expected_entries = sorted(
        {(position[b], position[a]) for (a, b) in oracle_pairs}
    )
    assert list(zip(g.edge_dst.tolist(), g.edge_src.tolist())) == expected_entries

    for e in range(g.n_entries):
        src_tok = int(g.node_ids[g.edge_src[e]])
        dst_tok = int(g.node_ids[g.edge_dst[e]])
        expected = index.get((src_tok, dst_tok), PUBLIC_EDGE_INDEX)
        assert int(g.edge_param[e]) == expected
        if oracle_pairs[(src_tok, dst_tok)] >= k:
            assert int(g.edge_param[e]) != PUBLIC_EDGE_INDEX

