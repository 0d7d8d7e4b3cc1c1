"""The bounded-memory GNN passes against the frozen whole-array oracle
(tests/gnn_oracle.py), and the working set each pass needs.

Per-block pooling, chunked Adam and reused training buffers must change
no element of any trace, probability, moment or parameter: every check
here compares dtype, shape and bytes, so -0.0 differs from 0.0 and a NaN
must carry the same bits. The oracle shares `backward` with the program,
so `pairwise_backward` below keeps backward's earlier scatter through
(row, lane) pairs as the reference its gradients must equal.
"""

import numpy as np
import pytest

import gnn_oracle
from storygraph import gnn
from storygraph.embeddings import EncodedDocument
from storygraph.errors import NonFiniteActivationError
from storygraph.graph import (
    DocumentGraph,
    assign_edge_params,
    build_graph,
    count_cooccurrences,
)


def assert_same(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_same_params(actual, expected):
    for name, arr in actual.named_arrays():
        assert_same(arr, getattr(expected, name))


def assert_same_trace(actual, expected):
    assert (actual.doc_id, actual.n_nodes, actual.rounds) == (
        expected.doc_id, expected.n_nodes, expected.rounds)
    if expected.dropout_mask is None:
        assert actual.dropout_mask is None
    else:
        assert_same(actual.dropout_mask, expected.dropout_mask)
    for field in ("round_inputs", "messages", "winners"):
        got, want = getattr(actual, field), getattr(expected, field)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same(a, b)
    for field in ("gate_values", "readout", "logits", "probabilities"):
        assert_same(getattr(actual, field), getattr(expected, field))


def random_params(rng, vocab, dim, n_edge_params, n_classes):
    return gnn.ModelParameters(
        embeddings=rng.normal(size=(vocab, dim)),
        edge_weights=rng.normal(size=n_edge_params),
        gates=rng.normal(size=vocab),
        classifier_weights=rng.normal(size=(n_classes, dim)),
        classifier_bias=rng.normal(size=n_classes),
    )


def text_graph(ids, window, k=1):
    doc = EncodedDocument(doc_id="d", token_ids=tuple(ids), raw_story_point=2)
    table = assign_edge_params(count_cooccurrences([doc], window), k)
    return build_graph(doc, window, table, label=0), table.num_edge_params


def manual_graph(n_nodes, src, dst, params_of):
    return DocumentGraph(
        doc_id="m",
        label=0,
        node_ids=np.arange(1, n_nodes + 1, dtype=np.int64),
        edge_src=np.array(src, dtype=np.int64),
        edge_dst=np.array(dst, dtype=np.int64),
        edge_param=np.array(params_of, dtype=np.int64),
    )


def oracle_cases(rng):
    """(params, graph) pairs: text graphs of several windows, isolated
    nodes, a lone node, and nodes with no entries at all."""
    cases = []
    for _ in range(10):
        vocab, dim = int(rng.integers(4, 30)), int(rng.integers(1, 9))
        ids = rng.integers(1, vocab, size=int(rng.integers(1, 40))).tolist()
        graph, n_edge = text_graph(ids, int(rng.integers(1, 6)),
                                   k=int(rng.integers(1, 3)))
        cases.append((random_params(rng, vocab, dim, n_edge, 3), graph))
    # node 0 and node 3 receive nothing, node 4 is isolated, node 2 takes
    # three entries
    isolated = manual_graph(5, [0, 0, 1, 3], [1, 2, 2, 2], [1, 2, 0, 1])
    cases.append((random_params(rng, 6, 6, 3, 2), isolated))
    cases.append((random_params(rng, 5, 6, 3, 2), manual_graph(4, [], [], [])))
    lone, n_edge = text_graph([3], window=2)
    cases.append((random_params(rng, 5, 6, n_edge, 2), lone))
    return cases


def ring_graph(rng, node_ids):
    """Every node but each third receives from the node before it and the
    node two on, around a ring."""
    n = node_ids.shape[0]
    dst, src = np.array(sorted((d, s) for d in range(n) if d % 3
                               for s in {(d - 1) % n, (d + 2) % n})).T
    return DocumentGraph(doc_id="ring", label=0, node_ids=node_ids,
                         edge_src=src.astype(np.int32), edge_dst=dst.astype(np.int32),
                         edge_param=rng.integers(0, 3, size=src.shape[0], dtype=np.int32))


def chunked_cases(rng):
    """(params, graph) pairs whose receivers fill three chunks of
    gnn.ROW_CHUNK rows and part of a fourth: a text graph, a ring with
    every third node receiving nothing, and that ring with each node id
    at two neighbouring positions, which no built graph has but a library
    caller can make."""
    chunk = gnn.ROW_CHUNK
    n = 3 * chunk + chunk // 2
    ids = [*rng.permutation(n).tolist(), *rng.integers(0, n, size=n).tolist()]
    text, n_edge = text_graph(ids, window=3, k=2)
    ring = ring_graph(rng, np.arange(1, 5 * chunk + 1))
    twice = ring_graph(rng, np.arange(5 * chunk) // 2)
    cases = [(random_params(rng, n, 4, n_edge, 3), text),
             (random_params(rng, 5 * chunk + 1, 4, 3, 3), ring),
             (random_params(rng, 5 * chunk // 2, 4, 3, 3), twice)]
    for params, graph in cases:
        # positive logits near the bias pass the relu and keep every label
        # off the LOG_CLAMP plateau
        params.classifier_weights *= 0.001
        params.classifier_bias[:] = np.abs(params.classifier_bias) + 1.0
        receivers = np.count_nonzero(np.diff(graph.edge_dst, prepend=-1))
        assert receivers > 3 * chunk and receivers % chunk
    return cases


# --- forward and predict -------------------------------------------------------


@pytest.mark.parametrize("rounds", [1, 2])
def test_forward_and_predict_match_the_oracle(rounds):
    for params, graph in oracle_cases(np.random.default_rng(7)):
        assert_same_trace(gnn.forward(params, graph, rounds=rounds),
                          gnn_oracle.forward(params, graph, rounds=rounds))
        index, probs = gnn.predict(params, graph, rounds=rounds)
        want_index, want_probs = gnn_oracle.predict(params, graph, rounds=rounds)
        assert index == want_index
        assert_same(probs, want_probs)


@pytest.mark.parametrize("rounds", [1, 2])
def test_dropout_ties_break_as_in_the_oracle(rounds):
    # half the input lanes are zeroed, so many blocks tie at 0 (negative
    # weights make the other lanes negative); the winners must agree
    rng = np.random.default_rng(11)
    params = random_params(rng, 12, 5, 1, 3)
    params.edge_weights[:] = -1.0
    graph, n_edge = text_graph(rng.integers(1, 12, size=30).tolist(), window=4, k=99)
    assert n_edge == 1
    ties = 0
    for seed in range(8):
        got = gnn.forward(params, graph, dropout=0.5, training=True,
                          rng=np.random.default_rng(seed), rounds=rounds)
        want = gnn_oracle.forward(params, graph, dropout=0.5, training=True,
                                  rng=np.random.default_rng(seed), rounds=rounds)
        assert_same_trace(got, want)
        ties += int(np.count_nonzero(got.messages[0] == 0.0))
    assert ties > 0


def signed_zero_ties(trace, graph, params):
    """Pooled lanes whose max is a zero that both +0.0 and -0.0 reach."""
    weights = params.edge_weights[graph.edge_param][:, None]
    ties = 0
    for r_in in trace.round_inputs[:-1]:
        for _, s, e in gnn._blocks(graph):
            block = weights[s:e] * r_in[graph.edge_src[s:e]]
            top = block.max(axis=0)
            at_top = block == top
            negative = (at_top & np.signbit(block)).any(axis=0)
            positive = (at_top & ~np.signbit(block)).any(axis=0)
            ties += int(np.count_nonzero((top == 0.0) & negative & positive))
    return ties


def signed_zero_case():
    """Edge weights of both signs on inputs that dropout mostly zeroes: a
    zeroed input keeps its sign, so blocks tie +0.0 against -0.0."""
    rng = np.random.default_rng(13)
    graph, n_edge = text_graph(rng.integers(1, 12, size=40).tolist(), window=4)
    params = random_params(rng, 12, 6, n_edge, 3)
    params.edge_weights[:] = rng.choice([-1.0, 1.0], size=n_edge)
    return params, graph


@pytest.mark.parametrize("rounds", [1, 2])
def test_signed_zero_ties_go_to_the_first_row_as_in_the_oracle(rounds):
    params, graph = signed_zero_case()
    ties = 0
    for seed in range(6):
        got = gnn.forward(params, graph, dropout=0.75, training=True,
                          rng=np.random.default_rng(seed), rounds=rounds)
        want = gnn_oracle.forward(params, graph, dropout=0.75, training=True,
                                  rng=np.random.default_rng(seed), rounds=rounds)
        assert_same_trace(got, want)
        ties += signed_zero_ties(got, graph, params)
    assert ties > 0


def unchecked_classify(params, readout, doc_id):
    """`_classify` without its refusal of non-finite probabilities."""
    logits = params.classifier_weights @ readout + params.classifier_bias
    return logits, gnn.softmax(np.maximum(logits, 0.0))


@pytest.mark.parametrize("rounds", [1, 2])
def test_nan_lanes_pool_as_in_the_oracle(monkeypatch, rounds):
    # one lane of one source row is NaN: every block that source feeds has a
    # lane with no max, whose winner is argmax's first NaN
    params, graph = signed_zero_case()
    params.embeddings[graph.node_ids[graph.edge_src[0]], 2] = np.nan
    with pytest.raises(NonFiniteActivationError):
        gnn.forward(params, graph, rounds=rounds)
    monkeypatch.setattr(gnn, "_classify", unchecked_classify)
    monkeypatch.setattr(gnn_oracle, "_classify", unchecked_classify)
    for seed in range(3):
        got = gnn.forward(params, graph, dropout=0.5, training=True,
                          rng=np.random.default_rng(seed), rounds=rounds)
        want = gnn_oracle.forward(params, graph, dropout=0.5, training=True,
                                  rng=np.random.default_rng(seed), rounds=rounds)
        assert_same_trace(got, want)
        assert np.isnan(got.messages[-1]).any()
        assert np.all(got.winners[-1][graph.edge_dst] >= 0)


# --- backward ------------------------------------------------------------------


def pairwise_backward(trace, graph, params, label, out):
    """`backward` as it scattered before: through (row, lane) index pairs
    taken from an (n x d) mask of the winners."""
    p = trace.probabilities
    if float(p[label]) <= gnn.LOG_CLAMP:
        return out
    d_act = p.copy()
    d_act[label] -= 1.0
    d_logits = np.where(trace.logits > 0.0, d_act, 0.0)
    out.classifier_weights += np.outer(d_logits, trace.readout)
    out.classifier_bias += d_logits
    d_readout = params.classifier_weights.T @ d_logits
    eta = trace.gate_values
    d_out = np.tile(d_readout, (trace.n_nodes, 1))
    for t in reversed(range(trace.rounds)):
        r_in, msg, winners = (trace.round_inputs[t], trace.messages[t],
                              trace.winners[t])
        d_eta = (d_out * (r_in - msg)).sum(axis=1)
        np.add.at(out.gates, graph.node_ids, d_eta * eta * (1.0 - eta))
        d_msg = d_out * (1.0 - eta)[:, None]
        d_in = d_out * eta[:, None]
        valid = winners >= 0
        if valid.any():
            entry = winners[valid]
            _, dim_idx = np.nonzero(valid)
            src = graph.edge_src[entry]
            pidx = graph.edge_param[entry]
            d_contrib = d_msg[valid]
            np.add.at(out.edge_weights, pidx, d_contrib * r_in[src, dim_idx])
            np.add.at(d_in, (src, dim_idx), d_contrib * params.edge_weights[pidx])
        d_out = d_in
    if trace.dropout_mask is not None:
        d_out = d_out * trace.dropout_mask
    np.add.at(out.embeddings, graph.node_ids, d_out)
    return out


@pytest.mark.parametrize("rounds", [1, 2, 3])
@pytest.mark.parametrize("order", ["C", "F"])
def test_backward_matches_the_pairwise_scatter(rounds, order):
    # gradients land on sums that earlier graphs of the batch left behind,
    # so the order of the adds into each element must not change either,
    # also where a graph's rows span several chunks
    rng = np.random.default_rng(17)
    cases = [*oracle_cases(rng), signed_zero_case(),
             *chunked_cases(np.random.default_rng(19))]
    for seed, (params, graph) in enumerate(cases):
        trace = gnn.forward(params, graph, dropout=0.5, training=True,
                            rng=np.random.default_rng(seed), rounds=rounds)
        for label in range(params.n_classes):
            start = random_params(rng, params.vocab_size, params.dim,
                                  params.edge_weights.shape[0], params.n_classes)
            got, want = start.copy(), start.copy()
            got.embeddings = np.asarray(got.embeddings, order=order)
            gnn.backward(trace, graph, params, label, out=got)
            pairwise_backward(trace, graph, params, label, want)
            assert_same_params(got, want)


# --- optimizer -----------------------------------------------------------------


def adam_case(rng, vocab, dim, n_edge, order="C"):
    params = random_params(rng, vocab, dim, n_edge, 3)
    params.embeddings = np.asarray(params.embeddings, order=order)
    grads = random_params(rng, vocab, dim, n_edge, 3)
    return params, grads


@pytest.mark.parametrize("chunk", [None, 1, 7, 1000])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
def test_adam_matches_the_whole_array_update(monkeypatch, chunk, order, weight_decay):
    if chunk is not None:
        monkeypatch.setattr(gnn, "ADAM_CHUNK", chunk)
    rng = np.random.default_rng(5)
    # sizes that are no multiple of the chunk or of the row length
    vocab, dim, n_edge = gnn.ADAM_CHUNK // 7 + 13, 9, gnn.ADAM_CHUNK * 2 + 3
    params, grads = adam_case(rng, vocab, dim, n_edge, order)
    expected = params.copy()
    expected.embeddings = np.asarray(expected.embeddings, order=order)
    state = gnn.AdamState.for_params(params)
    expected_state = gnn.AdamState.for_params(expected)
    for step in range(3):
        gnn.adam_update(params, grads, state, learning_rate=1e-2,
                        weight_decay=weight_decay)
        gnn_oracle.adam_update(expected, grads, expected_state, learning_rate=1e-2,
                               weight_decay=weight_decay)
        assert state.step == expected_state.step == step + 1
        assert_same_params(params, expected)
        for name, _ in params.named_arrays():
            assert_same(state.m[name], expected_state.m[name])
            assert_same(state.v[name], expected_state.v[name])
    assert params.embeddings.flags.f_contiguous == (order == "F")


# --- training ------------------------------------------------------------------


def training_set(rng, n=20, vocab=14, dim=5):
    """Three labels, each with its own band of token ids."""
    docs, labels = [], []
    for i in range(n):
        label = i % 3
        ids = (1 + 4 * label + rng.integers(0, 5, size=int(rng.integers(1, 9)))) % vocab
        docs.append(EncodedDocument(doc_id=f"t{i}", token_ids=tuple(ids.tolist()),
                                    raw_story_point=2))
        labels.append(label)
    table = assign_edge_params(count_cooccurrences(docs, 3), 1)
    graphs = [build_graph(d, 3, table, label=y) for d, y in zip(docs, labels)]
    params = gnn.init_parameters(rng.normal(scale=0.3, size=(vocab, dim)),
                                 table.num_edge_params, 3, seed=1)
    return params, graphs


@pytest.mark.parametrize("rounds", [1, 2])
@pytest.mark.parametrize("with_validation", [True, False])
def test_two_epoch_training_matches_the_oracle(monkeypatch, rounds, with_validation):
    monkeypatch.setattr(gnn, "ADAM_CHUNK", 11)
    params, graphs = training_set(np.random.default_rng(3))
    val = graphs[14:] if with_validation else []
    config = gnn.TrainConfig(max_epochs=2, patience=2, batch_size=4, dropout=0.5,
                             learning_rate=0.05, weight_decay=1e-3, rounds=rounds,
                             seed=9)
    got = gnn.train(params.copy(), graphs[:14], val, config)
    want, curve = gnn_oracle.train(params, graphs[:14], val, config)
    assert_same_params(got.params, want.params)
    assert got.best_epoch == want.best_epoch
    assert got.best_val_accuracy == want.best_val_accuracy
    assert [(e.train_loss, e.val_accuracy) for e in got.epochs] == curve


@pytest.mark.parametrize("rounds", [1, 2])
def test_training_on_graphs_of_several_chunks_matches_the_oracle(rounds):
    rng = np.random.default_rng(21)
    chunk = gnn.ROW_CHUNK
    vocab, length = 5 * chunk, 3 * chunk + chunk // 2
    docs = [EncodedDocument(doc_id=f"c{i}",
                            token_ids=tuple(rng.permutation(vocab)[:length].tolist()),
                            raw_story_point=2) for i in range(6)]
    table = assign_edge_params(count_cooccurrences(docs, 3), 2)
    graphs = [build_graph(d, 3, table, label=i % 3) for i, d in enumerate(docs)]
    params = gnn.init_parameters(rng.normal(scale=0.3, size=(vocab, 4)),
                                 table.num_edge_params, 3, seed=1)
    config = gnn.TrainConfig(max_epochs=2, patience=2, batch_size=2, dropout=0.5,
                             learning_rate=0.05, weight_decay=1e-3, rounds=rounds,
                             seed=9)
    got = gnn.train(params.copy(), graphs[:4], graphs[4:], config)
    want, curve = gnn_oracle.train(params, graphs[:4], graphs[4:], config)
    assert_same_params(got.params, want.params)
    assert got.best_epoch == want.best_epoch
    assert [(e.train_loss, e.val_accuracy) for e in got.epochs] == curve


def test_training_keeps_the_best_epoch_not_the_last():
    # a step large enough to lose validation accuracy after epoch 1
    params, graphs = training_set(np.random.default_rng(4))
    config = gnn.TrainConfig(max_epochs=6, patience=6, batch_size=3, dropout=0.0,
                             learning_rate=0.5, seed=2)
    got = gnn.train(params.copy(), graphs[:14], graphs[14:], config)
    want, _ = gnn_oracle.train(params, graphs[:14], graphs[14:], config)
    assert got.best_epoch == want.best_epoch < len(got.epochs)
    assert_same_params(got.params, want.params)


# --- working set ---------------------------------------------------------------


def dense_instance(n_nodes=80, dim=300):
    """Every ordered pair of distinct nodes is an entry: 6,320 entries."""
    rng = np.random.default_rng(0)
    dst, src = np.divmod(np.arange(n_nodes * n_nodes), n_nodes)
    keep = dst != src
    graph = DocumentGraph(
        doc_id="dense", label=0,
        node_ids=np.arange(n_nodes, dtype=np.int64),
        edge_src=src[keep], edge_dst=dst[keep],
        edge_param=rng.integers(0, 50, size=int(keep.sum())),
    )
    return random_params(rng, n_nodes, dim, 50, 4), graph


def test_forward_and_predict_never_hold_an_entries_by_dim_array(traced_peak):
    params, graph = dense_instance()
    assert graph.n_entries >= 5000 and params.dim == 300
    bound = graph.n_entries * params.dim * 8 // 4
    rng = np.random.default_rng(1)
    assert traced_peak(lambda: gnn.forward(params, graph, dropout=0.5, rng=rng,
                                           training=True)) < bound
    assert traced_peak(lambda: gnn.predict(params, graph)) < bound


def test_adam_step_temporaries_stay_small(traced_peak):
    rng = np.random.default_rng(2)
    params, grads = adam_case(rng, 4000, 300, 5000)
    state = gnn.AdamState.for_params(params)
    peak = traced_peak(lambda: gnn.adam_update(params, grads, state,
                                               learning_rate=1e-3,
                                               weight_decay=1e-4))
    assert peak < 1_000_000


def test_forward_holds_its_trace_and_a_few_node_by_dim_arrays(traced_peak):
    # the trace keeps five (n x d) arrays here (the dropout mask, both
    # round inputs, the messages and the winners); the pass peaks at 6.75
    # such arrays, and peaked at 10.41 while it built the winners, the
    # messages and the gated update whole; the bound leaves 0.5 of margin
    params, graph = dense_instance()
    bound = 7.25 * graph.n_nodes * params.dim * 8
    rng = np.random.default_rng(1)
    assert traced_peak(lambda: gnn.forward(params, graph, dropout=0.5, rng=rng,
                                           training=True)) <= bound


def test_backward_holds_a_few_node_by_dim_arrays(traced_peak):
    # one (n x d) gradient array and chunk-sized temporaries: 2.66 such
    # arrays here; 8.05 with whole-graph temporaries, 11.2 with the
    # pairwise scatter; the bound leaves about 0.6 of margin
    params, graph = dense_instance()
    trace = gnn.forward(params, graph, dropout=0.5, rng=np.random.default_rng(1),
                        training=True)
    # label 0 sits on the LOG_CLAMP plateau, where backward returns at once
    label = int(np.argmax(trace.probabilities))
    assert trace.probabilities[label] > gnn.LOG_CLAMP
    grads = gnn.ModelParameters.zeros_like(params)
    bound = 3.25 * graph.n_nodes * params.dim * 8
    assert traced_peak(lambda: gnn.backward(trace, graph, params, label,
                                            out=grads)) <= bound
