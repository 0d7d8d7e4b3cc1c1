"""Model math: frozen forward oracle, finite-difference gradient checks,
pooling tie-breaks, and training-loop behavior."""

import numpy as np
import pytest

from storygraph.corpus import StoryPointLevel
from storygraph.embeddings import EncodedDocument
from storygraph.errors import (
    IndexOutOfRangeError,
    InvalidLabelError,
    NonFiniteActivationError,
    TraceMismatchError,
    UnknownClassIndexError,
)
from storygraph import gnn
from storygraph.graph import (
    DocumentGraph,
    assign_edge_params,
    build_graph,
    count_cooccurrences,
)

FD_STEP = 1e-4
FD_TOLERANCE = 1e-4


def doc(ids, doc_id="d", sp=2):
    return EncodedDocument(
        doc_id=doc_id,
        token_ids=tuple(ids),
        level=StoryPointLevel.SMALL,
        raw_story_point=sp,
    )


def graph_for(ids, window=2, k=1, label=0):
    d = doc(ids)
    table = assign_edge_params(count_cooccurrences([d], window), k, window)
    return build_graph(d, window, table, label=label), table


def hand_instance():
    """Two nodes x (id 1) and y (id 2); every number below is hand-derived.

    r_x=(1,-2), r_y=(0.5,0.25); edge x->y weight 2, y->x weight -1; raw
    gates 0 so eta=0.5. M_y = 2*r_x = (2,-4); M_x = -1*r_y = (-0.5,-0.25).
    Updated: r'_x = (0.25,-1.125), r'_y = (1.25,-1.875). Readout (1.5,-3).
    W=I, b=(0,0.5) gives logits (1.5,-2.5), relu (1.5,0), and
    p = softmax(1.5, 0) = (0.81757447..., 0.18242552...).
    """
    params = gnn.ModelParameters(
        embeddings=np.array([[0.0, 0.0], [1.0, -2.0], [0.5, 0.25]]),
        edge_weights=np.array([1.0, 2.0, -1.0]),
        gates=np.zeros(3),
        classifier_weights=np.eye(2),
        classifier_bias=np.array([0.0, 0.5]),
    )
    graph = DocumentGraph(
        doc_id="toy",
        label=0,
        node_ids=np.array([1, 2], dtype=np.int64),
        edge_src=np.array([1, 0], dtype=np.int64),
        edge_dst=np.array([0, 1], dtype=np.int64),
        edge_param=np.array([2, 1], dtype=np.int64),
    )
    return params, graph


# --- forward oracle ----------------------------------------------------------


def test_forward_hand_oracle():
    params, graph = hand_instance()
    trace = gnn.forward(params, graph)
    assert np.allclose(trace.messages[0], [[-0.5, -0.25], [2.0, -4.0]], atol=0)
    assert np.allclose(
        trace.round_inputs[-1], [[0.25, -1.125], [1.25, -1.875]], atol=0
    )
    assert np.allclose(trace.readout, [1.5, -3.0], atol=0)
    assert np.allclose(trace.logits, [1.5, -2.5], atol=0)
    assert np.allclose(
        trace.probabilities,
        [0.8175744761936437, 0.18242552380635635],
        atol=1e-15,
    )
    assert gnn.loss(trace.probabilities, 0) == pytest.approx(
        0.2014132779827524, abs=1e-15
    )


def test_forward_no_incoming_node_gets_zero_message():
    g, _ = graph_for([4])  # single token: no edges at all
    params = gnn.init_parameters(np.ones((6, 3)), 1, 2, seed=0)
    trace = gnn.forward(params, g)
    assert np.array_equal(trace.messages[0], np.zeros((1, 3)))
    assert np.all(trace.winners[0] == -1)
    # eta=0.5 at raw gate 0: update halves the input representation
    assert np.allclose(trace.round_inputs[-1], 0.5 * trace.round_inputs[0])


def test_forward_gate_extremes():
    g, table = graph_for([1, 2, 3])
    rng = np.random.default_rng(0)
    emb = rng.normal(size=(5, 4))
    base = gnn.ModelParameters(
        embeddings=emb,
        edge_weights=rng.normal(size=table.num_edge_params),
        gates=np.full(5, 20.0),
        classifier_weights=rng.normal(size=(2, 4)),
        classifier_bias=np.zeros(2),
    )
    keep = gnn.forward(base, g)  # eta ~ 1: nodes keep their own representation
    assert np.allclose(keep.round_inputs[-1], keep.round_inputs[0], atol=1e-7)
    base.gates[:] = -20.0
    swap = gnn.forward(base, g)  # eta ~ 0: nodes become their pooled message
    assert np.allclose(swap.round_inputs[-1], swap.messages[0], atol=1e-7)


def test_forward_max_tie_breaks_to_lowest_source_position():
    # a (pos 0) and b (pos 1) both feed c (pos 2) with identical
    # contributions; the winner must be the entry whose source is a
    params = gnn.ModelParameters(
        embeddings=np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.5, 0.5]]),
        edge_weights=np.array([1.0, 3.0, 3.0]),
        gates=np.zeros(4),
        classifier_weights=np.eye(2),
        classifier_bias=np.zeros(2),
    )
    graph = DocumentGraph(
        doc_id="tie",
        label=0,
        node_ids=np.array([1, 2, 3], dtype=np.int64),
        edge_src=np.array([0, 1], dtype=np.int64),
        edge_dst=np.array([2, 2], dtype=np.int64),
        edge_param=np.array([1, 2], dtype=np.int64),
    )
    trace = gnn.forward(params, graph)
    winners = trace.winners[0][2]
    assert np.all(winners == 0)  # entry 0 is the (src 0 -> dst 2) edge
    assert np.all(graph.edge_src[winners] == 0)


def test_forward_rounds_recorded():
    g, table = graph_for([1, 2, 3, 2])
    params = gnn.init_parameters(np.random.default_rng(1).normal(size=(5, 3)),
                                 table.num_edge_params, 2, seed=0)
    trace = gnn.forward(params, g, rounds=3)
    assert trace.rounds == 3
    assert len(trace.messages) == 3
    assert len(trace.round_inputs) == 4


def test_forward_validates_ids():
    g, table = graph_for([1, 2])
    params = gnn.init_parameters(np.zeros((2, 3)), table.num_edge_params, 2, seed=0)
    with pytest.raises(IndexOutOfRangeError):
        gnn.forward(params, g)  # node id 2 outside vocab of 2


def test_forward_validates_edge_params():
    params, graph = hand_instance()
    params.edge_weights = params.edge_weights[:2]  # drop index 2, still used
    with pytest.raises(IndexOutOfRangeError):
        gnn.forward(params, graph)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_forward_nonfinite_detected():
    params, graph = hand_instance()
    params.embeddings[1, 0] = np.inf
    with pytest.raises(NonFiniteActivationError):
        gnn.forward(params, graph)


def test_forward_dropout_needs_rng():
    params, graph = hand_instance()
    with pytest.raises(ValueError):
        gnn.forward(params, graph, dropout=0.5, training=True)


def test_loss_clamp_and_label_validation():
    probs = np.array([1.0, 0.0])
    assert gnn.loss(probs, 1) == pytest.approx(-np.log(1e-12))
    with pytest.raises(InvalidLabelError):
        gnn.loss(probs, 2)
    with pytest.raises(InvalidLabelError):
        gnn.loss(probs, -1)


# --- gradients ---------------------------------------------------------------


def numeric_gradient_check(params, graph, label, rounds=1, forward_kwargs=None):
    """Max relative error between analytic and central-difference gradients."""
    kwargs = forward_kwargs or {}

    def loss_at(p):
        trace = gnn.forward(p, graph, rounds=rounds, **kwargs)
        return gnn.loss(trace.probabilities, label)

    trace = gnn.forward(params, graph, rounds=rounds, **kwargs)
    grads = gnn.backward(trace, graph, params, label)
    worst = 0.0
    for name, arr in params.named_arrays():
        analytic = getattr(grads, name)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            original = arr[idx]
            arr[idx] = original + FD_STEP
            up = loss_at(params)
            arr[idx] = original - FD_STEP
            down = loss_at(params)
            arr[idx] = original
            numeric = (up - down) / (2 * FD_STEP)
            a = float(analytic[idx])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-3)
            worst = max(worst, rel)
    return worst


def random_instance(rng):
    vocab = int(rng.integers(3, 12))
    dim = int(rng.integers(2, 6))
    n_classes = int(rng.integers(2, 5))
    length = int(rng.integers(1, 9))
    window = int(rng.integers(1, 4))
    k = int(rng.integers(1, 3))
    ids = rng.integers(1, vocab, size=length).tolist()
    d = doc(ids)
    table = assign_edge_params(count_cooccurrences([d], window), k, window)
    graph = build_graph(d, window, table, label=int(rng.integers(0, n_classes)))
    params = gnn.ModelParameters(
        embeddings=rng.normal(size=(vocab, dim)),
        edge_weights=rng.normal(size=table.num_edge_params),
        gates=rng.normal(size=vocab),
        classifier_weights=rng.normal(size=(n_classes, dim)),
        classifier_bias=rng.normal(size=n_classes),
    )
    return params, graph


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(20240917)
    for _ in range(12):
        params, graph = random_instance(rng)
        worst = numeric_gradient_check(params, graph, graph.label)
        assert worst < FD_TOLERANCE


def test_gradients_match_finite_differences_two_rounds():
    rng = np.random.default_rng(7)
    for _ in range(6):
        params, graph = random_instance(rng)
        worst = numeric_gradient_check(params, graph, graph.label, rounds=2)
        assert worst < FD_TOLERANCE


class FixedDraws:
    """Generator stand-in replaying one stored uniform draw, so dropout
    masks are identical across the repeated forwards of a finite-difference
    sweep."""

    def __init__(self, draws):
        self.draws = draws

    def random(self, shape):
        assert self.draws.shape == shape
        return self.draws


def test_gradients_with_fixed_dropout_mask():
    rng = np.random.default_rng(99)
    params, graph = random_instance(rng)
    draws = np.random.default_rng(5).random((graph.n_nodes, params.dim))

    def kwargs():
        return {"dropout": 0.5, "training": True, "rng": FixedDraws(draws)}

    trace = gnn.forward(params, graph, **kwargs())
    assert trace.dropout_mask is not None
    survivors = trace.dropout_mask > 0
    assert np.all(trace.dropout_mask[survivors] == pytest.approx(2.0))

    def loss_at(p):
        t = gnn.forward(p, graph, **kwargs())
        return gnn.loss(t.probabilities, graph.label)

    grads = gnn.backward(trace, graph, params, graph.label)
    worst = 0.0
    for name, arr in params.named_arrays():
        analytic = getattr(grads, name)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            original = arr[idx]
            arr[idx] = original + FD_STEP
            up = loss_at(params)
            arr[idx] = original - FD_STEP
            down = loss_at(params)
            arr[idx] = original
            numeric = (up - down) / (2 * FD_STEP)
            rel = abs(float(analytic[idx]) - numeric) / max(
                abs(float(analytic[idx])), abs(numeric), 1e-3
            )
            worst = max(worst, rel)
    assert worst < FD_TOLERANCE


def test_backward_routes_only_to_argmax_winner():
    params, graph = hand_instance()
    trace = gnn.forward(params, graph)
    grads = gnn.backward(trace, graph, params, 0)
    # the public edge weight (index 0) is never used: zero gradient
    assert grads.edge_weights[0] == 0.0
    assert grads.edge_weights[1] != 0.0
    assert grads.edge_weights[2] != 0.0


def test_backward_accumulates_into_out():
    params, graph = hand_instance()
    trace = gnn.forward(params, graph)
    single = gnn.backward(trace, graph, params, 0)
    acc = gnn.ModelParameters.zeros_like(params)
    gnn.backward(trace, graph, params, 0, out=acc)
    gnn.backward(trace, graph, params, 0, out=acc)
    for name, arr in acc.named_arrays():
        assert np.allclose(arr, 2.0 * getattr(single, name))


def test_backward_trace_mismatch():
    params, graph = hand_instance()
    trace = gnn.forward(params, graph)
    other, _ = graph_for([1, 2, 1], label=0)
    with pytest.raises(TraceMismatchError):
        gnn.backward(trace, other, params, 0)


def test_forward_invariant_under_node_relabeling():
    # permuting node positions (and remapping/re-sorting the adjacency)
    # must not change the readout or the probabilities
    rng = np.random.default_rng(13)
    params, graph = random_instance(rng)
    perm = rng.permutation(graph.n_nodes)
    inverse = np.argsort(perm)

    new_src = inverse[graph.edge_src]
    new_dst = inverse[graph.edge_dst]
    order = np.lexsort((new_src, new_dst))
    permuted = DocumentGraph(
        doc_id=graph.doc_id,
        label=graph.label,
        node_ids=graph.node_ids[perm],
        edge_src=new_src[order],
        edge_dst=new_dst[order],
        edge_param=graph.edge_param[order],
    )
    a = gnn.forward(params, graph)
    b = gnn.forward(params, permuted)
    assert np.allclose(a.readout, b.readout, atol=1e-12)
    assert np.allclose(a.probabilities, b.probabilities, atol=1e-12)


# --- optimizer and training ----------------------------------------------------


def small_training_set(n=24, seed=0):
    """Two 'topics' with disjoint vocabulary: trivially separable."""
    rng = np.random.default_rng(seed)
    docs_and_labels = []
    for i in range(n):
        label = i % 2
        base = 1 if label == 0 else 5
        ids = (base + rng.integers(0, 4, size=6)).tolist()
        docs_and_labels.append((doc(ids, doc_id=f"t{i}"), label))
    all_docs = [d for d, _ in docs_and_labels]
    table = assign_edge_params(count_cooccurrences(all_docs, 2), 1, 2)
    graphs = [
        build_graph(d, 2, table, label=lab) for d, lab in docs_and_labels
    ]
    params = gnn.init_parameters(
        np.random.default_rng(seed + 1).normal(scale=0.1, size=(9, 6)),
        table.num_edge_params,
        2,
        seed=seed + 2,
    )
    return params, graphs


def test_zero_learning_rate_keeps_parameters():
    params, graphs = small_training_set()
    config = gnn.TrainConfig(learning_rate=0.0, max_epochs=3, dropout=0.0,
                             batch_size=4, seed=1)
    result = gnn.train(params, graphs[:16], graphs[16:], config)
    for name, arr in result.params.named_arrays():
        assert np.array_equal(arr, getattr(params, name))
    initial_acc = gnn.evaluate_accuracy(params, graphs[16:])
    assert result.epochs[-1].val_accuracy == pytest.approx(initial_acc)


def test_training_is_deterministic():
    params, graphs = small_training_set()
    config = gnn.TrainConfig(max_epochs=5, batch_size=4, seed=3)
    a = gnn.train(params, graphs[:16], graphs[16:], config)
    b = gnn.train(params, graphs[:16], graphs[16:], config)
    assert all(
        np.array_equal(arr, getattr(b.params, name))
        for name, arr in a.params.named_arrays()
    )
    assert [e.train_loss for e in a.epochs] == [e.train_loss for e in b.epochs]


def test_training_learns_separable_toy_problem():
    params, graphs = small_training_set()
    config = gnn.TrainConfig(max_epochs=60, batch_size=8, dropout=0.0,
                             learning_rate=5e-3, patience=60, seed=4)
    result = gnn.train(params, graphs, graphs, config)
    assert result.best_val_accuracy == 1.0
    assert result.epochs[0].train_loss > result.epochs[-1].train_loss


def test_training_early_stops_on_patience():
    params, graphs = small_training_set()
    config = gnn.TrainConfig(learning_rate=0.0, max_epochs=50, dropout=0.0,
                             patience=4, batch_size=8, seed=5)
    result = gnn.train(params, graphs[:16], graphs[16:], config)
    # accuracy never improves after epoch 1 at lr 0
    assert len(result.epochs) == 1 + config.patience
    assert result.best_epoch == 1


def test_training_keeps_best_validation_parameters():
    params, graphs = small_training_set()
    config = gnn.TrainConfig(max_epochs=25, batch_size=8, dropout=0.0,
                             learning_rate=5e-3, patience=25, seed=6)
    result = gnn.train(params, graphs[:16], graphs[16:], config)
    best = max(e.val_accuracy for e in result.epochs)
    assert gnn.evaluate_accuracy(result.params, graphs[16:]) == pytest.approx(best)
    assert result.best_val_accuracy == pytest.approx(best)


def test_training_abort_carries_epoch_context():
    params, graphs = small_training_set()
    params.embeddings[3, 0] = np.nan
    config = gnn.TrainConfig(max_epochs=2, batch_size=8, seed=7)
    with pytest.raises(NonFiniteActivationError, match="epoch 1"):
        gnn.train(params, graphs, [], config)


def test_adam_moves_toward_gradient_descent_direction():
    params, graph = hand_instance()
    trace = gnn.forward(params, graph)
    grads = gnn.backward(trace, graph, params, 0)
    state = gnn.AdamState.for_params(params)
    before = params.copy()
    gnn.adam_update(params, grads, state, learning_rate=1e-3)
    moved = params.embeddings[1] - before.embeddings[1]
    assert np.all(np.sign(moved[grads.embeddings[1] != 0])
                  == -np.sign(grads.embeddings[1][grads.embeddings[1] != 0]))


# --- inference -----------------------------------------------------------------


def test_predict_tie_breaks_to_lowest_class():
    g, table = graph_for([1, 2])
    params = gnn.ModelParameters(
        embeddings=np.zeros((3, 2)),
        edge_weights=np.ones(table.num_edge_params),
        gates=np.zeros(3),
        classifier_weights=np.zeros((3, 2)),
        classifier_bias=np.zeros(3),
    )
    index, probs = gnn.predict(params, g)
    assert index == 0
    assert np.allclose(probs, np.full(3, 1 / 3))


def test_predict_story_point_maps_class_to_value():
    params, graph = hand_instance()
    assert gnn.predict_story_point(params, graph, class_values=(3, 8)) == 3
    with pytest.raises(UnknownClassIndexError):
        gnn.predict_story_point(params, graph, class_values=())


def isolated_node_instance(rng, dim=4):
    """Three nodes; node 0 has no incoming entry, node 2 takes two."""
    params = gnn.ModelParameters(
        embeddings=rng.normal(size=(5, dim)),
        edge_weights=rng.normal(size=3),
        gates=rng.normal(size=5),
        classifier_weights=rng.normal(size=(3, dim)),
        classifier_bias=rng.normal(size=3),
    )
    graph = DocumentGraph(
        doc_id="iso",
        label=0,
        node_ids=np.array([4, 1, 3], dtype=np.int64),
        edge_src=np.array([0, 0, 1], dtype=np.int64),
        edge_dst=np.array([1, 2, 2], dtype=np.int64),
        edge_param=np.array([1, 2, 0], dtype=np.int64),
    )
    return params, graph


@pytest.mark.parametrize("rounds", [1, 2])
def test_predict_probabilities_equal_forward(rounds):
    rng = np.random.default_rng(31)
    cases = [hand_instance(), isolated_node_instance(rng)]
    one, table = graph_for([2])
    assert one.n_nodes == 1 and one.n_entries == 0
    cases.append((gnn.init_parameters(rng.normal(size=(3, 4)),
                                      table.num_edge_params, 3, seed=1), one))
    cases += [random_instance(rng) for _ in range(12)]
    for params, graph in cases:
        trace = gnn.forward(params, graph, rounds=rounds)
        index, probs = gnn.predict(params, graph, rounds=rounds)
        assert np.array_equal(probs, trace.probabilities)
        assert index == int(np.argmax(trace.probabilities))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_predict_shares_forward_checks():
    g, table = graph_for([1, 2])
    params = gnn.init_parameters(np.zeros((2, 3)), table.num_edge_params, 2, seed=0)
    with pytest.raises(IndexOutOfRangeError):
        gnn.predict(params, g)
    params, graph = hand_instance()
    params.edge_weights = params.edge_weights[:2]
    with pytest.raises(IndexOutOfRangeError):
        gnn.predict(params, graph)
    params, graph = hand_instance()
    with pytest.raises(ValueError):
        gnn.predict(params, graph, rounds=0)
    params.embeddings[1, 0] = np.inf
    with pytest.raises(NonFiniteActivationError):
        gnn.predict(params, graph)
