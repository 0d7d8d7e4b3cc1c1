"""Frozen reference GNN passes: the whole-array forms the bounded-memory
code in storygraph.gnn replaced, kept as the oracle its traces,
probabilities and parameters must equal array for array.

`forward` builds every entry's weighted source row at once and pools each
destination's slice of it; `predict` pools all destinations in one
`np.maximum.reduceat`; `adam_update` updates each parameter array whole;
`train` allocates a fresh gradient set per batch, with the dense (V x d)
embedding gradient that the program's gradient over a batch's rows must
equal, and a fresh copy of the parameters per improved epoch.

`backward` is the program's own, imported, not a frozen copy: its
reference is `pairwise_backward` in tests/test_gnn_oracle.py. Called here
without `rows`, it fills the dense embedding gradient.
"""

from __future__ import annotations

import numpy as np

from storygraph.gnn import (
    DECAYED_ARRAYS,
    AdamState,
    ForwardTrace,
    ModelParameters,
    TrainResult,
    _check_graph,
    _classify,
    backward,
    loss,
    sigmoid,
)


def forward(params, graph, dropout=0.0, rng=None, training=False, rounds=1):
    _check_graph(params, graph)
    n = graph.n_nodes
    r = params.embeddings[graph.node_ids]
    mask = None
    if training and dropout > 0.0:
        if rng is None:
            raise ValueError("training dropout needs a random generator")
        keep = rng.random(r.shape) >= dropout
        mask = keep / (1.0 - dropout)
        r = r * mask

    eta = sigmoid(params.gates[graph.node_ids])

    positions = np.arange(n)
    starts = np.searchsorted(graph.edge_dst, positions, side="left")
    ends = np.searchsorted(graph.edge_dst, positions, side="right")

    round_inputs = [r]
    messages = []
    winners_all = []
    dim = params.dim
    for _ in range(rounds):
        r_prev = round_inputs[-1]
        contrib = (
            params.edge_weights[graph.edge_param][:, None] * r_prev[graph.edge_src]
            if graph.n_entries
            else np.zeros((0, dim))
        )
        msg = np.zeros((n, dim))
        winners = np.full((n, dim), -1, dtype=np.int64)
        for node in range(n):
            s, e = starts[node], ends[node]
            if s == e:
                continue
            block = contrib[s:e]
            am = np.argmax(block, axis=0)
            msg[node] = block[am, np.arange(dim)]
            winners[node] = s + am
        updated = (1.0 - eta)[:, None] * msg + eta[:, None] * r_prev
        messages.append(msg)
        winners_all.append(winners)
        round_inputs.append(updated)

    readout = round_inputs[-1].sum(axis=0)
    logits, probabilities = _classify(params, readout, graph.doc_id)
    return ForwardTrace(
        doc_id=graph.doc_id,
        n_nodes=n,
        rounds=rounds,
        dropout_mask=mask,
        gate_values=eta,
        round_inputs=round_inputs,
        messages=messages,
        winners=winners_all,
        readout=readout,
        logits=logits,
        probabilities=probabilities,
    )


def predict(params, graph, rounds=1):
    _check_graph(params, graph)
    r = params.embeddings[graph.node_ids]
    eta = sigmoid(params.gates[graph.node_ids])[:, None]
    weights = params.edge_weights[graph.edge_param][:, None]
    starts = np.flatnonzero(np.diff(graph.edge_dst, prepend=-1))
    receivers = graph.edge_dst[starts]
    msg = np.zeros_like(r)
    for _ in range(rounds):
        msg[receivers] = np.maximum.reduceat(
            weights * r[graph.edge_src], starts, axis=0
        )
        r = (1.0 - eta) * msg + eta * r
    _, probabilities = _classify(params, r.sum(axis=0), graph.doc_id)
    return int(np.argmax(probabilities)), probabilities


def adam_update(params, grads, state, learning_rate, weight_decay=0.0,
                beta1=0.9, beta2=0.999, eps=1e-8):
    state.step += 1
    bc1 = 1.0 - beta1**state.step
    bc2 = 1.0 - beta2**state.step
    for name, arr in params.named_arrays():
        g = getattr(grads, name)
        if weight_decay and name in DECAYED_ARRAYS:
            g = g + weight_decay * arr
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        arr -= learning_rate * (m / bc1) / (np.sqrt(v / bc2) + eps)


def evaluate_accuracy(params, graphs, rounds=1):
    if not graphs:
        return 0.0
    hits = sum(predict(params, g, rounds=rounds)[0] == g.label for g in graphs)
    return hits / len(graphs)


def train(initial, train_graphs, val_graphs, config):
    """The training loop without timings: parameters, best epoch and the
    per-epoch (loss, validation accuracy) curve."""
    params = initial.copy()
    rng = np.random.default_rng(config.seed)
    adam = AdamState.for_params(params)
    result = TrainResult(params=params)
    best = params.copy()
    best_acc = -1.0
    stale_epochs = 0
    curve = []

    n = len(train_graphs)
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, config.batch_size):
            batch = order[lo : lo + config.batch_size]
            grads = ModelParameters.zeros_like(params)
            batch_loss = 0.0
            for i in batch:
                g = train_graphs[i]
                trace = forward(params, g, dropout=config.dropout, rng=rng,
                                training=True, rounds=config.rounds)
                batch_loss += loss(trace.probabilities, g.label)
                backward(trace, g, params, g.label, out=grads)
            scale = 1.0 / len(batch)
            for _, arr in grads.named_arrays():
                arr *= scale
            adam_update(params, grads, adam, learning_rate=config.learning_rate,
                        weight_decay=config.weight_decay)
            epoch_loss += batch_loss
        params.validate_finite()

        val_acc = evaluate_accuracy(params, val_graphs, rounds=config.rounds)
        curve.append((epoch_loss / n, val_acc))
        if not val_graphs:
            best = params.copy()
            result.best_epoch = epoch
            continue
        if val_acc > best_acc:
            best_acc = val_acc
            best = params.copy()
            result.best_epoch = epoch
            result.best_val_accuracy = val_acc
            stale_epochs = 0
        else:
            stale_epochs += 1
            if stale_epochs >= config.patience:
                break

    result.params = best
    return result, curve

