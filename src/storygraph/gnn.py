"""The word-graph classifier: forward pass, exact gradients, training loop.

One round of message passing per document graph (configurable; at 0 rounds
the readout sums the input rows):

    r_n  = embedding row of node n (dropout-masked while training)
    M_n  = elementwise max over incoming entries (a -> n) of  e_an * r_a
           (zero vector when a node has no incoming entries)
    r'_n = (1 - eta_n) * M_n + eta_n * r_n,    eta_n = sigmoid(gate_n)
    R    = sum_n r'_n
    p    = softmax(relu(W R + b))

The forward pass records everything backward needs (dropout mask, per-round
messages and winners), so gradients are exact: max pooling routes gradient
only to the winning lane. A lane's winner is the first row of its block
equal to the lane's max, so ties go to the lowest source position, and its
message is that row's own value (of +0.0 and -0.0, the first row's sign);
a lane holding a NaN has no such row and takes `argmax`'s, its first NaN.
`predict` computes the same probabilities without recording anything.
Training is mini-batch gradient descent with adaptive moments and
early stopping on validation accuracy.

Working set: both passes pool each destination straight from its own
block of weighted source rows, so no (entries x d) array is ever built;
backward gathers winners only for nodes that receive entries and
scatter-adds through flat 1-D indices; Adam updates each array in slices
of at most ADAM_CHUNK elements through slice-sized scratch buffers; and
`train` trains its initial parameters in place and keeps one gradient
set and one best-parameter set for the whole run, zeroed and overwritten
in place. The embedding gradient holds only the batch's rows (the sorted
distinct node ids of its graphs), so training holds four (V x d) arrays:
the parameters (the caller's embedding table itself), the best copy and
the two moments; Adam reads every other row's gradient as +0.0, as a
dense gradient would give it. Per graph, `forward` allocates its
trace's (n x d) arrays (the dropout mask, 1 + rounds round inputs, and
per round the messages and winners) plus, per round, the (blocks x d)
rows of the winners, and `backward` at most two more (the gradients into
and out of a round). `forward` pools each block once and takes each
message from the block it pooled; the rest of their (n x d) work, the
gated update and backward's scatters, runs ROW_CHUNK rows at a time, and
`train` frees each trace before the next forward. Chunks take rows in
ascending order, so every element gets the adds it got from one
whole-array scatter, in the same order. Graph adjacency arrays are int32
(see DocumentGraph). None of this changes a bit of any result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .errors import (
    IndexOutOfRangeError,
    InvalidLabelError,
    NonFiniteActivationError,
    TraceMismatchError,
    check_options,
    option,
)
from .graph import DocumentGraph, _run_heads

LOG_CLAMP = 1e-12

# Arrays that receive L2 weight decay; gates parameterize a mixing
# coefficient and the bias is a plain offset, so neither is decayed.
DECAYED_ARRAYS = ("embeddings", "edge_weights", "classifier_weights")

# Elements per slice of an Adam step: its few temporaries then stay within
# a few hundred kB instead of several copies of the embedding table.
ADAM_CHUNK = 16384
# Rows per slice of the (n x d) work of `forward` and `backward` beyond the
# trace itself, so those temporaries stay chunk-sized whatever the graph.
ROW_CHUNK = 16
# Adam's moment decay rates and denominator offset (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    """Training hyperparameters. Defaults are the reference configuration,
    and the CLI's built-in defaults; each field's legal values sit beside
    its default and are checked on construction."""

    window: int = option(20, int, low=1)
    batch_size: int = option(32, int, low=1)
    dropout: float = option(0.5, float, low=0, high=1)
    learning_rate: float = option(1e-3, float, low=0)
    weight_decay: float = option(1e-4, float, low=0)
    max_epochs: int = option(300, int, low=1)
    patience: int = option(10, int, low=1)
    seed: int = option(42, int)
    min_edge_frequency: int = option(2, int, low=1)
    rounds: int = option(1, int, low=0)  # 0: no message passing

    __post_init__ = check_options


@dataclass
class ModelParameters:
    """All trainable state. Also serves as the gradient container."""

    embeddings: np.ndarray  # (V, d)
    edge_weights: np.ndarray  # (n_edge_params,), index 0 = public edge
    gates: np.ndarray  # (V,) raw pre-activations, squashed at use
    classifier_weights: np.ndarray  # (C, d)
    classifier_bias: np.ndarray  # (C,)

    @property
    def vocab_size(self) -> int:
        return int(self.embeddings.shape[0])

    @property
    def dim(self) -> int:
        return int(self.embeddings.shape[1])

    @property
    def n_classes(self) -> int:
        return int(self.classifier_bias.shape[0])

    def named_arrays(self):
        """(name, array) of every field, in declaration order, which is the
        order a model file stores them in."""
        for f in fields(self):
            yield f.name, getattr(self, f.name)

    def copy(self) -> "ModelParameters":
        return ModelParameters(
            **{name: arr.copy() for name, arr in self.named_arrays()}
        )

    def copy_from(self, other: "ModelParameters") -> None:
        """Overwrite every array in place with `other`'s values."""
        for name, arr in self.named_arrays():
            np.copyto(arr, getattr(other, name))

    @classmethod
    def zeros_like(cls, other: "ModelParameters") -> "ModelParameters":
        return cls(**{name: np.zeros_like(arr) for name, arr in other.named_arrays()})

    def validate_finite(self) -> None:
        for name, arr in self.named_arrays():
            if not np.all(np.isfinite(arr)):
                raise NonFiniteActivationError(f"non-finite values in {name}")


def init_parameters(
    embedding_matrix: np.ndarray,
    n_edge_params: int,
    n_classes: int,
    seed: int,
) -> ModelParameters:
    """Fresh parameters: the given embedding matrix, neutral edge weights
    (1.0), balanced gates (0.0 raw, i.e. eta = 0.5), Glorot-uniform
    classifier.

    The embeddings are `embedding_matrix` itself, not a copy, when it is
    already float64, and `train` writes its initial parameters: a matrix
    that must seed several runs is passed as a copy to each."""
    emb = np.asarray(embedding_matrix, dtype=np.float64)
    dim = emb.shape[1]
    rng = np.random.default_rng(seed)
    limit = np.sqrt(6.0 / (dim + n_classes))
    return ModelParameters(
        embeddings=emb,
        edge_weights=np.ones(n_edge_params, dtype=np.float64),
        gates=np.zeros(emb.shape[0], dtype=np.float64),
        classifier_weights=rng.uniform(-limit, limit, size=(n_classes, dim)),
        classifier_bias=np.zeros(n_classes, dtype=np.float64),
    )


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic transform."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(x: np.ndarray) -> np.ndarray:
    """Max-shifted softmax; output sums to 1 for any finite input."""
    shifted = x - np.max(x)
    ex = np.exp(shifted)
    return ex / ex.sum()


@dataclass
class ForwardTrace:
    """Every intermediate value of one forward pass, for exact backprop."""

    doc_id: str
    n_nodes: int
    rounds: int
    dropout_mask: np.ndarray | None  # (n, d) multiplier actually applied
    gate_values: np.ndarray  # (n,) eta in (0, 1)
    round_inputs: list[np.ndarray]  # rounds+1 arrays (n, d); [0] = masked input
    messages: list[np.ndarray]  # per round (n, d)
    winners: list[np.ndarray]  # per round (n, d) entry index, -1 = no incoming
    readout: np.ndarray  # (d,)
    logits: np.ndarray  # (C,) pre-relu
    probabilities: np.ndarray  # (C,)


def _check_graph(params: ModelParameters, graph: DocumentGraph) -> None:
    """Refuse a graph whose ids fall outside the parameters."""
    if graph.n_nodes == 0:
        raise IndexOutOfRangeError(f"{graph.doc_id}: graph has no nodes")
    if int(graph.node_ids.max()) >= params.vocab_size or int(graph.node_ids.min()) < 0:
        raise IndexOutOfRangeError(
            f"{graph.doc_id}: node id outside vocabulary of {params.vocab_size}"
        )
    if graph.n_entries and (
        int(graph.edge_param.max()) >= params.edge_weights.shape[0]
        or int(graph.edge_param.min()) < 0
    ):
        raise IndexOutOfRangeError(
            f"{graph.doc_id}: edge parameter index outside table of "
            f"{params.edge_weights.shape[0]}"
        )


def _blocks(graph: DocumentGraph) -> list[tuple[int, int, int]]:
    """(destination, start, end) of each node's block of incoming entries.

    Entries are sorted by (dst, src), so a destination's entries are
    contiguous and in ascending source order; nodes without incoming
    entries have no block.
    """
    starts = np.flatnonzero(np.diff(graph.edge_dst, prepend=-1))
    bounds = np.append(starts, graph.n_entries)
    return list(zip(graph.edge_dst[starts].tolist(), bounds[:-1].tolist(),
                    bounds[1:].tolist()))


def _classify(
    params: ModelParameters, readout: np.ndarray, doc_id: str
) -> tuple[np.ndarray, np.ndarray]:
    """Logits and class probabilities of a readout; refuses non-finite ones."""
    logits = params.classifier_weights @ readout + params.classifier_bias
    probabilities = softmax(np.maximum(logits, 0.0))
    if not np.all(np.isfinite(probabilities)):
        raise NonFiniteActivationError(f"{doc_id}: non-finite class probabilities")
    return logits, probabilities


def forward(
    params: ModelParameters,
    graph: DocumentGraph,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
    training: bool = False,
    rounds: int = 1,
) -> ForwardTrace:
    """Run the model on one graph and record the full trace.

    Dropout is applied to node input representations only, and only when
    `training` is true (inverted dropout: survivors scaled by 1/(1-p), so
    inference needs no rescaling).
    """
    _check_graph(params, graph)
    n = graph.n_nodes
    r = params.embeddings[graph.node_ids]
    mask = None
    if training and dropout > 0.0:
        if rng is None:
            raise ValueError("training dropout needs a random generator")
        # the uniform draw's own buffer becomes keep / (1 - p), and r, a
        # fresh gather, is scaled in place
        mask = rng.random(r.shape)
        np.greater_equal(mask, dropout, out=mask)
        mask /= 1.0 - dropout
        np.multiply(r, mask, out=r)

    eta = sigmoid(params.gates[graph.node_ids])
    gate_msg, gate_in = (1.0 - eta)[:, None], eta[:, None]

    # Each destination pools its own block of entries, built from its
    # sources' rows. A lane's winner is its first row equal to the lane's
    # max (the lowest source position, the tie-break backward relies on),
    # found as the hit with the largest `countdown`, whose narrowest dtype
    # keeps the (rows x d) product small; a lane with a NaN has no hit (0)
    # and its block takes argmax's rows, the first NaN. The message is the
    # winning rows' own products, read from the block, and the rows become
    # entry indices once the loop ends. The int32 source positions are
    # widened once here: numpy would cast them again for every block's
    # gather.
    blocks = _blocks(graph)
    dst = np.array([node for node, _, _ in blocks], dtype=np.intp)
    starts = np.array([s for _, s, _ in blocks], dtype=np.int64)[:, None]
    src = graph.edge_src.astype(np.intp)
    column = params.edge_weights[graph.edge_param][:, None]
    n_entries = graph.n_entries
    countdown = np.arange(n_entries, 0, -1,
                          dtype=np.min_scalar_type(n_entries))[:, None]
    dim = params.dim
    lanes = np.arange(dim)
    round_inputs = [r]
    messages: list[np.ndarray] = []
    winners_all: list[np.ndarray] = []
    for _ in range(rounds):
        r_prev = round_inputs[-1]
        msg = np.zeros((n, dim))
        rows = np.empty((len(blocks), dim), dtype=np.int64)
        for k, (node, s, e) in enumerate(blocks):
            block = r_prev[src[s:e]]
            np.multiply(column[s:e], block, out=block)
            hit = ((block == block.max(axis=0)) * countdown[s:e]).max(axis=0)
            row = n_entries - s - hit if hit.all() else np.argmax(block, axis=0)
            msg[node] = block[row, lanes]
            rows[k] = row
        block = None  # the last block is not held through the writes below
        rows += starts
        winners = np.full((n, dim), -1, dtype=np.int64)
        winners[dst] = rows
        # gate_msg * msg + gate_in * r_prev, the second product by chunks
        updated = gate_msg * msg
        for lo in range(0, n, ROW_CHUNK):
            part = slice(lo, lo + ROW_CHUNK)
            updated[part] += gate_in[part] * r_prev[part]
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


def loss(probabilities: np.ndarray, label: int) -> float:
    """Cross-entropy of the true class, input clamped at LOG_CLAMP."""
    if not 0 <= label < probabilities.shape[0]:
        raise InvalidLabelError(
            f"label {label} outside {probabilities.shape[0]} classes"
        )
    return float(-np.log(max(float(probabilities[label]), LOG_CLAMP)))


def backward(
    trace: ForwardTrace,
    graph: DocumentGraph,
    params: ModelParameters,
    label: int,
    out: ModelParameters | None = None,
    rows: np.ndarray | None = None,
) -> ModelParameters:
    """Exact gradients of `loss` w.r.t. every parameter, accumulated into `out`.

    Parameters untouched by the graph keep zero gradient. Max pooling routes
    gradient only to the winning lanes recorded in the trace.

    With `rows` (sorted distinct embedding rows, every node id of the graph
    among them), `out.embeddings` holds only those rows, in that order, and
    each node's gradient lands at its row's position there. Each element
    receives the same adds in the same order as in the dense (V x d) form.
    """
    if trace.doc_id != graph.doc_id or trace.n_nodes != graph.n_nodes:
        raise TraceMismatchError(
            f"trace for {trace.doc_id!r}/{trace.n_nodes} nodes paired with "
            f"{graph.doc_id!r}/{graph.n_nodes} nodes"
        )
    if not 0 <= label < params.n_classes:
        raise InvalidLabelError(f"label {label} outside {params.n_classes} classes")
    grads = out if out is not None else ModelParameters.zeros_like(params)

    p = trace.probabilities
    if float(p[label]) <= LOG_CLAMP:
        # loss sits on the clamp plateau; gradient is identically zero
        return grads

    d_act = p.copy()
    d_act[label] -= 1.0
    d_logits = np.where(trace.logits > 0.0, d_act, 0.0)

    grads.classifier_weights += np.outer(d_logits, trace.readout)
    grads.classifier_bias += d_logits
    d_readout = params.classifier_weights.T @ d_logits

    n = trace.n_nodes
    eta = trace.gate_values
    gate_msg, gate_in = (1.0 - eta)[:, None], eta[:, None]
    dim = params.dim
    lanes = np.arange(dim)
    # every node's gradient from the readout is d_readout itself
    d_out = np.broadcast_to(d_readout, (n, dim))
    for t in reversed(range(trace.rounds)):
        r_in = trace.round_inputs[t]
        msg = trace.messages[t]
        winners = trace.winners[t]

        d_eta = np.empty(n)
        for lo in range(0, n, ROW_CHUNK):
            part = slice(lo, lo + ROW_CHUNK)
            diff = r_in[part] - msg[part]
            np.multiply(d_out[part], diff, out=diff).sum(axis=1, out=d_eta[part])
        np.add.at(grads.gates, graph.node_ids, d_eta * eta * (1.0 - eta))

        d_in = np.multiply(d_out, gate_in, out=np.empty((n, dim)))
        d_in_flat = d_in.reshape(-1)

        # a node's lanes are all -1 (no incoming entries) or all valid, so
        # its first lane says whether the whole row takes part; receivers
        # go ROW_CHUNK rows at a time in ascending order, so every element
        # gets its adds in the order one scatter over all of them would
        receivers = np.flatnonzero(winners[:, :1] >= 0)
        for lo in range(0, receivers.size, ROW_CHUNK):
            part = receivers[lo : lo + ROW_CHUNK]
            # 1-D operands throughout: np.add.at is several times faster
            # on them than on 2-D index arrays or (row, lane) pairs
            entry = winners[part]
            pidx = graph.edge_param[entry].ravel()
            # each winner's (source, lane) as a C-order position in r_in;
            # positions are int32, widened before they are scaled by dim
            flat = graph.edge_src[entry].astype(np.int64)
            flat *= dim
            flat += lanes
            flat = flat.ravel()
            d_contrib = (d_out[part] * gate_msg[part]).ravel()
            np.add.at(grads.edge_weights, pidx, d_contrib * np.take(r_in, flat))
            np.add.at(d_in_flat, flat, d_contrib * params.edge_weights[pidx])
        d_out = d_in

    if trace.dropout_mask is not None:
        # with no rounds, d_out is still the read-only broadcast of d_readout
        d_out = np.multiply(d_out, trace.dropout_mask, out=d_out if trace.rounds else None)
    at = graph.node_ids if rows is None else np.searchsorted(rows, graph.node_ids)
    for lo in range(0, n, ROW_CHUNK):
        np.add.at(grads.embeddings, at[lo : lo + ROW_CHUNK], d_out[lo : lo + ROW_CHUNK])
    return grads


# --- optimizer --------------------------------------------------------------


@dataclass
class AdamState:
    """First/second moment estimates, one pair of arrays per parameter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParameters) -> "AdamState":
        return cls(
            m={name: np.zeros_like(arr) for name, arr in params.named_arrays()},
            v={name: np.zeros_like(arr) for name, arr in params.named_arrays()},
        )


def adam_update(
    params: ModelParameters,
    grads: ModelParameters,
    state: AdamState,
    learning_rate: float,
    weight_decay: float = 0.0,
    rows: np.ndarray | None = None,
) -> None:
    """One in-place adaptive-moment step; decay is classic L2 on gradients.

    Each array is updated in slices of at most ADAM_CHUNK elements (whole
    rows of its first axis, at least one), so the step's temporaries stay
    that small; every element sees the same operations in the same order
    as a whole-array update. The temporaries are two scratch buffers the
    size of the largest slice, shared by every slice of the step.

    With `rows`, `grads.embeddings` holds only those sorted embedding rows
    (as `backward` fills it) and every other row's gradient is +0.0. A
    third scratch buffer then takes each slice's dense gradient: zeros,
    with the slice's rows copied in.
    """
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    slice_rows = {
        name: max(1, ADAM_CHUNK // max(1, whole[:1].size))
        for name, whole in params.named_arrays()
    }
    size = max(whole[: slice_rows[name]].size for name, whole in params.named_arrays())
    scratch_a, scratch_b = np.empty(size), np.empty(size)
    scratch_g = np.empty(size) if rows is not None else None
    for name, whole in params.named_arrays():
        decayed = weight_decay and name in DECAYED_ARRAYS
        grad = getattr(grads, name)
        step_rows = slice_rows[name]
        starts = range(0, whole.shape[0], step_rows)
        bounds = None
        if rows is not None and name == "embeddings":
            # slice k holds rows[bounds[k]:bounds[k + 1]]; each lands on
            # row `within` of its slice
            bounds = np.searchsorted(rows, [*starts, whole.shape[0]]).tolist()
            within = rows % step_rows
        for k, lo in enumerate(starts):
            part = slice(lo, lo + step_rows)
            arr = whole[part]
            a = scratch_a[: arr.size].reshape(arr.shape)
            b = scratch_b[: arr.size].reshape(arr.shape)
            if bounds is None:
                g = grad[part]
            else:
                first, last = bounds[k], bounds[k + 1]
                g = scratch_g[: arr.size].reshape(arr.shape)
                g.fill(0.0)
                g[within[first:last]] = grad[first:last]
            if decayed:
                # g + weight_decay * arr
                g = np.add(g, np.multiply(weight_decay, arr, out=a), out=a)
            m = state.m[name][part]
            v = state.v[name][part]
            m *= ADAM_BETA1
            m += np.multiply(1.0 - ADAM_BETA1, g, out=b)
            v *= ADAM_BETA2
            v += np.multiply(1.0 - ADAM_BETA2, np.multiply(g, g, out=b), out=b)
            # learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            denom = np.sqrt(np.divide(v, bc2, out=b), out=b)
            denom += ADAM_EPS
            step = np.multiply(learning_rate, np.divide(m, bc1, out=a), out=a)
            step /= denom
            arr -= step


# --- training ---------------------------------------------------------------


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_accuracy: float
    elapsed_seconds: float


@dataclass
class TrainResult:
    params: ModelParameters
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    best_val_accuracy: float = 0.0
    total_seconds: float = 0.0


def evaluate_accuracy(
    params: ModelParameters, graphs: Sequence[DocumentGraph], rounds: int = 1
) -> float:
    """Exact-match fraction in [0, 1]; 0.0 on an empty collection."""
    if not graphs:
        return 0.0
    hits = sum(predict(params, g, rounds=rounds)[0] == g.label for g in graphs)
    return hits / len(graphs)


def _batch_rows(graphs: Sequence[DocumentGraph]) -> np.ndarray:
    """The sorted distinct embedding rows a batch of graphs reads."""
    ids = np.concatenate([g.node_ids for g in graphs])
    ids.sort()
    return ids[_run_heads(ids)]


def train(
    initial: ModelParameters,
    train_graphs: Sequence[DocumentGraph],
    val_graphs: Sequence[DocumentGraph],
    config: TrainConfig,
) -> TrainResult:
    """Mini-batch training with early stopping on validation accuracy.

    Keeps the parameters of the best-validation epoch and stops after
    `patience` epochs without improvement. Fully deterministic under
    `config.seed` (shuffling and dropout share one generator).

    Consumes `initial`: its arrays are trained in place and end at the
    last epoch's values, while the result holds the best epoch's. A caller
    that needs `initial` afterwards passes a copy.
    """
    if not train_graphs:
        raise ValueError("no training graphs")
    params = initial
    rng = np.random.default_rng(config.seed)
    adam = AdamState.for_params(params)
    result = TrainResult(params=params)
    # one gradient set and one best-parameter set serve the whole run; the
    # embedding gradient holds only the current batch's rows
    grads = ModelParameters(
        embeddings=np.empty((0, params.dim)),
        **{name: np.zeros_like(arr) for name, arr in params.named_arrays()
           if name != "embeddings"},
    )
    best = params.copy()
    best_acc = -1.0
    stale_epochs = 0
    started = time.perf_counter()

    n = len(train_graphs)
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for batch_no, lo in enumerate(range(0, n, config.batch_size)):
            batch = order[lo : lo + config.batch_size]
            rows = _batch_rows([train_graphs[i] for i in batch])
            grads.embeddings = np.empty((rows.shape[0], params.dim))
            for _, arr in grads.named_arrays():
                arr.fill(0.0)
            batch_loss = 0.0
            try:
                for i in batch:
                    g = train_graphs[i]
                    trace = forward(
                        params,
                        g,
                        dropout=config.dropout,
                        rng=rng,
                        training=True,
                        rounds=config.rounds,
                    )
                    batch_loss += loss(trace.probabilities, g.label)
                    backward(trace, g, params, g.label, out=grads, rows=rows)
                    # freed before the next forward, so one trace is live
                    del trace
            except NonFiniteActivationError as err:
                raise NonFiniteActivationError(
                    f"epoch {epoch} batch {batch_no}: {err}"
                ) from err
            scale = 1.0 / len(batch)
            for _, arr in grads.named_arrays():
                arr *= scale
            adam_update(
                params,
                grads,
                adam,
                learning_rate=config.learning_rate,
                weight_decay=config.weight_decay,
                rows=rows,
            )
            epoch_loss += batch_loss

        try:
            params.validate_finite()
        except NonFiniteActivationError as err:
            raise NonFiniteActivationError(f"epoch {epoch}: {err}") from err

        val_acc = evaluate_accuracy(params, val_graphs, rounds=config.rounds)
        result.epochs.append(
            EpochStats(
                epoch=epoch,
                train_loss=epoch_loss / n,
                val_accuracy=val_acc,
                elapsed_seconds=time.perf_counter() - started,
            )
        )
        if not val_graphs:
            # no holdout signal: keep the latest parameters, never stop early
            best.copy_from(params)
            result.best_epoch = epoch
            continue
        if val_acc > best_acc:
            best_acc = val_acc
            best.copy_from(params)
            result.best_epoch = epoch
            result.best_val_accuracy = val_acc
            stale_epochs = 0
        else:
            stale_epochs += 1
            if stale_epochs >= config.patience:
                break

    result.params = best
    result.total_seconds = time.perf_counter() - started
    return result


# --- inference --------------------------------------------------------------


def predict(
    params: ModelParameters, graph: DocumentGraph, rounds: int = 1
) -> tuple[int, np.ndarray]:
    """Argmax class with deterministic lowest-index tie-break, dropout off.

    Computes the probabilities `forward` gives without recording a trace:
    each destination's message is the lanewise max of its block of
    weighted source rows, since inference needs no winners.
    """
    _check_graph(params, graph)
    blocks = _blocks(graph)
    src = graph.edge_src.astype(np.intp)  # widened once, as in `forward`
    weights = params.edge_weights[graph.edge_param][:, None]
    r = params.embeddings[graph.node_ids]
    eta = sigmoid(params.gates[graph.node_ids])[:, None]
    msg = np.zeros_like(r)
    for _ in range(rounds):
        for node, s, e in blocks:
            msg[node] = (weights[s:e] * r[src[s:e]]).max(axis=0)
        r = (1.0 - eta) * msg + eta * r
    _, probabilities = _classify(params, r.sum(axis=0), graph.doc_id)
    return int(np.argmax(probabilities)), probabilities
