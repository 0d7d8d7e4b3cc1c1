"""The word-graph classifier: forward pass, exact gradients, training loop.

One round of message passing per document graph (configurable):

    r_n  = embedding row of node n (dropout-masked while training)
    M_n  = elementwise max over incoming entries (a -> n) of  e_an * r_a
           (zero vector when a node has no incoming entries)
    r'_n = (1 - eta_n) * M_n + eta_n * r_n,    eta_n = sigmoid(gate_n)
    R    = sum_n r'_n
    p    = softmax(relu(W R + b))

The forward pass records everything backward needs (dropout mask, per-round
messages and argmax winners), so gradients are exact: max pooling routes
gradient only to the winning lane, ties won by the lowest source position.
`predict` computes the same probabilities without recording anything.
Training is mini-batch gradient descent with adaptive moments and
early stopping on validation accuracy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    IndexOutOfRangeError,
    InvalidLabelError,
    NonFiniteActivationError,
    TraceMismatchError,
    UnknownClassIndexError,
)
from .graph import DocumentGraph

LOG_CLAMP = 1e-12

# Arrays that receive L2 weight decay; gates parameterize a mixing
# coefficient and the bias is a plain offset, so neither is decayed.
DECAYED_ARRAYS = ("embeddings", "edge_weights", "classifier_weights")


@dataclass
class TrainConfig:
    """Training hyperparameters. Defaults are the reference configuration,
    and the CLI's built-in defaults."""

    window: int = 20
    batch_size: int = 32
    dropout: float = 0.5
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    max_epochs: int = 300
    patience: int = 10
    seed: int = 42
    min_edge_frequency: int = 2
    rounds: int = 1


@dataclass
class ModelParameters:
    """All trainable state. Also serves as the gradient container."""

    embeddings: np.ndarray  # (V, d)
    edge_weights: np.ndarray  # (n_edge_params,), index 0 = public edge
    gates: np.ndarray  # (V,) raw pre-activations, squashed at use
    classifier_weights: np.ndarray  # (C, d)
    classifier_bias: np.ndarray  # (C,)

    ARRAY_FIELDS = (
        "embeddings",
        "edge_weights",
        "gates",
        "classifier_weights",
        "classifier_bias",
    )

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
        for name in self.ARRAY_FIELDS:
            yield name, getattr(self, name)

    def copy(self) -> "ModelParameters":
        return ModelParameters(
            **{name: arr.copy() for name, arr in self.named_arrays()}
        )

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
    """Fresh parameters: neutral edge weights (1.0), balanced gates (0.0 raw,
    i.e. eta = 0.5), Glorot-uniform classifier."""
    emb = np.array(embedding_matrix, dtype=np.float64, copy=True)
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


def _check_graph(params: ModelParameters, graph: DocumentGraph, rounds: int) -> None:
    """Refuse a graph whose ids fall outside the parameters, or no rounds."""
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
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")


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
    _check_graph(params, graph, rounds)
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

    # Entries are sorted by (dst, src); per-destination blocks are contiguous
    # and in ascending source order, so the first argmax hit is the lowest
    # source position - the tie-break backward relies on.
    positions = np.arange(n)
    starts = np.searchsorted(graph.edge_dst, positions, side="left")
    ends = np.searchsorted(graph.edge_dst, positions, side="right")

    round_inputs = [r]
    messages: list[np.ndarray] = []
    winners_all: list[np.ndarray] = []
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
) -> ModelParameters:
    """Exact gradients of `loss` w.r.t. every parameter, accumulated into `out`.

    Parameters untouched by the graph keep zero gradient. Max pooling routes
    gradient only to the argmax lanes recorded in the trace.
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
    d_out = np.tile(d_readout, (n, 1))
    for t in reversed(range(trace.rounds)):
        r_in = trace.round_inputs[t]
        msg = trace.messages[t]
        winners = trace.winners[t]

        d_eta = (d_out * (r_in - msg)).sum(axis=1)
        np.add.at(grads.gates, graph.node_ids, d_eta * eta * (1.0 - eta))

        d_msg = d_out * (1.0 - eta)[:, None]
        d_in = d_out * eta[:, None]

        valid = winners >= 0
        if valid.any():
            entry = winners[valid]
            _, dim_idx = np.nonzero(valid)
            src = graph.edge_src[entry]
            pidx = graph.edge_param[entry]
            d_contrib = d_msg[valid]
            np.add.at(grads.edge_weights, pidx, d_contrib * r_in[src, dim_idx])
            np.add.at(d_in, (src, dim_idx), d_contrib * params.edge_weights[pidx])
        d_out = d_in

    if trace.dropout_mask is not None:
        d_out = d_out * trace.dropout_mask
    np.add.at(grads.embeddings, graph.node_ids, d_out)
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
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One in-place adaptive-moment step; decay is classic L2 on gradients."""
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
    """
    if not train_graphs:
        raise ValueError("no training graphs")
    params = initial.copy()
    rng = np.random.default_rng(config.seed)
    adam = AdamState.for_params(params)
    result = TrainResult(params=params)
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
            grads = ModelParameters.zeros_like(params)
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
                    backward(trace, g, params, g.label, out=grads)
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
    result.total_seconds = time.perf_counter() - started
    return result


# --- inference --------------------------------------------------------------


def predict(
    params: ModelParameters, graph: DocumentGraph, rounds: int = 1
) -> tuple[int, np.ndarray]:
    """Argmax class with deterministic lowest-index tie-break, dropout off.

    Computes the probabilities `forward` gives without recording a trace:
    each destination's message is one `np.maximum.reduceat` over its
    contiguous block of entries, since inference needs no winners.
    """
    _check_graph(params, graph, rounds)
    r = params.embeddings[graph.node_ids]
    eta = sigmoid(params.gates[graph.node_ids])[:, None]
    weights = params.edge_weights[graph.edge_param][:, None]
    # entries are sorted by destination: a block starts where it changes
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


def predict_story_point(
    params: ModelParameters,
    graph: DocumentGraph,
    class_values: Sequence[int],
    rounds: int = 1,
) -> int:
    """Numeric story point of the argmax class, for models trained with
    story points themselves as class labels."""
    index, _ = predict(params, graph, rounds=rounds)
    if index >= len(class_values):
        raise UnknownClassIndexError(
            f"class {index} has no story-point value ({len(class_values)} known)"
        )
    return int(class_values[index])
