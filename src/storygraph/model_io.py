"""Versioned binary container for trained models.

Layout: 7-byte magic, 1 version byte, little-endian uint64 header length,
UTF-8 JSON header, then raw little-endian arrays in a fixed order
(five float64 parameter arrays, then the indexed edge pairs as int64).
A `.model` header also records the run the model was trained in: its
project, text mode, training config (with the master seed) and split hash.
Arrays round-trip bit-exactly. The edge pairs are the (src, dst) token
ids of the edge table's pair codes (see graph.py) in code order, so index
i+1 in the edge-weight vector belongs to pairs[i]; pre-threshold
co-occurrence counts are not persisted.

A `.baseline` file holds the idf vector, then each tree's flat preorder
arrays in the layout the baseline.py docstring states; loading refuses a
tree that breaks it.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .baseline import Forest, RandomForestConfig, TfidfModel, Tree
from .embeddings import Vocabulary
from .errors import CorruptFileError, VersionMismatchError
from .gnn import ModelParameters, TrainConfig
from .graph import EdgeTable, decode_pairs, encode_pairs

MAGIC_PREFIX = b"STGRMDL"
BASELINE_MAGIC_PREFIX = b"STGRBSL"
FORMAT_VERSION = 2


@dataclass
class ModelBundle:
    """A trained model, the run it was trained in, and everything needed to
    score unseen issues."""

    params: ModelParameters
    config: TrainConfig  # with the master seed, from which the split follows
    vocabulary: Vocabulary
    edge_table: EdgeTable
    project: str
    text_mode: str
    split_hash: str  # of the train/validation/test split it was trained on
    class_values: tuple[int, ...] = ()  # story-point mode: value per class index


def _write_header(fh, magic: bytes, header: dict) -> None:
    """Magic, version byte, header length and JSON header of a container."""
    blob = json.dumps(header, ensure_ascii=False).encode("utf-8")
    fh.write(magic)
    fh.write(bytes([FORMAT_VERSION]))
    fh.write(struct.pack("<Q", len(blob)))
    fh.write(blob)


def save_model(path: str | Path, bundle: ModelBundle) -> None:
    params = bundle.params
    vocab = bundle.vocabulary
    pairs = decode_pairs(bundle.edge_table.codes)
    header = {
        "format_version": FORMAT_VERSION,
        "vocab_size": params.vocab_size,
        "dim": params.dim,
        "n_classes": params.n_classes,
        "n_edge_params": int(params.edge_weights.shape[0]),
        "n_pairs": int(pairs.shape[0]),
        "config": asdict(bundle.config),
        "project": bundle.project,
        "text_mode": bundle.text_mode,
        "split_hash": bundle.split_hash,
        "class_values": list(bundle.class_values),
        "tokens": list(vocab.id_to_token),
        "token_counts": [int(c) for c in vocab.counts],
        "edge_window": bundle.edge_table.window,
        "edge_min_frequency": bundle.edge_table.min_frequency,
    }
    with open(path, "wb") as fh:
        _write_header(fh, MAGIC_PREFIX, header)
        for _, arr in params.named_arrays():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(pairs, dtype="<i8").tobytes())


def _take(buf: bytes, offset: int, dtype: str, shape: tuple[int, ...]) -> tuple[np.ndarray, int]:
    want = int(np.prod(shape)) if shape else 1
    itemsize = np.dtype(dtype).itemsize
    end = offset + want * itemsize
    if end > len(buf):
        raise CorruptFileError(
            f"array section truncated: need {end} bytes, file has {len(buf)}"
        )
    arr = np.frombuffer(buf[offset:end], dtype=dtype).reshape(shape).copy()
    return arr, end


def _read_container(path: str | Path, magic: bytes, kind: str) -> tuple[dict, bytes, int]:
    """Check a container's magic, versions and header; returns the header,
    the file's bytes and the offset of its first array."""
    data = Path(path).read_bytes()
    if len(data) < len(magic) + 9:
        raise CorruptFileError(f"{path}: too short to be a {kind} file")
    if data[: len(magic)] != magic:
        raise CorruptFileError(f"{path}: not a {kind} file (bad magic)")
    version = data[len(magic)]
    if version != FORMAT_VERSION:
        raise VersionMismatchError(
            f"{path}: format version {version}, this build reads {FORMAT_VERSION}; "
            "retrain to get a readable file"
        )
    pos = len(magic) + 1
    (header_len,) = struct.unpack_from("<Q", data, pos)
    pos += 8
    if pos + header_len > len(data):
        raise CorruptFileError(f"{path}: header extends past end of file")
    try:
        header = json.loads(data[pos : pos + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CorruptFileError(f"{path}: unreadable header: {err}") from err
    if not isinstance(header, dict):
        raise CorruptFileError(f"{path}: header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise VersionMismatchError(
            f"{path}: header declares version {header.get('format_version')}"
        )
    return header, data, pos + header_len


def load_model(path: str | Path) -> ModelBundle:
    """Read a model container back; inverse of save_model, bit for bit."""
    header, data, pos = _read_container(path, MAGIC_PREFIX, "model")
    try:
        v = int(header["vocab_size"])
        d = int(header["dim"])
        c = int(header["n_classes"])
        n_edge = int(header["n_edge_params"])
        n_pairs = int(header["n_pairs"])
        tokens = list(header["tokens"])
        token_counts = list(header["token_counts"])
        config = TrainConfig(**header["config"])
        project = str(header["project"])
        text_mode = str(header["text_mode"])
        split_hash = str(header["split_hash"])
        class_values = tuple(int(x) for x in header["class_values"])
        edge_window = int(header["edge_window"])
        edge_min_frequency = int(header["edge_min_frequency"])
    except (KeyError, TypeError, ValueError) as err:
        raise CorruptFileError(f"{path}: malformed header field: {err}") from err
    if len(tokens) != v or len(token_counts) != v:
        raise CorruptFileError(
            f"{path}: header lists {len(tokens)} tokens for vocabulary of {v}"
        )
    if n_edge != n_pairs + 1:
        raise CorruptFileError(
            f"{path}: {n_edge} edge parameters cannot index {n_pairs} pairs"
        )

    embeddings, pos = _take(data, pos, "<f8", (v, d))
    edge_weights, pos = _take(data, pos, "<f8", (n_edge,))
    gates, pos = _take(data, pos, "<f8", (v,))
    classifier_weights, pos = _take(data, pos, "<f8", (c, d))
    classifier_bias, pos = _take(data, pos, "<f8", (c,))
    pairs, pos = _take(data, pos, "<i8", (n_pairs, 2))
    if pos != len(data):
        raise CorruptFileError(f"{path}: {len(data) - pos} unexpected trailing bytes")

    params = ModelParameters(
        embeddings=embeddings,
        edge_weights=edge_weights,
        gates=gates,
        classifier_weights=classifier_weights,
        classifier_bias=classifier_bias,
    )
    vocabulary = Vocabulary(
        id_to_token=list(tokens),
        token_to_id={t: i for i, t in enumerate(tokens)},
        counts=[int(n) for n in token_counts],
    )
    if pairs.size and (pairs.min() < 0 or pairs.max() >= v):
        raise CorruptFileError(f"{path}: edge pair token id outside [0, {v})")
    codes = encode_pairs(pairs[:, 0], pairs[:, 1])
    if np.any(codes[1:] <= codes[:-1]):
        raise CorruptFileError(f"{path}: edge pairs not strictly increasing")
    table = EdgeTable(
        codes=codes,
        distinct_pair_count=0,
        min_frequency=edge_min_frequency,
        window=edge_window,
    )
    return ModelBundle(
        params=params,
        config=config,
        vocabulary=vocabulary,
        edge_table=table,
        project=project,
        text_mode=text_mode,
        split_hash=split_hash,
        class_values=class_values,
    )


# --- baseline container -----------------------------------------------------


@dataclass
class BaselineBundle:
    """A fitted tf-idf vectorizer and forest, savable as one file."""

    tfidf: TfidfModel
    forest: Forest


# per-node arrays of a tree in file order; the (nodes x classes) histogram
# follows them, and has no bytes when regressing
_TREE_ARRAYS = (
    ("feature", "<i8"),
    ("threshold", "<f8"),
    ("left", "<i8"),
    ("right", "<i8"),
    ("value", "<f8"),
)


def _check_tree(path: str | Path, tree: Tree, n_features: int) -> None:
    """Refuse a tree outside the preorder layout of baseline.py: descending
    a cycle or a stray child index would never end or would crash."""
    n = tree.feature.shape[0]
    node = np.arange(n)
    internal = tree.left != -1
    problems = [
        (~internal & (tree.right != -1), "a leaf with a right child"),
        (internal & (tree.left != node + 1), "a left child that is not the next node"),
        (internal & ((tree.right <= node + 1) | (tree.right >= n)),
         "a right child out of order"),
        (internal & ((tree.feature < 0) | (tree.feature >= n_features)),
         "a split feature out of range"),
    ]
    for bad, what in problems:
        if bad.any():
            raise CorruptFileError(f"{path}: tree node {int(np.argmax(bad))} has {what}")
    parents = np.bincount(
        np.concatenate([tree.left[internal], tree.right[internal]]), minlength=n
    )
    parents[0] += 1  # the root is nobody's child; count it as one here
    if np.any(parents != 1):
        raise CorruptFileError(
            f"{path}: tree node {int(np.argmax(parents != 1))} "
            "is not the child of exactly one node"
        )


def save_baseline_model(path: str | Path, bundle: BaselineBundle) -> None:
    tfidf = bundle.tfidf
    forest = bundle.forest
    terms_by_column: list[str] = [""] * tfidf.n_features
    for gram, col in tfidf.vocabulary.items():
        terms_by_column[col] = gram
    header = {
        "format_version": FORMAT_VERSION,
        "task": forest.task,
        "n_features": forest.n_features,
        "n_classes": forest.n_classes,
        "forest_config": asdict(forest.config),
        "bootstrap_seeds": [t.bootstrap_seed for t in forest.trees],
        "tree_node_counts": [int(t.feature.shape[0]) for t in forest.trees],
        "terms": terms_by_column,
        "document_count": tfidf.document_count,
        "max_ngram": tfidf.max_ngram,
    }
    with open(path, "wb") as fh:
        _write_header(fh, BASELINE_MAGIC_PREFIX, header)
        fh.write(np.ascontiguousarray(tfidf.idf, dtype="<f8").tobytes())
        for tree in forest.trees:
            for name, dtype in _TREE_ARRAYS:
                fh.write(np.ascontiguousarray(getattr(tree, name), dtype=dtype).tobytes())
            fh.write(np.ascontiguousarray(tree.histogram, dtype="<f8").tobytes())


def load_baseline_model(path: str | Path) -> BaselineBundle:
    header, data, pos = _read_container(path, BASELINE_MAGIC_PREFIX, "baseline model")

    try:
        task = str(header["task"])
        n_features = int(header["n_features"])
        n_classes = int(header["n_classes"])
        config = RandomForestConfig(**header["forest_config"])
        seeds = [int(s) for s in header["bootstrap_seeds"]]
        node_counts = [int(c) for c in header["tree_node_counts"]]
        terms = list(header["terms"])
        document_count = int(header["document_count"])
        max_ngram = int(header["max_ngram"])
    except (KeyError, TypeError, ValueError) as err:
        raise CorruptFileError(f"{path}: malformed header field: {err}") from err
    if len(terms) != n_features:
        raise CorruptFileError(
            f"{path}: header lists {len(terms)} terms for {n_features} features"
        )
    if len(seeds) != len(node_counts):
        raise CorruptFileError(f"{path}: per-tree metadata lengths disagree")
    if min(node_counts, default=1) < 1:
        raise CorruptFileError(f"{path}: a tree without nodes")
    if not (task == "classify" and n_classes > 0 or task == "regress" and n_classes == 0):
        raise CorruptFileError(f"{path}: task {task!r} with {n_classes} classes")

    idf, pos = _take(data, pos, "<f8", (n_features,))
    trees = []
    for seed, count in zip(seeds, node_counts):
        arrays = {}
        for name, dtype in _TREE_ARRAYS:
            arrays[name], pos = _take(data, pos, dtype, (count,))
        histogram, pos = _take(data, pos, "<f8", (count, n_classes))
        tree = Tree(**arrays, histogram=histogram, bootstrap_seed=seed)
        _check_tree(path, tree, n_features)
        trees.append(tree)
    if pos != len(data):
        raise CorruptFileError(f"{path}: {len(data) - pos} unexpected trailing bytes")

    tfidf = TfidfModel(
        vocabulary={gram: col for col, gram in enumerate(terms)},
        idf=idf,
        document_count=document_count,
        max_ngram=max_ngram,
    )
    forest = Forest(
        trees=trees,
        config=config,
        task=task,
        n_features=n_features,
        n_classes=n_classes,
    )
    return BaselineBundle(tfidf=tfidf, forest=forest)
