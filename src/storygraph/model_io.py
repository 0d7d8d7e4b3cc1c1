"""Versioned binary container for trained models; one codec writes and
reads both kinds of file.

Layout: 7-byte magic, 1 version byte, little-endian uint64 header length,
UTF-8 JSON header (`format_version` first), then raw little-endian arrays
in a fixed order. A `.model` holds the five float64 parameter arrays, then
the indexed edge pairs as int64; its header also records the run the model
was trained in: its project, text mode, training config (with the master
seed) and split hash. Arrays round-trip bit-exactly. The edge pairs are the
(src, dst) token ids of the edge table's pair codes (see graph.py) in code
order, so index i+1 in the edge-weight vector belongs to pairs[i];
pre-threshold co-occurrence counts are not persisted.

A `.baseline` file holds the idf vector, then each tree's flat preorder
arrays in the layout the baseline.py docstring states; loading refuses a
tree that breaks it. Either header's config must meet its dataclass's
declared legal values.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .baseline import Forest, RandomForestConfig, TfidfModel, Tree
from .embeddings import Vocabulary
from .errors import CorruptFileError, StoryGraphError, VersionMismatchError
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


def _save(path: str | Path, magic: bytes, header: dict, arrays) -> None:
    """Write a container: the header after its format version, then each
    (array, dtype) of `arrays` in order."""
    blob = json.dumps({"format_version": FORMAT_VERSION, **header},
                      ensure_ascii=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic + bytes([FORMAT_VERSION]) + struct.pack("<Q", len(blob)) + blob)
        for arr, dtype in arrays:
            fh.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())


class _Arrays:
    """The array section of a container, taken in file order."""

    def __init__(self, path: str | Path, data: bytes, pos: int):
        self.path, self.data, self.pos = path, data, pos

    def take(self, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
        if min(shape) < 0:
            raise CorruptFileError(f"{self.path}: array of negative shape {shape}")
        want = int(np.prod(shape))
        end = self.pos + want * np.dtype(dtype).itemsize
        if end > len(self.data):
            raise CorruptFileError(f"{self.path}: array section truncated: "
                                   f"need {end} bytes, file has {len(self.data)}")
        arr = np.frombuffer(self.data, dtype=dtype, count=want, offset=self.pos)
        self.pos = end
        return arr.reshape(shape).copy()

    def end(self) -> None:
        if self.pos != len(self.data):
            raise CorruptFileError(
                f"{self.path}: {len(self.data) - self.pos} unexpected trailing bytes")


def _load(path: str | Path, magic: bytes, kind: str, fields: dict) -> tuple[dict, _Arrays]:
    """Check a container's magic, versions and header, and convert each
    header field by its entry in `fields`; returns the converted fields and
    the file's arrays."""
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
    try:
        values = {key: convert(header[key]) for key, convert in fields.items()}
    except (KeyError, TypeError, ValueError, StoryGraphError) as err:
        raise CorruptFileError(f"{path}: malformed header field: {err}") from err
    return values, _Arrays(path, data, pos + header_len)


def save_model(path: str | Path, bundle: ModelBundle) -> None:
    params = bundle.params
    vocab = bundle.vocabulary
    pairs = decode_pairs(bundle.edge_table.codes)
    header = {
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
    arrays = [(arr, "<f8") for _, arr in params.named_arrays()]
    _save(path, MAGIC_PREFIX, header, [*arrays, (pairs, "<i8")])


def load_model(path: str | Path) -> ModelBundle:
    """Read a model container back; inverse of save_model, bit for bit."""
    h, arrays = _load(path, MAGIC_PREFIX, "model", {
        "vocab_size": int, "dim": int, "n_classes": int, "n_edge_params": int,
        "n_pairs": int, "tokens": list, "token_counts": list,
        "config": lambda config: TrainConfig(**config),
        "project": str, "text_mode": str, "split_hash": str,
        "class_values": lambda values: tuple(int(x) for x in values),
        "edge_window": int, "edge_min_frequency": int,
    })
    v, d, c, n_pairs = h["vocab_size"], h["dim"], h["n_classes"], h["n_pairs"]
    tokens, class_values = h["tokens"], h["class_values"]
    if len(tokens) != v or len(h["token_counts"]) != v:
        raise CorruptFileError(
            f"{path}: header lists {len(tokens)} tokens for vocabulary of {v}"
        )
    if class_values and len(class_values) != c:
        raise CorruptFileError(
            f"{path}: {len(class_values)} story-point values for {c} classes"
        )
    if h["n_edge_params"] != n_pairs + 1:
        raise CorruptFileError(
            f"{path}: {h['n_edge_params']} edge parameters cannot index {n_pairs} pairs"
        )

    params = ModelParameters(
        embeddings=arrays.take("<f8", (v, d)),
        edge_weights=arrays.take("<f8", (n_pairs + 1,)),
        gates=arrays.take("<f8", (v,)),
        classifier_weights=arrays.take("<f8", (c, d)),
        classifier_bias=arrays.take("<f8", (c,)),
    )
    pairs = arrays.take("<i8", (n_pairs, 2))
    arrays.end()

    vocabulary = Vocabulary(
        id_to_token=tokens,
        token_to_id={t: i for i, t in enumerate(tokens)},
        counts=[int(n) for n in h["token_counts"]],
    )
    if pairs.size and (pairs.min() < 0 or pairs.max() >= v):
        raise CorruptFileError(f"{path}: edge pair token id outside [0, {v})")
    codes = encode_pairs(pairs[:, 0], pairs[:, 1])
    if np.any(codes[1:] <= codes[:-1]):
        raise CorruptFileError(f"{path}: edge pairs not strictly increasing")
    table = EdgeTable(
        codes=codes,
        distinct_pair_count=0,
        min_frequency=h["edge_min_frequency"],
        window=h["edge_window"],
    )
    return ModelBundle(
        params=params,
        config=h["config"],
        vocabulary=vocabulary,
        edge_table=table,
        project=h["project"],
        text_mode=h["text_mode"],
        split_hash=h["split_hash"],
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
    arrays = [(tfidf.idf, "<f8")]
    for tree in forest.trees:
        arrays += [(getattr(tree, name), dtype) for name, dtype in _TREE_ARRAYS]
        arrays.append((tree.histogram, "<f8"))
    _save(path, BASELINE_MAGIC_PREFIX, header, arrays)


def load_baseline_model(path: str | Path) -> BaselineBundle:
    h, arrays = _load(path, BASELINE_MAGIC_PREFIX, "baseline model", {
        "task": str, "n_features": int, "n_classes": int,
        "forest_config": lambda config: RandomForestConfig(**config),
        "bootstrap_seeds": lambda seeds: [int(s) for s in seeds],
        "tree_node_counts": lambda counts: [int(c) for c in counts],
        "terms": list, "document_count": int, "max_ngram": int,
    })
    task, n_features, n_classes = h["task"], h["n_features"], h["n_classes"]
    terms, node_counts = h["terms"], h["tree_node_counts"]
    if len(terms) != n_features:
        raise CorruptFileError(
            f"{path}: header lists {len(terms)} terms for {n_features} features"
        )
    if len(h["bootstrap_seeds"]) != len(node_counts):
        raise CorruptFileError(f"{path}: per-tree metadata lengths disagree")
    if min(node_counts, default=1) < 1:
        raise CorruptFileError(f"{path}: a tree without nodes")
    if not (task == "classify" and n_classes > 0 or task == "regress" and n_classes == 0):
        raise CorruptFileError(f"{path}: task {task!r} with {n_classes} classes")

    idf = arrays.take("<f8", (n_features,))
    trees = []
    for seed, count in zip(h["bootstrap_seeds"], node_counts):
        tree = Tree(
            **{name: arrays.take(dtype, (count,)) for name, dtype in _TREE_ARRAYS},
            histogram=arrays.take("<f8", (count, n_classes)),
            bootstrap_seed=seed,
        )
        _check_tree(path, tree, n_features)
        trees.append(tree)
    arrays.end()

    tfidf = TfidfModel(
        vocabulary={gram: col for col, gram in enumerate(terms)},
        idf=idf,
        document_count=h["document_count"],
        max_ngram=h["max_ngram"],
    )
    forest = Forest(
        trees=trees,
        config=h["forest_config"],
        task=task,
        n_features=n_features,
        n_classes=n_classes,
    )
    return BaselineBundle(tfidf=tfidf, forest=forest)
