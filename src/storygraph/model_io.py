"""Versioned binary container for trained models; one codec writes and
reads both kinds of file.

Layout: 7-byte magic, 1 version byte (the version's one statement),
little-endian uint64 header length, UTF-8 JSON header, raw little-endian
arrays in a fixed order, then a little-endian CRC-32 (zlib.crc32) of every
byte before it. The checksum is checked before the header is parsed. A
header holds exactly the fields its loader reads, and states each fact
once: a size that follows from a list it holds (vocabulary size, feature
count, a `.model`'s class count by corpus.class_count) or from an array
count (edge parameters = pairs + 1) is not stored, nor is anything the
config holds. A `.model` holds the five float64 parameter arrays, then the
edge table's pair codes (see graph.py) as int64, as in memory, so index
i+1 in the edge-weight vector belongs to codes[i]; its header also records
the run the model was trained in: its project, text mode, training config
(with the master seed, window and edge frequency threshold) and split
hash. Arrays round-trip bit-exactly, as read-only views of the one copy of
the array section in memory; token and pre-threshold co-occurrence counts
are not kept.

A `.baseline` file holds the idf vector, then each tree's four flat
preorder arrays in the layout the baseline.py docstring states; loading
refuses a tree that breaks it, a non-finite idf, threshold or leaf value,
an idf below 1, a classification leaf whose value is not a class of the
forest, and a tree count other than the config's. Its class count states
the task: regression has none. Either header's config must meet its
dataclass's declared legal values, every other header field must have
exactly its JSON type, and a token or term may be listed once; a
`.model`'s first token is embeddings.UNKNOWN_TOKEN, and its dim at least 1.
"""

from __future__ import annotations

import json
import math
import reprlib
import struct
import zlib
from dataclasses import asdict, dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from .baseline import Forest, RandomForestConfig, TfidfModel, Tree
from .corpus import class_count
from .embeddings import UNKNOWN_TOKEN, Vocabulary
from .errors import CorruptFileError, StoryGraphError, VersionMismatchError
from .gnn import ModelParameters, TrainConfig
from .graph import EdgeTable, decode_pairs

MAGIC_PREFIX = b"STGRMDL"
BASELINE_MAGIC_PREFIX = b"STGRBSL"
FORMAT_VERSION = 6


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
    """Write a container: the format version, the header, then each
    (array, dtype) of `arrays` in order, then the checksum of it all."""
    blob = json.dumps(header, ensure_ascii=False).encode("utf-8")
    head = magic + bytes([FORMAT_VERSION]) + struct.pack("<Q", len(blob)) + blob
    crc = zlib.crc32(head)
    with open(path, "wb") as fh:
        fh.write(head)
        for arr, dtype in arrays:
            body = np.ascontiguousarray(arr, dtype=dtype).tobytes()
            fh.write(body)
            crc = zlib.crc32(body, crc)
        fh.write(struct.pack("<I", crc))


class _Arrays:
    """The array section of a container, taken in file order as views."""

    def __init__(self, path: str | Path, data: memoryview):
        self.path, self.data, self.pos = path, data, 0

    def take(self, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
        if min(shape) < 0:
            raise CorruptFileError(f"{self.path}: array of negative shape {shape}")
        want = math.prod(shape)  # a Python int: np.prod wraps past 2**63
        end = self.pos + want * np.dtype(dtype).itemsize
        if end > len(self.data):
            raise CorruptFileError(f"{self.path}: array section truncated: "
                                   f"need {end} bytes, it has {len(self.data)}")
        arr = np.ndarray(shape, dtype, buffer=self.data, offset=self.pos)
        self.pos = end
        return arr

    def end(self) -> None:
        if self.pos != len(self.data):
            raise CorruptFileError(
                f"{self.path}: {len(self.data) - self.pos} unexpected trailing bytes")


def _field(key: str, value, kind):
    """Header field `key` as `kind`. A config dataclass is built from its
    JSON object and checks its own values; `[t]` takes a list of values of
    type t; any other value must be of exactly type `kind`, so neither true
    nor 2.9 passes for an int, nor 5 for a str."""
    if is_dataclass(kind):
        return kind(**_field(key, value, dict))
    if isinstance(kind, list):
        (kind,) = kind
        items = _field(key, value, list)
    else:
        items = (value,)
    for item in items:
        if type(item) is not kind:
            raise TypeError(f"{key}: {reprlib.repr(item)} is not {kind.__name__}")
    return value


def _positions(path: str | Path, what: str, names: list[str]) -> dict[str, int]:
    """Each of a header's names mapped to its position; a name listed
    twice is refused."""
    positions = {name: i for i, name in enumerate(names)}
    if len(positions) != len(names):
        repeated = next(name for i, name in enumerate(names) if positions[name] != i)
        raise CorruptFileError(f"{path}: header lists {what} {reprlib.repr(repeated)} twice")
    return positions


def _load(path: str | Path, magic: bytes, kind: str, fields: dict) -> tuple[dict, _Arrays]:
    """Check a container's magic, version, checksum and header, and convert
    each header field by its kind in `fields` (see _field); returns the
    converted fields and the file's arrays."""
    size = Path(path).stat().st_size
    if size < len(magic) + 13:
        raise CorruptFileError(f"{path}: too short to be a {kind} file")
    # the arrays get a buffer of their own: it holds no header bytes, and each
    # array starts 8-byte aligned, which numpy's matmul needs to sum it as trained
    with open(path, "rb") as fh:
        frame = fh.read(len(magic) + 9)  # magic, version byte, header length
        (header_len,) = struct.unpack_from("<Q", frame, len(magic) + 1)
        blob = fh.read(min(header_len, size - len(frame) - 4))
        rest = fh.read(size - len(frame) - len(blob))  # read() to the end copies it
    if frame[: len(magic)] != magic:
        raise CorruptFileError(f"{path}: not a {kind} file (bad magic)")
    version = frame[len(magic)]
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"{path}: format version {version}, this build reads "
                                   f"{FORMAT_VERSION}; retrain to get a readable file")
    data = memoryview(rest)[:-4]
    if zlib.crc32(data, zlib.crc32(frame + blob)) != struct.unpack_from("<I", rest, len(data))[0]:
        raise CorruptFileError(f"{path}: checksum mismatch, the file is damaged")
    if len(blob) < header_len:
        raise CorruptFileError(f"{path}: header extends past end of file")
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as err:
        raise CorruptFileError(f"{path}: unreadable header: {err}") from err
    if not isinstance(header, dict):
        raise CorruptFileError(f"{path}: header is not a JSON object")
    unread = [key for key in header if key not in fields]
    if unread:
        raise CorruptFileError(
            f"{path}: malformed header field: {unread[0]!r} is not one of this format's"
        )
    try:
        values = {key: _field(key, header[key], kind) for key, kind in fields.items()}
    except (KeyError, TypeError, ValueError, StoryGraphError) as err:
        raise CorruptFileError(f"{path}: malformed header field: {err}") from err
    return values, _Arrays(path, data)


def save_model(path: str | Path, bundle: ModelBundle) -> None:
    """Write a trained model; its class values must state its class count,
    and its embeddings have at least one dimension."""
    params, want = bundle.params, class_count(bundle.class_values)
    if params.n_classes != want:
        raise ValueError(f"{path}: a model of {want} classes holds {params.n_classes}")
    if params.dim < 1:
        raise ValueError(f"{path}: a model of dim {params.dim}, below 1")
    header = {
        "dim": params.dim,
        "n_pairs": int(bundle.edge_table.codes.shape[0]),
        "config": asdict(bundle.config),
        "project": bundle.project,
        "text_mode": bundle.text_mode,
        "split_hash": bundle.split_hash,
        "class_values": list(bundle.class_values),
        "tokens": list(bundle.vocabulary.id_to_token),
    }
    arrays = [(arr, "<f8") for _, arr in params.named_arrays()]
    _save(path, MAGIC_PREFIX, header, [*arrays, (bundle.edge_table.codes, "<i8")])


def load_model(path: str | Path) -> ModelBundle:
    """Read a model container back; inverse of save_model, bit for bit.
    Its arrays are read-only: a caller that writes to one copies it first."""
    h, arrays = _load(path, MAGIC_PREFIX, "model", {
        "dim": int, "n_pairs": int, "tokens": [str], "config": TrainConfig,
        "project": str, "text_mode": str, "split_hash": str, "class_values": [int],
    })
    tokens, class_values, n_pairs = h["tokens"], tuple(h["class_values"]), h["n_pairs"]
    v, d, c = len(tokens), h["dim"], class_count(class_values)
    token_to_id = _positions(path, "token", tokens)
    if tokens[:1] != [UNKNOWN_TOKEN]:
        # every unseen word takes token 0's row
        raise CorruptFileError(f"{path}: the token list does not start with {UNKNOWN_TOKEN!r}")
    if list(class_values) != sorted(set(class_values)) or min(class_values, default=1) < 1:
        raise CorruptFileError(f"{path}: story-point values {reprlib.repr(class_values)} "
                               "are not strictly increasing and >= 1")

    shapes = {"embeddings": (v, d), "edge_weights": (n_pairs + 1,), "gates": (v,),
              "classifier_weights": (c, d), "classifier_bias": (c,)}
    # the arrays follow in ModelParameters' field order, as save_model writes them
    params = ModelParameters(**{f.name: arrays.take("<f8", shapes[f.name])
                                for f in fields(ModelParameters)})
    codes = arrays.take("<i8", (n_pairs,))
    arrays.end()

    if d < 1:  # a negative dim is refused as an array shape above
        raise CorruptFileError(f"{path}: dim {d} is below 1")
    pairs = decode_pairs(codes)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= v):
        raise CorruptFileError(f"{path}: edge pair token id outside [0, {v})")
    if np.any(codes[1:] <= codes[:-1]):
        raise CorruptFileError(f"{path}: edge pairs not strictly increasing")
    return ModelBundle(
        params=params,
        config=h["config"],
        vocabulary=Vocabulary(id_to_token=tokens, token_to_id=token_to_id),
        edge_table=EdgeTable(codes=codes),
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


# a tree's arrays in file order
_TREE_ARRAYS = (
    ("feature", "<i8"),
    ("threshold", "<f8"),
    ("right", "<i8"),
    ("value", "<f8"),
)


def _check_tree(path: str | Path, tree: Tree, n_features: int, n_classes: int) -> None:
    """Refuse a tree outside the preorder layout of baseline.py: descending
    a cycle or a stray child index would never end or would crash, and so
    would voting for a class the forest lacks. A NaN threshold would send
    every row right, and a non-finite leaf would make a NaN prediction."""
    n = tree.feature.shape[0]
    node = np.arange(n)
    internal = tree.feature != -1
    problems = [
        (~internal & (tree.right != -1), "a leaf with a right child"),
        (internal & ((tree.right <= node + 1) | (tree.right >= n)),
         "a right child out of order"),
        (internal & ((tree.feature < 0) | (tree.feature >= n_features)),
         "a split feature out of range"),
        ((n_classes > 0) & ~internal & ~np.isin(tree.value, np.arange(n_classes)),
         f"a leaf class that is not one of 0 to {n_classes - 1}"),
        (~np.isfinite(tree.threshold), "a non-finite threshold"),
        (~np.isfinite(tree.value), "a non-finite value"),
    ]
    for bad, what in problems:
        if bad.any():
            raise CorruptFileError(f"{path}: tree node {int(np.argmax(bad))} has {what}")
    parents = np.bincount(
        np.concatenate([node[internal] + 1, tree.right[internal]]), minlength=n
    )
    parents[0] += 1  # the root is nobody's child; count it as one here
    if np.any(parents != 1):
        raise CorruptFileError(
            f"{path}: tree node {int(np.argmax(parents != 1))} "
            "is not the child of exactly one node"
        )


def save_baseline_model(path: str | Path, bundle: BaselineBundle) -> None:
    """Write a fitted vectorizer and forest; a forest whose tree count is
    not its config's is refused before any file is made."""
    tfidf = bundle.tfidf
    forest = bundle.forest
    if len(forest.trees) != forest.config.n_trees:
        raise ValueError(f"{path}: a forest of {forest.config.n_trees} trees "
                         f"holds {len(forest.trees)}")
    terms_by_column: list[str] = [""] * tfidf.n_features
    for gram, col in tfidf.vocabulary.items():
        terms_by_column[col] = gram
    header = {
        "n_classes": forest.n_classes,
        "forest_config": asdict(forest.config),
        "tree_node_counts": [int(t.feature.shape[0]) for t in forest.trees],
        "terms": terms_by_column,
        "max_ngram": tfidf.max_ngram,
    }
    arrays = [(tfidf.idf, "<f8")]
    for tree in forest.trees:
        arrays += [(getattr(tree, name), dtype) for name, dtype in _TREE_ARRAYS]
    _save(path, BASELINE_MAGIC_PREFIX, header, arrays)


def load_baseline_model(path: str | Path) -> BaselineBundle:
    """Read a baseline container back; inverse of save_baseline_model. Its
    arrays are read-only: a caller that writes to one copies it first."""
    h, arrays = _load(path, BASELINE_MAGIC_PREFIX, "baseline model", {
        "n_classes": int, "forest_config": RandomForestConfig,
        "tree_node_counts": [int], "terms": [str], "max_ngram": int,
    })
    n_classes, config = h["n_classes"], h["forest_config"]
    terms, node_counts = h["terms"], h["tree_node_counts"]
    n_features = len(terms)
    vocabulary = _positions(path, "term", terms)
    if len(node_counts) != config.n_trees:
        raise CorruptFileError(
            f"{path}: {len(node_counts)} trees listed for a forest of {config.n_trees}"
        )
    if min(node_counts) < 1:
        raise CorruptFileError(f"{path}: a tree without nodes")
    if n_classes < 0:
        raise CorruptFileError(f"{path}: n_classes is {n_classes}, below 0")
    if h["max_ngram"] < 1:
        raise CorruptFileError(f"{path}: n-grams of at most {h['max_ngram']} words")

    idf = arrays.take("<f8", (n_features,))
    # tfidf_fit makes every idf a finite number of at least 1: an infinite
    # one would turn every row holding its term into NaN, 0 the row of a
    # document of no other term, and a negative one would give the forest
    # negative weights
    for bad, what in ((~np.isfinite(idf), "is not finite"), (idf < 1, "is below 1")):
        if bad.any():
            raise CorruptFileError(f"{path}: the idf of term {int(np.argmax(bad))} {what}")
    trees = []
    for count in node_counts:
        tree = Tree(**{name: arrays.take(dtype, (count,)) for name, dtype in _TREE_ARRAYS})
        _check_tree(path, tree, n_features, n_classes)
        trees.append(tree)
    arrays.end()

    forest = Forest(trees=trees, config=config, n_features=n_features, n_classes=n_classes)
    tfidf = TfidfModel(vocabulary=vocabulary, idf=idf, max_ngram=h["max_ngram"])
    return BaselineBundle(tfidf=tfidf, forest=forest)
