"""Round-trip fidelity and corruption handling for the binary model files."""

import dataclasses
import json
import struct

import numpy as np
import pytest

from storygraph.baseline import (
    RandomForestConfig,
    Tree,
    rf_fit,
    rf_predict_many,
    tfidf_fit,
    tfidf_transform,
)
from storygraph.corpus import StoryPointLevel
from storygraph.embeddings import EncodedDocument, Vocabulary
from storygraph.errors import CorruptFileError, VersionMismatchError
from storygraph.gnn import TrainConfig, forward, init_parameters, predict
from storygraph.graph import assign_edge_params, build_graph, count_cooccurrences
from storygraph.model_io import (
    BaselineBundle,
    ModelBundle,
    load_baseline_model,
    load_model,
    save_baseline_model,
    save_model,
)


def make_bundle(seed=0):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(
        id_to_token=["<unk>", "alpha", "beta", "gamma"],
        token_to_id={"<unk>": 0, "alpha": 1, "beta": 2, "gamma": 3},
        counts=[0, 5, 3, 2],
    )
    docs = [
        EncodedDocument("a", (1, 2, 3, 2), StoryPointLevel.SMALL, 2),
        EncodedDocument("b", (2, 3, 1), StoryPointLevel.MEDIUM, 8),
    ]
    table = assign_edge_params(count_cooccurrences(docs, 2), 1, 2)
    params = init_parameters(
        rng.normal(size=(4, 5)), table.num_edge_params, 3, seed=seed
    )
    config = TrainConfig(seed=seed, window=2, min_edge_frequency=1)
    return (
        ModelBundle(
            params=params,
            config=config,
            vocabulary=vocab,
            edge_table=table,
            project="alpha",
            text_mode="raw",
            split_hash="0123456789ab",
            class_values=(2, 8, 20),
        ),
        docs,
    )


def test_round_trip_is_bit_exact(tmp_path):
    bundle, _ = make_bundle()
    path = tmp_path / "m.model"
    save_model(path, bundle)
    loaded = load_model(path)

    for name, arr in bundle.params.named_arrays():
        other = getattr(loaded.params, name)
        assert arr.dtype == other.dtype
        assert np.array_equal(arr, other)
    assert loaded.config == bundle.config
    assert loaded.vocabulary.id_to_token == bundle.vocabulary.id_to_token
    assert loaded.vocabulary.token_to_id == bundle.vocabulary.token_to_id
    assert loaded.vocabulary.counts == bundle.vocabulary.counts
    assert loaded.edge_table.codes.dtype == bundle.edge_table.codes.dtype
    assert np.array_equal(loaded.edge_table.codes, bundle.edge_table.codes)
    assert loaded.edge_table.num_edge_params == bundle.edge_table.num_edge_params
    assert loaded.edge_table.window == bundle.edge_table.window
    assert loaded.edge_table.min_frequency == bundle.edge_table.min_frequency
    assert loaded.class_values == bundle.class_values
    assert (loaded.project, loaded.text_mode, loaded.split_hash) == (
        bundle.project, bundle.text_mode, bundle.split_hash)


def test_loaded_model_predicts_identically(tmp_path):
    bundle, docs = make_bundle(seed=3)
    path = tmp_path / "m.model"
    save_model(path, bundle)
    loaded = load_model(path)
    for d in docs:
        g = build_graph(d, 2, bundle.edge_table)
        g2 = build_graph(d, 2, loaded.edge_table)
        a_idx, a_probs = predict(bundle.params, g)
        b_idx, b_probs = predict(loaded.params, g2)
        assert a_idx == b_idx
        assert np.array_equal(a_probs, b_probs)
        assert np.array_equal(
            forward(bundle.params, g).readout,
            forward(loaded.params, g2).readout,
        )


def test_save_is_deterministic(tmp_path):
    bundle, _ = make_bundle(seed=1)
    p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
    save_model(p1, bundle)
    save_model(p2, bundle)
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_class_values(tmp_path):
    # classification bundles carry no story-point mapping
    bundle, _ = make_bundle()
    bundle = dataclasses.replace(bundle, class_values=())
    path = tmp_path / "m.model"
    save_model(path, bundle)
    assert load_model(path).class_values == ()


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "m.model"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(CorruptFileError):
        load_model(path)


def test_rejects_unknown_version(tmp_path):
    bundle, _ = make_bundle()
    path = tmp_path / "m.model"
    save_model(path, bundle)
    raw = bytearray(path.read_bytes())
    raw[7] = 99  # version byte follows the 7-byte magic
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatchError):
        load_model(path)


def test_rejects_truncated_file(tmp_path):
    bundle, _ = make_bundle()
    path = tmp_path / "m.model"
    save_model(path, bundle)
    raw = path.read_bytes()
    for cut in (3, 10, len(raw) // 2, len(raw) - 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(CorruptFileError):
            load_model(path)


def test_rejects_trailing_garbage(tmp_path):
    bundle, _ = make_bundle()
    path = tmp_path / "m.model"
    save_model(path, bundle)
    path.write_bytes(path.read_bytes() + b"\x00\x01")
    with pytest.raises(CorruptFileError):
        load_model(path)


def test_rejects_corrupt_header_json(tmp_path):
    bundle, _ = make_bundle()
    path = tmp_path / "m.model"
    save_model(path, bundle)
    raw = bytearray(path.read_bytes())
    raw[16] ^= 0xFF  # inside the JSON header
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptFileError):
        load_model(path)


def rewrite_header(path, section=None, **edits):
    """Edit a container's header fields, or those of the config it holds
    under `section`, and the header length before them; the arrays stay as
    they are."""
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<Q", raw, 8)  # after magic and version byte
    header = json.loads(raw[16:16 + length])
    (header if section is None else header[section]).update(edits)
    text = json.dumps(header).encode()
    path.write_bytes(raw[:8] + struct.pack("<Q", len(text)) + text + raw[16 + length:])


def saved_model(path):
    """A small `.model` at path: its loader, header config key and config."""
    bundle, _ = make_bundle()
    save_model(path, bundle)
    return lambda: load_model(path).config, "config", bundle.config


def saved_baseline(path):
    """A small `.baseline` at path: its loader, header config key and config."""
    bundle, _ = fit_small_baseline()
    save_baseline_model(path, bundle)
    return lambda: load_baseline_model(path).forest.config, "forest_config", bundle.forest.config


@pytest.mark.parametrize("container, edit", [
    *(pytest.param(saved_model, edit, id=repr(edit)) for edit in (
        {"window": "3"}, {"window": 3.0}, {"rounds": 1.5}, {"batch_size": 0},
        {"dropout": 7.5}, {"seed": "42"}, {"learning_rate": -1},
        {"min_edge_frequency": 0}, {"momentum": 0.9},
    )),
    *(pytest.param(saved_baseline, edit, id=f"baseline-{edit!r}") for edit in (
        {"n_trees": 0}, {"min_leaf": "1"}, {"max_depth": -1}, {"max_features": 7},
        {"bootstrap": "yes"}, {"n_estimators": 10},
    )),
])
def test_rejects_a_header_config_outside_its_declared_values(tmp_path, container, edit):
    load, section, config = container(tmp_path / "m")
    rewrite_header(tmp_path / "m", section)
    assert load() == config  # the rewrite alone is harmless
    rewrite_header(tmp_path / "m", section, **edit)
    key = next(iter(edit))
    with pytest.raises(CorruptFileError, match=f"malformed header field: ({key}: |.*'{key}')"):
        load()


@pytest.mark.parametrize("edit", [{"dim": -1}, {"n_pairs": -1, "n_edge_params": 0}], ids=repr)
def test_rejects_a_negative_array_shape(tmp_path, edit):
    # each passes the header's own cross-checks; numpy would read a negative
    # count as "the rest of the buffer"
    bundle, _ = make_bundle()
    path = tmp_path / "m.model"
    save_model(path, bundle)
    rewrite_header(path, **edit)
    with pytest.raises(CorruptFileError, match="negative shape"):
        load_model(path)


def _pairs_offset(path):
    """Byte offset of the edge pairs section: it ends the file."""
    n_pairs = load_model(path).edge_table.num_edge_params - 1
    return len(path.read_bytes()) - 16 * n_pairs


def test_rejects_unsorted_edge_pairs(tmp_path):
    bundle, _ = make_bundle()
    path = tmp_path / "m.model"
    save_model(path, bundle)
    start = _pairs_offset(path)
    raw = bytearray(path.read_bytes())
    first, second = raw[start : start + 16], raw[start + 16 : start + 32]
    raw[start : start + 32] = second + first  # swap the first two pairs
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptFileError, match="strictly increasing"):
        load_model(path)


def test_rejects_duplicate_edge_pairs(tmp_path):
    bundle, _ = make_bundle()
    path = tmp_path / "m.model"
    save_model(path, bundle)
    start = _pairs_offset(path)
    raw = bytearray(path.read_bytes())
    raw[start + 16 : start + 32] = raw[start : start + 16]
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptFileError, match="strictly increasing"):
        load_model(path)


@pytest.mark.parametrize("token_id", [4, -1])
def test_rejects_edge_pair_token_out_of_range(tmp_path, token_id):
    bundle, _ = make_bundle()  # vocabulary of 4
    path = tmp_path / "m.model"
    save_model(path, bundle)
    raw = bytearray(path.read_bytes())
    raw[-8:] = np.array([token_id], dtype="<i8").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptFileError, match="outside"):
        load_model(path)


# --- baseline bundle ---------------------------------------------------------


def fit_small_baseline(task="classify", seed=0):
    texts = [
        "parse the config file",
        "parse the input file",
        "render the chart widget",
        "render the dashboard widget",
    ]
    tokens = [t.split() for t in texts]
    tfidf = tfidf_fit(tokens)
    xs = tfidf_transform(tfidf, tokens)
    if task == "classify":
        ys = [0, 0, 1, 1]
    else:
        ys = [2.0, 2.0, 8.0, 8.0]
    forest = rf_fit(
        xs, ys, RandomForestConfig(n_trees=5, seed=seed), task=task
    )
    return BaselineBundle(tfidf=tfidf, forest=forest), xs


@pytest.mark.parametrize("task", ["classify", "regress"])
def test_baseline_round_trip(tmp_path, task):
    bundle, xs = fit_small_baseline(task)
    path = tmp_path / "m.baseline"
    save_baseline_model(path, bundle)
    loaded = load_baseline_model(path)

    assert loaded.tfidf.vocabulary == bundle.tfidf.vocabulary
    assert np.array_equal(loaded.tfidf.idf, bundle.tfidf.idf)
    assert loaded.tfidf.document_count == bundle.tfidf.document_count
    assert loaded.forest.task == bundle.forest.task
    assert loaded.forest.n_features == bundle.forest.n_features
    assert len(loaded.forest.trees) == len(bundle.forest.trees)
    assert rf_predict_many(loaded.forest, xs) == rf_predict_many(bundle.forest, xs)


@pytest.mark.parametrize("task", ["classify", "regress"])
def test_baseline_round_trip_is_byte_exact(tmp_path, task):
    bundle, _ = fit_small_baseline(task)
    first, second = tmp_path / "a.baseline", tmp_path / "b.baseline"
    save_baseline_model(first, bundle)
    save_baseline_model(second, load_baseline_model(first))
    assert first.read_bytes() == second.read_bytes()


def test_baseline_rejects_gnn_file_and_vice_versa(tmp_path):
    bundle, _ = make_bundle()
    gnn_path = tmp_path / "m.model"
    save_model(gnn_path, bundle)
    with pytest.raises(CorruptFileError):
        load_baseline_model(gnn_path)

    base, _ = fit_small_baseline()
    base_path = tmp_path / "m.baseline"
    save_baseline_model(base_path, base)
    with pytest.raises(CorruptFileError):
        load_model(base_path)


def _header_version_bumped(raw: bytes) -> bytes:
    field = b'"format_version": 2'
    assert field in raw
    return raw.replace(field, b'"format_version": 3', 1)


def test_rejects_header_version_mismatch(tmp_path):
    bundle, _ = make_bundle()
    path = tmp_path / "m.model"
    save_model(path, bundle)
    path.write_bytes(_header_version_bumped(path.read_bytes()))
    with pytest.raises(VersionMismatchError):
        load_model(path)


def test_baseline_rejects_corrupt_containers(tmp_path):
    bundle, _ = fit_small_baseline()
    path = tmp_path / "m.baseline"
    save_baseline_model(path, bundle)
    raw = path.read_bytes()
    wrong_version = bytearray(raw)
    wrong_version[7] = 99
    bad_json = bytearray(raw)
    bad_json[16] ^= 0xFF
    cases = [
        (b"NOTMAGIC" + b"\x00" * 64, CorruptFileError),
        (bytes(wrong_version), VersionMismatchError),
        (_header_version_bumped(raw), VersionMismatchError),
        (bytes(bad_json), CorruptFileError),
        (raw + b"\x00\x01", CorruptFileError),
        *((raw[:cut], CorruptFileError) for cut in (3, 10, len(raw) // 2, len(raw) - 1)),
    ]
    for blob, error in cases:
        path.write_bytes(blob)
        with pytest.raises(error):
            load_baseline_model(path)


def test_baseline_round_trip_preserves_tree_structure(tmp_path):
    bundle, _ = fit_small_baseline()
    path = tmp_path / "m.baseline"
    save_baseline_model(path, bundle)
    loaded = load_baseline_model(path)

    for a, b in zip(bundle.forest.trees, loaded.forest.trees):
        for name in ("feature", "threshold", "left", "right", "value", "histogram"):
            assert getattr(a, name).dtype == getattr(b, name).dtype
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert a.bootstrap_seed == b.bootstrap_seed


def five_node_tree():
    """Root split on feature 0; its left child splits on feature 1; three
    leaves. Preorder: 0 (1, 4), 1 (2, 3), leaves 2, 3, 4."""
    return Tree(
        feature=np.array([0, 1, -1, -1, -1], dtype=np.int64),
        threshold=np.array([0.5, 0.25, 0.0, 0.0, 0.0]),
        left=np.array([1, 2, -1, -1, -1], dtype=np.int64),
        right=np.array([4, 3, -1, -1, -1], dtype=np.int64),
        value=np.zeros(5),
        histogram=np.array([[0, 0], [0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.float64),
        bootstrap_seed=7,
    )


def test_baseline_loads_hand_built_tree(tmp_path):
    bundle, xs = fit_small_baseline()
    bundle.forest.trees = [five_node_tree()]
    path = tmp_path / "m.baseline"
    save_baseline_model(path, bundle)
    loaded = load_baseline_model(path)
    assert np.array_equal(loaded.forest.trees[0].right, [4, 3, -1, -1, -1])
    assert rf_predict_many(loaded.forest, xs) == rf_predict_many(bundle.forest, xs)


def _self_loop(t):
    t.left[0] = 0


def _back_edge(t):
    t.right[1] = 0


def _shared_child(t):
    t.right[0] = 3  # node 3 is also node 1's right child; node 4 is orphaned


def _leaf_with_one_child(t):
    t.right[2] = 3


def _feature_out_of_range(t):
    t.feature[1] = 10**6


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_self_loop, "left child that is not the next node"),
        (_back_edge, "right child out of order"),
        (_shared_child, "not the child of exactly one node"),
        (_leaf_with_one_child, "leaf with a right child"),
        (_feature_out_of_range, "split feature out of range"),
    ],
)
def test_baseline_rejects_malformed_tree(tmp_path, corrupt, message):
    # each of these loaded at one time, and a self-loop then made
    # prediction descend forever
    bundle, _ = fit_small_baseline()
    tree = five_node_tree()
    corrupt(tree)
    bundle.forest.trees = [tree]
    path = tmp_path / "m.baseline"
    save_baseline_model(path, bundle)
    with pytest.raises(CorruptFileError, match=message):
        load_baseline_model(path)


def test_baseline_rejects_empty_tree_and_unknown_task(tmp_path):
    bundle, _ = fit_small_baseline()
    empty = five_node_tree()
    for name in ("feature", "threshold", "left", "right", "value"):
        setattr(empty, name, getattr(empty, name)[:0])
    empty.histogram = empty.histogram[:0]
    bundle.forest.trees = [empty]
    path = tmp_path / "m.baseline"
    save_baseline_model(path, bundle)
    with pytest.raises(CorruptFileError, match="without nodes"):
        load_baseline_model(path)

    bundle, _ = fit_small_baseline()
    bundle.forest.task = "cluster"
    save_baseline_model(path, bundle)
    with pytest.raises(CorruptFileError, match="task"):
        load_baseline_model(path)
