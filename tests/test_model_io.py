"""Round-trip fidelity and corruption handling for the binary model files."""

import dataclasses
import re
import struct

import numpy as np
import pytest
from conftest import (
    byte_classes,
    expected_damage,
    mutations,
    read_header,
    rewrite_header,
    seal,
    tree_arrays,
)

from storygraph.baseline import (
    RandomForestConfig,
    Tree,
    rf_fit,
    rf_predict_many,
    tfidf_fit,
    tfidf_transform,
)
from storygraph.corpus import class_count
from storygraph.embeddings import EncodedDocument, Vocabulary
from storygraph.errors import CorruptFileError, VersionMismatchError
from storygraph.experiment import score_gnn
from storygraph.gnn import TrainConfig, forward, init_parameters, predict
from storygraph.graph import EdgeTable, assign_edge_params, build_graph, count_cooccurrences
from storygraph.model_io import (
    FORMAT_VERSION,
    BaselineBundle,
    ModelBundle,
    load_baseline_model,
    load_model,
    save_baseline_model,
    save_model,
)


def make_bundle(seed=0, class_values=(2, 8, 20)):
    """A small model of as many classes as `class_values` state."""
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(
        id_to_token=["<unk>", "alpha", "beta", "gamma"],
        token_to_id={"<unk>": 0, "alpha": 1, "beta": 2, "gamma": 3},
    )
    docs = [
        EncodedDocument("a", (1, 2, 3, 2), 2),
        EncodedDocument("b", (2, 3, 1), 8),
    ]
    table = assign_edge_params(count_cooccurrences(docs, 2), 1)
    params = init_parameters(
        rng.normal(size=(4, 5)), table.num_edge_params, class_count(class_values), seed=seed
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
            class_values=class_values,
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
    assert loaded.edge_table.codes.dtype == bundle.edge_table.codes.dtype
    assert np.array_equal(loaded.edge_table.codes, bundle.edge_table.codes)
    assert loaded.edge_table.num_edge_params == bundle.edge_table.num_edge_params
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


def empty_edge_table(bundle):
    """bundle with no pair owning a parameter: only the public edge."""
    params = dataclasses.replace(bundle.params, edge_weights=bundle.params.edge_weights[:1])
    table = EdgeTable(codes=np.empty(0, dtype=np.int64))
    return dataclasses.replace(bundle, params=params, edge_table=table)


@pytest.mark.parametrize("variant", [
    pytest.param(lambda b: b, id="story-points"),
    pytest.param(lambda b: make_bundle(class_values=())[0], id="no-class-values"),
    pytest.param(empty_edge_table, id="no-edge-pairs"),
])
def test_model_round_trip_is_byte_exact(tmp_path, variant):
    bundle = variant(make_bundle()[0])
    first, second = tmp_path / "a.model", tmp_path / "b.model"
    save_model(first, bundle)
    save_model(second, load_model(first))
    assert first.read_bytes() == second.read_bytes()


def test_empty_class_values(tmp_path):
    # classification bundles carry no story-point mapping
    bundle, _ = make_bundle(class_values=())
    path = tmp_path / "m.model"
    save_model(path, bundle)
    loaded = load_model(path)
    assert loaded.class_values == ()
    assert loaded.params.n_classes == 4


def test_class_values_alone_state_the_class_count(tmp_path):
    # format 4 wrote 3 classes under no story-point values, and the model
    # was then scored against the 4 effort levels
    bundle, _ = make_bundle()
    path = tmp_path / "m.model"
    with pytest.raises(ValueError, match="a model of 4 classes holds 3$"):
        save_model(path, dataclasses.replace(bundle, class_values=()))
    assert not path.exists()

    # sealed by hand, its classifier arrays do not fit the array section
    save_model(path, bundle)
    rewrite_header(path, class_values=[])
    with pytest.raises(CorruptFileError, match="array section truncated"):
        load_model(path)


@pytest.mark.parametrize("class_values", [[8, 2, 8], [2, 8, 8], [20, 8, 2], [0, 2, 8],
                                          [-8, 2, 20]], ids=str)
def test_rejects_story_point_values_not_increasing_from_one(tmp_path, class_values):
    # format 4 loaded [8, 2, 8], and score_gnn then gave 0.00% to this
    # model, which scores 50.00%
    bundle, docs = make_bundle()
    path = tmp_path / "m.model"
    save_model(path, bundle)
    assert score_gnn(load_model(path), docs)[0] == 50.0
    rewrite_header(path, class_values=class_values)
    with pytest.raises(CorruptFileError, match="not strictly increasing and >= 1"):
        load_model(path)


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
    path.write_bytes(seal(raw[:-4]))
    with pytest.raises(CorruptFileError):
        load_model(path)


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


def saved_model_header(path):
    """saved_model, with edits going to the header's own fields."""
    load, _, config = saved_model(path)
    return load, None, config


def saved_baseline_header(path):
    """saved_baseline, with edits going to the header's own fields."""
    load, _, config = saved_baseline(path)
    return load, None, config


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
    # each of a wrong JSON type, which a plain int(), str() or list() converted
    *(pytest.param(saved_model_header, edit, id=f"header-{edit!r}") for edit in (
        {"n_pairs": 2.9}, {"dim": True}, {"project": 5},
        {"split_hash": 7}, {"tokens": "<abc"}, {"tokens": ["<unk>", "alpha", "beta", 3]},
        {"class_values": [2, 8, 20.5]},
    )),
    *(pytest.param(saved_baseline_header, edit, id=f"baseline-header-{edit!r}")
      for edit in ({"max_ngram": 2.5}, {"n_classes": False})),
    # fields of earlier formats that this one no longer reads: a header
    # holding one is refused, whatever its value
    *(pytest.param(saved_model_header, edit, id=f"header-{edit!r}") for edit in (
        {"token_counts": [0, 5, 3, 2.0]}, {"n_classes": 4.0},
    )),
    *(pytest.param(saved_baseline_header, edit, id=f"baseline-header-{edit!r}")
      for edit in (
        {"document_count": 3.7}, {"bootstrap_seeds": [1.9, 2, 3, 4, 5]}, {"task": 1},
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


def test_a_model_of_no_dimensions_is_neither_saved_nor_loaded(tmp_path):
    # eval would end in an error that names no file
    bundle, _ = make_bundle()
    params = bundle.params
    path = tmp_path / "m.model"
    with pytest.raises(ValueError, match="a model of dim 0, below 1$"):
        save_model(path, dataclasses.replace(bundle, params=dataclasses.replace(
            params, embeddings=params.embeddings[:, :0],
            classifier_weights=params.classifier_weights[:, :0])))
    assert not path.exists()

    # sealed by hand with every array shaped for dim 0: the dim-5 file less
    # its first (vocabulary + classes) * 5 floats, so the edge codes stay last
    save_model(path, bundle)
    rewrite_header(path, dim=0)
    raw = path.read_bytes()
    arrays_at = 16 + struct.unpack_from("<Q", raw, 8)[0]
    cut = (params.vocab_size + params.n_classes) * params.dim * 8
    path.write_bytes(seal(raw[:arrays_at] + raw[arrays_at + cut:-4]))
    with pytest.raises(CorruptFileError, match=f"^{re.escape(str(path))}: dim 0 is below 1$"):
        load_model(path)


@pytest.mark.parametrize("edit", [{"dim": -1}, {"n_pairs": -1}], ids=repr)
def test_rejects_a_negative_array_shape(tmp_path, edit):
    # each passes the header's own cross-checks; numpy would read a negative
    # count as "the rest of the buffer"
    bundle, _ = make_bundle()
    path = tmp_path / "m.model"
    save_model(path, bundle)
    rewrite_header(path, **edit)
    with pytest.raises(CorruptFileError, match="negative shape"):
        load_model(path)


@pytest.mark.parametrize("dim", [2**61 + 1, 2**62], ids=["2**61+1", "2**62"])
def test_rejects_an_array_larger_than_the_file(tmp_path, dim):
    # the element count of a (4, 2**62) array once wrapped to 0 in int64, so
    # numpy, not the loader, refused it, and the error named no file
    bundle, _ = make_bundle()
    path = tmp_path / "m.model"
    save_model(path, bundle)
    rewrite_header(path, dim=dim)
    with pytest.raises(CorruptFileError, match=f"^{re.escape(str(path))}: array section "
                                               "truncated"):
        load_model(path)


@pytest.mark.parametrize("container, keys", [
    (saved_model, ["dim", "n_pairs", "config", "project", "text_mode", "split_hash",
                   "class_values", "tokens"]),
    (saved_baseline, ["n_classes", "forest_config", "tree_node_counts", "terms",
                      "max_ngram"]),
])
def test_each_header_states_each_fact_once(tmp_path, container, keys):
    # sizes that follow from another field (vocabulary size, edge parameter
    # count, feature count, a model's class count) or the config (edge
    # window, frequency threshold) are not stored, nor is the version byte's
    # format version
    container(tmp_path / "m")
    assert list(read_header(tmp_path / "m")) == keys


def test_rejects_a_token_listed_twice(tmp_path):
    path = tmp_path / "m"
    load, _, _ = saved_model_header(path)
    rewrite_header(path, tokens=["<unk>", "alpha", "alpha", "gamma"])
    with pytest.raises(CorruptFileError, match="token 'alpha' twice"):
        load()


@pytest.mark.parametrize("tokens", [["alpha", "<unk>", "beta", "gamma"], []], ids=str)
def test_rejects_a_token_list_that_does_not_start_with_unk(tmp_path, tokens):
    # a model whose token 0 is "alpha" once loaded, and every unseen word
    # then took alpha's row
    path = tmp_path / "m"
    load, _, _ = saved_model_header(path)
    assert read_header(path)["tokens"] == ["<unk>", "alpha", "beta", "gamma"]
    rewrite_header(path, tokens=tokens)
    with pytest.raises(CorruptFileError, match=f"{path}: the token list does not start "
                       "with '<unk>'"):
        load()


def test_baseline_rejects_a_term_listed_twice(tmp_path):
    path = tmp_path / "m"
    load, _, _ = saved_baseline_header(path)
    terms = read_header(path)["terms"]
    rewrite_header(path, terms=[terms[0], terms[0], *terms[2:]])
    with pytest.raises(CorruptFileError, match=f"term '{terms[0]}' twice"):
        load()


def _pairs_offset(path):
    """Byte offset of the edge pair codes: 8 bytes each, they end the
    arrays, and the 4-byte checksum follows them."""
    n_pairs = load_model(path).edge_table.num_edge_params - 1
    return len(path.read_bytes()) - 4 - 8 * n_pairs


def test_rejects_unsorted_edge_pairs(tmp_path):
    bundle, _ = make_bundle()
    path = tmp_path / "m.model"
    save_model(path, bundle)
    start = _pairs_offset(path)
    raw = bytearray(path.read_bytes())
    first, second = raw[start : start + 8], raw[start + 8 : start + 16]
    raw[start : start + 16] = second + first  # swap the first two pairs
    path.write_bytes(seal(raw[:-4]))
    with pytest.raises(CorruptFileError, match="strictly increasing"):
        load_model(path)


def test_rejects_duplicate_edge_pairs(tmp_path):
    bundle, _ = make_bundle()
    path = tmp_path / "m.model"
    save_model(path, bundle)
    start = _pairs_offset(path)
    raw = bytearray(path.read_bytes())
    raw[start + 8 : start + 16] = raw[start : start + 8]
    path.write_bytes(seal(raw[:-4]))
    with pytest.raises(CorruptFileError, match="strictly increasing"):
        load_model(path)


@pytest.mark.parametrize("token_id", [4, -1])
def test_rejects_edge_pair_token_out_of_range(tmp_path, token_id):
    bundle, _ = make_bundle()  # vocabulary of 4
    path = tmp_path / "m.model"
    save_model(path, bundle)
    raw = bytearray(path.read_bytes())
    raw[-12:-4] = np.array([token_id], dtype="<i8").tobytes()
    path.write_bytes(seal(raw[:-4]))
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


def baseline_byte_classes(path, bundle):
    """The byte positions of each part of the `.baseline` file at path,
    written from bundle: its frame, header, idf, each tree's arrays and
    checksum (see conftest.byte_classes)."""
    array_bytes = [("idf", bundle.tfidf.idf.nbytes)]
    for i, tree in enumerate(bundle.forest.trees):
        array_bytes += [(f"tree {i} {name}", array.nbytes)
                        for name, array in tree_arrays(tree).items()]
    return byte_classes(path, array_bytes)


@pytest.mark.parametrize("task", ["classify", "regress"])
def test_baseline_round_trip(tmp_path, task):
    bundle, xs = fit_small_baseline(task)
    path = tmp_path / "m.baseline"
    save_baseline_model(path, bundle)
    loaded = load_baseline_model(path)

    assert loaded.tfidf.vocabulary == bundle.tfidf.vocabulary
    assert np.array_equal(loaded.tfidf.idf, bundle.tfidf.idf)
    assert loaded.forest.task == bundle.forest.task
    assert loaded.forest.n_features == bundle.forest.n_features
    assert len(loaded.forest.trees) == len(bundle.forest.trees)
    assert rf_predict_many(loaded.forest, xs) == rf_predict_many(bundle.forest, xs)


def test_save_baseline_refuses_a_forest_short_of_its_trees(tmp_path):
    # loading would refuse the file, so it is never written
    bundle, _ = fit_small_baseline()
    bundle.forest.trees = bundle.forest.trees[:1]
    path = tmp_path / "m.baseline"
    with pytest.raises(ValueError, match="a forest of 5 trees holds 1$"):
        save_baseline_model(path, bundle)
    assert not path.exists()


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


@pytest.mark.parametrize("container", [saved_model, saved_baseline])
def test_refuses_a_file_of_the_previous_format_with_retrain(tmp_path, container):
    # a file written before this format: its version byte and header say so
    path = tmp_path / "m"
    load, _, _ = container(path)
    rewrite_header(path, format_version=FORMAT_VERSION - 1)
    raw = bytearray(path.read_bytes())
    raw[7] = FORMAT_VERSION - 1
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatchError,
                       match=f"format version {FORMAT_VERSION - 1}, .*retrain"):
        load()


@pytest.mark.parametrize("container", [saved_model_header, saved_baseline_header],
                         ids=["model", "baseline"])
def test_refuses_a_header_that_states_the_format_version(tmp_path, container):
    # the version byte alone states the version; format 4's header restated
    # it as `format_version`, a field this format does not read
    load, _, _ = container(tmp_path / "m")
    rewrite_header(tmp_path / "m", format_version=FORMAT_VERSION)
    with pytest.raises(CorruptFileError,
                       match="malformed header field: 'format_version' is not one of"):
        load()


@pytest.mark.parametrize("container", [saved_model, saved_baseline], ids=["model", "baseline"])
def test_a_header_nested_too_deep_is_unreadable(tmp_path, container):
    # json.loads gives up past Python's recursion limit, with a RecursionError
    path = tmp_path / "m"
    load, _, _ = container(path)
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<Q", raw, 8)
    deep = b"[" * 100_000 + b"]" * 100_000
    path.write_bytes(seal(raw[:8] + struct.pack("<Q", len(deep)) + deep + raw[16 + length:-4]))
    with pytest.raises(CorruptFileError, match=f"^{re.escape(str(path))}: unreadable header: "):
        load()


def test_baseline_rejects_corrupt_containers(tmp_path):
    bundle, _ = fit_small_baseline()
    path = tmp_path / "m.baseline"
    save_baseline_model(path, bundle)
    raw = path.read_bytes()
    wrong_version = bytearray(raw)
    wrong_version[7] = 99
    bad_json = bytearray(raw[:-4])
    bad_json[16] ^= 0xFF  # inside the JSON header, re-sealed
    cases = [
        (b"NOTMAGIC" + b"\x00" * 64, CorruptFileError),
        (bytes(wrong_version), VersionMismatchError),
        (seal(bytes(bad_json)), CorruptFileError),
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

    for a, b in zip(bundle.forest.trees, loaded.forest.trees, strict=True):
        for name, saved in tree_arrays(a).items():
            assert saved.dtype == getattr(b, name).dtype, name
            assert np.array_equal(saved, getattr(b, name)), name


def five_node_tree():
    """Root split on feature 0; its left child splits on feature 1; three
    leaves of classes 0, 1 and 0. Preorder: 0 (1, 4), 1 (2, 3), leaves 2,
    3, 4."""
    return Tree(
        feature=np.array([0, 1, -1, -1, -1], dtype=np.int64),
        threshold=np.array([0.5, 0.25, 0.0, 0.0, 0.0]),
        right=np.array([4, 3, -1, -1, -1], dtype=np.int64),
        value=np.array([0.0, 0.0, 0.0, 1.0, 0.0]),
    )


def with_trees(bundle, trees):
    """Make bundle's forest these trees, and configure it so."""
    bundle.forest.trees = trees
    bundle.forest.config = dataclasses.replace(bundle.forest.config, n_trees=len(trees))


def test_baseline_loads_hand_built_tree(tmp_path):
    bundle, xs = fit_small_baseline()
    with_trees(bundle, [five_node_tree()])
    path = tmp_path / "m.baseline"
    save_baseline_model(path, bundle)
    loaded = load_baseline_model(path)
    assert np.array_equal(loaded.forest.trees[0].right, [4, 3, -1, -1, -1])
    assert rf_predict_many(loaded.forest, xs) == rf_predict_many(bundle.forest, xs)


def _self_loop(t):
    t.right[0] = 0


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
        (_self_loop, "right child out of order"),
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
    with_trees(bundle, [tree])
    path = tmp_path / "m.baseline"
    save_baseline_model(path, bundle)
    with pytest.raises(CorruptFileError, match=message):
        load_baseline_model(path)


@pytest.mark.parametrize("bad", [4.0, 2.0, -1.0, 0.5, np.nan])
def test_baseline_rejects_a_leaf_class_the_forest_lacks(tmp_path, bad):
    # the vote counts a tree's vote for the class its leaf's value names:
    # 4.0 or 2.0 would crash it, -1.0 would count for the last class, and
    # 0.5 or nan names no class
    bundle, _ = fit_small_baseline()  # classes 0 and 1
    path = tmp_path / "m.baseline"
    save_baseline_model(path, bundle)
    tree = bundle.forest.trees[0]
    leaf = int(np.flatnonzero(tree.feature < 0)[0])
    at = baseline_byte_classes(path, bundle)["tree 0 value"].start + 8 * leaf
    raw = bytearray(path.read_bytes())

    def write_leaf(value):
        raw[at:at + 8] = struct.pack("<d", value)
        path.write_bytes(seal(bytes(raw[:-4])))

    other = 1.0 - tree.value[leaf]
    write_leaf(other)  # the other class: the rewrite alone is harmless
    assert load_baseline_model(path).forest.trees[0].value[leaf] == other
    write_leaf(bad)
    with pytest.raises(CorruptFileError,
                       match=f"tree node {leaf} has a leaf class that is not one of 0 to 1$"):
        load_baseline_model(path)


def test_baseline_rejects_empty_tree_and_unknown_task(tmp_path):
    bundle, _ = fit_small_baseline()
    empty = Tree(**{name: array[:0] for name, array in tree_arrays(five_node_tree()).items()})
    with_trees(bundle, [empty])
    path = tmp_path / "m.baseline"
    save_baseline_model(path, bundle)
    with pytest.raises(CorruptFileError, match="without nodes"):
        load_baseline_model(path)

    # the class count states the task, and a negative one states none
    bundle, _ = fit_small_baseline()
    save_baseline_model(path, bundle)
    rewrite_header(path, n_classes=-1)
    with pytest.raises(CorruptFileError, match="n_classes is -1, below 0$"):
        load_baseline_model(path)


@pytest.mark.parametrize("n_trees", [4, 6, 7])
def test_baseline_rejects_a_tree_count_other_than_its_configs(tmp_path, n_trees):
    # a forest of 5 trees whose config states another count; format 3
    # loaded such a file as the 5 trees it listed
    bundle, _ = fit_small_baseline()
    path = tmp_path / "m.baseline"
    save_baseline_model(path, bundle)
    rewrite_header(path, "forest_config", n_trees=n_trees)
    with pytest.raises(CorruptFileError, match=f"5 trees listed for a forest of {n_trees}"):
        load_baseline_model(path)


@pytest.mark.parametrize("max_ngram", [0, -1])
def test_baseline_rejects_n_grams_shorter_than_a_word(tmp_path, max_ngram):
    # format 3 loaded max_ngram 0, under which every document transforms to
    # an empty row and every prediction falls to one class
    bundle, _ = fit_small_baseline()
    path = tmp_path / "m.baseline"
    save_baseline_model(path, bundle)
    rewrite_header(path, max_ngram=max_ngram)
    with pytest.raises(CorruptFileError, match=f"n-grams of at most {max_ngram} words"):
        load_baseline_model(path)


def test_baseline_n_grams_longer_than_a_document_transform_as_at_4(tmp_path):
    # iter_ngrams once counted n up to max_ngram whatever a document's
    # length: at 10**7, one 3-token document took 2 s
    bundle, _ = fit_small_baseline()
    path = tmp_path / "m.baseline"
    save_baseline_model(path, bundle)
    rewrite_header(path, max_ngram=10**9)
    docs = [t.split() for t in ("parse the config file and render the chart widget",
                                "render the chart", "")]
    got = tfidf_transform(load_baseline_model(path).tfidf, docs)
    want = tfidf_transform(bundle.tfidf, docs)
    for name in ("indptr", "indices", "values"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _first_leaf(tree):
    return int(np.flatnonzero(tree.feature < 0)[0])


def _first_split(tree):
    return int(np.flatnonzero(tree.feature >= 0)[0])


@pytest.mark.parametrize("task, array, node, bad, message", [
    ("regress", "tree 0 value", _first_leaf, np.nan, "tree node {} has a non-finite value$"),
    ("classify", "tree 0 threshold", _first_split, np.nan,
     "tree node {} has a non-finite threshold$"),
    ("classify", "idf", lambda tree: 0, np.inf, "the idf of term 0 is not finite$"),
    # tfidf_fit makes every idf at least 1
    *(("classify", "idf", lambda tree: 1, idf, "the idf of term 1 is below 1$")
      for idf in (0.0, -2.0, 0.5)),
], ids=["nan-leaf", "nan-threshold", "inf-idf", "zero-idf", "negative-idf", "half-idf"])
def test_baseline_rejects_a_non_finite_number(tmp_path, task, array, node, bad, message):
    # each loaded once: a NaN threshold sends every row right, an infinite
    # idf makes every row holding its term NaN, and a NaN leaf a NaN MAE;
    # an idf of 0 makes the row of a document of no other term NaN, and a
    # negative one gives the forest negative weights
    bundle, _ = fit_small_baseline(task)
    path = tmp_path / "m.baseline"
    save_baseline_model(path, bundle)
    at = node(bundle.forest.trees[0])
    start = baseline_byte_classes(path, bundle)[array].start + 8 * at
    raw = bytearray(path.read_bytes())
    raw[start:start + 8] = struct.pack("<d", bad)
    path.write_bytes(seal(bytes(raw[:-4])))
    with pytest.raises(CorruptFileError, match=message.format(at)):
        load_baseline_model(path)


@pytest.mark.parametrize("task", ["classify", "regress"])
def test_every_byte_class_of_a_baseline_is_checked(tmp_path, task):
    # a seeded sample of single-byte damage in each part of the file; with
    # the checksum test taken out, 56 (classify) and 74 (regress) of the
    # 152 load without complaint
    bundle, _ = fit_small_baseline(task)
    path = tmp_path / "m.baseline"
    save_baseline_model(path, bundle)
    raw = path.read_bytes()
    classes = baseline_byte_classes(path, bundle)
    assert len(classes) == 5 + 1 + 5 * 4
    for byte_class, what, blob in mutations(raw, classes, seed=23):
        path.write_bytes(blob)
        with pytest.raises((CorruptFileError, VersionMismatchError)) as err:
            load_baseline_model(path)
        assert re.match(expected_damage(byte_class), f"{err.typename}: {err.value}"), (
            byte_class, what, str(err.value))


def test_a_loaded_model_holds_its_file_once_and_read_only(tmp_path, traced_peak):
    # a model of about 1 MB: copying each array out of the file's bytes
    # peaked at about 2.2 times the file
    tokens = ["<unk>", *(f"t{i}" for i in range(1999))]
    params = init_parameters(np.random.default_rng(5).normal(size=(2000, 64)), 1, 4, seed=5)
    path = tmp_path / "m.model"
    save_model(path, ModelBundle(
        params=params, config=TrainConfig(), project="alpha", text_mode="raw",
        vocabulary=Vocabulary(id_to_token=tokens, token_to_id={t: i for i, t in enumerate(tokens)}),
        edge_table=EdgeTable(codes=np.empty(0, dtype=np.int64)), split_hash="0123456789ab",
    ))
    assert 1_000_000 < path.stat().st_size < 1_200_000
    assert traced_peak(lambda: load_model(path)) <= 1.5 * path.stat().st_size

    loaded = load_model(path)
    for arr in (*(arr for _, arr in loaded.params.named_arrays()), loaded.edge_table.codes):
        assert not arr.flags.writeable and arr.flags.aligned


def test_arrays_load_aligned_whatever_the_header_length(tmp_path):
    # spaces after the JSON put the arrays one byte past an 8-byte boundary
    # of the file; a view of the file's bytes there would be unaligned, and
    # numpy's matmul sums such an array's columns in another order
    bundle, _ = make_bundle()
    path = tmp_path / "m.model"
    save_model(path, bundle)
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<Q", raw, 8)
    header = raw[16:16 + length] + b" " * ((1 - length) % 8)
    path.write_bytes(seal(raw[:8] + struct.pack("<Q", len(header)) + header + raw[16 + length:-4]))
    loaded = load_model(path)
    for name, arr in loaded.params.named_arrays():
        assert arr.flags.aligned and np.array_equal(arr, getattr(bundle.params, name))


@pytest.mark.parametrize("task", ["classify", "regress"])
def test_a_loaded_baseline_is_read_only(tmp_path, task):
    bundle, _ = fit_small_baseline(task)
    path = tmp_path / "m.baseline"
    save_baseline_model(path, bundle)
    loaded = load_baseline_model(path)
    assert not loaded.tfidf.idf.flags.writeable
    for tree in loaded.forest.trees:
        for array in tree_arrays(tree).values():
            assert not array.flags.writeable
