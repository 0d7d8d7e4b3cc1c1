"""Vocabulary construction and pretrained-vector loading."""

import codecs
import math

import numpy as np
import pytest

from storygraph.corpus import Issue, tokenize_issues
from storygraph.embeddings import (
    OOV_INIT_SCALE,
    PROVENANCE_PRETRAINED,
    PROVENANCE_RANDOM,
    PROVENANCE_RESERVED,
    UNKNOWN_TOKEN,
    build_vocab,
    build_vocabulary,
    dump_vocabulary,
    load_pretrained_vectors,
    row_provenance,
)
from storygraph.errors import DimensionMismatchError, EmptyTrainingSetError


def _docs(texts):
    issues = [
        Issue(issue_key=f"D-{i}", title=t, description="", story_point=1, project="d")
        for i, t in enumerate(texts)
    ]
    docs, _ = tokenize_issues(issues)
    return docs


def test_ids_follow_first_occurrence():
    vocab, _ = build_vocab(_docs(["b a b", "c a"]), {}, seed=0, dim=4)
    assert vocab.id_to_token == [UNKNOWN_TOKEN, "b", "a", "c"]
    assert vocab.encode(["b"])[0] == 1
    assert vocab.encode(["never-seen"])[0] == 0


def test_unknown_row_is_zero_and_reserved():
    vocab, table = build_vocab(_docs(["x y"]), {}, seed=1, dim=3)
    assert np.array_equal(table.matrix[0], np.zeros(3))
    assert table.provenance[0] == PROVENANCE_RESERVED
    assert vocab.size == 3


def test_pretrained_rows_copied_exactly():
    vec = np.array([0.25, -0.5, 0.125])
    vocab, table = build_vocab(_docs(["cache miss"]), {"cache": vec}, seed=0, dim=3)
    row = table.matrix[vocab.encode(["cache"])[0]]
    assert np.array_equal(row, vec)
    assert table.provenance[vocab.encode(["cache"])[0]] == PROVENANCE_PRETRAINED
    assert table.provenance[vocab.encode(["miss"])[0]] == PROVENANCE_RANDOM


def test_random_rows_bounded_and_seeded():
    docs = _docs(["one two three four"])
    _, a = build_vocab(docs, {}, seed=7, dim=5)
    _, b = build_vocab(docs, {}, seed=7, dim=5)
    _, c = build_vocab(docs, {}, seed=8, dim=5)
    assert np.array_equal(a.matrix, b.matrix)
    assert not np.array_equal(a.matrix, c.matrix)
    assert np.all(np.abs(a.matrix[1:]) <= OOV_INIT_SCALE)


def _per_row_table(vocab, pretrained, seed, dim):
    """build_vocab's matrix and provenance as drawn one random row at a time."""
    rng = np.random.default_rng(seed)
    matrix = np.zeros((vocab.size, dim), dtype=np.float64)
    provenance = [PROVENANCE_RESERVED]
    for idx in range(1, vocab.size):
        vec = pretrained.get(vocab.id_to_token[idx])
        if vec is not None and len(vec) == dim:
            matrix[idx] = vec
            provenance.append(PROVENANCE_PRETRAINED)
        else:
            matrix[idx] = rng.uniform(-OOV_INIT_SCALE, OOV_INIT_SCALE, size=dim)
            provenance.append(PROVENANCE_RANDOM)
    return matrix, provenance


@pytest.mark.parametrize("dim", [1, 3])
def test_one_draw_gives_the_per_row_random_rows(dim):
    docs = _docs(["a b c d e", "f a g h"])
    pretrained = {
        "b": np.full(dim, 0.5),
        "e": np.full(dim, -0.25),
        "g": np.zeros(dim + 1),  # of another dimension: drawn at random
        "unused": np.ones(dim),
    }
    vocab, table = build_vocab(docs, pretrained, seed=9, dim=dim)
    matrix, provenance = _per_row_table(vocab, pretrained, 9, dim)
    assert table.matrix.tobytes() == matrix.tobytes()
    assert table.provenance == provenance
    assert provenance.count(PROVENANCE_PRETRAINED) == 2
    assert build_vocabulary(docs) == vocab
    assert row_provenance(vocab, pretrained, dim) == provenance


def test_oov_fraction():
    vec = np.zeros(4)
    _, table = build_vocab(_docs(["a b c d"]), {"a": vec, "c": vec}, seed=0, dim=4)
    assert table.oov_fraction() == pytest.approx(0.5)


def test_empty_training_set():
    with pytest.raises(EmptyTrainingSetError):
        build_vocab([], {}, seed=0, dim=4)


def test_encode_document_maps_unknowns_to_zero():
    train = _docs(["alpha beta"])
    vocab, _ = build_vocab(train, {}, seed=0, dim=2)
    doc = _docs(["beta gamma alpha"])[0]
    encoded = vocab.encode_document(doc)
    assert encoded.token_ids == (2, 0, 1)
    assert encoded.doc_id == doc.doc_id


def test_load_pretrained_vectors(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text(
        "apple 1.0 2.0 3.0\n"
        "short 1.0\n"
        "pear 0.5 0.25 0.125\n"
        "bad a b c\n",
        encoding="utf-8",
    )
    vectors = load_pretrained_vectors(path, {"apple", "short", "pear", "bad"}, dim=3)
    assert set(vectors) == {"apple", "pear"}
    assert np.array_equal(vectors["apple"], np.array([1.0, 2.0, 3.0]))


def test_load_pretrained_vectors_wrong_dim(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("a 1.0 2.0\nb 3.0 4.0\nc 5.0 6.0\n", encoding="utf-8")
    with pytest.raises(DimensionMismatchError):
        load_pretrained_vectors(path, {"a", "b", "c"}, dim=5)


def test_load_pretrained_vectors_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_pretrained_vectors(tmp_path / "nope.txt", {"a"}, dim=3)


@pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["plain", "bom"])
def test_a_decode_error_gives_its_file_offset(tmp_path, bom):
    # past a text reader's first chunks, whose positions are not file offsets
    good = b"".join(b"w%d 1.0 2.0\n" % i for i in range(3000))
    path = tmp_path / "vec.txt"
    path.write_bytes(bom + good + b"caf\xff 1.0 2.0\nlast 1.0 2.0\n")
    offset = len(bom) + len(good) + 3
    with pytest.raises(UnicodeDecodeError) as caught:
        load_pretrained_vectors(path, {"w1"}, dim=2)
    err = caught.value
    assert (err.start, err.end, err.object[err.start]) == (offset, offset + 1, 0xFF)
    assert str(err) == (f"'utf-8' codec can't decode byte 0xff in position {offset}: "
                        f"{path}: invalid start byte")


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_a_fasttext_vector_file_loads(tmp_path, newline):
    # fastText's .vec writer starts with a "count dim" line and ends each row
    # with a space, so every row was once skipped as a wrong field count
    rows = ["alpha 1.0 2.0", "beta -0.5 0.25", "gamma 3 4e-3"]
    plain = tmp_path / "plain.txt"
    plain.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
    vec = tmp_path / "wiki.vec"
    vec.write_bytes("".join(line + newline for line in ["3 2", *(r + " " for r in rows)])
                    .encode("utf-8"))
    wanted = {"alpha", "beta", "gamma", "3"}
    loaded = load_pretrained_vectors(vec, wanted, dim=2)
    expected = load_pretrained_vectors(plain, wanted, dim=2)
    assert sorted(loaded) == sorted(expected) == ["alpha", "beta", "gamma"]
    assert all(loaded[t].tobytes() == expected[t].tobytes() for t in expected)
    # the header line is still a skipped line
    vec.write_bytes(f"3 2{newline}".encode())
    with pytest.raises(DimensionMismatchError, match="1 lines skipped vs 0 parsed"):
        load_pretrained_vectors(vec, wanted, dim=2)


def _vector_file(tmp_path, lines):
    path = tmp_path / "vec.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def test_subset_load_equals_full_load_rows(tmp_path):
    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(40)]
    path = _vector_file(
        tmp_path,
        [w + " " + " ".join(repr(float(x)) for x in rng.normal(size=4)) for w in words],
    )
    full = load_pretrained_vectors(path, words, dim=4)
    wanted = {"w3", "w17", "w39", "absent"}
    subset = load_pretrained_vectors(path, wanted, dim=4)
    assert set(subset) == {"w3", "w17", "w39"}
    for token, vec in subset.items():
        assert np.array_equal(vec, full[token])


def test_wrong_field_counts_raise_even_when_wanted_rows_parse(tmp_path):
    lines = ["want 1.0 2.0 3.0", "also 4.0 5.0 6.0"]
    lines += [f"x{i} 1.0 2.0" for i in range(5)]
    path = _vector_file(tmp_path, lines)
    with pytest.raises(DimensionMismatchError):
        load_pretrained_vectors(path, {"want", "also"}, dim=3)


def test_one_wanted_row_among_many_good_rows_loads(tmp_path):
    lines = [f"x{i} 1.0 2.0 3.0" for i in range(20)] + ["want 0.5 0.25 0.125"]
    path = _vector_file(tmp_path, lines + ["short 1.0"])
    vectors = load_pretrained_vectors(path, {"want"}, dim=3)
    assert set(vectors) == {"want"}
    assert np.array_equal(vectors["want"], np.array([0.5, 0.25, 0.125]))


def test_repeated_token_keeps_its_last_row(tmp_path):
    path = _vector_file(tmp_path, ["dup 1.0 1.0", "other 3.0 3.0", "dup 2.0 2.0"])
    vectors = load_pretrained_vectors(path, {"dup"}, dim=2)
    assert np.array_equal(vectors["dup"], np.array([2.0, 2.0]))


def test_wanted_token_missing_from_file_is_absent(tmp_path):
    path = _vector_file(tmp_path, ["here 1.0 2.0"])
    assert set(load_pretrained_vectors(path, {"here", "gone"}, dim=2)) == {"here"}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "NaN"])
def test_non_finite_row_is_skipped(tmp_path, value):
    path = _vector_file(tmp_path, [f"bad 1.0 {value}", "good 1.0 2.0", "ok 3.0 4.0"])
    vectors = load_pretrained_vectors(path, {"bad", "good"}, dim=2)
    assert set(vectors) == {"good"}


@pytest.mark.parametrize("value", [
    # spellings `float` reads
    "1_0", "\u0661\u0662", "\t1.5", "1.5\t", "+.5", "nan", "inf", "-Infinity", "1e999",
    # and spellings it refuses
    "", "0x10", "abc", "1,5",
])
def test_a_value_is_read_by_the_rules_of_float(tmp_path, value):
    path = _vector_file(tmp_path, [f"a {value} {value}", "b 1.0 2.0", "c 3.0 4.0"])
    vectors = load_pretrained_vectors(path, {"a", "b"}, dim=2)
    try:
        number = float(value)
    except ValueError:
        number = math.nan  # refused: skipped like a non-finite value
    if math.isfinite(number):
        assert vectors["a"].tobytes() == np.array([number, number]).tobytes()
    else:
        assert set(vectors) == {"b"}


def test_non_finite_rows_count_toward_the_verdict(tmp_path):
    path = _vector_file(tmp_path, ["a nan 1.0", "b inf 1.0", "c 1.0 2.0"])
    with pytest.raises(DimensionMismatchError):
        load_pretrained_vectors(path, {"a", "b", "c"}, dim=2)


def test_dump_vocabulary(tmp_path):
    vocab, table = build_vocab(_docs(["red green red"]), {}, seed=0, dim=2)
    out = tmp_path / "vocab.tsv"
    dump_vocabulary(vocab, _docs(["red green red"]), table.provenance, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == vocab.size
    fields = lines[1].split("\t")
    assert fields[0] == "red"
    assert fields[1] == "1"
    assert fields[2] == "2"
    assert fields[3] == PROVENANCE_RANDOM
