"""Loading, bucketing, tokenizing, and splitting."""

import codecs
import csv

import pytest
from hypothesis import given, strategies as st

from storygraph.corpus import (
    Issue,
    StoryPointLevel,
    bucket_level,
    load_issues,
    pos_filter,
    split_dataset,
    tokenize,
    tokenize_issues,
)
from storygraph.errors import (
    DatasetTooSmallError,
    EmptyDatasetError,
    InvalidStoryPointError,
    MalformedHeaderError,
    TaggerFailureError,
)
from storygraph.tagging import LexiconTagger

from conftest import synth_rows, write_project_csv


# --- bucketing ---------------------------------------------------------------


@pytest.mark.parametrize(
    "sp,level",
    [
        (1, StoryPointLevel.SMALL),
        (5, StoryPointLevel.SMALL),
        (6, StoryPointLevel.MEDIUM),
        (15, StoryPointLevel.MEDIUM),
        (16, StoryPointLevel.LARGE),
        (40, StoryPointLevel.LARGE),
        (41, StoryPointLevel.HUGE),
        (100, StoryPointLevel.HUGE),
        (100000, StoryPointLevel.HUGE),
    ],
)
def test_bucket_boundaries(sp, level):
    assert bucket_level(sp) is level


@pytest.mark.parametrize("sp", [0, -1, -100])
def test_bucket_rejects_nonpositive(sp):
    with pytest.raises(InvalidStoryPointError):
        bucket_level(sp)


@given(st.integers(min_value=1, max_value=10**6))
def test_bucket_total_and_monotone(sp):
    level = bucket_level(sp)
    assert level in StoryPointLevel
    assert bucket_level(sp + 1) >= level


# --- loading -----------------------------------------------------------------


def _write_csv(path, rows, fieldnames=("issuekey", "title", "description", "storypoint")):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fieldnames))
        writer.writeheader()
        writer.writerows(rows)
    return path


def test_load_issues_basic(tmp_path):
    path = _write_csv(
        tmp_path / "proj.csv",
        [
            {"issuekey": "P-1", "title": "Fix button", "description": "small fix",
             "storypoint": "3"},
            {"issuekey": "P-2", "title": "Big rewrite", "description": "huge",
             "storypoint": "50"},
        ],
    )
    issues, report = load_issues(path)
    assert [i.issue_key for i in issues] == ["P-1", "P-2"]
    assert {i.project for i in issues} == {"proj"}  # the file's stem
    assert issues[0].story_point == 3
    assert issues[1].story_point == 50
    assert report.issues_loaded == 2
    assert report.skipped_story_point == 0


def test_load_issues_header_case_and_whitespace(tmp_path):
    path = tmp_path / "proj.csv"
    path.write_text(
        "IssueKey , Title ,Description, StoryPoint\nP-1,t,d,2\n", encoding="utf-8"
    )
    issues, _ = load_issues(path)
    assert len(issues) == 1


def test_load_issues_reads_a_file_with_a_byte_order_mark(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with one
    path = write_project_csv(tmp_path / "alpha.csv", synth_rows("alpha", 30, seed=4))
    marked = tmp_path / "marked" / "alpha.csv"
    marked.parent.mkdir()
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    issues, report = load_issues(path)
    marked_issues, marked_report = load_issues(marked)
    assert marked_issues == issues
    assert marked_report.rows_total == report.rows_total == 30
    assert marked_report.issues_loaded == report.issues_loaded


@pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["plain", "bom"])
def test_a_decode_error_gives_its_file_offset(tmp_path, bom):
    # past a text reader's first chunks, whose positions are not file offsets
    good = b"issuekey,title,description,storypoint\n" + b"".join(
        b"P-%d,title %d,a description,2\n" % (i, i) for i in range(1500))
    path = tmp_path / "proj.csv"
    path.write_bytes(bom + good + b"B-1,t\xff,d,2\nB-2,t,d,3\n")
    offset = len(bom) + len(good) + 5
    with pytest.raises(UnicodeDecodeError) as caught:
        load_issues(path)
    err = caught.value
    assert (err.start, err.end, err.object[err.start]) == (offset, offset + 1, 0xFF)
    assert str(err) == (f"'utf-8' codec can't decode byte 0xff in position {offset}: "
                        f"invalid start byte")


def test_load_issues_missing_column(tmp_path):
    path = _write_csv(
        tmp_path / "p.csv",
        [{"issuekey": "P-1", "title": "t", "description": "d"}],
        fieldnames=("issuekey", "title", "description"),
    )
    with pytest.raises(MalformedHeaderError):
        load_issues(path)


def test_load_issues_skips_bad_story_points(tmp_path):
    rows = [
        {"issuekey": "P-1", "title": "a", "description": "x", "storypoint": "3"},
        {"issuekey": "P-2", "title": "b", "description": "x", "storypoint": "?"},
        {"issuekey": "P-3", "title": "c", "description": "x", "storypoint": "0"},
        {"issuekey": "P-4", "title": "d", "description": "x", "storypoint": "2.5"},
        {"issuekey": "P-5", "title": "e", "description": "x", "storypoint": "4.0"},
        {"issuekey": "P-6", "title": "f", "description": "x", "storypoint": ""},
    ]
    issues, report = load_issues(_write_csv(tmp_path / "p.csv", rows))
    assert [i.issue_key for i in issues] == ["P-1", "P-5"]
    assert issues[1].story_point == 4  # float-integral accepted
    assert report.skipped_story_point == 4


def test_load_issues_skips_duplicate_keys(tmp_path):
    rows = [
        {"issuekey": "P-1", "title": "a", "description": "x", "storypoint": "3"},
        {"issuekey": "P-1", "title": "b", "description": "y", "storypoint": "5"},
    ]
    issues, report = load_issues(_write_csv(tmp_path / "p.csv", rows))
    assert len(issues) == 1
    assert issues[0].title == "a"
    assert report.skipped_duplicate_key == 1


def test_load_issues_empty_dataset(tmp_path):
    with pytest.raises(EmptyDatasetError):
        load_issues(_write_csv(tmp_path / "p.csv", []))


def test_load_issues_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_issues(tmp_path / "absent.csv")


def test_issue_text_places_title_first():
    issue = Issue(issue_key="K-1", title="Login fails", description="after timeout",
                  story_point=2, project="k")
    assert issue.text == "Login fails after timeout"


# --- tokenization ------------------------------------------------------------


def test_tokenize_lowercases_and_strips_punctuation():
    assert tokenize("Fix the Login-Button!") == ["fix", "the", "login-button"]


def test_tokenize_keeps_digits_and_apostrophes():
    assert tokenize("user's 2 sessions") == ["user's", "2", "sessions"]


def test_tokenize_splits_on_underscores_and_symbols():
    assert tokenize("api_v2.call(x)") == ["api", "v2", "call", "x"]


def test_tokenize_empty():
    assert tokenize("...!?") == []


def test_pos_filter_keeps_verbs_and_nouns():
    tagger = LexiconTagger()
    tokens = ["the", "server", "crashed", "badly"]
    kept = pos_filter(tokens, tagger)
    assert "server" in kept and "crashed" in kept
    assert "the" not in kept


def test_lexicon_tagger_tags_each_distinct_word_once():
    tokens = ["the", "server", "crashed", "the", "server", "quickly", "42", "server"]
    tagger = LexiconTagger()
    tag_word = tagger.tag_word
    calls = []

    def counting_tag_word(token):
        calls.append(token)
        return tag_word(token)

    tagger.tag_word = counting_tag_word
    for sequence in (tokens, tokens[::-1], []):
        assert tagger.tag(sequence) == [tag_word(t) for t in sequence]
    assert sorted(calls) == sorted(set(tokens))


def test_pos_filter_falls_back_when_everything_is_dropped():
    class DropAll:
        def tag(self, tokens):
            return ["DET"] * len(tokens)

    tokens = ["the", "a"]
    assert pos_filter(tokens, DropAll()) == tokens


def test_pos_filter_tagger_length_mismatch():
    class Broken:
        def tag(self, tokens):
            return ["NOUN"]

    with pytest.raises(TaggerFailureError):
        pos_filter(["a", "b"], Broken())


def test_tokenize_issues_rejects_empty_documents():
    issues = [
        Issue(issue_key="P-1", title="fix", description="bug", story_point=1,
              project="p"),
        Issue(issue_key="P-2", title="!!!", description="...", story_point=2,
              project="p"),
    ]
    docs, report = tokenize_issues(issues)
    assert [d.doc_id for d in docs] == ["P-1"]
    assert report.empty_documents == 1
    assert report.empty_document_keys == ["P-2"]


@pytest.mark.parametrize("tagger", [None, LexiconTagger()])
def test_tokenize_issues_shares_one_object_per_word(tagger):
    issues = [
        Issue(issue_key=f"P-{i}", title="Update the database schema",
              description="the database server", story_point=1, project="p")
        for i in (1, 2)
    ]
    docs, _ = tokenize_issues(issues, tagger=tagger)
    first, second = docs[0].tokens, docs[1].tokens
    assert first == second and first.count("database") == 2
    assert all(a is b for a, b in zip(first, second))
    assert len({id(tok) for tok in first}) == len(set(first))


def test_tokenized_document_carries_level_and_raw_points():
    issues = [Issue(issue_key="P-1", title="big rework", description="all of it",
                    story_point=50, project="p")]
    docs, _ = tokenize_issues(issues)
    assert docs[0].level is StoryPointLevel.HUGE
    assert docs[0].raw_story_point == 50


# --- splitting ---------------------------------------------------------------


def _docs(n):
    issues = [
        Issue(issue_key=f"D-{i}", title=f"word{i}", description="text here",
              story_point=1 + (i % 7), project="d")
        for i in range(n)
    ]
    docs, _ = tokenize_issues(issues)
    return docs


def test_split_sizes_n100():
    split = split_dataset(_docs(100), seed=1)
    assert len(split.test) == 20
    assert len(split.validation) == 8
    assert len(split.train) == 72


def test_split_sizes_n23():
    # test: round(0.2 * 23) = round(4.6) = 5; val: round(0.1 * 18) = 2
    split = split_dataset(_docs(23), seed=1)
    assert (len(split.test), len(split.validation), len(split.train)) == (5, 2, 16)


def test_split_partition_is_exact():
    docs = _docs(57)
    split = split_dataset(docs, seed=9)
    ids = [d.doc_id for part in (split.train, split.validation, split.test)
           for d in part]
    assert sorted(ids) == sorted(d.doc_id for d in docs)
    assert len(set(ids)) == len(ids)


def test_split_deterministic_and_seed_sensitive():
    docs = _docs(80)
    a = split_dataset(docs, seed=5)
    b = split_dataset(docs, seed=5)
    c = split_dataset(docs, seed=6)
    assert [d.doc_id for d in a.test] == [d.doc_id for d in b.test]
    assert [d.doc_id for d in a.test] != [d.doc_id for d in c.test]


def test_split_too_small():
    with pytest.raises(DatasetTooSmallError):
        split_dataset(_docs(9), seed=0)


@given(st.integers(min_value=10, max_value=400), st.integers(min_value=0, max_value=50))
def test_split_fractions_property(n, seed):
    split = split_dataset(_docs(n), seed=seed)
    assert len(split.test) == round(0.20 * n)
    assert len(split.validation) == round(0.10 * (n - len(split.test)))
    assert len(split) == n


# --- synthetic corpus round trip ----------------------------------------------


def test_synthetic_dataset_loads_end_to_end(tmp_path):
    path = write_project_csv(tmp_path / "alpha.csv", synth_rows("alpha", 40, seed=2))
    issues, load_report = load_issues(path)
    assert load_report.issues_loaded == 40
    docs, tok_report = tokenize_issues(issues)
    assert tok_report.documents == 40
    split = split_dataset(docs, seed=3)
    assert len(split) == 40
