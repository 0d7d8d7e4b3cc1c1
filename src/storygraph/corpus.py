"""Issue datasets: loading, tokenization, effort-level bucketing, splitting.

One tracker item (an "issue") carries a title, a free-text description and a
story point. Story points are bucketed into four effort levels:

    Small   1..5
    Medium  6..15
    Large   16..40
    Huge    41 and up (no upper cap)

Documents are the concatenation of title and description, tokenized into
lowercase word tokens. Splitting is per project: 20% test, then 10% of the
remainder held out for validation.
"""

from __future__ import annotations

import csv
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path

import numpy as np

from .errors import (
    DatasetTooSmallError,
    EmptyDatasetError,
    InvalidStoryPointError,
    MalformedHeaderError,
    TaggerFailureError,
    at_file_offset,
)
from .tagging import CONTENT_TAGS, PosTagger

TEST_FRACTION = 0.20
VALIDATION_FRACTION = 0.10  # of the remaining 80%


class StoryPointLevel(IntEnum):
    """Four-way effort bucket, ordered Small < Medium < Large < Huge."""

    SMALL = 0
    MEDIUM = 1
    LARGE = 2
    HUGE = 3


def class_count(class_values: tuple[int, ...]) -> int:
    """A model's classes: one per story-point value, else one per level."""
    return len(class_values) or len(StoryPointLevel)


def bucket_level(story_point: int) -> StoryPointLevel:
    """Map a story point to its effort level.

    Raises InvalidStoryPointError for values below 1. Total and monotone:
    a larger story point never maps to a smaller level.
    """
    if story_point < 1:
        raise InvalidStoryPointError(f"story point must be >= 1, got {story_point}")
    if story_point <= 5:
        return StoryPointLevel.SMALL
    if story_point <= 15:
        return StoryPointLevel.MEDIUM
    if story_point <= 40:
        return StoryPointLevel.LARGE
    return StoryPointLevel.HUGE


@dataclass(frozen=True)
class Issue:
    """One tracker item."""

    project: str
    issue_key: str
    title: str
    description: str
    story_point: int

    def __post_init__(self) -> None:
        if self.story_point < 1:
            raise InvalidStoryPointError(
                f"{self.issue_key}: story point must be >= 1, got {self.story_point}"
            )

    @property
    def text(self) -> str:
        """Title and description joined with a single space, title first."""
        if not self.description:
            return self.title
        return f"{self.title} {self.description}"


@dataclass
class LoadReport:
    """Counts collected while loading one project file."""

    path: str
    project: str
    rows_total: int = 0
    issues_loaded: int = 0
    skipped_story_point: int = 0
    skipped_duplicate_key: int = 0


def _parse_story_point(raw: str) -> int | None:
    """Return a positive integer story point, or None if unusable."""
    raw = raw.strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    if not value.is_integer() or value < 1:
        return None
    return int(value)


def load_issues(path: str | Path) -> tuple[list[Issue], LoadReport]:
    """Load one project's issues from its CSV file; the project is named
    after the file's stem.

    The file is UTF-8, with or without a byte-order mark, and comma
    separated; its header names the columns issuekey, title, description
    and storypoint, in any order and case. Rows with a missing or
    non-numeric story point, and rows reusing an already-seen issue key,
    are skipped and counted in the returned report.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"dataset file not found: {path}")
    project = path.stem

    report = LoadReport(path=str(path), project=project)
    issues: list[Issue] = []
    seen_keys: set[str] = set()
    # no field is longer than the file; the csv default (131,072 chars) is
    # shorter than some tracker descriptions with pasted logs
    csv.field_size_limit(max(csv.field_size_limit(), path.stat().st_size))

    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            reader = csv.DictReader(handle)
            header = [h.strip().lower() for h in (reader.fieldnames or [])]
            required = ("issuekey", "title", "description", "storypoint")
            missing = [col for col in required if col not in header]
            if missing:
                raise MalformedHeaderError(
                    f"{path}: missing required column(s) {missing}, header was {header}"
                )
            # map possibly-decorated header names back to the canonical ones
            canon = {raw: raw.strip().lower() for raw in (reader.fieldnames or [])}

            for row in reader:
                report.rows_total += 1
                values = {canon[k]: (v if v is not None else "")
                          for k, v in row.items() if k is not None}
                sp = _parse_story_point(values.get("storypoint") or "")
                if sp is None:
                    report.skipped_story_point += 1
                    continue
                key = (values.get("issuekey") or "").strip()
                if not key or key in seen_keys:
                    report.skipped_duplicate_key += 1
                    continue
                seen_keys.add(key)
                issues.append(
                    Issue(
                        project=project,
                        issue_key=key,
                        title=(values.get("title") or "").strip(),
                        description=(values.get("description") or "").strip(),
                        story_point=sp,
                    )
                )
    except UnicodeDecodeError as err:
        raise at_file_offset(err, path) from None

    report.issues_loaded = len(issues)
    if not issues:
        raise EmptyDatasetError(f"{path}: no valid rows")
    return issues, report


# Lowercase word tokens: alphanumeric runs, keeping internal hyphens and
# apostrophes. Underscores split tokens; all other punctuation is dropped,
# which also reduces URLs and code fragments to their word parts.
_TOKEN_RE = re.compile(r"[^\W_]+(?:['\-][^\W_]+)*", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Split free text into lowercase word tokens. Empty output is allowed."""
    return _TOKEN_RE.findall(text.lower())


def pos_filter(
    tokens: list[str],
    tagger: PosTagger,
    counters: Counter | None = None,
) -> list[str]:
    """Keep only tokens tagged noun or verb, preserving order.

    If nothing survives, the original sequence is returned unchanged so the
    document stays trainable; the fallback is counted in `counters` under
    ``"pos_filter_fallback"`` when a counter is supplied.
    """
    if not tokens:
        return []
    tags = tagger.tag(tokens)
    if len(tags) != len(tokens):
        raise TaggerFailureError(
            f"tagger returned {len(tags)} tags for {len(tokens)} tokens"
        )
    kept = [tok for tok, tag in zip(tokens, tags) if tag in CONTENT_TAGS]
    if not kept:
        if counters is not None:
            counters["pos_filter_fallback"] += 1
        return list(tokens)
    return kept


@dataclass(frozen=True)
class TokenizedDocument:
    """One issue reduced to its token sequence, ready for graph building."""

    doc_id: str
    tokens: tuple[str, ...]
    raw_story_point: int

    @property
    def level(self) -> StoryPointLevel:
        """The effort level of its story point."""
        return bucket_level(self.raw_story_point)


@dataclass
class TokenizeReport:
    """Counts collected while turning issues into documents."""

    project: str
    documents: int = 0
    empty_documents: int = 0
    empty_document_keys: list[str] = field(default_factory=list)
    pos_filter_fallbacks: int = 0


def tokenize_issues(
    issues: list[Issue],
    tagger: PosTagger | None = None,
) -> tuple[list[TokenizedDocument], TokenizeReport]:
    """Tokenize issues into documents, optionally applying the verb-noun filter.

    Issues whose text tokenizes to nothing are rejected (counted and listed
    in the report) because an empty document has no graph. Tokens are
    interned, so every occurrence of a word is one string object: a project
    stays small in memory and in the pickle a `--jobs` worker sends back.
    """
    project = issues[0].project if issues else ""
    report = TokenizeReport(project=project)
    counters: Counter = Counter()
    docs: list[TokenizedDocument] = []
    for issue in issues:
        tokens = tokenize(issue.text)
        if tagger is not None and tokens:
            tokens = pos_filter(tokens, tagger, counters)
        if not tokens:
            report.empty_documents += 1
            report.empty_document_keys.append(issue.issue_key)
            continue
        docs.append(
            TokenizedDocument(
                doc_id=issue.issue_key,
                tokens=tuple(map(sys.intern, tokens)),
                raw_story_point=issue.story_point,
            )
        )
    report.documents = len(docs)
    report.pos_filter_fallbacks = counters["pos_filter_fallback"]
    return docs, report


@dataclass(frozen=True)
class DatasetSplit:
    """Train/validation/test partition of one project's documents."""

    train: tuple[TokenizedDocument, ...]
    validation: tuple[TokenizedDocument, ...]
    test: tuple[TokenizedDocument, ...]

    def __len__(self) -> int:
        return len(self.train) + len(self.validation) + len(self.test)


def split_dataset(docs: list[TokenizedDocument], seed: int) -> DatasetSplit:
    """Deterministically shuffle and partition one project's documents.

    20% of documents (rounded) become the test set; 10% of the remainder
    (rounded) become the validation set; the rest train. Same docs + same
    seed always produce the identical split.
    """
    n = len(docs)
    if n < 10:
        raise DatasetTooSmallError(f"need at least 10 documents, got {n}")
    order = np.random.default_rng(seed).permutation(n)
    shuffled = [docs[i] for i in order]
    n_test = round(TEST_FRACTION * n)
    n_val = round(VALIDATION_FRACTION * (n - n_test))
    test = shuffled[:n_test]
    validation = shuffled[n_test : n_test + n_val]
    train = shuffled[n_test + n_val :]
    return DatasetSplit(
        train=tuple(train),
        validation=tuple(validation),
        test=tuple(test),
    )
