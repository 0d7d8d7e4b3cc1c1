"""Deterministic synthetic issue corpus shaped like the paper's data.

The published corpus (16 projects, 23,313 issues) is not bundled, so the
benchmark writes a scaled-down stand-in from a seed:

- project sizes are skewed the way the paper's are (a few large projects,
  many small ones), scaled by the caller;
- each issue has 20 to 160 tokens drawn from one Zipfian vocabulary whose
  top ranks are English function words, so the verb-noun filter drops a
  real share of tokens;
- story points are drawn per effort level with the paper's skew towards
  Small, and each level has marker words that appear more often in its
  issues, so both models can beat the majority-class rate;
- about 1% of rows carry an unusable story point, as real tracker exports
  do, so the loader's skip path runs.

The same seed gives byte-identical files. Nothing here imports storygraph:
the benchmark only hands the program the files it writes.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

# Function words in rough English frequency order; every one is in the
# program's tagger lexicon under a tag the verb-noun filter drops.
FUNCTION_WORDS = (
    "the to a of and in is it for that on be with this as are not at or by "
    "from an was but if can have all will when there so which should also "
    "we they do has would then some only more into any out up other could "
    "does than these been its same each after about how just now very "
    "what where before over under without between both since while"
).split()

# Content words the tagger lexicon knows as nouns or verbs.
LEXICON_CONTENT = (
    "server error issue bug user file data code test page login problem "
    "feature request time value type field list item result state status "
    "version method class function table form view report message text "
    "button link screen image email password account project task build "
    "branch commit support system service api application database client "
    "browser window menu option setting config log event action process job "
    "queue thread memory disk network host port url path folder document "
    "add remove delete create make get set put take give find show hide "
    "open close click select enter submit save load send receive run start "
    "stop fail pass work break fix check verify update upgrade install "
    "configure enable disable display render parse validate convert import "
    "export copy move rename edit modify change use need"
).split()

_ONSETS = ("b", "c", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t",
           "v", "z", "br", "cl", "dr", "gr", "pl", "st", "tr")
_VOWELS = ("a", "e", "i", "o", "u")

# Effort levels as in the paper: Small 1-5, Medium 6-15, Large 16-40,
# Huge 41+. Level shares follow the paper's skew towards small items.
LEVEL_SHARES = (0.60, 0.27, 0.10, 0.03)
LEVEL_POINTS = ((1, 2, 3, 5), (8, 13), (20, 40), (100,))
LEVEL_POINT_WEIGHTS = ((0.2, 0.3, 0.3, 0.2), (0.6, 0.4), (0.7, 0.3), (1.0,))

# Relative project sizes of the paper's 16 projects, largest first.
PAPER_PROJECT_SIZES = (4667, 3526, 2919, 2251, 1680, 1381, 1166, 889, 868,
                       829, 732, 666, 521, 482, 384, 352)

VOCAB_SIZE = 6000
ZIPF_EXPONENT = 1.05
MIN_TOKENS = 20
MAX_TOKENS = 160
MARKERS_PER_LEVEL = 6
MARKER_RATE = 0.25  # share of a document's tokens replaced by level markers
BAD_ROW_RATE = 0.01
VECTOR_DIM = 300
VECTOR_COVERAGE = 0.6  # share of the vocabulary the vector file covers


def _pseudo_words(rng: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    """Pronounceable lowercase words the tagger reads as nouns (its default).

    Endings that its suffix rules send to another tag are avoided, so every
    synthetic word survives the verb-noun filter.
    """
    words: list[str] = []
    blocked = ("ly", "ous", "ful", "ive", "ical", "able", "ible", "ish", "less",
               "ary", "al", "ic")
    while len(words) < count:
        syllables = int(rng.integers(2, 4))
        word = "".join(
            _ONSETS[int(rng.integers(len(_ONSETS)))] + _VOWELS[int(rng.integers(5))]
            for _ in range(syllables)
        )
        if word in taken or word.endswith(blocked):
            continue
        taken.add(word)
        words.append(word)
    return words


def vocabulary(seed: int) -> list[str]:
    """The corpus vocabulary in Zipf rank order: function words first."""
    rng = np.random.default_rng([seed, 1])
    taken = set(FUNCTION_WORDS) | set(LEXICON_CONTENT)
    content = list(LEXICON_CONTENT) + _pseudo_words(
        rng, VOCAB_SIZE - len(FUNCTION_WORDS) - len(LEXICON_CONTENT), taken
    )
    order = rng.permutation(len(content))
    return list(FUNCTION_WORDS) + [content[i] for i in order]


def _zipf_probabilities(size: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, size + 1, dtype=np.float64) ** ZIPF_EXPONENT
    return weights / weights.sum()


def _level_markers(words: list[str]) -> list[list[str]]:
    """Disjoint marker sets taken from mid-frequency content ranks."""
    start = len(FUNCTION_WORDS) + 40
    return [
        words[start + lvl * MARKERS_PER_LEVEL : start + (lvl + 1) * MARKERS_PER_LEVEL]
        for lvl in range(len(LEVEL_SHARES))
    ]


def issue_plan(project: str, n_issues: int) -> list[tuple[int, int, int, bool]]:
    """(level, story point, token count, unusable row) for each issue.

    The plan depends on the project's name and size, not on the seed, so
    every seed labels the same split positions the same way and does about
    the same amount of work; the seed varies the words. That keeps the
    accuracy and timing spread across seeds down to what the text causes.
    """
    rng = np.random.default_rng([7, n_issues, *project.encode()])
    plan = []
    for _ in range(n_issues):
        level = int(rng.choice(len(LEVEL_SHARES), p=LEVEL_SHARES))
        point = int(rng.choice(LEVEL_POINTS[level], p=LEVEL_POINT_WEIGHTS[level]))
        # longer descriptions for bigger items, clipped to the paper's range
        median = 38.0 * (1.0 + 0.3 * level)
        length = int(np.clip(round(rng.lognormal(np.log(median), 0.5)),
                             MIN_TOKENS, MAX_TOKENS))
        plan.append((level, point, length, bool(rng.random() < BAD_ROW_RATE)))
    return plan


def _issue_tokens(
    rng: np.random.Generator,
    words: list[str],
    probs: np.ndarray,
    markers: list[str],
    length: int,
) -> list[str]:
    ids = rng.choice(len(words), size=length, p=probs)
    tokens = [words[i] for i in ids]
    swap = np.nonzero(rng.random(length) < MARKER_RATE)[0]
    for pos in swap.tolist():
        tokens[pos] = markers[int(rng.integers(len(markers)))]
    return tokens


def write_project(
    path: Path,
    project: str,
    n_issues: int,
    rng: np.random.Generator,
    words: list[str],
    probs: np.ndarray,
    markers: list[list[str]],
) -> dict:
    """Write one project CSV; returns its summary."""
    levels = []
    tokens_total = 0
    seen: set[str] = set()
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["issuekey", "title", "description", "storypoint"])
        for i, (level, point, length, bad) in enumerate(issue_plan(project, n_issues)):
            tokens = _issue_tokens(rng, words, probs, markers[level], length)
            title_len = int(rng.integers(4, 11))
            title = " ".join(tokens[:title_len]).capitalize()
            body = tokens[title_len:]
            sentences = [
                " ".join(body[j : j + 12]).capitalize() + "."
                for j in range(0, len(body), 12)
            ]
            writer.writerow([
                f"{project.upper()}-{i + 1}",
                title,
                " ".join(sentences),
                "" if bad else str(point),
            ])
            if not bad:
                levels.append(level)
                tokens_total += len(tokens)
                seen.update(tokens)
    counts = np.bincount(levels, minlength=len(LEVEL_SHARES))
    return {
        "project": project,
        "rows": n_issues,
        "issues": len(levels),
        "tokens": tokens_total,
        "vocabulary": len(seen),
        "level_counts": counts.tolist(),
        "majority_class_rate": float(counts.max() / max(1, len(levels))),
    }


def write_corpus(out_dir: Path, projects: dict[str, int], seed: int) -> dict:
    """Write `<project>.csv` for each (name, issue count) and a summary.

    Each project draws from its own generator stream, so a project's file
    depends only on the seed, its name and its size.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    words = vocabulary(seed)
    probs = _zipf_probabilities(len(words))
    markers = _level_markers(words)
    summaries = []
    for name, size in projects.items():
        key = [seed, 2, *name.encode()]
        summaries.append(
            write_project(out_dir / f"{name}.csv", name, size,
                          np.random.default_rng(key), words, probs, markers)
        )
    issues = sum(s["issues"] for s in summaries)
    levels = np.sum([s["level_counts"] for s in summaries], axis=0)
    summary = {
        "seed": seed,
        "projects": summaries,
        "issues": issues,
        "tokens": sum(s["tokens"] for s in summaries),
        "vocabulary_size": len(words),
        "majority_class_rate": float(levels.max() / max(1, issues)),
    }
    (out_dir / "corpus_summary.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return summary


def write_vectors(path: Path, seed: int, dim: int = VECTOR_DIM) -> int:
    """Write a plain-text `token v1 .. vdim` file over part of the vocabulary.

    Covered words are a seeded sample of every rank, so both frequent and
    rare words hit and miss. Values are drawn from +-0.02: larger ones make
    the GNN's few-epoch training diverge. Returns the number of lines
    written.
    """
    rng = np.random.default_rng([seed, 3])
    words = vocabulary(seed)
    covered = [w for w in words if rng.random() < VECTOR_COVERAGE]
    matrix = rng.uniform(-0.02, 0.02, size=(len(covered), dim))
    with open(path, "w", encoding="utf-8") as handle:
        for word, row in zip(covered, matrix):
            handle.write(word + " " + " ".join(f"{v:.5f}" for v in row) + "\n")
    return len(covered)
