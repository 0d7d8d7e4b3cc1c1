"""Shared fixtures: synthetic issue datasets with level-correlated wording,
the benchmark's corpus generator, a measure of the memory a call
allocates, and model-file surgery.

The published issue corpus is not bundled, so tests that need trainable
data fabricate projects whose vocabulary correlates with the effort level.
Each level draws from its own keyword pool plus shared filler, which makes
the classification task learnable by both models at tiny sizes.
"""

from __future__ import annotations

import csv
import dataclasses
import importlib.util
import json
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

def load_corpus_gen():
    """The benchmark's corpus generator (perfbench/corpus_gen.py), imported
    from its file."""
    spec = importlib.util.spec_from_file_location(
        "corpus_gen", Path(__file__).resolve().parent.parent / "perfbench" / "corpus_gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LEVEL_POOLS = {
    0: ["button", "color", "tooltip", "label", "typo", "font", "icon", "padding"],
    1: ["report", "filter", "export", "session", "query", "cache", "page", "form"],
    2: ["migration", "cluster", "replication", "index", "pipeline", "scheduler",
        "queue", "backup"],
    3: ["rewrite", "architecture", "framework", "kernel", "distributed",
        "consensus", "storage", "engine"],
}
LEVEL_POINTS = {0: (1, 2, 3, 5), 1: (8, 13), 2: (20, 40), 3: (41, 100)}
FILLER = ["fix", "update", "the", "for", "issue"]


def synth_rows(project: str, n: int, seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        level = int(rng.integers(0, 4))
        pool = LEVEL_POOLS[level]
        sp = int(rng.choice(LEVEL_POINTS[level]))
        title_words = [str(rng.choice(FILLER))] + [
            str(rng.choice(pool)) for _ in range(int(rng.integers(2, 4)))
        ]
        body_words = [str(rng.choice(pool)) for _ in range(int(rng.integers(4, 9)))]
        rows.append(
            {
                "issuekey": f"{project.upper()}-{i + 1}",
                "title": " ".join(title_words),
                "description": " ".join(body_words),
                "storypoint": str(sp),
            }
        )
    return rows


def write_project_csv(path: Path, rows: list[dict]) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["issuekey", "title", "description", "storypoint"]
        )
        writer.writeheader()
        writer.writerows(rows)
    return path


def make_dataset(root: Path, sizes: dict[str, int], seed: int = 11) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    for i, (project, n) in enumerate(sorted(sizes.items())):
        write_project_csv(root / f"{project}.csv", synth_rows(project, n, seed + i))
    return root


def write_vectors(path: Path, dim: int, extra: tuple[str, ...] = ()) -> int:
    """A vector file with a row for every word the synthetic projects use,
    and for each `extra` word; returns its line count."""
    rng = np.random.default_rng(4)
    words = [*FILLER, *(w for pool in LEVEL_POOLS.values() for w in pool), *extra]
    path.write_text("".join(
        w + " " + " ".join(f"{x:.6f}" for x in rng.normal(size=dim)) + "\n" for w in words
    ), encoding="utf-8")
    return len(words)


@pytest.fixture
def synth_dataset(tmp_path) -> Path:
    return make_dataset(tmp_path / "data", {"alpha": 60, "beta": 48})


@pytest.fixture
def tiny_vectors_file(tmp_path) -> Path:
    """Pretrained-style vector file covering a few pool words, dim 8."""
    rng = np.random.default_rng(3)
    words = ["button", "report", "migration", "rewrite", "fix", "the"]
    lines = []
    for w in words:
        vec = rng.normal(size=8)
        lines.append(w + " " + " ".join(f"{x:.6f}" for x in vec))
    path = tmp_path / "vectors.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def traced_peak():
    """A function: the bytes `run()` allocates at its peak above what was
    live before it."""

    def measure(run) -> int:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    return measure


def tree_arrays(tree) -> dict[str, np.ndarray]:
    """A forest tree's arrays by name, in its field order, which is also
    their order in a `.baseline` file."""
    return {f.name: getattr(tree, f.name) for f in dataclasses.fields(tree)}


# --- model files ---------------------------------------------------------
# A container is magic (7 bytes), version byte, uint64 header length, JSON
# header, arrays, then the CRC-32 of all of it (see storygraph.model_io).


def seal(body: bytes) -> bytes:
    """A container's bytes before its checksum, with the checksum appended,
    so an edit reaches the parser instead of the checksum test."""
    return body + struct.pack("<I", zlib.crc32(body))


def read_header(path: Path) -> dict:
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<Q", raw, 8)  # after magic and version byte
    return json.loads(raw[16:16 + length])


def rewrite_header(path: Path, section: str | None = None, **edits) -> None:
    """Edit a container's header fields, or those of the config it holds
    under `section`, and the header length before them, and re-seal it; the
    arrays stay as they are."""
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<Q", raw, 8)
    header = json.loads(raw[16:16 + length])
    (header if section is None else header[section]).update(edits)
    text = json.dumps(header).encode()
    path.write_bytes(seal(raw[:8] + struct.pack("<Q", len(text)) + text + raw[16 + length:-4]))


def byte_classes(path: Path, array_bytes: list[tuple[str, int]]) -> dict[str, range]:
    """The byte positions of each part of a container: its frame fields,
    header, each non-empty array named in `array_bytes` (name, byte size,
    in file order) and checksum."""
    raw = path.read_bytes()
    size = len(raw)
    (length,) = struct.unpack_from("<Q", raw, 8)
    classes = {"magic": range(7), "version": range(7, 8), "length": range(8, 16),
               "header": range(16, 16 + length)}
    pos = 16 + length
    for name, nbytes in array_bytes:
        if nbytes:
            classes[name] = range(pos, pos + nbytes)
        pos += nbytes
    assert pos == size - 4, "array sizes do not fill the file"
    classes["checksum"] = range(pos, size)
    return classes


def mutations(raw: bytes, classes: dict[str, range], seed: int, per_class: int = 3):
    """(class, what, mutated bytes): per class, `per_class` single-bit flips
    and as many bytes replaced by another random value, at seeded
    positions."""
    rng = np.random.default_rng(seed)
    for name, span in classes.items():
        for kind in ("bit flip", "random byte"):
            for pos in rng.choice(span, size=min(per_class, len(span)), replace=False):
                blob = bytearray(raw)
                if kind == "bit flip":
                    blob[pos] ^= 1 << int(rng.integers(8))
                else:
                    blob[pos] = (blob[pos] + int(rng.integers(1, 256))) % 256
                yield name, f"{kind} at byte {pos}", bytes(blob)


def expected_damage(byte_class: str) -> str:
    """The error a mutation of this byte class must end in."""
    return {"magic": "CorruptFileError: .*bad magic",
            "version": "VersionMismatchError: .*format version"}.get(
        byte_class, "CorruptFileError: .*checksum mismatch")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL/SKIP line per acceptance criterion, printed at the end."""
    import re

    severity = {"PASS": 0, "SKIP": 1, "FAIL": 2}
    rows: dict[tuple[str, str], str] = {}
    for reports in terminalreporter.stats.values():
        for rep in reports:
            nodeid = getattr(rep, "nodeid", "")
            match = re.search(
                r"test_acceptance\.py::test_criterion_(\d{2})_(\w+)", nodeid
            )
            if not match:
                continue
            outcome = getattr(rep, "outcome", None)
            if outcome == "passed" and getattr(rep, "when", "call") != "call":
                continue
            label = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}.get(
                outcome
            )
            if label is None:
                continue
            key = (match.group(1), match.group(2))
            if key not in rows or severity[label] > severity[rows[key]]:
                rows[key] = label
    if not rows:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for (number, name), label in sorted(rows.items()):
        terminalreporter.write_line(
            f"criterion {number} {name.replace('_', ' ')}: {label}"
        )
