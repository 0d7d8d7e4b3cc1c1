"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import corpus_gen
import run
from tracer import Tracer, self_time_by_name, self_times

ROOT = Path(__file__).resolve().parent.parent
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_corpus_is_byte_identical_per_seed(tmp_path):
    projects = {"alpha": 40, "beta": 12}
    for name in ("a", "b", "c"):
        seed = 7 if name != "c" else 8
        corpus_gen.write_corpus(tmp_path / name, projects, seed)
        corpus_gen.write_vectors(tmp_path / name / "vectors.txt", seed)
    same = _tree_bytes(tmp_path / "a")
    assert same == _tree_bytes(tmp_path / "b")
    other = _tree_bytes(tmp_path / "c")
    assert other.keys() == same.keys()
    assert all(other[k] != same[k] for k in same)


def test_corpus_has_the_paper_shape(tmp_path):
    summary = corpus_gen.write_corpus(tmp_path, {"alpha": 300}, seed=3)
    (project,) = summary["projects"]
    assert project["issues"] < project["rows"]  # unusable story points are skipped
    assert summary["majority_class_rate"] < 0.75
    plan = corpus_gen.issue_plan("alpha", 300)
    assert all(corpus_gen.MIN_TOKENS <= length <= corpus_gen.MAX_TOKENS for _, _, length, _ in plan)
    words = corpus_gen.vocabulary(3)
    assert words[: len(corpus_gen.FUNCTION_WORDS)] == corpus_gen.FUNCTION_WORDS


def test_self_time_subtracts_nested_children():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 5.0, 7.0, 0),
        ("d", 2.0, 3.0, 1),
        ("b", 8.0, 9.5, 0),
    ]
    assert self_times(spans) == [10.0 - 3.0 - 2.0 - 1.5, 2.0, 2.0, 1.0, 1.5]
    assert self_time_by_name(spans) == {"a": 3.5, "b": 3.5, "c": 2.0, "d": 1.0}


def test_self_time_counts_overlapping_children_once():
    spans = [("p", 0.0, 10.0, -1), ("x", 1.0, 5.0, 0), ("y", 3.0, 12.0, 0)]
    assert self_times(spans)[0] == 1.0


def test_wrapper_records_spans_counts_and_inlines():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda x: x + 1, "inner", lambda a, k, r: {"calls": 1},
                        inline_under=("quiet",))
    quiet = tracer.wrap(lambda: inner(1), "quiet")
    outer = tracer.wrap(lambda: inner(inner(0)), "outer")
    assert outer() == 2
    assert quiet() == 2
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner", "inner", "quiet"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, -1]
    assert tracer.counts["calls"] == 3


def test_metric_names_and_units_follow_the_charset():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert all(NAME_RE.match(n) for n in names), [n for n in names if not NAME_RE.match(n)]
    assert all(UNIT_RE.match(m["unit"]) for m in metrics)
    assert len(set(m["name"] for m in metrics)) == len(metrics)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_traced_cli_wraps_functions_where_callers_look_them_up(tmp_path):
    corpus_gen.write_corpus(tmp_path / "data", {"alpha": 30}, seed=1)
    trace_file = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(trace_file), "--",
         "stats", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")],
        check=True, env=env, capture_output=True, timeout=120,
    )
    trace = json.loads(trace_file.read_text(encoding="utf-8"))
    spans = trace["spans"]
    by_index = {i: s for i, s in enumerate(spans)}
    # experiment.py imported count_cooccurrences by name; its call is traced
    counted = [s for s in spans if s[0] == "graph.count_cooccurrences"]
    assert counted and all(by_index[s[3]][0] == "experiment.run" for s in counted)
    assert trace["counts"]["graph.count_cooccurrences_calls"] == 1
    assert trace["counts"]["corpus.rows"] == 30
    assert trace["import_s"] > 0
