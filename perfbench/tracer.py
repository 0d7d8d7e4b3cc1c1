"""In-memory spans around storygraph's public functions, and self times.

The traced run imports the program, replaces each listed function with a
wrapper wherever a module holds a reference to it (so
`storygraph.experiment.count_cooccurrences` is wrapped as well as
`storygraph.graph.count_cooccurrences`), and keeps every span and count in
memory until the process ends. Nothing under `src/` changes.

A span is (name, start, end, parent index). A span's self time is its
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Sequence

Span = tuple[str, float, float, int]  # name, start, end, parent (-1: none)


def self_times(spans: Sequence[Span]) -> list[float]:
    """Self time of every span, in the order given."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def self_time_by_name(spans: Sequence[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0.0) + own
    return totals


class Tracer:
    """Span stack and counters for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[[tuple, dict], str],
        counter: Callable[[tuple, dict, object], dict] | None = None,
        inline_under: Iterable[str] = (),
    ) -> Callable:
        """A wrapper that records a span named `name` around each call.

        Called directly under a span named in `inline_under`, the call opens
        no span of its own, so its time stays in the caller's self time; its
        counts are recorded either way. `name` may be a function of the call
        arguments.
        """
        inline_under = frozenset(inline_under)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.current() in inline_under:
                result = fn(*args, **kwargs)
            else:
                span_name = name(args, kwargs) if callable(name) else name
                index = len(tracer.spans)
                parent = tracer.stack[-1] if tracer.stack else -1
                span = [span_name, tracer.clock(), 0.0, parent]
                tracer.spans.append(span)
                tracer.stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = tracer.clock()
                    tracer.stack.pop()
            if counter is not None:
                tracer.counts.update(counter(args, kwargs, result))
            return result

        return wrapper


def arg(args: tuple, kwargs: dict, position: int, keyword: str, default=None):
    """A call argument by position or keyword."""
    if len(args) > position:
        return args[position]
    return kwargs.get(keyword, default)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _position_pairs(docs, window: int) -> int:
    # every position pair (i, j) with 0 < |i - j| <= window, both directions
    total = 0
    for doc in docs:
        n = len(doc.token_ids)
        k = min(window, n - 1)
        if k > 0:
            total += 2 * (k * n - k * (k + 1) // 2)
    return total


def _tree_nodes(forest) -> int:
    """Node count over a forest's trees, for a node-object or flat-array tree."""
    total = 0
    for tree in getattr(forest, "trees", ()):
        root = getattr(tree, "root", None)
        if root is None:
            total += len(getattr(tree, "feature", ()))
            continue
        stack = [root]
        while stack:
            node = stack.pop()
            total += 1
            for child in (getattr(node, "left", None), getattr(node, "right", None)):
                if child is not None:
                    stack.append(child)
    return total


def _rf_fit_counts(args, kwargs, forest) -> dict:
    from storygraph import baseline

    counts = {"baseline.trees": len(forest.trees), "baseline.tree_nodes": _tree_nodes(forest)}
    resolve = getattr(baseline, "_resolve_max_features", None)
    if resolve is not None:
        counts["baseline.max_features"] = resolve(
            forest.config.max_features, forest.n_features, forest.task)
    return counts


def _rf_fit_name(args, kwargs) -> str:
    return f"baseline.rf_fit_{arg(args, kwargs, 3, 'task', 'classify')}"


def _vocab_counts(args, kwargs, result) -> dict:
    vocab, table = result
    provenance = getattr(table, "provenance", [])[1:]
    return {
        "embeddings.vocab_size": vocab.size,
        "embeddings.random_rows": sum(p == "random" for p in provenance),
        "embeddings.real_rows": len(provenance),
    }


def _tag_counts(args, kwargs, tags) -> dict:
    from storygraph.tagging import CONTENT_TAGS

    return {
        "tagging.tokens_tagged": len(tags),
        "tagging.tokens_kept": sum(t in CONTENT_TAGS for t in tags),
    }


def _forward_counts(args, kwargs, trace) -> dict:
    graph = arg(args, kwargs, 1, "graph")
    dst = graph.edge_dst
    # destinations are sorted, so each distinct value starts one loop body
    iters = int((dst[1:] != dst[:-1]).sum()) + 1 if len(dst) else 0
    return {"gnn.forward_calls": 1, "gnn.node_loop_iters": iters}


# (module, attribute, span name, counter, inline_under). Attributes of the
# form "Class.method" patch the class. A missing function is skipped, so
# the traced run keeps working when a later change removes one; its
# metrics then read 0.
WRAPS: list[tuple] = [
    ("corpus", "load_issues", "corpus.load_issues",
     lambda a, k, r: {"corpus.rows": r[1].rows_total}, ()),
    ("corpus", "tokenize_issues", "corpus.tokenize_issues",
     lambda a, k, r: {"corpus.tokens": sum(len(d.tokens) for d in r[0])}, ()),
    ("corpus", "split_dataset", "corpus.split_dataset", None, ()),
    ("tagging", "LexiconTagger.tag", "tagging.tag", _tag_counts, ()),
    ("embeddings", "load_pretrained_vectors", "embeddings.load_pretrained_vectors",
     lambda a, k, r: {"embeddings.load_pretrained_vectors_calls": 1,
                      "embeddings.vector_lines": len(r)}, ()),
    ("embeddings", "build_vocab", "embeddings.build_vocab", _vocab_counts, ()),
    ("embeddings", "Vocabulary.encode_all", "embeddings.encode", None, ()),
    ("graph", "count_cooccurrences", "graph.count_cooccurrences",
     lambda a, k, r: {"graph.count_cooccurrences_calls": 1,
                      "graph.position_pairs": _position_pairs(
                          arg(a, k, 0, "docs"), arg(a, k, 1, "window")),
                      "graph.distinct_pairs": len(r)}, ()),
    ("graph", "assign_edge_params", "graph.assign_edge_params",
     lambda a, k, r: {"graph.edge_params": r.num_edge_params}, ()),
    ("graph", "build_graphs", "graph.build_graphs",
     lambda a, k, r: {"graph.graphs": len(r),
                      "graph.adjacency_entries": sum(g.n_entries for g in r)}, ()),
    ("graph", "graph_stats", "graph.graph_stats", None, ()),
    ("gnn", "train", "gnn.train",
     lambda a, k, r: {"gnn.epochs": len(r.epochs)}, ()),
    # forward opens a span only in training; under predict its time is
    # the predict span's own
    ("gnn", "forward", "gnn.forward", _forward_counts,
     ("gnn.predict", "gnn.val_predict")),
    ("gnn", "backward", "gnn.backward", None, ()),
    ("gnn", "adam_update", "gnn.adam_update",
     lambda a, k, r: {"gnn.adam_steps": 1}, ()),
    ("gnn", "evaluate_accuracy", "gnn.val_predict", None, ()),
    ("gnn", "predict", "gnn.predict",
     lambda a, k, r: {"gnn.predict_calls": 1}, ("gnn.val_predict",)),
    ("baseline", "tfidf_fit", "baseline.tfidf_fit",
     lambda a, k, r: {"baseline.features": r.n_features}, ()),
    ("baseline", "tfidf_transform", "baseline.tfidf_transform",
     lambda a, k, r: {"baseline.tfidf_transform_calls": 1}, ()),
    ("baseline", "rf_fit", _rf_fit_name, _rf_fit_counts, ()),
    ("baseline", "rf_predict_many", "baseline.rf_predict",
     lambda a, k, r: {"baseline.rows_predicted": len(r)}, ()),
    ("model_io", "save_model", "model_io.save_model",
     lambda a, k, r: {"model_io.bytes_written": _file_size(arg(a, k, 0, "path"))}, ()),
    ("model_io", "save_baseline_model", "model_io.save_baseline_model",
     lambda a, k, r: {"model_io.bytes_written": _file_size(arg(a, k, 0, "path"))}, ()),
    ("model_io", "load_model", "model_io.load_model",
     lambda a, k, r: {"model_io.bytes_read": _file_size(arg(a, k, 0, "path"))}, ()),
    ("experiment", "prepare_project", "experiment.prepare_project",
     lambda a, k, r: {"experiment.prepare_project_calls": 1}, ()),
    ("experiment", "_run_project", "experiment.project", None, ()),
    ("experiment", "_sweep_project", "experiment.project", None, ()),
    ("experiment", "run_classification", "experiment.run", None, ()),
    ("experiment", "run_regression", "experiment.run", None, ()),
    ("experiment", "run_graph_stats", "experiment.run", None, ()),
    ("experiment", "run_window_sweep", "experiment.run", None, ()),
    ("experiment", "emit_report", "experiment.emit_report", None, ()),
]


def install(tracer: Tracer) -> list[str]:
    """Wrap every listed function in every loaded storygraph module.

    Returns the names that were not found.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "storygraph" or n.startswith("storygraph.")]
    missing = []
    for module_name, attr, name, counter, inline_under in WRAPS:
        module = sys.modules.get(f"storygraph.{module_name}")
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, fn_name, None) if owner is not None else None
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        wrapper = tracer.wrap(original, name, counter, inline_under)
        if owner_name:
            setattr(owner, fn_name, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    return missing


def dump(tracer: Tracer, path: Path, extra: dict) -> None:
    payload = dict(extra, spans=tracer.spans, counts=dict(tracer.counts))
    Path(path).write_text(json.dumps(payload), encoding="utf-8")
