"""storygraph benchmark: paper-shaped workloads through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is run from source with
`src` on PYTHONPATH, as `python3 -m storygraph.cli`. Each run writes a
synthetic corpus from the seed (see corpus_gen.py) under
`.perfbench_work/`, then repeats the workload's command sequence until S
seconds have passed, checking every output. Set-up is `prepare`, timed
before the first sequence and after each one.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced sequences (traced_cli.py, every command at --jobs 1) and
reports per-layer self times and counts. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the line before it holds sha256 digests of the report, stats, sweep and
model files, so refactors can show byte-identical outputs.

Workloads, metrics and the layer map are described in README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import corpus_gen
from tracer import self_time_by_name

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170  # every command is killed by then, so a run ends within 180 s
WINDOWS = (2, 5, 10, 20, 50, 100)
FILTERED = "verb-noun-filter"

# GNN settings shared by every workload that trains: the paper's window
# w=20, a larger step and smaller batches than the paper's defaults so that
# a few epochs reach a stable accuracy, and patience equal to the epoch
# budget so early stopping never fires and every run does the same work.
GNN_EPOCHS = 2
GNN_ARGS = ["--window", "20", "--lr", "0.003", "--batch-size", "8"]
MIN_ISSUES = 10  # the program refuses a project with fewer documents


def _paper_sizes(names: tuple[str, ...], ranks: tuple[int, ...], divisor: int) -> dict[str, int]:
    """Project sizes at the paper's ranks, scaled down by `divisor`."""
    return {n: max(MIN_ISSUES, round(corpus_gen.PAPER_PROJECT_SIZES[r] / divisor))
            for n, r in zip(names, ranks)}


NAMES = ("atlas", "borealis", "cygnus")
RANKS = (0, 4, 12)  # largest, middle and a small project of the paper's 16


@dataclass(frozen=True)
class Command:
    label: str
    args: tuple[str, ...]
    jobs: int = 1


@dataclass
class Outcome:
    label: str
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str
    trace: dict | None = None


@dataclass
class Workload:
    name: str
    projects: dict[str, int]
    mode: str = "raw"
    vectors: bool = False
    regress_project: str | None = None


WORKLOADS = {
    "gnn-train": Workload(
        "gnn-train", _paper_sizes(NAMES, RANKS, 36), vectors=True),
    "forest": Workload(
        "forest", {**_paper_sizes(NAMES, RANKS, 64), "dorado": MIN_ISSUES},
        regress_project="dorado"),
    "sweep-eval": Workload(
        "sweep-eval", _paper_sizes(NAMES, RANKS, 24), mode=FILTERED),
}


class Bench:
    """One run: its files, the commands it ran and what went wrong."""

    def __init__(self, workload: Workload, seed: int, work: Path, deadline: float):
        self.wl = workload
        self.seed = seed
        self.work = work
        self.data = work / "data"
        self.vectors = work / "vectors.txt"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.test_sizes: dict[str, int] = {}
        self.pretrained_acc: dict[str, float] = {}
        self.mae = 0.0
        # one BLAS thread per process: the host has two cores, and idle
        # BLAS threads spinning beside `--jobs 2` workers measure the
        # scheduler rather than the program
        self.env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
                        OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.deadline = deadline

    # --- running commands ---------------------------------------------

    def common(self, out: Path) -> list[str]:
        args = ["--data", str(self.data), "--out", str(out), "--mode", self.wl.mode]
        if self.wl.vectors:
            args += ["--vectors", str(self.vectors)]
        return args

    def run(self, cmd: Command, jobs: int | None = None, trace_file: Path | None = None) -> Outcome:
        args = [*cmd.args, "--jobs", str(cmd.jobs if jobs is None else jobs)]
        if trace_file is None:
            argv = [sys.executable, "-m", "storygraph.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_file), "--", *args]
        log = self.work / "log"
        with open(log.with_suffix(".out"), "w+") as out, open(log.with_suffix(".err"), "w+") as err:
            started = time.perf_counter()
            # its own process group, so a kill reaches the `--jobs` workers too
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.work,
                                    start_new_session=True)
            timer = threading.Timer(max(1.0, self.deadline - started), _kill_group, (proc.pid,))
            timer.start()
            try:
                # wait4 gives this child's own peak RSS, which covers the
                # worker processes it reaped
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            outcome = Outcome(cmd.label, proc.returncode, wall, usage.ru_maxrss / 1024.0,
                              out.read(), err.read())
        self.attempted += 1
        if outcome.code != 0:
            self.fail(f"{cmd.label}: exit {outcome.code}: {outcome.stderr.strip()[-300:]}")
        elif trace_file is not None and not trace_file.is_file():
            self.fail(f"{cmd.label}: no trace written")
        elif trace_file is not None:
            outcome.trace = json.loads(trace_file.read_text(encoding="utf-8"))
        return outcome

    def fail(self, problem: str, commands: int = 1) -> None:
        self.failed += commands
        self.problems.append(problem)

    # --- set-up -------------------------------------------------------

    def generate(self) -> dict:
        summary = corpus_gen.write_corpus(self.data, self.wl.projects, self.seed)
        if self.wl.vectors:
            corpus_gen.write_vectors(self.vectors, self.seed)
        return summary

    def setup(self) -> float:
        """Time one `prepare`; read the test-split sizes it writes."""
        out = self.work / "prepare"
        outcome = self.run(Command("prepare", ("prepare", *self.common(out))))
        manifests = {p: out / "prepare" / f"{p}.split.txt" for p in self.wl.projects}
        missing = [p for p, f in manifests.items() if not f.is_file()]
        if outcome.code == 0 and missing:
            self.fail(f"prepare: no split manifest for {missing}")
        elif outcome.code == 0:
            sizes = {p: _test_size(f) for p, f in manifests.items()}
            if self.test_sizes and sizes != self.test_sizes:
                self.fail("prepare: test splits differ between repeats")
            self.test_sizes = sizes
        shutil.rmtree(out, ignore_errors=True)
        return outcome.wall_s

    # --- workloads ----------------------------------------------------

    def sequence(self, out: Path) -> list[Command]:
        wl = self.wl
        common = self.common(out)
        if wl.name == "gnn-train":
            return [Command("train", ("train", "--model", "gnn", *common, *GNN_ARGS,
                                      "--epochs", str(GNN_EPOCHS), "--patience", str(GNN_EPOCHS),
                                      "--no-timings"))]
        if wl.name == "forest":
            classify = [a for p in wl.projects if p != wl.regress_project for a in ("--project", p)]
            return [
                Command("baseline-classify", ("baseline", "--task", "classify", *common,
                                              *classify, "--no-timings"), jobs=2),
                Command("baseline-regress", ("baseline", "--task", "regress", *common,
                                             "--project", wl.regress_project, "--no-timings")),
            ]
        models = self.work / "pretrained" / f"classification-{wl.mode}" / "models"
        return [
            Command("stats", ("stats", *common)),
            Command("sweep", ("sweep", "--model", "tfidf-rf", "--windows",
                              ",".join(map(str, WINDOWS)), *common, "--no-timings")),
            *(Command(f"eval-{p}", ("eval", "--project", p, "--model", str(models / f"{p}.model"),
                                    *common)) for p in wl.projects),
        ]

    def pretrain(self) -> None:
        """sweep-eval scores saved models; train them once, untimed."""
        out = self.work / "pretrained"
        self.run(Command("pretrain", ("train", "--model", "gnn", *self.common(out), *GNN_ARGS,
                                      "--epochs", "1", "--patience", "1", "--no-timings")))
        self.pretrained_acc = _report_column(
            out / f"classification-{self.wl.mode}" / "report.csv", "GNN")

    def check(self, out: Path, outcomes: list[Outcome]) -> tuple[float, dict[str, str]]:
        """Check one sequence's outputs; returns its accuracy and digests."""
        wl = self.wl
        by_label = {o.label: o for o in outcomes}
        bad: dict[str, list[str]] = {}

        def expect(label: str, ok: bool, problem: str) -> None:
            if not ok:
                bad.setdefault(label, []).append(problem)

        acc = 0.0
        if wl.name == "gnn-train":
            run_dir = out / f"classification-{wl.mode}"
            gnn = _report_column(run_dir / "report.csv", "GNN")
            expect("train", set(gnn) == set(wl.projects), f"report rows {sorted(gnn)}")
            models = sorted((run_dir / "models").glob("*.model"))
            expect("train", len(models) == len(wl.projects), f"{len(models)} model files")
            acc = self.pooled(gnn)
            files = [run_dir / n for n in ("report.csv", "report.txt", "stats.csv", "stats.txt")]
            files += models
        elif wl.name == "forest":
            cls_dir = out / f"classification-{wl.mode}"
            reg_dir = out / f"regression-{wl.mode}"
            rf = _report_column(cls_dir / "report.csv", "TFIDF-RF")
            classify = set(wl.projects) - {wl.regress_project}
            expect("baseline-classify", set(rf) == classify, f"report rows {sorted(rf)}")
            mae = _report_column(reg_dir / "report.csv", "TFIDF-RFR")
            expect("baseline-regress", set(mae) == {wl.regress_project},
                   f"regression rows {sorted(mae)}")
            self.mae = mae.get(wl.regress_project, 0.0)
            acc = self.pooled(rf)
            files = [d / n for d in (cls_dir, reg_dir)
                     for n in ("report.csv", "report.txt", "stats.csv", "stats.txt")]
            files += sorted(cls_dir.glob("models/*.baseline")) + sorted(reg_dir.glob("models/*.baseline"))
        else:
            stats_dir = out / f"stats-{wl.mode}"
            sweep_dir = out / f"sweep-{wl.mode}"
            edges = _report_column(stats_dir / "stats.csv", "Edges")
            expect("stats", set(edges) == set(wl.projects), f"stats rows {sorted(edges)}")
            sweep = _sweep_edges(sweep_dir / "sweep.csv")
            want = {(p, w) for p in wl.projects for w in WINDOWS}
            expect("sweep", set(sweep) == want, f"{len(sweep)} sweep rows, want {len(want)}")
            for p in wl.projects:
                expect("sweep", sweep.get((p, 20)) == edges.get(p),
                       f"{p}: sweep w=20 edges {sweep.get((p, 20))} != stats {edges.get(p)}")
            hits = total = 0.0
            for p in wl.projects:
                label = f"eval-{p}"
                parsed = _eval_line(by_label[label].stdout, p) if label in by_label else None
                expect(label, parsed is not None, "no accuracy line")
                if parsed is None:
                    continue
                accuracy, n = parsed
                expect(label, accuracy == round(self.pretrained_acc.get(p, -1.0), 2),
                       f"eval accuracy {accuracy} != train-time {self.pretrained_acc.get(p)}")
                hits += accuracy * n
                total += n
            acc = hits / total if total else 0.0
            files = [stats_dir / n for n in ("stats.csv", "stats.txt")]
            files += [sweep_dir / n for n in ("sweep.csv", "sweep.txt")]
            files += sorted((self.work / "pretrained").glob("*/models/*.model"))
        for label, problems in bad.items():
            if by_label.get(label) is not None and by_label[label].code == 0:
                self.fail(f"{label}: " + "; ".join(problems))
        digests = {}
        for path in files:
            base = out if path.is_relative_to(out) else self.work
            rel = str(path.relative_to(base))
            digests[rel] = _sha256(path) if path.is_file() else "missing"
        return acc, digests

    def pooled(self, per_project: dict[str, float]) -> float:
        """Accuracy over the union of the projects' test splits."""
        total = sum(self.test_sizes.get(p, 0) for p in per_project)
        if not total:
            return 0.0
        return sum(acc * self.test_sizes.get(p, 0) for p, acc in per_project.items()) / total


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _test_size(manifest: Path) -> int:
    section = None
    n = 0
    for line in manifest.read_text(encoding="utf-8").splitlines():
        if line.startswith("["):
            section = line
        elif section == "[test]" and line and not line.startswith("#"):
            n += 1
    return n


def _table(path: Path) -> list[dict[str, str]]:
    if not path.is_file():
        return []
    lines = [l for l in path.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    return list(csv.DictReader(lines))


def _report_column(path: Path, column: str) -> dict[str, float]:
    """Numeric `column` per project row of a report or stats table."""
    out = {}
    for row in _table(path):
        project = row.get("Software") or row.get("Project") or ""
        value = row.get(column, "-")
        if project and project != "Average" and value not in ("", "-"):
            out[project] = float(value)
    return out


def _sweep_edges(path: Path) -> dict[tuple[str, int], float]:
    return {(r["Project"], int(r["Window"])): float(r["Edges"]) for r in _table(path)}


def _eval_line(stdout: str, project: str) -> tuple[float, int] | None:
    """(accuracy %, test size) from eval's '<project>: accuracy X% (n=N)' line."""
    for line in stdout.splitlines():
        head, _, rest = line.partition(": accuracy ")
        if head == project and "% (n=" in rest:
            acc, _, n = rest.partition("% (n=")
            return float(acc), int(n.split(")")[0])
    return None


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


# --- per-layer metrics from traced sequences ---------------------------

# (metric, unit); names ending in _s are self times of the span of the
# same name, the rest are counts, ratios or derived values
PER_LAYER = [
    ("corpus.load_issues_s", "s"), ("corpus.rows", "count"),
    ("corpus.tokenize_issues_s", "s"), ("corpus.tokens", "count"),
    ("corpus.split_dataset_s", "s"),
    ("tagging.tag_s", "s"), ("tagging.tokens_tagged", "count"), ("tagging.kept_frac", "fraction"),
    ("embeddings.load_pretrained_vectors_s", "s"),
    ("embeddings.load_pretrained_vectors_calls", "count"), ("embeddings.vector_lines", "count"),
    ("embeddings.build_vocab_s", "s"), ("embeddings.vocab_size", "count"),
    ("embeddings.oov_frac", "fraction"), ("embeddings.encode_s", "s"),
    ("graph.count_cooccurrences_s", "s"), ("graph.count_cooccurrences_calls", "count"),
    ("graph.position_pairs", "count"), ("graph.distinct_pairs", "count"),
    ("graph.assign_edge_params_s", "s"), ("graph.edge_params", "count"),
    ("graph.build_graphs_s", "s"), ("graph.graphs", "count"),
    ("graph.adjacency_entries", "count"), ("graph.graph_stats_s", "s"),
    ("gnn.train_s", "s"), ("gnn.epochs", "count"), ("gnn.forward_s", "s"),
    ("gnn.forward_calls", "count"), ("gnn.node_loop_iters", "count"),
    ("gnn.backward_s", "s"), ("gnn.adam_update_s", "s"), ("gnn.adam_steps", "count"),
    ("gnn.val_predict_s", "s"), ("gnn.predict_s", "s"), ("gnn.predict_calls", "count"),
    ("baseline.tfidf_fit_s", "s"), ("baseline.features", "count"),
    ("baseline.tfidf_transform_s", "s"), ("baseline.tfidf_transform_calls", "count"),
    ("baseline.rf_fit_classify_s", "s"), ("baseline.rf_fit_regress_s", "s"),
    ("baseline.max_features", "count"), ("baseline.trees", "count"),
    ("baseline.tree_nodes", "count"), ("baseline.rf_predict_s", "s"),
    ("baseline.rows_predicted", "count"), ("baseline.rf_mae", "points"),
    ("model_io.save_model_s", "s"), ("model_io.save_baseline_model_s", "s"),
    ("model_io.load_model_s", "s"), ("model_io.bytes_written", "bytes"),
    ("model_io.bytes_read", "bytes"),
    ("experiment.prepare_project_calls", "count"), ("experiment.project_s_max", "s"),
    ("experiment.project_s_sum", "s"), ("experiment.self_s", "s"),
    ("experiment.parallel_eff", "fraction"),
    ("cli.import_s", "s"),
    ("trace_overhead_frac", "fraction"),
]


def layer_metrics(traced: list[Outcome]) -> dict:
    """Per-layer values of one traced sequence."""
    selfs: dict[str, float] = {}
    counts: dict[str, float] = {}
    projects: list[float] = []
    import_s = 0.0
    for outcome in traced:
        trace = outcome.trace or {"spans": [], "counts": {}, "import_s": 0.0}
        spans = [tuple(s) for s in trace["spans"]]
        for name, value in self_time_by_name(spans).items():
            selfs[name] = selfs.get(name, 0.0) + value
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0.0) + value
        projects += [end - start for name, start, end, _ in spans if name == "experiment.project"]
        import_s += trace["import_s"]
    values: dict[str, float] = {}
    for name, _ in PER_LAYER:
        if name.endswith("_s"):
            values[name] = selfs.get(name[:-2], 0.0)
        else:
            values[name] = counts.get(name, 0.0)
    values["tagging.kept_frac"] = _ratio(counts.get("tagging.tokens_kept", 0),
                                         counts.get("tagging.tokens_tagged", 0))
    values["embeddings.oov_frac"] = _ratio(counts.get("embeddings.random_rows", 0),
                                           counts.get("embeddings.real_rows", 0))
    values["experiment.project_s_max"] = max(projects, default=0.0)
    values["experiment.project_s_sum"] = sum(projects)
    values["experiment.self_s"] = sum(v for k, v in selfs.items() if k.startswith("experiment."))
    values["cli.import_s"] = import_s
    return values


def parallel_efficiency(serial: list[Outcome], parallel: list[Outcome], jobs: dict[str, int]) -> float:
    """Serial wall over the capacity the parallel run had, jobs x wall.

    Both runs are untraced: the traced per-project spans carry the tracing
    overhead, which would inflate a ratio against an untraced wall.
    """
    capacity = sum(jobs[o.label] * o.wall_s for o in parallel)
    return _ratio(sum(o.wall_s for o in serial), capacity)


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


# --- main ----------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "storygraph" / "cli.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # a terminated run still kills its command and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, work, started + RUN_LIMIT_S)
        return measure(bench, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def traced_pass(bench: Bench, k: int, commands: list[Command], outcomes: list[Outcome],
                digests: dict[str, str]) -> tuple[float, float, dict]:
    """Run the sequence traced at --jobs 1, and untraced at --jobs 1 when the
    workload's own sequence used more jobs.

    Returns the untraced and traced --jobs 1 walls and the layer values.
    """
    plain = outcomes
    if any(c.jobs > 1 for c in commands):
        plain = [bench.run(c, jobs=1) for c in bench.sequence(bench.work / f"plain{k}")]
    traced_out = bench.work / f"traced{k}"
    traced = [bench.run(c, jobs=1, trace_file=bench.work / f"trace-{c.label}.json")
              for c in bench.sequence(traced_out)]
    if bench.check(traced_out, traced)[1] != digests:
        bench.fail("traced outputs differ from untraced outputs", commands=0)
    for outcome in traced:
        if outcome.trace and outcome.trace["missing"]:
            print(f"{outcome.label}: not traced, not found: {outcome.trace['missing']}",
                  file=sys.stderr)
    layers = layer_metrics(traced)
    layers["experiment.parallel_eff"] = parallel_efficiency(
        plain, outcomes, {c.label: c.jobs for c in commands})
    layers["baseline.rf_mae"] = bench.mae
    return sum(o.wall_s for o in plain), sum(o.wall_s for o in traced), layers


def measure(bench: Bench, args: argparse.Namespace) -> int:
    summary = bench.generate()
    setup_walls = [bench.setup()]
    if bench.wl.name == "sweep-eval":
        bench.pretrain()
    walls, rss, accs, digest_sets = [], [], [], []
    plain_walls, traced_walls, layer_runs = [], [], []
    started = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - started < args.seconds:
        out = bench.work / f"iter{k}"
        commands = bench.sequence(out)
        outcomes = [bench.run(c) for c in commands]
        acc, digests = bench.check(out, outcomes)
        walls.append(sum(o.wall_s for o in outcomes))
        if not args.trace:
            # set-up timed between iterations too, so its median spans the
            # whole run rather than its first seconds
            setup_walls.append(bench.setup())
        rss.append(max(o.rss_mb for o in outcomes))
        accs.append(acc)
        digest_sets.append(digests)
        if args.trace:
            plain_wall, traced_wall, layers = traced_pass(bench, k, commands, outcomes, digests)
            plain_walls.append(plain_wall)
            traced_walls.append(traced_wall)
            layer_runs.append(layers)
        for name in ("iter", "plain", "traced"):
            shutil.rmtree(bench.work / f"{name}{k}", ignore_errors=True)
        k += 1

    if any(d != digest_sets[0] for d in digest_sets):
        bench.fail("outputs differ between iterations of the same inputs", commands=0)
    print(json.dumps({"corpus": {key: summary[key] for key in
                                 ("issues", "tokens", "vocabulary_size", "majority_class_rate")},
                      "run_walls": walls, "setup_walls": setup_walls,
                      "digests": digest_sets[-1]}, sort_keys=True))
    if args.trace:
        metrics = {name: {"value": _median([r[name] for r in layer_runs]), "unit": unit}
                   for name, unit in PER_LAYER if name != "trace_overhead_frac"}
        metrics["trace_overhead_frac"] = {
            "value": _median(traced_walls) / _median(plain_walls) - 1.0, "unit": "fraction"}
    else:
        metrics = {
            "setup_s": {"value": _median(setup_walls), "unit": "s"},
            "run_s": {"value": _median(walls), "unit": "s"},
            "peak_rss_mb": {"value": _median(rss), "unit": "MB"},
            "acc_pct": {"value": _median(accs), "unit": "%"},
        }
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": not bench.problems, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
