"""The package's public surface and its dependencies."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import storygraph

PACKAGE = Path(storygraph.__file__).parent


def test_every_export_resolves():
    missing = [name for name in storygraph.__all__ if not hasattr(storygraph, name)]
    assert missing == []


def test_numpy_is_the_only_runtime_dependency():
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}: {name}" for name in names
                if name.split(".")[0] not in ("numpy", "storygraph")
                and name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert foreign == []


def test_importing_the_cli_loads_no_process_pool():
    # concurrent.futures is imported only by a run that makes a worker pool
    code = "import sys, storygraph.cli; print('concurrent.futures' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout == "False\n"


def test_the_benchmark_tracer_finds_every_function_it_wraps():
    # perfbench's traced runs wrap what `import storygraph.cli` has loaded
    # and skip what they cannot find; graph.graph_stats no longer exists
    code = ("import storygraph.cli\nfrom tracer import Tracer, install\n"
            "print(install(Tracer()))")
    path = os.pathsep.join(filter(None, [
        str(PACKAGE.parent), str(Path(__file__).parents[1] / "perfbench"),
        os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout == "['graph.graph_stats']\n"


# the command, as CLI arguments after --data/--out; eval reads the model
# that train saved
NO_MA_COMMANDS = [
    ("prepare", "--dim", "8", "--vectors", "{vectors}"),
    ("stats",),
    ("sweep", "--model", "tfidf-rf", "--windows", "2,3"),
    ("train", "--model", "gnn", "--dim", "8", "--vectors", "{vectors}", "--epochs", "1",
     "--jobs", "2"),
    ("baseline",),
    ("eval", "--project", "alpha", "--model",
     "{out}/classification-raw/models/alpha.model"),
]


def test_no_command_imports_numpy_ma(tmp_path, synth_dataset, tiny_vectors_file):
    # numpy 2.x loads numpy.ma lazily, through np.unique without return
    # options and np.isin among others; numpy 1.x loads it with numpy itself.
    # Each command runs in development mode with warnings as errors, which
    # pytest's own warning filter cannot reach in a subprocess: a warning in
    # the command, or in a pool worker it starts, fails it, and one raised
    # where it cannot propagate (a ResourceWarning at collection) is printed
    code = (
        "import sys, numpy\n"
        "eager = 'numpy.ma' in sys.modules\n"
        "from storygraph.cli import main\n"
        "status = main(sys.argv[1:])\n"
        "print(status, eager or 'numpy.ma' not in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = tmp_path / "out"
    for command, *rest in NO_MA_COMMANDS:
        args = [a.format(vectors=tiny_vectors_file, out=out) for a in rest]
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-c", code, command,
             "--data", str(synth_dataset),
             "--out", str(out), *args],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
            timeout=300,
        )
        assert (done.returncode, done.stderr) == (0, ""), command
        assert done.stdout.splitlines()[-1] == "0 True", command
