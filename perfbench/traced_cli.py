"""Run one storygraph CLI command with the benchmark's spans installed.

    python3 perfbench/traced_cli.py TRACE_FILE -- <storygraph arguments>

Needs `src` on PYTHONPATH. Writes the spans, counts and the import time of
`storygraph.cli` to TRACE_FILE when the command ends, and exits with the
command's exit code.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from tracer import Tracer, dump, install


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py TRACE_FILE -- <storygraph arguments>", file=sys.stderr)
        return 2
    started = time.perf_counter()
    import storygraph.cli

    import_s = time.perf_counter() - started
    tracer = Tracer()
    missing = install(tracer)
    try:
        code = storygraph.cli.main(argv[2:])
    finally:
        dump(tracer, Path(argv[0]), {"import_s": import_s, "missing": missing})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
