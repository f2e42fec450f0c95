"""Print the package source lines that no benchmark pipeline or demo runs.

Usage, from anywhere:

    python3 tests/traffic.py [--workload NAME ...] [--seed S ...]

Runs the chosen pipelines and demos under the standard library's ``trace``
module and prints each maximal run of executable lines of ``src/oneshot_fl``
that none of them executed, one ``module:first-last`` per line (first = last
for a single line), in file and line order. A pipeline's config comes from
``bench/workloads.build_config`` and its rows from the runner its workload
names, as in ``tests/csv_digests.py``; a demo runs as ``__main__`` with its
stdout discarded. Without options it covers every workload over the whole
seed pool and every demo; ``--workload`` and ``--seed`` narrow the pipelines,
as in ``tests/csv_digests.py``, and leave the demos out. BLAS runs on one
thread, as in the benchmark. Line counts stay in memory, and no file is
written.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported, as the benchmark does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dis
import importlib
import runpy
import sys
import trace
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "oneshot_fl"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402  (bench/workloads.py; imports nothing of the package)


def _executable_lines(path: Path) -> set[int]:
    """Every line that starts bytecode in ``path``, nested code included."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)  # 0: no source line
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _unexecuted_runs(counts: dict) -> list[str]:
    """``module:first-last`` of each maximal run of consecutive executable
    package lines with no count in ``counts`` ((file, line) -> count)."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = f"oneshot_fl.{path.stem}"
        run: list[int] = []
        for line in sorted(_executable_lines(path)) + [None]:  # None ends the last run
            if line is not None and (str(path), line) not in counts:
                run.append(line)
            elif run:
                out.append(f"{module}:{run[0]}-{run[-1]}")
                run = []
    return out


def _pipeline(cli, workload: workloads.Workload, seed: int) -> None:
    getattr(cli, workload.runner)(workloads.build_config(cli, workload, seed))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", action="append", type=int,
                        choices=range(workloads.POOL), metavar="S",
                        help=f"repeatable pipeline seed in 0..{workloads.POOL - 1}; "
                             "default: all")
    args = parser.parse_args(argv)

    # No ignoredirs: trace caches its ignore decision by file base name, so
    # ignoring numpy's __init__.py would ignore the package's too.
    tracer = trace.Trace(count=1, trace=0)
    cli = tracer.runfunc(importlib.import_module, "oneshot_fl.cli")  # import lines count too
    for name in args.workload or workloads.WORKLOADS:
        workload = workloads.WORKLOADS[name]
        for seed in args.seed or range(workloads.POOL):
            tracer.runfunc(_pipeline, cli, workload, seed)
    demos = [] if args.workload or args.seed else sorted((ROOT / "demos").glob("*.py"))
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for demo in demos:
            tracer.runfunc(runpy.run_path, str(demo), run_name="__main__")
    for line in _unexecuted_runs(tracer.results().counts):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
