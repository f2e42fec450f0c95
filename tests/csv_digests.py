"""Print the sha256 of the ``--no-timing`` CSV of every benchmark pipeline.

Usage, from anywhere:

    python3 tests/csv_digests.py [--workload NAME ...] [--seed S ...]

Each output line is ``workload seed sha256``. A pipeline's config comes from
``bench/workloads.build_config``, its rows from the runner its workload names,
and its bytes from the benchmark's own ``csv_bytes``, so two checkouts print
the same lines exactly when every pipeline's CSV is byte-identical. Without
options it covers every workload over the whole seed pool. BLAS runs on one
thread, as in the benchmark, and no file is written.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported, as the benchmark does:
# payload's compressed K-FAC rows depend on the BLAS thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run  # noqa: E402  (bench/run.py)
import workloads  # noqa: E402  (bench/workloads.py)
from oneshot_fl import cli  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", action="append", type=int,
                        choices=range(workloads.POOL), metavar="S",
                        help=f"repeatable pipeline seed in 0..{workloads.POOL - 1}; "
                             "default: all")
    args = parser.parse_args(argv)
    for name in args.workload or workloads.WORKLOADS:
        workload = workloads.WORKLOADS[name]
        for seed in args.seed or range(workloads.POOL):
            rows = getattr(cli, workload.runner)(workloads.build_config(cli, workload, seed))
            digest = hashlib.sha256(run.csv_bytes(cli, rows)).hexdigest()
            print(f"{name} {seed} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
