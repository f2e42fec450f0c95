"""Benchmark of the oneshot-fl CLI pipelines.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload one-shot --seed 3 --seconds 16 --trace 0

Each pipeline is one call of a public runner in ``oneshot_fl.cli`` for a
single pipeline seed, timed from outside and checked against the reference
rows in ``reference.json``. ``--seed`` orders the workload's seed pool; the
run makes whole passes over the pool until ``--seconds`` of wall time have
passed and at least ``MIN_PASSES`` passes are done. BLAS runs on one thread
(see ``BLAS_THREADS``), and every timing is in CPU seconds
(``tracing.cpu_seconds``).

``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the per-layer
metrics that ``BENCHMARK.json`` declares. ``--trace 1`` runs the pool once
untraced and once with per-layer spans installed (see ``tracing.py``); the
difference between the two passes is the tracing overhead. ``--record``
rewrites the reference rows from the current program instead of measuring.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 when the run completed, even if some pipelines failed
their check, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported (``tracing`` imports it).
# With one thread per core (its default), OpenBLAS spins its threads at barriers,
# so any other load on a core stalls every matrix product and the benchmark
# times the host's scheduler. One thread also makes the output independent of
# the number of cores: payload's compressed K-FAC rows move by up to 5% in loss
# between one and two BLAS threads, so ``reference.json`` is recorded at one.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import gc
import glob
import hashlib
import io
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl
from tracing import LAYERS, Tracer, cpu_seconds

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
DECLARED = ROOT / "BENCHMARK.json"  # metric names and units

MIN_PASSES = 4  # every pool seed is timed at least this often
TAIL_BEYOND = 10  # seed_s.tail has this many samples above it
SETUP_REPEATS = 9
LOSS_RTOL = 1e-6  # |loss - ref| <= LOSS_RTOL * max(1, |ref|)
ACC_ATOL = 1e-6  # below one test example for any test set under 10**6

# Printed for a human only: not every workload has them, or they are 0.
PRINTED_ONLY_UNITS = {"error_rate": "ratio", "curv_acc": "acc", "csv_sha256_matches": "count",
                      "wall_s.p50": "s"}


try:  # glibc only; elsewhere peak RSS also counts heap that earlier pipelines freed
    _MALLOC_TRIM = ctypes.CDLL("libc.so.6").malloc_trim
except (OSError, AttributeError):
    _MALLOC_TRIM = None


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad environment)."""


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _blas_threads() -> int | None:
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    try:
        # --git-dir keeps git from searching the directories above the checkout.
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int, order: list[int]) -> dict:
    import numpy as np

    nproc = len(os.sched_getaffinity(0))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _blas_threads()
    if threads is not None and threads != BLAS_THREADS:
        raise BenchError(f"BLAS uses {threads} threads, not {BLAS_THREADS}")
    return {
        "nproc": nproc,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": _git_commit(),
        "seed": seed,
        "pipeline_seeds": order,
        "load": "one process, one workload at a time",
    }


# ---------------------------------------------------------------------------
# Set-up time: interpreter start, imports and config build, in a fresh process
# ---------------------------------------------------------------------------

_SETUP_CHILD = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
from oneshot_fl import cli
import workloads
workloads.build_config(cli, workloads.WORKLOADS[{name!r}], 0)
import time
print("ready", time.process_time(), flush=True)
"""


def _setup_once(name: str) -> float:
    """CPU seconds a fresh interpreter spends up to the first runner call."""
    code = _SETUP_CHILD.format(src=str(SRC), bench=str(BENCH_DIR), name=name)
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as child:
        words = child.stdout.readline().split()
        child.stdout.read()
        code = child.wait(timeout=120)
    if len(words) != 2 or words[0] != "ready" or code != 0:
        raise BenchError(f"set-up child exited with code {code} before the first runner call")
    return float(words[1])


def measure_setup(name: str) -> list[float]:
    _setup_once(name)  # fills the bytecode cache, which users also have warm
    return [_setup_once(name) for _ in range(SETUP_REPEATS)]


# ---------------------------------------------------------------------------
# Pipelines and the output check
# ---------------------------------------------------------------------------


class _KeptText(io.StringIO):
    def close(self) -> None:  # keep the text after write_csv's ``with`` block
        pass


def csv_bytes(cli, rows) -> bytes:
    """The bytes ``oneshot-fl ... --no-timing`` would write for ``rows``.

    ``write_csv`` is pointed at an in-memory file by shadowing ``open`` in
    the ``cli`` module for the call, so no file is written."""
    buf = _KeptText()
    cli.open = lambda path, mode, newline=None: buf
    try:
        cli.write_csv(rows, "rows.csv")
    finally:
        del cli.open
    return buf.getvalue().encode()


def _num(x: float) -> float | None:
    return None if math.isnan(x) else float(x)


def row_record(row) -> list:
    return [row.method, row.sweep, _num(row.train_loss), _num(row.test_accuracy),
            int(row.comm_bits)]


def check_rows(rows, seed: int, reference: dict) -> list[str]:
    """Problems with one pipeline's rows; empty when they pass.

    The (seed, method, sweep) set and comm_bits must match the reference
    exactly, losses and accuracies within LOSS_RTOL and ACC_ATOL, and every
    loss must be finite.
    """
    problems = []
    want = {(m, s): (loss, acc, bits) for m, s, loss, acc, bits in reference["rows"]}
    got = {}
    for row in rows:
        if row.seed != seed:
            problems.append(f"row for seed {row.seed} in pipeline {seed}")
        got[(row.method, row.sweep)] = row
    if len(got) != len(rows):
        problems.append(f"duplicate (method, sweep) rows in pipeline {seed}")
    if set(got) != set(want):
        problems.append(f"row set {sorted(got)} != reference {sorted(want)}")
        return problems
    for key, row in got.items():
        loss, acc, bits = want[key]
        if not math.isfinite(row.train_loss):
            problems.append(f"{key}: non-finite loss {row.train_loss}")
        elif abs(row.train_loss - loss) > LOSS_RTOL * max(1.0, abs(loss)):
            problems.append(f"{key}: loss {row.train_loss!r} != reference {loss!r}")
        got_acc = _num(row.test_accuracy)
        if (got_acc is None) != (acc is None) or (
                acc is not None and abs(got_acc - acc) > ACC_ATOL):
            problems.append(f"{key}: accuracy {got_acc!r} != reference {acc!r}")
        if int(row.comm_bits) != bits:
            problems.append(f"{key}: comm_bits {int(row.comm_bits)} != reference {bits}")
    return problems


def uplink_bits(task: str, rows) -> int:
    """Uplink bits of one pipeline. Few-shot rows carry running totals over
    rounds, so only the last round of each method counts there."""
    if task != "few-shot":
        return sum(int(r.comm_bits) for r in rows)
    last = {}
    for r in rows:
        if r.method not in last or r.sweep > last[r.method].sweep:
            last[r.method] = r
    return sum(int(r.comm_bits) for r in last.values())


@dataclass
class Pass:
    """Results of pipelines run back to back, keyed by pipeline seed."""

    seconds: dict[int, list[float]] = field(default_factory=dict)  # failed ones too
    wall: list[float] = field(default_factory=list)  # the same pipelines in wall time
    csv: dict[int, bytes] = field(default_factory=dict)  # every pipeline that returned rows
    rows: dict[int, list] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    hash_matches: int = 0

    def samples(self) -> list[float]:
        return [t for times in self.seconds.values() for t in times]


def run_pipeline(cli, workload, seed: int, reference: dict, result: Pass,
                 tracer: Tracer | None = None) -> None:
    cfg = wl.build_config(cli, workload, seed)
    run = getattr(cli, workload.runner)
    result.attempted += 1
    if tracer is not None:
        tracer.new_pipeline()
    gc.collect()  # so that no pipeline pays for collecting an earlier one's garbage
    if _MALLOC_TRIM is not None:
        # Hand freed heap back to the system, so that every pipeline starts
        # from the same resident size and peak RSS does not depend on the order.
        _MALLOC_TRIM(0)
    times = result.seconds.setdefault(seed, [])
    t0, w0 = cpu_seconds(), time.perf_counter()
    try:
        rows = run(cfg)
    except Exception:  # a pipeline that raises counts as failed; keep going
        rows = None
        traceback.print_exc()
    times.append(cpu_seconds() - t0)
    result.wall.append(time.perf_counter() - w0)
    if rows is None:
        result.failed += 1
        return
    result.csv[seed] = data = csv_bytes(cli, rows)
    result.rows[seed] = rows
    ref = reference["seeds"][str(seed)]
    problems = check_rows(rows, seed, ref)
    if problems:
        print(f"pipeline {seed} failed its check: " + "; ".join(problems[:5]), file=sys.stderr)
        result.failed += 1
    result.hash_matches += hashlib.sha256(data).hexdigest() == ref["csv_sha256"]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def quality(workload, rows_by_seed: dict) -> dict:
    """Merge quality and uplink bits over one pass of the pool."""
    curv = [r for rows in rows_by_seed.values() for r in rows if r.method != "fedavg"]
    out = {"curv_loss": (statistics.fmean(r.train_loss for r in curv), len(curv))}
    if all(math.isfinite(r.test_accuracy) for r in curv):  # classification only
        out["curv_acc"] = (statistics.fmean(r.test_accuracy for r in curv), len(curv))
    bits = [uplink_bits(workload.task, rows) for rows in rows_by_seed.values()]
    out["comm_bits"] = (statistics.fmean(bits), len(bits))
    return out


def end_to_end(cli, workload, order, reference, seconds, rng) -> tuple[dict, dict, Pass]:
    """Untraced run: (metrics, printed-only metrics, results of every pipeline)."""
    setup = measure_setup(workload.name)
    result = Pass()
    start = time.perf_counter()
    for seed in order:
        run_pipeline(cli, workload, seed, reference, result)
    if not result.rows:
        raise BenchError("every pipeline of the first pass raised")
    first_rows, passes = dict(result.rows), 1
    # Every pipeline adds a sample, failed or not, so each pass ends.
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        for seed in rng.sample(order, len(order)):
            run_pipeline(cli, workload, seed, reference, result)
        passes += 1
    samples = sorted(result.samples())
    metrics = {
        # One pass over the pool, each pipeline at its median over the passes,
        # so that a burst of host load in one pass moves no seed's median.
        "run_s": (sum(statistics.median(result.seconds[s]) for s in order), len(samples)),
        "seed_s.p50": (statistics.median(samples), len(samples)),
        "seed_s.tail": (samples[-TAIL_BEYOND - 1], len(samples)),
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }
    q = quality(workload, first_rows)
    metrics["curv_loss"] = q.pop("curv_loss")
    metrics["comm_bits"] = q.pop("comm_bits")
    extra = {"error_rate": (result.failed / result.attempted, result.attempted), **q,
             "csv_sha256_matches": (result.hash_matches, result.attempted),
             "wall_s.p50": (statistics.median(result.wall), len(result.wall))}
    return metrics, extra, result


def per_layer(cli, workload, order, reference) -> tuple[dict, Pass, Pass, bool]:
    """Untraced then traced pass over the pool: (metrics, passes, rows equal)."""
    plain = Pass()
    for seed in order:
        run_pipeline(cli, workload, seed, reference, plain)
    traced = Pass()
    tracer = Tracer()
    with tracer.installed():
        for seed in order:
            run_pipeline(cli, workload, seed, reference, traced, tracer)
    if not traced.rows:
        raise BenchError("every traced pipeline raised")
    same_rows = plain.csv == traced.csv
    t = tracer.totals
    run_s = sum(traced.samples())
    values = {f"{layer}.{part}": t[f"{layer}.{part}"]
              for layer in LAYERS for part in ("calls", "self_s")}
    for name in ("models.train.steps", "models.train.diverged", "aggregate.solver.iters",
                 "aggregate.solver.diverged", "numerics.kron.gflop", "numerics.power.iters"):
        values[name] = t[name]
    merges, builds = t["aggregate.solver.merges"], t["fisher.build.calls"]
    values.update({
        "aggregate.solver.converged_ratio":
            t["aggregate.solver.converged"] / merges if merges else 0.0,
        "fisher.build.useful_ratio": t["fisher.build.distinct"] / builds if builds else 0.0,
        "cli.self_s": run_s - sum(t[layer + ".self_s"] for layer in LAYERS),
        "trace.run_s": run_s,
        "trace.overhead_s": run_s - sum(plain.samples()),
    })
    metrics = {name: (value, len(traced.samples())) for name, value in values.items()}
    return metrics, plain, traced, same_rows


# ---------------------------------------------------------------------------
# Reference rows
# ---------------------------------------------------------------------------


def record(cli, workload) -> None:
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    seeds = {}
    for seed in range(wl.POOL):
        rows = getattr(cli, workload.runner)(wl.build_config(cli, workload, seed))
        rows = sorted(rows, key=lambda r: (r.method, r.sweep))
        seeds[str(seed)] = {
            "rows": [row_record(r) for r in rows],
            "csv_sha256": hashlib.sha256(csv_bytes(cli, rows)).hexdigest(),
        }
        print(f"recorded {workload.name} seed {seed}", file=sys.stderr)
    reference[workload.name] = {"overrides": workload.overrides, "seeds": seeds}
    blocks = []
    for name in sorted(reference):
        entry = reference[name]
        lines = [f' "{s}": {json.dumps(v, sort_keys=True)}' for s, v in entry["seeds"].items()]
        blocks.append(f'"{name}": {{"overrides": {json.dumps(entry["overrides"], sort_keys=True)},'
                      ' "seeds": {\n' + ",\n".join(lines) + "}}")
    REFERENCE.write_text("{" + ",\n".join(blocks) + "}\n")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _print_table(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, (value, n) in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {units[name]:6s} n={n}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite this workload's reference rows and exit")
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]

    try:
        if not (SRC / "oneshot_fl" / "__init__.py").is_file():
            raise BenchError(f"no oneshot_fl package under {SRC}")
        sys.path.insert(0, str(SRC))
        from oneshot_fl import cli

        if args.record:
            record(cli, workload)
            return 0
        if not REFERENCE.is_file():
            raise BenchError(f"missing {REFERENCE.name}; run with --record first")
        reference = json.loads(REFERENCE.read_text()).get(workload.name)
        if reference is None or reference["overrides"] != workload.overrides or (
                len(reference["seeds"]) != wl.POOL):
            raise BenchError(f"reference rows for workload {workload.name} are missing or "
                             "stale; re-record them with --record")
        declared = json.loads(DECLARED.read_text())
        units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
        rng = random.Random(args.seed)
        order = rng.sample(range(wl.POOL), wl.POOL)
        print("env " + json.dumps(environment(args.seed, order), sort_keys=True))
        print(f"workload {workload.name}: {workload.why}")
        if args.trace:
            metrics, plain, traced, same = per_layer(cli, workload, order, reference)
            _print_table(f"per-layer (traced pass over {len(order)} pipelines)", metrics, units)
            print(f"  traced rows identical to untraced rows: {same}")
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed
            correct = failed == 0 and same
            kind = "per_layer"
        else:
            metrics, extra, total = end_to_end(cli, workload, order, reference,
                                                 args.seconds, rng)
            _print_table("end-to-end (untraced)", {**metrics, **extra},
                         {**units, **PRINTED_ONLY_UNITS})
            attempted, failed = total.attempted, total.failed
            correct = failed == 0
            kind = "end_to_end"
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in declared[kind]},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
