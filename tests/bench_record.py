"""Run the benchmark once per workload and write its record, ``BENCH_<workload>.json``.

Usage, from anywhere:

    python3 tests/bench_record.py [--workload NAME ...]

For each workload (default: every one) this runs

    python3 bench/run.py --workload NAME --seed 3 --seconds 16 --trace 0

in a subprocess from the root of the checkout, and writes
``BENCH_<workload>.json`` there. A record holds the command, the output of
``git describe --always --dirty`` (the tree that was measured), the run's
``env`` line, its final JSON line (``correct``, ``attempted``, ``failed`` and
the end-to-end ``metrics``), and a ``history`` list, which is carried over
unchanged from the file it replaces: earlier measurements, each with the
commit it measured, its ``run_s`` and a note saying how it was taken. A
change that claims a gain adds its before and after runs there.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("width-sweep", "one-shot", "few-shot", "payload")
SEED, SECONDS = 3, 16


def command(workload: str) -> list[str]:
    return ["python3", "bench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(SECONDS), "--trace", "0"]


def parse_output(stdout: str) -> tuple[dict, dict]:
    """The ``env`` line and the final JSON line of a ``bench/run.py`` run."""
    lines = stdout.strip().splitlines()
    (env,) = [line for line in lines if line.startswith("env ")]
    return json.loads(env[len("env "):]), json.loads(lines[-1])


def record(workload: str) -> dict:
    done = subprocess.run(command(workload), cwd=ROOT, capture_output=True, text=True,
                          check=True)
    env, result = parse_output(done.stdout)
    describe = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                              capture_output=True, text=True, check=True).stdout.strip()
    path = ROOT / f"BENCH_{workload}.json"
    history = json.loads(path.read_text())["history"] if path.is_file() else []
    return {"workload": workload, "command": command(workload), "describe": describe,
            "env": env, "result": result, "history": history}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: every workload")
    args = parser.parse_args(argv)
    for workload in args.workload or WORKLOADS:
        path = ROOT / f"BENCH_{workload}.json"
        path.write_text(json.dumps(record(workload), indent=1) + "\n")
        print(f"wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
