"""Code outside the package that calls into it: the benchmark and the demos.

``bench/`` wraps package functions by name for its per-layer trace and builds
its configs through the CLI; ``tests/csv_digests.py`` and ``tests/traffic.py``
run its pipelines, and ``tests/bench_record.py`` runs the benchmark itself;
the demos import the public API directly.
Nothing else in the suite runs them, so a refactor that renames or drops a
name they use would break ``--trace 1`` or a demo silently. These tests only
read ``bench/``, ``demos/``, the ``BENCH_*.json`` records and the package source.

The converse holds too: the package keeps only what the runners, demos and
bench call. A public name that only tests reach belongs under ``tests/``,
and a field or property that only tests read is not kept at all.
"""

import ast
import importlib.util
import inspect
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import oneshot_fl
from oneshot_fl import cli, numerics

import bench_record

ROOT = Path(__file__).resolve().parents[1]


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves():
    tracing = _bench_module("tracing")
    for module, function in tracing.SPANS:
        fn = getattr(getattr(oneshot_fl, module), function, None)
        assert callable(fn), f"bench traces oneshot_fl.{module}.{function}, which is gone"
    with tracing.Tracer().installed():
        for module, function in tracing.SPANS:
            wrapped = getattr(getattr(oneshot_fl, module), function)
            assert hasattr(wrapped, "__wrapped__"), f"{module}.{function} was not wrapped"


def test_every_workload_config_validates():
    workloads = _bench_module("workloads")
    assert workloads.WORKLOADS
    for workload in workloads.WORKLOADS.values():
        assert callable(getattr(cli, workload.runner))
        cfg = workloads.build_config(cli, workload, 0)
        assert cfg.seeds == [0]


_REFERENCE_CHECK = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import run
from oneshot_fl import cli
reference = json.loads(run.REFERENCE.read_text())
problems = {{}}
for name, workload in run.wl.WORKLOADS.items():
    assert reference[name]["overrides"] == workload.overrides, name
    rows = getattr(cli, workload.runner)(run.wl.build_config(cli, workload, 0))
    problems[name] = run.check_rows(rows, 0, reference[name]["seeds"]["0"])
print(json.dumps(problems))
"""


def test_bench_reference_rows_hold():
    # Pipeline seed 0 of every workload against the rows the benchmark gates
    # on, with the benchmark's own check. BLAS runs on one thread, as in the
    # benchmark: at two, some payload losses leave the 1e-6 tolerance. The
    # recorded csv_sha256 values are not compared; width-sweep's predate a
    # last-digit change in its losses that the tolerance admits.
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    script = _REFERENCE_CHECK.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    problems = json.loads(done.stdout.splitlines()[-1])
    assert sorted(problems) == sorted(_bench_module("workloads").WORKLOADS)
    assert not any(problems.values()), problems


_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in _DECLARED["workloads"]])
def test_bench_record_names_the_declared_metrics(workload):
    # Written by tests/bench_record.py from one bench run of the checked-in tree.
    record = json.loads((ROOT / f"BENCH_{workload}.json").read_text())
    assert record["workload"] == workload
    assert record["command"] == bench_record.command(workload)
    assert record["result"]["correct"] is True
    assert sorted(record["result"]["metrics"]) == sorted(m["name"] for m in _DECLARED["end_to_end"])
    assert record["env"]["blas_threads"] == 1 and record["describe"]
    assert all(set(past) == {"commit", "run_s", "note"} for past in record["history"])


def test_bench_record_tool_reads_the_env_and_final_lines():
    env, result = bench_record.parse_output('env {"seed": 3}\nend-to-end\n{"correct": true}\n')
    assert env == {"seed": 3} and result == {"correct": True}


def test_csv_digest_tool_prints_one_line_per_pipeline():
    done = subprocess.run([sys.executable, str(ROOT / "tests" / "csv_digests.py"),
                           "--workload", "width-sweep", "--seed", "0"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(r"width-sweep 0 [0-9a-f]{64}\n", done.stdout), done.stdout


def test_traffic_tool_prints_unexecuted_line_runs():
    done = subprocess.run([sys.executable, str(ROOT / "tests" / "traffic.py"),
                           "--workload", "width-sweep", "--seed", "0"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    runs = [re.fullmatch(r"oneshot_fl\.(\w+):(\d+)-(\d+)", line)
            for line in done.stdout.splitlines()]
    assert runs and all(runs), done.stdout
    spans = [(m[1], int(m[2]), int(m[3])) for m in runs]
    assert spans == sorted(spans)
    assert all(1 <= first <= last for _, first, last in spans)
    # Disjoint and not adjacent: each run is maximal.
    assert all(a[0] != b[0] or a[2] + 1 < b[1] for a, b in zip(spans, spans[1:]))
    modules = {p.stem for p in (ROOT / "src" / "oneshot_fl").glob("*.py")}
    assert {name for name, _, _ in spans} <= modules
    # The width sweep merges dense curvature and never applies a Kronecker block.
    lines, start = inspect.getsourcelines(numerics.kron_matvec)
    assert any(name == "numerics" and start < first and last < start + len(lines)
               for name, first, last in spans)


@pytest.mark.parametrize("demo", ["01_merge_two_quadratics.py", "04_payload_compression.py"])
def test_demo_runs(demo, capsys):
    runpy.run_path(str(ROOT / "demos" / demo), run_name="__main__")
    assert capsys.readouterr().out


class _ConfigChecked(Exception):
    pass


@pytest.mark.parametrize("demo, runner", [
    ("02_width_sweep.py", "run_width_sweep"),
    ("03_one_shot_classification.py", "run_one_shot"),
    ("05_few_shot_rounds.py", "run_few_shot"),
])
def test_demo_config_validates(demo, runner, monkeypatch):
    # These demos train for minutes; stop each at its runner call once its
    # config has passed the CLI's validation.
    def validate_only(cfg):
        cli.validate_config(cfg)
        raise _ConfigChecked

    monkeypatch.setattr(cli, runner, validate_only)
    with pytest.raises(_ConfigChecked):
        runpy.run_path(str(ROOT / "demos" / demo), run_name="__main__")


# Public names kept in the package with no caller outside the tests.
_TEST_ONLY_EXEMPT = {
    # The public entry to _loss_and_grad, the gradient local training steps
    # on; criterion 3 checks exactly that gradient against finite differences.
    ("models", "gradient"),
}


# Fields and properties of public classes kept with no reader outside the tests.
_UNREAD_EXEMPT = {
    # The tests' one observable of the bound behind GD's auto step; it is the
    # value the step is taken from, so keeping it costs nothing.
    ("MergeResult", "lambda_max"),
    # Acceptance criterion 9 reads the objective trace; the merge records it
    # only when asked (record_objective).
    ("MergeResult", "objective_trace"),
}


def _identifiers(node: ast.AST) -> set[str]:
    """Every name a piece of code can use: bare names, attributes, imports."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rsplit(".", 1)[-1])
    return found


def test_every_public_name_has_a_library_caller():
    package = ROOT / "src" / "oneshot_fl"
    public = {}  # (module, name) -> the top-level statement defining it
    uses = []  # (defining statement or None, identifiers it uses)
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            uses.append((stmt, _identifiers(stmt)))
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                public[(path.stem, stmt.name)] = stmt
    for path in sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        uses.append((None, _identifiers(ast.parse(path.read_text()))))
    traced = set(_bench_module("tracing").SPANS)

    assert _TEST_ONLY_EXEMPT <= set(public), "an exempt name is gone; drop its exemption"
    test_only = sorted(
        f"{module}.{name}" for (module, name), stmt in public.items()
        if (module, name) not in traced | _TEST_ONLY_EXEMPT
        and not any(name in names for where, names in uses if where is not stmt))
    assert not test_only, f"only tests call {test_only}; move them under tests/"


def _is_property(fn: ast.AST) -> bool:
    return isinstance(fn, ast.FunctionDef) and any(
        isinstance(d, ast.Name) and d.id == "property" for d in fn.decorator_list)


def test_every_result_field_has_a_library_reader():
    # Every annotated field and @property of a public class must be read as
    # an attribute by the package, a demo or the bench: a value only tests
    # read is work every run pays for and no run uses.
    package = ROOT / "src" / "oneshot_fl"
    members = set()  # (class, field or property)
    reads = set()  # attribute names read anywhere outside the tests
    for path in [*sorted(package.glob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
                 *sorted((ROOT / "bench").glob("*.py"))]:
        tree = ast.parse(path.read_text())
        reads |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        if path.parent != package:
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    members.add((cls.name, item.target.id))
                elif _is_property(item):
                    members.add((cls.name, item.name))

    assert _UNREAD_EXEMPT <= members, "an exempt field is gone; drop its exemption"
    unread = sorted(f"{cls}.{name}" for cls, name in members - _UNREAD_EXEMPT
                    if name not in reads)
    assert not unread, f"only tests read {unread}; drop them and the work behind them"
