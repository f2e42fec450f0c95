"""Per-layer spans recorded from outside the program.

A :class:`Tracer` replaces the public functions of each package module with
timing wrappers for the duration of a ``with tracer.installed():`` block.
Each wrapper is a span: its self time is its duration minus the time of the
spans that ran inside it, so the self times of all layers plus the driver's
own time add up to the traced run time. Every span is timed in CPU seconds
(:func:`cpu_seconds`), the clock of the whole benchmark.

Wrappers are installed on every module attribute that holds the original
function, because a name bound by ``from ... import`` is looked up in the
importing module: ``aggregate.fisher_matvec``, ``aggregate.power_iteration_max_eig``
and ``fisher.kron_matvec`` would otherwise escape their spans and land in
the caller's self time.

Counters come from arguments and return values only (``TrainResult.steps``,
``MergeResult.iterations``, ``PowerIterResult.iterations``, argument shapes),
so nothing inside the package has to know it is being traced.
"""

from __future__ import annotations

import contextlib
import functools
import resource
import sys
import time
import zlib
from collections import defaultdict

import numpy as np

# (module, function) -> layer span name. `oracle` is test-only and excluded.
SPANS = {
    ("datasets", "gen_synthetic"): "datasets",
    ("datasets", "gen_image_classes"): "datasets",
    ("datasets", "dirichlet_partition"): "datasets",
    ("models", "sgd_train"): "models.train",
    ("models", "loss_eval"): "models.eval",
    ("models", "accuracy_eval"): "models.eval",
    ("fisher", "full_fisher_two_layer"): "fisher.build",
    ("fisher", "diag_fisher"): "fisher.build",
    ("fisher", "kfac_fisher"): "fisher.build",
    ("fisher", "fisher_matvec"): "fisher.matvec",
    ("numerics", "kron_matvec"): "numerics.kron",
    ("numerics", "power_iteration_max_eig"): "numerics.power",
    ("aggregate", "merge_updates"): "aggregate.merge",
    ("compress", "kfac_budget_plan"): "compress.encode",
    ("compress", "quantize_blocks"): "compress.encode",
    ("compress", "compress_kfac"): "compress.encode",
    ("compress", "dequantize_blocks"): "compress.decode",
    ("compress", "decompress_kfac"): "compress.decode",
}

LAYERS = tuple(dict.fromkeys(SPANS.values()))

PACKAGE = "oneshot_fl"


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and by its children that have ended.

    The benchmark times everything with this clock, not with wall time. The
    program runs on one thread, so on an idle core the two agree; on a shared
    host, wall time also counts the time other tenants hold the cores. With
    both cores of a 2-core box kept busy by other processes, a width-sweep
    pass took 41% longer in wall time and 3% longer in CPU time. Children are
    counted so that work moved into a subprocess still shows; time spent
    blocked on I/O or sleeping does not, and the pipelines do neither.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Tracer:
    """Span stack and counters for one traced pass."""

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []  # child seconds of each open span
        self._builds: set[tuple] = set()

    def new_pipeline(self) -> None:
        """Builds are only useful-or-not within one pipeline."""
        self._builds.clear()

    def _wrap(self, layer: str, fn, count):
        totals, stack = self.totals, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = cpu_seconds()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = cpu_seconds() - t0
                stack.pop()
                totals[layer + ".self_s"] += elapsed - children[0]
                totals[layer + ".calls"] += 1
                if stack:
                    stack[-1][0] += elapsed
            if count:
                count(self, args, kwargs, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        originals = {}
        for (mod_name, fn_name), layer in SPANS.items():
            fn = getattr(modules[f"{PACKAGE}.{mod_name}"], fn_name)
            originals[id(fn)] = (fn, self._wrap(layer, fn, _COUNTERS.get(layer)))
        patched = []
        try:
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    hit = originals.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(mod, attr, hit[1])
                        patched.append((mod, attr, value))
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)


def _count_train(tracer, args, kwargs, out) -> None:
    tracer.totals["models.train.steps"] += out.steps
    tracer.totals["models.train.diverged"] += int(out.diverged)


def _count_merge(tracer, args, kwargs, out) -> None:
    result = out[1]
    if result is None:  # fedavg and fishermerge have no solver
        return
    tracer.totals["aggregate.solver.merges"] += 1
    tracer.totals["aggregate.solver.iters"] += result.iterations
    tracer.totals["aggregate.solver.converged"] += int(result.converged)
    tracer.totals["aggregate.solver.diverged"] += int(result.diverged)


def _count_power(tracer, args, kwargs, out) -> None:
    tracer.totals["numerics.power.iters"] += out.iterations


def _count_kron(tracer, args, kwargs, out) -> None:
    (ma, na), (mb, nb) = np.shape(args[0]), np.shape(args[1])
    # b @ V with V (nb, na), then (mb, na) @ a.T with a.T (na, ma).
    tracer.totals["numerics.kron.gflop"] += (2 * mb * nb * na + 2 * mb * na * ma) * 1e-9


def _count_build(tracer, args, kwargs, out) -> None:
    """Counts distinct (model, shard, variant) builds within a pipeline.

    The key holds a CRC of every input, which is cheap enough (about 0.3 ms
    per megabyte) that this work, which lands in the caller's self time,
    stays well under one percent of a traced run.
    """
    key = (type(out).__name__,) + tuple(_fingerprint(v) for v in args) + tuple(
        (name, _fingerprint(v)) for name, v in sorted(kwargs.items()))
    if key not in tracer._builds:
        tracer._builds.add(key)
        tracer.totals["fisher.build.distinct"] += 1


def _fingerprint(value):
    if isinstance(value, np.ndarray):
        return value.shape, zlib.crc32(memoryview(np.ascontiguousarray(value)))
    weights = getattr(value, "weights", None)
    if weights is not None:  # a model: its parameters identify it
        arrays = list(weights) if isinstance(weights, list) else [weights]
        return tuple(_fingerprint(a) for a in arrays + list(getattr(value, "biases", [])))
    return repr(value)


_COUNTERS = {
    "models.train": _count_train,
    "aggregate.merge": _count_merge,
    "numerics.power": _count_power,
    "numerics.kron": _count_kron,
    "fisher.build": _count_build,
}
