"""The benchmark's workloads: one CLI runner and config each.

Every workload is a pool of pipeline seeds. A pipeline is one runner call
with ``seeds=[s]`` and ``timing=False``; the benchmark's ``--seed`` only
orders the pool, so every run covers the same inputs and the quality metrics
and reference rows apply to all of them. Sizes are scaled down from the CLI
defaults so that one pipeline takes 0.6 to 1.0 s on one BLAS thread, while
the layer that dominates each workload stays the one named in its ``why``
(NOTES.md has the measured shares).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    task: str  # CLI subcommand whose defaults the overrides start from
    runner: str  # public runner in oneshot_fl.cli
    overrides: dict


POOL = 8  # every workload's pipeline seeds are 0 .. POOL-1


_SMALL_IMAGES = {"n_train": 1000, "n_test": 300, "epochs_or_steps": 3}

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "width-sweep",
            "dense GD server dominates; no Kronecker curvature and no codec",
            "synthetic-width", "run_width_sweep",
            {"epochs_or_steps": 128, "t_max": 1000},
        ),
        Workload(
            "one-shot",
            "headline pipeline: kron_matvec inside the Adam server dominates; no GD, no codec",
            "one-shot", "run_one_shot",
            {**_SMALL_IMAGES, "methods": ["fedavg", "fedfisher-diag", "fedfisher-kfac"],
             "compress": False, "t_max": 60, "val_every": 5},
        ),
        Workload(
            "few-shot",
            "repeated mini-batch training from a broadcast start dominates; kron unused",
            "few-shot", "run_few_shot",
            {**_SMALL_IMAGES, "epochs_or_steps": 5, "t_max": 30, "val_every": 10},
        ),
        Workload(
            "payload",
            "only workload where the codec runs and comm_bits varies; repeated curvature builds",
            "compress-bench", "run_compress_bench",
            {**_SMALL_IMAGES, "n_train": 600, "side": 14,
             "methods": ["fishermerge", "fedfisher-kfac"], "s_q_list": [1, 2, 4, 8],
             "t_max": 60, "val_every": 15},
        ),
    ]
}


def build_config(cli, workload: Workload, seed: int):
    """The validated CLI config of one pipeline of ``workload``."""
    cfg = replace(cli.default_config(workload.task), **workload.overrides,
                  seeds=[seed], timing=False)
    cli.validate_config(cfg)
    return cfg
