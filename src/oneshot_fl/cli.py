"""Experiment runners and the command-line front end.

Every subcommand runs one client round per sweep point: clients train
locally, each sends one uplink built by :func:`client_update`, and the
server merges the uplinks once per method. Tasks differ only in the axis
they sweep, so each task is a list of sweep points (:func:`_points`) and
one loop (:func:`_run`) runs seed x point x method. A point's round starts
in one of four ways:

- ``init``: the clients train from the initial model;
- ``continue``: the previous point's clients train the extra steps;
- ``merge``: each method's clients train from that method's previous merge;
- ``same``: the previous point's round is merged again under a new codec.

- ``synthetic-width``: unit-sphere regression, two-layer nets, sweep the
  hidden width; each width is an ``init`` point with its own initial net.
- ``synthetic-steps``: same task at fixed width, sweep the local full-batch
  step count; without momentum each point continues the last, with
  momentum each is an ``init`` point.
- ``one-shot``: heterogeneous image classification with an MLP, one
  ``init`` point.
- ``few-shot``: one-shot's round, then ``merge`` rounds.
- ``compress-bench``: one-shot's round, then ``same`` for each further
  compression factor.

Each subcommand reads an optional INI config (key = value lines under
[section] headers, inline ``;`` comments allowed), applies command-line flag
overrides, writes one CSV row per (seed, method, sweep point), and exits 0 on
success, 2 on a config error, 3 on numerical divergence. Each field of
:class:`ExperimentConfig` declares one key, once: its section, parser, flag
and readers, the tasks, data kinds, methods and ``compress`` setting under
which a run reads it. ``_CONFIG_KEYS`` is derived from the fields and drives
the flags, and a key set away from the task's default where no part of the
run reads it is a config error, as is a float value that is not finite.
Rows are sorted by (seed, method, sweep) and floats carry 17 significant
digits, so identical configs (with wall-time measurement disabled via
--no-timing) produce byte-identical CSVs.

``comm_bits`` is ``compress.bit_cost`` of the payloads the server receives
from every client: flat weights plus curvature. With ``compress`` on (see
:class:`Codec`) every curvature-carrying method stays within 32 d + 64 L bits
of the 32 d float32 baseline; plain averaging is never compressed.
``compress-bench`` sweeps the codec's s_q instead, s_q = 1 being uncompressed.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from . import aggregate as agg
from . import compress as comp
from . import datasets, fisher, models

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

CSV_HEADER = "seed,method,sweep,train_loss,test_accuracy,wall_time_s,comm_bits"

_WEIGHT_SQ = 2  # weights and diagonal curvature in the configured codec


class ConfigError(ValueError):
    pass


class DivergenceError(RuntimeError):
    pass


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.replace(" ", "").split(",") if part]
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


def _parse_eta_s(text: str) -> float | None:
    if text.strip().lower() == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"expected a float or 'auto', got {text!r}") from None


def _parse_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


_SYNTHETIC = ("synthetic-width", "synthetic-steps")
_CLASSIFY = ("one-shot", "few-shot", "compress-bench")
_ALL = _SYNTHETIC + _CLASSIFY
_EPOCHS = ("synthetic-width",) + _CLASSIFY  # synthetic-steps trains for each of steps_list
_CODEC = _SYNTHETIC + ("one-shot", "few-shot")  # compress-bench sweeps s_q_list instead
_IMAGES, _IDX, _CSV = ("image-classes",), ("idx",), ("csv",)  # data kinds of the classification tasks
_SOLVED = (agg.METHOD_FULL, agg.METHOD_DIAG, agg.METHOD_KFAC)  # the methods fedfisher_solve merges


class _Key(NamedTuple):
    """One config key, as its field declares it: the attribute it sets, the
    parser of its text, its readers and its flag (None: INI only; a ``switch``
    flag takes no value and stands for ``switch``). ``readers`` is a group of
    names per part of a run (task, data kind, methods, ``compress = true|false``,
    ``val_fraction > 0|= 0``); a run reads the key when each group, unless
    None or left off, meets its part."""

    attr: str
    parse: Callable[[str], object]
    readers: tuple[tuple[str, ...] | None, ...]
    flag: str | None = None
    switch: str | None = None


def _key(section: str, default, parse, *readers, flag=None, switch=None, key=None):
    """The field that declares config key [``section``] ``key`` (default: the
    attribute's name), with ``default`` its value (a list is copied per
    config) and the rest of its :class:`_Key` in the field's metadata."""
    meta = {"section": section, "key": key, "spec": _Key("", parse, readers, flag, switch)}
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class ExperimentConfig:
    """A run's config; every field but ``task`` declares one config key (:func:`_key`)."""

    task: str = "one-shot"
    data_kind: str = _key("data", "image-classes", str, _CLASSIFY, flag="--data-kind",
                          key="kind")  # synthetic | image-classes | idx | csv
    clients: int = _key("data", 5, int, _ALL, flag="--clients")
    per_client: int = _key("data", 100, int, _SYNTHETIC)
    dim: int = _key("data", 2, int, _SYNTHETIC)
    alpha: float = _key("data", 0.1, float, _CLASSIFY, flag="--alpha")
    n_train: int = _key("data", 5000, int, _CLASSIFY, _IMAGES, flag="--n-train")
    n_test: int = _key("data", 1000, int, _CLASSIFY, _IMAGES, flag="--n-test")
    classes: int = _key("data", 10, int, _CLASSIFY, _IMAGES)
    side: int = _key("data", 28, int, _CLASSIFY, _IMAGES)
    pixel_noise: float = _key("data", 0.3, float, _CLASSIFY, _IMAGES)
    field_noise: float = _key("data", 0.15, float, _CLASSIFY, _IMAGES)
    images_path: str = _key("data", "", str, _CLASSIFY, _IDX)
    labels_path: str = _key("data", "", str, _CLASSIFY, _IDX)
    test_images_path: str = _key("data", "", str, _CLASSIFY, _IDX)
    test_labels_path: str = _key("data", "", str, _CLASSIFY, _IDX)
    csv_path: str = _key("data", "", str, _CLASSIFY, _CSV)
    test_fraction: float = _key("data", 0.2, float, _CLASSIFY, _IDX + _CSV)
    val_fraction: float = _key("data", 0.1, float, _CLASSIFY)
    width: int = _key("model", 512, int, ("synthetic-steps",))
    kappa: float = _key("model", 0.5, float, _SYNTHETIC)
    hidden_dims: list[int] = _key("model", [64], _parse_int_list, _CLASSIFY)
    eta: float = _key("local", 0.01, float, _ALL, flag="--eta")
    momentum: float = _key("local", 0.9, float, _ALL)
    epochs_or_steps: int = _key("local", 30, int, _EPOCHS, flag="--epochs")
    batch_size: int = _key("local", 64, int, _CLASSIFY, flag="--batch-size")  # 0 means full batch
    optimizer: str = _key("server", "adam", str, _ALL, None, _SOLVED)
    eta_s: float | None = _key("server", 0.01, _parse_eta_s, _ALL, None, _SOLVED, flag="--eta-s")
    t_max: int = _key("server", 2000, int, _ALL, None, _SOLVED, flag="--t-max")
    stop_tol: float = _key("server", 1e-10, float, _ALL, None, _SOLVED)
    val_every: int = _key("server", 100, int, _CLASSIFY, None, _SOLVED, None,
                          ("val_fraction > 0",))
    methods: list[str] = _key("run", [agg.METHOD_FEDAVG, agg.METHOD_DIAG], _parse_list, _ALL,
                              flag="--methods")
    seeds: list[int] = _key("run", list(range(5)), _parse_int_list, _ALL, flag="--seed-list")
    widths: list[int] = _key("run", [32, 64, 128, 256, 512], _parse_int_list,
                             ("synthetic-width",), flag="--widths")
    steps_list: list[int] = _key("run", [2**k for k in range(4, 13)], _parse_int_list,
                                 ("synthetic-steps",), flag="--steps-list")
    rounds: int = _key("run", 3, int, ("few-shot",), flag="--rounds")
    out: str = _key("run", "", str, _ALL, flag="--out")
    timing: bool = _key("run", True, _parse_bool, _ALL, flag="--no-timing", switch="false")
    compress: bool = _key("run", True, _parse_bool, _CODEC, None,
                          _SOLVED + (agg.METHOD_FISHERMERGE,))
    s_q: int = _key("run", 4, int, _CODEC, None, (agg.METHOD_KFAC,), ("compress = true",))
    s_q_list: list[int] = _key("run", [1, 2, 4, 8], _parse_int_list, ("compress-bench",),
                               flag="--s-q-list")


# (section, key) -> _Key of every config key, in field order.
_CONFIG_KEYS = {
    (f.metadata["section"], f.metadata["key"] or f.name): f.metadata["spec"]._replace(attr=f.name)
    for f in fields(ExperimentConfig) if f.metadata
}


def default_config(task: str) -> ExperimentConfig:
    if task == "synthetic-width":
        return ExperimentConfig(
            task=task, data_kind="synthetic", clients=2, per_client=100, dim=2,
            kappa=0.5, eta=0.1, momentum=0.0, epochs_or_steps=2048, batch_size=0,
            optimizer="gd", eta_s=0.001, t_max=20000,
            methods=[agg.METHOD_FEDAVG, agg.METHOD_FULL],
            seeds=list(range(10)), compress=False,
        )
    if task == "synthetic-steps":
        cfg = default_config("synthetic-width")
        return replace(cfg, task=task, width=512, widths=[], seeds=list(range(10)))
    if task == "one-shot":
        return ExperimentConfig(task=task)
    if task == "few-shot":
        cfg = ExperimentConfig(task=task)
        return replace(cfg, rounds=3, compress=False,
                       methods=[agg.METHOD_FEDAVG, agg.METHOD_DIAG], seeds=[0, 1, 2])
    if task == "compress-bench":
        cfg = ExperimentConfig(task=task)
        return replace(cfg, seeds=[0], methods=[agg.METHOD_DIAG, agg.METHOD_KFAC])
    raise ConfigError(f"unknown task {task!r}")


def _parse_value(spec: _Key, text, where: str):
    try:
        return spec.parse(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {where}: {exc}") from None


def load_config_file(cfg: ExperimentConfig, path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    if not parser.read(path):
        raise ConfigError(f"cannot read config file {path}")
    values = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            spec = _CONFIG_KEYS.get((section, key))
            if spec is None:
                raise ConfigError(f"unknown config key [{section}] {key}")
            values[spec.attr] = _parse_value(spec, raw, f"[{section}] {key}")
    return replace(cfg, **values)


def validate_config(cfg: ExperimentConfig) -> None:
    default = default_config(cfg.task)
    for method in cfg.methods:
        if method not in agg.VALID_METHODS:
            raise ConfigError(f"unknown method {method!r}, expected one of {agg.VALID_METHODS}")
    if cfg.optimizer not in ("gd", "adam"):
        raise ConfigError(f"unknown server optimizer {cfg.optimizer!r}")
    if cfg.data_kind not in ("synthetic", "image-classes", "idx", "csv"):
        raise ConfigError(f"unknown data kind {cfg.data_kind!r}")
    for (section, key), spec in _CONFIG_KEYS.items():
        value = getattr(cfg, spec.attr)
        if isinstance(value, float) and not np.isfinite(value):
            raise ConfigError(f"[{section}] {key} must be finite, got {value}")
    for s_q in [cfg.s_q] + cfg.s_q_list:
        if not comp.MIN_SQ <= s_q <= comp.MAX_SQ:
            raise ConfigError(f"s_q must be in [{comp.MIN_SQ}, {comp.MAX_SQ}], got {s_q}")
    for name, low in (("clients", 1), ("per_client", 1), ("dim", 1), ("n_train", 1), ("n_test", 1),
                      ("side", 2), ("classes", 2), ("rounds", 1), ("widths", 1), ("width", 1),
                      ("hidden_dims", 1), ("steps_list", 0), ("batch_size", 0), ("seeds", 0)):
        if min(np.atleast_1d(getattr(cfg, name)), default=low) < low:  # every list entry too
            raise ConfigError(f"{name} must be at least {low}, got {getattr(cfg, name)}")
    for name in ("eta", "alpha", "kappa"):
        if not getattr(cfg, name) > 0:
            raise ConfigError(f"{name} must be positive, got {getattr(cfg, name)}")
    if cfg.eta_s is not None and not cfg.eta_s > 0:
        raise ConfigError(f"eta_s must be positive or 'auto', got {cfg.eta_s}")
    if cfg.val_every < 1:
        raise ConfigError(f"val_every must be positive, got {cfg.val_every}")
    for name in ("epochs_or_steps", "t_max", "stop_tol"):
        if not getattr(cfg, name) >= 0:
            raise ConfigError(f"{name} must be nonnegative, got {getattr(cfg, name)}")
    for name in ("momentum", "test_fraction", "val_fraction"):
        if not 0 <= getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be in [0, 1), got {getattr(cfg, name)}")
    # Each entry of these lists makes its own rows. hidden_dims may repeat a layer width.
    for name in ("seeds", "methods", "widths", "steps_list", "s_q_list"):
        values = getattr(cfg, name)
        if not values and cfg.task in _CONFIG_KEYS[("run", name)].readers[0]:
            raise ConfigError(f"task {cfg.task} needs at least one value in {name}")
        if len(set(values)) < len(values):
            raise ConfigError(f"{name} must not repeat an entry, got {values}")
    parts = (("on data kind", [cfg.data_kind]), ("with methods", cfg.methods),
             ("and", [f"compress = {str(cfg.compress).lower()}"]),
             ("and", ["val_fraction > 0" if cfg.val_fraction > 0 else "val_fraction = 0"]))
    for (section, key), spec in _CONFIG_KEYS.items():
        tasks, *groups = spec.readers
        misses = [f" {part} {', '.join(names)}" for (part, names), group in zip(parts, groups)
                  if cfg.task in tasks and group is not None and set(names).isdisjoint(group)]
        unset = getattr(default, spec.attr)
        if (cfg.task not in tasks or misses) and getattr(cfg, spec.attr) != unset:
            flag = f" ({spec.flag})" if spec.flag else ""
            raise ConfigError(f"task {cfg.task}{''.join(misses)} does not read [{section}] "
                              f"{key}{flag}; leave it at its default {unset!r}")
    # The task fixes the architecture: two-layer nets for the synthetic sweeps,
    # MLPs for classification. Dense curvature needs the former, K-FAC the latter.
    synthetic = cfg.task in _SYNTHETIC
    misfit = agg.METHOD_KFAC if synthetic else agg.METHOD_FULL
    if misfit in cfg.methods:
        net = "two-layer net" if synthetic else "MLP"
        raise ConfigError(f"method {misfit} does not apply to the {net} of task {cfg.task}")
    if synthetic and agg.METHOD_FULL in cfg.methods:
        widest = max(cfg.widths) if cfg.task == "synthetic-width" else cfg.width
        if widest * cfg.dim > fisher.MAX_FULL_DIM:  # dense curvature is (width*dim)^2 entries
            raise ConfigError(f"dense curvature needs width*dim <= {fisher.MAX_FULL_DIM}, "
                              f"got {widest * cfg.dim}")


@dataclass
class ResultRow:
    seed: int
    method: str
    sweep: float
    train_loss: float
    test_accuracy: float
    wall_time_s: float
    comm_bits: int


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_csv(rows: list[ResultRow], path: str) -> None:
    rows = sorted(rows, key=lambda r: (r.seed, r.method, r.sweep))
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            str(r.seed), r.method, _fmt(r.sweep), _fmt(r.train_loss),
            _fmt(r.test_accuracy), _fmt(r.wall_time_s), str(int(r.comm_bits)),
        ]))
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


class _Clock:
    """Wall-clock timer that reads 0 when timing is disabled, keeping CSVs
    byte-identical across runs."""

    def __init__(self, enabled: bool):
        self.enabled = enabled

    def now(self) -> float:
        return time.perf_counter() if self.enabled else 0.0


def _local_config(cfg: ExperimentConfig, n_examples: int, steps: int) -> models.TrainConfig:
    batch = cfg.batch_size if cfg.batch_size > 0 else n_examples
    return models.TrainConfig(
        eta=cfg.eta, epochs_or_steps=steps,
        batch_size=batch, momentum=cfg.momentum,
    )


# ---------------------------------------------------------------------------
# The client round: local training, one uplink per client, one server merge
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Codec:
    """Uplink compression for every method but fedavg.

    Weights and diagonal curvature are quantized per layer at ``s_q``;
    Kronecker factors are SVD-truncated to the budget-planned ranks and
    quantized at ``factor_s_q``; dense curvature travels as float32.
    """

    s_q: int
    factor_s_q: int


# Curvature variant each method sends; fedavg sends its weights alone.
_VARIANTS = {
    agg.METHOD_FULL: "full",
    agg.METHOD_DIAG: "diag",
    agg.METHOD_FISHERMERGE: "diag",
    agg.METHOD_KFAC: "kfac",
}


def _build_curvature(variant: str, model, x):
    # Each builder is looked up on the module at call time, so a wrapper
    # installed there sees every build.
    if variant == "full":
        return fisher.full_fisher_two_layer(model, x)
    if variant == "diag":
        return fisher.diag_fisher(model, x)
    return fisher.kfac_fisher(model, x)


def _kfac_ranks(model, codec: Codec) -> list[int]:
    """Kept rank per layer of the K-FAC factors under ``codec``. The budget
    plan depends on the architecture alone, so every client plans the same.
    Raises :class:`ConfigError` when even rank 1 exceeds the budget."""
    dims = [(cols, rows) for _, rows, cols in models.layer_slices(model)]
    plan = comp.kfac_budget_plan(dims, models.param_count(model), codec.factor_s_q)
    if not plan.feasible:
        raise ConfigError(
            f"K-FAC factors of dims {dims} need {plan.total_bits} bits at rank 1 and "
            f"s_q = {plan.s_q}, over the {plan.budget_bits}-bit budget; raise s_q "
            f"or widen hidden_dims")
    return plan.l_v


def client_update(model, x: np.ndarray, method: str, codec: Codec | None = None,
                  built: dict | None = None) -> tuple[agg.ClientUpdate, int]:
    """One client's uplink for ``method``: the update the server merges, and
    its bits.

    Builds the curvature variant the method needs from the client's inputs
    ``x``, unless ``built`` (variant -> payload, for this trained model)
    already holds it. Curvature is exact and draws nothing, so the uplink
    depends on ``model``, ``x``, ``method`` and ``codec`` alone. Applies
    ``codec`` unless the method is fedavg, encoding the weights and the
    diagonal once per codec (``built`` keeps the latest codec's) and K-FAC
    factors at the ranks :func:`_kfac_ranks` plans from ``model`` and
    ``codec``. Each K-FAC factor is decomposed once, and ``built`` keeps its
    singular triples for every later codec. The bits are
    ``compress.bit_cost`` of what the server receives.
    """
    built = {} if built is None else built
    weights = models.get_flat_params(model)
    f = None
    variant = _VARIANTS.get(method)
    if variant is not None:
        if variant not in built:
            built[variant] = _build_curvature(variant, model, x)
        f = built[variant]
    sent_weights, sent_curvature = weights, f
    if codec is not None and method != agg.METHOD_FEDAVG:
        if built.get("codec") != codec:  # keep the latest codec's encodings only
            built["codec"], built["encoded"] = codec, {}
        encoded = built["encoded"]  # what several methods send -> (sent, as decoded)
        blocks = ([rows * cols for _, rows, cols in models.layer_slices(model)]
                  if isinstance(model, models.MLP) else [weights.size])
        if "weights" not in encoded:
            sent = comp.quantize_blocks(weights, blocks, codec.s_q)
            encoded["weights"] = sent, comp.dequantize_blocks(sent)
        sent_weights, weights = encoded["weights"]
        if isinstance(f, fisher.DiagFisher):
            if "diag" not in encoded:
                sent = comp.quantize_blocks(f.diag, blocks, codec.s_q)
                encoded["diag"] = sent, fisher.DiagFisher(comp.dequantize_blocks(sent))
            sent_curvature, f = encoded["diag"]
        elif isinstance(f, fisher.KFACFisher):
            sent_curvature = comp.compress_kfac(f, codec.factor_s_q, _kfac_ranks(model, codec),
                                                built.setdefault("kfac_svds", []))
            f = comp.decompress_kfac(sent_curvature)
    bits = comp.bit_cost([sent_weights, sent_curvature])
    return agg.ClientUpdate(weights, f, x.shape[0]), bits


@dataclass
class Round:
    """Client models after one round of local training, with the data they
    trained on.

    Every method and codec merged from a round shares it, so each client
    trains once per round, builds each curvature variant at most once, and
    decomposes each Kronecker factor at most once. Merging draws nothing, so
    a round carries no seed.
    """

    data: datasets.FederatedDataset
    trained: list  # client i's model
    built: list[dict] = field(init=False)

    def __post_init__(self):
        self.built = [{} for _ in self.trained]


def train_round(data: datasets.FederatedDataset, starts: list, train_cfg: models.TrainConfig,
                seed: int, index: int) -> Round:
    """Train client i of ``data`` from ``starts[i]``, its mini-batches drawn
    from [``seed``, ``index``, i]; divergence raises :class:`DivergenceError`."""
    trained = []
    for i, start in enumerate(starts):
        cx, cy = data.client_data(i)
        result = models.sgd_train(start, cx, cy, train_cfg, seed=[seed, index, i])
        if result.diverged:
            raise DivergenceError(f"client {i} diverged during local training")
        trained.append(result.model)
    return Round(data, trained)


def merge_round(rnd: Round, method: str, codec: Codec | None, server_cfg: agg.ServerConfig
                ) -> tuple[np.ndarray, int, agg.MergeResult | None]:
    """Merge one :func:`client_update` per client of ``rnd``: (weights, bits,
    the solver's result, None for a method without one); a diverged solver
    raises :class:`DivergenceError`."""
    updates, bits = [], 0
    for i, model in enumerate(rnd.trained):
        cx, _ = rnd.data.client_data(i)
        update, client_bits = client_update(model, cx, method, codec, rnd.built[i])
        updates.append(update)
        bits += client_bits
    merged, result = agg.merge_updates(method, updates, server_cfg)
    if result is not None and result.diverged:
        raise DivergenceError(f"server merge diverged for method {method}")
    return merged, bits, result


@dataclass
class _Splits:
    train: datasets.FederatedDataset
    val_x: np.ndarray
    val_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


def _classification_data(cfg: ExperimentConfig, seed: int) -> _Splits:
    if cfg.data_kind == "image-classes":
        keys = ("n_train", "classes")
        x_train, y_train, x_test, y_test = datasets.gen_image_classes(
            cfg.n_train, cfg.n_test, cfg.classes, cfg.side, seed,
            cfg.pixel_noise, cfg.field_noise)
    elif cfg.data_kind == "idx":
        if not cfg.images_path or not cfg.labels_path:
            raise ConfigError("idx data needs images_path and labels_path")
        if bool(cfg.test_images_path) != bool(cfg.test_labels_path):
            raise ConfigError("[data] set both test_images_path and test_labels_path, or neither")
        keys = ("images_path", "labels_path")
        x_all, y_all = _read_data(datasets.load_idx, cfg, "images_path", "labels_path")
        if cfg.test_images_path:
            x_train, y_train = x_all, y_all
            x_test, y_test = _read_data(datasets.load_idx, cfg,
                                        "test_images_path", "test_labels_path")
        else:
            x_train, y_train, x_test, y_test = _holdout(x_all, y_all, cfg.test_fraction, seed)
    elif cfg.data_kind == "csv":
        if not cfg.csv_path:
            raise ConfigError("csv data needs csv_path")
        keys = ("csv_path",)
        x_all, y_all, _ = _read_data(datasets.load_csv, cfg, "csv_path")
        x_train, y_train, x_test, y_test = _holdout(x_all, y_all, cfg.test_fraction, seed)
    else:
        raise ConfigError(f"data kind {cfg.data_kind!r} is not a classification source")

    rng = np.random.default_rng([seed, 31])
    n = x_train.shape[0]
    n_val = int(round(cfg.val_fraction * n))
    perm = rng.permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    x_tr, y_tr = x_train[train_idx], y_train[train_idx]
    if len(y_tr) < cfg.clients:
        raise ConfigError(f"[data] clients (--clients) is {cfg.clients}, more than the "
                          f"{len(y_tr)} examples of the training split")
    classes = int(y_train.max()) + 1
    if classes < 2:
        raise ConfigError(f"[data] {', '.join(keys)}: the training split has {classes} class, "
                          "and a classifier needs at least 2")
    partition = datasets.dirichlet_partition(y_tr, cfg.clients, cfg.alpha, seed)
    train = datasets.FederatedDataset(x_tr, y_tr, partition, num_classes=classes)
    return _Splits(train, x_train[val_idx], y_train[val_idx], x_test, y_test)


def _read_data(load, cfg: ExperimentConfig, *keys: str):
    """``load`` called on the paths of the [data] ``keys``. A file that
    cannot be opened or parsed is a config error naming those keys."""
    try:
        return load(*(getattr(cfg, key) for key in keys))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"[data] {', '.join(keys)}: {exc}") from None


def _holdout(x, y, fraction, seed):
    rng = np.random.default_rng([seed, 37])
    n = x.shape[0]
    n_test = max(1, int(round(fraction * n)))
    perm = rng.permutation(n)
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    return x[train_idx], y[train_idx], x[test_idx], y[test_idx]


# ---------------------------------------------------------------------------
# The runner: seed x sweep point x method
# ---------------------------------------------------------------------------


class _Point(NamedTuple):
    """One sweep point: its CSV ``sweep`` value, where its round starts
    (``init``, ``continue``, ``merge`` or ``same``; see the module
    docstring), its local step count and its codec."""

    sweep: float
    start: str
    steps: int
    codec: Codec | None
    width: int = 0  # hidden width of the two-layer initial model
    index: int = 0  # round index; seeds client draws as [seed, index, client, ...]


def _points(cfg: ExperimentConfig) -> list[_Point]:
    """The sweep points of ``cfg.task``, in the order they run."""
    codec = Codec(_WEIGHT_SQ, cfg.s_q) if cfg.compress else None
    steps = cfg.epochs_or_steps
    if cfg.task == "synthetic-width":
        return [_Point(float(w), "init", steps, codec, w) for w in cfg.widths]
    if cfg.task == "synthetic-steps":
        ks = sorted(cfg.steps_list)
        if cfg.momentum == 0.0:
            # Full-batch descent without momentum is one deterministic
            # trajectory: continuing the last point equals training anew.
            return [_Point(float(k), "continue" if i else "init", k - done, codec, cfg.width)
                    for i, (done, k) in enumerate(zip([0] + ks, ks))]
        return [_Point(float(k), "init", k, codec, cfg.width) for k in ks]
    if cfg.task == "compress-bench":
        # The codec only touches the uplink, so one round serves every s_q.
        return [_Point(float(s_q), "same" if i else "init", steps,
                       Codec(s_q, s_q) if s_q > 1 else None)
                for i, s_q in enumerate(cfg.s_q_list)]
    if cfg.task == "one-shot":
        return [_Point(0.0, "init", steps, codec)]
    return [_Point(float(r + 1), "merge" if r else "init", steps, codec, index=r)
            for r in range(cfg.rounds)]


class _Seed(NamedTuple):
    """What every point of one seed shares."""

    data: datasets.FederatedDataset
    init: Callable[[_Point], models.Model]  # the model an ``init`` point trains from
    server_cfg: agg.ServerConfig
    test: tuple | None  # (x, y) scored by accuracy; None for regression


def _setup(cfg: ExperimentConfig, seed: int) -> _Seed:
    """The data, initial models, server config and test split of one seed."""
    server = dict(optimizer=cfg.optimizer, eta_s=cfg.eta_s, t_max=cfg.t_max,
                  stop_tol=cfg.stop_tol, val_every=cfg.val_every)
    if cfg.task in _SYNTHETIC:
        data = datasets.gen_synthetic(cfg.clients, cfg.per_client, cfg.dim, seed)
        return _Seed(data, lambda point: models.init_two_layer(
            point.width, cfg.dim, cfg.kappa, [seed, point.width, 7]),
            agg.ServerConfig(**server), None)
    splits = _classification_data(cfg, seed)
    dims = [splits.train.x.shape[1]] + list(cfg.hidden_dims) + [splits.train.num_classes]
    init = models.init_mlp(dims, [seed, 17])

    def val_fn(weights: np.ndarray) -> float:
        return models.accuracy_eval(models.with_flat_params(init, weights),
                                    splits.val_x, splits.val_y)

    # With no validation examples the solver keeps its final iterate.
    val = val_fn if len(splits.val_y) else None
    return _Seed(splits.train, lambda point: init, agg.ServerConfig(**server, val_fn=val),
                 (splits.test_x, splits.test_y))


def _run(cfg: ExperimentConfig) -> list[ResultRow]:
    """Every task's runner: per seed and sweep point, one row per method.

    A row's time is its round's measured training (summed over ``continue``
    points) plus its measured merge; scoring the row is not timed. Its bits
    sum the uplink over the rounds so far. When a solver merge ran out of
    t_max without meeting its stop test, or set ``step_warning``, one line on
    stderr counts them.
    """
    clock = _Clock(cfg.timing)
    points = _points(cfg)
    rows = []
    solved = unconverged = warned = 0
    for seed in cfg.seeds:
        run = _setup(cfg, seed)

        def train(starts: list, point: _Point) -> tuple[Round, float]:
            t0 = clock.now()
            local = _local_config(cfg, run.data.x.shape[0], point.steps)
            rnd = train_round(run.data, starts, local, seed, point.index)
            return rnd, clock.now() - t0

        shared, last = None, {}  # (round, training seconds) of the point; method -> (weights, bits)
        for point in points:
            if point.start == "init":
                shared = train([run.init(point)] * run.data.num_clients, point)
            elif point.start == "continue":
                more, seconds = train(shared[0].trained, point)
                shared = more, shared[1] + seconds
            for method in cfg.methods:
                bits = 0
                if point.start == "merge":
                    # Drop the spent round, models and curvature, before training the next.
                    weights, bits = last[method]
                    shared = rnd = None
                    start = models.with_flat_params(run.init(point), weights)
                    shared = train([start] * run.data.num_clients, point)
                rnd, seconds = shared
                t0 = clock.now()
                weights, sent, result = merge_round(rnd, method, point.codec, run.server_cfg)
                seconds += clock.now() - t0
                if result is not None:
                    solved += 1
                    unconverged += not result.converged
                    warned += result.step_warning
                last[method] = weights, bits + sent
                model = models.with_flat_params(rnd.trained[0], weights)
                loss = models.loss_eval(model, run.data.x, run.data.y)
                acc = models.accuracy_eval(model, *run.test) if run.test else float("nan")
                rows.append(ResultRow(seed, method, point.sweep, loss, acc, seconds, bits + sent))
    if unconverged or warned:
        print(f"warning: of {solved} solver merges, {unconverged} ran out of t_max = {cfg.t_max} "
              f"without meeting the stop test and {warned} set step_warning", file=sys.stderr)
    return rows


# The runner names the benchmark and the demos call; every task runs the one loop.
run_width_sweep = run_local_steps_sweep = run_one_shot = run_few_shot = run_compress_bench = _run


# ---------------------------------------------------------------------------
# Command-line front end
# ---------------------------------------------------------------------------


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None, help="INI config file")
    for (section, key), spec in _CONFIG_KEYS.items():
        if spec.flag is None:
            continue
        switch = f" = {spec.switch}" if spec.switch else ""
        sub.add_argument(spec.flag, action="store_true" if switch else "store",
                         help=f"[{section}] {key}{switch}")


def _apply_flags(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    updates = {}
    for spec in _CONFIG_KEYS.values():
        if spec.flag is None:
            continue
        value = getattr(args, spec.flag[2:].replace("-", "_"))
        if spec.switch is not None:
            value = spec.switch if value else None
        if value is not None:
            updates[spec.attr] = _parse_value(spec, value, spec.flag)
    return replace(cfg, **updates)


def build_config(task: str, args: argparse.Namespace) -> ExperimentConfig:
    cfg = default_config(task)
    if args.config:
        cfg = load_config_file(cfg, args.config)
    cfg = _apply_flags(cfg, args)
    if not cfg.out:
        cfg = replace(cfg, out=f"{task}.csv")
    # Checked before the run, here and not in validate_config, which also
    # takes configs that write no file.
    if os.path.isdir(cfg.out):
        raise ConfigError(f"[run] out (--out): {cfg.out!r} is a directory")
    if not os.path.isdir(os.path.dirname(cfg.out) or "."):
        raise ConfigError(f"[run] out (--out): {cfg.out!r} is in a directory that does not exist")
    validate_config(cfg)
    return cfg


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oneshot-fl",
        description="One-shot federated learning simulator",
    )
    subparsers = parser.add_subparsers(dest="task", required=True)
    for task in _ALL:
        _add_common_flags(subparsers.add_parser(task))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = build_config(args.task, args)
        rows = _run(cfg)
        write_csv(rows, cfg.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    print(f"wrote {cfg.out}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
