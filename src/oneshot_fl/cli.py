"""Experiment runners and the command-line front end.

Every subcommand runs one client round per sweep point: building a
:class:`Round` trains its clients locally, and :meth:`Round.merge` sends
each client's uplink to the server, which merges them, once per method.
Tasks differ only in the axis they sweep, so each task is a list of sweep
points (:func:`_points`) and one loop (:func:`_run`) runs seed x point x
method. A point's round starts in one of four ways:

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
which a run reads it, and its range. ``_CONFIG_KEYS`` holds every key and
drives the flags; a value out of range or not finite is a config error, as
is a key set away from the task's default where no part of the run reads it.
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
    None or left off, meets its part. A value, or each entry of a list, is in
    ``bound`` (:func:`_within`; ``eta_s = auto`` skips it) and ``choices``. A
    ``rows`` list's entries make rows: a run reading it needs one, none twice."""

    attr: str
    parse: Callable[[str], object]
    readers: tuple[tuple[str, ...] | None, ...]
    flag: str | None = None
    switch: str | None = None
    bound: str | None = None
    choices: tuple[str, ...] | None = None
    rows: bool = False


def _key(section: str, default, parse, *readers, key=None, **rules):
    """The field that declares config key [``section``] ``key`` (default: the
    attribute's name), with ``default`` its value (a list is copied per
    config) and the rest of its :class:`_Key` in the field's metadata."""
    meta = {"section": section, "key": key, "spec": _Key("", parse, readers, **rules)}
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class ExperimentConfig:
    """A run's config; every field but ``task`` declares one config key (:func:`_key`)."""

    task: str = "one-shot"
    data_kind: str = _key("data", "image-classes", str, _CLASSIFY, flag="--data-kind", key="kind",
                          choices=("synthetic", "image-classes", "idx", "csv"))
    clients: int = _key("data", 5, int, _ALL, flag="--clients", bound="at least 1")
    per_client: int = _key("data", 100, int, _SYNTHETIC, bound="at least 1")
    dim: int = _key("data", 2, int, _SYNTHETIC, bound="at least 1")
    alpha: float = _key("data", 0.1, float, _CLASSIFY, flag="--alpha", bound="positive")
    n_train: int = _key("data", 5000, int, _CLASSIFY, _IMAGES, flag="--n-train", bound="at least 1")
    n_test: int = _key("data", 1000, int, _CLASSIFY, _IMAGES, flag="--n-test", bound="at least 1")
    classes: int = _key("data", 10, int, _CLASSIFY, _IMAGES, bound="at least 2")
    side: int = _key("data", 28, int, _CLASSIFY, _IMAGES, bound="at least 2")
    pixel_noise: float = _key("data", 0.3, float, _CLASSIFY, _IMAGES, bound="nonnegative")
    field_noise: float = _key("data", 0.15, float, _CLASSIFY, _IMAGES, bound="nonnegative")
    images_path: str = _key("data", "", str, _CLASSIFY, _IDX)
    labels_path: str = _key("data", "", str, _CLASSIFY, _IDX)
    test_images_path: str = _key("data", "", str, _CLASSIFY, _IDX)
    test_labels_path: str = _key("data", "", str, _CLASSIFY, _IDX)
    csv_path: str = _key("data", "", str, _CLASSIFY, _CSV)
    test_fraction: float = _key("data", 0.2, float, _CLASSIFY, _IDX + _CSV, bound="in (0, 1)")
    val_fraction: float = _key("data", 0.1, float, _CLASSIFY, bound="in [0, 1)")
    width: int = _key("model", 512, int, ("synthetic-steps",), bound="at least 1")
    kappa: float = _key("model", 0.5, float, _SYNTHETIC, bound="positive")
    hidden_dims: list[int] = _key("model", [64], _parse_int_list, _CLASSIFY, bound="at least 1")
    eta: float = _key("local", 0.01, float, _ALL, flag="--eta", bound="positive")
    momentum: float = _key("local", 0.9, float, _ALL, bound="in [0, 1)")
    epochs_or_steps: int = _key("local", 30, int, _EPOCHS, flag="--epochs", bound="at least 0")
    batch_size: int = _key("local", 64, int, _CLASSIFY, flag="--batch-size", bound="at least 0")
    optimizer: str = _key("server", "adam", str, _ALL, None, _SOLVED, choices=("gd", "adam"))
    eta_s: float | None = _key("server", 0.01, _parse_eta_s, _ALL, None, _SOLVED, flag="--eta-s",
                               bound="positive")
    t_max: int = _key("server", 2000, int, _ALL, None, _SOLVED, flag="--t-max", bound="at least 0")
    stop_tol: float = _key("server", 1e-10, float, _ALL, None, _SOLVED, bound="nonnegative")
    val_every: int = _key("server", 100, int, _CLASSIFY, None, _SOLVED, None,
                          ("val_fraction > 0",), bound="positive")
    methods: list[str] = _key("run", [agg.METHOD_FEDAVG, agg.METHOD_DIAG], _parse_list, _ALL,
                              flag="--methods", choices=agg.VALID_METHODS, rows=True)
    seeds: list[int] = _key("run", list(range(5)), _parse_int_list, _ALL, flag="--seed-list",
                            bound="at least 0", rows=True)
    widths: list[int] = _key("run", [32, 64, 128, 256, 512], _parse_int_list,
                             ("synthetic-width",), flag="--widths", bound="at least 1", rows=True)
    steps_list: list[int] = _key("run", [2**k for k in range(4, 13)], _parse_int_list,
                                 ("synthetic-steps",), flag="--steps-list", bound="at least 0",
                                 rows=True)
    rounds: int = _key("run", 3, int, ("few-shot",), flag="--rounds", bound="at least 1")
    out: str = _key("run", "", str, _ALL, flag="--out")
    timing: bool = _key("run", True, _parse_bool, _ALL, flag="--no-timing", switch="false")
    compress: bool = _key("run", True, _parse_bool, _CODEC, None,
                          _SOLVED + (agg.METHOD_FISHERMERGE,))
    s_q: int = _key("run", 4, int, _CODEC, None, (agg.METHOD_KFAC,), ("compress = true",),
                    bound=f"in [{comp.MIN_SQ}, {comp.MAX_SQ}]")
    s_q_list: list[int] = _key("run", [1, 2, 4, 8], _parse_int_list, ("compress-bench",),
                               flag="--s-q-list", bound=f"in [{comp.MIN_SQ}, {comp.MAX_SQ}]",
                               rows=True)


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
    # "%" is literal, and [DEFAULT] is no default section: its keys are unknown keys.
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None,
                                       default_section="")
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config file {path}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
    values = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            spec = _CONFIG_KEYS.get((section, key))
            if spec is None:
                raise ConfigError(f"unknown config key [{section}] {key}")
            values[spec.attr] = _parse_value(spec, raw, f"[{section}] {key}")
    return replace(cfg, **values)


def _within(x, bound: str) -> bool:
    """Whether ``x`` lies in ``bound``, a range as its error words it: ``positive``,
    ``nonnegative``, ``at least N``, or ``in`` an interval such as ``[0, 1)``."""
    span = {"positive": "(0, inf)", "nonnegative": "[0, inf)"}.get(
        bound, f"[{bound[9:]}, inf)" if bound.startswith("at least ") else bound[3:])
    lo, hi = (float(end) for end in span[1:-1].split(", "))
    return (lo < x if span[0] == "(" else lo <= x) and (x < hi if span[-1] == ")" else x <= hi)


def validate_config(cfg: ExperimentConfig) -> None:
    default = default_config(cfg.task)
    for (section, key), spec in _CONFIG_KEYS.items():
        value = getattr(cfg, spec.attr)
        entries, name = value if isinstance(value, list) else [value], f"[{section}] {key}"
        if any(isinstance(x, float) and not np.isfinite(x) for x in entries):
            raise ConfigError(f"{name} must be finite, got {value}")
        if spec.bound and not all(x is None or _within(x, spec.bound) for x in entries):
            raise ConfigError(f"{name} must be {spec.bound}, got {value}")
        unknown = [x for x in entries if spec.choices and x not in spec.choices]
        if unknown:  # an entry of [run] methods is a method
            noun = key.removesuffix("s") if entries is value else f"{section} {key}"
            raise ConfigError(f"unknown {noun} {unknown[0]!r}, expected one of {spec.choices}")
        if spec.rows and not value and cfg.task in spec.readers[0]:
            raise ConfigError(f"task {cfg.task} needs at least one value in {name}")
        if spec.rows and len(set(value)) < len(value):
            raise ConfigError(f"{name} must not repeat an entry, got {value}")
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
    # The files a data kind reads; the rule above leaves those of other kinds unset.
    if cfg.task in _CLASSIFY and cfg.data_kind == "synthetic":
        raise ConfigError("data kind 'synthetic' is not a classification source")
    if cfg.data_kind == "idx" and not (cfg.images_path and cfg.labels_path):
        raise ConfigError("idx data needs images_path and labels_path")
    if cfg.data_kind == "csv" and not cfg.csv_path:
        raise ConfigError("csv data needs csv_path")
    if bool(cfg.test_images_path) != bool(cfg.test_labels_path):
        raise ConfigError("[data] set both test_images_path and test_labels_path, or neither")
    if cfg.test_images_path and cfg.test_fraction != default.test_fraction:
        raise ConfigError("[data] test_fraction is not read when test_images_path and "
                          "test_labels_path are set; leave it at its default "
                          f"{default.test_fraction!r}")
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


def _kfac_ranks(model, codec: Codec) -> list[int]:
    """Kept rank per layer of the K-FAC factors under ``codec``. The budget
    plan depends on the architecture alone, so one plan serves every client.
    Raises :class:`ConfigError` when even rank 1 exceeds the budget."""
    dims = [(cols, rows) for _, rows, cols in models.layer_slices(model)]
    plan = comp.kfac_budget_plan(dims, models.param_count(model), codec.factor_s_q)
    if not plan.feasible:
        raise ConfigError(
            f"K-FAC factors of dims {dims} need {plan.total_bits} bits at rank 1 and "
            f"s_q = {plan.s_q}, over the {plan.budget_bits}-bit budget; raise s_q "
            f"or widen hidden_dims")
    return plan.l_v


@dataclass
class _Client:
    """One client of a round: its trained model and what its uplinks reuse.
    Each curvature variant is built on first use, and each Kronecker
    factor's singular triples serve every codec. The encoded weights and
    diagonal are kept for the latest codec only. The client's inputs are not
    kept: a build takes them from the round's data."""

    model: models.Model
    full: fisher.FullFisher | None = None
    diag: fisher.DiagFisher | None = None
    kfac: fisher.KFACFisher | None = None
    svds: list = field(default_factory=list)  # per layer, (A, B) comp.FactorSVD
    codec: Codec | None = None
    sent_weights: tuple | None = None  # (as sent, as decoded) under codec
    sent_diag: tuple | None = None  # the same, encoded on first use


class Round:
    """One client round: building it trains client i of ``data`` from
    ``starts[i]``, its mini-batches drawn from [``seed``, ``index``, i], and
    raises :class:`DivergenceError` if one diverges. Every method and codec
    merged from a round shares its clients, so each trains once, and builds
    each curvature variant and decomposes each Kronecker factor at most once.
    ``seconds`` is the training time ``clock`` measured, plus the ``seconds``
    of the rounds this one continues.
    """

    def __init__(self, data: datasets.FederatedDataset, starts: list,
                 train_cfg: models.TrainConfig, seed: int, index: int,
                 clock: _Clock = _Clock(False), seconds: float = 0.0):
        t0 = clock.now()
        self.data, self.clients = data, []
        for i, start in enumerate(starts):
            cx, cy = data.client_data(i)
            result = models.sgd_train(start, cx, cy, train_cfg, seed=[seed, index, i])
            if result.diverged:
                raise DivergenceError(f"client {i} diverged during local training")
            self.clients.append(_Client(result.model))
        self.seconds = seconds + (clock.now() - t0)

    def _curvature(self, i: int, method: str):
        """Client i's curvature for ``method``, built on first use; None for
        fedavg. Each builder is looked up on its module at call time, so a
        wrapper installed there sees every build."""
        client = self.clients[i]
        if method == agg.METHOD_FEDAVG:
            return None
        if method == agg.METHOD_FULL:
            if client.full is None:
                x, _ = self.data.client_data(i)
                client.full = fisher.full_fisher_two_layer(client.model, x)
            return client.full
        if method == agg.METHOD_KFAC:
            if client.kfac is None:
                x, _ = self.data.client_data(i)
                client.kfac = fisher.kfac_fisher(client.model, x)
            return client.kfac
        if client.diag is None:
            x, _ = self.data.client_data(i)
            client.diag = fisher.diag_fisher(client.model, x)
        return client.diag

    def merge(self, method: str, codec: Codec | None, server_cfg: agg.ServerConfig
              ) -> tuple[np.ndarray, int, agg.MergeResult | None]:
        """Merge each client's uplink for ``method``, its weights and the
        curvature the method needs: (weights, bits, the solver's result, None
        for a method without one). ``codec`` applies unless the method is
        fedavg, with K-FAC ranks planned once per merge. The bits are
        ``compress.bit_cost`` of what the server receives. A diverged solver
        raises :class:`DivergenceError`."""
        if method == agg.METHOD_FEDAVG:
            codec = None
        ranks = (_kfac_ranks(self.clients[0].model, codec)
                 if codec is not None and method == agg.METHOD_KFAC else None)
        updates, bits = [], 0
        for i, client in enumerate(self.clients):
            weights = models.get_flat_params(client.model)
            f = self._curvature(i, method)
            sent_weights, sent_curvature = weights, f
            if codec is not None:
                blocks = ([rows * cols for _, rows, cols in models.layer_slices(client.model)]
                          if isinstance(client.model, models.MLP) else [weights.size])
                if client.codec != codec:
                    sent = comp.quantize_blocks(weights, blocks, codec.s_q)
                    client.codec, client.sent_weights, client.sent_diag = (
                        codec, (sent, comp.dequantize_blocks(sent)), None)
                sent_weights, weights = client.sent_weights
                if isinstance(f, fisher.DiagFisher):
                    if client.sent_diag is None:
                        sent = comp.quantize_blocks(f.diag, blocks, codec.s_q)
                        client.sent_diag = sent, fisher.DiagFisher(comp.dequantize_blocks(sent))
                    sent_curvature, f = client.sent_diag
                elif isinstance(f, fisher.KFACFisher):
                    sent_curvature = comp.compress_kfac(f, codec.factor_s_q, ranks, client.svds)
                    f = comp.decompress_kfac(sent_curvature)
            bits += comp.bit_cost([sent_weights, sent_curvature])
            updates.append(agg.ClientUpdate(weights, f, len(self.data.partition[i])))
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
        keys = ("images_path", "labels_path")
        x_all, y_all = _read_data(datasets.load_idx, cfg, "images_path", "labels_path")
        if cfg.test_images_path:
            x_train, y_train = x_all, y_all
            x_test, y_test = _read_data(datasets.load_idx, cfg,
                                        "test_images_path", "test_labels_path")
        else:
            x_train, y_train, x_test, y_test = _holdout(x_all, y_all, cfg.test_fraction, seed)
    else:  # csv; validate_config rejects any other kind
        keys = ("csv_path",)
        x_all, y_all, _ = _read_data(datasets.load_csv, cfg, "csv_path")
        x_train, y_train, x_test, y_test = _holdout(x_all, y_all, cfg.test_fraction, seed)

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
    """The data, initial models, server config and test split of one seed.
    The server applies its K-FAC products in float32 (see
    :mod:`oneshot_fl.aggregate`)."""
    server = dict(optimizer=cfg.optimizer, eta_s=cfg.eta_s, t_max=cfg.t_max,
                  stop_tol=cfg.stop_tol, val_every=cfg.val_every, kron_precision="float32")
    if cfg.task in _SYNTHETIC:
        data = datasets.gen_synthetic(cfg.clients, cfg.per_client, cfg.dim, seed)
        return _Seed(data, lambda point: models.init_two_layer(
            point.width, cfg.dim, cfg.kappa, [seed, point.width, 7]),
            agg.ServerConfig(**server), None)
    splits = _classification_data(cfg, seed)
    dims = [splits.train.x.shape[1]] + list(cfg.hidden_dims) + [splits.train.num_classes]
    init = models.init_mlp(dims, [seed, 17])
    if agg.METHOD_KFAC in cfg.methods:
        # The rank plan depends on the architecture alone: plan it before any
        # client trains, so an infeasible budget fails first.
        for point in _points(cfg):
            if point.codec is not None:
                _kfac_ranks(init, point.codec)

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
        clients = run.data.num_clients
        rnd, last = None, {}  # the point's round; method -> (weights, bits) of its last merge
        for point in points:
            local = _local_config(cfg, run.data.x.shape[0], point.steps)
            if point.start == "init":
                rnd = Round(run.data, [run.init(point)] * clients, local, seed, point.index, clock)
            elif point.start == "continue":
                rnd = Round(run.data, [c.model for c in rnd.clients], local, seed, point.index,
                            clock, rnd.seconds)
            for method in cfg.methods:
                bits = 0
                if point.start == "merge":
                    # Drop the spent round, models and curvature, before training the next.
                    weights, bits = last[method]
                    rnd = None
                    start = models.with_flat_params(run.init(point), weights)
                    rnd = Round(run.data, [start] * clients, local, seed, point.index, clock)
                t0 = clock.now()
                weights, sent, result = rnd.merge(method, point.codec, run.server_cfg)
                seconds = rnd.seconds + (clock.now() - t0)
                if result is not None:
                    solved += 1
                    unconverged += not result.converged
                    warned += result.step_warning
                last[method] = weights, bits + sent
                model = models.with_flat_params(rnd.clients[0].model, weights)
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
