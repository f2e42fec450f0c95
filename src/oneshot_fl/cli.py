"""Experiment runners and the command-line front end.

Every subcommand is a loop over one client round: clients train locally
from a start model, each sends one uplink built by :func:`client_update`,
and the server merges the uplinks once per method.

- ``synthetic-width``: unit-sphere regression, two-layer nets, sweep the
  hidden width; one round per width, merged once per method.
- ``synthetic-steps``: same task at fixed width, sweep the local full-batch
  step count.
- ``one-shot``: heterogeneous image classification with an MLP, one round
  merged once per method.
- ``few-shot``: the same runner for a few broadcast rounds.
- ``compress-bench``: the one-shot round under payload quantization,
  sweeping the compression factor.

Each subcommand reads an optional INI config (key = value lines under
[section] headers, inline ``;`` comments allowed), applies command-line flag
overrides, writes one CSV row per (seed, method, sweep point), and exits 0 on
success, 2 on a config error, 3 on numerical divergence. ``_CONFIG_KEYS``
declares every key once: its attribute, parser, flag and the tasks (and, for
``[data]`` keys, the data kinds) that read it. It drives the flags, and a key
set away from the task's default where it is not read is a config error.
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
import sys
import time
from dataclasses import dataclass, field, replace
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


@dataclass
class ExperimentConfig:
    task: str = "one-shot"
    # [data]
    data_kind: str = "image-classes"  # synthetic | image-classes | idx | csv
    clients: int = 5
    per_client: int = 100
    dim: int = 2
    alpha: float = 0.1
    n_train: int = 5000
    n_test: int = 1000
    classes: int = 10
    side: int = 28
    pixel_noise: float = 0.3
    field_noise: float = 0.15
    images_path: str = ""
    labels_path: str = ""
    test_images_path: str = ""
    test_labels_path: str = ""
    csv_path: str = ""
    test_fraction: float = 0.2
    val_fraction: float = 0.1
    # [model]
    width: int = 512
    kappa: float = 0.5
    hidden_dims: list[int] = field(default_factory=lambda: [64])
    # [local]
    loss: str = models.LOSS_SOFTMAX
    eta: float = 0.01
    momentum: float = 0.9
    epochs_or_steps: int = 30
    batch_size: int = 64  # 0 means full batch
    # [server]
    optimizer: str = "adam"
    eta_s: float | None = 0.01  # None: auto step for gd
    t_max: int = 2000
    stop_tol: float = 1e-10
    val_every: int = 100
    # [run]
    methods: list[str] = field(default_factory=lambda: [agg.METHOD_FEDAVG, agg.METHOD_DIAG])
    seeds: list[int] = field(default_factory=lambda: list(range(5)))
    widths: list[int] = field(default_factory=lambda: [32, 64, 128, 256, 512])
    steps_list: list[int] = field(default_factory=lambda: [2**k for k in range(4, 13)])
    rounds: int = 3
    out: str = ""
    timing: bool = True
    fisher_mode: str = "expected"
    draws: int = 1
    compress: bool = True
    s_q: int = 4  # Kronecker-factor quantization in the compressed pipeline
    s_q_list: list[int] = field(default_factory=lambda: [1, 2, 4, 8])


def default_config(task: str) -> ExperimentConfig:
    if task == "synthetic-width":
        return ExperimentConfig(
            task=task, data_kind="synthetic", clients=2, per_client=100, dim=2,
            kappa=0.5, loss=models.LOSS_SQUARED,
            eta=0.1, momentum=0.0, epochs_or_steps=2048, batch_size=0,
            optimizer="gd", eta_s=0.001, t_max=20000, val_every=0,
            methods=[agg.METHOD_FEDAVG, agg.METHOD_FULL],
            seeds=list(range(10)), compress=False, fisher_mode="expected",
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
_SWEEPS = {"synthetic-width": "widths", "synthetic-steps": "steps_list", "compress-bench": "s_q_list"}
_IMAGES, _IDX, _CSV = ("image-classes",), ("idx",), ("csv",)  # data kinds of the classification tasks


class _Key(NamedTuple):
    """One config key: the attribute it sets, the parser of its text, the
    tasks that read it, and its command-line flag (None: INI only). A flag
    with a ``switch`` takes no value and stands for the text ``switch``.
    ``kinds`` narrows the readers to those tasks on these data kinds (None:
    on every kind)."""

    attr: str
    parse: Callable[[str], object]
    tasks: tuple[str, ...]
    flag: str | None = None
    switch: str | None = None
    kinds: tuple[str, ...] | None = None


# (section, key) -> _Key: the one declaration of every config key.
_CONFIG_KEYS = {
    ("data", "kind"): _Key("data_kind", str, _CLASSIFY, "--data-kind"),
    ("data", "clients"): _Key("clients", int, _ALL, "--clients"),
    ("data", "per_client"): _Key("per_client", int, _SYNTHETIC),
    ("data", "dim"): _Key("dim", int, _SYNTHETIC),
    ("data", "alpha"): _Key("alpha", float, _CLASSIFY, "--alpha"),
    ("data", "n_train"): _Key("n_train", int, _CLASSIFY, "--n-train", kinds=_IMAGES),
    ("data", "n_test"): _Key("n_test", int, _CLASSIFY, "--n-test", kinds=_IMAGES),
    ("data", "classes"): _Key("classes", int, _CLASSIFY, kinds=_IMAGES),
    ("data", "side"): _Key("side", int, _CLASSIFY, kinds=_IMAGES),
    ("data", "pixel_noise"): _Key("pixel_noise", float, _CLASSIFY, kinds=_IMAGES),
    ("data", "field_noise"): _Key("field_noise", float, _CLASSIFY, kinds=_IMAGES),
    ("data", "images_path"): _Key("images_path", str, _CLASSIFY, kinds=_IDX),
    ("data", "labels_path"): _Key("labels_path", str, _CLASSIFY, kinds=_IDX),
    ("data", "test_images_path"): _Key("test_images_path", str, _CLASSIFY, kinds=_IDX),
    ("data", "test_labels_path"): _Key("test_labels_path", str, _CLASSIFY, kinds=_IDX),
    ("data", "csv_path"): _Key("csv_path", str, _CLASSIFY, kinds=_CSV),
    ("data", "test_fraction"): _Key("test_fraction", float, _CLASSIFY, kinds=_IDX + _CSV),
    ("data", "val_fraction"): _Key("val_fraction", float, _CLASSIFY),
    ("model", "width"): _Key("width", int, ("synthetic-steps",)),
    ("model", "kappa"): _Key("kappa", float, _SYNTHETIC),
    ("model", "hidden_dims"): _Key("hidden_dims", _parse_int_list, _CLASSIFY),
    ("local", "loss"): _Key("loss", str, _ALL),
    ("local", "eta"): _Key("eta", float, _ALL, "--eta"),
    ("local", "momentum"): _Key("momentum", float, _ALL),
    ("local", "epochs_or_steps"): _Key("epochs_or_steps", int, _EPOCHS, "--epochs"),
    ("local", "batch_size"): _Key("batch_size", int, _CLASSIFY, "--batch-size"),
    ("server", "optimizer"): _Key("optimizer", str, _ALL),
    ("server", "eta_s"): _Key("eta_s", _parse_eta_s, _ALL, "--eta-s"),
    ("server", "t_max"): _Key("t_max", int, _ALL, "--t-max"),
    ("server", "stop_tol"): _Key("stop_tol", float, _ALL),
    ("server", "val_every"): _Key("val_every", int, _CLASSIFY),
    ("run", "methods"): _Key("methods", _parse_list, _ALL, "--methods"),
    ("run", "seeds"): _Key("seeds", _parse_int_list, _ALL, "--seed-list"),
    ("run", "widths"): _Key("widths", _parse_int_list, ("synthetic-width",), "--widths"),
    ("run", "steps_list"): _Key("steps_list", _parse_int_list, ("synthetic-steps",), "--steps-list"),
    ("run", "rounds"): _Key("rounds", int, ("few-shot",), "--rounds"),
    ("run", "out"): _Key("out", str, _ALL, "--out"),
    ("run", "timing"): _Key("timing", _parse_bool, _ALL, "--no-timing", switch="false"),
    ("run", "fisher_mode"): _Key("fisher_mode", str, _ALL, "--fisher-mode"),
    ("run", "draws"): _Key("draws", int, _ALL),
    ("run", "compress"): _Key("compress", _parse_bool, _CODEC),
    ("run", "s_q"): _Key("s_q", int, _CODEC),
    ("run", "s_q_list"): _Key("s_q_list", _parse_int_list, ("compress-bench",), "--s-q-list"),
}


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
    if cfg.loss not in models.VALID_LOSSES:
        raise ConfigError(f"unknown loss {cfg.loss!r}")
    if cfg.fisher_mode not in ("expected", "sampled"):
        raise ConfigError(f"unknown fisher_mode {cfg.fisher_mode!r}")
    for name in ("seeds", "methods"):
        if not getattr(cfg, name):
            raise ConfigError(f"need at least one of {name}")
    if cfg.optimizer not in ("gd", "adam"):
        raise ConfigError(f"unknown server optimizer {cfg.optimizer!r}")
    if cfg.data_kind not in ("synthetic", "image-classes", "idx", "csv"):
        raise ConfigError(f"unknown data kind {cfg.data_kind!r}")
    for s_q in [cfg.s_q] + cfg.s_q_list:
        if not comp.MIN_SQ <= s_q <= comp.MAX_SQ:
            raise ConfigError(f"s_q must be in [{comp.MIN_SQ}, {comp.MAX_SQ}], got {s_q}")
    for name, low in (("clients", 1), ("per_client", 1), ("dim", 1), ("n_train", 1), ("n_test", 1),
                      ("side", 1), ("classes", 2), ("draws", 1), ("rounds", 1), ("widths", 1),
                      ("hidden_dims", 1)):
        if min(np.atleast_1d(getattr(cfg, name)), default=low) < low:  # every list entry too
            raise ConfigError(f"{name} must be at least {low}, got {getattr(cfg, name)}")
    for name in ("eta", "alpha"):
        if not getattr(cfg, name) > 0:
            raise ConfigError(f"{name} must be positive, got {getattr(cfg, name)}")
    if cfg.eta_s is not None and not cfg.eta_s > 0:
        raise ConfigError(f"eta_s must be positive or 'auto', got {cfg.eta_s}")
    for name in ("epochs_or_steps", "t_max", "stop_tol"):
        if not getattr(cfg, name) >= 0:
            raise ConfigError(f"{name} must be nonnegative, got {getattr(cfg, name)}")
    for name in ("momentum", "test_fraction", "val_fraction"):
        if not 0 <= getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be in [0, 1), got {getattr(cfg, name)}")
    for (section, key), spec in _CONFIG_KEYS.items():
        by_task = cfg.task in spec.tasks
        if (by_task and (spec.kinds is None or cfg.data_kind in spec.kinds)
                or getattr(cfg, spec.attr) == getattr(default, spec.attr)):
            continue
        reader = f"task {cfg.task}" + (f" on data kind {cfg.data_kind}" if by_task else "")
        flag = f" ({spec.flag})" if spec.flag else ""
        raise ConfigError(f"{reader} does not read [{section}] {key}{flag}; "
                          f"leave it at its default {getattr(default, spec.attr)!r}")
    sweep = _SWEEPS.get(cfg.task)
    if sweep and not getattr(cfg, sweep):
        raise ConfigError(f"task {cfg.task} needs at least one value in {sweep}")
    if cfg.task in _CLASSIFY and cfg.val_every < 1:
        raise ConfigError(f"val_every must be positive, got {cfg.val_every}")
    # The task fixes the architecture: two-layer nets for the synthetic sweeps,
    # MLPs for classification. Dense curvature needs the former, K-FAC the latter.
    synthetic = cfg.task in _SYNTHETIC
    if synthetic and cfg.loss != models.LOSS_SQUARED:
        raise ConfigError(f"task {cfg.task} regresses with loss {models.LOSS_SQUARED}, "
                          f"got {cfg.loss}")
    misfit = agg.METHOD_KFAC if synthetic else agg.METHOD_FULL
    if misfit in cfg.methods:
        net = "two-layer net" if synthetic else "MLP"
        raise ConfigError(f"method {misfit} does not apply to the {net} of task {cfg.task}")
    if synthetic and agg.METHOD_FULL in cfg.methods:
        widest = max(cfg.widths) if cfg.task == "synthetic-width" else cfg.width
        if widest * cfg.dim > 2000:  # dense curvature is (width*dim)^2 entries
            raise ConfigError(
                f"dense curvature needs width*dim <= 2000, got {widest * cfg.dim}")


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


def _server_config(cfg: ExperimentConfig, val_fn=None) -> agg.ServerConfig:
    return agg.ServerConfig(
        optimizer=cfg.optimizer, eta_s=cfg.eta_s, t_max=cfg.t_max,
        stop_tol=cfg.stop_tol, val_every=max(cfg.val_every, 1), val_fn=val_fn,
    )


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


def _codec(cfg: ExperimentConfig) -> Codec | None:
    return Codec(_WEIGHT_SQ, cfg.s_q) if cfg.compress else None


# Curvature variant each method sends; fedavg sends its weights alone.
_VARIANTS = {
    agg.METHOD_FULL: "full",
    agg.METHOD_DIAG: "diag",
    agg.METHOD_FISHERMERGE: "diag",
    agg.METHOD_KFAC: "kfac",
}


def _build_curvature(variant: str, model, x, cfg: ExperimentConfig, seed_tag):
    kw = dict(mode=cfg.fisher_mode, draws=cfg.draws, seed=seed_tag)
    if variant == "full":
        return fisher.full_fisher_two_layer(model, x, **kw)
    if variant == "diag":
        return fisher.diag_fisher(model, x, cfg.loss, **kw)
    return fisher.kfac_fisher(model, x, cfg.loss, **kw)


def _raw_payload(f) -> list[np.ndarray]:
    if f is None:
        return []
    if isinstance(f, fisher.FullFisher):
        return [f.matrix]
    if isinstance(f, fisher.DiagFisher):
        return [f.diag]
    return [m for layer in f.layers for m in (layer.a, layer.b)]


def _kfac_ranks(model, codec: Codec) -> list[int]:
    """Kept rank per layer of the K-FAC factors under ``codec``. The budget
    plan depends on the architecture alone, so one serves every client.
    Raises :class:`ConfigError` when even rank 1 exceeds the budget."""
    dims = [(cols, rows) for _, rows, cols in models.layer_slices(model)]
    plan = comp.kfac_budget_plan(dims, models.param_count(model), codec.factor_s_q)
    if not plan.feasible:
        raise ConfigError(
            f"K-FAC factors of dims {dims} need {plan.total_bits} bits at rank 1 and "
            f"s_q = {plan.s_q}, over the {plan.budget_bits}-bit budget; raise s_q "
            f"or widen hidden_dims")
    return plan.l_v


def client_update(model, x: np.ndarray, method: str, cfg: ExperimentConfig,
                  codec: Codec | None = None, seed_tag=0,
                  built: dict | None = None,
                  kfac_ranks: list[int] | None = None) -> tuple[agg.ClientUpdate, int]:
    """One client's uplink for ``method``: the update the server merges, and
    its bits.

    Builds the curvature variant the method needs from the client's inputs
    ``x``, unless ``built`` (variant -> payload, for this trained model)
    already holds it. Applies ``codec`` unless the method is fedavg, encoding
    the weights and the diagonal once per codec (``built`` keeps the latest
    codec's) and K-FAC factors at ``kfac_ranks`` (default: planned from
    ``model`` by :func:`_kfac_ranks`). Each K-FAC factor is decomposed once,
    and ``built`` keeps its singular triples for every later codec. The bits
    are ``compress.bit_cost`` of what the server receives.
    """
    built = {} if built is None else built
    weights = models.get_flat_params(model)
    f = None
    variant = _VARIANTS.get(method)
    if variant is not None:
        if variant not in built:
            built[variant] = _build_curvature(variant, model, x, cfg, seed_tag)
        f = built[variant]
    sent_weights, sent_curvature = weights, _raw_payload(f)
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
            ranks = kfac_ranks or _kfac_ranks(model, codec)
            sent_curvature = comp.compress_kfac(f, codec.factor_s_q, ranks,
                                                built.setdefault("kfac_svds", []))
            f = comp.decompress_kfac(sent_curvature)
    bits = comp.bit_cost([sent_weights, sent_curvature])
    return agg.ClientUpdate(weights, f, x.shape[0]), bits


@dataclass
class Round:
    """Client models after one round of local training.

    Every method and codec merged from a round shares it, so each client
    trains once per round, builds each curvature variant at most once, and
    decomposes each Kronecker factor at most once.
    """

    cfg: ExperimentConfig
    data: datasets.FederatedDataset
    trained: list  # client i's model
    seed: int
    index: int  # 0-based; seeds client draws as [seed, index, client, ...]
    built: list[dict] = field(init=False)

    def __post_init__(self):
        self.built = [{} for _ in self.trained]


def train_round(cfg: ExperimentConfig, data: datasets.FederatedDataset, starts: list,
                train_cfg: models.TrainConfig, seed: int, index: int) -> Round:
    """Train client i of ``data`` from ``starts[i]``; divergence raises
    :class:`DivergenceError`."""
    trained = []
    for i, start in enumerate(starts):
        cx, cy = data.client_data(i)
        result = models.sgd_train(start, cx, cy, train_cfg, loss=cfg.loss,
                                  seed=[seed, index, i])
        if result.diverged:
            raise DivergenceError(f"client {i} diverged during local training")
        trained.append(result.model)
    return Round(cfg, data, trained, seed, index)


def merge_round(rnd: Round, method: str, codec: Codec | None,
                server_cfg: agg.ServerConfig) -> tuple[np.ndarray, int]:
    """Merge one :func:`client_update` per client of ``rnd``: (weights, bits)."""
    ranks = None
    if codec is not None and _VARIANTS.get(method) == "kfac":
        ranks = _kfac_ranks(rnd.trained[0], codec)
    updates, bits = [], 0
    for i, model in enumerate(rnd.trained):
        cx, _ = rnd.data.client_data(i)
        update, client_bits = client_update(model, cx, method, rnd.cfg, codec,
                                            [rnd.seed, rnd.index, i, 99], rnd.built[i],
                                            ranks)
        updates.append(update)
        bits += client_bits
    merged, result = agg.merge_updates(method, updates, server_cfg)
    if result is not None and result.diverged:
        raise DivergenceError(f"server merge diverged for method {method}")
    return merged, bits


@dataclass
class _Pipeline:
    """What every merge of one seed's pipeline shares."""

    clock: _Clock
    init: models.Model
    server_cfg: agg.ServerConfig
    test: tuple | None = None  # (x, y) scored by accuracy; None for regression

    def row(self, rnd: Round, method: str, codec: Codec | None, sweep: float,
            train_seconds: float, earlier_bits: int = 0) -> tuple[ResultRow, np.ndarray]:
        """Merge ``rnd`` with ``method`` into a row timed as ``train_seconds``
        plus the measured merge, and return the merged weights too."""
        t0 = self.clock.now()
        merged, bits = merge_round(rnd, method, codec, self.server_cfg)
        seconds = train_seconds + (self.clock.now() - t0)
        model = models.with_flat_params(self.init, merged)
        loss = models.loss_eval(model, rnd.data.x, rnd.data.y, rnd.cfg.loss)
        acc = models.accuracy_eval(model, *self.test) if self.test else float("nan")
        return ResultRow(rnd.seed, method, sweep, loss, acc, seconds, earlier_bits + bits), merged


# ---------------------------------------------------------------------------
# Synthetic regression sweeps
# ---------------------------------------------------------------------------


def run_width_sweep(cfg: ExperimentConfig) -> list[ResultRow]:
    clock = _Clock(cfg.timing)
    rows = []
    for seed in cfg.seeds:
        data = datasets.gen_synthetic(cfg.clients, cfg.per_client, cfg.dim, seed)
        for width in cfg.widths:
            init = models.init_two_layer(width, cfg.dim, cfg.kappa, [seed, width, 7])
            run = _Pipeline(clock, init, _server_config(cfg))
            t0 = clock.now()
            rnd = train_round(cfg, data, [init] * data.num_clients,
                              _local_config(cfg, data.x.shape[0], cfg.epochs_or_steps), seed, 0)
            train_seconds = clock.now() - t0
            rows.extend(run.row(rnd, method, _codec(cfg), float(width), train_seconds)[0]
                        for method in cfg.methods)
    return rows


def run_local_steps_sweep(cfg: ExperimentConfig) -> list[ResultRow]:
    """Sweep the local full-batch step count at fixed width.

    With zero momentum, full-batch descent is a deterministic trajectory, so
    each client trains once to max(steps) and is snapshotted at every sweep
    point; identical to independent runs, at a fraction of the cost. A row's
    time is the measured training up to its snapshot plus its merge.
    """
    clock = _Clock(cfg.timing)
    incremental = cfg.momentum == 0.0
    rows = []
    for seed in cfg.seeds:
        data = datasets.gen_synthetic(cfg.clients, cfg.per_client, cfg.dim, seed)
        init = models.init_two_layer(cfg.width, cfg.dim, cfg.kappa, [seed, cfg.width, 7])
        run = _Pipeline(clock, init, _server_config(cfg))
        rnd, done, train_seconds = None, 0, 0.0
        for k in sorted(set(cfg.steps_list)):
            t0 = clock.now()
            if incremental and rnd is not None:  # continue from the last snapshot
                starts = rnd.trained
            else:
                starts, done, train_seconds = [init] * data.num_clients, 0, 0.0
            local = _local_config(cfg, data.x.shape[0], k - done)
            rnd = train_round(cfg, data, starts, local, seed, 0)
            train_seconds += clock.now() - t0
            done = k
            rows.extend(run.row(rnd, method, _codec(cfg), float(k), train_seconds)[0]
                        for method in cfg.methods)
    return rows


# ---------------------------------------------------------------------------
# Classification pipelines
# ---------------------------------------------------------------------------


@dataclass
class _Splits:
    train: datasets.FederatedDataset
    val_x: np.ndarray
    val_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


def _classification_data(cfg: ExperimentConfig, seed: int) -> _Splits:
    if cfg.data_kind == "image-classes":
        x_train, y_train, x_test, y_test = datasets.gen_image_classes(
            cfg.n_train, cfg.n_test, cfg.classes, cfg.side, seed,
            cfg.pixel_noise, cfg.field_noise)
    elif cfg.data_kind == "idx":
        if not cfg.images_path or not cfg.labels_path:
            raise ConfigError("idx data needs images_path and labels_path")
        x_all, y_all = datasets.load_idx(cfg.images_path, cfg.labels_path)
        if cfg.test_images_path:
            x_train, y_train = x_all, y_all
            x_test, y_test = datasets.load_idx(cfg.test_images_path, cfg.test_labels_path)
        else:
            x_train, y_train, x_test, y_test = _holdout(x_all, y_all, cfg.test_fraction, seed)
    elif cfg.data_kind == "csv":
        if not cfg.csv_path:
            raise ConfigError("csv data needs csv_path")
        x_all, y_all, names = datasets.load_csv(cfg.csv_path)
        if names is None:
            raise ConfigError("csv label column must be categorical for classification")
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
    partition = datasets.dirichlet_partition(y_tr, cfg.clients, cfg.alpha, seed)
    train = datasets.FederatedDataset(x_tr, y_tr, partition, num_classes=classes)
    return _Splits(train, x_train[val_idx], y_train[val_idx], x_test, y_test)


def _holdout(x, y, fraction, seed):
    rng = np.random.default_rng([seed, 37])
    n = x.shape[0]
    n_test = max(1, int(round(fraction * n)))
    perm = rng.permutation(n)
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    return x[train_idx], y[train_idx], x[test_idx], y[test_idx]


def _classification_start(cfg: ExperimentConfig, seed: int, clock: _Clock):
    """The pipeline around the initial MLP and the first round trained from
    it: (pipeline, round, training seconds)."""
    splits = _classification_data(cfg, seed)
    dims = [splits.train.x.shape[1]] + list(cfg.hidden_dims) + [splits.train.num_classes]
    init = models.init_mlp(dims, [seed, 17], head=cfg.loss)

    def val_fn(weights: np.ndarray) -> float:
        return models.accuracy_eval(models.with_flat_params(init, weights),
                                    splits.val_x, splits.val_y)

    # With no validation examples the solver keeps its final iterate.
    val = val_fn if len(splits.val_y) else None
    run = _Pipeline(clock, init, _server_config(cfg, val), (splits.test_x, splits.test_y))
    t0 = clock.now()
    first = train_round(cfg, splits.train, [init] * splits.train.num_clients,
                        _local_config(cfg, splits.train.x.shape[0], cfg.epochs_or_steps),
                        seed, 0)
    return run, first, clock.now() - t0


def _run_rounds(cfg: ExperimentConfig, rounds: int, sweep_of_round) -> list[ResultRow]:
    """The classification runner: ``rounds`` broadcast rounds per method.

    The first round trains once from the initial model and is merged with
    every method; each later round trains the clients from that method's
    merged model. A row's time is its round's measured training plus merge;
    its bits sum the uplink over the rounds so far.
    """
    clock = _Clock(cfg.timing)
    rows = []
    for seed in cfg.seeds:
        run, first, first_seconds = _classification_start(cfg, seed, clock)
        data = first.data
        train_cfg = _local_config(cfg, data.x.shape[0], cfg.epochs_or_steps)
        for method in cfg.methods:
            rnd, train_seconds, bits = first, first_seconds, 0
            for r in range(rounds):
                if r > 0:
                    t0 = clock.now()
                    start = models.with_flat_params(run.init, merged)
                    rnd = train_round(cfg, data, [start] * data.num_clients, train_cfg, seed, r)
                    train_seconds = clock.now() - t0
                row, merged = run.row(rnd, method, _codec(cfg), sweep_of_round(r),
                                      train_seconds, bits)
                bits = row.comm_bits
                rows.append(row)
    return rows


def run_one_shot(cfg: ExperimentConfig) -> list[ResultRow]:
    return _run_rounds(cfg, 1, lambda r: 0.0)


def run_few_shot(cfg: ExperimentConfig) -> list[ResultRow]:
    """Multi-round variant; the sweep column is the 1-based round index and
    communication bits accumulate over rounds."""
    return _run_rounds(cfg, cfg.rounds, lambda r: float(r + 1))


def run_compress_bench(cfg: ExperimentConfig) -> list[ResultRow]:
    """Sweep the quantization factor; s_q = 1 is the uncompressed baseline.

    One round of local training per seed serves every sweep point (the
    codec only touches the uplink, never the training trajectory), and each
    client builds each curvature variant once and encodes it once per point.
    Each Kronecker factor is decomposed by SVD once per round; a point only
    truncates and quantizes the kept triples.
    """
    clock = _Clock(cfg.timing)
    rows = []
    for seed in cfg.seeds:
        run, rnd, train_seconds = _classification_start(cfg, seed, clock)
        for s_q in cfg.s_q_list:
            codec = Codec(s_q, s_q) if s_q > 1 else None
            rows.extend(run.row(rnd, method, codec, float(s_q), train_seconds)[0]
                        for method in cfg.methods)
    return rows


# ---------------------------------------------------------------------------
# Command-line front end
# ---------------------------------------------------------------------------

_RUNNERS = {
    "synthetic-width": run_width_sweep,
    "synthetic-steps": run_local_steps_sweep,
    "one-shot": run_one_shot,
    "few-shot": run_few_shot,
    "compress-bench": run_compress_bench,
}


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
    validate_config(cfg)
    return cfg


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oneshot-fl",
        description="One-shot federated learning simulator",
    )
    subparsers = parser.add_subparsers(dest="task", required=True)
    for task in _RUNNERS:
        _add_common_flags(subparsers.add_parser(task))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = build_config(args.task, args)
        rows = _RUNNERS[args.task](cfg)
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
