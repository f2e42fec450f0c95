"""Server-side merging of client updates into one global model.

The curvature-weighted merge treats each client's payload as a quadratic
penalty around its local weights and minimizes the sum with first-order
iterations whose gradient is sum_i c_i * F_i @ (W - W_i). Client coefficients
c_i = M * n_i / N reduce to 1 for equal sample counts, so the equal case is
the plain unweighted sum of curvature matvecs.

One loop (``fedfisher_solve``) runs from the weighted mean with one of two
step rules: gradient descent or Adam. Both keep the best-validation iterate
when given a validation score. Only gradient descent estimates lambda_max,
by power iteration on the summed operator: its auto step 1 / (1.01 *
lambda_max) makes the quadratic objective non-increasing, and the iterates
converge to the minimum-norm projection of the mean onto the stationary set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .fisher import DiagFisher, FisherApprox, FullFisher, KFACFisher, fisher_matvec
from .numerics import power_iteration_max_eig

METHOD_FEDAVG = "fedavg"
METHOD_FULL = "fedfisher-full"
METHOD_DIAG = "fedfisher-diag"
METHOD_KFAC = "fedfisher-kfac"
METHOD_FISHERMERGE = "fishermerge"
VALID_METHODS = (METHOD_FEDAVG, METHOD_FULL, METHOD_DIAG, METHOD_KFAC, METHOD_FISHERMERGE)

DEFAULT_FISHER_FLOOR = 1e-6

# Adam server's moment decay rates and denominator offset.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.99
ADAM_EPS = 0.01


@dataclass
class ClientUpdate:
    weights: np.ndarray  # flat local parameters
    fisher: FisherApprox | None = None
    n_examples: int = 1


@dataclass
class ServerConfig:
    optimizer: str = "gd"  # "gd" | "adam"
    eta_s: float | None = None  # None: auto 1/(1.01*lambda_max) for gd, 0.01 for adam
    t_max: int = 100_000
    stop_tol: float = 1e-10
    val_every: int = 100
    val_fn: Callable[[np.ndarray], float] | None = None  # weights -> score, higher wins


@dataclass
class MergeResult:
    weights: np.ndarray
    iterations: int
    converged: bool
    diverged: bool = False
    step_warning: bool = False
    residual: float = float("nan")
    lambda_max: float = float("nan")  # stays NaN under Adam: no power iteration
    objective_trace: list[float] | None = None


def _coefficients(updates: list[ClientUpdate]) -> np.ndarray:
    counts = np.array([u.n_examples for u in updates], dtype=np.float64)
    if np.any(counts <= 0):
        raise ValueError("client n_examples must be positive")
    return counts * len(updates) / counts.sum()


def _check_updates(updates: list[ClientUpdate], need_fisher: bool) -> int:
    if not updates:
        raise ValueError("need at least one client update")
    d = np.asarray(updates[0].weights).shape[0]
    for i, u in enumerate(updates):
        w = np.asarray(u.weights)
        if w.shape != (d,):
            raise ValueError(f"client {i} weights shape {w.shape} != ({d},)")
        if need_fisher:
            if u.fisher is None:
                raise ValueError(f"client {i} is missing a curvature payload")
            if u.fisher.dim != d:
                raise ValueError(f"client {i} curvature dim {u.fisher.dim} != {d}")
    return d


def fedavg(updates: list[ClientUpdate]) -> np.ndarray:
    """Sample-size weighted mean of client weights."""
    d = _check_updates(updates, need_fisher=False)
    coeffs = _coefficients(updates)
    out = np.zeros(d)
    for c, u in zip(coeffs, updates):
        out += c * np.asarray(u.weights, dtype=np.float64)
    return out / len(updates)


class _SummedCurvature:
    """Applies sum_i c_i F_i, pre-summing dense and diagonal parts.

    Kronecker-factored payloads cannot be pre-summed (sums of Kronecker
    products are not Kronecker products), so they are applied per client.
    """

    def __init__(self, pairs: list[tuple[float, FisherApprox]], dim: int):
        self.dim = dim
        self.dense: np.ndarray | None = None
        self.diag: np.ndarray | None = None
        self.kfacs: list[tuple[float, KFACFisher]] = []
        for coef, f in pairs:
            if isinstance(f, FullFisher):
                if self.dense is None:
                    self.dense = np.zeros((dim, dim))
                self.dense += coef * f.matrix
            elif isinstance(f, DiagFisher):
                if self.diag is None:
                    self.diag = np.zeros(dim)
                self.diag += coef * f.diag
            elif isinstance(f, KFACFisher):
                self.kfacs.append((coef, f))
            else:
                raise ValueError(f"unknown curvature variant {type(f).__name__}")

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        if self.dense is not None:
            out += self.dense @ v
        if self.diag is not None:
            out += self.diag * v
        for coef, f in self.kfacs:
            out += coef * fisher_matvec(f, v)
        return out


def _merge_problem(updates: list[ClientUpdate]):
    d = _check_updates(updates, need_fisher=True)
    coeffs = _coefficients(updates)
    op = _SummedCurvature(list(zip(coeffs, [u.fisher for u in updates])), d)
    b = np.zeros(d)
    const = 0.0
    for c, u in zip(coeffs, updates):
        w = np.asarray(u.weights, dtype=np.float64)
        fw = fisher_matvec(u.fisher, w)
        b += c * fw
        const += c * float(w @ fw)
    return d, op, b, const


def fedfisher_solve(
    updates: list[ClientUpdate],
    cfg: ServerConfig | None = None,
    record_objective: bool = False,
) -> MergeResult:
    """Curvature-weighted merge by first-order steps from the weighted mean.

    One loop serves both step rules of ``cfg.optimizer``: ``"gd"`` steps by
    eta * g, ``"adam"`` by the bias-corrected Adam update. Stops when the
    step norm falls below stop_tol * (1 + |W|) or after t_max steps. GD with
    cfg.eta_s=None steps by 1 / (1.01 * lambda_max); a manual GD step larger
    than 1 / lambda_max sets ``step_warning``. Adam runs no power iteration,
    so its ``lambda_max`` stays NaN. With ``cfg.val_fn`` (flat weights to a
    score, higher is better) the iterate is scored at the start, every
    ``cfg.val_every`` steps and at the end, and the best one is returned.
    ``objective_trace`` holds the objective before every step and at the
    returned weights.
    """
    cfg = cfg or ServerConfig()
    d, op, b, const = _merge_problem(updates)
    w = fedavg(updates)
    trace: list[float] | None = [] if record_objective else None

    lam = float("nan")
    warning = False
    if cfg.optimizer == "gd":
        lam = power_iteration_max_eig(op.matvec, d, tol=1e-6, max_iters=2000).value
        if cfg.eta_s is None and lam <= 0.0:
            # No curvature anywhere: every point is stationary, keep the mean.
            return MergeResult(w, 0, True, residual=float(np.linalg.norm(op.matvec(w) - b)),
                               lambda_max=lam, objective_trace=trace)
        eta = 1.0 / (1.01 * lam) if cfg.eta_s is None else cfg.eta_s
        warning = lam > 0 and eta * lam > 1.0 + 1e-9
    elif cfg.optimizer == "adam":
        eta = 0.01 if cfg.eta_s is None else cfg.eta_s
        m = np.zeros(d)
        v = np.zeros(d)
    else:
        raise ValueError(f"unknown server optimizer {cfg.optimizer!r}")
    if eta <= 0:
        raise ValueError(f"eta_s must be positive, got {eta}")

    best_w = w
    best_score = cfg.val_fn(w) if cfg.val_fn is not None else None
    iterations = 0
    converged = diverged = False
    for t in range(1, cfg.t_max + 1):
        g = op.matvec(w) - b
        if trace is not None:
            trace.append(float(w @ g) - float(w @ b) + const)
        if cfg.optimizer == "adam":
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
            m_hat = m / (1.0 - ADAM_BETA1**t)
            v_hat = v / (1.0 - ADAM_BETA2**t)
            step = eta * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        else:
            step = eta * g
        w_next = w - step
        if not np.all(np.isfinite(w_next)):
            diverged = True
            break
        w = w_next
        iterations = t
        if best_score is not None and t % cfg.val_every == 0:
            score = cfg.val_fn(w)
            if score > best_score:
                best_score, best_w = score, w
        if np.linalg.norm(step) <= cfg.stop_tol * (1.0 + np.linalg.norm(w)):
            converged = True
            break
    if best_score is not None and not diverged and iterations % cfg.val_every:
        # The last iterate was not scored inside the loop.
        if cfg.val_fn(w) > best_score:
            best_w = w
    final = w if best_score is None else best_w
    g = op.matvec(final) - b
    if trace is not None and not diverged:
        trace.append(float(final @ g) - float(final @ b) + const)
    return MergeResult(final, iterations, converged, diverged=diverged, step_warning=warning,
                       residual=float(np.linalg.norm(g)), lambda_max=lam,
                       objective_trace=trace)


def fedfisher_gd(
    updates: list[ClientUpdate],
    cfg: ServerConfig | None = None,
    record_objective: bool = False,
) -> MergeResult:
    """:func:`fedfisher_solve` with the gradient-descent step rule."""
    return fedfisher_solve(updates, replace(cfg or ServerConfig(), optimizer="gd"), record_objective)


def fisher_merge_diag(updates: list[ClientUpdate], floor: float = DEFAULT_FISHER_FLOOR) -> np.ndarray:
    """Coordinatewise curvature-weighted average of client weights.

    Each coordinate's weight is max(diagonal curvature, floor), so dead
    coordinates fall back to the plain (coefficient-weighted) mean.
    """
    if floor <= 0:
        raise ValueError(f"floor must be positive, got {floor}")
    d = _check_updates(updates, need_fisher=True)
    coeffs = _coefficients(updates)
    num = np.zeros(d)
    den = np.zeros(d)
    for c, u in zip(coeffs, updates):
        if not isinstance(u.fisher, DiagFisher):
            raise ValueError("fisher_merge_diag requires diagonal curvature payloads")
        weight = c * np.maximum(u.fisher.diag, floor)
        num += weight * np.asarray(u.weights, dtype=np.float64)
        den += weight
    return num / den


def merge_updates(method: str, updates: list[ClientUpdate], cfg: ServerConfig) -> tuple[np.ndarray, MergeResult | None]:
    """Dispatch one aggregation step for a method identifier."""
    if method == METHOD_FEDAVG:
        return fedavg(updates), None
    if method == METHOD_FISHERMERGE:
        return fisher_merge_diag(updates), None
    if method in (METHOD_FULL, METHOD_DIAG, METHOD_KFAC):
        result = fedfisher_solve(updates, cfg)
        return result.weights, result
    raise ValueError(f"unknown method {method!r}, expected one of {VALID_METHODS}")
