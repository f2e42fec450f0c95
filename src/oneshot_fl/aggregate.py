"""Server-side merging of client updates into one global model.

The curvature-weighted merge treats each client's payload as a quadratic
penalty around its local weights and minimizes the sum with first-order
iterations whose gradient is sum_i c_i * F_i @ (W - W_i). Client coefficients
c_i = M * n_i / N reduce to 1 for equal sample counts, so the equal case is
the plain unweighted sum of curvature matvecs.

One solver (``fedfisher_solve``) runs from the weighted mean with one of two
step rules: gradient descent or Adam. Both keep the best-validation iterate
when given a validation score. Only gradient descent estimates lambda_max,
by power iteration on the summed operator: its auto step 1 / (1.01 *
lambda_max) makes the quadratic objective non-increasing, and the iterates
converge to the minimum-norm projection of the mean onto the stationary set.

Fixed-step gradient descent from the mean W0 is a spectral filter (the
Landweber iteration): with F the summed curvature and g0 = F W0 - b, the
iterate after t steps is W_t = W0 - filt_t(F) g0 with
filt_t(lambda) = (1 - (1 - eta * lambda)^t) / lambda. Directions with
eta * lambda * t >> 1 reach the minimizer; flat ones keep the mean. So
(eta_s, t_max) act as a regularizer, and on ill-conditioned curvature the
returned merge is this filtered mean, not the minimizer of the objective.
The loss trend over width in the synthetic sweep comes from it.

When the summed curvature has a dense part, gradient descent does not step
at all: W_t lies in the Krylov space of F and g0, whose dimension is at most
the rank of F, so a Lanczos basis of that space gives every W_t, the stop
test, the objective and the validation iterates from the Ritz pairs of a
small tridiagonal matrix (at most min(t_max, d) matvecs instead of t_max).
On trained width-sweep merges (widths 32-512, seed 0) the weights differ
from the step-by-step loop's by at most 1.5e-15 relative at eta_s = 0.001,
t_max = 1000 and 9.4e-13 at the auto step with t_max = 10 000. Adam, and
gradient descent on diagonal or K-FAC curvature, run the step-by-step loop:
a basis of up to t_max vectors of length d would outgrow their O(d)
payloads, while a dense payload already holds d * d numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .fisher import DiagFisher, FisherApprox, FullFisher, KFACFisher, fisher_matvec
from .numerics import kron_matvec, power_iteration_max_eig

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

# The Lanczos basis ends at an invariant subspace once a new direction's norm
# falls below this fraction of the largest recurrence coefficient so far.
# Once the Krylov space is exhausted, the reorthogonalized remainder is
# rounding noise, 1e-17 to 1e-16 of that scale on trained width-sweep merges,
# while their last genuine directions measured 1e-11 and above. Dropping a
# coupling beta moves the t-step iterate by at most eta * t * beta times its
# distance from the mean.
LANCZOS_BREAKDOWN = 1e-14
# Steps times Ritz values evaluated at once when sweeping t = 1 .. t_max;
# bounds the sweep's scratch memory at a few 256 KiB blocks.
_SWEEP_BLOCK = 1 << 15


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
    products are not Kronecker products), so they are applied per client
    and layer, each product scaled and added into its slice of the output.
    """

    def __init__(self, pairs: list[tuple[float, FisherApprox]], dim: int):
        self.dim = dim
        self.dense: np.ndarray | None = None
        self.diag: np.ndarray | None = None
        self.kfacs: list[tuple[float, slice, np.ndarray, np.ndarray]] = []  # (c_i, slice, A, B)
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
                offset = 0
                for layer in f.layers:
                    size = layer.a.shape[0] * layer.b.shape[0]
                    self.kfacs.append((coef, slice(offset, offset + size), layer.a, layer.b))
                    offset += size
            else:
                raise ValueError(f"unknown curvature variant {type(f).__name__}")

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        if self.dense is not None:
            out += self.dense @ v
        if self.diag is not None:
            out += self.diag * v
        for coef, sl, a, b in self.kfacs:
            r = kron_matvec(a, b, v[sl])
            r *= coef
            out[sl] += r
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


def _landweber(theta: np.ndarray, eta: float, t) -> tuple[np.ndarray, np.ndarray]:
    """(1 - eta*theta)^t and filt_t(theta) = (1 - (1 - eta*theta)^t) / theta.

    ``t`` broadcasts against ``theta``. Below eta*theta = 1/2 both come from
    log1p/expm1, accurate for tiny |theta|; filt_t(0) = eta * t. Above it
    the power is taken directly, which also covers a negative base.
    """
    x = eta * theta
    with np.errstate(all="ignore"):
        log_q = t * np.log1p(-np.minimum(x, 0.5))
        smooth = x < 0.5
        decay = np.where(smooth, np.exp(log_q), np.power(1.0 - x, t))
        filt = np.where(smooth, -np.expm1(log_q), 1.0 - decay) / theta
    return decay, np.where(theta == 0.0, eta * t, filt)


class _KrylovGD:
    """Every fixed-step GD iterate W_t = W0 - filt_t(F) g0, t <= t_max, from
    a Lanczos basis of the Krylov space of F and g0 = F W0 - b.

    The basis (rows of ``q``, fully reorthogonalized) has at most
    min(t_max, d) vectors, enough for the degree t_max - 1 polynomials that
    give W_t and the gradient before step t. With T = S diag(theta) S^T the
    projected operator and z = |g0| S^T e1, W_t = W0 - q^T S (filt_t(theta) z)
    and the objective at W_t is f(W0) - sum_j filt_2t(theta_j) z_j^2.
    """

    def __init__(self, matvec, g0: np.ndarray, w0: np.ndarray, eta: float, t_max: int):
        self.w0, self.eta, self.t_max = w0, eta, t_max
        beta0 = float(np.linalg.norm(g0))
        k_max = min(t_max, w0.size) if beta0 > 0.0 else 0
        q = np.empty((k_max, w0.size))
        alpha: list[float] = []
        beta: list[float] = []
        scale = 0.0
        if k_max:
            q[0] = g0 / beta0
        for j in range(k_max):
            v = matvec(q[j])
            alpha.append(float(q[j] @ v))
            if j + 1 == k_max:
                break
            v -= alpha[-1] * q[j] + (beta[-1] * q[j - 1] if j else 0.0)
            v -= q[: j + 1].T @ (q[: j + 1] @ v)  # full reorthogonalization
            b = float(np.linalg.norm(v))
            scale = max(scale, abs(alpha[-1]), b)
            if b <= LANCZOS_BREAKDOWN * scale:
                break
            beta.append(b)
            q[j + 1] = v / b
        self.q = q[: len(alpha)]
        tri = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
        self.theta, self.ritz = np.linalg.eigh(tri)
        self.z = beta0 * self.ritz[:1].reshape(-1)  # first row; empty with no basis
        coords = self.q @ w0
        self.a = self.ritz.T @ coords  # W0's part inside the basis, in Ritz coordinates
        self.perp2 = float(np.sum((w0 - self.q.T @ coords) ** 2))

    def _blocks(self, stop: int):
        rows = max(1, _SWEEP_BLOCK // max(self.theta.size, 1))
        for start in range(0, stop, rows):
            yield np.arange(start, min(start + rows, stop), dtype=np.float64)[:, None]

    def weights(self, t: int) -> np.ndarray:
        filt = _landweber(self.theta, self.eta, t)[1]
        return self.w0 - self.q.T @ (self.ritz @ (filt * self.z))

    def run(self, stop_tol: float) -> tuple[int, bool, bool]:
        """(iterations, converged, diverged) of the loop's stop test
        |eta g_(t-1)| <= stop_tol (1 + |W_t|); divergence, as in the loop, is
        the first step whose norm or iterate norm overflows."""
        for s in self._blocks(self.t_max):
            with np.errstate(over="ignore", invalid="ignore"):
                grad = _landweber(self.theta, self.eta, s)[0] * self.z  # g_(t-1), Ritz coordinates
                step = self.eta * np.sqrt(np.sum(grad**2, axis=1))
                filt = _landweber(self.theta, self.eta, s + 1)[1]
                norm_w = np.sqrt(self.perp2 + np.sum((self.a - filt * self.z) ** 2, axis=1))
            finite = np.isfinite(step) & np.isfinite(norm_w)
            hit = np.flatnonzero(~finite | (step <= stop_tol * (1.0 + norm_w)))
            if hit.size:
                i = hit[0]
                t = int(s[i, 0]) + 1
                return (t, True, False) if finite[i] else (t - 1, False, True)
        return self.t_max, False, False

    def objectives(self, count: int, f0: float) -> list[float]:
        """The objective at W_0 .. W_(count-1)."""
        z2 = self.z**2
        return [f0 - float(v) for s in self._blocks(count)
                for v in _landweber(self.theta, self.eta, 2 * s)[1] @ z2]


def fedfisher_solve(
    updates: list[ClientUpdate],
    cfg: ServerConfig | None = None,
    record_objective: bool = False,
) -> MergeResult:
    """Curvature-weighted merge by first-order steps from the weighted mean.

    One loop serves both step rules of ``cfg.optimizer``: ``"gd"`` steps by
    eta * g, ``"adam"`` by the bias-corrected Adam update. Stops when the
    step norm falls below stop_tol * (1 + |W|) or after t_max steps. GD on
    curvature with a dense part takes no steps: :class:`_KrylovGD` evaluates
    the same iterates, stop test, objectives and validation choice. GD with
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
        m, v, scratch = np.zeros(d), np.zeros(d), np.empty(d)
    else:
        raise ValueError(f"unknown server optimizer {cfg.optimizer!r}")
    if eta <= 0:
        raise ValueError(f"eta_s must be positive, got {eta}")

    best_w = w.copy()
    best_score = cfg.val_fn(w) if cfg.val_fn is not None else None

    def offer(w_t: np.ndarray) -> None:
        nonlocal best_w, best_score
        score = cfg.val_fn(w_t)
        if score > best_score:
            best_score, best_w = score, w_t.copy()  # the step loop reuses w_t's buffer

    iterations = 0
    converged = diverged = False
    if cfg.optimizer == "gd" and op.dense is not None:
        g = op.matvec(w) - b
        path = _KrylovGD(op.matvec, g, w, eta, cfg.t_max)
        iterations, converged, diverged = path.run(cfg.stop_tol)
        if trace is not None:
            trace.extend(path.objectives(iterations + diverged,
                                         float(w @ g) - float(w @ b) + const))
        if best_score is not None:
            for t in range(cfg.val_every, iterations + 1, cfg.val_every):
                offer(path.weights(t))
        w = path.weights(iterations)
    else:
        # In place, in the operation order of the textbook update, so the
        # iterates are bit-identical to it; w_next is w's buffer of the step
        # before, and a diverged step leaves w as it was.
        w_next = np.empty(d)
        for t in range(1, cfg.t_max + 1):
            g = op.matvec(w)
            g -= b
            if trace is not None:
                trace.append(float(w @ g) - float(w @ b) + const)
            if cfg.optimizer == "adam":
                m *= ADAM_BETA1
                m += np.multiply(g, 1.0 - ADAM_BETA1, out=scratch)
                v *= ADAM_BETA2
                np.multiply(g, 1.0 - ADAM_BETA2, out=scratch)
                scratch *= g
                v += scratch
                step = np.divide(m, 1.0 - ADAM_BETA1**t, out=w_next)  # m_hat
                step *= eta
                np.divide(v, 1.0 - ADAM_BETA2**t, out=scratch)  # v_hat
                np.sqrt(scratch, out=scratch)
                scratch += ADAM_EPS
                step /= scratch
            else:
                step = np.multiply(g, eta, out=w_next)
            step_norm = np.linalg.norm(step)
            np.subtract(w, step, out=w_next)
            w_norm = np.linalg.norm(w_next)
            if not np.isfinite(step_norm + w_norm):  # an entry or a norm overflowed
                diverged = True
                break
            w, w_next = w_next, w
            iterations = t
            if best_score is not None and t % cfg.val_every == 0:
                offer(w)
            if step_norm <= cfg.stop_tol * (1.0 + w_norm):
                converged = True
                break
    if best_score is not None and not diverged and iterations % cfg.val_every:
        offer(w)  # the last iterate was not scored inside the loop
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
