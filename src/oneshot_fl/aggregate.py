"""Server-side merging of client updates into one global model.

The curvature-weighted merge treats each client's payload as a quadratic
penalty around its local weights and minimizes the sum with first-order
iterations whose gradient is sum_i c_i * F_i @ (W - W_i). Client coefficients
c_i = M * n_i / N reduce to 1 for equal sample counts, so the equal case is
the plain unweighted sum of curvature matvecs.

One solver (``fedfisher_solve``) runs from the weighted mean with one of two
step rules: gradient descent or Adam. Both keep the best-validation iterate
when given a validation score. Only gradient descent needs lambda_max, the
largest eigenvalue of the summed operator: its auto step 1 / (1.01 *
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
at all. A block Krylov basis, grown from g0 and KRYLOV_BLOCK - 1 fixed
Gaussian directions by applying F to KRYLOV_BLOCK rows at a time, spans an
F-invariant subspace that holds g0; its dimension is about rank(F) plus the
block, whatever t_max is. The Ritz pairs of F in that basis give every W_t,
the stop test, the objective and the validation iterates, and the largest
Ritz value is lambda_max, so no power iteration runs. On trained width-sweep
merges (widths 32-512, seed 0) the weights differ from the step-by-step
loop's by at most 1.5e-15 relative at eta_s = 0.001, t_max = 1000 and 7.8e-13
at the auto step with t_max = 10 000, and another start-block seed moves
them by at most 1.3e-12. Adam, and gradient descent on diagonal or K-FAC
curvature, run the step-by-step loop: a basis of length-d vectors would
outgrow their O(d) payloads, while a dense payload already holds d * d
numbers. On diagonal curvature alone GD's lambda_max is the largest entry of
the summed diagonal, exact and without applying the operator; only K-FAC
curvature takes it from a power iteration.

The Krylov path's stop test costs O(k) for k Ritz values when it cannot
fire by t_max, not O(k t_max). While eta * lambda_max <= 2, the step norm
eta |(1 - eta theta)^(t-1) z| does not grow with t, and |W_t| is at most a
closed-form bound from filt_t(theta) <= min(eta t, 2 / theta) that does not
shrink with t. So one test at t_max, of the step norm there against the
tolerance of that bound there, decides that the test holds at no t <= t_max;
on the width-sweep and steps-sweep configs it decides so and nothing is
swept. Otherwise, and always above eta * lambda_max = 2, where gradient
descent diverges, every t up to the first hit is evaluated.

Dense and diagonal parts of the operator are pre-summed; K-FAC payloads
cannot be, since a sum of Kronecker products is not one. A client's raw
input factor is its damping floor delta_i I plus a Gram part of rank r <= n_i,
its example count. Where 2r < dim, the operator applies it in that form
(:func:`fisher.thin_input_factor` recovers both): per layer the floors are
pre-summed into sum_i c_i delta_i B_i and the low-rank factors of all such
clients are stacked in one buffer, so a step costs 4 * out * dim * r per
client instead of 2 * out * dim^2. The dropped remainder is at most
THIN_FACTOR_TOL of the factor's largest diagonal entry. Every other factor
(full-rank, from a large client, or decoded from a compressed payload)
keeps the per-client Kronecker matvec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fisher import (DiagFisher, FisherApprox, FullFisher, KFACFisher, fisher_matvec,
                     thin_input_factor)
from .numerics import kron_matvec, power_iteration_max_eig

METHOD_FEDAVG = "fedavg"
METHOD_FULL = "fedfisher-full"
METHOD_DIAG = "fedfisher-diag"
METHOD_KFAC = "fedfisher-kfac"
METHOD_FISHERMERGE = "fishermerge"
VALID_METHODS = (METHOD_FEDAVG, METHOD_FULL, METHOD_DIAG, METHOD_KFAC, METHOD_FISHERMERGE)

DEFAULT_FISHER_FLOOR = 1e-6  # fishermerge's least weight per coordinate

# Adam server's moment decay rates and denominator offset.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.99
ADAM_EPS = 0.01

# Rows of the Krylov basis's start block, and the seed of its KRYLOV_BLOCK - 1
# Gaussian rows beside g0. Each block of rows reads the dense curvature once.
KRYLOV_BLOCK = 16
_KRYLOV_SEED = 0xB10C
# The Krylov basis ends at an invariant subspace once no direction of a new
# block, reorthogonalized against the basis, keeps a singular value above this
# fraction of the largest row norm of F times a basis block so far. Once the
# space is exhausted, that remainder is rounding noise, at most 2e-15 of the
# scale on trained width-sweep merges (widths 128 and 512), while the smallest
# direction they kept measured 6e-13. A dropped remainder of size r moves the
# t-step iterate by at most eta * t * r times its distance from the mean.
LANCZOS_BREAKDOWN = 1e-14
# Steps times Ritz values evaluated at once when sweeping the stop test, and
# entries per chunk when summing dense curvature; bounds that scratch memory
# at a few 256 KiB blocks.
_SWEEP_BLOCK = 1 << 15
# Relative widening of the bound that rules out a stop by t_max: far above
# the rounding of a norm over k <= d Ritz coordinates (about k ulp), far
# below what lets that test pass where the stop test could not hold.
_BOUND_SLACK = 1e-6


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
    """What :func:`fedfisher_solve` returns. ``step_warning`` means the GD step
    may exceed 1 / lambda_max: a manual step above 1 / lambda_max, or any step
    after a power iteration (Kronecker curvature) that did not converge."""

    weights: np.ndarray
    iterations: int
    converged: bool
    diverged: bool = False
    step_warning: bool = False
    residual: float = float("nan")
    lambda_max: float = float("nan")  # GD only: Ritz value, diagonal entry or power iteration
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


@dataclass
class _ThinBlock:
    """One layer's thin K-FAC clients, A_i = delta_i I + L_i L_i^T, as one
    operator on the layer's slice: V -> floor V + [c_i B_i (V L_i)]_i L^T,
    with floor = sum_i c_i delta_i B_i and L = [L_1 .. L_k] stored as the
    rows lt = L^T, client after client (``mixes`` holds each one's rows and
    (c_i B_i)^T)."""

    sl: slice
    floor_t: np.ndarray  # (out, out): floor^T
    lt: np.ndarray  # (r_1 + .. + r_k, dim)
    mixes: list[tuple[slice, np.ndarray]]

    def add_to(self, out: np.ndarray, v: np.ndarray) -> None:
        # The slice holds V (out, dim) column-major, so as (dim, out) it is V^T.
        dim = self.lt.shape[1]
        vt = v[self.sl].reshape(dim, -1)
        ot = out[self.sl].reshape(dim, -1)
        ot += vt @ self.floor_t
        p = self.lt @ vt  # (V L)^T
        for rows, cb_t in self.mixes:
            p[rows] = p[rows] @ cb_t
        ot += self.lt.T @ p


class _SummedCurvature:
    """Applies sum_i c_i F_i, pre-summing dense and diagonal parts.

    A K-FAC input factor A_i that :func:`fisher.thin_input_factor` splits
    into its floor delta_i I and L_i L_i^T, of rank r <= n_i with 2r < dim,
    joins its layer's :class:`_ThinBlock`, where the floors are pre-summed
    and a matvec costs 4 * out * dim * r per client instead of
    2 * out * dim^2. Every other K-FAC layer is applied per client by
    ``kron_matvec``, each product scaled and added into its slice of the
    output. ``rank_bounds`` holds each client's n_i, its example count; None
    bounds the rank by the dimension alone.
    """

    def __init__(self, pairs: list[tuple[float, FisherApprox]], dim: int,
                 rank_bounds: list[int] | None = None):
        self.dim = dim
        self.dense: np.ndarray | None = None
        self.diag: np.ndarray | None = None
        self.kfacs: list[tuple[float, slice, np.ndarray, np.ndarray]] = []  # (c_i, slice, A, B)
        self.thin: list[_ThinBlock] = []
        # (slice, dim A, dim B) -> (c_i, A, B, n_i) of every client's layer there
        layers: dict[tuple[int, int, int], list] = {}
        bounds = rank_bounds or [dim] * len(pairs)
        for (coef, f), bound in zip(pairs, bounds, strict=True):
            if isinstance(f, FullFisher):
                if self.dense is None:
                    self.dense = np.multiply(f.matrix, coef, dtype=np.float64)
                else:  # a few rows at a time: no (d, d) temporary per client
                    rows = max(1, _SWEEP_BLOCK // dim)
                    for lo in range(0, dim, rows):
                        self.dense[lo:lo + rows] += coef * f.matrix[lo:lo + rows]
            elif isinstance(f, DiagFisher):
                if self.diag is None:
                    self.diag = np.zeros(dim)
                self.diag += coef * f.diag
            elif isinstance(f, KFACFisher):
                offset = 0
                for layer in f.layers:
                    key = (offset, layer.a.shape[0], layer.b.shape[0])
                    layers.setdefault(key, []).append((coef, layer.a, layer.b, bound))
                    offset += key[1] * key[2]
            else:
                raise ValueError(f"unknown curvature variant {type(f).__name__}")
        for (offset, dim_a, dim_b), clients in layers.items():
            self._add_layer(slice(offset, offset + dim_a * dim_b), dim_a, dim_b, clients)

    def _add_layer(self, sl: slice, dim_a: int, dim_b: int, clients: list) -> None:
        """Sort one layer's clients into its thin block and the per-client list."""
        # Room for the most pivots thin_input_factor may take per client.
        lt = np.empty((sum(min(n, (dim_a - 1) // 2) for *_, n in clients), dim_a))
        floor_t = np.zeros((dim_b, dim_b))
        mixes = []
        rows = 0
        for coef, a, b, n in clients:
            thin = thin_input_factor(a, n, out=lt[rows:])
            if thin is None:
                self.kfacs.append((coef, sl, a, b))
                continue
            delta, l_t = thin
            floor_t += (coef * delta) * b.T
            mixes.append((slice(rows, rows + l_t.shape[0]), coef * b.T))
            rows += l_t.shape[0]
        if mixes:
            self.thin.append(_ThinBlock(sl, floor_t, lt[:rows], mixes))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        if self.dense is not None:
            out += self.dense @ v
        if self.diag is not None:
            out += self.diag * v
        self._add_kfacs(out, v)
        return out

    def apply_rows(self, v: np.ndarray) -> np.ndarray:
        """The operator applied to every row of ``v`` at once: v @ F, as F is
        symmetric, so the dense part is read once per block of rows."""
        out = v @ self.dense if self.dense is not None else np.zeros_like(v)
        if self.diag is not None:
            out += self.diag * v
        for row, src in zip(out, v):
            self._add_kfacs(row, src)
        return out

    def _add_kfacs(self, out: np.ndarray, v: np.ndarray) -> None:
        for coef, sl, a, b in self.kfacs:
            r = kron_matvec(a, b, v[sl])
            r *= coef
            out[sl] += r
        for block in self.thin:
            block.add_to(out, v)


def _merge_problem(updates: list[ClientUpdate]):
    d = _check_updates(updates, need_fisher=True)
    coeffs = _coefficients(updates)
    op = _SummedCurvature(list(zip(coeffs, [u.fisher for u in updates])), d,
                          [u.n_examples for u in updates])
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


def _orthonormal_rows(c: np.ndarray, q: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal rows spanning the rows of ``c``, already projected off the
    row space of ``q`` (orthonormal rows), less every direction whose singular
    value is at most ``tol``; reorthogonalized against ``q``."""
    frame, r = np.linalg.qr(c.T)
    u, s, _ = np.linalg.svd(r)  # the singular values of c, from a small matrix
    cols = frame @ u[:, s > tol]
    if not cols.shape[1]:
        return cols.T
    cols -= q.T @ (q @ cols)  # normalizing a small remainder magnified its error along q
    return np.linalg.qr(cols)[0].T


def _block_krylov(apply_rows, g0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, theta, s): orthonormal rows q spanning the smallest F-invariant
    subspace that holds g0 and KRYLOV_BLOCK - 1 fixed Gaussian directions,
    and the Ritz pairs q F q^T = s diag(theta) s^T, theta ascending.

    ``apply_rows`` maps a block of rows v to v @ F, so F is read once per
    block. Each new block is F times the last one, fully reorthogonalized;
    the basis is complete when no direction of a new block survives the
    LANCZOS_BREAKDOWN test, or when it holds d rows. The Gaussian rows make
    theta[-1] the largest eigenvalue of F whatever g0 is, g0 = 0 included.
    """
    d = g0.size
    rng = np.random.default_rng(_KRYLOV_SEED)
    start = np.vstack([g0, rng.standard_normal((KRYLOV_BLOCK - 1, d))])
    norms = np.linalg.norm(start, axis=1)
    live = norms > 0.0  # g0 = 0 has no direction
    start = start[live] / norms[live, None]
    basis = np.empty((min(2 * KRYLOV_BLOCK, d), d))  # doubled as it fills
    block = _orthonormal_rows(start, basis[:0], LANCZOS_BREAKDOWN)
    k, scale = 0, 0.0
    coupling: list[np.ndarray] = []  # per block: its rows of q F q^T up to the diagonal
    while block.shape[0]:
        lo, k = k, k + block.shape[0]
        if k > basis.shape[0]:
            grown = np.empty((min(2 * k, d), d))
            grown[:lo] = basis[:lo]
            basis = grown
        basis[lo:k] = block
        v = apply_rows(basis[lo:k])
        scale = max(scale, float(np.linalg.norm(v, axis=1).max()))
        h = v @ basis[:k].T
        coupling.append(h)
        if k == d:
            break
        v -= h @ basis[:k]
        block = _orthonormal_rows(v, basis[:k], LANCZOS_BREAKDOWN * scale)[: d - k]
    t = np.zeros((k, k))
    lo = 0
    for h in coupling:
        t[lo:lo + h.shape[0], :h.shape[1]] = h
        lo += h.shape[0]
    theta, s = np.linalg.eigh(t, UPLO="L")  # the lower triangle is the filled one
    return basis[:k], theta, s


class _KrylovGD:
    """Every fixed-step GD iterate W_t = W0 - filt_t(F) g0, t <= t_max, from
    a basis q of an F-invariant subspace holding g0 (:func:`_block_krylov`).

    With q F q^T = S diag(theta) S^T and z = S^T q g0, the iterate is
    W_t = W0 - q^T S (filt_t(theta) z) and the objective at W_t is
    f(W0) - sum_j filt_2t(theta_j) z_j^2, for every t.
    """

    def __init__(self, basis, g0: np.ndarray, w0: np.ndarray, eta: float, t_max: int):
        self.q, self.theta, self.ritz = basis
        self.w0, self.eta, self.t_max = w0, eta, t_max
        self.z = self.ritz.T @ (self.q @ g0)
        coords = self.q @ w0
        self.a = self.ritz.T @ coords  # W0's part inside the basis, in Ritz coordinates
        self.perp2 = float(np.sum((w0 - self.q.T @ coords) ** 2))

    def _blocks(self, stop: int):
        rows = max(1, _SWEEP_BLOCK // max(self.theta.size, 1))
        for lo in range(0, stop, rows):
            yield np.arange(lo, min(lo + rows, stop), dtype=np.float64)[:, None]

    def weights(self, t: int) -> np.ndarray:
        filt = _landweber(self.theta, self.eta, t)[1]
        return self.w0 - self.q.T @ (self.ritz @ (filt * self.z))

    def _step_norm(self, t: int) -> float:
        """|eta g_(t-1)|, the norm of step t."""
        grad = _landweber(self.theta, self.eta, t - 1)[0] * self.z
        return self.eta * float(np.sqrt(np.sum(grad**2)))

    def _sweep(self, stop: int, stop_tol: float) -> tuple[int, bool, bool] | None:
        """The stop test at t = 1 .. stop, in blocks of steps: the
        (iterations, converged, diverged) of its first hit, or None."""
        for s in self._blocks(stop):
            with np.errstate(over="ignore", invalid="ignore"):  # also 0 * inf at stop_tol = 0
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
        return None

    def run(self, stop_tol: float) -> tuple[int, bool, bool]:
        """(iterations, converged, diverged) of the loop's stop test
        |eta g_(t-1)| <= stop_tol (1 + |W_t|); divergence, as in the loop, is
        the first step whose norm or iterate norm overflows.

        While eta * theta <= 2 the step norm does not grow with t, up to a
        factor ``growth`` from Ritz values that rounding left slightly
        negative, and filt_t(theta) <= growth * min(eta t, 2 / |theta|)
        bounds |W_t| from above, a bound that grows with t. So if the step
        norm at t_max is above that bound's tolerance at t_max, widened by
        _BOUND_SLACK against rounding, the test holds at no t <= t_max and
        nothing is swept. Otherwise, and always above eta * theta = 2, where
        steps grow and can overflow, every t from 1 up to the first hit is
        evaluated.
        """
        t_max, eta = self.t_max, self.eta
        if eta * self.theta[-1] <= 2.0:
            growth = np.exp(t_max * np.log1p(eta * max(0.0, -float(self.theta[0]))))
            with np.errstate(divide="ignore"):
                filt = growth * np.minimum(eta * t_max, 2.0 / np.abs(self.theta))
            w_bound = np.sqrt(self.perp2 + (np.linalg.norm(self.a)
                                            + np.linalg.norm(filt * self.z)) ** 2)
            tol = stop_tol * (1.0 + w_bound) * growth * (1.0 + _BOUND_SLACK)
            if (np.isfinite(growth * self._step_norm(1) + w_bound)
                    and not self._step_norm(t_max) <= tol):
                return t_max, False, False
        return self._sweep(t_max, stop_tol) or (t_max, False, False)

    def objectives(self, count: int, f0: float) -> list[float]:
        """The objective at W_0 .. W_(count-1)."""
        z2 = self.z**2
        return [f0 - float(v) for s in self._blocks(count)
                for v in _landweber(self.theta, self.eta, 2 * s)[1] @ z2]


def _scaled_norm(v: np.ndarray) -> float:
    """2-norm of ``v`` taken on ``v`` scaled by its largest absolute entry,
    so it is finite for every finite ``v`` whose norm fits in a float, even
    where the plain sum of squares overflows. inf or NaN entries give inf or
    NaN."""
    scale = float(np.max(np.abs(v), initial=0.0))
    if not 0.0 < scale < np.inf:
        return scale
    return scale * float(np.linalg.norm(v / scale))


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
    the same iterates, stop test, objectives and validation choice from the
    Ritz pairs of a block Krylov basis, and lambda_max is the largest Ritz
    value; GD on diagonal curvature alone takes the largest entry of the
    summed diagonal, and GD on curvature with K-FAC blocks a power
    iteration. GD with cfg.eta_s=None steps by 1 / (1.01 * lambda_max); a
    manual GD step larger than 1 / lambda_max sets ``step_warning``, and so
    does a power iteration that did not converge: its estimate may lie below
    lambda_max, so even the auto step may be too large. Adam
    needs no lambda_max, so its ``lambda_max`` stays NaN. With
    ``cfg.val_fn`` (flat weights to a score, higher is better) the iterate is
    scored at the start, every ``cfg.val_every`` steps and at the end, and
    the best one is returned. ``objective_trace`` holds the objective before
    every step and at the returned weights. A negative t_max or stop_tol, or
    val_every below 1 with a val_fn, raises ValueError.
    """
    cfg = cfg or ServerConfig()
    for name in ("t_max", "stop_tol"):
        if not getattr(cfg, name) >= 0:
            raise ValueError(f"{name} must be nonnegative, got {getattr(cfg, name)}")
    if cfg.val_fn is not None and not cfg.val_every >= 1:
        raise ValueError(f"val_every must be at least 1 with a val_fn, got {cfg.val_every}")
    d, op, b, const = _merge_problem(updates)
    w = fedavg(updates)
    trace: list[float] | None = [] if record_objective else None

    lam = float("nan")
    warning = False
    basis = None
    if cfg.optimizer == "gd":
        if op.dense is not None:
            g0 = op.matvec(w) - b
            basis = _block_krylov(op.apply_rows, g0)
            lam = float(basis[1][-1])
        elif op.kfacs or op.thin:
            power = power_iteration_max_eig(op.matvec, d, tol=1e-6, max_iters=2000)
            lam, warning = power.value, not power.converged  # unconverged: may lie below lambda_max
        else:  # a diagonal operator's largest eigenvalue is its largest entry
            lam = float(op.diag.max())
        if cfg.eta_s is None and lam <= 0.0:
            # No curvature anywhere: every point is stationary, keep the mean.
            return MergeResult(w, 0, True, residual=_scaled_norm(op.matvec(w) - b),
                               lambda_max=lam, objective_trace=trace)
        eta = 1.0 / (1.01 * lam) if cfg.eta_s is None else cfg.eta_s
        warning = warning or lam > 0 and eta * lam > 1.0 + 1e-9
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
    if basis is not None:
        path = _KrylovGD(basis, g0, w, eta, cfg.t_max)
        iterations, converged, diverged = path.run(cfg.stop_tol)
        if trace is not None:
            trace.extend(path.objectives(iterations + diverged,
                                         float(w @ g0) - float(w @ b) + const))
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
            with np.errstate(over="ignore"):  # the test below catches an overflow
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
                       residual=_scaled_norm(g), lambda_max=lam,
                       objective_trace=trace)


def fisher_merge_diag(updates: list[ClientUpdate]) -> np.ndarray:
    """Coordinatewise curvature-weighted average of client weights.

    Each coordinate's weight is max(diagonal curvature, DEFAULT_FISHER_FLOOR),
    so dead coordinates fall back to the plain (coefficient-weighted) mean.
    """
    d = _check_updates(updates, need_fisher=True)
    coeffs = _coefficients(updates)
    num = np.zeros(d)
    den = np.zeros(d)
    for c, u in zip(coeffs, updates):
        if not isinstance(u.fisher, DiagFisher):
            raise ValueError("fisher_merge_diag requires diagonal curvature payloads")
        weight = c * np.maximum(u.fisher.diag, DEFAULT_FISHER_FLOOR)
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
