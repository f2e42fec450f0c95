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

When the summed curvature has a dense part and no K-FAC blocks, gradient
descent does not step at all. A dense payload is a Gram matrix
F_i = L_i^T L_i of rank at most n_i, and :func:`fisher.gram_factor` recovers
L_i from it, dropping a remainder whose diagonal is at most THIN_FACTOR_TOL
of F_i's largest diagonal entry; a diagonal payload beside it is its own
such factor, and a payload with no such factor (not symmetric positive
semidefinite) is an error. One thin SVD of the stacked rows
sqrt(c_i) L_i = U diag(s) q gives the eigenpairs of the summed curvature,
F = q^T diag(theta) q with theta = s^2 >= 0. They give every W_t, the stop
test, the objective and the validation iterates, and the largest theta is
lambda_max, so no power iteration runs. On trained
width-sweep merges (widths 32-512, seed 0) the weights differ from the
step-by-step loop's by at most 1.5e-15 relative at eta_s = 0.001,
t_max = 1000 and 4.4e-13 at the auto step with t_max = 10 000. Adam, and
gradient descent on diagonal or K-FAC curvature, run the step-by-step loop.
On diagonal curvature alone GD's lambda_max is the largest entry of the
summed diagonal, exact and without applying the operator; only K-FAC
curvature takes it from a power iteration.

The dense path's stop test costs O(k) for k eigenvalues when it cannot
fire by t_max, not O(k t_max). While eta * lambda_max <= 2, the step norm
eta |(1 - eta theta)^(t-1) z| does not grow with t, and |W_t| is at most a
closed-form bound from filt_t(theta) <= min(eta t, 2 / theta) that does not
shrink with t. So one test at t_max, of the step norm there against the
tolerance of that bound there, decides that the test holds at no t <= t_max;
on the width-sweep and steps-sweep configs it decides so and nothing is
swept. Otherwise, and always above eta * lambda_max = 2, where gradient
descent diverges, every t up to the first hit is evaluated.

Diagonal parts of the operator are pre-summed, and a dense part is applied
as q^T (theta * q v), so no d x d matrix is summed; K-FAC payloads cannot
be pre-summed, since a sum of Kronecker products is not one. A client's raw
input factor is its damping floor delta_i I plus a Gram part of rank r <= n_i,
its example count. Where 2 n_i < dim, the operator applies it in that form
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
                     gram_factor, thin_input_factor)
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

# Steps times eigenvalues evaluated at once when sweeping the stop test;
# bounds that scratch memory at a few 256 KiB blocks.
_SWEEP_BLOCK = 1 << 15
# Relative widening of the bound that rules out a stop by t_max: far above
# the rounding of a norm over k <= d eigencoordinates (about k ulp), far
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
    after a power iteration (Kronecker curvature) that did not converge.
    ``objective_trace`` is recorded only when asked, and only it applies the
    operator to the returned weights."""

    weights: np.ndarray
    iterations: int
    converged: bool
    diverged: bool = False
    step_warning: bool = False
    lambda_max: float = float("nan")  # GD only: exact eigenvalue, or power iteration on K-FAC
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
    """Applies sum_i c_i F_i.

    Dense payloads, and diagonal ones in a merge that holds a dense one, are
    held as ``eig`` = (q, theta), the eigenpairs of their weighted sum from
    one thin SVD of the stacked Gram factors sqrt(c_i) L_i
    (:func:`fisher.gram_factor`, floor 0); a payload that has no such factor
    raises ValueError naming its client. Other diagonal payloads are
    pre-summed. A K-FAC input factor A_i that :func:`fisher.thin_input_factor`
    splits into its floor delta_i I and L_i L_i^T, of rank r <= n_i with
    2 n_i < dim, joins its layer's :class:`_ThinBlock`, where the floors are
    pre-summed and a matvec costs 4 * out * dim * r per client instead of
    2 * out * dim^2. Every other K-FAC layer is applied per client by
    ``kron_matvec``, each product scaled and added into its slice of the
    output. ``rank_bounds`` holds each client's n_i, its example count; None
    bounds the rank by the dimension alone.
    """

    def __init__(self, pairs: list[tuple[float, FisherApprox]], dim: int,
                 rank_bounds: list[int] | None = None):
        self.dim = dim
        self.eig: tuple[np.ndarray, np.ndarray] | None = None  # (q, theta)
        self.diag: np.ndarray | None = None
        self.kfacs: list[tuple[float, slice, np.ndarray, np.ndarray]] = []  # (c_i, slice, A, B)
        self.thin: list[_ThinBlock] = []
        grams, diags = [], []  # (client, c_i, matrix, n_i) and (client, c_i, diagonal)
        # (slice, dim A, dim B) -> (c_i, A, B, n_i) of every client's layer there
        layers: dict[tuple[int, int, int], list] = {}
        bounds = rank_bounds or [dim] * len(pairs)
        for i, ((coef, f), bound) in enumerate(zip(pairs, bounds, strict=True)):
            if isinstance(f, FullFisher):
                grams.append((i, coef, f.matrix, bound))
            elif isinstance(f, DiagFisher):
                diags.append((i, coef, f.diag))
            elif isinstance(f, KFACFisher):
                offset = 0
                for layer in f.layers:
                    key = (offset, layer.a.shape[0], layer.b.shape[0])
                    layers.setdefault(key, []).append((coef, layer.a, layer.b, bound))
                    offset += key[1] * key[2]
            else:
                raise ValueError(f"unknown curvature variant {type(f).__name__}")
        if grams:
            grams += [(i, coef, np.diag(diag), dim) for i, coef, diag in diags]
            self.eig = self._eigenpairs(grams, dim)
        elif diags:
            self.diag = np.zeros(dim)
            for _, coef, diag in diags:
                self.diag += coef * diag
        for (offset, dim_a, dim_b), clients in layers.items():
            self._add_layer(slice(offset, offset + dim_a * dim_b), dim_a, dim_b, clients)

    @staticmethod
    def _eigenpairs(grams: list, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """(q, theta) with sum_i c_i F_i = q^T diag(theta) q, theta descending."""
        rows = []
        for i, coef, matrix, bound in grams:
            # A payload of n_i examples has rank <= n_i: try that many pivots
            # (and rows of memory) before allowing one per coordinate.
            for cap in (min(bound, dim), dim):
                lt = gram_factor(matrix, 0.0, cap)
                if lt is not None:
                    break
            else:
                raise ValueError(f"client {i} curvature is not symmetric positive semidefinite")
            lt *= np.sqrt(coef)
            rows.append(lt)
        s, q = np.linalg.svd(np.vstack(rows), full_matrices=False)[1:]
        return q, s**2

    def _add_layer(self, sl: slice, dim_a: int, dim_b: int, clients: list) -> None:
        """Sort one layer's clients into its thin block and the per-client list."""
        # Room for the most pivots thin_input_factor may take per client.
        lt = np.empty((sum(n for *_, n in clients if 2 * n < dim_a), dim_a))
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
        if self.eig is not None:
            q, theta = self.eig
            out += q.T @ (theta * (q @ v))
        if self.diag is not None:
            out += self.diag * v
        for coef, sl, a, b in self.kfacs:
            r = kron_matvec(a, b, v[sl])
            r *= coef
            out[sl] += r
        for block in self.thin:
            block.add_to(out, v)
        return out


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


class _SpectralGD:
    """Every fixed-step GD iterate W_t = W0 - filt_t(F) g0, t <= t_max, from
    the eigenpairs F = q^T diag(theta) q of :class:`_SummedCurvature`.

    With z = q g0, the iterate is W_t = W0 - q^T (filt_t(theta) z) and the
    objective at W_t is f(W0) - sum_j filt_2t(theta_j) z_j^2, for every t.
    """

    def __init__(self, eig, g0: np.ndarray, w0: np.ndarray, eta: float, t_max: int):
        self.q, self.theta = eig
        self.w0, self.eta, self.t_max = w0, eta, t_max
        self.z = self.q @ g0
        self.a = self.q @ w0  # W0's part in the row space of q
        self.perp2 = float(np.sum((w0 - self.q.T @ self.a) ** 2))

    def _blocks(self, stop: int):
        rows = max(1, _SWEEP_BLOCK // max(self.theta.size, 1))
        for lo in range(0, stop, rows):
            yield np.arange(lo, min(lo + rows, stop), dtype=np.float64)[:, None]

    def weights(self, t: int) -> np.ndarray:
        filt = _landweber(self.theta, self.eta, t)[1]
        return self.w0 - self.q.T @ (filt * self.z)

    def _step_norm(self, t: int) -> float:
        """|eta g_(t-1)|, the norm of step t."""
        grad = _landweber(self.theta, self.eta, t - 1)[0] * self.z
        return self.eta * float(np.sqrt(np.sum(grad**2)))

    def _sweep(self, stop: int, stop_tol: float) -> tuple[int, bool, bool] | None:
        """The stop test at t = 1 .. stop, in blocks of steps: the
        (iterations, converged, diverged) of its first hit, or None."""
        for s in self._blocks(stop):
            with np.errstate(over="ignore", invalid="ignore"):  # also 0 * inf at stop_tol = 0
                grad = _landweber(self.theta, self.eta, s)[0] * self.z  # g_(t-1), eigencoordinates
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

        While eta * theta <= 2 the step norm does not grow with t, as
        theta >= 0, and filt_t(theta) <= min(eta t, 2 / theta) bounds |W_t|
        from above, a bound that grows with t. So if the step
        norm at t_max is above that bound's tolerance at t_max, widened by
        _BOUND_SLACK against rounding, the test holds at no t <= t_max and
        nothing is swept. Otherwise, and always above eta * theta = 2, where
        steps grow and can overflow, every t from 1 up to the first hit is
        evaluated.
        """
        t_max, eta = self.t_max, self.eta
        if eta * self.theta.max(initial=0.0) <= 2.0:
            with np.errstate(divide="ignore"):
                filt = np.minimum(eta * t_max, 2.0 / self.theta)
            w_bound = np.sqrt(self.perp2 + (np.linalg.norm(self.a)
                                            + np.linalg.norm(filt * self.z)) ** 2)
            tol = stop_tol * (1.0 + w_bound) * (1.0 + _BOUND_SLACK)
            if (np.isfinite(self._step_norm(1) + w_bound)
                    and not self._step_norm(t_max) <= tol):
                return t_max, False, False
        return self._sweep(t_max, stop_tol) or (t_max, False, False)

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
    curvature with a dense part and no K-FAC blocks takes no steps:
    :class:`_SpectralGD` evaluates the same iterates, stop test, objectives
    and validation choice from the exact eigenpairs of the summed
    curvature, and lambda_max is the largest eigenvalue; GD on diagonal
    curvature alone takes the largest entry of the summed diagonal, and GD
    on curvature with K-FAC blocks a power iteration. GD with cfg.eta_s=None
    steps by 1 / (1.01 * lambda_max); a manual GD step larger than
    1 / lambda_max sets ``step_warning``, and so
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
    warning = spectral = False
    if cfg.optimizer == "gd":
        if op.kfacs or op.thin:
            power = power_iteration_max_eig(op.matvec, d, tol=1e-6, max_iters=2000)
            lam, warning = power.value, not power.converged  # unconverged: may lie below lambda_max
        elif op.eig is not None:
            spectral = True
            lam = float(op.eig[1].max(initial=0.0))
        else:  # a diagonal operator's largest eigenvalue is its largest entry
            lam = float(op.diag.max())
        if cfg.eta_s is None and lam <= 0.0:
            # No curvature anywhere: every point is stationary, keep the mean.
            return MergeResult(w, 0, True, lambda_max=lam, objective_trace=trace)
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
    if spectral:
        g0 = op.matvec(w) - b
        path = _SpectralGD(op.eig, g0, w, eta, cfg.t_max)
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
    if trace is not None and not diverged:
        g = op.matvec(final) - b
        trace.append(float(final @ g) - float(final @ b) + const)
    return MergeResult(final, iterations, converged, diverged=diverged, step_warning=warning,
                       lambda_max=lam, objective_trace=trace)


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
