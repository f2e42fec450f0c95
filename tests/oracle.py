"""Slow reference implementations backing the test suite.

Everything here recomputes quantities the library produces by faster or more
structured paths: dense constrained least-squares solutions via
eigendecomposition, Monte Carlo curvature estimates from sampled labels,
finite-difference gradients, and a sampled Gram matrix of the relu feature
kernel. They live with the tests, outside the package: nothing the runners
call depends on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from oneshot_fl import models
from oneshot_fl.models import LOSS_SOFTMAX, LOSS_SQUARED, Model

_PINV_CUTOFF = 1e-10
MAX_GRAM_POINTS = 500


@dataclass
class ConstrainedSolution:
    """Minimizer of sum_i c_i |W - W_i|^2 over the stationary set of the
    curvature-weighted quadratic, plus the nullspace of the summed curvature."""

    weights: np.ndarray
    rank: int
    nullspace: np.ndarray  # (d, d - rank) orthonormal columns


def constrained_min_norm_solution(
    fishers: list[np.ndarray],
    weights: list[np.ndarray],
    coeffs: list[float] | None = None,
) -> ConstrainedSolution:
    """Project the coefficient-weighted mean onto the solution set of
    (sum c_i F_i) W = sum c_i F_i W_i.

    Dense eigendecomposition with relative cutoff 1e-10 * lambda_max decides
    rank; the correction lives in the range space, so the result is the
    closest point of the solution set to the mean.
    """
    if len(fishers) != len(weights) or not fishers:
        raise ValueError("need matching, non-empty fishers and weights lists")
    d = np.asarray(weights[0]).shape[0]
    if coeffs is None:
        coeffs = [1.0] * len(fishers)
    f_sum = np.zeros((d, d))
    b = np.zeros(d)
    mean = np.zeros(d)
    for c, f, w in zip(coeffs, fishers, weights):
        f = np.asarray(f, dtype=np.float64)
        w = np.asarray(w, dtype=np.float64)
        if f.shape != (d, d) or w.shape != (d,):
            raise ValueError("all fishers must be (d, d) and weights (d,)")
        f_sum += c * f
        b += c * (f @ w)
        mean += c * w
    mean /= sum(coeffs)
    f_sum = (f_sum + f_sum.T) / 2.0

    vals, vecs = np.linalg.eigh(f_sum)
    lam_max = float(vals[-1])
    if lam_max <= 0.0:
        return ConstrainedSolution(mean, 0, np.eye(d))
    keep = vals > _PINV_CUTOFF * lam_max
    v_keep = vecs[:, keep]
    inv_vals = 1.0 / vals[keep]
    correction = v_keep @ (inv_vals * (v_keep.T @ (b - f_sum @ mean)))
    return ConstrainedSolution(mean + correction, int(keep.sum()), vecs[:, ~keep])


def _score_gradient(model: Model, x_row: np.ndarray, y, loss: str) -> np.ndarray:
    """Gradient of the log-likelihood of one example (negated loss gradient)."""
    y_arr = np.array([y]) if np.ndim(y) == 0 else np.asarray(y)[None, :]
    return -models.gradient(model, x_row[None, :], y_arr, loss)


def mc_fisher(model: Model, x: np.ndarray, loss: str, draws: int, seed=0) -> np.ndarray:
    """Monte Carlo estimate of the curvature matrix from sampled labels.

    For each input, labels are drawn from the model's predictive distribution
    and score-gradient outer products are averaged. Gradients come from the
    generic loss-gradient path, not from any closed-form curvature code.
    Unbiased; relative error decays like 1/sqrt(draws).
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    z = models.forward(model, x)
    d = models.param_count(model)
    total = np.zeros((d, d))

    for j in range(n):
        if loss == LOSS_SQUARED:
            z_j = np.atleast_1d(z[j])
            c_out = z_j.shape[0]
            # Rows of the output Jacobian, via score evaluated at y = z + e_c.
            jac = np.stack([
                _score_gradient(model, x[j], z_j + _unit(c_out, c) if c_out > 1 else float(z_j[0] + 1.0), loss)
                for c in range(c_out)
            ])
            eps = rng.standard_normal((draws, c_out))
            second = (eps.T @ eps) / draws  # empirical E[eps eps^T]
            total += jac.T @ second @ jac
        elif loss == LOSS_SOFTMAX:
            p = _softmax_row(np.asarray(z[j]))
            counts = rng.multinomial(draws, p)
            for c, count in enumerate(counts):
                if count == 0:
                    continue
                g = _score_gradient(model, x[j], c, loss)
                total += (count / draws) * np.outer(g, g)
        else:
            raise ValueError(f"unknown loss kind {loss!r}")
    return total / n


def _unit(n: int, c: int) -> np.ndarray:
    e = np.zeros(n)
    e[c] = 1.0
    return e


def _softmax_row(z: np.ndarray) -> np.ndarray:
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def fd_gradient(
    model: Model, x: np.ndarray, y: np.ndarray, loss: str, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of the mean loss in flat coordinates."""
    if not 1e-7 <= h <= 1e-3:
        raise ValueError(f"step h must be in [1e-7, 1e-3], got {h}")
    flat = models.get_flat_params(model)
    grad = np.empty_like(flat)
    for k in range(flat.size):
        bumped = flat.copy()
        bumped[k] = flat[k] + h
        up = models.loss_eval(models.with_flat_params(model, bumped), x, y, loss)
        bumped[k] = flat[k] - h
        down = models.loss_eval(models.with_flat_params(model, bumped), x, y, loss)
        grad[k] = (up - down) / (2.0 * h)
    return grad


@dataclass
class GramEstimate:
    matrix: np.ndarray  # (N, N)
    lambda0: float


def gram_lambda0(x: np.ndarray, mc_samples: int = 20000, seed=0) -> GramEstimate:
    """Sampled Gram matrix of the infinite-width relu feature kernel.

    Entry (k, l) estimates E_w[x_k . x_l * 1{w . x_k >= 0} 1{w . x_l >= 0}]
    over standard Gaussian w; ``lambda0`` is its smallest eigenvalue. A single
    unit-norm point gives the matrix [1/2] exactly in expectation.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    if n > MAX_GRAM_POINTS:
        raise ValueError(f"at most {MAX_GRAM_POINTS} points supported, got {n}")
    if mc_samples < 1:
        raise ValueError(f"mc_samples must be >= 1, got {mc_samples}")
    rng = np.random.default_rng(seed)
    inner = x @ x.T
    acc = np.zeros((n, n))
    # Batch the w draws to bound memory at ~1000 * N booleans per block.
    block = max(1, 100_000 // max(n, 1))
    remaining = mc_samples
    while remaining > 0:
        take = min(block, remaining)
        w = rng.standard_normal((take, x.shape[1]))
        active = (w @ x.T) >= 0.0  # (take, N)
        acc += active.T.astype(np.float64) @ active.astype(np.float64)
        remaining -= take
    gram = inner * (acc / mc_samples)
    vals = np.linalg.eigvalsh((gram + gram.T) / 2.0)
    return GramEstimate(gram, float(vals[0]))
