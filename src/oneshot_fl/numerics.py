"""Small dense linear-algebra helpers shared by the rest of the package.

Everything here operates on plain float64 numpy arrays. The two entry points
are a matrix-free power iteration for the largest eigenvalue of a symmetric
PSD operator and a Kronecker-product matvec that never materializes the
Kronecker matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Probe used when the deterministic all-ones start stagnates (e.g. the start
# vector is an exact non-dominant eigenvector, or maps to zero).
_RESTART_SEED = 0x5EED


@dataclass
class PowerIterResult:
    """Largest-eigenvalue estimate of a symmetric PSD operator."""

    value: float
    vector: np.ndarray
    converged: bool
    iterations: int


def _power_run(
    apply: Callable[[np.ndarray], np.ndarray],
    v: np.ndarray,
    tol: float,
    max_iters: int,
) -> PowerIterResult:
    value = 0.0
    for it in range(1, max_iters + 1):
        w = np.asarray(apply(v), dtype=np.float64)
        if w.shape != v.shape:
            raise ValueError(f"operator returned shape {w.shape}, expected {v.shape}")
        value = float(v @ w)
        residual = np.linalg.norm(w - value * v)
        if residual <= tol * (abs(value) + 1.0):
            return PowerIterResult(value, v, True, it)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            # Operator annihilates the iterate; eigenvalue estimate is 0.
            return PowerIterResult(0.0, v, True, it)
        v = w / norm_w
    return PowerIterResult(value, v, False, max_iters)


def power_iteration_max_eig(
    apply: Callable[[np.ndarray], np.ndarray],
    dim: int,
    tol: float = 1e-10,
    max_iters: int = 5000,
) -> PowerIterResult:
    """Estimate the largest eigenvalue of a symmetric PSD linear operator.

    ``apply`` maps a length-``dim`` vector to its image under the operator.
    The iteration starts from the deterministic all-ones direction and always
    performs one seeded random restart: if the first run landed on a
    non-dominant invariant direction (possible when the start vector is an
    exact eigenvector), the restart escapes it. The larger Rayleigh quotient
    of the two runs wins.

    Returns a :class:`PowerIterResult`; ``converged`` is False when neither
    run met the residual test ``|Av - lambda*v| <= tol * (lambda + 1)``.
    """
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    v0 = np.ones(dim, dtype=np.float64) / np.sqrt(dim)
    first = _power_run(apply, v0, tol, max_iters)

    rng = np.random.default_rng(_RESTART_SEED)
    v1 = rng.standard_normal(dim)
    v1 /= np.linalg.norm(v1)
    second = _power_run(apply, v1, tol, max_iters)

    best = first if first.value >= second.value else second
    return best


def kron_matvec(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Compute ``(a kron b) @ x`` without forming the Kronecker product.

    Uses the column-major vec identity (A kron B) vec(V) = vec(B V A^T),
    so ``x`` is interpreted as the column-major flattening of a matrix with
    ``b.shape[1]`` rows and ``a.shape[1]`` columns. Two small GEMMs replace
    the (ma*mb) x (na*nb) product.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("a and b must be 2-d matrices")
    na, nb = a.shape[1], b.shape[1]
    if x.shape != (na * nb,):
        raise ValueError(f"x must have length {na * nb}, got {x.shape}")
    v = x.reshape((nb, na), order="F")
    return (b @ v @ a.T).reshape(-1, order="F")
