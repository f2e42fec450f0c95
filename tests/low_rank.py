"""Truncated SVD with its discarded energy: the reference that the K-FAC
codec's per-round decomposition is checked against."""

from dataclasses import dataclass

import numpy as np


@dataclass
class LowRankFactors:
    """Truncated SVD a ~ u @ diag(s) @ vt, plus the discarded energy.

    ``error`` is the Frobenius norm of the residual, i.e. the root of the sum
    of squared singular values beyond the first k.
    """

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray
    error: float

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.s) @ self.vt


def top_k_svd(a: np.ndarray, k: int) -> LowRankFactors:
    """Best rank-``k`` approximation of a 2-d matrix via the SVD.

    Raises ValueError when ``k`` is not in ``[1, min(a.shape)]``.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    max_k = min(a.shape)
    if not 1 <= k <= max_k:
        raise ValueError(f"k must be in [1, {max_k}], got {k}")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    error = float(np.sqrt(np.sum(s[k:] ** 2)))
    return LowRankFactors(u[:, :k].copy(), s[:k].copy(), vt[:k].copy(), error)
