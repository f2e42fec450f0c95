"""Curvature payloads computed by clients after local training.

All three variants approximate the average over the local inputs of the
covariance of the log-likelihood gradient under the model's own predictive
distribution, which its ``head`` declares: unit-variance Gaussian for the
squared loss (always, on a two-layer net), categorical for softmax. No
function here takes a loss of its own. The covariance is taken exactly, as
an expectation over that distribution; no label is sampled.

Variants:

- :class:`FullFisher`: dense (d, d) matrix; two-layer networks only, where the
  score is residual times feature map, so the matrix is the mean feature
  outer product.
- :class:`DiagFisher`: the diagonal of the same matrix, any architecture.
- :class:`KFACFisher`: per-layer Kronecker factorization A kron B, where A is
  the covariance of bias-augmented layer inputs and B the covariance of
  pre-activation score gradients. Blocks act on the column-major [W | b]
  slices defined in :mod:`oneshot_fl.models`.

For an MLP, K-FAC's B factor and the diagonal come from each layer's
pre-activation scores: a stack s of shape (C, n, out_l) over the C outputs,
with weights w of shape (n, C), giving example n the second moment
sum_c w[n, c] s[c, n] s[c, n]^T. Under softmax w holds the predictive
probabilities and s is centred by its w-mean; under the squared loss w = 1.

Every curvature function takes the client's inputs as one 2-d batch
(n, dim); any other shape raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from .models import LOSS_SOFTMAX, MLP, Model, TwoLayerReLU
from .numerics import kron_matvec

MAX_FULL_DIM = 2000
DEFAULT_KFAC_DAMPING = 1e-4
# Largest remaining diagonal of A - floor I, relative to A's largest diagonal
# entry, at which gram_factor takes the Gram part as exhausted. On the
# raw factors of the bench's one-shot and payload workloads that thin, the
# smallest pivot measured 3e-4 and the largest diagonal entry left 2.7e-14;
# on the 80 dense payloads of its width-sweep workload, L^T L differs from
# the payload by at most 3.2e-15 of its largest diagonal entry.
THIN_FACTOR_TOL = 1e-12


@dataclass
class FullFisher:
    matrix: np.ndarray  # (d, d)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass
class DiagFisher:
    diag: np.ndarray  # (d,)

    @property
    def dim(self) -> int:
        return self.diag.shape[0]


@dataclass
class KFACLayer:
    a: np.ndarray  # (in_dim + 1, in_dim + 1) input factor
    b: np.ndarray  # (out_dim, out_dim) output factor


@dataclass
class KFACFisher:
    layers: list[KFACLayer]

    @property
    def dim(self) -> int:
        return sum(layer.a.shape[0] * layer.b.shape[0] for layer in self.layers)


FisherApprox = FullFisher | DiagFisher | KFACFisher


def full_fisher_two_layer(model: TwoLayerReLU, x: np.ndarray) -> FullFisher:
    """Dense curvature of a two-layer net under the squared loss: exactly the
    mean outer product of the feature map. Requires d = m * dim <= MAX_FULL_DIM.
    """
    if not isinstance(model, TwoLayerReLU):
        raise ValueError("full_fisher_two_layer requires a TwoLayerReLU model")
    d = model.m * model.dim
    if d > MAX_FULL_DIM:
        raise ValueError(f"dense curvature needs m*dim <= {MAX_FULL_DIM}, got {d}")
    phi = models.feature_map(model, x)
    matrix = phi.T @ phi
    matrix /= phi.shape[0]
    return FullFisher(matrix)


def _scores(model: MLP, x: np.ndarray):
    """Bias-augmented layer inputs and the w and per-layer s of the module docstring.

    :func:`models.forward_pass` gives the layer inputs and the relu masks
    that :func:`models.mlp_preact_grads` carries output scores back through,
    in one backward pass of the C stacked one-hot cotangents. Callers label
    the class axis c in einsum: its sums run in label order, and c < n fixes them.
    """
    x = models._as_batch(x)
    z, acts = models.forward_pass(model, x)
    n, c_out = z.shape
    if model.head == LOSS_SOFTMAX and c_out < 2:
        raise ValueError("softmax-ce needs a multi-output model")
    inputs = [np.column_stack([a, np.ones(n)]) for a in [x, *acts.act]]
    s = models.mlp_preact_grads(model, acts, np.repeat(np.eye(c_out)[:, None], n, axis=1))
    if model.head != LOSS_SOFTMAX:  # E[eps eps^T] = I for y ~ N(z, I)
        return inputs, np.ones((n, c_out)), s
    p = models._softmax(z)[0]
    for u in s:  # fresh arrays, centred in place
        u -= np.einsum("nc,cnk->nk", p, u)
    return inputs, p, s


def diag_fisher(model: Model, x: np.ndarray) -> DiagFisher:
    """Diagonal of the curvature matrix in flat-parameter coordinates.

    For a two-layer net it equals the diagonal of
    :func:`full_fisher_two_layer` exactly.
    """
    if isinstance(model, TwoLayerReLU):
        phi = models.feature_map(model, x)
        return DiagFisher((phi**2).mean(axis=0))
    inputs, w, s = _scores(model, x)
    n = inputs[0].shape[0]
    parts = []
    for u, a_aug in zip(s, inputs):
        # (out, in+1): E[g_k^2] * a_i^2 per example; the inputs are ours to square
        g = np.einsum("nc,cnk,cnk->nk", w, u, u).T @ np.square(a_aug, out=a_aug)
        g /= n
        parts.append(g.ravel(order="F"))
    return DiagFisher(np.concatenate(parts))


def kfac_fisher(model: MLP, x: np.ndarray, damping: float = DEFAULT_KFAC_DAMPING) -> KFACFisher:
    """Kronecker-factored curvature: per layer A (inputs) and B (score grads).

    A is the mean outer product of bias-augmented layer inputs; B the mean
    second moment of pre-activation score gradients. ``damping`` adds
    damping * mean(diag) * I to each factor (0 disables; tests comparing
    against exact dense curvature use 0). Each factor is built in place: the
    Gram product is divided by n in its own array and the damping is added to
    its diagonal, in the same operation order as ``a / n + c * np.eye(dim)``.
    :func:`thin_input_factor` inverts this on A: it splits off the damping
    and factors the Gram part, of rank at most n.
    """
    if not isinstance(model, MLP):
        raise ValueError("kfac_fisher requires an MLP")
    if damping < 0:
        raise ValueError(f"damping must be >= 0, got {damping}")
    inputs, w, s = _scores(model, x)
    n = inputs[0].shape[0]
    layers = []
    for u, a_aug in zip(s, inputs):
        # both fresh arrays, ours to change
        layer = KFACLayer(a_aug.T @ a_aug, np.einsum("nc,cnk,cnl->kl", w, u, u))
        for f in (layer.a, layer.b):
            f /= n
            if damping > 0:
                dim = f.shape[0]
                f.flat[:: dim + 1] += damping * max(np.trace(f) / dim, 0.0)
        layers.append(layer)
    return KFACFisher(layers)


def _symmetric(a: np.ndarray) -> bool:
    """Whether a == a^T exactly, compared in 128 x 128 tiles: a transposed
    read of a whole array whose rows are a power of two apart thrashes the
    cache (15 ms against 2.3 ms for a 1024 x 1024 array, on one core)."""
    dim, tile = a.shape[0], 128
    return all(np.array_equal(a[i:i + tile, j:j + tile], a[j:j + tile, i:i + tile].T)
               for i in range(0, dim, tile) for j in range(i, dim, tile))


def gram_factor(a: np.ndarray, floor: float, cap: int,
                out: np.ndarray | None = None) -> np.ndarray | None:
    """Rows lt with ``a`` = floor I + lt^T lt + E, at most ``cap`` of them, or None.

    A pivoted Cholesky of a - floor I takes the rows of lt as its pivots and
    stops once every remaining diagonal entry is at most tol =
    THIN_FACTOR_TOL times a's largest diagonal entry; the Schur complement E
    left then is dropped. None when the pivots run out first, when an entry
    of E's diagonal ends below -tol (a - floor I is not positive
    semidefinite), or when ``a`` is not finite and exactly symmetric. The
    rows are written into ``out`` when given (at least ``cap`` rows of a's
    length), and lt is a view of it.
    """
    a = np.asarray(a, dtype=np.float64)
    dim = a.shape[0]
    if out is None:
        out = np.empty((cap, dim))
    if not (np.isfinite(a).all() and _symmetric(a)):
        return None
    diag = np.diagonal(a)
    remaining = diag - floor
    tol = THIN_FACTOR_TOL * np.abs(diag).max()
    rank = 0
    while remaining.max() > tol:
        if rank == cap:
            return None
        p = int(np.argmax(remaining))
        row = np.matmul(out[:rank, p], out[:rank], out=out[rank])
        np.subtract(a[p], row, out=row)
        row[p] -= floor
        row /= np.sqrt(remaining[p])
        remaining -= np.square(row)
        rank += 1
    if remaining.min() < -tol:
        return None
    return out[:rank]


def thin_input_factor(a: np.ndarray, rank_bound: int, damping: float = DEFAULT_KFAC_DAMPING,
                      out: np.ndarray | None = None) -> tuple[float, np.ndarray] | None:
    """(delta, lt) with ``a`` = delta I + lt^T lt, or None.

    The inverse of :func:`kfac_fisher` on an input factor. That adds
    damping * tr(G) / dim to the diagonal of the Gram part G, so tr(a) =
    (1 + damping) tr(G) gives delta = damping * tr(a) / ((1 + damping) dim).
    :func:`gram_factor` then takes up to ``rank_bound`` pivots of a - delta I.
    None where it does (as for a decoded compressed factor, which is not
    positive semidefinite once its floor is removed), and at once, before
    any pivot, when 2 * rank_bound >= dim: a factor of that many rows would
    cost as much to apply as ``a`` itself.
    """
    a = np.asarray(a, dtype=np.float64)
    dim = a.shape[0]
    if 2 * rank_bound >= dim:
        return None
    delta = damping * np.trace(a) / ((1.0 + damping) * dim)
    lt = gram_factor(a, delta, rank_bound, out)
    return None if lt is None else (delta, lt)


def fisher_matvec(f: FisherApprox, v: np.ndarray) -> np.ndarray:
    """Apply a curvature approximation to a flat parameter vector."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (f.dim,):
        raise ValueError(f"expected vector of length {f.dim}, got {v.shape}")
    if isinstance(f, FullFisher):
        return f.matrix @ v
    if isinstance(f, DiagFisher):
        return f.diag * v
    out = np.empty_like(v)
    offset = 0
    for layer in f.layers:
        size = layer.a.shape[0] * layer.b.shape[0]
        out[offset : offset + size] = kron_matvec(layer.a, layer.b, v[offset : offset + size])
        offset += size
    return out
