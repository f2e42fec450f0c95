"""Curvature payloads computed by clients after local training.

All three variants approximate the average over the local inputs of the
covariance of the log-likelihood gradient under the model's own predictive
distribution (unit-variance Gaussian for the squared loss, categorical for
softmax). ``mode="expected"`` evaluates that covariance analytically;
``mode="sampled"`` draws labels from the predictive distribution and averages
outer products of the resulting score vectors.

Variants:

- :class:`FullFisher`: dense (d, d) matrix; two-layer networks only, where the
  score is residual times feature map, so the expected matrix is the mean
  feature outer product.
- :class:`DiagFisher`: the diagonal of the same matrix, any architecture.
- :class:`KFACFisher`: per-layer Kronecker factorization A kron B, where A is
  the covariance of bias-augmented layer inputs and B the covariance of
  pre-activation score gradients. Blocks act on the column-major [W | b]
  slices defined in :mod:`oneshot_fl.models`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from .models import LOSS_SOFTMAX, LOSS_SQUARED, MLP, Model, TwoLayerReLU
from .numerics import kron_matvec

MAX_FULL_DIM = 2000
DEFAULT_KFAC_DAMPING = 1e-4

_MODES = ("expected", "sampled")


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


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {_MODES}")


def _sample_weights(n: int, mode: str, draws: int, seed) -> np.ndarray | None:
    """Per-example weights replacing the unit Gaussian second moment.

    Expected mode uses E[eps^2] = 1 exactly (None); sampled mode returns the
    empirical mean of eps^2 over ``draws`` noise draws per example.
    """
    if mode == "expected":
        return None
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((n, draws))
    return (eps**2).mean(axis=1)


def full_fisher_two_layer(
    model: TwoLayerReLU,
    x: np.ndarray,
    mode: str = "expected",
    draws: int = 1,
    seed=0,
) -> FullFisher:
    """Dense curvature of a two-layer net under the squared loss.

    Expected mode gives exactly the mean outer product of the feature map.
    Requires d = m * dim <= MAX_FULL_DIM.
    """
    if not isinstance(model, TwoLayerReLU):
        raise ValueError("full_fisher_two_layer requires a TwoLayerReLU model")
    _check_mode(mode)
    d = model.m * model.dim
    if d > MAX_FULL_DIM:
        raise ValueError(f"dense curvature needs m*dim <= {MAX_FULL_DIM}, got {d}")
    phi = models.feature_map(model, np.atleast_2d(np.asarray(x, dtype=np.float64)))
    n = phi.shape[0]
    w = _sample_weights(n, mode, draws, seed)
    weighted = phi if w is None else phi * w[:, None]
    return FullFisher((weighted.T @ phi) / n)


def _class_grad_stacks(model: MLP, cache: models.MLPCache) -> list[list[np.ndarray]]:
    """Pre-activation gradients of each output coordinate, per layer.

    Returns stacks[c][l] of shape (n, out_l): the per-example gradient of
    output coordinate c with respect to layer l's pre-activation.
    """
    n, c_out = cache.z.shape
    stacks = []
    for c in range(c_out):
        dz = np.zeros((n, c_out))
        dz[:, c] = 1.0
        stacks.append(models.mlp_preact_grads(model, cache, dz))
    return stacks


def _score_second_moments(
    model: MLP,
    x: np.ndarray,
    loss: str,
    mode: str,
    draws: int,
    seed,
    want_outer: bool,
) -> tuple[models.MLPCache, list[np.ndarray]]:
    """Per-layer second moments of pre-activation score gradients.

    With ``want_outer`` the entries are (out_l, out_l) matrices summed over
    examples; otherwise (n, out_l) arrays of per-example squared coordinates.
    Both are divided by n by the callers.
    """
    models._check_loss(loss)
    _check_mode(mode)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    cache = models.mlp_forward_cache(model, x)
    n, c_out = cache.z.shape
    if loss == LOSS_SOFTMAX and c_out < 2:
        raise ValueError("softmax-ce needs a multi-output model")
    n_layers = len(model.weights)

    if mode == "sampled":
        rng = np.random.default_rng(seed)
        if draws < 1:
            raise ValueError(f"draws must be >= 1, got {draws}")
        if loss == LOSS_SQUARED:
            moments = None
            for _ in range(draws):
                dz = rng.standard_normal((n, c_out))  # score of y ~ N(z, I)
                dhs = models.mlp_preact_grads(model, cache, dz)
                terms = [dh.T @ dh if want_outer else dh**2 for dh in dhs]
                moments = terms if moments is None else [m + t for m, t in zip(moments, terms)]
            return cache, [m / draws for m in moments]
        p = models._softmax(cache.z)
        cum = np.cumsum(p, axis=1)
        moments = None
        for _ in range(draws):
            u = rng.random((n, 1))
            labels = (u > cum).sum(axis=1)
            dz = -p.copy()
            dz[np.arange(n), labels] += 1.0  # score of sampled label
            dhs = models.mlp_preact_grads(model, cache, dz)
            terms = [dh.T @ dh if want_outer else dh**2 for dh in dhs]
            moments = terms if moments is None else [m + t for m, t in zip(moments, terms)]
        return cache, [m / draws for m in moments]

    # Expected mode: covariance over the predictive distribution, computed
    # from the per-output-coordinate gradient stacks.
    stacks = _class_grad_stacks(model, cache)
    moments = []
    for l in range(n_layers):
        u = np.stack([stacks[c][l] for c in range(c_out)])  # (C, n, out_l)
        if loss == LOSS_SQUARED:
            # E[(J^T eps)(J^T eps)^T] = sum_c u_c u_c^T
            if want_outer:
                moments.append(np.einsum("cnk,cnl->kl", u, u))
            else:
                moments.append(np.einsum("cnk,cnk->nk", u, u))
        else:
            p = models._softmax(cache.z)  # (n, C)
            ubar = np.einsum("nc,cnk->nk", p, u)
            centered = u - ubar[None, :, :]
            if want_outer:
                moments.append(np.einsum("nc,cnk,cnl->kl", p, centered, centered))
            else:
                moments.append(np.einsum("nc,cnk,cnk->nk", p, centered, centered))
    return cache, moments


def diag_fisher(
    model: Model,
    x: np.ndarray,
    loss: str = LOSS_SQUARED,
    mode: str = "expected",
    draws: int = 1,
    seed=0,
) -> DiagFisher:
    """Diagonal of the curvature matrix in flat-parameter coordinates.

    For a two-layer net under the squared loss the expected-mode diagonal
    equals the diagonal of :func:`full_fisher_two_layer` exactly.
    """
    models._check_loss(loss)
    _check_mode(mode)
    if isinstance(model, TwoLayerReLU):
        if loss != LOSS_SQUARED:
            raise ValueError("TwoLayerReLU supports the squared loss only")
        phi = models.feature_map(model, np.atleast_2d(np.asarray(x, dtype=np.float64)))
        n = phi.shape[0]
        w = _sample_weights(n, mode, draws, seed)
        sq = phi**2 if w is None else (phi**2) * w[:, None]
        return DiagFisher(sq.mean(axis=0))
    cache, sq_moments = _score_second_moments(model, x, loss, mode, draws, seed, want_outer=False)
    n = cache.z.shape[0]
    parts = []
    for sg, a_in in zip(sq_moments, cache.inputs):
        a_aug = np.column_stack([a_in, np.ones(a_in.shape[0])])
        block = (sg.T @ a_aug**2) / n  # (out, in+1): E[g_k^2] * a_i^2 per example
        parts.append(block.ravel(order="F"))
    return DiagFisher(np.concatenate(parts))


def kfac_fisher(
    model: MLP,
    x: np.ndarray,
    loss: str = LOSS_SQUARED,
    mode: str = "expected",
    draws: int = 1,
    seed=0,
    damping: float = DEFAULT_KFAC_DAMPING,
) -> KFACFisher:
    """Kronecker-factored curvature: per layer A (inputs) and B (score grads).

    A is the mean outer product of bias-augmented layer inputs; B the mean
    second moment of pre-activation score gradients. ``damping`` adds
    damping * mean(diag) * I to each factor (0 disables; tests comparing
    against exact dense curvature use 0).
    """
    if not isinstance(model, MLP):
        raise ValueError("kfac_fisher requires an MLP")
    if damping < 0:
        raise ValueError(f"damping must be >= 0, got {damping}")
    cache, outer_moments = _score_second_moments(model, x, loss, mode, draws, seed, want_outer=True)
    n = cache.z.shape[0]
    layers = []
    for bsum, a_in in zip(outer_moments, cache.inputs):
        a_aug = np.column_stack([a_in, np.ones(a_in.shape[0])])
        a = (a_aug.T @ a_aug) / n
        b = bsum / n
        if damping > 0:
            a = a + damping * max(np.trace(a) / a.shape[0], 0.0) * np.eye(a.shape[0])
            b = b + damping * max(np.trace(b) / b.shape[0], 0.0) * np.eye(b.shape[0])
        layers.append(KFACLayer(a, b))
    return KFACFisher(layers)


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
