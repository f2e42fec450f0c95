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

For an MLP, K-FAC's B factor and the diagonal come from each layer's
pre-activation scores: a stack s of shape (R, n, out_l) with weights w of
shape (n, R), giving example n the second moment sum_r w[n, r] s[r, n] s[r, n]^T.
Expected mode takes r over the C classes (w the predictive probabilities and
s centred by its w-mean under softmax, w = 1 under the squared loss); sampled
mode takes r over the draws, with w = 1/draws.
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
    matrix = weighted.T @ phi
    matrix /= n
    return FullFisher(matrix)


def _scores(model: MLP, x: np.ndarray, loss: str, mode: str, draws: int, seed):
    """Bias-augmented layer inputs and the (w, s) chunks of the module docstring.

    :func:`models.forward_pass` gives the layer inputs and the relu masks
    that :func:`models.mlp_preact_grads` carries output scores back through.
    Expected mode is one chunk, from one backward pass of the C stacked one-hot
    cotangents; sampled mode yields one chunk per draw, one at a time. Callers
    label r as c in einsum: its sums run in label order, and c < n fixes them.
    """
    models._check_loss(loss)
    _check_mode(mode)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    z, acts = models.forward_pass(model, x)
    n, c_out = z.shape
    if loss == LOSS_SOFTMAX and c_out < 2:
        raise ValueError("softmax-ce needs a multi-output model")
    inputs = [np.column_stack([a, np.ones(n)]) for a in [x, *acts.act]]
    p = models._softmax(z)[0] if loss == LOSS_SOFTMAX else None
    if mode == "expected":
        s = models.mlp_preact_grads(model, acts, np.repeat(np.eye(c_out)[:, None], n, axis=1))
        if p is None:  # E[eps eps^T] = I for y ~ N(z, I)
            return inputs, [(np.ones((n, c_out)), s)]
        return inputs, [(p, [u - np.einsum("nc,cnk->nk", p, u) for u in s])]
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")

    def sampled():
        rng = np.random.default_rng(seed)
        w = np.full((n, 1), 1.0 / draws)
        cum = None if p is None else np.cumsum(p, axis=1)
        for _ in range(draws):
            if p is None:
                dz = rng.standard_normal((n, c_out))  # score of y ~ N(z, I)
            else:
                dz = -p.copy()  # score of a label drawn from p
                dz[np.arange(n), (rng.random((n, 1)) > cum).sum(axis=1)] += 1.0
            yield w, [dh[None] for dh in models.mlp_preact_grads(model, acts, dz)]

    return inputs, sampled()


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
    inputs, chunks = _scores(model, x, loss, mode, draws, seed)
    sq = [0.0] * len(inputs)  # per layer, (n, out_l) squared scores
    for w, s in chunks:
        sq = [m + np.einsum("nc,cnk,cnk->nk", w, u, u) for m, u in zip(sq, s)]
    n = inputs[0].shape[0]
    # (out, in+1) per layer: E[g_k^2] * a_i^2 per example
    parts = [((sg.T @ a_aug**2) / n).ravel(order="F") for sg, a_aug in zip(sq, inputs)]
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
    inputs, chunks = _scores(model, x, loss, mode, draws, seed)
    b_sums = [0.0] * len(inputs)  # per layer, (out_l, out_l) summed over examples
    for w, s in chunks:
        b_sums = [m + np.einsum("nc,cnk,cnl->kl", w, u, u) for m, u in zip(b_sums, s)]
    n = inputs[0].shape[0]
    layers = []
    for bsum, a_aug in zip(b_sums, inputs):
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
