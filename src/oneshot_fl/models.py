"""Two-layer ReLU networks and small MLPs, with mean-loss SGD training.

Flat-parameter conventions used everywhere downstream:

- ``TwoLayerReLU``: only the first-layer matrix (m, dim) is trained; it is
  flattened row-major, so unit r owns entries [r*dim, (r+1)*dim). The fixed
  +/-1 output signs are architecture constants, not part of the flat vector.
- ``MLP``: concatenation over layers of the column-major flattening of the
  (out_dim, in_dim + 1) block [W | b]. Kronecker-factored curvature blocks
  act on exactly these slices via (A kron B) vec(V) = vec(B V A^T).

Training never forms the flat vector. ``sgd_train`` keeps each parameter
array as its own C-contiguous buffer (``[W]``, or ``W_l, b_l`` per MLP layer)
and steps all of them in place. Intermediates live in one buffer type,
:class:`Activations`: per layer the pre-activation ``h``, per hidden layer
its relu output ``act`` and the cotangent ``d`` of its pre-activation.
:func:`forward_pass` fills ``h`` and ``act``, and training's backward pass
fills ``d`` through :func:`mlp_preact_grads`; training allocates the
buffers once, uses them as they are for every batch that fills them and
cuts them only for a smaller last batch, evaluation and curvature get fresh
ones. The column-major [W | b] view would change the rounding of the
matrix products, and trained weights pass through the quantizer, so layout
and operation order are part of the result: the loop reproduces the
flat-vector loop bit for bit.

The two-layer gradient makes two passes over the (N, m) array (relu mask,
then its scaling by ``residual * (1 / sqrt(m))``) and applies the +/-1
output signs to the (m, dim) product ``coef.T @ x``. A sign and a 0/1 mask
commute through every rounding, so this gives the weights of the
flat-vector loop, which scales the mask by the signs in a third pass.

Loss kinds: ``"squared"`` treats the output as the mean of a unit-variance
Gaussian (0.5 * |y - f|^2 per example); ``"softmax-ce"`` is the categorical
likelihood over integer labels. A model declares its own loss in ``head``:
the two-layer net is fixed to the squared loss, an MLP's head is chosen when
it is built. Training, scoring and curvature read it from there.

Activation conventions: the two-layer feature map and gradient use an
indicator active at zero (>= 0), so the squared-loss gradient is exactly
residual times feature map. MLP backprop uses the zero subgradient for relu
at zero (> 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOSS_SQUARED = "squared"
LOSS_SOFTMAX = "softmax-ce"
VALID_LOSSES = (LOSS_SQUARED, LOSS_SOFTMAX)

# Parameter-norm ceiling beyond which training is declared divergent even if
# the loss is still finite.
_DIVERGE_NORM = 1e12


@dataclass
class TwoLayerReLU:
    """f(x) = (1/sqrt(m)) * sum_r signs[r] * relu(x . weights[r])."""

    weights: np.ndarray  # (m, dim), trained
    signs: np.ndarray  # (m,), fixed +/-1
    head = LOSS_SQUARED  # the loss kind; a class constant, not a field

    @property
    def m(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


@dataclass
class MLP:
    """Fully connected relu network; identity output layer, all params trained."""

    weights: list[np.ndarray]  # (out, in) per layer
    biases: list[np.ndarray]  # (out,) per layer
    head: str = LOSS_SOFTMAX  # the loss kind it is trained, scored and curved under

    def __post_init__(self):
        _check_loss(self.head)

    @property
    def dims(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]


Model = TwoLayerReLU | MLP


@dataclass
class TrainConfig:
    eta: float
    epochs_or_steps: int
    batch_size: int
    momentum: float = 0.0


@dataclass
class TrainResult:
    model: Model
    diverged: bool
    steps: int
    final_loss: float


def _check_loss(loss: str) -> None:
    if loss not in VALID_LOSSES:
        raise ValueError(f"unknown loss kind {loss!r}, expected one of {VALID_LOSSES}")


def init_two_layer(m: int, dim: int, kappa: float, seed) -> TwoLayerReLU:
    """Random two-layer net: weights ~ N(0, kappa), signs +/-1 w.p. 1/2.

    ``kappa`` is the variance of the entries (std sqrt(kappa)). Weights are
    drawn before signs, so the draw is reproducible given the seed.
    """
    if m < 1 or dim < 1:
        raise ValueError(f"m and dim must be positive, got m={m} dim={dim}")
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((m, dim)) * np.sqrt(kappa)
    signs = rng.integers(0, 2, size=m).astype(np.float64) * 2.0 - 1.0
    return TwoLayerReLU(weights, signs)


def init_mlp(dims: list[int], seed, head: str = LOSS_SOFTMAX) -> MLP:
    """He-initialized MLP: W ~ N(0, 2/fan_in), biases zero."""
    if len(dims) < 2:
        raise ValueError(f"dims needs an input and an output size, got {dims}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.standard_normal((fan_out, fan_in)) * np.sqrt(2.0 / fan_in))
        biases.append(np.zeros(fan_out))
    return MLP(weights, biases, head)


def _as_batch(x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :], True
    if x.ndim != 2:
        raise ValueError(f"inputs must be 1-d or 2-d, got ndim={x.ndim}")
    return x, False


@dataclass
class Activations:
    """Forward/backward buffers for batches of up to ``rows`` examples.

    Per layer the pre-activation ``h``; per hidden layer its relu output
    ``act`` (the next layer's input) and the cotangent ``d`` of its
    pre-activation. The two-layer net has one hidden layer; its output is
    the signed sum of ``act`` and has no buffer.
    """

    h: list[np.ndarray]
    act: list[np.ndarray]
    d: list[np.ndarray]

    @classmethod
    def of(cls, model: Model, rows: int) -> Activations:
        if isinstance(model, TwoLayerReLU):
            outs = hidden = [model.m]
        else:
            outs = [w.shape[0] for w in model.weights]
            hidden = outs[:-1]
        return cls(*([np.empty((rows, k)) for k in ks] for ks in (outs, hidden, hidden)))

    def rows(self, n: int) -> Activations:
        """The buffers of the first ``n`` rows, as views."""
        return Activations(*([a[:n] for a in part] for part in (self.h, self.act, self.d)))


def forward_pass(
    model: Model, x: np.ndarray, acts: Activations | None = None,
) -> tuple[np.ndarray, Activations]:
    """Output of a batch ``x`` (N, dim) and the :class:`Activations` holding
    its intermediates: ``acts`` as given when N fills them, ``acts`` cut to
    N rows when it is larger, or fresh buffers when it is None. The output
    is (N,) for TwoLayerReLU and (N, C) for MLP, where it is a view of the
    last ``h``."""
    n = x.shape[0]
    if acts is None:
        acts = Activations.of(model, n)
    elif acts.h[0].shape[0] != n:
        acts = acts.rows(n)
    if isinstance(model, TwoLayerReLU):
        np.matmul(x, model.weights.T, out=acts.h[0])
        return np.maximum(acts.h[0], 0.0, out=acts.act[0]) @ model.signs / math.sqrt(model.m), acts
    a = x
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = np.matmul(a, w.T, out=acts.h[l])
        h += b
        if l < len(acts.act):
            a = np.maximum(h, 0.0, out=acts.act[l])
    return h, acts


def mlp_preact_grads(model: MLP, acts: Activations, dz: np.ndarray,
                     out: list[np.ndarray] | None = None) -> list[np.ndarray]:
    """Per-example pre-activation cotangents for every layer from the output
    cotangent ``dz``, of shape (N, C) or stacked (R, N, C); no reduction.
    The hidden layers' cotangents are written into ``out`` when it is given
    (``acts.d``), else into fresh arrays."""
    grads = [dz] * len(model.weights)
    for l in range(len(model.weights) - 1, 0, -1):
        dh = np.matmul(grads[l], model.weights[l], out=None if out is None else out[l - 1])
        dh *= acts.h[l - 1] > 0.0
        grads[l - 1] = dh
    return grads


def forward(model: Model, x: np.ndarray) -> np.ndarray:
    """Network output: (N,) for TwoLayerReLU, (N, C) for MLP.

    1-d input gives a scalar / (C,) respectively.
    """
    x, single = _as_batch(x)
    z, _ = forward_pass(model, x)
    return z[0] if single else z


def feature_map(model: TwoLayerReLU, x: np.ndarray) -> np.ndarray:
    """Gradient of the two-layer output in flat coordinates.

    phi(x)[r*dim:(r+1)*dim] = signs[r]/sqrt(m) * x * 1{x . w_r >= 0}, so the
    output satisfies f(x) = phi(x) . flat_weights exactly.
    """
    if not isinstance(model, TwoLayerReLU):
        raise ValueError("feature_map is defined for TwoLayerReLU only")
    x, single = _as_batch(x)
    mask = forward_pass(model, x)[1].h[0] >= 0.0  # (N, m), active at zero
    coef = mask * (model.signs / np.sqrt(model.m))  # (N, m)
    phi = coef[:, :, None] * x[:, None, :]  # (N, m, dim)
    phi = phi.reshape(x.shape[0], model.m * model.dim)
    return phi[0] if single else phi


def _softmax(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax probabilities of each row of ``z`` (N, C) and its log-sum-exp,
    from one exponential of the max-shifted rows."""
    zmax = z.max(axis=1)
    e = np.exp(z - zmax[:, None])
    total = e.sum(axis=1)
    lse = zmax + np.log(total)
    e /= total[:, None]
    return e, lse


def _check_targets(model: Model, n: int, y: np.ndarray) -> np.ndarray:
    """``y`` checked against the head and the output of ``model`` on ``n``
    examples: int64 labels of shape (n,) in range for softmax-ce, float64
    targets of the output's shape for the squared loss (a 1-d ``y`` serves a
    one-output MLP). Raises ValueError otherwise."""
    shape = (n,) if isinstance(model, TwoLayerReLU) else (n, model.out_dim)
    if model.head == LOSS_SOFTMAX:
        if shape[1] < 2:
            raise ValueError("softmax-ce needs a multi-output model")
        y = np.asarray(y)
        if y.shape != (n,):
            raise ValueError(f"labels must have shape ({n},), got {y.shape}")
        if y.min() < 0 or y.max() >= shape[1]:
            raise ValueError("label out of range for model output width")
        return y.astype(np.int64)
    y = np.asarray(y, dtype=np.float64)
    if y.shape == (n,) and shape == (n, 1):
        return y[:, None]
    if y.shape != shape:
        raise ValueError(f"targets must have shape {shape}, got {y.shape}")
    return y


def _loss(z: np.ndarray, y: np.ndarray, loss: str) -> tuple[float, np.ndarray]:
    """Mean loss over the batch and the cotangent of the summed loss with
    respect to the output ``z``, for targets checked by :func:`_check_targets`.
    The mean is the sum over examples divided by N, as ``np.mean`` takes it."""
    n = z.shape[0]
    if loss == LOSS_SQUARED:
        dz = z - y
        per_example = dz**2 if dz.ndim == 1 else np.sum(dz**2, axis=1)
        return float(0.5 * (np.add.reduce(per_example) / n)), dz
    dz, lse = _softmax(z)
    dz[np.arange(n), y] -= 1.0
    return float(np.add.reduce(lse - z[np.arange(n), y]) / n), dz


def loss_eval(model: Model, x: np.ndarray, y: np.ndarray) -> float:
    """Mean per-example loss of the model's head over the batch."""
    z, _ = forward_pass(model, _as_batch(x)[0])
    return _loss(z, _check_targets(model, z.shape[0], y), model.head)[0]


def accuracy_eval(model: MLP, x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of examples whose argmax output matches the integer label."""
    x, _ = _as_batch(x)
    z = forward(model, x)
    if z.ndim != 2 or z.shape[1] < 2:
        raise ValueError("accuracy_eval needs a multi-output classifier")
    y = np.asarray(y).astype(np.int64)
    return float(np.mean(z.argmax(axis=1) == y))


def get_flat_params(model: Model) -> np.ndarray:
    if isinstance(model, TwoLayerReLU):
        return model.weights.ravel().copy()
    parts = [
        np.column_stack([w, b]).ravel(order="F")
        for w, b in zip(model.weights, model.biases)
    ]
    return np.concatenate(parts)


def param_count(model: Model) -> int:
    if isinstance(model, TwoLayerReLU):
        return model.weights.size
    return sum(w.size + b.size for w, b in zip(model.weights, model.biases))


def with_flat_params(model: Model, flat: np.ndarray) -> Model:
    """New model of the same architecture with parameters taken from ``flat``."""
    flat = np.asarray(flat, dtype=np.float64)
    if flat.shape != (param_count(model),):
        raise ValueError(f"expected {param_count(model)} parameters, got {flat.shape}")
    if isinstance(model, TwoLayerReLU):
        return TwoLayerReLU(flat.reshape(model.weights.shape).copy(), model.signs.copy())
    weights, biases = [], []
    offset = 0
    for w in model.weights:
        out, fan_in = w.shape
        block = flat[offset : offset + out * (fan_in + 1)].reshape((out, fan_in + 1), order="F")
        weights.append(block[:, :fan_in].copy())
        biases.append(block[:, fan_in].copy())
        offset += out * (fan_in + 1)
    return MLP(weights, biases, model.head)


def layer_slices(model: MLP) -> list[tuple[int, int, int]]:
    """Per-layer (offset, out_dim, in_dim + 1) into the flat parameter vector."""
    out = []
    offset = 0
    for w in model.weights:
        rows, cols = w.shape
        out.append((offset, rows, cols + 1))
        offset += rows * (cols + 1)
    return out


def _param_arrays(model: Model) -> list[np.ndarray]:
    """The trained parameter arrays, one per entry: ``[W]`` for the two-layer
    net, ``[W_1, b_1, W_2, b_2, ...]`` for an MLP."""
    if isinstance(model, TwoLayerReLU):
        return [model.weights]
    return [p for wb in zip(model.weights, model.biases) for p in wb]


def _with_arrays(model: Model, params: list[np.ndarray]) -> Model:
    """``model``'s architecture around ``params`` (laid out as by
    :func:`_param_arrays`), without copying them."""
    if isinstance(model, TwoLayerReLU):
        return TwoLayerReLU(params[0], model.signs)
    return MLP(params[0::2], params[1::2], model.head)


def _loss_and_grad(
    model: Model, x: np.ndarray, y: np.ndarray,
    grads: list[np.ndarray], acts: Activations | None = None,
) -> float:
    """Mean loss over the batch, for targets checked by :func:`_check_targets`;
    writes its gradient into ``grads`` (laid out as by :func:`_param_arrays`)
    and the intermediates into ``acts``. What a call still allocates is
    per-example: vectors, the (N, C) output-layer arrays and one relu mask
    per hidden layer.

    Two-layer order: the ``>= 0`` mask is written into ``acts.d[0]`` and
    scaled in place by ``u = residual * (1 / sqrt(m))``; the (m, dim)
    product ``coef.T @ x`` is then multiplied by the signs and divided by N.
    Scaling the mask by ``signs / sqrt(m)`` and then by the residual before
    the product gives the same bits, since a +/-1 factor and a 0/1 factor
    commute through every rounding, fused multiply-adds included. Only the
    sign of an all-zero gradient row can differ, and that reaches no weight."""
    n = x.shape[0]
    z, acts = forward_pass(model, x, acts)
    loss_val, dz = _loss(z, y, model.head)
    if isinstance(model, TwoLayerReLU):
        coef = np.greater_equal(acts.h[0], 0.0, out=acts.d[0])
        dz *= 1.0 / math.sqrt(model.m)
        coef *= dz[:, None]
        grad = np.matmul(coef.T, x, out=grads[0])
        grad *= model.signs[:, None]  # now n * mean residual * feature map
        grad /= n
        return loss_val
    dz /= n
    inputs = [x, *acts.act]
    for l, dh in enumerate(mlp_preact_grads(model, acts, dz, out=acts.d)):
        np.matmul(dh.T, inputs[l], out=grads[2 * l])
        np.sum(dh, axis=0, out=grads[2 * l + 1])
    return loss_val


def gradient(model: Model, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Flat gradient of the mean loss of the model's head over the given example(s)."""
    x, _ = _as_batch(x)
    y = _check_targets(model, x.shape[0], y)
    grads = [np.empty(p.shape) for p in _param_arrays(model)]
    _loss_and_grad(model, x, y, grads)
    return get_flat_params(_with_arrays(model, grads))


def sgd_train(
    model: Model,
    x: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    seed=0,
) -> TrainResult:
    """SGD with momentum on the mean loss of the model's head.

    When ``cfg.batch_size >= n`` the loop runs ``cfg.epochs_or_steps``
    full-batch gradient steps (the deterministic regime the merging theory
    assumes); otherwise it runs that many epochs of shuffled mini-batches,
    one permutation per epoch, sliced from one gather of the inputs. The
    targets are checked once per call, against the head and the model's
    output on all n examples, so bad targets raise ValueError before any
    step, even with zero steps; the final loss reuses the checked targets.

    The loop works on each parameter array in place: current and next
    parameters, velocity, gradient and :class:`Activations` are
    allocated once per call, one C-contiguous array per entry of
    :func:`_param_arrays`, never as the flat vector, and so are the model
    wrappers around the current and next parameters. Each step computes
    ``v = momentum * v + g`` and ``next = current - eta * v`` in that order,
    so the iterates are bit-identical to stepping the flat vector.

    A non-finite loss aborts training, and so does a next iterate whose
    norm is not at most 1e12 (a NaN or inf in the gradient or the
    parameters fails that test too). Either returns the last verified
    iterate with ``diverged=True`` and the loss of the aborted step; a
    verified step becomes current by swapping the two parameter buffers
    together with their wrappers.
    """
    if cfg.eta <= 0:
        raise ValueError(f"eta must be positive, got {cfg.eta}")
    if not 0.0 <= cfg.momentum < 1.0:
        raise ValueError(f"momentum must be in [0, 1), got {cfg.momentum}")
    if cfg.epochs_or_steps < 0:
        raise ValueError(f"epochs_or_steps must be >= 0, got {cfg.epochs_or_steps}")
    if cfg.batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {cfg.batch_size}")
    x, _ = _as_batch(x)
    n = x.shape[0]
    y = _check_targets(model, n, y)
    rng = np.random.default_rng(seed)

    if isinstance(model, TwoLayerReLU):  # the result shares no array with the input
        model = TwoLayerReLU(model.weights, model.signs.copy())
    current = [np.array(p, dtype=np.float64, order="C") for p in _param_arrays(model)]
    following = [np.empty_like(p) for p in current]
    velocity = [np.zeros_like(p) for p in current]
    grads = [np.empty_like(p) for p in current]
    current_model, following_model = _with_arrays(model, current), _with_arrays(model, following)
    acts = Activations.of(model, min(cfg.batch_size, n))
    steps = 0

    def batches():
        if cfg.batch_size >= n:
            for _ in range(cfg.epochs_or_steps):
                yield x, y
        else:
            for _ in range(cfg.epochs_or_steps):
                perm = rng.permutation(n)
                xp, yp = x[perm], y[perm]
                for start in range(0, n, cfg.batch_size):
                    yield xp[start : start + cfg.batch_size], yp[start : start + cfg.batch_size]

    for xb, yb in batches():
        loss_val = _loss_and_grad(current_model, xb, yb, grads, acts)
        if not math.isfinite(loss_val):
            return TrainResult(current_model, True, steps, loss_val)
        sq_norm = 0.0
        for p, p_next, v, g in zip(current, following, velocity, grads):
            v *= cfg.momentum
            v += g
            np.multiply(v, cfg.eta, out=p_next)
            np.subtract(p, p_next, out=p_next)
            sq_norm += float(np.vdot(p_next, p_next))
        if not math.sqrt(sq_norm) <= _DIVERGE_NORM:
            return TrainResult(current_model, True, steps, loss_val)
        current, following = following, current
        current_model, following_model = following_model, current_model
        steps += 1
    final_loss = _loss(forward_pass(current_model, x)[0], y, model.head)[0]
    return TrainResult(current_model, False, steps, final_loss)
