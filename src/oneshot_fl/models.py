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
and steps all of them in place; the forward/backward pass writes gradients
and intermediates into buffers it is given. The column-major [W | b] view
would change the rounding of the matrix products, and trained weights pass
through the quantizer, so layout and operation order are part of the result:
the loop reproduces the flat-vector loop bit for bit.

Loss kinds: ``"squared"`` treats the output as the mean of a unit-variance
Gaussian (0.5 * |y - f|^2 per example); ``"softmax-ce"`` is the categorical
likelihood over integer labels.

Activation conventions: the two-layer feature map and gradient use an
indicator active at zero (>= 0), so the squared-loss gradient is exactly
residual times feature map. MLP backprop uses the zero subgradient for relu
at zero (> 0).
"""

from __future__ import annotations

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
    head: str = LOSS_SOFTMAX  # loss kind the network is meant for

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
    _check_loss(head)
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
class MLPCache:
    z: np.ndarray  # (N, C) network output
    inputs: list[np.ndarray]  # layer inputs a_{l-1}, (N, in_l) each
    preacts: list[np.ndarray]  # pre-activations h_l, (N, out_l) each


def mlp_forward_cache(model: MLP, x: np.ndarray) -> MLPCache:
    x, _ = _as_batch(x)
    inputs, preacts = [], []
    a = x
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        inputs.append(a)
        h = a @ w.T + b
        preacts.append(h)
        a = h if l == last else np.maximum(h, 0.0)
    return MLPCache(z=a, inputs=inputs, preacts=preacts)


def mlp_preact_grads(model: MLP, cache: MLPCache, dz: np.ndarray) -> list[np.ndarray]:
    """Per-example pre-activation cotangents for every layer from the output
    cotangent ``dz``, of shape (N, C) or stacked (R, N, C); no reduction."""
    grads = [np.zeros(0)] * len(model.weights)
    dh = dz
    for l in range(len(model.weights) - 1, -1, -1):
        grads[l] = dh
        if l > 0:
            da = dh @ model.weights[l]
            dh = da * (cache.preacts[l - 1] > 0.0)
    return grads


def forward(model: Model, x: np.ndarray) -> np.ndarray:
    """Network output: (N,) for TwoLayerReLU, (N, C) for MLP.

    1-d input gives a scalar / (C,) respectively.
    """
    x, single = _as_batch(x)
    if isinstance(model, TwoLayerReLU):
        h = x @ model.weights.T
        out = np.maximum(h, 0.0) @ model.signs / np.sqrt(model.m)
        return out[0] if single else out
    cache = mlp_forward_cache(model, x)
    return cache.z[0] if single else cache.z


def feature_map(model: TwoLayerReLU, x: np.ndarray) -> np.ndarray:
    """Gradient of the two-layer output in flat coordinates.

    phi(x)[r*dim:(r+1)*dim] = signs[r]/sqrt(m) * x * 1{x . w_r >= 0}, so the
    output satisfies f(x) = phi(x) . flat_weights exactly.
    """
    if not isinstance(model, TwoLayerReLU):
        raise ValueError("feature_map is defined for TwoLayerReLU only")
    x, single = _as_batch(x)
    mask = (x @ model.weights.T) >= 0.0  # (N, m), active at zero
    coef = mask * (model.signs / np.sqrt(model.m))  # (N, m)
    phi = coef[:, :, None] * x[:, None, :]  # (N, m, dim)
    phi = phi.reshape(x.shape[0], model.m * model.dim)
    return phi[0] if single else phi


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _check_targets(model: Model, z: np.ndarray, y: np.ndarray, loss: str) -> np.ndarray:
    if loss == LOSS_SOFTMAX:
        if z.ndim != 2 or z.shape[1] < 2:
            raise ValueError("softmax-ce needs a multi-output model")
        y = np.asarray(y)
        if y.shape != (z.shape[0],):
            raise ValueError(f"labels must have shape ({z.shape[0]},), got {y.shape}")
        if y.min() < 0 or y.max() >= z.shape[1]:
            raise ValueError("label out of range for model output width")
        return y.astype(np.int64)
    y = np.asarray(y, dtype=np.float64)
    if z.ndim == 1:
        if y.shape != z.shape:
            raise ValueError(f"targets must have shape {z.shape}, got {y.shape}")
        return y
    if y.ndim == 1 and z.shape[1] == 1:
        return y[:, None]
    if y.shape != z.shape:
        raise ValueError(f"targets must have shape {z.shape}, got {y.shape}")
    return y


def loss_eval(model: Model, x: np.ndarray, y: np.ndarray, loss: str = LOSS_SQUARED) -> float:
    """Mean per-example loss over the batch."""
    _check_loss(loss)
    x, _ = _as_batch(x)
    z = forward(model, x)
    y = _check_targets(model, z, y, loss)
    if loss == LOSS_SQUARED:
        diff = y - z
        if diff.ndim == 1:
            return float(0.5 * np.mean(diff**2))
        return float(0.5 * np.mean(np.sum(diff**2, axis=1)))
    zmax = z.max(axis=1)
    lse = zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1))
    return float(np.mean(lse - z[np.arange(z.shape[0]), y]))


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


@dataclass
class _Scratch:
    """Forward/backward buffers for batches of up to ``rows`` examples.

    Per layer: the pre-activation ``h``; for each hidden layer its relu
    output ``act`` (the next layer's input) and its cotangent ``d``. The
    two-layer net has one hidden layer and keeps its relu output, then its
    gradient coefficients, in ``act``.
    """

    h: list[np.ndarray]
    act: list[np.ndarray]
    d: list[np.ndarray]

    @classmethod
    def of(cls, model: Model, rows: int) -> _Scratch:
        if isinstance(model, TwoLayerReLU):
            return cls([np.empty((rows, model.m))], [np.empty((rows, model.m))], [])
        outs = [w.shape[0] for w in model.weights]
        return cls([np.empty((rows, k)) for k in outs],
                   [np.empty((rows, k)) for k in outs[:-1]],
                   [np.empty((rows, k)) for k in outs[:-1]])


def _loss_and_grad(
    model: Model, x: np.ndarray, y: np.ndarray, loss: str,
    grads: list[np.ndarray], scratch: _Scratch,
) -> float:
    """Mean loss over the batch; writes its gradient into ``grads`` (laid
    out as by :func:`_param_arrays`) and the intermediates into
    ``scratch``. What a call still allocates is per-example: vectors, the
    (N, C) output-layer arrays and one relu mask per hidden layer."""
    x, _ = _as_batch(x)
    n = x.shape[0]
    if isinstance(model, TwoLayerReLU):
        if loss != LOSS_SQUARED:
            raise ValueError("TwoLayerReLU supports the squared loss only")
        h, coef = scratch.h[0][:n], scratch.act[0][:n]
        np.matmul(x, model.weights.T, out=h)
        f = np.maximum(h, 0.0, out=coef) @ model.signs / np.sqrt(model.m)
        y = _check_targets(model, f, y, loss)
        res = f - y
        loss_val = float(0.5 * np.mean(res**2))
        np.greater_equal(h, 0.0, out=coef)
        coef *= model.signs / np.sqrt(model.m)
        coef *= res[:, None]
        np.matmul(coef.T, x, out=grads[0])  # equals n * mean residual * feature map
        grads[0] /= n
        return loss_val
    last = len(model.weights) - 1
    a = x
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = np.matmul(a, w.T, out=scratch.h[l][:n])
        h += b
        if l < last:
            a = np.maximum(h, 0.0, out=scratch.act[l][:n])
    z = h
    y = _check_targets(model, z, y, loss)
    if loss == LOSS_SQUARED:
        diff = z - y
        loss_val = float(0.5 * np.mean(np.sum(diff**2, axis=1)))
        dh = diff / n
    else:
        p = _softmax(z)
        zmax = z.max(axis=1)
        lse = zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1))
        loss_val = float(np.mean(lse - z[np.arange(n), y]))
        dh = p
        dh[np.arange(n), y] -= 1.0
        dh /= n
    for l in range(last, -1, -1):
        np.matmul(dh.T, x if l == 0 else scratch.act[l - 1][:n], out=grads[2 * l])
        np.sum(dh, axis=0, out=grads[2 * l + 1])
        if l > 0:
            dh = np.matmul(dh, model.weights[l], out=scratch.d[l - 1][:n])
            dh *= scratch.h[l - 1][:n] > 0.0
    return loss_val


def gradient(model: Model, x: np.ndarray, y: np.ndarray, loss: str = LOSS_SQUARED) -> np.ndarray:
    """Flat gradient of the mean loss over the given example(s)."""
    _check_loss(loss)
    x, _ = _as_batch(x)
    grads = [np.empty(p.shape) for p in _param_arrays(model)]
    _loss_and_grad(model, x, y, loss, grads, _Scratch.of(model, x.shape[0]))
    return get_flat_params(_with_arrays(model, grads))


def sgd_train(
    model: Model,
    x: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    loss: str = LOSS_SQUARED,
    seed=0,
) -> TrainResult:
    """SGD with momentum on the mean loss.

    When ``cfg.batch_size >= n`` the loop runs ``cfg.epochs_or_steps``
    full-batch gradient steps (the deterministic regime the merging theory
    assumes); otherwise it runs that many epochs of shuffled mini-batches,
    one permutation per epoch, sliced from one gather of the inputs.

    The loop works on each parameter array in place: current and next
    parameters, velocity, gradient and forward/backward scratch are
    allocated once per call, one C-contiguous array per entry of
    :func:`_param_arrays`, never as the flat vector. Each step computes
    ``v = momentum * v + g`` and ``next = current - eta * v`` in that order,
    so the iterates are bit-identical to stepping the flat vector.

    A non-finite loss aborts training, and so does a next iterate whose
    norm is not at most 1e12 (a NaN or inf in the gradient or the
    parameters fails that test too). Either returns the last verified
    iterate with ``diverged=True`` and the loss of the aborted step; a
    verified step becomes current by swapping the two parameter buffers.
    """
    _check_loss(loss)
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
    rng = np.random.default_rng(seed)

    if isinstance(model, TwoLayerReLU):  # the result shares no array with the input
        model = TwoLayerReLU(model.weights, model.signs.copy())
    current = [np.array(p, dtype=np.float64, order="C") for p in _param_arrays(model)]
    following = [np.empty_like(p) for p in current]
    velocity = [np.zeros_like(p) for p in current]
    grads = [np.empty_like(p) for p in current]
    scratch = _Scratch.of(model, min(cfg.batch_size, n))
    steps = 0

    def batches():
        if cfg.batch_size >= n:
            for _ in range(cfg.epochs_or_steps):
                yield x, y
        else:
            y_arr = np.asarray(y)
            for _ in range(cfg.epochs_or_steps):
                perm = rng.permutation(n)
                xp, yp = x[perm], y_arr[perm]
                for start in range(0, n, cfg.batch_size):
                    yield xp[start : start + cfg.batch_size], yp[start : start + cfg.batch_size]

    for xb, yb in batches():
        loss_val = _loss_and_grad(_with_arrays(model, current), xb, yb, loss, grads, scratch)
        if not np.isfinite(loss_val):
            return TrainResult(_with_arrays(model, current), True, steps, loss_val)
        sq_norm = 0.0
        for p, p_next, v, g in zip(current, following, velocity, grads):
            v *= cfg.momentum
            v += g
            np.multiply(v, cfg.eta, out=p_next)
            np.subtract(p, p_next, out=p_next)
            sq_norm += float(np.vdot(p_next, p_next))
        if not np.sqrt(sq_norm) <= _DIVERGE_NORM:
            return TrainResult(_with_arrays(model, current), True, steps, loss_val)
        current, following = following, current
        steps += 1
    trained = _with_arrays(model, current)
    return TrainResult(trained, False, steps, loss_eval(trained, x, y, loss))
