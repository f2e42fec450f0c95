"""Lossy payload codecs plus exact communication-bit accounting.

Quantization maps a vector to sign/level pairs against its max magnitude:
with compression factor s_q in [1, 16] each element takes floor(32/s_q) bits
(one sign bit, the rest level bits), and the level count is
l_q = 2^(floor(32/s_q) - 1) - 1. Levels are the ceiling of the scaled
magnitude, so quantized magnitudes never shrink and the per-element error is
at most max_abs / l_q. ``bit_cost`` charges d * floor(32/s_q) + 32 (the 32 is
the max-abs scalar at float32 width); the packed bitstream of the test
suite's ``to_bytes`` helper materializes exactly those payload bits but
frames them with a 32-bit element count and a float64 max_abs for lossless
round-trips.

Kronecker factors are compressed by truncated SVD, keeping l_v triples per
factor, then quantizing each factor matrix separately with its own max_abs.
The budget planner picks the largest uniform fraction of each layer's rank
whose exact realized bits (headers included) fit in 16 * d, the footprint of
the float32 model weights halved to s_q = 2.

Decomposition and codec are separate steps. ``compress_kfac`` decomposes
each factor once per round and keeps its leading min(dim_a, dim_b) triples
in a caller-kept ``svds`` list; every codec point (an s_q with its planned
ranks) only truncates those triples to its l_v and quantizes them. The
truncation equals a fresh rank-l_v SVD bit for bit, so reusing the list
never changes a payload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fisher import DiagFisher, FullFisher, KFACFisher, KFACLayer

MIN_SQ, MAX_SQ = 1, 16


@dataclass
class QuantizedVector:
    s_q: int
    max_abs: float
    signs: np.ndarray  # (n,), +/-1 int8 (zero elements stored as +1)
    levels: np.ndarray  # (n,), int64 in [0, l_q]

    @property
    def n(self) -> int:
        return self.levels.shape[0]


def _element_bits(s_q: int) -> int:
    if not isinstance(s_q, (int, np.integer)) or not MIN_SQ <= s_q <= MAX_SQ:
        raise ValueError(f"s_q must be an integer in [{MIN_SQ}, {MAX_SQ}], got {s_q}")
    return 32 // int(s_q)


def _quantized_bits(n: int, s_q: int) -> int:
    return n * _element_bits(s_q) + 32


def _factor_bits(dim: int, rank: int, s_q: int) -> int:
    """Bits of one truncated factor: its u, s and vt, each quantized alone."""
    return sum(_quantized_bits(n, s_q) for n in (dim * rank, rank, rank * dim))


def level_count(s_q: int) -> int:
    """Number of positive quantization levels l_q for a compression factor."""
    return 2 ** (_element_bits(s_q) - 1) - 1


def quantize(x: np.ndarray, s_q: int) -> QuantizedVector:
    """Quantize a 1-d vector to ceil-scaled levels of its max magnitude.

    The level of each element is the smallest k whose dequantized magnitude
    max_abs * (k / l_q), computed with the same float operations dequantize
    uses, covers the element. That makes quantize exactly idempotent on its
    own output grid, where a plain floating-point ceil can drift up a level.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"quantize expects a 1-d vector, got ndim={x.ndim}")
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot quantize non-finite values")
    l_q = level_count(s_q)
    signs = np.where(x < 0, -1, 1).astype(np.int8)
    max_abs = float(np.max(np.abs(x))) if x.size else 0.0
    if max_abs == 0.0:
        return QuantizedVector(int(s_q), 0.0, signs, np.zeros(x.shape, dtype=np.int64))
    mag = np.abs(x)
    levels = np.minimum(np.ceil(l_q * mag / max_abs), l_q).astype(np.int64)
    for _ in range(2):  # one-sided float slop is at most a level per pass
        covered_below = (levels > 0) & (max_abs * ((levels - 1) / l_q) >= mag)
        if not covered_below.any():
            break
        levels[covered_below] -= 1
    short = (levels < l_q) & (max_abs * (levels / l_q) < mag)
    levels[short] += 1
    return QuantizedVector(int(s_q), max_abs, signs, levels)


def dequantize(q: QuantizedVector) -> np.ndarray:
    l_q = level_count(q.s_q)
    return q.max_abs * q.signs.astype(np.float64) * (q.levels.astype(np.float64) / l_q)


@dataclass
class CompressedFactor:
    """Truncated SVD of one Kronecker factor, each matrix quantized alone."""

    qu: QuantizedVector
    qs: QuantizedVector
    qvt: QuantizedVector
    shape: tuple[int, int]  # (matrix dim, kept rank)

    def reconstruct(self) -> np.ndarray:
        m, l_v = self.shape
        u = dequantize(self.qu).reshape(m, l_v)
        s = dequantize(self.qs)
        vt = dequantize(self.qvt).reshape(l_v, m)
        return (u * s) @ vt


@dataclass
class BudgetPlan:
    s_q: int
    l_v: list[int]
    total_bits: int
    budget_bits: int
    feasible: bool


def bit_cost(obj) -> int:
    """Exact communicated bits of a payload object.

    Raw float arrays are charged 32 bits per element (float32 transport), and
    so are uncompressed curvature payloads, array by array; ``None`` (no
    curvature, as fedavg sends) costs nothing. Quantized vectors cost
    n * floor(32/s_q) + 32, a truncated factor its u, s and vt at that rate
    (``_factor_bits``, which the budget planner charges too); other
    structured payloads sum their parts.
    """
    if obj is None:
        return 0
    if isinstance(obj, QuantizedVector):
        return _quantized_bits(obj.n, obj.s_q)
    if isinstance(obj, CompressedFactor):
        return _factor_bits(*obj.shape, obj.qs.s_q)
    if isinstance(obj, np.ndarray):
        return 32 * obj.size
    if isinstance(obj, FullFisher):
        return bit_cost(obj.matrix)
    if isinstance(obj, DiagFisher):
        return bit_cost(obj.diag)
    if isinstance(obj, KFACFisher):
        return sum(bit_cost(layer.a) + bit_cost(layer.b) for layer in obj.layers)
    if isinstance(obj, (list, tuple)):
        return sum(bit_cost(item) for item in obj)
    raise ValueError(f"no bit accounting for {type(obj).__name__}")


@dataclass
class FactorSVD:
    """Leading singular triples of one Kronecker factor, u @ diag(s) @ vt.

    Holds the first ``cap`` triples of the full SVD, enough for every kept
    rank ``compress_kfac`` accepts for the factor's layer.
    """

    u: np.ndarray  # (m, cap)
    s: np.ndarray  # (cap,)
    vt: np.ndarray  # (cap, m)


def _factor_svd(mat: np.ndarray, cap: int) -> FactorSVD:
    u, s, vt = np.linalg.svd(np.asarray(mat, dtype=np.float64), full_matrices=False)
    return FactorSVD(u[:, :cap].copy(), s[:cap].copy(), vt[:cap].copy())


def _quantize_factor(svd: FactorSVD, l_v: int, s_q: int) -> CompressedFactor:
    # Slicing the leading triples yields the same values as a rank-l_v SVD
    # truncation, and ravel gives them in the same row-major order.
    return CompressedFactor(
        qu=quantize(svd.u[:, :l_v].ravel(), s_q),
        qs=quantize(svd.s[:l_v], s_q),
        qvt=quantize(svd.vt[:l_v].ravel(), s_q),
        shape=(svd.u.shape[0], l_v),
    )


def compress_kfac(f: KFACFisher, s_q: int, l_v: list[int],
                  svds: list[tuple[FactorSVD, FactorSVD]] | None = None
                  ) -> list[tuple[CompressedFactor, CompressedFactor]]:
    """Compress each layer's factor pair with its planned kept rank: one
    (A, B) pair of compressed factors per layer.

    ``svds`` holds each layer's (A, B) decompositions from an earlier call
    on the same ``f``; when it is empty, this call decomposes every factor
    once and fills it, so one list kept beside ``f`` serves every codec.
    """
    if len(l_v) != len(f.layers):
        raise ValueError(f"need one l_v per layer: {len(l_v)} != {len(f.layers)}")
    caps = [min(layer.a.shape[0], layer.b.shape[0]) for layer in f.layers]
    for layer, l, cap in zip(f.layers, l_v, caps):
        if not 1 <= l <= cap:
            raise ValueError(f"l_v={l} outside [1, {cap}] for factor dims "
                             f"{layer.a.shape[0]}/{layer.b.shape[0]}")
    svds = [] if svds is None else svds
    if not svds:
        svds.extend((_factor_svd(layer.a, cap), _factor_svd(layer.b, cap))
                    for layer, cap in zip(f.layers, caps))
    return [(_quantize_factor(a, l, s_q), _quantize_factor(b, l, s_q))
            for (a, b), l in zip(svds, l_v)]


def decompress_kfac(layers: list[tuple[CompressedFactor, CompressedFactor]]) -> KFACFisher:
    """Reconstruct factors (symmetrized, since quantization breaks symmetry)."""
    out = []
    for ca, cb in layers:
        a = ca.reconstruct()
        b = cb.reconstruct()
        out.append(KFACLayer((a + a.T) / 2.0, (b + b.T) / 2.0))
    return KFACFisher(out)


def _plan_bits(layer_dims: list[tuple[int, int]], l_v: list[int], s_q: int) -> int:
    return sum(_factor_bits(dim, l, s_q) for dims, l in zip(layer_dims, l_v) for dim in dims)


def kfac_budget_plan(layer_dims: list[tuple[int, int]], d: int, s_q: int) -> BudgetPlan:
    """Largest uniform-fraction kept ranks fitting the 16*d bit budget.

    ``layer_dims`` holds each layer's factor sizes (dim of A, dim of B); the
    kept rank of layer l is the common fraction f of min(dim_a, dim_b),
    floored and clamped to [1, full rank]. Returns the all-ones plan with
    ``feasible=False`` when even that exceeds the budget.
    """
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    if not layer_dims:
        raise ValueError("layer_dims must not be empty")
    for da, db in layer_dims:
        if da < 1 or db < 1:
            raise ValueError(f"factor dims must be positive, got ({da}, {db})")
    _element_bits(s_q)
    budget = 16 * d
    ranks = [min(da, db) for da, db in layer_dims]
    d_max = max(ranks)
    for j in range(d_max, 0, -1):
        frac = j / d_max
        l_v = [min(r, max(1, int(frac * r))) for r in ranks]
        total = _plan_bits(layer_dims, l_v, s_q)
        if total <= budget:
            return BudgetPlan(int(s_q), l_v, total, budget, True)
    l_v = [1] * len(layer_dims)
    return BudgetPlan(int(s_q), l_v, _plan_bits(layer_dims, l_v, s_q), budget, False)


def quantize_blocks(x: np.ndarray, block_sizes: list[int], s_q: int) -> list[QuantizedVector]:
    """Quantize consecutive slices of a flat vector independently (one
    max_abs per block, e.g. per network layer)."""
    x = np.asarray(x, dtype=np.float64)
    if sum(block_sizes) != x.shape[0]:
        raise ValueError(f"block sizes sum to {sum(block_sizes)}, vector has {x.shape[0]}")
    out = []
    offset = 0
    for size in block_sizes:
        out.append(quantize(x[offset : offset + size], s_q))
        offset += size
    return out


def dequantize_blocks(blocks: list[QuantizedVector]) -> np.ndarray:
    return np.concatenate([dequantize(q) for q in blocks])
