"""Tests for the quantization/SVD codecs and bit accounting."""

import struct

import numpy as np
import pytest

from oneshot_fl import compress, datasets, models
from oneshot_fl.compress import (
    QuantizedVector,
    _element_bits,
    bit_cost,
    compress_kfac,
    decompress_kfac,
    dequantize,
    dequantize_blocks,
    kfac_budget_plan,
    level_count,
    quantize,
    quantize_blocks,
)
from oneshot_fl.fisher import (
    DEFAULT_KFAC_DAMPING,
    DiagFisher,
    FullFisher,
    KFACFisher,
    KFACLayer,
    kfac_fisher,
)

from low_rank import top_k_svd


def _psd(rng, n):
    g = rng.standard_normal((n, n))
    return g @ g.T


class TestQuantize:
    def test_hand_example_coarsest(self):
        # s_q=16: 2 bits per element, l_q = 1, every magnitude rounds up to
        # the max: (2, -1, 0.5) -> (2, -2, 2).
        q = quantize(np.array([2.0, -1.0, 0.5]), 16)
        assert level_count(16) == 1
        got = dequantize(q)
        assert np.allclose(got, [2.0, -2.0, 2.0])
        assert bit_cost(q) == 3 * 2 + 32 == 38

    def test_near_lossless_at_sq1(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(100)
        q = quantize(x, 1)
        err = np.abs(dequantize(q) - x)
        assert level_count(1) == 2**31 - 1
        assert np.all(err <= np.max(np.abs(x)) / (2**31 - 1) + 1e-15)

    def test_zero_vector(self):
        q = quantize(np.zeros(5), 4)
        assert q.max_abs == 0.0
        assert np.all(dequantize(q) == 0.0)

    def test_error_bound_all_elements(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(int(rng.integers(1, 200))) * rng.uniform(0.1, 10)
            for s_q in (1, 2, 4, 8, 16):
                q = quantize(x, s_q)
                err = np.abs(dequantize(q) - x)
                bound = np.max(np.abs(x)) / level_count(s_q)
                assert np.all(err <= bound * (1 + 1e-12))

    def test_magnitudes_never_shrink(self):
        # Ceiling rounding: |Q(x)_i| >= |x_i| always.
        rng = np.random.default_rng(1)
        x = rng.standard_normal(50)
        for s_q in (2, 4, 8, 16):
            got = dequantize(quantize(x, s_q))
            assert np.all(np.abs(got) >= np.abs(x) - 1e-12)
            assert np.all(np.sign(got[x != 0]) == np.sign(x[x != 0]))

    def test_idempotent_on_own_grid(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(64)
        for s_q in (2, 4, 8, 16):
            q = quantize(x, s_q)
            again = quantize(dequantize(q), s_q)
            assert again.max_abs == q.max_abs
            assert np.array_equal(again.levels, q.levels)
            keep = q.levels > 0  # sign of a zero level is unobservable
            assert np.array_equal(again.signs[keep], q.signs[keep])

    def test_sq_validation(self):
        x = np.ones(3)
        for bad in (0, 17, -1, 2.5):
            with pytest.raises(ValueError):
                quantize(x, bad)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            quantize(np.array([1.0, np.inf]), 4)

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            quantize(np.ones((2, 2)), 4)


def to_bytes(q: QuantizedVector) -> bytes:
    """Packed bitstream: u32 count, f64 max_abs, then per element the sign bit
    followed by the level bits, filled LSB-first within each byte."""
    bits_per = _element_bits(q.s_q)
    level_bits = bits_per - 1
    bits = np.zeros((q.n, bits_per), dtype=np.uint8)
    bits[:, 0] = q.signs < 0
    if level_bits:
        shifts = np.arange(level_bits, dtype=np.int64)
        bits[:, 1:] = (q.levels[:, None] >> shifts) & 1
    packed = np.packbits(bits.ravel(), bitorder="little")
    return struct.pack("<I", q.n) + struct.pack("<d", q.max_abs) + packed.tobytes()


def from_bytes(buf: bytes, s_q: int) -> QuantizedVector:
    bits_per = _element_bits(s_q)
    if len(buf) < 12:
        raise ValueError("quantized payload shorter than its 12-byte header")
    (n,) = struct.unpack("<I", buf[:4])
    (max_abs,) = struct.unpack("<d", buf[4:12])
    expected = 12 + (n * bits_per + 7) // 8
    if len(buf) != expected:
        raise ValueError(f"quantized payload length {len(buf)} != expected {expected}")
    raw = np.unpackbits(np.frombuffer(buf[12:], dtype=np.uint8), bitorder="little")
    bits = raw[: n * bits_per].reshape(n, bits_per).astype(np.int64)
    signs = np.where(bits[:, 0] == 1, -1, 1).astype(np.int8)
    levels = np.zeros(n, dtype=np.int64)
    for j in range(1, bits_per):
        levels |= bits[:, j] << (j - 1)
    return QuantizedVector(int(s_q), float(max_abs), signs, levels)


class TestPackedBytes:
    def test_hand_layout(self):
        # s_q=16, elements (2, -1, 0.5): per element sign bit then one level
        # bit, all levels 1 -> bit pairs (0,1), (1,1), (0,1), LSB-first gives
        # byte 0b00101110 = 0x2e.
        q = quantize(np.array([2.0, -1.0, 0.5]), 16)
        raw = to_bytes(q)
        assert len(raw) == 4 + 8 + 1
        assert raw[:4] == (3).to_bytes(4, "little")
        assert raw[12] == 0x2E

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for s_q in (1, 2, 3, 4, 7, 8, 16):
            x = rng.standard_normal(int(rng.integers(1, 100)))
            q = quantize(x, s_q)
            back = from_bytes(to_bytes(q), s_q)
            assert back.n == q.n
            assert back.max_abs == q.max_abs
            assert np.array_equal(back.levels, q.levels)
            assert np.array_equal(back.signs, q.signs)
            assert np.array_equal(dequantize(back), dequantize(q))

    def test_payload_bits_match_bit_cost(self):
        # Packed payload bytes (minus the count/max_abs framing) must hold
        # exactly the charged payload bits, up to byte padding.
        rng = np.random.default_rng(4)
        for s_q in (2, 4, 8):
            x = rng.standard_normal(33)
            q = quantize(x, s_q)
            raw = to_bytes(q)
            payload_bits = (len(raw) - 12) * 8
            charged = bit_cost(q) - 32
            assert charged <= payload_bits < charged + 8

    def test_length_validation(self):
        q = quantize(np.ones(10), 4)
        raw = to_bytes(q)
        with pytest.raises(ValueError):
            from_bytes(raw[:-1], 4)
        with pytest.raises(ValueError):
            from_bytes(raw + b"\x00", 4)
        with pytest.raises(ValueError):
            from_bytes(b"\x00" * 5, 4)


class TestBitCost:
    def test_quantized_formula(self):
        for d in (1, 10, 1000):
            for s_q in (1, 2, 4, 8, 16):
                q = quantize(np.ones(d), s_q)
                assert bit_cost(q) == d * (32 // s_q) + 32

    def test_specific_value(self):
        assert bit_cost(quantize(np.ones(1000), 2)) == 16032

    def test_raw_vector(self):
        assert bit_cost(np.zeros(10)) == 320
        assert bit_cost(np.zeros(0)) == 0

    def test_empty_quantized_is_header_only(self):
        q = quantize(np.zeros(0), 4)
        assert bit_cost(q) == 32

    def test_list_sums(self):
        items = [np.zeros(2), quantize(np.ones(3), 16)]
        assert bit_cost(items) == 64 + 38

    def test_curvature_payloads_at_float32(self):
        rng = np.random.default_rng(0)
        kfac = KFACFisher([KFACLayer(_psd(rng, 5), _psd(rng, 3)),
                           KFACLayer(_psd(rng, 4), _psd(rng, 2))])
        assert bit_cost(FullFisher(np.eye(6))) == 32 * 36
        assert bit_cost(DiagFisher(np.ones(6))) == 32 * 6
        assert bit_cost(kfac) == 32 * (25 + 9 + 16 + 4)
        assert bit_cost(None) == 0
        assert bit_cost([np.zeros(6), None]) == 32 * 6

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            bit_cost("weights")


class TestCompressKfac:
    def _toy_kfac(self, seed=7, dims=((5, 3), (4, 2))):
        rng = np.random.default_rng(seed)
        return KFACFisher([KFACLayer(_psd(rng, da), _psd(rng, db)) for da, db in dims])

    def test_round_trip_shapes_and_symmetry(self):
        f = self._toy_kfac()
        c = compress_kfac(f, s_q=4, l_v=[2, 2])
        back = decompress_kfac(c)
        assert isinstance(back, KFACFisher)
        for orig, rec in zip(f.layers, back.layers):
            assert rec.a.shape == orig.a.shape
            assert rec.b.shape == orig.b.shape
            assert np.allclose(rec.a, rec.a.T)
            assert np.allclose(rec.b, rec.b.T)

    def test_mild_compression_small_error(self):
        # Full rank kept, fine quantization: reconstruction close in Frobenius.
        f = self._toy_kfac(8, dims=((6, 6),))
        c = compress_kfac(f, s_q=1, l_v=[6])
        back = decompress_kfac(c)
        rel = np.linalg.norm(back.layers[0].a - f.layers[0].a) / np.linalg.norm(
            f.layers[0].a
        )
        assert rel < 1e-6

    def test_lv_validation(self):
        f = self._toy_kfac()
        with pytest.raises(ValueError):
            compress_kfac(f, s_q=4, l_v=[2])
        with pytest.raises(ValueError):
            compress_kfac(f, s_q=4, l_v=[0, 1])
        with pytest.raises(ValueError):
            compress_kfac(f, s_q=4, l_v=[4, 1])  # exceeds min(5,3)

    def test_bit_cost_structure(self):
        f = self._toy_kfac()
        c = compress_kfac(f, s_q=4, l_v=[1, 1])
        eb = 32 // 4
        want = 0
        for da, db in ((5, 3), (4, 2)):
            want += eb * (2 * da + 1) + 3 * 32
            want += eb * (2 * db + 1) + 3 * 32
        assert bit_cost(c) == want


def _damped_factor(g: np.ndarray) -> np.ndarray:
    # A K-FAC factor from n = g.shape[1] examples: rank <= n plus the default
    # damping, as kfac_fisher builds it.
    f = g @ g.T / g.shape[1]
    f.flat[:: f.shape[0] + 1] += DEFAULT_KFAC_DAMPING * np.trace(f) / f.shape[0]
    return f


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: the SVD codec quantizes singular vectors, which are arbitrary "
    "inside the damping-degenerate eigenspace that the kept rank cuts; a Nystrom "
    "sketch, linear in the factor, turns this green"))
def test_decoded_factor_is_stable_under_rounding_noise():
    # Like client 1 of the payload workload's seed 0: 11 examples give a
    # 197 x 197 input factor of rank 11 plus damping, and the s_q = 4 plan
    # keeps rank 48, inside the 186 eigenvalues equal to the damping. A
    # relative perturbation of 1e-15 must barely move the decoded factor.
    rng = np.random.default_rng(0)
    a = _damped_factor(rng.standard_normal((197, 11)))
    b = _damped_factor(rng.standard_normal((64, 64)))
    e = rng.standard_normal((197, 197))
    decoded = [decompress_kfac(compress_kfac(KFACFisher([KFACLayer(m, b)]), 4, [48])).layers[0].a
               for m in (a, a * (1.0 + 1e-15 * (e + e.T) / 2.0))]
    moved = np.linalg.norm(decoded[1] - decoded[0]) / np.linalg.norm(decoded[0])
    assert moved < 1e-10


def _trained_mlp_kfac() -> KFACFisher:
    x, y, _, _ = datasets.gen_image_classes(120, 10, 4, 6, seed=3)
    model = models.init_mlp([x.shape[1], 12, 4], [3, 17])
    trained = models.sgd_train(model, x, y, models.TrainConfig(0.05, 3, 16, 0.9),
                               seed=[3, 0, 0]).model
    return kfac_fisher(trained, x)


class TestStoredDecomposition:
    """One SVD per factor serves every codec point, with the payload a fresh
    rank-l_v truncation would give."""

    @pytest.mark.parametrize("s_q", [1, 4, 16])
    def test_every_rank_matches_fresh_truncation(self, s_q):
        f = _trained_mlp_kfac()
        caps = [min(layer.a.shape[0], layer.b.shape[0]) for layer in f.layers]
        assert caps == [12, 4]
        svds = []
        for rank in range(1, max(caps) + 1):
            l_v = [min(rank, cap) for cap in caps]
            got = compress_kfac(f, s_q, l_v, svds)
            for layer, (sent_a, sent_b), l in zip(f.layers, got, l_v):
                for mat, factor in ((layer.a, sent_a), (layer.b, sent_b)):
                    fresh = top_k_svd(mat, l)
                    want = (quantize(fresh.u.ravel(), s_q), quantize(fresh.s, s_q),
                            quantize(fresh.vt.ravel(), s_q))
                    for q, ref in zip((factor.qu, factor.qs, factor.qvt), want):
                        assert q.max_abs == ref.max_abs
                        assert np.array_equal(q.signs, ref.signs)
                        assert np.array_equal(q.levels, ref.levels)
                    assert factor.shape == (mat.shape[0], l)

    def test_decomposition_kept_at_cap_and_reused(self):
        f = _trained_mlp_kfac()
        svds = []
        compress_kfac(f, 4, [3, 2], svds)
        kept = [m for pair in svds for svd in pair for m in (svd.u, svd.s, svd.vt)]
        assert [(a.u.shape, a.s.shape, a.vt.shape) for a, _ in svds] == [
            ((37, 12), (12,), (12, 37)), ((13, 4), (4,), (4, 13))]
        compress_kfac(f, 8, [12, 4], svds)
        again = [m for pair in svds for svd in pair for m in (svd.u, svd.s, svd.vt)]
        assert all(x is y for x, y in zip(again, kept, strict=True))  # not decomposed again


class TestBudgetPlan:
    def test_spec_single_layer_instance(self):
        # One 10x10-factor layer, d=100, s_q=4: 8 bits/elt, per unit of kept
        # rank 8*(20+20+2)=336 payload bits + 192 header, budget 1600.
        plan = kfac_budget_plan([(10, 10)], d=100, s_q=4)
        assert plan.feasible
        assert plan.l_v == [4]
        assert plan.budget_bits == 1600
        assert plan.total_bits == 8 * (20 * 4 + 20 * 4 + 2 * 4) + 2 * 3 * 32
        assert plan.total_bits <= plan.budget_bits

    def test_budget_slack_caps_at_full_rank(self):
        plan = kfac_budget_plan([(4, 3)], d=10_000, s_q=2)
        assert plan.feasible
        assert plan.l_v == [3]

    def test_infeasible_reports_all_ones(self):
        plan = kfac_budget_plan([(10, 10)], d=10, s_q=1)
        assert not plan.feasible
        assert plan.l_v == [1]
        assert plan.total_bits > plan.budget_bits

    def test_plan_bits_match_executed_compression(self):
        # The planner's arithmetic must equal bit_cost of the real payload.
        rng = np.random.default_rng(9)
        dims = [(7, 4), (5, 6)]
        f = KFACFisher([KFACLayer(_psd(rng, da), _psd(rng, db)) for da, db in dims])
        d = sum(da * db for da, db in dims)
        plan = kfac_budget_plan(dims, d=d, s_q=4)
        assert plan.feasible
        c = compress_kfac(f, s_q=4, l_v=plan.l_v)
        assert bit_cost(c) == plan.total_bits

    def test_uniform_fraction_scales_with_layers(self):
        plan = kfac_budget_plan([(20, 20), (10, 10)], d=500, s_q=4)
        assert plan.feasible
        # Fractions are applied to each layer's own max rank.
        assert plan.l_v[0] >= plan.l_v[1]

    @staticmethod
    def _scan(layer_dims, d, s_q):
        """(l_v, total_bits, feasible) by pricing every fraction j / d_max
        from j = d_max down: the reference the planner's bisection matches."""
        ranks = [min(da, db) for da, db in layer_dims]
        d_max = max(ranks)
        for j in range(d_max, 0, -1):
            l_v = [min(r, max(1, int(j / d_max * r))) for r in ranks]
            total = compress._plan_bits(layer_dims, l_v, s_q)
            if total <= 16 * d:
                return l_v, total, True
        l_v = [1] * len(ranks)
        return l_v, compress._plan_bits(layer_dims, l_v, s_q), False

    def test_bisection_matches_linear_scan(self):
        grids = [[(10, 10)], [(4, 3)], [(7, 4), (5, 6)], [(41, 16), (17, 3)],
                 [(785, 64), (65, 10)], [(101, 32), (33, 32), (33, 10)], [(3, 97), (98, 1)]]
        feasible = set()
        for dims in grids:
            params = sum(da * db for da, db in dims)
            for d in (1, params // 20 + 1, params // 4 + 1, params, 50 * params):
                for s_q in range(1, 17):
                    plan = kfac_budget_plan(dims, d=d, s_q=s_q)
                    assert (plan.l_v, plan.total_bits, plan.feasible) == self._scan(dims, d, s_q)
                    feasible.add(plan.feasible)
        assert feasible == {True, False}

    def test_validation(self):
        with pytest.raises(ValueError):
            kfac_budget_plan([], d=10, s_q=4)
        with pytest.raises(ValueError):
            kfac_budget_plan([(2, 2)], d=0, s_q=4)
        with pytest.raises(ValueError):
            kfac_budget_plan([(0, 2)], d=10, s_q=4)
        with pytest.raises(ValueError):
            kfac_budget_plan([(2, 2)], d=10, s_q=64)


class TestBlocks:
    def test_round_trip_and_per_block_scales(self):
        rng = np.random.default_rng(10)
        x = np.concatenate([rng.standard_normal(8), 100 * rng.standard_normal(4)])
        blocks = quantize_blocks(x, [8, 4], s_q=2)
        assert len(blocks) == 2
        assert blocks[0].max_abs < blocks[1].max_abs
        back = dequantize_blocks(blocks)
        assert back.shape == x.shape
        # Per-block error bound, not global: the small block keeps its scale.
        bound0 = np.max(np.abs(x[:8])) / level_count(2)
        assert np.all(np.abs(back[:8] - x[:8]) <= bound0 * (1 + 1e-12))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            quantize_blocks(np.zeros(5), [2, 2], s_q=2)
