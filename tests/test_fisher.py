"""Tests for the curvature approximations."""

import numpy as np
import pytest

from oneshot_fl import fisher, models
from oneshot_fl.fisher import (
    DEFAULT_KFAC_DAMPING,
    DiagFisher,
    FullFisher,
    KFACFisher,
    KFACLayer,
    diag_fisher,
    fisher_matvec,
    full_fisher_two_layer,
    kfac_fisher,
    thin_input_factor,
)
from oneshot_fl.compress import compress_kfac, decompress_kfac
from oneshot_fl.models import (
    LOSS_SOFTMAX,
    LOSS_SQUARED,
    TwoLayerReLU,
    init_mlp,
    init_two_layer,
)

from memory import traced_peak
from oracle import allocating_diag, eye_damped_kfac, mc_fisher


def _unit_rows(rng, n, dim):
    x = rng.standard_normal((n, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _dense_kfac(f: KFACFisher) -> np.ndarray:
    blocks = [np.kron(layer.a, layer.b) for layer in f.layers]
    d = sum(b.shape[0] for b in blocks)
    out = np.zeros((d, d))
    offset = 0
    for b in blocks:
        k = b.shape[0]
        out[offset : offset + k, offset : offset + k] = b
        offset += k
    return out


class TestFullFisher:
    def test_single_unit_hand_instance(self):
        # m=1, p=1, a=1, w=1, x=1: phi = 1, so F = [[1]].
        model = TwoLayerReLU(weights=np.array([[1.0]]), signs=np.array([1.0]))
        f = full_fisher_two_layer(model, np.array([[1.0]]))
        assert f.matrix.shape == (1, 1)
        assert f.matrix[0, 0] == pytest.approx(1.0)

    def test_all_inactive_gives_zero(self):
        model = TwoLayerReLU(
            weights=np.array([[1.0, 0.0], [0.0, 1.0]]), signs=np.array([1.0, 1.0])
        )
        f = full_fisher_two_layer(model, np.array([[-1.0, -1.0], [-0.5, -2.0]]))
        assert np.all(f.matrix == 0.0)

    def test_equals_mean_feature_outer_product(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            model = init_two_layer(int(rng.integers(2, 10)), 4, kappa=1.0, seed=seed)
            x = _unit_rows(rng, 12, 4)
            phi = models.feature_map(model, x)
            want = phi.T @ phi / 12
            got = full_fisher_two_layer(model, x).matrix
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_symmetric_psd_trace_bounded(self):
        rng = np.random.default_rng(8)
        model = init_two_layer(6, 3, kappa=0.5, seed=9)
        x = _unit_rows(rng, 20, 3)
        f = full_fisher_two_layer(model, x).matrix
        assert np.allclose(f, f.T)
        vals = np.linalg.eigvalsh(f)
        assert vals[0] >= -1e-8 * np.trace(f)
        assert np.trace(f) <= 1.0 + 1e-12

    def test_matches_mc_oracle(self):
        model = init_two_layer(4, 3, kappa=1.0, seed=10)
        rng = np.random.default_rng(11)
        x = _unit_rows(rng, 5, 3)
        want = full_fisher_two_layer(model, x).matrix
        got = mc_fisher(model, x, model.head, draws=100_000, seed=12)
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert rel <= 5.0 / np.sqrt(100_000)

    def test_dimension_cap(self):
        model = init_two_layer(1001, 2, kappa=1.0, seed=0)
        with pytest.raises(ValueError, match="m\\*dim"):
            full_fisher_two_layer(model, np.ones((1, 2)))

    def test_rejects_mlp(self):
        with pytest.raises(ValueError):
            full_fisher_two_layer(init_mlp([2, 2], seed=0), np.ones((1, 2)))


class TestDiagFisher:
    def test_two_layer_equals_full_diagonal(self):
        # Same definition, different summation order (GEMM diagonal vs
        # squared-column sum): equal to double precision, a few ulps apart.
        for seed in range(6):
            rng = np.random.default_rng(seed)
            model = init_two_layer(5, 3, kappa=1.0, seed=seed)
            x = _unit_rows(rng, 9, 3)
            full = full_fisher_two_layer(model, x).matrix
            diag = diag_fisher(model, x).diag
            assert np.allclose(diag, np.diag(full), rtol=1e-12, atol=1e-16)

    def test_mlp_squared_matches_dense_diag(self):
        # Small MLP: build the exact dense curvature from per-class gradients
        # and compare diagonals.
        model = init_mlp([3, 4, 2], seed=16, head=LOSS_SQUARED)
        rng = np.random.default_rng(17)
        x = rng.standard_normal((6, 3))
        d = models.param_count(model)
        dense = np.zeros((d, d))
        for j in range(6):
            for c in range(2):
                g = -models.gradient(
                    model, x[j : j + 1], models.forward(model, x[j : j + 1]) + np.eye(2)[c][None, :]
                )
                dense += np.outer(g, g)
        dense /= 6
        got = diag_fisher(model, x).diag
        assert np.allclose(got, np.diag(dense), atol=1e-10)

    def test_softmax_two_class_closed_form(self):
        # Single linear layer (no hidden), 2 classes: for input a and probs p,
        # E[g g^T] over the predictive has diagonal p1 p2 on each logit row
        # (variance of a Bernoulli score), scaled by a_i^2 per weight.
        w = np.array([[0.3, -0.2], [0.1, 0.4]])
        b = np.array([0.05, -0.1])
        model = models.MLP([w], [b], head=LOSS_SOFTMAX)
        a = np.array([[0.7, -0.5]])
        z = a @ w.T + b
        p = np.exp(z[0] - z[0].max())
        p /= p.sum()
        var = p[0] * p[1]  # two-class score variance per logit
        a_aug = np.array([0.7, -0.5, 1.0])
        want = np.concatenate([var * a_aug[i] ** 2 * np.ones(2) for i in range(3)])
        got = diag_fisher(model, a).diag
        assert np.allclose(got, want, atol=1e-12)

    def test_mlp_softmax_matches_exact_fisher(self):
        # Two hidden layers, so the stacked one-hot backward pass crosses two
        # ReLU masks. The exact diagonal is mean_n sum_c p_nc g_nc^2, with
        # g_nc the gradient of the cross-entropy of label c at example n.
        model = init_mlp([4, 6, 5, 3], seed=40)
        x = np.random.default_rng(41).standard_normal((7, 4))
        z = models.forward(model, x)
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        want = np.mean([sum(p[n, c] * models.gradient(model, x[n : n + 1], [c]) ** 2
                            for c in range(3)) for n in range(7)], axis=0)
        got = diag_fisher(model, x).diag
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_nonnegative_entries(self):
        model = init_mlp([4, 6, 3], seed=21)
        rng = np.random.default_rng(22)
        x = rng.standard_normal((10, 4))
        for loss in (LOSS_SQUARED, LOSS_SOFTMAX):
            m = model if loss == LOSS_SOFTMAX else init_mlp([4, 6, 3], seed=21, head=loss)
            assert np.all(diag_fisher(m, x).diag >= 0.0)


class TestKfacFisher:
    def test_single_layer_squared_is_exact(self):
        # One linear layer, one example, squared loss: A = a_aug a_aug^T,
        # B = I, and A kron B is the exact curvature of that layer.
        w = np.array([[0.5, -0.3]])
        b = np.array([0.2])
        model = models.MLP([w], [b], head=LOSS_SQUARED)
        a = np.array([[2.0, 1.0]])
        f = kfac_fisher(model, a, damping=0.0)
        a_aug = np.array([2.0, 1.0, 1.0])
        assert np.allclose(f.layers[0].a, np.outer(a_aug, a_aug))
        assert np.allclose(f.layers[0].b, np.eye(1))
        dense = _dense_kfac(f)
        g = a_aug  # gradient of the single output wrt [w | b] flat coords
        assert np.allclose(dense, np.outer(g, g))

    def test_zero_inputs_zero_a_blocks(self):
        model = init_mlp([3, 4, 2], seed=23, head=LOSS_SQUARED)
        x = np.zeros((5, 3))
        f = kfac_fisher(model, x, damping=0.0)
        # Bias coordinate keeps a 1 in A; the input block is zero.
        a0 = f.layers[0].a
        assert np.all(a0[:3, :3] == 0.0)
        assert a0[3, 3] == pytest.approx(1.0)

    def test_factors_psd(self):
        model = init_mlp([5, 7, 4], seed=24)
        rng = np.random.default_rng(25)
        x = rng.standard_normal((12, 5))
        for layer in kfac_fisher(model, x).layers:
            for factor in (layer.a, layer.b):
                assert np.allclose(factor, factor.T)
                vals = np.linalg.eigvalsh(factor)
                assert vals[0] >= -1e-8 * max(np.trace(factor), 1e-30)

    def test_damping_adds_scaled_identity(self):
        model = init_mlp([3, 4, 2], seed=27)
        rng = np.random.default_rng(28)
        x = rng.standard_normal((6, 3))
        raw = kfac_fisher(model, x, damping=0.0)
        damped = kfac_fisher(model, x, damping=1e-2)
        for lr, ld in zip(raw.layers, damped.layers):
            bump = 1e-2 * np.trace(lr.a) / lr.a.shape[0]
            assert np.allclose(ld.a, lr.a + bump * np.eye(lr.a.shape[0]), atol=1e-12)

    def test_rejects_two_layer(self):
        with pytest.raises(ValueError):
            kfac_fisher(init_two_layer(2, 2, kappa=1.0, seed=0), np.eye(2))

    def test_negative_damping_rejected(self):
        with pytest.raises(ValueError):
            kfac_fisher(init_mlp([2, 2], seed=0), np.eye(2), damping=-1.0)


class TestThinInputFactor:
    """A raw input factor of n examples is delta I plus a Gram part of rank
    <= n; the pivoted Cholesky recovers both from the factor alone."""

    @staticmethod
    def _input_factor(n, damping=DEFAULT_KFAC_DAMPING, in_dim=60, seed=40):
        model = init_mlp([in_dim, 8, 3], seed=seed)
        x = np.random.default_rng(seed + 1).random((n, in_dim))
        return kfac_fisher(model, x, damping=damping).layers[0].a  # (in_dim + 1) square

    @pytest.mark.parametrize("damping", [DEFAULT_KFAC_DAMPING, 1e-2, 0.0])
    @pytest.mark.parametrize("n", [1, 12, 30])  # 2n < 61
    def test_reproduces_damped_gram_factor(self, damping, n):
        a = self._input_factor(n, damping)
        delta, lt = thin_input_factor(a, n, damping)
        assert lt.shape == (n, a.shape[0])
        added = a - self._input_factor(n, 0.0)  # the damping kfac_fisher added
        assert delta == pytest.approx(added[0, 0], rel=1e-12, abs=0.0)
        rebuilt = lt.T @ lt
        rebuilt.flat[:: a.shape[0] + 1] += delta
        assert np.abs(rebuilt - a).max() <= 1e-13 * np.abs(a).max()

    def test_rows_written_into_the_given_buffer(self):
        a = self._input_factor(12)
        out = np.full((20, a.shape[0]), np.nan)
        delta, lt = thin_input_factor(a, 12, out=out)
        assert np.shares_memory(lt, out) and lt.shape[0] == 12
        assert np.array_equal(lt, thin_input_factor(a, 12)[1])
        assert np.isnan(out[12:]).all()

    def test_full_rank_factor_is_not_thin(self):
        g = np.random.default_rng(42).standard_normal((9, 9))
        assert thin_input_factor(g @ g.T, 100) is None

    def test_decoded_compressed_factor_is_not_thin(self):
        a = self._input_factor(12)
        b = np.eye(3)
        assert thin_input_factor(a, 12) is not None
        decoded = decompress_kfac(compress_kfac(KFACFisher([KFACLayer(a, b)]), 4, [3]))
        assert thin_input_factor(decoded.layers[0].a, 12) is None

    def test_rank_above_the_bound_is_not_thin(self):
        a = self._input_factor(12)
        assert thin_input_factor(a, 11) is None
        assert thin_input_factor(a, 12) is not None

    def test_rank_cap_keeps_the_thin_form_cheaper(self):
        # 40 examples give rank 40, above (61 - 1) // 2 = 30 whatever the bound.
        assert thin_input_factor(self._input_factor(40), 40) is None

    def test_bound_above_the_cap_is_refused_before_pivoting(self, monkeypatch):
        # Rank 5 would thin, but a bound of 31 examples may not: 2 * 31 >= 61.
        a = self._input_factor(5)
        assert thin_input_factor(a, 30) is not None

        def forbidden(*args, **kwargs):
            raise AssertionError("the bound alone refuses this factor")

        monkeypatch.setattr(fisher, "gram_factor", forbidden)
        assert thin_input_factor(a, 31) is None

    def test_asymmetric_or_nonfinite_factor_is_not_thin(self):
        a = self._input_factor(12)
        skew = a.copy()
        skew[0, 1] += 1e-9
        assert thin_input_factor(skew, 12) is None
        for bad in (np.nan, np.inf):
            broken = a.copy()
            broken[3, 3] = bad
            assert thin_input_factor(broken, 12) is None


class TestGramFactor:
    def test_dense_payload_of_n_examples_has_at_most_n_rows(self):
        # A Gram matrix of rank <= n: its factor, taken with no floor, rebuilds it.
        model = init_two_layer(16, 3, kappa=1.0, seed=44)
        f = full_fisher_two_layer(model, np.random.default_rng(45).standard_normal((10, 3)))
        lt = fisher.gram_factor(f.matrix, 0.0, f.dim)
        assert lt.shape[0] <= 10
        assert np.abs(lt.T @ lt - f.matrix).max() <= 1e-13 * np.abs(f.matrix).max()


class TestInPlaceBuild:
    """K-FAC and diagonal builders against the allocating references, and
    the memory the in-place K-FAC build holds."""

    @staticmethod
    def _case(dims, loss):
        x = np.random.default_rng(32).standard_normal((40, dims[0]))
        return init_mlp(dims, seed=33, head=loss), x

    @pytest.mark.parametrize("dims", [[784, 64, 10], [4, 6, 5, 3]])
    @pytest.mark.parametrize("loss", [LOSS_SQUARED, LOSS_SOFTMAX])
    @pytest.mark.parametrize("damping", [0.0, DEFAULT_KFAC_DAMPING])
    def test_kfac_bit_identical(self, dims, loss, damping):
        model, x = self._case(dims, loss)
        got = kfac_fisher(model, x, damping=damping)
        want = eye_damped_kfac(model, x, model.head, damping)
        assert len(got.layers) == len(want)
        for layer, (a, b) in zip(got.layers, want):
            assert np.array_equal(layer.a, a)
            assert np.array_equal(layer.b, b)

    @pytest.mark.parametrize("dims", [[784, 64, 10], [4, 6, 5, 3]])
    @pytest.mark.parametrize("loss", [LOSS_SQUARED, LOSS_SOFTMAX])
    def test_diag_bit_identical(self, dims, loss):
        model, x = self._case(dims, loss)
        got = diag_fisher(model, x)
        assert np.array_equal(got.diag, allocating_diag(model, x, model.head))

    @pytest.mark.parametrize("loss", [LOSS_SQUARED, LOSS_SOFTMAX])
    def test_kfac_peak_memory(self, loss):
        # Damping through a scaled np.eye would hold three 785 x 785 arrays at once.
        model = init_mlp([784, 64, 10], seed=35, head=loss)
        x = np.random.default_rng(36).standard_normal((200, 784))
        f, peak = traced_peak(kfac_fisher, model, x)
        params = sum(w.nbytes + b.nbytes for w, b in zip(model.weights, model.biases))
        outputs = sum(layer.a.nbytes + layer.b.nbytes for layer in f.layers)
        assert peak < x.nbytes + params + outputs + 785 * 785 * 8

    def test_softmax_scores_centred_in_place(self):
        # Centring into new arrays held a second (C, n, out) stack per layer.
        model = init_mlp([8, 256, 10], seed=37, head=LOSS_SOFTMAX)
        x = np.random.default_rng(38).standard_normal((400, 8))
        (inputs, p, s), peak = traced_peak(fisher._scores, model, x)
        assert peak < sum(a.nbytes for a in [*inputs, p, *s]) + 3 * s[0].nbytes // 4
        z, acts = models.forward_pass(model, x)
        raw = models.mlp_preact_grads(model, acts, np.repeat(np.eye(10)[:, None], 400, axis=1))
        for u, r in zip(s, raw):
            assert np.array_equal(u, r - np.einsum("nc,cnk->nk", p, r))


class TestFisherMatvec:
    def test_diag_ones_is_identity(self):
        rng = np.random.default_rng(29)
        v = rng.standard_normal(7)
        assert np.allclose(fisher_matvec(DiagFisher(np.ones(7)), v), v)

    def test_full_zero_matrix(self):
        v = np.ones(4)
        assert np.all(fisher_matvec(FullFisher(np.zeros((4, 4))), v) == 0.0)

    def test_kfac_matches_dense_blocks(self):
        model = init_mlp([3, 5, 2], seed=30)
        rng = np.random.default_rng(31)
        x = rng.standard_normal((8, 3))
        f = kfac_fisher(model, x)
        dense = _dense_kfac(f)
        for _ in range(5):
            v = rng.standard_normal(f.dim)
            got = fisher_matvec(f, v)
            assert np.linalg.norm(got - dense @ v) <= 1e-10 * max(
                1.0, np.linalg.norm(dense @ v)
            )

    def test_kfac_dim_matches_model_params(self):
        model = init_mlp([3, 5, 2], seed=32)
        f = kfac_fisher(model, np.zeros((2, 3)))
        assert f.dim == models.param_count(model)

    def test_psd_quadratic_form_all_variants(self):
        rng = np.random.default_rng(33)
        model2 = init_two_layer(4, 3, kappa=1.0, seed=34)
        x2 = _unit_rows(rng, 6, 3)
        mlp = init_mlp([3, 4, 3], seed=35)
        xm = rng.standard_normal((6, 3))
        variants = [
            full_fisher_two_layer(model2, x2),
            diag_fisher(model2, x2),
            diag_fisher(mlp, xm),
            kfac_fisher(mlp, xm),
        ]
        for f in variants:
            trace = {
                FullFisher: lambda g: np.trace(g.matrix),
                DiagFisher: lambda g: g.diag.sum(),
                KFACFisher: lambda g: sum(
                    np.trace(l.a) * np.trace(l.b) for l in g.layers
                ),
            }[type(f)](f)
            for _ in range(100):
                v = rng.standard_normal(f.dim)
                q = v @ fisher_matvec(f, v)
                assert q >= -1e-8 * (v @ v) * max(trace, 1e-30)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fisher_matvec(DiagFisher(np.ones(3)), np.ones(4))


@pytest.mark.parametrize("build, model", [
    (full_fisher_two_layer, init_two_layer(3, 2, kappa=1.0, seed=36)),
    (diag_fisher, init_two_layer(3, 2, kappa=1.0, seed=36)),
    (diag_fisher, init_mlp([2, 4, 3], seed=37)),
    (kfac_fisher, init_mlp([2, 4, 3], seed=37)),
], ids=["full", "diag-two-layer", "diag-mlp", "kfac"])
def test_one_dimensional_input_rejected(build, model):
    # A client's inputs are one batch (n, dim); one example is a one-row batch.
    with pytest.raises(ValueError, match="2-d batch"):
        build(model, np.array([0.6, 0.8]))
