"""Tests for the slow reference implementations.

These are the independent checks the rest of the suite leans on, so they are
validated against closed forms and hand-worked instances only.
"""

import numpy as np
import pytest

from oneshot_fl import models
from oneshot_fl.models import LOSS_SOFTMAX, LOSS_SQUARED

from oracle import (
    constrained_min_norm_solution,
    fd_gradient,
    gram_lambda0,
    mc_fisher,
)


class TestConstrainedSolution:
    def test_full_rank_single_client(self):
        # One client, invertible curvature: constraint forces W = W_1 exactly.
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        f = a @ a.T + np.eye(4)
        w = rng.standard_normal(4)
        sol = constrained_min_norm_solution([f], [w])
        assert sol.rank == 4
        assert np.allclose(sol.weights, w, atol=1e-10)
        assert sol.nullspace.shape == (4, 0)

    def test_zero_curvature_returns_mean(self):
        w1 = np.array([1.0, 3.0])
        w2 = np.array([3.0, 5.0])
        sol = constrained_min_norm_solution([np.zeros((2, 2))] * 2, [w1, w2])
        assert sol.rank == 0
        assert np.allclose(sol.weights, [2.0, 4.0])

    def test_hand_worked_rank_one(self):
        # F1 = e1 e1^T, F2 = 0. Constraint: W[0] = w1[0]; free coordinate
        # stays at the mean.
        f1 = np.array([[1.0, 0.0], [0.0, 0.0]])
        w1 = np.array([2.0, 0.0])
        w2 = np.array([0.0, 6.0])
        sol = constrained_min_norm_solution([f1, np.zeros((2, 2))], [w1, w2])
        assert sol.rank == 1
        assert np.allclose(sol.weights, [2.0, 3.0], atol=1e-12)

    def test_constraint_residual_zero_on_random_instances(self):
        for seed in range(15):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(2, 9))
            m = int(rng.integers(1, 4))
            fishers, weights = [], []
            for _ in range(m):
                r = int(rng.integers(1, d + 1))
                g = rng.standard_normal((d, r))
                fishers.append(g @ g.T)
                weights.append(rng.standard_normal(d))
            sol = constrained_min_norm_solution(fishers, weights)
            f_sum = sum(fishers)
            b = sum(f @ w for f, w in zip(fishers, weights))
            resid = np.linalg.norm(f_sum @ sol.weights - b)
            assert resid <= 1e-8 * (1.0 + np.linalg.norm(b))
            # Nullspace columns must be annihilated by the summed curvature.
            if sol.nullspace.shape[1]:
                assert np.linalg.norm(f_sum @ sol.nullspace) <= 1e-6 * max(
                    1.0, np.linalg.norm(f_sum)
                )

    def test_minimality_among_feasible_points(self):
        # Perturbing the solution inside the nullspace must not get closer
        # to the coefficient-weighted mean.
        rng = np.random.default_rng(7)
        d = 5
        g = rng.standard_normal((d, 2))
        f = g @ g.T
        w1 = rng.standard_normal(d)
        w2 = rng.standard_normal(d)
        sol = constrained_min_norm_solution([f, np.zeros((d, d))], [w1, w2])
        mean = (w1 + w2) / 2.0
        base = np.linalg.norm(sol.weights - mean)
        for _ in range(10):
            delta = sol.nullspace @ rng.standard_normal(sol.nullspace.shape[1])
            assert np.linalg.norm(sol.weights + delta - mean) >= base - 1e-12

    def test_coefficients_reweight_constraint(self):
        # Doubling one client's coefficient changes b and the mean.
        f = np.eye(2)
        w1 = np.array([0.0, 0.0])
        w2 = np.array([1.0, 1.0])
        sol = constrained_min_norm_solution([f, f], [w1, w2], coeffs=[1.0, 3.0])
        # Full-rank constraint: W = (1*w1 + 3*w2) / 4.
        assert np.allclose(sol.weights, [0.75, 0.75])

    def test_rejects_mismatched_inputs(self):
        with pytest.raises(ValueError):
            constrained_min_norm_solution([], [])
        with pytest.raises(ValueError):
            constrained_min_norm_solution([np.eye(2)], [np.zeros(3)])


class TestFdGradient:
    def test_quadratic_exact(self):
        # Squared loss on a linear-in-parameters model is quadratic, so the
        # central difference is exact up to rounding.
        model = models.init_two_layer(4, 3, kappa=0.5, seed=1)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((6, 3))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        y = rng.standard_normal(6)
        got = fd_gradient(model, x, y, LOSS_SQUARED)
        want = models.gradient(model, x, y, LOSS_SQUARED)
        denom = max(np.linalg.norm(want), 1e-12)
        assert np.linalg.norm(got - want) / denom < 1e-8

    def test_h_range_enforced(self):
        model = models.init_two_layer(2, 2, kappa=0.5, seed=0)
        x = np.eye(2)
        y = np.zeros(2)
        with pytest.raises(ValueError):
            fd_gradient(model, x, y, LOSS_SQUARED, h=1e-8)
        with pytest.raises(ValueError):
            fd_gradient(model, x, y, LOSS_SQUARED, h=1e-2)


class TestMcFisher:
    def test_draws_validated(self):
        model = models.init_two_layer(2, 2, kappa=0.5, seed=0)
        with pytest.raises(ValueError):
            mc_fisher(model, np.eye(2), LOSS_SQUARED, draws=0)

    def test_squared_loss_converges_to_jacobian_gram(self):
        # With unit label noise the curvature is J^T J averaged over inputs;
        # for the two-layer model that is the feature-map second moment.
        model = models.init_two_layer(8, 3, kappa=1.0, seed=3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 3))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        phi = models.feature_map(model, x)
        want = phi.T @ phi / x.shape[0]
        got = mc_fisher(model, x, LOSS_SQUARED, draws=4000, seed=5)
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert rel < 5.0 / np.sqrt(4000)

    def test_softmax_single_input_closed_form(self):
        # One input, softmax head: F = sum_c p_c g_c g_c^T with
        # g_c = (e_c - p) x-gradient structure; compare against the direct
        # expectation computed from per-class score gradients.
        model = models.init_mlp([3, 4, 3], seed=6)
        x = np.array([[0.3, -0.2, 0.5]])
        z = models.forward(model, x)[0]
        p = np.exp(z - z.max())
        p /= p.sum()
        d = models.param_count(model)
        want = np.zeros((d, d))
        for c in range(3):
            g = -models.gradient(model, x, np.array([c]), LOSS_SOFTMAX)
            want += p[c] * np.outer(g, g)
        got = mc_fisher(model, x, LOSS_SOFTMAX, draws=200_000, seed=7)
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert rel < 5.0 / np.sqrt(200_000) * 10


class TestGramLambda0:
    def test_single_unit_point(self):
        # E[1{w.x >= 0}] = 1/2 for any unit x, so the 1x1 Gram is [0.5].
        x = np.array([[1.0, 0.0]])
        est = gram_lambda0(x, mc_samples=40_000, seed=0)
        assert est.matrix.shape == (1, 1)
        assert est.matrix[0, 0] == pytest.approx(0.5, abs=0.02)
        assert est.lambda0 == pytest.approx(0.5, abs=0.02)

    def test_antipodal_points_closed_form(self):
        # For x and -x the indicators never fire together (up to the measure
        # zero boundary), so off-diagonals are -x.x * 0 = 0.
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        est = gram_lambda0(x, mc_samples=40_000, seed=1)
        assert abs(est.matrix[0, 1]) < 0.02
        assert est.matrix[0, 0] == pytest.approx(0.5, abs=0.02)

    def test_orthogonal_points_quarter_overlap(self):
        # Independent half-space events: P(both) = 1/4, but the inner product
        # x_k . x_l = 0 zeroes the entry anyway; check the diagonal instead
        # and that the matrix is PSD-ish.
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 6))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        est = gram_lambda0(x, mc_samples=30_000, seed=3)
        assert np.allclose(np.diag(est.matrix), 0.5, atol=0.03)
        assert est.lambda0 > -0.01

    def test_point_cap_enforced(self):
        x = np.zeros((501, 2))
        with pytest.raises(ValueError):
            gram_lambda0(x, mc_samples=10)
        with pytest.raises(ValueError):
            gram_lambda0(np.ones((2, 2)), mc_samples=0)
