"""Tests for the dense linear-algebra helpers."""

import numpy as np
import pytest

from oneshot_fl.numerics import kron_matvec, power_iteration_max_eig

from low_rank import LowRankFactors, top_k_svd


def _matvec(mat):
    return lambda v: mat @ v


class TestPowerIteration:
    def test_diagonal_example(self):
        # diag(3, 1): largest eigenvalue 3, reached from the Gaussian start.
        mat = np.diag([3.0, 1.0])
        res = power_iteration_max_eig(_matvec(mat), 2)
        assert res.converged
        assert res.value == pytest.approx(3.0, abs=1e-9)

    def test_random_psd_matches_eigh(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((8, 8))
            mat = a @ a.T
            want = np.linalg.eigvalsh(mat)[-1]
            res = power_iteration_max_eig(_matvec(mat), 8, tol=1e-12)
            assert res.converged
            assert res.value == pytest.approx(want, rel=1e-6)

    def test_restart_escapes_orthogonal_start(self):
        # The all-ones vector is an exact eigenvector for eigenvalue 1 here,
        # so a run started there would stop at 1; the seeded Gaussian start
        # is not orthogonal to the dominant eigenvector and reaches 5.
        q = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        mat = q @ np.diag([1.0, 5.0]) @ q.T
        res = power_iteration_max_eig(_matvec(mat), 2, tol=1e-12)
        assert res.value == pytest.approx(5.0, rel=1e-8)

    def test_zero_operator(self):
        res = power_iteration_max_eig(_matvec(np.zeros((3, 3))), 3)
        assert res.converged
        assert res.value == 0.0

    def test_rank_deficient(self):
        v = np.array([1.0, 2.0, 3.0])
        mat = np.outer(v, v)
        res = power_iteration_max_eig(_matvec(mat), 3, tol=1e-12)
        assert res.value == pytest.approx(float(v @ v), rel=1e-10)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            power_iteration_max_eig(_matvec(np.eye(2)), 0)
        with pytest.raises(ValueError):
            power_iteration_max_eig(_matvec(np.eye(2)), 2, tol=0.0)
        with pytest.raises(ValueError):
            power_iteration_max_eig(lambda v: np.zeros(3), 2)

    def test_not_converged_flag(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        mat = a @ a.T
        res = power_iteration_max_eig(_matvec(mat), 6, tol=1e-14, max_iters=2)
        assert not res.converged
        assert res.iterations == 2

    def test_maximality_witness(self):
        # The estimate must dominate the Rayleigh quotient of any probe.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((7, 7))
            mat = a @ a.T
            res = power_iteration_max_eig(_matvec(mat), 7, tol=1e-12)
            for _ in range(20):
                v = rng.standard_normal(7)
                v /= np.linalg.norm(v)
                assert res.value >= v @ mat @ v - 1e-8


class TestTopKSvd:
    def test_exact_recovery_at_full_rank(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 7))
        fac = top_k_svd(a, 5)
        assert fac.error == pytest.approx(0.0, abs=1e-10)
        assert np.allclose(fac.reconstruct(), a, atol=1e-10)

    def test_error_matches_discarded_singular_values(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((6, 6))
        s = np.linalg.svd(a, compute_uv=False)
        for k in range(1, 6):
            fac = top_k_svd(a, k)
            want = np.sqrt(np.sum(s[k:] ** 2))
            assert fac.error == pytest.approx(want, rel=1e-12)
            got = np.linalg.norm(a - fac.reconstruct())
            assert got == pytest.approx(fac.error, rel=1e-9, abs=1e-12)

    def test_best_rank_one_of_diag(self):
        fac = top_k_svd(np.diag([4.0, 2.0, 1.0]), 1)
        assert fac.s[0] == pytest.approx(4.0)
        assert fac.error == pytest.approx(np.sqrt(5.0), rel=1e-12)

    def test_k_out_of_range(self):
        a = np.zeros((3, 4))
        with pytest.raises(ValueError):
            top_k_svd(a, 0)
        with pytest.raises(ValueError):
            top_k_svd(a, 4)
        with pytest.raises(ValueError):
            top_k_svd(np.zeros(3), 1)

    def test_returns_lowrank_factors(self):
        fac = top_k_svd(np.eye(3), 2)
        assert isinstance(fac, LowRankFactors)
        assert fac.u.shape == (3, 2)
        assert fac.s.shape == (2,)
        assert fac.vt.shape == (2, 3)


class TestKronMatvec:
    def test_small_example(self):
        # Column-major vec: x = vec(I2), B @ I @ A.T = [[2,4],[1,3]],
        # stacked by columns -> (2, 1, 4, 3).
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = np.array([1.0, 0.0, 0.0, 1.0])
        got = kron_matvec(a, b, x)
        assert np.allclose(got, np.array([2.0, 1.0, 4.0, 3.0]))
        assert np.allclose(got, np.kron(a, b) @ x)

    def test_matches_dense_kron(self):
        # With the column-major convention the standard Kronecker matrix acts
        # on the same coordinates, so no permutation is needed.
        for seed in range(30):
            rng = np.random.default_rng(seed)
            ma, na, mb, nb = rng.integers(1, 7, size=4)
            a = rng.standard_normal((ma, na))
            b = rng.standard_normal((mb, nb))
            x = rng.standard_normal(na * nb)
            got = kron_matvec(a, b, x)
            want = np.kron(a, b) @ x
            assert got.shape == (ma * mb,)
            scale = max(1.0, np.linalg.norm(want))
            assert np.linalg.norm(got - want) <= 1e-10 * scale

    def test_zero_factor(self):
        got = kron_matvec(np.zeros((2, 2)), np.eye(2), np.ones(4))
        assert np.all(got == 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kron_matvec(np.eye(2), np.eye(2), np.zeros(3))
        with pytest.raises(ValueError):
            kron_matvec(np.zeros(2), np.eye(2), np.zeros(4))

    def test_identity_factors_round_trip(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(12)
        got = kron_matvec(np.eye(4), np.eye(3), x)
        assert np.allclose(got, x)
