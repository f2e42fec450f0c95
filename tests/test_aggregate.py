"""Tests for server-side merging, alone and inside client rounds."""

from dataclasses import replace

import numpy as np
import pytest

from oneshot_fl import aggregate, cli, models
from oneshot_fl.aggregate import (
    ClientUpdate,
    METHOD_FEDAVG,
    METHOD_FULL,
    ServerConfig,
    fedavg,
    fedfisher_gd,
    fedfisher_solve,
    fisher_merge_diag,
    merge_updates,
)
from oneshot_fl.datasets import FederatedDataset, gen_synthetic
from oneshot_fl.fisher import DiagFisher, FullFisher, KFACFisher, KFACLayer
from oneshot_fl.models import LOSS_SQUARED, TrainConfig, init_two_layer
from oneshot_fl.oracle import constrained_min_norm_solution

from merge_instances import rank_deficient_instance as _rand_instance


class TestFedavg:
    def test_single_client(self):
        w = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(fedavg([ClientUpdate(w)]), w)

    def test_hand_mean(self):
        got = fedavg([ClientUpdate(np.zeros(2)), ClientUpdate(np.array([2.0, 4.0]))])
        assert np.allclose(got, [1.0, 2.0])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        ws = [rng.standard_normal(5) for _ in range(4)]
        updates = [ClientUpdate(w) for w in ws]
        base = fedavg(updates)
        assert np.allclose(fedavg(updates[::-1]), base)
        assert np.allclose(fedavg([updates[2], updates[0], updates[3], updates[1]]), base)

    def test_sample_size_weighting(self):
        # n = (1, 3): the mean must weight client 2 three times as much.
        u1 = ClientUpdate(np.array([0.0]), n_examples=1)
        u2 = ClientUpdate(np.array([4.0]), n_examples=3)
        assert np.allclose(fedavg([u1, u2]), [3.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fedavg([])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fedavg([ClientUpdate(np.zeros(2)), ClientUpdate(np.zeros(3))])


class TestEstimateLmax:
    """lambda_max of the coefficient-weighted curvature sum, as the GD server
    estimates it for its auto step."""

    def test_diag_hand_example(self):
        updates = [
            ClientUpdate(np.zeros(2), DiagFisher(np.array([1.0, 2.0]))),
            ClientUpdate(np.zeros(2), DiagFisher(np.array([3.0, 0.0]))),
        ]
        assert fedfisher_gd(updates).lambda_max == pytest.approx(4.0, rel=1e-8)

    def test_all_zero(self):
        updates = [ClientUpdate(np.zeros(3), DiagFisher(np.zeros(3)))]
        assert fedfisher_gd(updates).lambda_max == 0.0

    def test_matches_dense_oracle(self):
        for seed in range(10):
            updates, dense = _rand_instance(seed)
            want = np.linalg.eigvalsh(sum(dense))[-1]
            got = fedfisher_gd(updates, ServerConfig(t_max=0)).lambda_max
            assert got == pytest.approx(want, rel=1e-3)

    def test_missing_fisher_rejected(self):
        with pytest.raises(ValueError):
            fedfisher_gd([ClientUpdate(np.zeros(2))])


class TestFedfisherGd:
    def test_identity_fishers_give_mean(self):
        rng = np.random.default_rng(1)
        updates = [
            ClientUpdate(rng.standard_normal(4), FullFisher(np.eye(4))) for _ in range(3)
        ]
        res = fedfisher_gd(updates)
        assert res.converged
        assert np.allclose(res.weights, fedavg(updates), atol=1e-9)

    def test_hand_instance(self):
        # F1 = F2 = diag(1, 0), W1 = (1, 0), W2 = (3, 4): the constrained
        # coordinate solves 2 w = 4, the free one keeps the mean 2.
        updates = [
            ClientUpdate(np.array([1.0, 0.0]), DiagFisher(np.array([1.0, 0.0]))),
            ClientUpdate(np.array([3.0, 4.0]), DiagFisher(np.array([1.0, 0.0]))),
        ]
        res = fedfisher_gd(updates)
        assert res.converged
        assert np.allclose(res.weights, [2.0, 2.0], atol=1e-9)

    def test_matches_oracle_on_rank_deficient_instances(self):
        cfg = ServerConfig(stop_tol=1e-12)
        for seed in range(15):
            updates, dense = _rand_instance(seed)
            res = fedfisher_gd(updates, cfg)
            want = constrained_min_norm_solution(
                dense, [u.weights for u in updates]
            ).weights
            rel = np.linalg.norm(res.weights - want) / max(np.linalg.norm(want), 1e-12)
            assert rel <= 1e-6

    def test_residual_bound(self):
        cfg = ServerConfig(stop_tol=1e-12)
        for seed in range(8):
            updates, dense = _rand_instance(seed + 100)
            res = fedfisher_gd(updates, cfg)
            f_sum = sum(dense)
            b = sum(f @ u.weights for f, u in zip(dense, updates))
            resid = np.linalg.norm(f_sum @ res.weights - b)
            assert resid <= 1e-6 * (1.0 + np.linalg.norm(b))

    def test_monotone_objective(self):
        for seed in range(6):
            updates, _ = _rand_instance(seed + 50)
            res = fedfisher_gd(updates, ServerConfig(t_max=200), record_objective=True)
            trace = np.array(res.objective_trace)
            assert np.all(np.diff(trace) <= 1e-10 * np.maximum(1.0, np.abs(trace[:-1])))

    def test_projection_property(self):
        # Moving along the constraint set away from the solution only
        # increases the distance to the mean.
        rng = np.random.default_rng(2)
        updates, dense = _rand_instance(11)
        res = fedfisher_gd(updates, ServerConfig(stop_tol=1e-12))
        sol = constrained_min_norm_solution(dense, [u.weights for u in updates])
        mean = fedavg(updates)
        base = np.linalg.norm(res.weights - mean)
        null = sol.nullspace
        for _ in range(100):
            w_other = res.weights + null @ rng.standard_normal(null.shape[1])
            assert np.linalg.norm(w_other - mean) >= base - 1e-8

    def test_permutation_invariance(self):
        updates, _ = _rand_instance(21, m_max=4)
        if len(updates) < 2:
            updates = updates * 2
        base = fedfisher_gd(updates, ServerConfig(stop_tol=1e-12)).weights
        perm = fedfisher_gd(updates[::-1], ServerConfig(stop_tol=1e-12)).weights
        assert np.allclose(base, perm, atol=1e-8)

    def test_manual_step_warning(self):
        updates = [
            ClientUpdate(np.array([1.0, 0.0]), DiagFisher(np.array([2.0, 1.0]))),
        ]
        safe = fedfisher_gd(updates, ServerConfig(eta_s=0.4))
        hot = fedfisher_gd(updates, ServerConfig(eta_s=0.9, t_max=50))
        assert not safe.step_warning
        assert hot.step_warning  # 0.9 * lambda_max = 1.8 > 1

    def test_zero_fishers_return_mean(self):
        updates = [
            ClientUpdate(np.array([1.0, 3.0]), DiagFisher(np.zeros(2))),
            ClientUpdate(np.array([3.0, 5.0]), DiagFisher(np.zeros(2))),
        ]
        res = fedfisher_gd(updates)
        assert res.converged
        assert np.allclose(res.weights, [2.0, 4.0])

    def test_sample_size_weighting_changes_solution(self):
        base = [
            ClientUpdate(np.array([0.0]), DiagFisher(np.array([1.0])), n_examples=1),
            ClientUpdate(np.array([4.0]), DiagFisher(np.array([1.0])), n_examples=1),
        ]
        skew = [
            ClientUpdate(np.array([0.0]), DiagFisher(np.array([1.0])), n_examples=1),
            ClientUpdate(np.array([4.0]), DiagFisher(np.array([1.0])), n_examples=3),
        ]
        assert fedfisher_gd(base).weights[0] == pytest.approx(2.0, abs=1e-9)
        assert fedfisher_gd(skew).weights[0] == pytest.approx(3.0, abs=1e-9)

    def test_invalid_eta_rejected(self):
        updates = [ClientUpdate(np.zeros(2), DiagFisher(np.ones(2)))]
        with pytest.raises(ValueError):
            fedfisher_gd(updates, ServerConfig(eta_s=0.0))


class TestFedfisherAdam:
    """The Adam step rule of the server loop, and the validation choice it
    shares with GD."""

    def test_agrees_with_gd_on_determined_instance(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((2, 2))
        f = g @ g.T + 0.5 * np.eye(2)
        updates = [
            ClientUpdate(rng.standard_normal(2), FullFisher(f)),
            ClientUpdate(rng.standard_normal(2), FullFisher(f)),
        ]
        gd = fedfisher_gd(updates, ServerConfig(stop_tol=1e-13))
        adam = fedfisher_solve(updates, ServerConfig(optimizer="adam", t_max=20_000, stop_tol=1e-13))
        assert np.linalg.norm(adam.weights - gd.weights) <= 1e-3

    def test_zero_fishers_stay_at_mean(self):
        updates = [
            ClientUpdate(np.array([1.0, 3.0]), DiagFisher(np.zeros(2))),
            ClientUpdate(np.array([3.0, 5.0]), DiagFisher(np.zeros(2))),
        ]
        res = fedfisher_solve(updates, ServerConfig(optimizer="adam", t_max=100))
        assert np.allclose(res.weights, [2.0, 4.0])

    def test_no_val_fn_returns_final_iterate(self):
        updates, _ = _rand_instance(31)
        cfg = ServerConfig(optimizer="adam", t_max=50, stop_tol=0.0 + 1e-300)
        res = fedfisher_solve(updates, cfg)
        assert res.iterations == 50

    @pytest.mark.parametrize("optimizer", ["gd", "adam"])
    def test_val_fn_keeps_best_iterate(self, optimizer):
        # A validation score that prefers the starting mean must win over
        # every later iterate. Two clients, so the iterates do leave the mean.
        updates, _ = _rand_instance(35)
        mean = fedavg(updates)
        cfg = ServerConfig(
            optimizer=optimizer,
            t_max=30,
            val_every=10,
            val_fn=lambda w: -float(np.linalg.norm(w - mean)),
        )
        moved = fedfisher_solve(updates, replace(cfg, val_fn=None)).weights
        assert not np.allclose(moved, mean)
        res = fedfisher_solve(updates, cfg)
        assert np.allclose(res.weights, mean)

    def test_val_fn_can_select_late_iterate(self):
        updates, dense = _rand_instance(33)
        b = sum(f @ u.weights for f, u in zip(dense, updates))
        f_sum = sum(dense)
        cfg = ServerConfig(
            optimizer="adam",
            t_max=3000,
            val_every=100,
            val_fn=lambda w: -float(np.linalg.norm(f_sum @ w - b)),
        )
        res = fedfisher_solve(updates, cfg)
        start = np.linalg.norm(f_sum @ fedavg(updates) - b)
        assert np.linalg.norm(f_sum @ res.weights - b) < start

    def test_runs_no_power_iteration(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the Adam server must not estimate lambda_max")

        monkeypatch.setattr(aggregate, "power_iteration_max_eig", forbidden)
        updates, _ = _rand_instance(31)
        cfg = ServerConfig(optimizer="adam", t_max=20, stop_tol=1e-300)
        _, res = merge_updates("fedfisher-diag", updates, cfg)
        assert res.iterations == 20
        assert np.isnan(res.lambda_max)


class TestFisherMergeDiag:
    def test_equal_fishers_plain_mean(self):
        f = DiagFisher(np.array([0.7, 0.7]))
        updates = [
            ClientUpdate(np.array([0.0, 2.0]), f),
            ClientUpdate(np.array([2.0, 6.0]), f),
        ]
        assert np.allclose(fisher_merge_diag(updates), [1.0, 4.0])

    def test_hand_weighted_mean(self):
        updates = [
            ClientUpdate(np.array([0.0]), DiagFisher(np.array([1.0]))),
            ClientUpdate(np.array([4.0]), DiagFisher(np.array([3.0]))),
        ]
        assert np.allclose(fisher_merge_diag(updates), [3.0])

    def test_floor_dominates_dead_coordinates(self):
        updates = [
            ClientUpdate(np.array([0.0]), DiagFisher(np.array([0.0]))),
            ClientUpdate(np.array([4.0]), DiagFisher(np.array([1e-12]))),
        ]
        assert np.allclose(fisher_merge_diag(updates, floor=1e-6), [2.0])

    def test_rejects_non_diag(self):
        updates = [ClientUpdate(np.zeros(2), FullFisher(np.eye(2)))]
        with pytest.raises(ValueError):
            fisher_merge_diag(updates)

    def test_rejects_bad_floor(self):
        updates = [ClientUpdate(np.zeros(2), DiagFisher(np.ones(2)))]
        with pytest.raises(ValueError):
            fisher_merge_diag(updates, floor=0.0)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(4)
        updates = [
            ClientUpdate(rng.standard_normal(6), DiagFisher(rng.random(6)))
            for _ in range(4)
        ]
        assert np.allclose(fisher_merge_diag(updates), fisher_merge_diag(updates[::-1]))


class TestMergeUpdates:
    def test_dispatch_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            merge_updates("fedprox", [ClientUpdate(np.zeros(2))], ServerConfig())

    def test_dispatch_unknown_optimizer(self):
        updates = [ClientUpdate(np.zeros(2), DiagFisher(np.ones(2)))]
        with pytest.raises(ValueError, match="optimizer"):
            merge_updates("fedfisher-diag", updates, ServerConfig(optimizer="lbfgs"))

    def test_kfac_payloads_are_applied_per_client(self):
        # Two K-FAC clients whose Kronecker sum is NOT a Kronecker product:
        # the merge must still match the dense oracle.
        rng = np.random.default_rng(5)
        layers_dims = [(3, 2)]
        updates, dense = [], []
        for _ in range(2):
            ga = rng.standard_normal((3, 3))
            gb = rng.standard_normal((2, 2))
            a, b = ga @ ga.T, gb @ gb.T
            f = KFACFisher([KFACLayer(a, b)])
            w = rng.standard_normal(6)
            updates.append(ClientUpdate(w, f))
            dense.append(np.kron(a, b))
        got, res = merge_updates("fedfisher-kfac", updates, ServerConfig(stop_tol=1e-13))
        want = constrained_min_norm_solution(dense, [u.weights for u in updates]).weights
        assert np.linalg.norm(got - want) <= 1e-6 * max(1.0, np.linalg.norm(want))


class TestFewShotRounds:
    """Broadcast rounds built from ``cli.train_round`` and ``cli.merge_round``."""

    _CFG = cli.default_config("synthetic-width")  # squared loss, expected curvature

    def _tiny_dataset(self, seed=0):
        return gen_synthetic(clients=2, per_client=25, dim=2, seed=seed)

    def _rounds(self, ds, model, rounds, local, server, method, seed):
        weights = []
        start = model
        for r in range(rounds):
            rnd = cli.train_round(self._CFG, ds, [start] * ds.num_clients, local, seed, r)
            merged, _ = cli.merge_round(rnd, method, None, server)
            weights.append(merged)
            start = models.with_flat_params(model, merged)
        return weights

    def test_single_round_equals_one_shot(self):
        ds = self._tiny_dataset()
        model = init_two_layer(16, 2, kappa=0.5, seed=1)
        local = TrainConfig(eta=0.1, epochs_or_steps=64, batch_size=10_000)
        server = ServerConfig(stop_tol=1e-12)
        (got,) = self._rounds(ds, model, 1, local, server, METHOD_FULL, seed=9)

        # Replicate the round by hand with the same substreams.
        updates = []
        for i in range(2):
            cx, cy = ds.client_data(i)
            trained = models.sgd_train(model, cx, cy, local, loss=LOSS_SQUARED, seed=[9, 0, i])
            from oneshot_fl.fisher import full_fisher_two_layer

            f = full_fisher_two_layer(trained.model, cx, seed=[9, 0, i, 99])
            updates.append(ClientUpdate(models.get_flat_params(trained.model), f, cx.shape[0]))
        want = fedfisher_gd(updates, server).weights
        assert np.allclose(got, want, atol=1e-12)

    def test_metrics_length_matches_rounds(self):
        cfg = replace(cli.default_config("few-shot"), n_train=90, n_test=30, classes=3,
                      side=6, clients=2, alpha=100.0, epochs_or_steps=2, batch_size=16,
                      hidden_dims=[8], seeds=[3], rounds=3, timing=False,
                      methods=[METHOD_FEDAVG])
        rows = cli.run_few_shot(cfg)
        assert [r.sweep for r in rows] == [1.0, 2.0, 3.0]
        for row in rows:
            assert np.isfinite(row.train_loss)

    def test_homogeneous_fedavg_is_centralized_continuation(self):
        # All clients hold identical data; full-batch fedavg rounds must
        # reproduce centralized training step for step.
        rng = np.random.default_rng(6)
        x = rng.standard_normal((30, 2))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        y = rng.standard_normal(30)
        xx = np.concatenate([x, x])
        yy = np.concatenate([y, y])
        ds = FederatedDataset(
            x=xx, y=yy, partition=[np.arange(30), np.arange(30, 60)]
        )
        model = init_two_layer(32, 2, kappa=0.5, seed=7)
        k = 20
        local = TrainConfig(eta=0.05, epochs_or_steps=k, batch_size=10_000)
        weights = self._rounds(ds, model, 2, local, ServerConfig(), METHOD_FEDAVG, seed=8)
        central = models.sgd_train(
            model, x, y, TrainConfig(eta=0.05, epochs_or_steps=2 * k, batch_size=10_000)
        )
        assert np.allclose(weights[-1], models.get_flat_params(central.model), atol=1e-9)

    def test_divergent_client_flags_result(self, tmp_path):
        ds = self._tiny_dataset(2)
        model = init_two_layer(8, 2, kappa=0.5, seed=10)
        local = TrainConfig(eta=1e9, epochs_or_steps=50, batch_size=10_000)
        with pytest.raises(cli.DivergenceError, match="diverged"):
            self._rounds(ds, model, 2, local, ServerConfig(), METHOD_FEDAVG, seed=11)
        out = tmp_path / "d.csv"
        code = cli.main(["few-shot", "--n-train", "90", "--n-test", "30", "--seed-list", "0",
                         "--eta", "1e9", "--epochs", "2", "--methods", "fedavg",
                         "--no-timing", "--out", str(out)])
        assert code == cli.EXIT_DIVERGED
        assert not out.exists()

    def test_rounds_validated(self, tmp_path, capsys):
        code = cli.main(["few-shot", "--rounds", "0", "--no-timing",
                         "--out", str(tmp_path / "x.csv")])
        assert code == cli.EXIT_CONFIG
        assert "rounds" in capsys.readouterr().err
