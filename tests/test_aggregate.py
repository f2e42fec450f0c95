"""Tests for server-side merging, alone and inside client rounds."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from oneshot_fl import aggregate, cli, compress, fisher, models
from oneshot_fl.aggregate import (
    ClientUpdate,
    METHOD_FEDAVG,
    METHOD_FULL,
    ServerConfig,
    fedavg,
    fedfisher_solve,
    fisher_merge_diag,
    merge_updates,
)
from oneshot_fl.datasets import FederatedDataset, gen_synthetic
from oneshot_fl.fisher import DiagFisher, FullFisher, KFACFisher, KFACLayer, fisher_matvec
from oneshot_fl.models import TrainConfig, init_two_layer

from merge_instances import rank_deficient_instance as _rand_instance
from oracle import constrained_min_norm_solution


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
        assert fedfisher_solve(updates).lambda_max == pytest.approx(4.0, rel=1e-8)

    def test_all_zero(self):
        updates = [ClientUpdate(np.zeros(3), DiagFisher(np.zeros(3)))]
        assert fedfisher_solve(updates).lambda_max == 0.0

    def test_matches_dense_oracle(self):
        for seed in range(10):
            updates, dense = _rand_instance(seed)
            want = np.linalg.eigvalsh(sum(dense))[-1]
            got = fedfisher_solve(updates, ServerConfig(t_max=0)).lambda_max
            assert got == pytest.approx(want, rel=1e-3)

    def test_diag_path_takes_the_largest_summed_entry(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("diagonal GD must read lambda_max off the summed diagonal")

        monkeypatch.setattr(aggregate, "power_iteration_max_eig", forbidden)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            updates = [ClientUpdate(rng.standard_normal(9), DiagFisher(rng.random(9)),
                                    int(rng.integers(1, 50))) for _ in range(3)]
            summed = np.zeros(9)
            for c, u in zip(aggregate._coefficients(updates), updates):
                summed += c * u.fisher.diag
            for t_max in (0, 20):
                res = fedfisher_solve(updates, ServerConfig(t_max=t_max))
                assert res.lambda_max == summed.max()

    @pytest.mark.parametrize("eta_s", [None, 1e-3])
    def test_unconverged_power_iteration_sets_step_warning(self, eta_s, monkeypatch):
        # An unconverged Rayleigh quotient is at most lambda_max, so even the
        # auto step 1 / (1.01 * estimate) may exceed 1 / lambda_max.
        updates = TestStepLoopMatchesTextbook._kfac_and_diag()
        cfg = ServerConfig(eta_s=eta_s, t_max=5)
        assert not fedfisher_solve(updates, cfg).step_warning
        power = aggregate.power_iteration_max_eig

        def unconverged(*args, **kwargs):
            return replace(power(*args, **kwargs), converged=False)

        monkeypatch.setattr(aggregate, "power_iteration_max_eig", unconverged)
        assert fedfisher_solve(updates, cfg).step_warning

    def test_missing_fisher_rejected(self):
        with pytest.raises(ValueError):
            fedfisher_solve([ClientUpdate(np.zeros(2))])

    @pytest.mark.parametrize("t_max", [0, 1000])
    def test_dense_path_takes_the_largest_eigenvalue(self, t_max):
        for updates in _rank_deficient("dense", count=5):
            want = np.linalg.eigvalsh(sum(_dense(u.fisher) for u in updates))[-1]
            got = fedfisher_solve(updates, ServerConfig(t_max=t_max)).lambda_max
            assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("shared", ["zeros", "random"])
    def test_dense_path_at_a_stationary_mean(self, shared):
        # Identical client weights: the mean is a minimizer and g0 = 0 (up to
        # rounding for nonzero weights), yet lambda_max still comes out whole.
        for updates in _rank_deficient("dense", count=5):
            w = updates[0].weights * (shared == "random")
            res = fedfisher_solve([ClientUpdate(w, u.fisher) for u in updates])
            want = np.linalg.eigvalsh(sum(_dense(u.fisher) for u in updates))[-1]
            assert res.lambda_max == pytest.approx(want, rel=1e-10)
            assert res.converged
            assert np.allclose(res.weights, w, rtol=0.0, atol=1e-12)

    def test_dense_path_runs_no_power_iteration(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("dense GD must take lambda_max from its eigenvalues")

        monkeypatch.setattr(aggregate, "power_iteration_max_eig", forbidden)
        for updates in _rank_deficient("dense", count=2):
            fedfisher_solve(updates)
            fedfisher_solve(updates, ServerConfig(t_max=0))
            fedfisher_solve(updates, ServerConfig(eta_s=0.1, t_max=10))


class TestFedfisherGd:
    def test_identity_fishers_give_mean(self):
        rng = np.random.default_rng(1)
        updates = [
            ClientUpdate(rng.standard_normal(4), FullFisher(np.eye(4))) for _ in range(3)
        ]
        res = fedfisher_solve(updates)
        assert res.converged
        assert np.allclose(res.weights, fedavg(updates), atol=1e-9)

    def test_hand_instance(self):
        # F1 = F2 = diag(1, 0), W1 = (1, 0), W2 = (3, 4): the constrained
        # coordinate solves 2 w = 4, the free one keeps the mean 2.
        updates = [
            ClientUpdate(np.array([1.0, 0.0]), DiagFisher(np.array([1.0, 0.0]))),
            ClientUpdate(np.array([3.0, 4.0]), DiagFisher(np.array([1.0, 0.0]))),
        ]
        res = fedfisher_solve(updates)
        assert res.converged
        assert np.allclose(res.weights, [2.0, 2.0], atol=1e-9)

    def test_matches_oracle_on_rank_deficient_instances(self):
        cfg = ServerConfig(stop_tol=1e-12)
        for seed in range(15):
            updates, dense = _rand_instance(seed)
            res = fedfisher_solve(updates, cfg)
            want = constrained_min_norm_solution(
                dense, [u.weights for u in updates]
            ).weights
            rel = np.linalg.norm(res.weights - want) / max(np.linalg.norm(want), 1e-12)
            assert rel <= 1e-6

    def test_residual_bound(self):
        cfg = ServerConfig(stop_tol=1e-12)
        for seed in range(8):
            updates, dense = _rand_instance(seed + 100)
            res = fedfisher_solve(updates, cfg)
            f_sum = sum(dense)
            b = sum(f @ u.weights for f, u in zip(dense, updates))
            resid = np.linalg.norm(f_sum @ res.weights - b)
            assert resid <= 1e-6 * (1.0 + np.linalg.norm(b))

    def test_monotone_objective(self):
        for seed in range(6):
            updates, _ = _rand_instance(seed + 50)
            res = fedfisher_solve(updates, ServerConfig(t_max=200), record_objective=True)
            trace = np.array(res.objective_trace)
            assert np.all(np.diff(trace) <= 1e-10 * np.maximum(1.0, np.abs(trace[:-1])))

    def test_projection_property(self):
        # Moving along the constraint set away from the solution only
        # increases the distance to the mean.
        rng = np.random.default_rng(2)
        updates, dense = _rand_instance(11)
        res = fedfisher_solve(updates, ServerConfig(stop_tol=1e-12))
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
        base = fedfisher_solve(updates, ServerConfig(stop_tol=1e-12)).weights
        perm = fedfisher_solve(updates[::-1], ServerConfig(stop_tol=1e-12)).weights
        assert np.allclose(base, perm, atol=1e-8)

    def test_manual_step_warning(self):
        updates = [
            ClientUpdate(np.array([1.0, 0.0]), DiagFisher(np.array([2.0, 1.0]))),
        ]
        safe = fedfisher_solve(updates, ServerConfig(eta_s=0.4))
        hot = fedfisher_solve(updates, ServerConfig(eta_s=0.9, t_max=50))
        assert not safe.step_warning
        assert hot.step_warning  # 0.9 * lambda_max = 1.8 > 1

    def test_zero_fishers_return_mean(self):
        updates = [
            ClientUpdate(np.array([1.0, 3.0]), DiagFisher(np.zeros(2))),
            ClientUpdate(np.array([3.0, 5.0]), DiagFisher(np.zeros(2))),
        ]
        res = fedfisher_solve(updates, record_objective=True)
        assert res.converged
        assert np.allclose(res.weights, [2.0, 4.0])
        assert res.objective_trace == [0.0]  # the objective at the returned weights

    def test_sample_size_weighting_changes_solution(self):
        base = [
            ClientUpdate(np.array([0.0]), DiagFisher(np.array([1.0])), n_examples=1),
            ClientUpdate(np.array([4.0]), DiagFisher(np.array([1.0])), n_examples=1),
        ]
        skew = [
            ClientUpdate(np.array([0.0]), DiagFisher(np.array([1.0])), n_examples=1),
            ClientUpdate(np.array([4.0]), DiagFisher(np.array([1.0])), n_examples=3),
        ]
        assert fedfisher_solve(base).weights[0] == pytest.approx(2.0, abs=1e-9)
        assert fedfisher_solve(skew).weights[0] == pytest.approx(3.0, abs=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_is_not_convergence(self):
        # Once the iterate's norm overflows, the stop test compares inf with
        # inf; the step-by-step loop must report divergence, not convergence.
        updates = [ClientUpdate(np.array([1.0, -1.0]), DiagFisher(np.array([2.0, 1.0]))),
                   ClientUpdate(np.array([0.0, 1.0]), DiagFisher(np.array([1.0, 1.0])))]
        # lambda_max = 3, so eta * lambda_max = 2.4 > 2.
        res = fedfisher_solve(updates, ServerConfig(eta_s=0.8, t_max=5000), record_objective=True)
        assert res.diverged and not res.converged
        assert np.all(np.isfinite(res.weights))
        assert len(res.objective_trace) == res.iterations + 1

    def test_invalid_eta_rejected(self):
        updates = [ClientUpdate(np.zeros(2), DiagFisher(np.ones(2)))]
        with pytest.raises(ValueError):
            fedfisher_solve(updates, ServerConfig(eta_s=0.0))

    @pytest.mark.parametrize("optimizer", ["gd", "adam"])
    @pytest.mark.parametrize("field, value", [
        ("t_max", -5), ("stop_tol", -1e-3), ("val_every", 0), ("val_every", -2),
        ("kron_precision", "float16"),
    ])
    def test_out_of_range_config_rejected(self, optimizer, field, value):
        updates = [ClientUpdate(np.ones(3), FullFisher(np.eye(3))),
                   ClientUpdate(np.zeros(3), FullFisher(2 * np.eye(3)))]
        cfg = replace(ServerConfig(optimizer=optimizer, eta_s=0.1, t_max=10,
                                   val_fn=lambda w: 0.0), **{field: value})
        with pytest.raises(ValueError, match=field):
            fedfisher_solve(updates, cfg)


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
        gd = fedfisher_solve(updates, ServerConfig(stop_tol=1e-13))
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


def _textbook_steps(updates, cfg):
    """Reference for the server's step-by-step loop: each step's update and
    iterate as fresh arrays, in the order of the textbook GD and Adam rules,
    keeping the best-validation iterate."""
    _, op, b, _ = aggregate._merge_problem(updates)
    eta = cfg.eta_s
    w = fedavg(updates)
    m, v = np.zeros_like(w), np.zeros_like(w)
    best_w, best = w, cfg.val_fn(w)
    iterations, converged, diverged = 0, False, False
    for t in range(1, cfg.t_max + 1):
        g = op.matvec(w) - b
        if cfg.optimizer == "adam":
            m = aggregate.ADAM_BETA1 * m + (1.0 - aggregate.ADAM_BETA1) * g
            v = aggregate.ADAM_BETA2 * v + (1.0 - aggregate.ADAM_BETA2) * g * g
            m_hat = m / (1.0 - aggregate.ADAM_BETA1**t)
            v_hat = v / (1.0 - aggregate.ADAM_BETA2**t)
            step = eta * m_hat / (np.sqrt(v_hat) + aggregate.ADAM_EPS)
        else:
            step = eta * g
        w_next = w - step
        step_norm, w_norm = np.linalg.norm(step), np.linalg.norm(w_next)
        if not np.isfinite(step_norm + w_norm):
            diverged = True
            break
        w, iterations = w_next, t
        if t % cfg.val_every == 0 and cfg.val_fn(w) > best:
            best, best_w = cfg.val_fn(w), w
        if step_norm <= cfg.stop_tol * (1.0 + w_norm):
            converged = True
            break
    if not diverged and iterations % cfg.val_every and cfg.val_fn(w) > best:
        best_w = w
    return best_w, iterations, converged, diverged


class TestStepLoopMatchesTextbook:
    """The step loop updates its moments and iterates in place; its results
    must equal the textbook rules' bit for bit."""

    @staticmethod
    def _kfac_and_diag(seed=60):
        rng = np.random.default_rng(seed)
        updates = []
        for i in range(3):
            w = rng.standard_normal(12)
            if i == 2:
                updates.append(ClientUpdate(w, DiagFisher(rng.uniform(0.1, 2.0, 12))))
                continue
            a, c = rng.standard_normal((4, 4)), rng.standard_normal((3, 3))
            updates.append(ClientUpdate(w, KFACFisher([KFACLayer(a @ a.T, c @ c.T)])))
        return updates

    @pytest.mark.parametrize("optimizer, eta", [
        ("adam", 0.05), ("gd", 0.02), ("adam", 1e300), ("gd", 1e300),  # last two overflow
    ])
    def test_same_iterates_and_choice(self, optimizer, eta):
        updates = self._kfac_and_diag()
        mean = fedavg(updates)
        with np.errstate(over="ignore", invalid="ignore"):
            free = fedfisher_solve(updates, ServerConfig(optimizer=optimizer, eta_s=eta, t_max=80))
            # A score that peaks halfway between the mean and the last iterate,
            # so the chosen iterate is not the one the loop ends on.
            half = 0.5 * float(np.linalg.norm(free.weights - mean))
            cfg = ServerConfig(optimizer=optimizer, eta_s=eta, t_max=80, val_every=3,
                               val_fn=lambda w: -abs(float(np.linalg.norm(w - mean)) - half))
            got = fedfisher_solve(updates, cfg)
            weights, iterations, converged, diverged = _textbook_steps(updates, cfg)
        assert np.array_equal(got.weights, weights)
        assert (got.iterations, got.converged, got.diverged) == (iterations, converged, diverged)
        assert diverged == (eta > 1.0)


def _dense(f):
    return f.matrix if isinstance(f, FullFisher) else np.diag(f.diag)


def _stepwise_gd(updates, eta, t_max, stop_tol, val_fn=None, val_every=1):
    """Reference for the eigenpair evaluation: fixed-step GD from the weighted
    mean on the dense summed curvature, one matvec per step, with the
    solver's stop test, objective trace and validation choice."""
    counts = np.array([u.n_examples for u in updates], dtype=np.float64)
    coeffs = counts * len(updates) / counts.sum()
    f_sum = sum(c * _dense(u.fisher) for c, u in zip(coeffs, updates))
    b = sum(c * _dense(u.fisher) @ u.weights for c, u in zip(coeffs, updates))
    const = sum(c * u.weights @ _dense(u.fisher) @ u.weights for c, u in zip(coeffs, updates))
    w = fedavg(updates)
    best_w, best = w, (val_fn(w) if val_fn else None)
    trace, iterations, converged, diverged = [], 0, False, False
    for t in range(1, t_max + 1):
        g = f_sum @ w - b
        trace.append(float(w @ g) - float(w @ b) + const)
        step = eta * g
        step_norm, w_norm = np.linalg.norm(step), np.linalg.norm(w - step)
        if not np.isfinite(step_norm + w_norm):
            diverged = True
            break
        w, iterations = w - step, t
        if val_fn and t % val_every == 0 and val_fn(w) > best:
            best, best_w = val_fn(w), w
        if step_norm <= stop_tol * (1.0 + w_norm):
            converged = True
            break
    if val_fn and not diverged and iterations % val_every and val_fn(w) > best:
        best_w = w
    final = best_w if val_fn else w
    if not diverged:
        trace.append(float(final @ (f_sum @ final - b)) - float(final @ b) + const)
    return dict(weights=final, iterations=iterations, converged=converged,
                diverged=diverged, trace=trace)


def _full_sweep(path, stop_tol):
    """Reference for ``_SpectralGD.run``: the stop test of the step loop at
    every t = 1 .. t_max, in blocks of steps, from the eigenpairs of ``path``."""
    rows = max(1, aggregate._SWEEP_BLOCK // max(path.theta.size, 1))
    for start in range(0, path.t_max, rows):
        s = np.arange(start, min(start + rows, path.t_max), dtype=np.float64)[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            grad = aggregate._landweber(path.theta, path.eta, s)[0] * path.z
            step = path.eta * np.sqrt(np.sum(grad**2, axis=1))
            filt = aggregate._landweber(path.theta, path.eta, s + 1)[1]
            norm_w = np.sqrt(path.perp2 + np.sum((path.a - filt * path.z) ** 2, axis=1))
            finite = np.isfinite(step) & np.isfinite(norm_w)
            hit = np.flatnonzero(~finite | (step <= stop_tol * (1.0 + norm_w)))
        if hit.size:
            i = hit[0]
            t = int(s[i, 0]) + 1
            return (t, True, False) if finite[i] else (t - 1, False, True)
    return path.t_max, False, False


def _rank_deficient(kind, count=3):
    """The first ``count`` instances whose curvature is all dense or mixed."""
    found = []
    for seed in range(100):
        updates, _ = _rand_instance(seed)
        dense = [isinstance(u.fisher, FullFisher) for u in updates]
        if (all(dense) and len(dense) > 1) if kind == "dense" else (any(dense) and not all(dense)):
            found.append(updates)
        if len(found) == count:
            return found
    raise AssertionError(f"no {kind} instances")


@pytest.fixture(scope="module")
def width_512_merge():
    """Two clients of the width sweep at width 512 (d = 1024), trained 128 steps."""
    cfg = replace(cli.default_config("synthetic-width"), epochs_or_steps=128)
    data = gen_synthetic(cfg.clients, cfg.per_client, cfg.dim, 0)
    init = init_two_layer(512, cfg.dim, cfg.kappa, [0, 512, 7])
    local = cli._local_config(cfg, data.x.shape[0], 128)
    rnd = cli.Round(data, [init] * 2, local, 0, 0)
    updates = []
    for i, client in enumerate(rnd.clients):
        x, _ = data.client_data(i)
        updates.append(ClientUpdate(models.get_flat_params(client.model),
                                    fisher.full_fisher_two_layer(client.model, x), x.shape[0]))
    return updates


def _lambda_max(updates):
    return fedfisher_solve(updates, ServerConfig(t_max=0)).lambda_max


class TestSpectralGd:
    """GD on curvature with a dense part is evaluated from the exact
    eigenpairs of the summed curvature; it must report what the step-by-step
    loop would have."""

    @pytest.fixture(autouse=True)
    def run_matches_full_sweep(self, monkeypatch):
        """Every stop test of these cases equals the sweep over every t."""
        run = aggregate._SpectralGD.run
        calls = []

        def checked(path, stop_tol):
            got = run(path, stop_tol)
            assert got == _full_sweep(path, stop_tol)
            calls.append(got)
            return got

        monkeypatch.setattr(aggregate._SpectralGD, "run", checked)
        yield
        assert calls

    def _assert_same(self, updates, cfg, record=True):
        got = fedfisher_solve(updates, cfg, record_objective=record)
        want = _stepwise_gd(updates, cfg.eta_s, cfg.t_max, cfg.stop_tol, cfg.val_fn,
                            cfg.val_every)
        scale = max(np.linalg.norm(want["weights"]), 1e-12)
        assert np.linalg.norm(got.weights - want["weights"]) <= 1e-10 * scale
        assert got.converged == want["converged"]
        assert got.diverged == want["diverged"]
        assert abs(got.iterations - want["iterations"]) <= 1
        if record and got.iterations == want["iterations"]:
            trace = np.array(want["trace"])
            assert np.allclose(got.objective_trace, trace, rtol=1e-9,
                               atol=1e-12 * max(1.0, np.abs(trace).max()))
        return got, want

    @pytest.mark.parametrize("kind", ["dense", "mixed"])
    def test_matches_stepwise_loop_on_rank_deficient(self, kind):
        for updates in _rank_deficient(kind):
            lam = _lambda_max(updates)
            got, _ = self._assert_same(updates, ServerConfig(eta_s=1 / (1.01 * lam),
                                                             t_max=5000, stop_tol=1e-12))
            assert got.converged
            got, _ = self._assert_same(updates, ServerConfig(eta_s=0.3 / lam, t_max=40))
            assert got.iterations == 40 and not got.converged

    def test_matches_stepwise_loop_on_trained_width_512(self, width_512_merge):
        got, _ = self._assert_same(width_512_merge, ServerConfig(eta_s=0.001, t_max=1000))
        assert got.iterations == 1000
        lam = _lambda_max(width_512_merge)
        self._assert_same(width_512_merge, ServerConfig(eta_s=1 / (1.01 * lam), t_max=2000))

    def test_same_validation_choice(self, width_512_merge):
        # A score that peaks at the 40th iterate: both must return it.
        lam = _lambda_max(width_512_merge)
        eta = 1 / (1.01 * lam)
        target = _stepwise_gd(width_512_merge, eta, 40, 0.0)["weights"]
        cfg = ServerConfig(eta_s=eta, t_max=100, stop_tol=0.0, val_every=10,
                           val_fn=lambda w: -float(np.linalg.norm(w - target)))
        got, _ = self._assert_same(width_512_merge, cfg, record=False)
        assert np.linalg.norm(got.weights - target) <= 1e-10 * np.linalg.norm(target)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["dense", "mixed"])
    def test_divergence_flagged_above_two_over_lambda(self, kind):
        for updates in _rank_deficient(kind, count=2):
            lam = _lambda_max(updates)
            got = fedfisher_solve(updates, ServerConfig(eta_s=2.5 / lam, t_max=5000),
                                  record_objective=True)
            with np.errstate(over="ignore", invalid="ignore"):
                want = _stepwise_gd(updates, 2.5 / lam, 5000, 1e-10)
            assert got.diverged and want["diverged"]
            assert abs(got.iterations - want["iterations"]) <= 1
            assert len(got.objective_trace) == got.iterations + 1  # one per step tried
            assert not got.converged and got.step_warning
            assert np.all(np.isfinite(got.weights))


def _spectrum_path(rng, eta, t_max):
    """A ``_SpectralGD`` on a random spectrum with theta_max = 1, so eta is
    eta * theta_max exactly. Some spectra hold zeros; W0 may reach outside
    the row space of q."""
    k = int(rng.integers(1, 30))
    d = k + int(rng.integers(0, 4))
    theta = 10.0 ** rng.uniform(-5, 0, k)
    if rng.integers(2):
        theta[: k // 3] = 0.0
    theta = np.sort(theta) / theta.max()
    z = rng.standard_normal(k) * 10.0 ** rng.uniform(-3, 1, k)
    if rng.random() < 0.5:  # g0 inside range(F), as for a real merge
        z[theta <= 0.0] = 0.0
    q = np.eye(d)[:k]
    return aggregate._SpectralGD((q, theta), q.T @ z, rng.standard_normal(d), eta, t_max)


class TestStopTestMatchesFullSweep:
    """``_SpectralGD.run`` rules out a stop by t_max with one bound test at
    t_max, or else sweeps from t = 1; it must return what the sweep over
    every t returns, including where that bound test passes but the stop
    test never holds."""

    def test_random_spectra(self):
        outcomes = set()
        for seed in range(12):
            rng = np.random.default_rng(seed)
            for eta, t_max, stop_tol in itertools.product(
                    [0.5, 1.5, 2.0, 2.5], [0, 1, 40, 3000], [0.0, 1e-10, 1e-4, 1e-2]):
                path = _spectrum_path(rng, eta, t_max)
                with np.errstate(over="ignore", invalid="ignore"):
                    want = _full_sweep(path, stop_tol)
                    got = path.run(stop_tol)
                assert got == want, (seed, eta, t_max, stop_tol)
                t, converged, diverged = want
                when = "early" if t < t_max / 10 else "late"
                outcomes.add((converged, diverged, when))
        # Converged early and late, ran out of steps, diverged.
        assert {(True, False, "early"), (True, False, "late"), (False, False, "late"),
                (False, True, "late")} <= outcomes


class TestStopTestCost:
    """Where the bound test at t_max rules out a hit, the stop test
    evaluates 2k Landweber entries for k eigenvalues (the step norms at
    t = 1 and t = t_max), within the O(k log t_max) asserted, not 2k per
    step up to t_max."""

    @pytest.fixture
    def entries(self, monkeypatch):
        counted = {"n": 0}  # eigenvalues times steps evaluated
        landweber = aggregate._landweber

        def counting(theta, eta, t):
            counted["n"] += np.broadcast(theta, t).size
            return landweber(theta, eta, t)

        monkeypatch.setattr(aggregate, "_landweber", counting)
        return counted

    def _path(self, updates, cfg, monkeypatch):
        paths = []
        init = aggregate._SpectralGD.__init__

        def keep(path, *args):
            init(path, *args)
            paths.append(path)

        monkeypatch.setattr(aggregate._SpectralGD, "__init__", keep)
        fedfisher_solve(updates, cfg)
        return paths[0]

    @pytest.mark.parametrize("eta_s, t_max", [(0.001, 1000), (0.001, 20_000), (None, 10_000)])
    def test_entries_grow_with_log_t_max(self, width_512_merge, entries, monkeypatch,
                                         eta_s, t_max):
        cfg = ServerConfig(eta_s=eta_s, t_max=t_max)
        path = self._path(width_512_merge, cfg, monkeypatch)
        entries["n"] = 0
        got = path.run(cfg.stop_tol)
        used = entries["n"]
        entries["n"] = 0
        assert got == _full_sweep(path, cfg.stop_tol) == (t_max, False, False)
        swept = entries["n"]
        k = path.theta.size
        assert used <= 4 * k * np.log2(t_max)
        assert used < swept == 2 * k * t_max


class TestServerMatvecCount:
    """The dense evaluation applies the operator to g0's start point only;
    the step-by-step loop once per step. Without an objective trace, the
    returned weights are never applied."""

    @pytest.fixture
    def count(self, monkeypatch):
        calls = {"all": 0, "power": 0}  # vectors the operator was applied to
        matvec = aggregate._SummedCurvature.matvec
        power = aggregate.power_iteration_max_eig

        def counted_matvec(self, v):
            calls["all"] += 1
            return matvec(self, v)

        def counted_power(apply, *args, **kwargs):
            before = calls["all"]
            result = power(apply, *args, **kwargs)
            calls["power"] += calls["all"] - before
            return result

        monkeypatch.setattr(aggregate._SummedCurvature, "matvec", counted_matvec)
        monkeypatch.setattr(aggregate, "power_iteration_max_eig", counted_power)
        return calls

    def test_dense_merge_scales_with_rank_not_steps(self, count):
        rng = np.random.default_rng(7)
        d, n = 1024, 100
        updates = []
        for _ in range(2):  # rank <= n each, decaying spectrum like a trained net's
            phi = rng.standard_normal((n, d)) / (1.0 + np.arange(n))[:, None]
            updates.append(ClientUpdate(rng.standard_normal(d), FullFisher(phi.T @ phi / n), n))
        res = fedfisher_solve(updates, ServerConfig(t_max=1000, stop_tol=0.0))
        assert res.iterations == 1000
        # The start gradient only; the eigenpairs come from the payloads'
        # Gram factors, and lambda_max is the largest eigenvalue. The loop
        # would take 1000.
        assert count["power"] == 0
        assert count["all"] == 1

    @pytest.mark.parametrize("method, optimizer", [
        ("fedfisher-diag", "gd"), ("fedfisher-kfac", "gd"), ("fedfisher-full", "adam"),
    ])
    def test_loop_paths_apply_operator_once_per_step(self, count, method, optimizer):
        rng = np.random.default_rng(8)
        if method == "fedfisher-kfac":
            fishers = []
            for _ in range(2):
                ga, gb = rng.standard_normal((3, 3)), rng.standard_normal((2, 2))
                fishers.append(KFACFisher([KFACLayer(ga @ ga.T, gb @ gb.T)]))
        elif method == "fedfisher-diag":
            fishers = [DiagFisher(rng.random(6)) for _ in range(2)]
        else:
            fishers = [FullFisher(np.diag(rng.random(6))) for _ in range(2)]
        updates = [ClientUpdate(rng.standard_normal(6), f) for f in fishers]
        _, res = merge_updates(method, updates, ServerConfig(optimizer=optimizer, t_max=50,
                                                             stop_tol=0.0))
        assert res.iterations == 50
        assert count["all"] - count["power"] == 50  # one per step
        # Diagonal GD reads lambda_max off the summed diagonal; only K-FAC
        # curvature needs a power iteration.
        assert (count["power"] > 0) == (method == "fedfisher-kfac")


def _summed_matvec_reference(op, pairs, v):
    """The server operator with each K-FAC payload applied whole, scaled and
    added: the arithmetic the per-layer accumulation must reproduce."""
    out = np.zeros_like(v)
    if op.diag is not None:
        out += op.diag * v
    for coef, f in pairs:
        if isinstance(f, KFACFisher):
            out += coef * fisher_matvec(f, v)
    return out


class TestSummedCurvatureMatchesReference:
    def _kfac(self, rng, dims=((4, 3), (5, 2), (3, 4))):
        layers = []
        for da, db in dims:
            ga, gb = rng.standard_normal((da, da)), rng.standard_normal((db, db))
            layers.append(KFACLayer(ga @ ga.T, gb @ gb.T))
        return KFACFisher(layers)

    @pytest.mark.parametrize("mixed", [False, True])
    def test_matches_whole_payload_matvec(self, mixed):
        rng = np.random.default_rng(11)
        fishers = [self._kfac(rng) for _ in range(3)]
        d = fishers[0].dim
        if mixed:
            fishers += [DiagFisher(rng.random(d)), DiagFisher(rng.random(d))]
        updates = [ClientUpdate(rng.standard_normal(d), f, n)
                   for f, n in zip(fishers, (7, 30, 12, 5, 19))]
        pairs = list(zip(aggregate._coefficients(updates), fishers))
        assert len({c for c, _ in pairs}) == len(pairs)  # unequal client weights
        op = aggregate._SummedCurvature(pairs, d)
        assert (op.diag is not None) == mixed
        for _ in range(5):
            v = rng.standard_normal(d) * 10.0 ** rng.integers(-3, 4)
            # One GEMM per layer over the stacked clients sums in another
            # order than the whole payloads do, so the match is to rounding.
            want = _summed_matvec_reference(op, pairs, v)
            assert np.linalg.norm(op.matvec(v) - want) <= 1e-12 * np.linalg.norm(want)

    @staticmethod
    def _small_clients(rng, ns):
        """K-FAC payloads of an MLP on ``ns`` examples each, as kfac_fisher
        builds them: input factors of 41 and 17 rows, rank <= n plus damping."""
        model = models.init_mlp([40, 16, 3], seed=14)
        return [fisher.kfac_fisher(model, rng.random((n, 40))) for n in ns]

    def test_thin_payloads_match_reference(self):
        rng = np.random.default_rng(14)
        ns = (5, 12, 30)
        fishers = self._small_clients(rng, ns)
        d = fishers[0].dim
        fishers.append(DiagFisher(rng.random(d)))
        updates = [ClientUpdate(rng.standard_normal(d), f, n)
                   for f, n in zip(fishers, ns + (9,))]
        pairs = list(zip(aggregate._coefficients(updates), fishers))
        op = aggregate._SummedCurvature(pairs, d, [u.n_examples for u in updates])
        # Thin where the rank n fits 2n < dim: n = 5 and 12 on the first
        # layer, n = 5 on the second; the rest give their whole factor.
        assert [(block.thin, block.stack.shape) for block in op.kfac] == [
            (17, (17 + 41, 41)), (5, (5 + 2 * 17, 17))]
        for _ in range(5):
            v = rng.standard_normal(d) * 10.0 ** rng.integers(-3, 4)
            want = _summed_matvec_reference(op, pairs, v)
            assert np.linalg.norm(op.matvec(v) - want) <= 1e-12 * np.linalg.norm(want)

    def test_thin_full_rank_and_decoded_clients_share_one_block(self):
        rng = np.random.default_rng(18)
        ns = (5, 12, 30, 6)
        fishers = self._small_clients(rng, ns)
        fishers[3] = compress.decompress_kfac(compress.compress_kfac(fishers[3], 4, [8, 2]))
        d = fishers[0].dim
        pairs = list(zip(np.array([0.6, 1.1, 1.3, 1.0]), fishers))
        op64 = aggregate._SummedCurvature(pairs, d, list(ns))
        op32 = aggregate._SummedCurvature(pairs, d, list(ns), np.float32)
        # First layer (41 rows): n = 5 and 12 thin, n = 30 full-rank and the
        # decoded client whole; second (17 rows): n = 5 thin, the rest whole.
        for op in (op64, op32):
            assert [(block.thin, block.stack.shape) for block in op.kfac] == [
                (17, (17 + 2 * 41, 41)), (5, (5 + 3 * 17, 17))]
            assert [len(block.mixes) for block in op.kfac] == [4, 4]
        for _ in range(5):
            v = rng.standard_normal(d) * 10.0 ** rng.integers(-3, 4)
            want = _summed_matvec_reference(op64, pairs, v)
            assert np.linalg.norm(op64.matvec(v) - want) <= 1e-12 * np.linalg.norm(want)
            assert np.linalg.norm(op32.matvec(v) - want) <= 1e-5 * np.linalg.norm(want)

    @pytest.mark.parametrize("precision, record, products", [
        ("float32", False, 3), ("float32", True, 6), ("float64", False, 3),
    ])
    def test_payload_products_per_merge(self, monkeypatch, precision, record, products):
        # Under float32 the loop reads only g0 = sum_i c_i F_i (w0 - w_i), one
        # product per client; b = sum_i c_i F_i w_i, one more each, only
        # where the float64 gradient or the objective reads it.
        rng = np.random.default_rng(19)
        ns = (5, 12, 30)
        base = models.get_flat_params(models.init_mlp([40, 16, 3], seed=14))
        updates = [ClientUpdate(base + 0.1 * rng.standard_normal(base.size), f, n)
                   for f, n in zip(self._small_clients(rng, ns), ns)]
        calls = []
        matvec = aggregate.fisher_matvec
        monkeypatch.setattr(aggregate, "fisher_matvec",
                            lambda f, v: calls.append(1) or matvec(f, v))
        cfg = ServerConfig(optimizer="adam", t_max=5, kron_precision=precision)
        fedfisher_solve(updates, cfg, record_objective=record)
        assert len(calls) == products

    def test_dense_and_diagonal_beside_kfac_match_whole_payloads(self):
        rng = np.random.default_rng(13)
        kfac = self._kfac(rng)
        d = kfac.dim
        g = rng.standard_normal((d, d))
        pairs = [(0.5, kfac), (1.5, FullFisher(g @ g.T)), (1.0, DiagFisher(rng.random(d)))]
        op = aggregate._SummedCurvature(pairs, d)
        assert op.diag is None and op.kfac  # the diagonal joins the dense eigenpairs
        for _ in range(4):
            v = rng.standard_normal(d)
            want = sum(c * fisher_matvec(f, v) for c, f in pairs)
            assert np.allclose(op.matvec(v), want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("case", ["thin", "full-rank", "decoded"])
    def test_float32_products_stay_near_float64(self, case):
        # Float32 rounds at 2**-24 = 6e-8 relative; the bound leaves room for
        # the sums inside each product. Measured: at most 2e-7.
        rng = np.random.default_rng(16)
        ns = (5, 12, 30)
        if case == "full-rank":
            fishers, bounds = [self._kfac(rng) for _ in ns], None
        else:
            fishers, bounds = self._small_clients(rng, ns), list(ns)
            if case == "decoded":
                fishers = [compress.decompress_kfac(compress.compress_kfac(f, 4, [8, 2]))
                           for f in fishers]
        d = fishers[0].dim
        pairs = list(zip(np.array([0.6, 1.1, 1.3]), fishers))
        op64 = aggregate._SummedCurvature(pairs, d, bounds)
        op32 = aggregate._SummedCurvature(pairs, d, bounds, np.float32)
        # Thin clients only where the factors are raw: the first layer
        # takes n = 5 and 12 there, and the others give their whole factor.
        want_thin = {"thin": [17, 5], "full-rank": [0, 0, 0], "decoded": [0, 0]}[case]
        assert [block.thin for block in op32.kfac] == want_thin
        assert {arr.dtype for block in op32.kfac
                for arr in (block.stack, block.floor_t, *(cb_t for _, cb_t in block.mixes))
                } == {np.dtype(np.float32)}
        for _ in range(5):
            v = rng.standard_normal(d) * 10.0 ** rng.integers(-3, 4)
            got, want = op32.matvec(v), op64.matvec(v)
            assert got.dtype == np.float64
            assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)

    def test_float32_merge_steps_from_the_float64_gradient(self):
        # The loop applies float32 products to w - w0 alone and adds the
        # float64 gradient at the mean w0: its first step is the float64 one
        # (it was 1e-7 away), and later steps err with the distance travelled.
        rng = np.random.default_rng(17)
        ns = (5, 12, 30)
        fishers = self._small_clients(rng, ns)
        base = models.get_flat_params(models.init_mlp([40, 16, 3], seed=14))
        updates = [ClientUpdate(base + 0.1 * rng.standard_normal(base.size), f, n)
                   for f, n in zip(fishers, ns)]
        mean = fedavg(updates)
        for optimizer, eta, t_max, tol in (("adam", 0.01, 1, 1e-12), ("adam", 0.01, 300, 1e-5),
                                           ("gd", None, 300, 1e-5)):
            cfg = ServerConfig(optimizer=optimizer, eta_s=eta, t_max=t_max)
            want = fedfisher_solve(updates, cfg).weights
            got = fedfisher_solve(updates, replace(cfg, kron_precision="float32")).weights
            assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want - mean)
        # The objective at the returned weights takes the loop's gradient: at
        # the mean it is the float64 one (the plain float32 operator's was
        # 4e-8 away).
        cfg = ServerConfig(optimizer="adam", t_max=0)
        want = fedfisher_solve(updates, cfg, record_objective=True).objective_trace
        got = fedfisher_solve(updates, replace(cfg, kron_precision="float32"),
                              record_objective=True).objective_trace
        assert len(got) == 1 and abs(got[0] - want[0]) <= 1e-12 * abs(want[0])

    def test_thin_payloads_alone_take_lambda_max_from_power_iteration(self):
        rng = np.random.default_rng(15)
        fishers = self._small_clients(rng, (4, 6))
        d = fishers[0].dim
        updates = [ClientUpdate(rng.standard_normal(d), f, n) for f, n in zip(fishers, (4, 6))]
        op = aggregate._merge_problem(updates)[1]
        assert all(block.stack.shape[0] == block.thin > 0 for block in op.kfac)
        dense = sum(c * np.vstack([fisher_matvec(f, e) for e in np.eye(d)])
                    for c, f in zip(aggregate._coefficients(updates), fishers))
        lam = fedfisher_solve(updates, ServerConfig(t_max=0)).lambda_max
        assert lam == pytest.approx(np.linalg.eigvalsh(dense)[-1], rel=1e-5)


class TestDenseEigenpairs:
    """Dense payloads, and diagonal ones beside them, are held as the exact
    eigenpairs of their weighted sum, from the clients' Gram factors."""

    @pytest.mark.parametrize("kind", ["dense", "mixed"])
    def test_match_eigh_of_the_summed_matrix(self, kind):
        for updates in _rank_deficient(kind):
            q, theta = aggregate._merge_problem(updates)[1].eig
            summed = sum(c * _dense(u.fisher)
                         for c, u in zip(aggregate._coefficients(updates), updates))
            vals = np.linalg.eigvalsh(summed)
            atol = 1e-12 * vals[-1]
            assert np.allclose(q @ q.T, np.eye(theta.size), rtol=0.0, atol=1e-12)
            # The same spectrum, the rows of q beyond theta's size being zeros.
            padded = np.concatenate([theta, np.zeros(vals.size - theta.size)])
            assert np.allclose(np.sort(padded), vals, rtol=0.0, atol=atol)
            assert np.allclose(summed @ q.T, q.T * theta, rtol=0.0, atol=atol)
            assert np.allclose(q.T @ (theta[:, None] * q), summed, rtol=0.0, atol=atol)

    @pytest.mark.parametrize("optimizer", ["gd", "adam"])
    @pytest.mark.parametrize("payload", ["dense", "diagonal"])
    def test_indefinite_payload_names_its_client(self, optimizer, payload):
        rng = np.random.default_rng(23)
        basis = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        vals = np.array([1.0, 0.5, -0.1])
        f = (basis * vals) @ basis.T
        bad = FullFisher((f + f.T) / 2.0) if payload == "dense" else DiagFisher(vals)
        updates = [ClientUpdate(rng.standard_normal(3), FullFisher(np.eye(3))),
                   ClientUpdate(rng.standard_normal(3), bad)]
        with pytest.raises(ValueError, match="client 1 "):
            fedfisher_solve(updates, ServerConfig(optimizer=optimizer, t_max=10))

    def test_all_zero_dense_payloads_keep_the_mean(self):
        rng = np.random.default_rng(24)
        updates = [ClientUpdate(rng.standard_normal(4), FullFisher(np.zeros((4, 4))), n)
                   for n in (3, 5)]
        res = fedfisher_solve(updates)
        assert res.lambda_max == 0.0
        assert res.converged and res.iterations == 0
        assert np.array_equal(res.weights, fedavg(updates))


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
        assert np.allclose(fisher_merge_diag(updates), [2.0])

    def test_rejects_non_diag(self):
        updates = [ClientUpdate(np.zeros(2), FullFisher(np.eye(2)))]
        with pytest.raises(ValueError):
            fisher_merge_diag(updates)

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
    """Broadcast rounds, each a ``cli.Round`` merged once."""

    def _tiny_dataset(self, seed=0):
        return gen_synthetic(clients=2, per_client=25, dim=2, seed=seed)

    def _rounds(self, ds, model, rounds, local, server, method, seed):
        weights = []
        start = model
        for r in range(rounds):
            merged, *_ = cli.Round(ds, [start] * ds.num_clients, local, seed, r).merge(
                method, None, server)
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
            trained = models.sgd_train(model, cx, cy, local, seed=[9, 0, i])
            from oneshot_fl.fisher import full_fisher_two_layer

            f = full_fisher_two_layer(trained.model, cx)
            updates.append(ClientUpdate(models.get_flat_params(trained.model), f, cx.shape[0]))
        want = fedfisher_solve(updates, server).weights
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
