"""Tests for network definitions, analytic gradients, and training."""

import numpy as np
import pytest

from oneshot_fl.models import (
    LOSS_SOFTMAX,
    LOSS_SQUARED,
    MLP,
    TrainConfig,
    TwoLayerReLU,
    accuracy_eval,
    feature_map,
    forward,
    get_flat_params,
    gradient,
    init_mlp,
    init_two_layer,
    layer_slices,
    loss_eval,
    param_count,
    sgd_train,
    with_flat_params,
)
from oneshot_fl import models

from oracle import fd_gradient


def _unit_rows(rng, n, dim):
    x = rng.standard_normal((n, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestInit:
    def test_two_layer_deterministic(self):
        a = init_two_layer(8, 3, kappa=0.5, seed=4)
        b = init_two_layer(8, 3, kappa=0.5, seed=4)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.signs, b.signs)
        assert set(np.unique(a.signs)) <= {-1.0, 1.0}

    def test_two_layer_weight_std(self):
        # 10^4 x 4 draws: empirical std within 5% of sqrt(kappa).
        model = init_two_layer(10_000, 4, kappa=0.25, seed=0)
        std = model.weights.std()
        assert abs(std - 0.5) / 0.5 < 0.05

    def test_two_layer_near_zero_kappa(self):
        model = init_two_layer(16, 2, kappa=1e-30, seed=1)
        x = np.array([[1.0, 0.0], [0.3, 0.7]])
        assert np.allclose(forward(model, x), 0.0, atol=1e-12)

    def test_two_layer_rejects_bad_args(self):
        with pytest.raises(ValueError):
            init_two_layer(0, 2, kappa=1.0, seed=0)
        with pytest.raises(ValueError):
            init_two_layer(2, 2, kappa=0.0, seed=0)

    def test_mlp_shapes_and_zero_biases(self):
        model = init_mlp([5, 7, 3], seed=2)
        assert model.dims == [5, 7, 3]
        assert model.weights[0].shape == (7, 5)
        assert model.weights[1].shape == (3, 7)
        assert all(np.all(b == 0.0) for b in model.biases)

    def test_mlp_rejects_unknown_head(self):
        with pytest.raises(ValueError, match="unknown loss kind 'hinge'"):
            MLP([np.zeros((3, 2))], [np.zeros(3)], head="hinge")

    def test_mlp_needs_two_dims(self):
        with pytest.raises(ValueError):
            init_mlp([4], seed=0)


class TestForward:
    def test_hand_example(self):
        # m=2, a=(1,-1), w1=(1,0), w2=(0,1), x=(1,1):
        # (1/sqrt(2)) * (relu(1) - relu(1)) = 0.
        model = TwoLayerReLU(
            weights=np.array([[1.0, 0.0], [0.0, 1.0]]),
            signs=np.array([1.0, -1.0]),
        )
        assert forward(model, np.array([1.0, 1.0])) == pytest.approx(0.0, abs=1e-15)

    def test_positive_homogeneity(self):
        # Relu networks without biases scale linearly in positive input scale.
        rng = np.random.default_rng(3)
        model = init_two_layer(12, 4, kappa=1.0, seed=5)
        x = rng.standard_normal((6, 4))
        base = forward(model, x)
        for c in (0.5, 2.0, 7.25):
            assert np.allclose(forward(model, c * x), c * base, atol=1e-12)

    def test_feature_map_reproduces_output(self):
        rng = np.random.default_rng(6)
        model = init_two_layer(9, 5, kappa=0.7, seed=7)
        x = _unit_rows(rng, 8, 5)
        phi = feature_map(model, x)
        flat = get_flat_params(model)
        assert np.allclose(phi @ flat, forward(model, x), atol=1e-10)

    def test_mlp_single_input_matches_batch(self):
        model = init_mlp([3, 4, 2], seed=8)
        x = np.array([0.2, -0.1, 0.4])
        single = forward(model, x)
        batch = forward(model, x[None, :])
        assert single.shape == (2,)
        assert np.allclose(single, batch[0])


class TestFeatureMap:
    def test_single_active_unit(self):
        model = TwoLayerReLU(weights=np.array([[1.0]]), signs=np.array([1.0]))
        assert np.allclose(feature_map(model, np.array([1.0])), [1.0])

    def test_all_units_inactive(self):
        # w_r . x < 0 for every unit: the map vanishes.
        model = TwoLayerReLU(
            weights=np.array([[1.0, 0.0], [0.5, 0.5]]),
            signs=np.array([1.0, -1.0]),
        )
        phi = feature_map(model, np.array([-1.0, -0.5]))
        assert np.all(phi == 0.0)

    def test_active_at_zero_preactivation(self):
        # The indicator is >= 0, so an exactly-zero preactivation contributes.
        model = TwoLayerReLU(weights=np.array([[0.0, 1.0]]), signs=np.array([1.0]))
        phi = feature_map(model, np.array([1.0, 0.0]))
        assert np.allclose(phi, [1.0, 0.0])

    def test_norm_bounded_by_input_norm(self):
        # Bounded-gradient property: |phi| <= |x| for every instance.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            model = init_two_layer(int(rng.integers(1, 30)), 6, kappa=1.0, seed=seed)
            x = _unit_rows(rng, 12, 6)
            phi = feature_map(model, x)
            assert np.all(np.linalg.norm(phi, axis=1) <= 1.0 + 1e-12)

    def test_rejects_mlp(self):
        with pytest.raises(ValueError):
            feature_map(init_mlp([2, 3, 2], seed=0), np.zeros(2))


class TestLossEval:
    def test_perfect_fit_zero(self):
        model = init_two_layer(4, 3, kappa=1.0, seed=9)
        rng = np.random.default_rng(10)
        x = _unit_rows(rng, 5, 3)
        y = forward(model, x)
        assert loss_eval(model, x, y) == pytest.approx(0.0, abs=1e-15)

    def test_zero_model_gives_half_mean_square(self):
        model = init_two_layer(4, 3, kappa=1e-30, seed=11)
        rng = np.random.default_rng(12)
        x = _unit_rows(rng, 7, 3)
        y = rng.standard_normal(7)
        want = 0.5 * np.mean(y**2)
        assert loss_eval(model, x, y) == pytest.approx(want, rel=1e-9)

    def test_uniform_classifier_accuracy_near_chance(self):
        # Identical logits per class break ties at index 0; instead use a
        # random model on random inputs, whose argmax is near-uniform.
        model = init_mlp([8, 16, 10], seed=13)
        rng = np.random.default_rng(14)
        x = rng.standard_normal((4000, 8))
        y = rng.integers(0, 10, size=4000)
        acc = accuracy_eval(model, x, y)
        sigma = np.sqrt(0.1 * 0.9 / 4000)
        assert abs(acc - 0.1) < 3 * sigma + 0.02

    def test_softmax_loss_matches_log_chance_at_init(self):
        # Zero final-layer contributions would give log(C); random init stays
        # in that neighborhood for standardized inputs.
        model = init_mlp([6, 12, 5], seed=15)
        rng = np.random.default_rng(16)
        x = rng.standard_normal((200, 6)) * 0.01
        y = rng.integers(0, 5, size=200)
        val = loss_eval(model, x, y)
        assert abs(val - np.log(5)) < 0.05

    def test_label_validation(self):
        model = init_mlp([3, 4, 3], seed=17)
        x = np.zeros((2, 3))
        with pytest.raises(ValueError):
            loss_eval(model, x, np.array([0, 3]))
        with pytest.raises(ValueError):
            loss_eval(model, x, np.array([0]))


class TestGradient:
    def test_zero_residual_zero_gradient(self):
        model = init_two_layer(5, 4, kappa=1.0, seed=18)
        rng = np.random.default_rng(19)
        x = _unit_rows(rng, 6, 4)
        y = forward(model, x)
        g = gradient(model, x, y)
        assert np.allclose(g, 0.0, atol=1e-14)

    def test_two_layer_matches_residual_phi_formula(self):
        model = init_two_layer(7, 3, kappa=0.5, seed=20)
        rng = np.random.default_rng(21)
        x = _unit_rows(rng, 9, 3)
        y = rng.standard_normal(9)
        res = forward(model, x) - y
        phi = feature_map(model, x)
        want = (phi * res[:, None]).mean(axis=0)
        got = gradient(model, x, y)
        assert np.allclose(got, want, atol=1e-12)

    def test_matches_finite_differences_all_cases(self):
        # 20 instances spanning both architectures and both losses.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            if seed % 2 == 0:
                model = init_two_layer(int(rng.integers(2, 6)), 3, kappa=1.0, seed=seed)
                # Keep away from relu kinks so the finite difference is valid.
                x = _unit_rows(rng, 4, 3)
                h = x @ model.weights.T
                if np.min(np.abs(h)) < 1e-3:
                    x = x + 0.01
                y = rng.standard_normal(4)
                loss = LOSS_SQUARED
            else:
                loss = LOSS_SQUARED if seed % 4 == 1 else LOSS_SOFTMAX
                model = init_mlp([3, 5, 3], seed=seed, head=loss)
                x = rng.standard_normal((4, 3))
                y = (
                    rng.standard_normal((4, 3))
                    if loss == LOSS_SQUARED
                    else rng.integers(0, 3, size=4)
                )
            got = gradient(model, x, y)
            want = fd_gradient(model, x, y, model.head)
            denom = max(np.linalg.norm(want), 1e-10)
            assert np.linalg.norm(got - want) / denom <= 1e-4


class TestFlatParams:
    def test_round_trip_two_layer(self):
        model = init_two_layer(6, 4, kappa=1.0, seed=22)
        flat = get_flat_params(model)
        assert flat.shape == (24,)
        back = with_flat_params(model, flat * 2.0)
        assert np.allclose(back.weights, model.weights * 2.0)
        assert np.array_equal(back.signs, model.signs)

    def test_round_trip_mlp(self):
        model = init_mlp([4, 6, 3], seed=23)
        flat = get_flat_params(model)
        assert flat.shape == (param_count(model),)
        assert param_count(model) == 6 * 5 + 3 * 7
        back = with_flat_params(model, flat)
        for wa, wb in zip(back.weights, model.weights):
            assert np.allclose(wa, wb)
        for ba, bb in zip(back.biases, model.biases):
            assert np.allclose(ba, bb)

    def test_layer_slices_tile_the_vector(self):
        model = init_mlp([4, 6, 3], seed=24)
        slices = layer_slices(model)
        assert slices == [(0, 6, 5), (30, 3, 7)]
        total = sum(rows * cols for _, rows, cols in slices)
        assert total == param_count(model)

    def test_flat_layout_is_column_major_with_bias_column(self):
        # The flat vector per layer must equal vec([W | b]) column-major, so
        # Kronecker-factor matvecs can act on it without reshuffling.
        model = init_mlp([2, 3, 2], seed=25)
        flat = get_flat_params(model)
        w, b = model.weights[0], model.biases[0]
        block = np.column_stack([w, b]).ravel(order="F")
        assert np.allclose(flat[:9], block)

    def test_length_check(self):
        model = init_mlp([2, 2], seed=26)
        with pytest.raises(ValueError):
            with_flat_params(model, np.zeros(5))


class TestSgdTrain:
    def test_zero_steps_returns_model_unchanged(self):
        model = init_two_layer(4, 2, kappa=1.0, seed=27)
        cfg = TrainConfig(eta=0.1, epochs_or_steps=0, batch_size=100)
        res = sgd_train(model, np.eye(2), np.zeros(2), cfg)
        assert res.steps == 0
        assert not res.diverged
        assert np.allclose(res.model.weights, model.weights)

    def test_full_batch_linear_regression_descends_each_step(self):
        # 1-d linear regression through a wide relu is convex along the run;
        # losses must strictly decrease for a small step size.
        rng = np.random.default_rng(28)
        x = _unit_rows(rng, 30, 2)
        w_true = np.array([1.0, -2.0])
        y = x @ w_true
        model = init_two_layer(64, 2, kappa=1.0, seed=29)
        losses = [loss_eval(model, x, y)]
        current = model
        for _ in range(15):
            res = sgd_train(current, x, y, TrainConfig(0.05, 1, 1000), seed=0)
            current = res.model
            losses.append(res.final_loss)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_long_run_reaches_small_loss(self):
        # Width-512 full-batch run on one synthetic client drives the loss
        # below 1% of its start.
        from oneshot_fl.datasets import gen_synthetic

        ds = gen_synthetic(clients=1, per_client=100, dim=2, seed=42)
        x, y = ds.client_data(0)
        model = init_two_layer(512, 2, kappa=0.5, seed=31)
        start = loss_eval(model, x, y)
        res = sgd_train(model, x, y, TrainConfig(0.1, 2048, 10_000), seed=0)
        assert not res.diverged
        assert res.steps == 2048
        assert res.final_loss < 0.01 * start

    def test_minibatch_path_deterministic_given_seed(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((40, 3))
        y = rng.integers(0, 3, size=40)
        model = init_mlp([3, 8, 3], seed=33)
        cfg = TrainConfig(eta=0.05, epochs_or_steps=3, batch_size=16, momentum=0.9)
        a = sgd_train(model, x, y, cfg, seed=7)
        b = sgd_train(model, x, y, cfg, seed=7)
        c = sgd_train(model, x, y, cfg, seed=8)
        assert np.allclose(get_flat_params(a.model), get_flat_params(b.model))
        assert not np.allclose(get_flat_params(a.model), get_flat_params(c.model))
        # 3 epochs x ceil(40/16) batches.
        assert a.steps == 9

    def test_momentum_changes_trajectory(self):
        rng = np.random.default_rng(34)
        x = rng.standard_normal((20, 2))
        y = rng.standard_normal(20)
        model = init_two_layer(8, 2, kappa=1.0, seed=35)
        plain = sgd_train(model, x, y, TrainConfig(0.01, 5, 100), seed=0)
        heavy = sgd_train(model, x, y, TrainConfig(0.01, 5, 100, momentum=0.9), seed=0)
        assert not np.allclose(
            get_flat_params(plain.model), get_flat_params(heavy.model)
        )

    def test_divergence_flag_and_last_finite_iterate(self):
        rng = np.random.default_rng(36)
        x = _unit_rows(rng, 10, 2)
        y = rng.standard_normal(10)
        model = init_two_layer(32, 2, kappa=1.0, seed=37)
        res = sgd_train(model, x, y, TrainConfig(eta=1e6, epochs_or_steps=200, batch_size=100), seed=0)
        assert res.diverged
        assert np.all(np.isfinite(get_flat_params(res.model)))
        assert res.steps < 200

    def test_config_validation(self):
        model = init_two_layer(2, 2, kappa=1.0, seed=0)
        x, y = np.eye(2), np.zeros(2)
        with pytest.raises(ValueError):
            sgd_train(model, x, y, TrainConfig(0.0, 1, 1))
        with pytest.raises(ValueError):
            sgd_train(model, x, y, TrainConfig(0.1, 1, 0))
        with pytest.raises(ValueError):
            sgd_train(model, x, y, TrainConfig(0.1, -1, 1))
        with pytest.raises(ValueError):
            sgd_train(model, x, y, TrainConfig(0.1, 1, 1, momentum=1.0))


def _reference_loss_and_grad(model, x, y, loss):
    """Mean loss and flat gradient, as computed before training kept
    per-layer buffers: fresh arrays, flattened [W | b] blocks."""
    n = x.shape[0]
    if isinstance(model, TwoLayerReLU):
        h = x @ model.weights.T
        f = np.maximum(h, 0.0) @ model.signs / np.sqrt(model.m)
        res = f - y
        coef = (h >= 0.0) * (model.signs / np.sqrt(model.m)) * res[:, None]
        return float(0.5 * np.mean(res**2)), ((coef.T @ x) / n).ravel()
    inputs, hs = [], []
    a = x
    for w, b in zip(model.weights, model.biases):
        inputs.append(a)
        hs.append(a @ w.T + b)
        a = np.maximum(hs[-1], 0.0)
    z = hs[-1]
    if loss == LOSS_SQUARED:
        y = y[:, None] if y.ndim == 1 else y
        diff = z - y
        loss_val = float(0.5 * np.mean(np.sum(diff**2, axis=1)))
        dh = diff / n
    else:
        zmax = z.max(axis=1)
        e = np.exp(z - zmax[:, None])
        loss_val = float(np.mean(zmax + np.log(e.sum(axis=1)) - z[np.arange(n), y]))
        dh = e / e.sum(axis=1, keepdims=True)
        dh[np.arange(n), y] -= 1.0
        dh /= n
    parts = []
    for l in range(len(model.weights) - 1, -1, -1):
        parts.insert(0, np.column_stack([dh.T @ inputs[l], dh.sum(axis=0)]).ravel(order="F"))
        if l > 0:
            dh = (dh @ model.weights[l]) * (hs[l - 1] > 0.0)
    return loss_val, np.concatenate(parts)


def _reference_sgd(model, x, y, cfg, loss, seed):
    """Reference for sgd_train: the step loop on the flat parameter vector,
    one fresh model, velocity and gathered batch per step."""
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    flat = get_flat_params(model)
    velocity = np.zeros_like(flat)
    current = with_flat_params(model, flat)
    steps = 0

    def batches():
        if cfg.batch_size >= n:
            for _ in range(cfg.epochs_or_steps):
                yield x, y
        else:
            for _ in range(cfg.epochs_or_steps):
                perm = rng.permutation(n)
                for start in range(0, n, cfg.batch_size):
                    sel = perm[start : start + cfg.batch_size]
                    yield x[sel], y[sel]

    for xb, yb in batches():
        loss_val, grad = _reference_loss_and_grad(current, xb, yb, loss)
        if not np.isfinite(loss_val) or not np.all(np.isfinite(grad)):
            return current, True, steps, loss_val
        velocity = cfg.momentum * velocity + grad
        flat = flat - cfg.eta * velocity
        if not np.all(np.isfinite(flat)) or np.linalg.norm(flat) > 1e12:
            return current, True, steps, loss_val
        current = with_flat_params(current, flat)
        steps += 1
    return current, False, steps, loss_eval(current, x, y)


def _assert_same_as_reference(model, x, y, cfg, seed=5):
    got = sgd_train(model, x, y, cfg, seed=seed)
    model_want, diverged, steps, final_loss = _reference_sgd(model, x, y, cfg, model.head, seed)
    assert np.array_equal(get_flat_params(got.model), get_flat_params(model_want))
    assert (got.steps, got.diverged) == (steps, diverged)
    assert np.array_equal(got.final_loss, final_loss, equal_nan=True)
    return got


class TestSgdTrainMatchesReference:
    """sgd_train steps per-layer buffers in place; every result must equal
    the flat-vector loop's bit for bit, since trained weights feed the
    quantizer and the server, where a last-bit change can move a row.
    Sizes are large enough that a parameter stored in column-major order
    changes the matrix products' rounding."""

    @staticmethod
    def _mlp_problem(loss, hidden, seed=40):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((40, 20))
        y = rng.integers(0, 3, size=40) if loss == LOSS_SOFTMAX else rng.standard_normal((40, 3))
        return init_mlp([20, *hidden, 3], seed=seed + 1, head=loss), x, y

    @pytest.mark.parametrize("loss", [LOSS_SOFTMAX, LOSS_SQUARED])
    @pytest.mark.parametrize("hidden", [[24], [24, 12]])
    @pytest.mark.parametrize("batch_size", [16, 1000])  # ragged last batch of 8; full batch
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_mlp(self, loss, hidden, batch_size, momentum):
        model, x, y = self._mlp_problem(loss, hidden)
        res = _assert_same_as_reference(model, x, y, TrainConfig(0.05, 4, batch_size, momentum))
        assert not res.diverged and res.steps == (12 if batch_size == 16 else 4)

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_two_layer_full_batch(self, momentum):
        rng = np.random.default_rng(42)
        x = _unit_rows(rng, 30, 3)
        y = rng.standard_normal(30)
        model = init_two_layer(24, 3, kappa=0.5, seed=43)
        res = _assert_same_as_reference(model, x, y, TrainConfig(0.1, 50, 30, momentum))
        assert res.steps == 50

    @pytest.mark.parametrize("eta", [1e6, 1e200])  # the norm passes 1e12; the iterate overflows
    def test_divergence_returns_last_verified_iterate(self, eta):
        model, x, y = self._mlp_problem(LOSS_SQUARED, [24])
        rng = np.random.default_rng(44)
        x2 = _unit_rows(rng, 10, 2)
        two_layer = init_two_layer(32, 2, kappa=1.0, seed=45)
        with np.errstate(over="ignore"):  # the reference's norm overflows at eta = 1e200
            res = _assert_same_as_reference(model, x, y, TrainConfig(eta, 4, 16))
            assert res.diverged and np.all(np.isfinite(get_flat_params(res.model)))
            res = _assert_same_as_reference(two_layer, x2, rng.standard_normal(10),
                                            TrainConfig(eta, 200, 100))
        assert res.diverged and res.steps < 200

    def test_nan_input_stops_at_its_batch(self):
        model, x, y = self._mlp_problem(LOSS_SOFTMAX, [24])
        x[25, 2] = np.nan
        res = _assert_same_as_reference(model, x, y, TrainConfig(0.05, 3, 16, 0.9))
        assert res.diverged and 0 <= res.steps < 3 and np.isnan(res.final_loss)

    def test_flat_vector_round_trips_stay_out_of_the_step(self, monkeypatch):
        model, x, y = self._mlp_problem(LOSS_SOFTMAX, [24])
        calls = []
        for name in ("with_flat_params", "get_flat_params"):
            def counted(*args, _inner=getattr(models, name), _name=name):
                calls.append(_name)
                return _inner(*args)
            monkeypatch.setattr(models, name, counted)
        counts = []
        for epochs in (1, 8):
            calls.clear()
            res = sgd_train(model, x, y, TrainConfig(0.05, epochs, 16))
            assert res.steps == 3 * epochs
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 2

    @staticmethod
    def _two_layer_edge_problem():
        """Unit 1 is inactive on every example, and units 2 and 3 meet rows
        of x orthogonal to them, so their pre-activation is exactly 0 (active
        by the >= 0 convention); output signs of both kinds sit on each."""
        weights = np.array([[0.7, 0.2, -0.1],
                            [-1.0, 0.0, 0.0],
                            [0.0, 1.0, 0.0],
                            [0.0, 0.0, -1.0],
                            [0.3, -0.4, 0.5]])
        model = TwoLayerReLU(weights, np.array([1.0, -1.0, -1.0, 1.0, -1.0]))
        x = np.array([[1.0, 0.0, 0.0],
                      [0.5, 0.0, 0.3],
                      [0.2, -0.6, 0.0],
                      [0.9, 0.4, -0.2],
                      [0.1, 0.8, 0.5]])
        y = np.array([0.3, -0.2, 0.5, 0.0, -0.7])
        return model, x, y

    def test_two_layer_gradient_on_dead_unit_and_zero_preactivation(self):
        model, x, y = self._two_layer_edge_problem()
        h = x @ model.weights.T
        assert np.all(h[:, 1] < 0.0) and np.sum(h == 0.0) >= 3
        grads = [np.empty_like(model.weights)]
        loss_val = models._loss_and_grad(model, x, y, grads)
        want_loss, want_grad = _reference_loss_and_grad(model, x, y, model.head)
        assert loss_val == want_loss
        assert np.array_equal(grads[0].ravel(), want_grad)
        assert np.all(grads[0][1] == 0.0) and np.any(grads[0][2:4] != 0.0)

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_two_layer_training_on_dead_unit_and_zero_preactivation(self, momentum):
        model, x, y = self._two_layer_edge_problem()
        res = _assert_same_as_reference(model, x, y, TrainConfig(0.2, 30, 5, momentum))
        assert res.steps == 30 and np.array_equal(res.model.weights[1], model.weights[1])


class TestTargetsCheckedOnce:
    """sgd_train checks its targets once per call, against the model's output
    on all examples, and bad targets fail before any step."""

    @staticmethod
    def _count(monkeypatch, name):
        calls = []

        def counted(*args, _inner=getattr(models, name)):
            calls.append(name)
            return _inner(*args)
        monkeypatch.setattr(models, name, counted)
        return calls

    @pytest.mark.parametrize("batch_size", [16, 1000])
    def test_one_check_per_call(self, monkeypatch, batch_size):
        model, x, y = TestSgdTrainMatchesReference._mlp_problem(LOSS_SOFTMAX, [24])
        calls = self._count(monkeypatch, "_check_targets")
        for epochs in (0, 1, 5):
            calls.clear()
            sgd_train(model, x, y, TrainConfig(0.05, epochs, batch_size))
            assert len(calls) == 1

    @pytest.mark.parametrize("epochs", [0, 3])
    @pytest.mark.parametrize("case, message", [
        ("label_out_of_range", "label out of range"),
        ("negative_label", "label out of range"),
        ("label_shape", "labels must have shape"),
        ("squared_mlp_shape", "targets must have shape"),
        ("squared_two_layer_shape", "targets must have shape"),
    ])
    def test_bad_targets_raise_before_any_step(self, monkeypatch, epochs, case, message):
        rng = np.random.default_rng(46)
        x = rng.standard_normal((20, 4))
        model = init_mlp([4, 6, 3], seed=47)
        labels = rng.integers(0, 3, size=20)
        y = {
            "label_out_of_range": np.where(np.arange(20) == 13, 3, labels),
            "negative_label": np.where(np.arange(20) == 4, -1, labels),
            "label_shape": labels[:, None],
            "squared_mlp_shape": rng.standard_normal((20, 2)),
            "squared_two_layer_shape": rng.standard_normal(19),
        }[case]
        if case == "squared_mlp_shape":
            model = init_mlp([4, 6, 3], seed=47, head=LOSS_SQUARED)
        elif case == "squared_two_layer_shape":
            model = init_two_layer(6, 4, kappa=1.0, seed=47)
        steps = self._count(monkeypatch, "_loss_and_grad")
        for batch_size in (8, 1000):
            with pytest.raises(ValueError, match=message):
                sgd_train(model, x, y, TrainConfig(0.05, epochs, batch_size))
        assert steps == []
