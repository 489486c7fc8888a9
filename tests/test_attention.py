"""Tests for the gated network: forward values, exact gradients, training."""

import tracemalloc

import numpy as np
import pytest

from attention_reference import (
    PARAM_FIELDS,
    backward,
    bce_loss,
    forward,
    reference_augment,
    reference_sigmoid,
    reference_train,
)
from attnboost.attention import (
    AttentionParams,
    TrainConfig,
    _Trainer,
    augment,
    init_params,
    sigmoid,
    train,
)
from attnboost import tabular
from attnboost.errors import DataError
from attnboost.tabular import FeatureMatrix


def _random_params(d, k, rng, scale=0.8) -> AttentionParams:
    return AttentionParams(
        W1=rng.normal(0, scale, (k, d)),
        b1=rng.normal(0, scale, k),
        W_attn=rng.normal(0, scale, (k, k)),
        b_attn=rng.normal(0, scale, k),
        w2=rng.normal(0, scale, k),
        b2=float(rng.normal(0, scale)),
        d=d,
        k=k,
    )


def _zero_params(d, k) -> AttentionParams:
    return AttentionParams(W1=np.zeros((k, d)), b1=np.zeros(k), W_attn=np.zeros((k, k)),
                           b_attn=np.zeros(k), w2=np.zeros(k), b2=0.0, d=d, k=k)


def _fm(values) -> FeatureMatrix:
    values = np.asarray(values, dtype=float)
    return FeatureMatrix(values=values, feature_names=[f"f{i}" for i in range(values.shape[1])])


def _mean_loss_at(params: AttentionParams, X, y, clamp=1e-12) -> float:
    return float(np.mean([bce_loss(forward(params, x).y_hat, yi, clamp) for x, yi in zip(X, y)]))


def draw_checkable_case(rng, d, k, n):
    """Draw (params, X, y) with n rows where central differences are trustworthy.

    Rejects draws with a first-layer pre-activation near the ReLU kink and
    draws whose output probability saturates: near p = 1 the loss goes
    through 1 - p, whose float cancellation swamps the tiny FD signal.
    """
    while True:
        params = _random_params(d, k, rng)
        X = rng.normal(0, 1.5, (n, d))
        y = rng.integers(0, 2, n)
        z1 = X @ params.W1.T + params.b1
        y_hat = np.array([forward(params, x).y_hat for x in X])
        if np.abs(z1).min() > 1e-3 and ((y_hat > 1e-4) & (y_hat < 1.0 - 1e-4)).all():
            return params, X, y


def finite_difference_grads(params: AttentionParams, X, y, step=1e-5):
    """Central differences of the batch's mean loss with respect to every parameter entry."""
    grads = {}
    for name in PARAM_FIELDS:
        value = getattr(params, name)
        if np.isscalar(value) or np.ndim(value) == 0:
            hi, lo = params.copy(), params.copy()
            setattr(hi, name, value + step)
            setattr(lo, name, value - step)
            grads[name] = (_mean_loss_at(hi, X, y) - _mean_loss_at(lo, X, y)) / (2 * step)
            continue
        out = np.zeros_like(value)
        for idx in np.ndindex(value.shape):
            hi, lo = params.copy(), params.copy()
            getattr(hi, name)[idx] += step
            getattr(lo, name)[idx] -= step
            out[idx] = (_mean_loss_at(hi, X, y) - _mean_loss_at(lo, X, y)) / (2 * step)
        grads[name] = out
    return grads


def epoch_gradients(params: AttentionParams, X, y, batch_size, seed=0):
    """(rows, gradient by name, summed loss) of each mini-batch of one shuffled epoch.

    Computed as `train` computes them: one `_Trainer` whose buffers hold
    `batch_size` rows, reused for every batch including a shorter last one.
    """
    n = X.shape[0]
    trainer = _Trainer(params, min(batch_size, n), TrainConfig(k=params.k, batch_size=batch_size))
    perm = np.random.default_rng(seed).permutation(n)
    for start in range(0, n, batch_size):
        batch = perm[start : start + batch_size]
        loss = trainer.gradient(X, np.asarray(y, dtype=float), batch)
        yield batch, {name: g.copy() for name, g in zip(PARAM_FIELDS, trainer.grad_views)}, loss


def assert_grads_close(analytic, numeric, rel=1e-4, abs_floor=1e-7):
    for name in PARAM_FIELDS:
        a = np.asarray(analytic[name], dtype=float).reshape(np.shape(numeric[name]))
        n = np.asarray(numeric[name], dtype=float)
        tol = np.maximum(abs_floor, rel * np.abs(n))
        np.testing.assert_array_less(np.abs(a - n), tol + 1e-300, err_msg=name)


def assert_epoch_matches_finite_differences(params, X, y, batch_size, rel=1e-4, abs_floor=1e-7):
    """Every mini-batch gradient of an epoch equals central differences of its mean loss."""
    for batch, analytic, _ in epoch_gradients(params, X, y, batch_size):
        assert_grads_close(analytic, finite_difference_grads(params, X[batch], y[batch]),
                           rel=rel, abs_floor=abs_floor)


def batch_forward(params: AttentionParams, X):
    """(alpha, h_tilde, y_hat) per row from the code `augment` and `train` run."""
    X = np.asarray(X, dtype=float)
    alpha = augment(params, _fm(X), "attention-vector").values[:, params.d:]
    h_tilde = augment(params, _fm(X), "weighted-hidden").values[:, params.d:]
    trainer = _Trainer(params, X.shape[0], TrainConfig(k=params.k))
    trainer.gradient(X, np.zeros(X.shape[0]), np.arange(X.shape[0]))
    return alpha, h_tilde, trainer.y_hat.copy()


def bits(a):
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64)).view(np.uint64)


def assert_params_bitwise_equal(a: AttentionParams, b: AttentionParams):
    for name in PARAM_FIELDS:
        assert np.array_equal(bits(getattr(a, name)), bits(getattr(b, name))), name


class TestSigmoid:
    EDGES = [0.0, -0.0, np.inf, -np.inf, 709.0, -709.0, 745.0, -745.0, 1e-300, -1e-300, 36.7, -36.7]

    def test_matches_reference_bitwise(self):
        rng = np.random.default_rng(31)
        x = np.concatenate([self.EDGES, rng.normal(0, 30, 5001), rng.normal(0, 1e-3, 101)])
        assert np.array_equal(bits(sigmoid(x)), bits(reference_sigmoid(x)))
        m = x.reshape(-1, 2)[:2000]
        assert np.array_equal(bits(sigmoid(m)), bits(reference_sigmoid(m)))

    def test_nan_stays_nan(self):
        out = sigmoid(np.array([np.nan, 1.0, np.nan]))
        assert np.isnan(out[[0, 2]]).all() and out[1] == reference_sigmoid(1.0)

    @pytest.mark.parametrize("value", EDGES + [np.nan, 2, -3])
    def test_zero_d_input_returns_float(self, value):
        for x in (value, np.float64(value), np.asarray(value)):
            out = sigmoid(x)
            assert type(out) is float
            ref = reference_sigmoid(value)
            assert (np.isnan(out) and np.isnan(ref)) or bits(out) == bits(ref)

    def test_does_not_modify_input(self):
        x = np.array([-2.0, 0.0, 3.0])
        sigmoid(x)
        assert x.tolist() == [-2.0, 0.0, 3.0]


class TestInitParams:
    def test_deterministic(self):
        a = init_params(19, 128, seed=42)
        b = init_params(19, 128, seed=42)
        for name in PARAM_FIELDS:
            assert np.array_equal(np.asarray(getattr(a, name)), np.asarray(getattr(b, name)))

    def test_biases_zero(self):
        p = init_params(6, 4, seed=0)
        assert not p.b1.any()
        assert not p.b_attn.any()
        assert p.b2 == 0.0

    def test_shapes(self):
        p = init_params(2, 3, seed=1)
        assert p.W1.shape == (3, 2)
        assert p.W_attn.shape == (3, 3)
        assert p.w2.shape == (3,)

    def test_fan_based_bounds(self):
        p = init_params(10, 20, seed=3)
        assert np.abs(p.W1).max() <= np.sqrt(6 / 30)
        assert np.abs(p.W_attn).max() <= np.sqrt(6 / 40)
        assert np.abs(p.w2).max() <= np.sqrt(6 / 21)

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            init_params(0, 4, seed=0)


class TestForward:
    """The per-sample oracle, and the batch code checked against it."""

    def test_zero_params_give_half_everywhere(self):
        p = _zero_params(2, 3)
        t = forward(p, np.array([4.0, -7.0]))
        assert np.array_equal(t.h, np.zeros(3))
        assert np.array_equal(t.alpha, np.full(3, 0.5))
        assert np.array_equal(t.h_tilde, np.zeros(3))
        assert t.y_hat == 0.5
        alpha, h_tilde, y_hat = batch_forward(p, [[4.0, -7.0], [1.0, 2.0]])
        assert np.array_equal(alpha, np.full((2, 3), 0.5))
        assert not h_tilde.any()
        assert np.array_equal(y_hat, [0.5, 0.5])

    def test_dead_relu_gives_sigmoid_of_output_bias(self):
        rng = np.random.default_rng(0)
        p = _random_params(3, 4, rng)
        p.W1 = -np.ones((4, 3))
        p.b1 = -np.ones(4)
        p.b2 = 1.3
        t = forward(p, np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(t.h, np.zeros(4))
        assert t.y_hat == pytest.approx(sigmoid(1.3))
        _, h_tilde, y_hat = batch_forward(p, [[1.0, 2.0, 3.0]])
        assert not h_tilde.any()
        assert y_hat[0] == sigmoid(1.3)

    def test_hand_computed_trace(self):
        p = AttentionParams(W1=np.eye(2), b1=np.zeros(2), W_attn=np.zeros((2, 2)),
                            b_attn=np.zeros(2), w2=np.array([1.0, 1.0]), b2=0.0, d=2, k=2)
        t = forward(p, np.array([1.0, 2.0]))
        np.testing.assert_allclose(t.h, [1.0, 2.0])
        np.testing.assert_allclose(t.alpha, [0.5, 0.5])
        np.testing.assert_allclose(t.h_tilde, [0.5, 1.0])
        assert t.y_hat == pytest.approx(0.817574, abs=1e-6)
        alpha, h_tilde, y_hat = batch_forward(p, [[1.0, 2.0]])
        np.testing.assert_allclose(alpha, [[0.5, 0.5]])
        np.testing.assert_allclose(h_tilde, [[0.5, 1.0]])
        assert y_hat[0] == pytest.approx(0.817574, abs=1e-6)

    def test_dimension_mismatch(self):
        p = init_params(3, 2, seed=0)
        with pytest.raises(ValueError):
            forward(p, np.zeros(4))

    def test_trace_invariants_random(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            p = _random_params(int(rng.integers(1, 7)), int(rng.integers(1, 7)), rng)
            X = rng.normal(0, 2, (int(rng.integers(1, 5)), p.d))
            alpha, h_tilde, y_hat = batch_forward(p, X)
            for i, x in enumerate(X):
                t = forward(p, x)
                assert (t.h >= 0).all()
                assert ((t.alpha > 0) & (t.alpha < 1)).all()
                np.testing.assert_array_equal(t.h_tilde, t.alpha * t.h)
                assert 0 < t.y_hat < 1
                np.testing.assert_allclose(alpha[i], t.alpha, rtol=1e-12, atol=1e-15)
                np.testing.assert_allclose(h_tilde[i], t.h_tilde, rtol=1e-12, atol=1e-15)
                assert y_hat[i] == pytest.approx(t.y_hat, rel=1e-12, abs=1e-15)


class TestBceLoss:
    def test_half_probability_is_ln2(self):
        assert bce_loss(0.5, 1) == pytest.approx(np.log(2.0))
        assert bce_loss(0.5, 1) == pytest.approx(0.693147, abs=1e-6)

    def test_perfect_prediction_clamped(self):
        loss = bce_loss(1.0, 1, prob_clamp=1e-12)
        assert 0.0 <= loss <= 1e-11

    def test_wrong_confident_prediction(self):
        assert bce_loss(0.9, 0) == pytest.approx(2.302585, abs=1e-6)

    def test_non_negative_and_zero_only_when_clamped_perfect(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            y_hat = float(rng.uniform(0, 1))
            y = int(rng.integers(0, 2))
            loss = bce_loss(y_hat, y, prob_clamp=1e-9)
            assert loss >= 0.0
            if loss == 0.0:
                assert y_hat == (1.0 if y == 1 else 0.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bce_loss(1.2, 1)

    def test_batch_loss_is_sum_of_per_sample_losses(self):
        rng = np.random.default_rng(9)
        for b2 in (0.0, 3.0, 40.0, -40.0):
            p = _random_params(3, 4, rng)
            p.b2 = b2
            X, y = rng.normal(0, 1, (11, 3)), rng.integers(0, 2, 11)
            for batch, _, loss in epoch_gradients(p, X, y, batch_size=4):
                expected = sum(bce_loss(forward(p, X[i]).y_hat, y[i]) for i in batch)
                assert loss == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestBackward:
    """The batch gradient `train` steps on, checked against the per-sample oracle."""

    def test_output_bias_gradient_is_residual(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = _random_params(4, 5, rng)
            X, y = rng.normal(0, 1, (7, 4)), rng.integers(0, 2, 7)
            for batch, g, _ in epoch_gradients(p, X, y, batch_size=3):
                residuals = [forward(p, X[i]).y_hat - y[i] for i in batch]
                assert g["b2"][0] == pytest.approx(np.mean(residuals), rel=1e-12, abs=1e-15)
            (batch, g, _), = epoch_gradients(p, X[:1], y[:1], batch_size=1)
            _, _, y_hat = batch_forward(p, X[:1])
            assert g["b2"][0] == y_hat[0] - y[0]

    def test_zero_input_zero_biases_kills_first_layer_gradient(self):
        rng = np.random.default_rng(5)
        p = _random_params(3, 4, rng)
        p.b1 = np.zeros(4)
        for _, g, _ in epoch_gradients(p, np.zeros((5, 3)), np.array([1, 0, 1, 1, 0]), batch_size=2):
            assert not g["W1"].any()
        assert not backward(p, forward(p, np.zeros(3)), 1).W1.any()

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            p, X, y = draw_checkable_case(rng, 5, 7, n=8)
            assert_epoch_matches_finite_differences(p, X, y, batch_size=3)

    def test_matches_finite_differences_varied_sizes(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            d, k = int(rng.integers(1, 6)), int(rng.integers(1, 8))
            batch_size = int(rng.integers(2, 6))
            n = batch_size * int(rng.integers(1, 3)) + int(rng.integers(1, batch_size))
            p, X, y = draw_checkable_case(rng, d, k, n)
            assert_epoch_matches_finite_differences(p, X, y, batch_size)

    def test_batch_gradient_is_mean_of_per_sample_gradients(self):
        rng = np.random.default_rng(8)
        p = _random_params(4, 6, rng)
        X, y = rng.normal(0, 1.5, (10, 4)), rng.integers(0, 2, 10)
        for batch, g, _ in epoch_gradients(p, X, y, batch_size=4):
            per_sample = [backward(p, forward(p, X[i]), y[i]) for i in batch]
            for name in PARAM_FIELDS:
                mean = np.mean([np.asarray(getattr(s, name)) for s in per_sample], axis=0)
                np.testing.assert_allclose(g[name].reshape(np.shape(mean)), mean,
                                           rtol=1e-10, atol=1e-14, err_msg=name)


class TestTrain:
    def _toy(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        half = n // 2
        X = np.vstack([
            rng.normal([-2.0, -2.0], 0.5, (half, 2)),
            rng.normal([2.0, 2.0], 0.5, (n - half, 2)),
        ])
        y = np.array([0] * half + [1] * (n - half))
        return FeatureMatrix(values=X, feature_names=["a", "b"]), y

    def test_zero_epochs_is_initialization(self):
        X, y = self._toy()
        cfg = TrainConfig(k=4, epochs=0, seed=3)
        params, history = train(X, y, cfg)
        ref = init_params(2, 4, seed=3)
        assert history == []
        for name in PARAM_FIELDS:
            assert np.array_equal(np.asarray(getattr(params, name)),
                                  np.asarray(getattr(ref, name)))

    def test_deterministic(self):
        X, y = self._toy()
        cfg = TrainConfig(k=6, epochs=4, seed=12)
        p1, h1 = train(X, y, cfg)
        p2, h2 = train(X, y, cfg)
        assert h1 == h2
        for name in PARAM_FIELDS:
            assert np.array_equal(np.asarray(getattr(p1, name)),
                                  np.asarray(getattr(p2, name)))

    @pytest.mark.parametrize("optimizer", ["adaptive-moments", "plain-sgd"])
    @pytest.mark.parametrize("k", [1, 16])
    @pytest.mark.parametrize("epochs", [0, 3])
    def test_bitwise_equal_to_reference(self, optimizer, k, epochs):
        rng = np.random.default_rng(k)
        X = _fm(rng.normal(0, 2, (103, 5)))
        y = rng.integers(0, 2, 103)
        for batch_size in (16, 1, 200):
            cfg = TrainConfig(k=k, epochs=epochs, batch_size=batch_size, seed=4,
                              optimizer=optimizer, learning_rate=0.02)
            params, history = train(X, y, cfg)
            ref_params, ref_history = reference_train(X, y, cfg)
            assert np.array_equal(bits(history), bits(ref_history))
            assert_params_bitwise_equal(params, ref_params)
            assert type(params.b2) is float

    @pytest.mark.parametrize("k", [1, 16])
    def test_reference_data_has_no_dead_unit(self, k):
        # the data of test_bitwise_equal_to_reference, so that test covers a fit of every unit
        X = np.random.default_rng(k).normal(0, 2, (103, 5))
        assert live_units(init_params(5, k, seed=4), X).size == k

    def test_separable_data_loss_decreases(self):
        X, y = self._toy(n=200, seed=1)
        cfg = TrainConfig(k=8, epochs=50, seed=0, learning_rate=5e-3)
        _, history = train(X, y, cfg)
        assert history[-1] < 0.2
        assert history[-1] < history[0]

    def test_plain_sgd_also_descends(self):
        X, y = self._toy(n=200, seed=2)
        cfg = TrainConfig(k=8, epochs=40, seed=0, optimizer="plain-sgd", learning_rate=0.05)
        _, history = train(X, y, cfg)
        assert history[-1] < history[0]

    def test_rejects_non_binary_labels(self):
        X, y = self._toy()
        with pytest.raises(DataError):
            train(X, y + 1, TrainConfig(k=2, epochs=1))

    def test_rejects_empty(self):
        X = FeatureMatrix(values=np.zeros((0, 2)), feature_names=["a", "b"])
        with pytest.raises(DataError):
            train(X, np.zeros(0, dtype=int), TrainConfig(k=2, epochs=1))

    @pytest.mark.parametrize("kwargs", [{"batch_size": 0}, {"batch_size": -1}, {"epochs": -1}])
    def test_config_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            TrainConfig(**kwargs)


def live_units(params: AttentionParams, X) -> np.ndarray:
    """Units whose pre-activation is positive on at least one row of X."""
    return np.flatnonzero(((np.asarray(X) @ params.W1.T + params.b1) > 0.0).any(axis=0))


def restrict(params: AttentionParams, units) -> AttentionParams:
    return AttentionParams(W1=params.W1[units], b1=params.b1[units],
                           W_attn=params.W_attn[np.ix_(units, units)],
                           b_attn=params.b_attn[units], w2=params.w2[units], b2=params.b2,
                           d=params.d, k=len(units))


def scatter(params: AttentionParams, sub: AttentionParams, units) -> AttentionParams:
    """A copy of `params` with the entries of `units` taken from `sub`."""
    out = params.copy()
    out.W1[units], out.b1[units], out.b_attn[units], out.w2[units] = (
        sub.W1, sub.b1, sub.b_attn, sub.w2)
    out.W_attn[np.ix_(units, units)] = sub.W_attn
    out.b2 = sub.b2
    return out


def assert_units_at_init(params: AttentionParams, init: AttentionParams, units):
    """Every parameter entry that belongs to `units` is bitwise at its initial value."""
    for name in ("W1", "b1", "b_attn", "w2"):
        assert np.array_equal(bits(getattr(params, name)[units]), bits(getattr(init, name)[units]))
    assert np.array_equal(bits(params.W_attn[units]), bits(init.W_attn[units]))
    assert np.array_equal(bits(params.W_attn[:, units]), bits(init.W_attn[:, units]))


class TestLiveUnits:
    """`train` fits only the units that are live at initialisation."""

    def _year_like(self, n=150, seed=5):
        # the last column sits near 2016 as the raw order year does, so every unit
        # whose year weight is negative starts dead on every row
        rng = np.random.default_rng(seed)
        X = rng.normal(0, 1, (n, 5))
        X[:, -1] = rng.integers(2014, 2019, n)
        # the last row, with year 0 and tiny values, is the only one where some
        # units are live, each with a pre-activation far below 1
        X[-1] = np.append(rng.normal(0, 0.01, 4), 0.0)
        y = (X[:, 0] + 0.5 * rng.normal(0, 1, n) > 0).astype(int)
        return _fm(X), y

    def _config(self, optimizer, k=16):
        return TrainConfig(k=k, epochs=3, batch_size=16, seed=4, optimizer=optimizer,
                           learning_rate=0.02)

    @pytest.mark.parametrize("optimizer", ["adaptive-moments", "plain-sgd"])
    def test_bitwise_equal_to_reference_on_live_sub_network(self, optimizer):
        X, y = self._year_like()
        cfg = self._config(optimizer)
        init = init_params(X.d, cfg.k, cfg.seed)
        live = live_units(init, X.values)
        assert 0 < live.size < cfg.k
        params, history = train(X, y, cfg)
        ref_sub, ref_history = reference_train(X, y, cfg, params=restrict(init, live))
        assert np.array_equal(bits(history), bits(ref_history))
        assert_params_bitwise_equal(params, scatter(init, ref_sub, live))
        assert params.k == cfg.k and type(params.b2) is float

    @pytest.mark.parametrize("optimizer", ["adaptive-moments", "plain-sgd"])
    def test_full_reference_leaves_dead_units_at_init(self, optimizer):
        X, y = self._year_like()
        cfg = self._config(optimizer)
        init = init_params(X.d, cfg.k, cfg.seed)
        live = live_units(init, X.values)
        dead = np.setdiff1d(np.arange(cfg.k), live)
        ref, ref_history = reference_train(X, y, cfg)
        # a unit dead on every row gets zero gradients and zero optimizer steps
        assert_units_at_init(ref, init, dead)
        params, history = train(X, y, cfg)
        assert_units_at_init(params, init, dead)
        # live units differ from the pruned fit only by the order of the products' sums
        for name in PARAM_FIELDS:
            np.testing.assert_allclose(getattr(params, name), getattr(ref, name),
                                       rtol=0, atol=1e-12, err_msg=name)
        np.testing.assert_allclose(history, ref_history, rtol=1e-12)

    @pytest.mark.parametrize("optimizer", ["adaptive-moments", "plain-sgd"])
    def test_no_live_unit_trains_output_bias_only(self, optimizer):
        X = _fm(np.zeros((40, 3)))
        y = (np.arange(40) % 3 == 0).astype(int)
        cfg = self._config(optimizer, k=8)
        init = init_params(3, 8, cfg.seed)
        assert live_units(init, X.values).size == 0
        params, history = train(X, y, cfg)
        ref, ref_history = reference_train(X, y, cfg)
        assert np.array_equal(bits(history), bits(ref_history))
        assert_params_bitwise_equal(params, ref)
        assert_units_at_init(params, init, np.arange(8))
        assert params.b2 < 0.0  # a third of the labels are 1


class TestAugment:
    def test_output_width(self):
        p = init_params(19, 128, seed=0)
        X = FeatureMatrix(values=np.random.default_rng(0).normal(0, 1, (4, 19)),
                          feature_names=[f"f{i}" for i in range(19)])
        for mode in ("weighted-hidden", "attention-vector"):
            out = augment(p, X, mode)
            assert out.d == 147
            assert out.feature_names[19:] == [f"attn_{i}" for i in range(128)]

    def test_zero_params_attention_vector_is_half(self):
        X = FeatureMatrix(values=np.ones((5, 2)), feature_names=["a", "b"])
        out = augment(_zero_params(2, 3), X, "attention-vector")
        assert np.array_equal(out.values[:, 2:], np.full((5, 3), 0.5))

    def test_zero_params_weighted_hidden_is_zero(self):
        X = FeatureMatrix(values=np.ones((5, 2)), feature_names=["a", "b"])
        out = augment(_zero_params(2, 3), X, "weighted-hidden")
        assert not out.values[:, 2:].any()

    def test_width_mismatch(self):
        p = init_params(3, 2, seed=0)
        X = FeatureMatrix(values=np.ones((2, 4)), feature_names=list("abcd"))
        with pytest.raises(ValueError):
            augment(p, X, "weighted-hidden")

    def test_unknown_mode(self):
        p = init_params(2, 2, seed=0)
        X = FeatureMatrix(values=np.ones((1, 2)), feature_names=["a", "b"])
        with pytest.raises(ValueError):
            augment(p, X, "softmax")

    @pytest.mark.parametrize("mode", ["weighted-hidden", "attention-vector"])
    def test_matches_reference_bitwise(self, mode):
        rng = np.random.default_rng(17)
        for k in (1, 16):
            X = _fm(rng.normal(0, 2, (57, 7)))
            for params in (_random_params(7, k, rng),
                           train(X, rng.integers(0, 2, 57), TrainConfig(k=k, epochs=2, batch_size=8))[0]):
                out, ref = augment(params, X, mode), reference_augment(params, X, mode)
                assert np.array_equal(bits(out.values), bits(ref.values))
                assert out.feature_names == ref.feature_names
            assert augment(params, _fm(np.zeros((0, 7))), mode).values.shape == (0, 7 + k)

    @pytest.mark.parametrize("mode", ["weighted-hidden", "attention-vector"])
    def test_blocks_equal_one_whole_matrix_pass(self, mode, monkeypatch):
        # blocks of at most 32 rows at k = 16; n on either side of one and two
        # block boundaries. 33 rows go as 17 + 16 and 1025 as 33 blocks of 31
        # or 32: a lone last row would take BLAS's one-row kernel, whose sums
        # differ from the batch's in the last bits
        rng = np.random.default_rng(19)
        X = _fm(rng.normal(0, 2, (1025, 7)))
        monkeypatch.setattr(tabular, "_BLOCK_CELLS", 16 * 32)
        for params in (_random_params(7, 16, rng),
                       train(X, rng.integers(0, 2, 1025), TrainConfig(k=16, epochs=1, batch_size=64))[0]):
            for n in (1, 31, 32, 33, 63, 64, 65, 97, 1025):
                part = _fm(X.values[:n])
                out, ref = augment(params, part, mode), reference_augment(params, part, mode)
                assert np.array_equal(bits(out.values), bits(ref.values)), n

    def test_peak_memory_is_the_output_and_a_few_blocks(self):
        # bench size: 4000 rows, 10 inputs, k = 128; a whole-matrix pass, which
        # held three (rows x k) arrays besides the output, peaked at 12.8 MB
        params = init_params(10, 128, seed=0)
        X = _fm(np.random.default_rng(23).normal(0, 1, (4000, 10)))
        tracemalloc.start()
        try:
            out = augment(params, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output (which holds H), then one block's gate, sigmoid scratch and mask
        assert peak < out.values.nbytes + 4 * 8 * tabular._BLOCK_CELLS


class TestRescalingInvariance:
    def test_joint_positive_rescale_of_output_layer_keeps_decisions(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p = _random_params(int(rng.integers(1, 6)), int(rng.integers(1, 6)), rng)
            x = rng.normal(0, 1.5, p.d)
            factor = float(rng.uniform(0.05, 20.0))
            scaled = p.copy()
            scaled.w2 = p.w2 * factor
            scaled.b2 = p.b2 * factor
            before = forward(p, x).y_hat >= 0.5
            after = forward(scaled, x).y_hat >= 0.5
            assert before == after
