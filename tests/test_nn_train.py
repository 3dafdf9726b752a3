import types

import numpy as np
import pytest

from carle.errors import InputError, NumericalError, ParameterError
from carle.nn import CarleNet, RmsProp, TrainConfig
from carle.nn.train import train


def _toy_data(rng, n=30, width=6, seq_len=3):
    X = rng.normal(size=(n, seq_len, width))
    w = rng.normal(size=width)
    y = 1.0 / (1.0 + np.exp(-X[:, -1, :] @ w))
    return X, y


def _per_array_rmsprop_step(accum, params, grads, learning_rate, decay, epsilon):
    """The optimiser as it was before the flat weight vector: one accumulator
    and one update per named array. Kept as the reference the flat step must
    match bit for bit."""
    grads = dict(grads)
    for name, p in params:
        g = grads[name]
        acc = accum[name]
        acc *= decay
        acc += (1.0 - decay) * g * g
        p -= learning_rate * g / np.sqrt(acc + epsilon)


def _assert_views_of_flat(net):
    for (name, p), (_, g) in zip(net.parameters(), net.gradients()):
        assert np.shares_memory(p, net.flat_params) and np.shares_memory(g, net.flat_grads), name
    assert sum(p.size for _, p in net.parameters()) == net.flat_params.size == net.flat_grads.size


class TestRmsProp:
    def test_update_rule(self):
        p = np.array([1.0, -2.0])
        opt = RmsProp(p.size, learning_rate=0.1, decay=0.9, epsilon=1e-8)
        opt.step(p, np.array([0.5, 0.5]))
        accum = 0.1 * 0.25
        expect = np.array([1.0, -2.0]) - 0.1 * 0.5 / np.sqrt(accum + 1e-8)
        assert np.allclose(p, expect, rtol=1e-12)

    def test_accumulator_nonnegative(self, rng):
        p = rng.normal(size=4)
        opt = RmsProp(p.size, 0.01)
        for _ in range(20):
            opt.step(p, rng.normal(size=4))
            assert np.all(opt.accum >= 0.0)

    def test_flat_step_equals_per_array_steps_bit_for_bit(self, rng):
        X, y = _toy_data(rng, n=40)
        flat, ref = CarleNet(6, "gradcheck", seed=11), CarleNet(6, "gradcheck", seed=11)
        opt = RmsProp(flat.flat_params.size, 2e-3, 0.9, 1e-8)
        accum = {name: np.zeros_like(arr) for name, arr in ref.parameters()}
        for step in range(5):
            batch = slice(8 * step, 8 * step + 8)
            flat.loss_and_grads(X[batch], y[batch])
            opt.step(flat.flat_params, flat.flat_grads)
            ref.loss_and_grads(X[batch], y[batch])
            _per_array_rmsprop_step(accum, ref.parameters(), ref.gradients(), 2e-3, 0.9, 1e-8)
            for (name, a), (_, b) in zip(flat.parameters(), ref.parameters()):
                assert a.tobytes() == b.tobytes(), (step, name)
        assert opt.accum.tobytes() == np.concatenate([a.ravel() for a in accum.values()]).tobytes()


class TestFlatBuffer:
    def test_params_and_grads_stay_views_of_the_flat_vectors(self, rng):
        X, y = _toy_data(rng, n=20)
        net = CarleNet(6, "gradcheck", seed=12)
        _assert_views_of_flat(net)
        net.loss_and_grads(X[:4], y[:4])
        net.zero_grads()
        assert not net.flat_grads.any()
        _assert_views_of_flat(net)
        net.set_weights(dict(CarleNet(6, "gradcheck", seed=13).parameters()))
        _assert_views_of_flat(net)
        train(net, X, y, TrainConfig(batch_size=5, learning_rate=1e-3, epochs=3), seed=12)
        _assert_views_of_flat(net)

    def test_layer_zero_grads_keeps_its_views(self, rng):
        net = CarleNet(6, "gradcheck", seed=14)
        grads = dict(net.gradients())
        net.loss_and_grads(rng.normal(size=(4, 3, 6)), rng.uniform(size=4))
        assert net.flat_grads.any()
        net.head.zero_grads()
        assert net.head.grads["W"] is grads["head.W"]
        assert not net.head.grads["W"].any()


class TestTrain:
    def test_overfit_small_set(self, rng):
        X, y = _toy_data(rng, n=50)
        net = CarleNet(6, "gradcheck", seed=0)
        cfg = TrainConfig(batch_size=10, learning_rate=5e-3, epochs=400,
                          early_stop_patience=400, plateau_patience=50)
        report = train(net, X, y, cfg, seed=0)
        assert report.best_loss < 0.05

    def test_loss_mostly_decreases_early(self, rng):
        X, y = _toy_data(rng, n=40)
        net = CarleNet(6, "gradcheck", seed=1)
        cfg = TrainConfig(batch_size=8, learning_rate=2e-3, epochs=10,
                          early_stop_patience=10)
        report = train(net, X, y, cfg, seed=1)
        drops = sum(1 for a, b in zip(report.history["loss"], report.history["loss"][1:]) if b <= a)
        assert drops >= 8 - 1  # non-increasing in at least 8 of 10 steps

    def test_patience_zero_stops_at_first_non_improvement(self, rng):
        X, y = _toy_data(rng, n=20)
        net = CarleNet(6, "gradcheck", seed=2)
        cfg = TrainConfig(batch_size=5, learning_rate=1e-3, epochs=200, early_stop_patience=0)
        report = train(net, X, y, cfg, seed=2)
        loss = report.history["loss"]
        # every epoch before the stop improved on the running best
        best = np.inf
        for value in loss[:-1]:
            assert value < best
            best = value
        assert loss[-1] >= best
        assert report.stopped_epoch == len(loss) - 1

    def test_seed_determinism_bit_identical_history(self, rng):
        X, y = _toy_data(rng, n=25)
        cfg = TrainConfig(batch_size=8, learning_rate=1e-3, epochs=12)
        r1 = train(CarleNet(6, "gradcheck", seed=5), X, y, cfg, seed=7)
        r2 = train(CarleNet(6, "gradcheck", seed=5), X, y, cfg, seed=7)
        assert r1.history["loss"] == r2.history["loss"]
        assert r1.history["mae"] == r2.history["mae"]

    def test_best_weights_restored(self, rng):
        X, y = _toy_data(rng, n=25)
        net = CarleNet(6, "gradcheck", seed=3)
        cfg = TrainConfig(batch_size=8, learning_rate=1e-3, epochs=30, early_stop_patience=30)
        report = train(net, X, y, cfg, seed=3)
        _, pred = net.forward(X)
        final_rmse = float(np.sqrt(np.mean((pred - y) ** 2)))
        assert final_rmse == pytest.approx(report.best_loss, rel=1e-9)

    @pytest.mark.parametrize("epochs", [4, 12])
    def test_best_logits_are_the_restored_weights_logits(self, rng, epochs):
        X, y = _toy_data(rng, n=25)
        net = CarleNet(6, "gradcheck", seed=3)
        cfg = TrainConfig(batch_size=8, learning_rate=5e-2, epochs=epochs, early_stop_patience=epochs)
        report = train(net, X, y, cfg, seed=3)
        assert np.array_equal(report.best_logits, net.logits(X))

    def test_validation_split_keeps_no_logits(self, rng):
        X, y = _toy_data(rng, n=40)
        cfg = TrainConfig(batch_size=8, epochs=3, val_fraction=0.25)
        assert train(CarleNet(6, "gradcheck", seed=5), X, y, cfg, seed=5).best_logits is None

    def test_plateau_reduces_learning_rate(self, rng):
        X, y = _toy_data(rng, n=20)
        net = CarleNet(6, "gradcheck", seed=4)
        # huge lr: loss bounces, plateau kicks in quickly
        cfg = TrainConfig(batch_size=5, learning_rate=0.5, epochs=60,
                          early_stop_patience=60, plateau_patience=2,
                          plateau_factor=0.5)
        report = train(net, X, y, cfg, seed=4)
        assert report.history["lr"][-1] < 0.5

    def test_validation_split_monitors_heldout(self, rng):
        X, y = _toy_data(rng, n=40)
        net = CarleNet(6, "gradcheck", seed=5)
        cfg = TrainConfig(batch_size=8, learning_rate=1e-3, epochs=10, val_fraction=0.25)
        report = train(net, X, y, cfg, seed=5)
        assert report.epochs_run == 10

    def test_forward_carries_no_state_between_calls(self, rng):
        # LSTM states start at zero on every forward, so nothing from a
        # previous batch reaches the next one
        A, B = rng.normal(size=(4, 3, 6)), rng.normal(size=(7, 3, 6))
        fresh = CarleNet(6, "gradcheck", seed=6).forward(A)
        net = CarleNet(6, "gradcheck", seed=6)
        net.forward(B)
        for want, got in zip(fresh, net.forward(A)):
            assert np.array_equal(want.view(np.uint64), got.view(np.uint64))

    @pytest.mark.parametrize(
        "field, value",
        [("learning_rate", -1.0), ("batch_size", 0), ("epochs", 0)],
    )
    def test_invalid_config_rejected_before_training(self, rng, field, value):
        X, y = _toy_data(rng, n=10)
        net = CarleNet(6, "gradcheck", seed=6)
        before = net.get_weights()
        cfg = TrainConfig(**{"batch_size": 5, "learning_rate": 1e-3, "epochs": 2, field: value})
        with pytest.raises(ParameterError, match=f"training.{field}"):
            train(net, X, y, cfg, seed=6)
        assert np.array_equal(net.flat_params, before)

    def test_nan_loss_aborts_with_checkpoint(self, rng):
        X, y = _toy_data(rng, n=20)
        net = CarleNet(6, "gradcheck", seed=7)
        cfg = TrainConfig(batch_size=5, learning_rate=1e-3, epochs=50)
        report = train(net, X, y, cfg, seed=7)
        assert not report.diverged

        # poison the weights mid-run via a monkeypatched step
        net2 = CarleNet(6, "gradcheck", seed=7)
        calls = {"n": 0}
        orig = net2.loss_and_grads

        def wrapped(xb, yb):
            calls["n"] += 1
            if calls["n"] > 6:
                return float("nan"), np.zeros(len(yb))
            return orig(xb, yb)

        net2.loss_and_grads = wrapped
        report2 = train(net2, X, y, cfg, seed=7)
        assert report2.diverged
        assert report2.best_epoch >= 0

    def test_nan_before_any_checkpoint_raises(self, rng):
        X, y = _toy_data(rng, n=10)
        net = CarleNet(6, "gradcheck", seed=8)
        net.loss_and_grads = lambda xb, yb: (float("nan"), np.zeros(len(yb)))
        with pytest.raises(NumericalError):
            train(net, X, y, TrainConfig(batch_size=5, learning_rate=1e-3, epochs=3), seed=8)

    def test_empty_dataset_rejected(self):
        net = CarleNet(6, "gradcheck", seed=9)
        with pytest.raises(InputError):
            train(net, np.zeros((0, 3, 6)), np.zeros(0), TrainConfig())

    def test_mismatched_lengths_rejected(self, rng):
        net = CarleNet(6, "gradcheck", seed=9)
        with pytest.raises(InputError):
            train(net, rng.normal(size=(5, 3, 6)), np.zeros(4), TrainConfig())


def test_nn_train_names_the_module():
    import carle.nn.train as m

    assert isinstance(m, types.ModuleType) and m.RmsProp is RmsProp and m.train is train
