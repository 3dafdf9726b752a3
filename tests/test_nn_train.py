import numpy as np
import pytest

from carle.errors import InputError, NumericalError
from carle.nn import CarleNet, RmsProp, TrainConfig, train


def _toy_data(rng, n=30, width=6, seq_len=3):
    X = rng.normal(size=(n, seq_len, width))
    w = rng.normal(size=width)
    y = 1.0 / (1.0 + np.exp(-X[:, -1, :] @ w))
    return X, y


class TestRmsProp:
    def test_update_rule(self):
        p = np.array([1.0, -2.0])
        params = [("p", p)]
        opt = RmsProp(params, learning_rate=0.1, decay=0.9, epsilon=1e-8)
        g = np.array([0.5, 0.5])
        opt.step(params, [("p", g)])
        accum = 0.1 * 0.25
        expect = np.array([1.0, -2.0]) - 0.1 * 0.5 / np.sqrt(accum + 1e-8)
        assert np.allclose(p, expect, rtol=1e-12)

    def test_accumulator_nonnegative(self, rng):
        p = rng.normal(size=4)
        params = [("p", p)]
        opt = RmsProp(params, 0.01)
        for _ in range(20):
            opt.step(params, [("p", rng.normal(size=4))])
            assert np.all(opt.accum["p"] >= 0.0)


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

    def test_lstm_states_cleared_between_epochs(self, rng):
        X, y = _toy_data(rng, n=10)
        net = CarleNet(6, "gradcheck", seed=6)
        cfg = TrainConfig(batch_size=5, learning_rate=1e-3, epochs=2)
        train(net, X, y, cfg, seed=6)
        # reset callback ran after the last epoch's updates
        net.reset_states()
        for lstm in net.lstms:
            assert lstm._cache is None

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
