"""Network training: RMSProp updates, early stopping, LR plateau decay and
best-weight checkpointing."""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .. import metrics, schema
from ..errors import InputError, NumericalError

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    batch_size: int = 16
    learning_rate: float = 2e-3
    decay: float = 0.9
    epsilon: float = 1e-8
    epochs: int = 300
    early_stop_patience: int = 25
    plateau_patience: int = 10
    plateau_factor: float = 0.5
    val_fraction: float = 0.0

    BOUNDS = (
        (">= 1", lambda v: v >= 1, ("batch_size", "epochs")),
        ("positive", lambda v: v > 0, ("learning_rate", "epsilon")),
        (">= 0", lambda v: v >= 0, ("early_stop_patience", "plateau_patience")),
        ("in [0,1)", lambda v: 0 <= v < 1, ("decay", "val_fraction")),
        ("in (0,1]", lambda v: 0 < v <= 1, ("plateau_factor",)),
    )


class RmsProp:
    """Squared-gradient accumulator over a flat weight vector:
    w -= lr * g / sqrt(E[g^2] + eps), elementwise. A step works in place in
    two scratch vectors, in the operation order of the expression."""

    def __init__(self, size, learning_rate, decay=0.9, epsilon=1e-8):
        self.learning_rate = learning_rate
        self.decay = decay
        self.epsilon = epsilon
        self.accum = np.zeros(size)
        self._num = np.empty(size)
        self._den = np.empty(size)

    def step(self, p, g):
        acc, num, den = self.accum, self._num, self._den
        acc *= self.decay
        np.multiply(g, 1.0 - self.decay, out=num)
        num *= g
        acc += num
        np.add(acc, self.epsilon, out=den)
        np.sqrt(den, out=den)
        np.multiply(g, self.learning_rate, out=num)
        num /= den
        p -= num


@dataclass
class TrainReport:
    history: dict = field(default_factory=lambda: {"loss": [], "mae": [], "lr": []})
    best_epoch: int = -1
    best_loss: float = math.inf
    stopped_epoch: int = -1
    diverged: bool = False
    # the training sequences' logit rows at the best epoch; None when a
    # validation split is tracked instead
    best_logits: np.ndarray | None = None

    @property
    def epochs_run(self) -> int:
        return len(self.history["loss"])


def _epoch_metrics(net, X, y):
    logits, pred = net.infer(X)
    return metrics.rmse(y, pred), metrics.mae(y, pred), logits


def train(net, X, y, config: TrainConfig = None, seed: int = 0) -> TrainReport:
    """Fit the scalar head of ``net`` to targets ``y`` over sequences ``X``.

    Tracks RMSE (the per-epoch loss l_e) and MAE on the validation split
    when one is configured, otherwise on the training data. The weights at
    the minimal tracked loss are restored into the net before returning, and
    without a validation split the report keeps their logit rows of ``X``. A
    non-finite loss aborts training, keeping the last good checkpoint.
    ``seed`` fixes the validation split and the per-epoch shuffles.
    """
    if config is None:
        config = TrainConfig()
    schema.check(config, "training.")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if len(X) == 0:
        raise InputError("empty training set")
    if len(X) != len(y):
        raise InputError(f"feature/label mismatch: {len(X)} vs {len(y)}")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = len(X)
    n_val = int(round(config.val_fraction * n))
    if n_val > 0:
        perm = rng.permutation(n)
        val_idx, train_idx = perm[:n_val], perm[n_val:]
        if len(train_idx) == 0:
            raise InputError("val_fraction leaves no training samples")
        X_train, y_train = X[train_idx], y[train_idx]
        X_mon, y_mon = X[val_idx], y[val_idx]
    else:
        X_train, y_train = X_mon, y_mon = X, y

    opt = RmsProp(net.flat_params.size, config.learning_rate, config.decay, config.epsilon)
    report = TrainReport()
    best_weights = net.get_weights()
    epochs_since_best = 0
    plateau_counter = 0

    for epoch in range(config.epochs):
        order = rng.permutation(len(X_train))
        aborted = False
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            loss, _ = net.loss_and_grads(X_train[batch], y_train[batch])
            if not math.isfinite(loss):
                if report.best_epoch < 0:
                    raise NumericalError(
                        f"non-finite loss {loss} at epoch {epoch} before any checkpoint"
                    )
                log.warning("non-finite loss at epoch %d; keeping best checkpoint", epoch)
                report.diverged = True
                aborted = True
                break
            opt.step(net.flat_params, net.flat_grads)
        if aborted:
            break

        l_e, mae_e, logits = _epoch_metrics(net, X_mon, y_mon)
        report.history["loss"].append(l_e)
        report.history["mae"].append(mae_e)
        report.history["lr"].append(opt.learning_rate)

        if l_e < report.best_loss:
            report.best_loss = l_e
            report.best_epoch = epoch
            best_weights = net.get_weights()
            if n_val == 0:
                report.best_logits = logits
            epochs_since_best = 0
            plateau_counter = 0
        else:
            epochs_since_best += 1
            plateau_counter += 1
            if plateau_counter > config.plateau_patience:
                opt.learning_rate *= config.plateau_factor
                plateau_counter = 0
                log.debug("plateau: lr reduced to %g at epoch %d", opt.learning_rate, epoch)
            if epochs_since_best > config.early_stop_patience:
                report.stopped_epoch = epoch
                break

    net.flat_params[...] = best_weights
    return report
