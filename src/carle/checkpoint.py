"""Combined model artifact: network weights, optimizer state, feature scaler,
and the forest, in one self-describing npz container with a versioned header."""

import json
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import schema
from .errors import InputError, ParameterError
from .forest import Forest, ForestConfig
from .nn.model import CarleNet

FORMAT_MAGIC = "carle-checkpoint"
FORMAT_VERSION = 1


@dataclass
class Scaler:
    """Per-feature standardisation with clipped z-scores.

    Features that were constant at fit time carry no information, so their
    z-score is defined as 0 whatever the input; this keeps a shifted
    deployment domain from injecting huge clipped constants.
    """

    mean: np.ndarray
    std: np.ndarray
    clip: float = 6.0

    @classmethod
    def fit(cls, X, clip: float = 6.0) -> "Scaler":
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        std = X.std(axis=0)
        constant = std <= 1e-9 * (1.0 + np.abs(X.mean(axis=0)))
        std = np.where(constant, np.inf, std)
        return cls(X.mean(axis=0), std, clip)

    def transform(self, X) -> np.ndarray:
        z = (np.asarray(X, dtype=np.float64) - self.mean) / self.std
        return np.clip(z, -self.clip, self.clip)


def save_checkpoint(
    path,
    net: CarleNet,
    forest: Forest | None = None,
    scaler: Scaler | None = None,
    optimizer=None,
    config: dict | None = None,
    history: dict | None = None,
    extra_meta: dict | None = None,
):
    meta = {
        "magic": FORMAT_MAGIC,
        "version": FORMAT_VERSION,
        "profile": net.profile.name,
        "input_width": net.input_width,
        "use_mha": net.use_mha,
        "use_residual": net.use_residual,
        "cross_block_residual": net.cross_block_residual,
        "net_seed": net.seed,
        "param_shapes": {name: list(arr.shape) for name, arr in net.parameters()},
        "has_forest": forest is not None,
        "has_scaler": scaler is not None,
        "has_optimizer": optimizer is not None,
        "config": config or {},
        "history": history or {},
    }
    if extra_meta:
        meta.update(extra_meta)

    arrays = {}
    for name, arr in net.parameters():
        arrays[f"nn::{name}"] = arr
    if optimizer is not None:
        meta["optimizer"] = {
            "learning_rate": optimizer.learning_rate,
            "decay": optimizer.decay,
            "epsilon": optimizer.epsilon,
        }
        for name, acc in optimizer.accum.items():
            arrays[f"opt::{name}"] = acc
    if scaler is not None:
        arrays["scaler::mean"] = scaler.mean
        arrays["scaler::std"] = scaler.std
        meta["scaler_clip"] = scaler.clip
    if forest is not None:
        meta["forest_config"] = forest.config.__dict__
        meta["forest_n_features"] = forest.n_features
        arrays.update({f"forest::{k}": getattr(forest, k) for k in Forest.ARRAYS})

    np.savez_compressed(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


@dataclass
class CheckpointBundle:
    net: CarleNet
    forest: Forest | None
    scaler: Scaler | None
    meta: dict

    @property
    def config(self) -> dict:
        return self.meta.get("config", {})


@contextmanager
def _open(path):
    """The checkpoint's members and checked header; a file that is not a
    readable checkpoint raises InputError."""
    try:
        data = np.load(path)  # allow_pickle stays off
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise InputError(f"{path}: not a model checkpoint (not an npz archive)") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise InputError(f"{path}: not a model checkpoint (a bare .npy array)")
    try:
        with data:
            yield data, _header(data, path)
    except InputError:
        raise
    except (ValueError, KeyError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        raise InputError(f"{path}: unreadable checkpoint ({exc})") from exc


def _header(data, path) -> dict:
    try:
        meta = json.loads(bytes(data["meta"]).decode())
    except (KeyError, ValueError) as exc:
        raise InputError(f"{path}: not a model checkpoint (missing header)") from exc
    if meta.get("magic") != FORMAT_MAGIC:
        raise InputError(f"{path}: not a model checkpoint (bad magic)")
    if meta.get("version") != FORMAT_VERSION:
        raise InputError(f"{path}: unsupported checkpoint version {meta.get('version')}")
    return meta


def read_meta(path) -> dict:
    """The checkpoint's header alone, without building the model."""
    with _open(path) as (_, meta):
        return meta


def load_checkpoint(path) -> CheckpointBundle:
    with _open(path) as (data, meta):
        net = CarleNet(
            meta["input_width"],
            meta["profile"],
            use_mha=meta["use_mha"],
            use_residual=meta["use_residual"],
            cross_block_residual=meta["cross_block_residual"],
            seed=meta["net_seed"],
        )
        weights = {
            name[len("nn::"):]: data[name] for name in data.files if name.startswith("nn::")
        }
        net.set_weights(weights)
        forest = None
        if meta["has_forest"]:
            try:
                config = schema.read(ForestConfig, meta["forest_config"], prefix="forest_config.")
                config.validate()
            except ParameterError as exc:
                raise InputError(f"{path}: {exc}") from exc
            forest = Forest(
                **{name: data[f"forest::{name}"] for name in Forest.ARRAYS},
                n_features=meta["forest_n_features"],
                config=config,
            ).validate()
        scaler = None
        if meta["has_scaler"]:
            scaler = Scaler(data["scaler::mean"], data["scaler::std"], meta["scaler_clip"])
    return CheckpointBundle(net, forest, scaler, meta)
