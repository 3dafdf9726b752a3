"""Model artifact container: one npz file holding a versioned JSON header and
the model's arrays, each stored as the member ``section::name``, and the
feature ``Scaler`` stored in it.

The header carries the config the model was trained from. The pipeline
rebuilds the model from that config; this module writes and reads the
header and the arrays without interpreting the model.
"""

import json
import tokenize
import warnings
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import InputError

FORMAT_MAGIC = "carle-checkpoint"
FORMAT_VERSION = 4


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

    def validate(self, width: int) -> "Scaler":
        """Check statistics read from outside; raise InputError unless mean
        and std are real (width,) vectors, mean is finite and std is > 0
        (inf marks a feature that was constant at fit time)."""
        for name in ("mean", "std"):
            arr = np.asarray(getattr(self, name))
            if arr.dtype.kind not in "fiu" or arr.shape != (width,):
                raise InputError(
                    f"scaler {name} must be {width} real numbers, got {arr.dtype} {arr.shape}"
                )
        if not np.isfinite(self.mean).all():
            raise InputError("scaler mean has a non-finite value")
        if not (self.std > 0).all():
            raise InputError("scaler std must be > 0 (inf for a constant feature)")
        return self

    def transform(self, X) -> np.ndarray:
        z = (np.asarray(X, dtype=np.float64) - self.mean) / self.std
        return np.clip(z, -self.clip, self.clip)


def save_checkpoint(path, meta: dict, sections: dict):
    """Write ``meta`` after the format's magic and version as the header, and
    every array of ``sections`` ({section: {name: array}}) as a member."""
    header = {"magic": FORMAT_MAGIC, "version": FORMAT_VERSION, **meta}
    arrays = {
        f"{section}::{name}": arr
        for section, group in sections.items()
        for name, arr in group.items()
    }
    np.savez_compressed(path, meta=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8), **arrays)


@dataclass
class CheckpointBundle:
    meta: dict
    sections: dict  # section -> {name: array}


def _header(data, path) -> dict:
    try:
        meta = json.loads(bytes(data["meta"]).decode())
    except (KeyError, ValueError) as exc:
        raise InputError(f"{path}: not a model checkpoint (missing header)") from exc
    if not isinstance(meta, dict) or meta.get("magic") != FORMAT_MAGIC:
        raise InputError(f"{path}: not a model checkpoint (bad magic)")
    if meta.get("version") != FORMAT_VERSION:
        raise InputError(f"{path}: unsupported checkpoint version {meta.get('version')}")
    return meta


def load_checkpoint(path) -> CheckpointBundle:
    """The checkpoint's checked header and its arrays; a file that is not a
    readable checkpoint raises InputError."""
    try:
        data = np.load(path)  # allow_pickle stays off
    except (ValueError, EOFError, zipfile.BadZipFile, NotImplementedError) as exc:
        raise InputError(f"{path}: not a model checkpoint (not an npz archive)") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise InputError(f"{path}: not a model checkpoint (a bare .npy array)")
    sections = {}
    try:
        with data, warnings.catch_warnings():
            # numpy warns and reads on when a member's .npy header needs its
            # Python 2 rewrite ('shape': (14L,)), which no saved checkpoint needs
            warnings.simplefilter("error", UserWarning)
            meta = _header(data, path)
            for member in data.files:
                if member != "meta":
                    section, _, name = member.partition("::")
                    sections.setdefault(section, {})[name] = data[member]
    except InputError:
        raise
    # zipfile: NotImplementedError on a member it cannot unpack, RuntimeError on an encrypted one;
    # a member's .npy header: TokenError on an unclosed bracket or string, TypeError on an
    # unhashable dict key, UserWarning on a Python 2 spelling
    except (ValueError, KeyError, EOFError, zipfile.BadZipFile, zlib.error, NotImplementedError,
            RuntimeError, tokenize.TokenError, TypeError, UserWarning) as exc:
        raise InputError(f"{path}: unreadable checkpoint ({exc})") from exc
    return CheckpointBundle(meta, sections)
