"""Experiment configuration and the end-to-end pipelines behind the CLI.

One resolved ExperimentConfig drives every command; its SHA-256 hash is
stamped into all emitted files. All randomness flows from the single root
seed, split into fixed per-subsystem streams.
"""

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import adapt as adapt_mod
from . import forest as forest_mod
from . import schema
from .checkpoint import Scaler, load_checkpoint, save_checkpoint
from .errors import InputError, ParameterError
from .features import ExtractionConfig, extract_features
from .labels import LabelConfig, make_labels
from .metrics import MetricReport
from .nn.model import PROFILES, CarleNet, get_profile
from .nn.train import TrainConfig, TrainReport, train
from .signal import (MultiChannelSignal, NoiseConfig, SynthConfig, SynthProfile, inject_noise,
                     synth_run_to_failure)

VARIANTS = ("carle", "carl", "crle", "cale")

_SEED_STREAMS = {"synth": 0, "synth_eval": 1, "noise": 2, "init": 3, "train": 4, "bootstrap": 5}


def derive_seed(root_seed: int, stream: str) -> int:
    """Deterministic per-subsystem seed derived from the one root seed."""
    try:
        key = _SEED_STREAMS[stream]
    except KeyError:
        raise ParameterError(f"unknown seed stream {stream!r}") from None
    return int(np.random.SeedSequence(root_seed, spawn_key=(key,)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# A config section lives in the module of the function that reads it:
# features.ExtractionConfig, labels.LabelConfig, nn.train.TrainConfig,
# forest.ForestConfig, signal.NoiseConfig and signal.SynthProfile (which
# synth_config() resolves into a signal.SynthConfig). The model section is
# read here, by build_model.
# ---------------------------------------------------------------------------


@dataclass
class ModelSection:
    profile: str = "toy"
    seq_len: int | None = None  # None -> profile default
    z_clip: float = 6.0

    BOUNDS = (
        (f"one of {sorted(PROFILES)}", PROFILES.__contains__, ("profile",)),
        (">= 1", lambda v: v >= 1, ("seq_len",)),
        ("positive", lambda v: v > 0, ("z_clip",)),
    )


@dataclass
class ExperimentConfig:
    seed: int = 0
    sample_rate_hz: float = 1024.0
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    labels: LabelConfig = field(default_factory=LabelConfig)
    model: ModelSection = field(default_factory=ModelSection)
    training: TrainConfig = field(default_factory=TrainConfig)
    forest: forest_mod.ForestConfig = field(default_factory=forest_mod.ForestConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    synth: SynthProfile = field(default_factory=SynthProfile)

    BOUNDS = (
        (">= 0", lambda v: v >= 0, ("seed",)),
        ("positive", lambda v: v > 0, ("sample_rate_hz",)),
    )

    def validate(self) -> "ExperimentConfig":
        return schema.check(self)

    @classmethod
    def from_dict(cls, doc: dict, base: "ExperimentConfig | None" = None) -> "ExperimentConfig":
        """A config from a nested JSON object; keys it leaves out keep their
        value in ``base`` (default: the defaults)."""
        return schema.read(cls, doc, base).validate()

    @classmethod
    def from_file(cls, path, base: "ExperimentConfig | None" = None) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}: invalid JSON config: {exc}") from exc
            except RecursionError:
                raise InputError(f"{path}: invalid JSON config: nested too deeply") from None
            except UnicodeDecodeError:
                raise InputError(f"{path}: config is not UTF-8 text") from None
        return cls.from_dict(doc, base)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def with_overrides(self, overrides: dict) -> "ExperimentConfig":
        """Apply dotted-key overrides like {'training.epochs': 50}, in order."""
        config = self
        for key, value in overrides.items():
            for part in reversed(key.split(".")):
                value = {part: value}
            config = schema.read(type(self), value, config)
        return config.validate()

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    # resolved helpers ------------------------------------------------------

    def profile(self):
        prof = get_profile(self.model.profile)
        if self.model.seq_len is not None:
            prof = dataclasses.replace(prof, seq_len=self.model.seq_len)
        return prof

    def extraction_config(self) -> ExtractionConfig:
        return self.extraction

    def synth_config(self, rotation_hz: float | None = None) -> SynthConfig:
        s = self.synth
        if rotation_hz is None:
            rotation_hz = s.rotation_hz if s.rotation_hz is not None else self.extraction.f_o
        fields = {**dataclasses.asdict(s), "rotation_hz": rotation_hz}
        return SynthConfig(**fields, sample_rate_hz=self.sample_rate_hz)


# ---------------------------------------------------------------------------
# Model-ready data assembly
# ---------------------------------------------------------------------------


def build_sequences(features: np.ndarray, seq_len: int, window_index=None) -> np.ndarray:
    """Per feature row, the rows of the seq_len windows ending at its window.

    Row r's sequence covers windows ``window_index[r] - seq_len + 1`` to
    ``window_index[r]`` (by default the rows are consecutive windows); each
    window takes the row of the latest kept window at or before it, and a
    window before the first kept one takes the first row, so every row keeps
    exactly one sequence (and later one logit row).
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    n = len(features)
    idx = np.arange(n) if window_index is None else np.asarray(window_index)
    if idx.dtype.kind in "iu":
        idx = idx.astype(np.int64, copy=False)
    if not (idx.shape == (n,) and idx.dtype == np.int64 and (idx[1:] > idx[:-1]).all()):
        raise InputError(
            f"window_index must be {n} strictly increasing integers, one per feature row"
        )
    windows = idx[:, None] - np.arange(seq_len - 1, -1, -1)
    return features[np.clip(np.searchsorted(idx, windows, side="right") - 1, 0, None)]


def extract_matrix(signal: MultiChannelSignal, config: ExperimentConfig):
    """Run extraction and return (matrix, names, window_index)."""
    vectors = extract_features(signal, config.extraction_config())
    if not vectors:
        raise InputError("extraction produced no usable windows")
    names = vectors[0].feature_names
    idx = np.asarray([v.window_index for v in vectors], dtype=np.int64)
    return np.stack([v.values for v in vectors]), names, idx


def labels_for(config: ExperimentConfig, n_windows: int) -> np.ndarray:
    return make_labels(n_windows, config.labels)


def window_count(signal: MultiChannelSignal, config: ExperimentConfig) -> int:
    """How many windows extraction cuts from the signal, skipped ones included."""
    ext = config.extraction_config()
    if ext.window_len > signal.length:
        raise InputError(f"window_len {ext.window_len} exceeds signal length {signal.length}")
    stride = ext.window_len if ext.stride is None else ext.stride
    return (signal.length - ext.window_len) // stride + 1


@dataclass
class TrainedModel:
    net: CarleNet
    forest: forest_mod.Forest | None
    scaler: Scaler
    report: TrainReport
    variant: str
    config: ExperimentConfig | None = None  # the config it was trained from

    def predict(self, X: np.ndarray, window_index=None) -> np.ndarray:
        """Normalised RUL per feature row: the forest's prediction from the
        network's logits, or the scalar head's for the forest-less 'carl',
        clamped to [0, 1] as normalised RUL is."""
        logits, rul = self.net.infer(self._sequences(X, window_index))
        if self.forest is not None:
            rul = self.forest.predict(logits)
        return np.clip(rul, 0.0, 1.0)

    def _sequences(self, X: np.ndarray, window_index=None) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.net.input_width:
            raise InputError(
                f"feature width mismatch: model expects {self.net.input_width}, got {X.shape[1]}"
            )
        bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
        if bad.size:
            raise InputError(f"non-finite feature value (NaN or inf) in row {bad[0]}")
        return build_sequences(self.scaler.transform(X), self.net.profile.seq_len, window_index)


def variant_flags(variant: str):
    """The network's (use_mha, use_residual) for ``variant``: 'crle' has no
    attention and 'cale' no residual connections."""
    if variant not in VARIANTS:
        raise ParameterError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    return variant != "crle", variant != "cale"


def build_model(config: ExperimentConfig, variant: str, input_width: int):
    """The untrained network and the forest config (None for the 'carl'
    variant) of a model; train_model fits them, load_model fills them from a
    checkpoint."""
    use_mha, use_residual = variant_flags(variant)
    profile = config.profile()
    net = CarleNet(
        input_width,
        profile,
        use_mha=use_mha,
        use_residual=use_residual,
        seed=derive_seed(config.seed, "init"),
    )
    if variant == "carl":
        return net, None
    forest_config = config.forest
    if forest_config.n_trees is None:
        forest_config = dataclasses.replace(forest_config, n_trees=profile.n_trees)
    return net, forest_config


def train_model(X, y, config: ExperimentConfig, variant: str = "carle", window_index=None) -> TrainedModel:
    """Two-phase fit: the network on (features, labels), then the forest on
    the network's logit rows (skipped for the 'carl' variant). Sequences
    follow ``window_index`` as in build_sequences."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    if len(X) != len(y):
        raise InputError(f"feature/label mismatch: {len(X)} rows vs {len(y)} labels")
    net, forest_config = build_model(config, variant, X.shape[1])

    scaler = Scaler.fit(X, clip=config.model.z_clip)
    seqs = build_sequences(scaler.transform(X), net.profile.seq_len, window_index)
    report = train(net, seqs, y, config.training, seed=derive_seed(config.seed, "train"))

    trained_forest = None
    if forest_config is not None:
        # without a validation split, training already ran the best weights
        # over seqs
        logits = report.best_logits if report.best_logits is not None else net.logits(seqs)
        trained_forest = forest_mod.fit(
            logits, y, forest_config, seed=derive_seed(config.seed, "bootstrap")
        )
    return TrainedModel(net, trained_forest, scaler, report, variant, config)


def save_model(path, model: TrainedModel, config: ExperimentConfig):
    """Save ``model``, trained from ``config``; the header stores the config
    and not the model's structure, which load_model rebuilds from it."""
    sections = {
        "nn": dict(model.net.parameters()),
        "scaler": {"mean": model.scaler.mean, "std": model.scaler.std},
    }
    if model.forest is not None:
        sections["forest"] = {name: getattr(model.forest, name) for name in forest_mod.Forest.ARRAYS}
    meta = {
        "variant": model.variant,
        "input_width": model.net.input_width,
        "config": config.to_dict(),
        "has_forest": model.forest is not None,
        "config_hash": config.config_hash(),
        "best_epoch": model.report.best_epoch,
        "diverged": model.report.diverged,
        "history": model.report.history,
    }
    save_checkpoint(path, meta, sections)


def _stored_report(meta) -> TrainReport:
    """The training report as a checkpoint header keeps it: the history, the
    best epoch and whether training diverged."""
    history = meta["history"]
    if not (
        isinstance(history, dict)
        and sorted(history) == ["loss", "lr", "mae"]
        and all(isinstance(values, list) for values in history.values())
        and len({len(values) for values in history.values()}) == 1
        and all(type(v) in (int, float) for values in history.values() for v in values)
    ):
        raise InputError("history must be three equal-length lists of numbers: loss, mae and lr")
    if type(meta["best_epoch"]) is not int:
        raise InputError(f"best_epoch must be an int, got {meta['best_epoch']!r}")
    if type(meta["diverged"]) is not bool:
        raise InputError(f"diverged must be true or false, got {meta['diverged']!r}")
    return TrainReport(history, meta["best_epoch"], diverged=meta["diverged"])


def load_model(path) -> TrainedModel:
    """The model of a checkpoint, built by build_model from the stored config
    and variant; the weights, scaler, forest and training report are checked
    before use."""
    bundle = load_checkpoint(path)
    meta, sections = bundle.meta, bundle.sections
    try:
        config = ExperimentConfig.from_dict(meta["config"])
        width, first = meta["input_width"], sections["nn"]["res_cnn.unit0.conv0.W"]
        # before build_model allocates a network that wide
        if type(width) is not int or width < 1 or np.shape(first)[1:2] != (width,):
            raise InputError(
                f"input_width must be an int >= 1 equal to the first layer's input width, got {width!r}"
            )
        net, forest_config = build_model(config, meta["variant"], width)
        net.set_weights(sections["nn"])
        scaler = Scaler(
            sections["scaler"]["mean"], sections["scaler"]["std"], config.model.z_clip
        ).validate(net.input_width)
        forest = None
        if forest_config is not None:
            arrays = {name: sections["forest"][name] for name in forest_mod.Forest.ARRAYS}
            forest = forest_mod.Forest(**arrays, n_features=net.profile.linear_units[-1]).validate()
        report = _stored_report(meta)
    except (ParameterError, InputError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    except KeyError as exc:
        raise InputError(f"{path}: unreadable checkpoint (missing {exc})") from exc
    return TrainedModel(net, forest, scaler, report, meta["variant"], config)


# ---------------------------------------------------------------------------
# Cross-domain alignment
# ---------------------------------------------------------------------------


def crossdomain_predictions(model: TrainedModel, source_X, target_X, target_index=None):
    """(aligned, unaligned) predictions of a source-trained model on target
    features, the aligned ones from target rows recoloured to the source's
    statistics by CORAL; the target's sequences follow its window index."""
    aligned = adapt_mod.coral_apply(adapt_mod.coral_fit(target_X, source_X), target_X)
    return model.predict(aligned, target_index), model.predict(target_X, target_index)


# ---------------------------------------------------------------------------
# Noise evaluation
# ---------------------------------------------------------------------------


def noise_reports(model: TrainedModel, signal: MultiChannelSignal, config: ExperimentConfig) -> dict:
    """Clean vs gaussian vs salt-and-pepper MetricReports through the full pipeline."""
    n = config.noise
    cases = {
        "clean": (None, {}),
        "gaussian": ("gaussian", {"mean": n.gaussian_mean, "std": n.gaussian_std}),
        "salt_pepper": (
            "salt_pepper",
            {"fraction": n.salt_pepper_fraction, "amplitude": n.salt_pepper_amplitude},
        ),
    }
    seed = derive_seed(config.seed, "noise")
    out = {}
    for name, (kind, params) in cases.items():
        sig = signal if kind is None else inject_noise(signal, kind, n, seed)
        X, _, idx = extract_matrix(sig, config)
        y_true = make_labels(window_count(sig, config), config.labels, idx)
        y_pred = model.predict(X, idx)
        report = MetricReport.compute(y_true, y_pred).to_dict()
        report["noise_params"] = {"kind": kind, **params}
        out[name] = report
    return out


def synth_signal(config: ExperimentConfig, rotation_hz: float | None = None, stream: str = "synth"):
    return synth_run_to_failure(
        config.synth_config(rotation_hz), derive_seed(config.seed, stream)
    )
