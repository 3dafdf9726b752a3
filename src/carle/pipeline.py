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
from .features import ExtractionConfig, extract_features, feature_matrix
from .labels import LabelConfig, make_labels
from .metrics import MetricReport
from .nn.model import CarleNet, get_profile
from .nn.train import TrainConfig, train
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
# synth_config() resolves into a signal.SynthConfig). The model and adapt
# sections are read here, by build_model and align_features.
# ---------------------------------------------------------------------------


@dataclass
class ModelSection:
    profile: str = "toy"
    use_mha: bool = True
    use_residual: bool = True
    cross_block_residual: bool = False
    seq_len: int | None = None  # None -> profile default
    standardize: bool = True
    z_clip: float = 6.0

    def validate(self):
        get_profile(self.profile)
        if self.seq_len is not None and self.seq_len < 1:
            raise ParameterError(f"model.seq_len must be >= 1, got {self.seq_len}")
        if self.z_clip <= 0:
            raise ParameterError(f"model.z_clip must be positive, got {self.z_clip}")


@dataclass
class AdaptSection:
    pca_components: int | None = None  # None -> full feature width
    ridge: float = 1e-8
    space: str = "feature"  # or "logit"

    def validate(self):
        if self.pca_components is not None and self.pca_components < 1:
            raise ParameterError(f"adapt.pca_components must be >= 1, got {self.pca_components}")
        if self.ridge < 0:
            raise ParameterError(f"adapt.ridge must be >= 0, got {self.ridge}")
        if self.space not in ("feature", "logit"):
            raise ParameterError(f"adapt.space must be 'feature' or 'logit', got {self.space!r}")


@dataclass
class ExperimentConfig:
    seed: int = 0
    sample_rate_hz: float = 1024.0
    snr_cap_db: float = 120.0
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    labels: LabelConfig = field(default_factory=LabelConfig)
    model: ModelSection = field(default_factory=ModelSection)
    training: TrainConfig = field(default_factory=TrainConfig)
    forest: forest_mod.ForestConfig = field(default_factory=forest_mod.ForestConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    synth: SynthProfile = field(default_factory=SynthProfile)
    adapt: AdaptSection = field(default_factory=AdaptSection)

    def validate(self) -> "ExperimentConfig":
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.sample_rate_hz <= 0:
            raise ParameterError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        for f in dataclasses.fields(self):
            if dataclasses.is_dataclass(f.type):
                getattr(self, f.name).validate()
        return self

    @classmethod
    def from_dict(cls, doc: dict, base: "ExperimentConfig | None" = None) -> "ExperimentConfig":
        """A config from a nested JSON object; keys it leaves out keep their
        value in ``base`` (default: the defaults)."""
        return schema.read(cls, doc, base).validate()

    @classmethod
    def from_file(cls, path, base: "ExperimentConfig | None" = None) -> "ExperimentConfig":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}: invalid JSON config: {exc}") from exc
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


def build_sequences(features: np.ndarray, seq_len: int) -> np.ndarray:
    """Trailing window of seq_len feature rows per labelled window.

    The left edge clamps to the first row, so every window keeps exactly one
    sequence (and later one logit row).
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    idx = np.arange(len(features))[:, None] - np.arange(seq_len - 1, -1, -1)[None, :]
    return features[np.clip(idx, 0, None)]


def extract_matrix(signal: MultiChannelSignal, config: ExperimentConfig):
    """Run extraction and return (matrix, names, window_index)."""
    vectors = extract_features(signal, config.extraction_config())
    if not vectors:
        raise InputError("extraction produced no usable windows")
    names = vectors[0].feature_names
    idx = np.asarray([v.window_index for v in vectors], dtype=np.int64)
    return feature_matrix(vectors), names, idx


def labels_for(config: ExperimentConfig, n_windows: int) -> np.ndarray:
    return make_labels(n_windows, config.labels)


@dataclass
class TrainedModel:
    net: CarleNet
    forest: forest_mod.Forest | None
    scaler: Scaler | None
    report: object
    variant: str
    config: ExperimentConfig | None = None  # the config it was trained from

    def predict(self, X: np.ndarray) -> np.ndarray:
        seqs = self._sequences(X)
        logits, scalar = self.net.forward(seqs)
        if self.forest is not None:
            return self.forest.predict(logits)
        # forest-less variant consumes the scalar head; labels are normalised
        return np.clip(scalar, 0.0, 1.0)

    def logits(self, X: np.ndarray) -> np.ndarray:
        return self.net.logits(self._sequences(X))

    def _sequences(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.net.input_width:
            raise InputError(
                f"feature width mismatch: model expects {self.net.input_width}, got {X.shape[1]}"
            )
        bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
        if bad.size:
            raise InputError(f"non-finite feature value (NaN or inf) in row {bad[0]}")
        if self.scaler is not None:
            X = self.scaler.transform(X)
        return build_sequences(X, self.net.profile.seq_len)


def variant_flags(variant: str, config: ExperimentConfig):
    if variant not in VARIANTS:
        raise ParameterError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    use_mha = config.model.use_mha and variant != "crle"
    use_residual = config.model.use_residual and variant != "cale"
    return use_mha, use_residual


def build_model(config: ExperimentConfig, variant: str, input_width: int):
    """The untrained network and the forest config (None for the 'carl'
    variant) of a model; train_model fits them, load_model fills them from a
    checkpoint."""
    use_mha, use_residual = variant_flags(variant, config)
    profile = config.profile()
    net = CarleNet(
        input_width,
        profile,
        use_mha=use_mha,
        use_residual=use_residual,
        cross_block_residual=config.model.cross_block_residual,
        seed=derive_seed(config.seed, "init"),
    )
    if variant == "carl":
        return net, None
    forest_config = config.forest
    if forest_config.n_trees is None:
        forest_config = dataclasses.replace(forest_config, n_trees=profile.n_trees)
    return net, forest_config


def train_model(X, y, config: ExperimentConfig, variant: str = "carle") -> TrainedModel:
    """Two-phase fit: the network on (features, labels), then the forest on
    the network's logit rows (skipped for the 'carl' variant)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    if len(X) != len(y):
        raise InputError(f"feature/label mismatch: {len(X)} rows vs {len(y)} labels")
    net, forest_config = build_model(config, variant, X.shape[1])

    scaler = Scaler.fit(X, clip=config.model.z_clip) if config.model.standardize else None
    Xs = scaler.transform(X) if scaler is not None else X
    seqs = build_sequences(Xs, net.profile.seq_len)
    report = train(net, seqs, y, config.training, seed=derive_seed(config.seed, "train"))

    trained_forest = None
    if forest_config is not None:
        trained_forest = forest_mod.fit(
            net.logits(seqs), y, forest_config, seed=derive_seed(config.seed, "bootstrap")
        )
    return TrainedModel(net, trained_forest, scaler, report, variant, config)


def save_model(path, model: TrainedModel, config: ExperimentConfig):
    """Save ``model``, trained from ``config``; the header stores the config
    and not the model's structure, which load_model rebuilds from it."""
    sections = {"nn": dict(model.net.parameters())}
    if model.scaler is not None:
        sections["scaler"] = {"mean": model.scaler.mean, "std": model.scaler.std}
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


def load_model(path) -> TrainedModel:
    """The model of a checkpoint, built by build_model from the stored config
    and variant; the weights, scaler and forest are checked before use."""
    bundle = load_checkpoint(path)
    meta, sections = bundle.meta, bundle.sections
    try:
        config = ExperimentConfig.from_dict(meta["config"])
        net, forest_config = build_model(config, meta["variant"], meta["input_width"])
        net.set_weights(sections["nn"])
        scaler = None
        if config.model.standardize:
            scaler = Scaler(
                sections["scaler"]["mean"], sections["scaler"]["std"], config.model.z_clip
            ).validate(net.input_width)
        forest = None
        if forest_config is not None:
            arrays = {name: sections["forest"][name] for name in forest_mod.Forest.ARRAYS}
            forest = forest_mod.Forest(
                **arrays, n_features=net.profile.linear_units[-1], config=forest_config
            ).validate()
            forest.config = dataclasses.replace(forest_config, n_trees=len(forest.offsets) - 1)
    except (ParameterError, InputError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    except KeyError as exc:
        raise InputError(f"{path}: unreadable checkpoint (missing {exc})") from exc
    return TrainedModel(net, forest, scaler, None, meta["variant"], config)


# ---------------------------------------------------------------------------
# Cross-domain alignment
# ---------------------------------------------------------------------------


def align_features(source_X, target_X, config: ExperimentConfig) -> np.ndarray:
    """Recolour target rows to the source's statistics in PCA space, then
    map back to feature space so a source-trained model can consume them."""
    source_X = np.atleast_2d(np.asarray(source_X, dtype=np.float64))
    target_X = np.atleast_2d(np.asarray(target_X, dtype=np.float64))
    d = source_X.shape[1]
    k = config.adapt.pca_components
    k = min(k, d, len(source_X) - 1) if k is not None else min(d, len(source_X) - 1)
    pca = adapt_mod.pca_fit(source_X, k)
    z_source = adapt_mod.pca_transform(pca, source_X)
    z_target = adapt_mod.pca_transform(pca, target_X)
    coral = adapt_mod.coral_fit(z_target, z_source, ridge=config.adapt.ridge)
    return adapt_mod.pca_inverse(pca, adapt_mod.coral_apply(coral, z_target))


def crossdomain_predictions(model: TrainedModel, source_X, target_X, config: ExperimentConfig):
    """(aligned, unaligned) predictions of a source-trained model on target features."""
    if config.adapt.space == "logit":
        if model.forest is None:
            raise InputError("logit-space alignment needs a forest-bearing checkpoint")
        logits = align_features(model.logits(source_X), model.logits(target_X), config)
        aligned = model.forest.predict(logits)
    else:
        aligned = model.predict(align_features(source_X, target_X, config))
    return aligned, model.predict(target_X)


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
        X, _, _ = extract_matrix(sig, config)
        y_true = labels_for(config, len(X))
        y_pred = model.predict(X)
        report = MetricReport.compute(y_true, y_pred).to_dict()
        report["noise_params"] = {"kind": kind, **params}
        out[name] = report
    return out


def synth_signal(config: ExperimentConfig, rotation_hz: float | None = None, stream: str = "synth"):
    return synth_run_to_failure(
        config.synth_config(rotation_hz), derive_seed(config.seed, stream)
    )
