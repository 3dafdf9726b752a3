"""Every bound of every config section, checked by ``schema.check`` through
the library entry point that reads the section."""

import dataclasses
import math
import re
import typing

import numpy as np
import pytest

from carle import forest
from carle.errors import ParameterError
from carle.features import ExtractionConfig, extract_features
from carle.forest import ForestConfig
from carle.labels import LabelConfig, make_labels
from carle.nn import CarleNet, TrainConfig
from carle.nn.train import train
from carle.pipeline import ExperimentConfig, ModelSection
from carle.signal import MultiChannelSignal, NoiseConfig, SynthConfig, inject_noise, synth_run_to_failure

# one out-of-bound value of every bounded field, by section ("" is the top level)
OUT_OF_BOUND = {
    "": {"seed": -1, "sample_rate_hz": 0.0},
    "extraction": {
        "sigma_g": 0.0, "window_len": 3, "stride": 0, "f_o": -35.0, "n_scales": 1,
        "center_freq": 0.0,
    },
    "labels": {"scheme": "cubic", "knee_fraction": 1.5},
    "model": {"profile": "huge", "seq_len": 0, "z_clip": 0.0},
    "training": {
        "batch_size": 0, "learning_rate": 0.0, "decay": 1.0, "epsilon": -1e-8, "epochs": 0,
        "early_stop_patience": -1, "plateau_patience": -1, "plateau_factor": 1.5,
        "val_fraction": 1.0,
    },
    "forest": {"n_trees": 0, "max_features": 0, "min_samples_leaf": 0, "max_depth": -1},
    "noise": {"gaussian_std": -0.1, "salt_pepper_fraction": 1.5, "salt_pepper_amplitude": 0.0},
    "synth": {
        "rotation_hz": 0.0, "sample_rate_hz": 0.0, "duration_s": -1.0, "channel_count": 0,
        "onset_fraction": 1.0, "growth_rate": -0.5, "noise_std": -0.1, "burst_amp": -1.0,
        "burst_rate_hz": 0.0, "burst_decay_s": 0.0,
    },
}

# the numbers that take any finite value
UNBOUNDED = {"noise.gaussian_mean"}

_SEQS, _Y = np.zeros((4, CarleNet(6, "gradcheck").profile.seq_len, 6)), np.linspace(1.0, 0.0, 4)
_SIGNAL = MultiChannelSignal(np.sin(np.arange(64.0)), 1024.0)

# section -> (the prefix of its keys in messages, a call of its entry point
# with the fields of ``kw`` set)
ENTRY = {
    "": ("", lambda kw: ExperimentConfig(**kw).validate()),
    "extraction": (
        "extraction.", lambda kw: ExperimentConfig(extraction=ExtractionConfig(**kw)).validate()
    ),
    "labels": ("labels.", lambda kw: make_labels(5, LabelConfig(**kw))),
    "model": ("model.", lambda kw: ExperimentConfig(model=ModelSection(**kw)).validate()),
    "training": ("training.", lambda kw: train(CarleNet(6, "gradcheck"), _SEQS, _Y, TrainConfig(**kw))),
    "forest": (
        "forest.", lambda kw: forest.fit(_SEQS[:, 0], _Y, ForestConfig(**{"n_trees": 2, **kw}))
    ),
    "noise": ("noise.", lambda kw: inject_noise(_SIGNAL, "gaussian", NoiseConfig(**kw), seed=0)),
    "synth": ("", lambda kw: synth_run_to_failure(SynthConfig(**{"duration_s": 1.0, **kw}), 0)),
}


def _rows():
    for section, bad in OUT_OF_BOUND.items():
        for name, value in bad.items():
            values = (value,) if isinstance(value, str) else (value, math.nan, math.inf)
            for v in values:
                yield pytest.param(section, name, v, id=f"{section or 'top'}.{name}={v!r}")


@pytest.mark.parametrize("section, name, value", _rows())
def test_every_bound_checked(section, name, value):
    prefix, call = ENTRY[section]
    with pytest.raises(ParameterError, match=f"^{re.escape(prefix + name)} must be "):
        call({name: value})


@pytest.mark.parametrize(
    "name, value",
    [pytest.param(*row.values[1:], id=row.id) for row in _rows() if row.values[0] == "extraction"],
)
def test_extract_features_checks_its_section(name, value):
    # the library entry point checks the section itself, not only the CLI's
    # ExperimentConfig.validate
    with pytest.raises(ParameterError, match=f"^extraction\\.{name} must be "):
        extract_features(_SIGNAL, ExtractionConfig(**{name: value}))


def _fields(cls, prefix=""):
    """(dotted key, is a number, has a BOUNDS row) of every field of ``cls``
    and of its nested sections."""
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.type):
            yield from _fields(f.type, f"{prefix}{f.name}.")
            continue
        types = typing.get_args(f.type) or (f.type,)
        bounded = any(f.name in names for _, _, names in cls.BOUNDS)
        yield prefix + f.name, int in types or float in types, bounded


def test_no_number_escapes_the_bounds_tables():
    # a number field added without a BOUNDS row (or a row naming it wrongly)
    # would take any finite value; so would one missing from the table above
    fields = [*_fields(ExperimentConfig), *_fields(SynthConfig, "synth.")]
    assert {key for key, number, bounded in fields if number and not bounded} == UNBOUNDED
    tested = {f"{s}.{name}" if s else name for s, bad in OUT_OF_BOUND.items() for name in bad}
    assert {key for key, _, bounded in fields if bounded} == tested


def _config_classes(cls):
    """``cls`` and the classes of its nested sections."""
    yield cls
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.type):
            yield from _config_classes(f.type)


@pytest.mark.parametrize(
    "cls", [*_config_classes(ExperimentConfig), SynthConfig], ids=lambda cls: cls.__name__
)
def test_bounds_name_only_fields_of_their_class(cls):
    # check skips a name its class lacks, so a misplaced row would bound nothing
    named = {name for _, _, names in cls.BOUNDS for name in names}
    assert named - {f.name for f in dataclasses.fields(cls)} == set()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_unbounded_numbers_must_be_finite(value):
    with pytest.raises(ParameterError, match=r"^noise\.gaussian_mean must be finite, got"):
        inject_noise(_SIGNAL, "gaussian", NoiseConfig(gaussian_mean=value), seed=0)


def test_none_passes_only_where_the_annotation_allows_it():
    ExperimentConfig(extraction=ExtractionConfig(stride=None)).validate()
    with pytest.raises(ParameterError, match=r"^extraction\.window_len must be finite and >= 4, got None$"):
        ExperimentConfig(extraction=ExtractionConfig(window_len=None)).validate()
    with pytest.raises(ParameterError, match=r"^labels\.scheme must be 'linear' or 'piecewise', got None$"):
        make_labels(5, LabelConfig(scheme=None))


def test_knee_fraction_checked_under_either_scheme():
    for scheme in ("linear", "piecewise"):
        with pytest.raises(ParameterError, match=r"^labels\.knee_fraction must be finite and in \(0,1\)"):
            make_labels(5, LabelConfig(scheme, knee_fraction=1.0))
