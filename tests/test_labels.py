import numpy as np
import pytest

from carle.errors import ParameterError
from carle.labels import LabelConfig, make_labels


def test_linear_five_windows():
    labels = make_labels(5, LabelConfig("linear"))
    assert np.array_equal(labels, [1.0, 0.75, 0.5, 0.25, 0.0])


def test_piecewise_knee_half():
    labels = make_labels(5, LabelConfig("piecewise", knee_fraction=0.5))
    assert np.allclose(labels, [1.0, 1.0, 1.0, 0.5, 0.0], rtol=0, atol=1e-12)


def test_piecewise_small_knee_converges_to_linear():
    lin = make_labels(20, LabelConfig("linear"))
    pw = make_labels(20, LabelConfig("piecewise", knee_fraction=1e-9))
    assert np.allclose(pw, lin, atol=1e-7)


def test_endpoints_and_monotone():
    for scheme, knee in (("linear", 0.6), ("piecewise", 0.3), ("piecewise", 0.8)):
        for n in (2, 3, 10, 101):
            vals = make_labels(n, LabelConfig(scheme, knee))
            assert vals[0] == 1.0
            assert vals[-1] == 0.0
            assert np.all(np.diff(vals) <= 0)


def test_linear_constant_first_differences():
    vals = make_labels(37, LabelConfig("linear"))
    d = np.diff(vals)
    assert np.all(np.abs(d - d[0]) < 1e-12)


def test_piecewise_holds_one_until_knee():
    vals = make_labels(11, LabelConfig("piecewise", knee_fraction=0.4))
    assert np.all(vals[:5] == 1.0)  # knee at index 4.0
    assert vals[5] < 1.0


def test_validation():
    with pytest.raises(ParameterError):
        make_labels(1, LabelConfig("linear"))
    with pytest.raises(ParameterError):
        make_labels(5, LabelConfig("piecewise", knee_fraction=0.0))
    with pytest.raises(ParameterError):
        make_labels(5, LabelConfig("piecewise", knee_fraction=1.0))
    with pytest.raises(ParameterError):
        make_labels(5, LabelConfig("cubic"))


@pytest.mark.parametrize("config", [LabelConfig("linear"), LabelConfig("piecewise", 0.3)])
def test_window_index_takes_the_full_run_labels(config):
    idx = np.array([0, 3, 4, 9, 19])
    assert np.array_equal(make_labels(20, config, idx), make_labels(20, config)[idx])
    assert make_labels(10**15, config, [0])[0] == 1.0
