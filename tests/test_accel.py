import json
import os
import subprocess
import sys

import numpy as np

from carle import _accel

AGREEMENT_SNIPPET = """
import json
import numpy as np
from carle import _accel

rng = np.random.default_rng(7)
v = rng.normal(size=50)
order = np.argsort(v)
t = rng.normal(size=50)
split = _accel.split_scan(v[order], t[order], 2)
print(json.dumps({
    "backend": _accel.backend(),
    "flag_read": _accel._numba_disabled(),
    "split": [float(split[0]), float(split[1]), int(split[2])],
}))
"""


def _child_env(disable: bool) -> dict:
    env = dict(os.environ)
    if disable:
        env["CARLE_DISABLE_NUMBA"] = "1"
    else:
        env.pop("CARLE_DISABLE_NUMBA", None)
    return env


def _run_with_env(disable: bool) -> dict:
    env = _child_env(disable)
    proc = subprocess.run(
        [sys.executable, "-c", AGREEMENT_SNIPPET], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _numba_imports() -> bool:
    # tried in a child, not found by find_spec: a numba that is present but
    # fails to import must also take the numpy fallback
    proc = subprocess.run(
        [sys.executable, "-c", "import numba"],
        capture_output=True,
        env=_child_env(disable=False),
    )
    return proc.returncode == 0


def test_env_flag_selects_backend():
    numpy_run = _run_with_env(disable=True)
    assert numpy_run["flag_read"] is True
    assert numpy_run["backend"] == "numpy"
    default_run = _run_with_env(disable=False)
    assert default_run["flag_read"] is False
    assert default_run["backend"] == ("numba" if _numba_imports() else "numpy")


def test_backends_agree_numerically():
    """Both runs are numpy where numba does not import; only where it does
    does this compare the numba split scan with the numpy one. The wavelet
    transform has one numpy path whatever the backend, so it is not compared."""
    numba_run = _run_with_env(disable=False)
    numpy_run = _run_with_env(disable=True)
    # split decisions must agree exactly in position and threshold
    assert numba_run["split"][2] == numpy_run["split"][2]
    assert numba_run["split"][1] == numpy_run["split"][1]
    assert abs(numba_run["split"][0] - numpy_run["split"][0]) < 1e-9


def test_split_scan_respects_min_leaf(rng):
    v = np.sort(rng.normal(size=20))
    t = rng.normal(size=20)
    _, _, pos = _accel.split_scan(v, t, 8)
    assert pos < 0 or 8 <= pos <= 12


def test_split_scan_no_split_on_constant_feature(rng):
    v = np.ones(10)
    t = rng.normal(size=10)
    sse, _, pos = _accel.split_scan(v, t, 1)
    assert pos == -1
    assert sse == np.inf


def test_cwt_kernel_truncation_harmless(rng):
    # widening the envelope cutoff must not change coefficients measurably
    x = rng.normal(size=128)
    scales = np.array([2.0, 5.0])
    base = _accel.cwt_scalogram(x, scales, 5.09, 1e-3)
    # reference with an explicitly huge support via the numpy path
    out = np.empty_like(base)
    for i, a in enumerate(scales):
        half = 4 * 128  # effectively untruncated
        tau = np.arange(-half, half + 1) / a
        kernel = np.exp(-0.5 * tau * tau) * np.exp(-1j * 5.09 * tau)
        full = np.convolve(x, kernel[::-1])
        out[i] = full[half:half + 128] * (1e-3 / np.sqrt(a))
    assert np.allclose(base, out, rtol=1e-7, atol=1e-12)
