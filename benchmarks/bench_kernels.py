"""Benchmark the CART split scan: numba JIT path versus pure-numpy fallback.

Run:  python benchmarks/bench_kernels.py
The numba path is what `carle` uses when numba imports; set
CARLE_DISABLE_NUMBA=1 to force the numpy path package-wide. The wavelet
transform has a single FFT implementation, timed by
`python3 perfbench/run.py --workload extract-long`.
"""

import time

import numpy as np

from carle import _accel


def time_call(fn, *args, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_split_scan():
    rng = np.random.default_rng(1)
    n = 20_000
    values = np.sort(rng.normal(size=n))
    targets = rng.normal(size=n)

    if _accel.backend() == "numba":
        _accel.split_scan(values, targets, 2)  # warm-up
        t_fast = time_call(_accel.split_scan, values, targets, 2)
    else:
        t_fast = None
    t_numpy = time_call(_accel._split_scan_numpy, values, targets, 2)

    print(f"CART split scan ({n} samples)")
    print(f"  numpy fallback : {t_numpy * 1e3:9.2f} ms")
    if t_fast is not None:
        print(f"  numba kernel   : {t_fast * 1e3:9.2f} ms   ({t_numpy / t_fast:5.1f}x)")
        fast = _accel.split_scan(values, targets, 2)
        slow = _accel._split_scan_numpy(values, targets, 2)
        print(f"  same split     : {fast[2] == slow[2]} (pos {fast[2]})")


if __name__ == "__main__":
    print(f"active backend: {_accel.backend()}\n")
    bench_split_scan()
