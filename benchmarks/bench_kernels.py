"""Time the convolution/pooling kernels per backend.

Covers the convolution/pooling geometries the model actually runs: the
raw-EEG branch and the (much heavier) time-frequency branch at full scale,
plus a desk-scale training step.  Usage:

    python benchmarks/bench_kernels.py [--repeat 3]

The active default backend comes from DUALTSST_NUMBA; this script switches
explicitly and reports both.  Temporal convolutions with at least
``kernels.FFT_MIN_TAPS`` taps run by rFFT, and full-height depthwise
convolutions by one contraction, under either backend; for those the ``loop``
row also times the numpy direct summation they replace.  The rFFT runs two
trials of a batch at a time (``kernels.TRIALS_IN_FLIGHT``), which the 4-trial
case shows.
"""

import argparse
import time

import numpy as np

from dualtsst import kernels


def timeit(fn, repeat):
    fn()  # warmup (numba compilation, caches)
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


CASES = [
    # name, input shape, kernel shape, stride, groups
    ("raw-branch time conv", (1, 1, 22, 1000), (40, 1, 1, 30), (1, 1), 1),
    ("raw-branch spatial conv", (1, 40, 22, 971), (40, 1, 22, 1), (1, 1), 40),
    ("tfr-branch time conv", (1, 22, 40, 1000), (40, 22, 1, 125), (1, 1), 1),
    ("tfr-branch time conv x4", (4, 22, 40, 1000), (40, 22, 1, 125), (1, 1), 1),
    ("mini batch time conv", (64, 1, 4, 64), (3, 1, 1, 7), (1, 1), 1),
]


def bench_conv(repeat):
    rng = np.random.default_rng(0)
    rows = []
    for name, xs, ws, stride, groups in CASES:
        x = rng.normal(size=xs)
        w = rng.normal(size=ws)
        out = kernels.conv2d_forward(x, w, stride, groups)
        gout = rng.normal(size=out.shape)
        per_backend = {}
        for backend in ("numpy", "numba") if kernels.numba_available() else ("numpy",):
            kernels.set_backend(backend)
            fwd = timeit(lambda: kernels.conv2d_forward(x, w, stride, groups), repeat)
            bwd_x = timeit(
                lambda: kernels.conv2d_backward_input(gout, w, x.shape, stride, groups),
                repeat)
            bwd_w = timeit(
                lambda: kernels.conv2d_backward_kernel(gout, x, w.shape, stride, groups),
                repeat)
            per_backend[backend] = (fwd, bwd_x, bwd_w)
        if kernels._uses_fft(ws, stride, groups) or kernels._uses_depthwise(ws, xs, stride,
                                                                            groups):
            per_backend["loop"] = (
                timeit(lambda: kernels.conv2d_forward_np(x, w, stride, groups), repeat),
                timeit(lambda: kernels.conv2d_backward_input_np(gout, w, x.shape, stride,
                                                                groups), repeat),
                timeit(lambda: kernels.conv2d_backward_kernel_np(gout, x, w.shape, stride,
                                                                 groups), repeat))
        rows.append((name, per_backend))
    return rows


def bench_pool(repeat):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 40, 1, 971))
    gout = rng.normal(size=(1, 40, 1, 71))
    per_backend = {}
    for backend in ("numpy", "numba") if kernels.numba_available() else ("numpy",):
        kernels.set_backend(backend)
        fwd = timeit(lambda: kernels.avgpool_forward(x, 120, 12), repeat)
        bwd = timeit(lambda: kernels.avgpool_backward(gout, 120, 12, 971), repeat)
        per_backend[backend] = (fwd, bwd, 0.0)
    return [("raw-branch avg pool", per_backend)]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    if not kernels.numba_available():
        print("numba not importable; timing the numpy path only\n")

    print(f"{'case':28s} {'path':6s} {'fwd':>10s} {'bwd_in':>10s} {'bwd_w':>10s}")
    rows = bench_conv(args.repeat) + bench_pool(args.repeat)
    for name, per_backend in rows:
        for backend, (fwd, bwd_x, bwd_w) in per_backend.items():
            print(f"{name:28s} {backend:6s} {fwd*1e3:9.2f}ms {bwd_x*1e3:9.2f}ms "
                  f"{bwd_w*1e3:9.2f}ms")
        if "numba" in per_backend:
            speedup = per_backend["numpy"][0] / max(per_backend["numba"][0], 1e-12)
            print(f"{'':28s} numba fwd speedup {speedup:5.2f}x")
        if "loop" in per_backend:
            speedup = sum(per_backend["loop"]) / max(sum(per_backend["numpy"]), 1e-12)
            print(f"{'':28s} fwd+bwd speedup over the loop {speedup:5.1f}x")
    kernels.set_backend("auto")


if __name__ == "__main__":
    main()
