"""The rFFT temporal convolution and the one-contraction depthwise conv
against the direct-summation einsum loop.

``kernels.conv2d_*_np`` sum the cross-correlation tap by tap; they are the
oracle for the spectral path taken by ``[Cout, Cin, 1, k]`` kernels with at
least ``kernels.FFT_MIN_TAPS`` taps, and for the single contraction taken by
full-height depthwise ``[C, 1, H, 1]`` kernels.
"""

import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualtsst import kernels
from dualtsst.gradcheck import check_gradients
from dualtsst.model import DualTsstModel, ModelConfig
from dualtsst.tensor import cross_entropy

FFT_TOL = 1e-12  # max |fft - loop| / max |loop|, float64
ONE = (1, 1)


def max_rel(fast, ref):
    return float(np.max(np.abs(fast - ref)) / np.max(np.abs(ref)))


def assert_matches_oracle(rng, n, cin, h, wd, cout, k):
    assert k >= kernels.FFT_MIN_TAPS
    x = rng.normal(size=(n, cin, h, wd))
    w = rng.normal(size=(cout, cin, 1, k))
    g = rng.normal(size=(n, cout, h, wd - k + 1))
    pairs = {
        "forward": (kernels.conv2d_forward(x, w, ONE, 1),
                    kernels.conv2d_forward_np(x, w, ONE, 1)),
        "input gradient": (kernels.conv2d_backward_input(g, w, x.shape, ONE, 1),
                           kernels.conv2d_backward_input_np(g, w, x.shape, ONE, 1)),
        "kernel gradient": (kernels.conv2d_backward_kernel(g, x, w.shape, ONE, 1),
                            kernels.conv2d_backward_kernel_np(g, x, w.shape, ONE, 1)),
    }
    for name, (fast, ref) in pairs.items():
        assert fast.shape == ref.shape and fast.dtype == ref.dtype, name
        err = max_rel(fast, ref)
        assert err <= FFT_TOL, f"{name}: max relative error {err:.3e}"


@pytest.mark.parametrize("n, cin, h, wd, cout, k", [
    (1, 22, 40, 1000, 40, 125),  # bci2a branch2.view1.tc
    (1, 40, 22, 1000, 40, 125),  # bci2a branch2.view2.tc
    (2, 1, 22, 1000, 40, 30),    # bci2a branch1.tc
    (2, 62, 50, 200, 40, 125),   # seed branch2.view1.tc
    (2, 50, 62, 200, 40, 125),   # seed branch2.view2.tc
    (2, 1, 62, 200, 40, 30),     # seed branch1.tc
])
def test_fft_conv_matches_loop_at_paper_shapes(n, cin, h, wd, cout, k):
    assert_matches_oracle(np.random.default_rng(k + wd), n, cin, h, wd, cout, k)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 3), cin=st.integers(1, 4), h=st.integers(1, 4),
    cout=st.integers(1, 4), k=st.integers(kernels.FFT_MIN_TAPS, 40),
    extra=st.integers(0, 40), seed=st.integers(0, 2**16),
)
def test_fft_conv_matches_loop(n, cin, h, cout, k, extra, seed):
    assert_matches_oracle(np.random.default_rng(seed), n, cin, h, k + extra, cout, k)


def test_fft_conv_keeps_float32():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 3, 2, 64)).astype(np.float32)
    w = rng.normal(size=(4, 3, 1, 20)).astype(np.float32)
    out = kernels.conv2d_forward(x, w, ONE, 1)
    assert out.dtype == np.float32
    ref = kernels.conv2d_forward_np(x.astype(np.float64), w.astype(np.float64), ONE, 1)
    assert max_rel(out, ref) < 1e-5


def test_only_long_temporal_kernels_take_the_fft_path(monkeypatch, rng):
    """With the direct-summation functions disabled, exactly the shapes at
    or past the cutoff still compute."""
    def disabled(*args):
        raise AssertionError("direct summation called")

    for name in ("conv2d_forward_np", "conv2d_backward_input_np", "conv2d_backward_kernel_np"):
        monkeypatch.setattr(kernels, name, disabled)

    def run(w_shape, stride=ONE, groups=1):
        x = rng.normal(size=(1, 4, 3, 40))
        w = rng.normal(size=w_shape)
        out = kernels.conv2d_forward(x, w, stride, groups)
        kernels.conv2d_backward_input(np.ones_like(out), w, x.shape, stride, groups)
        kernels.conv2d_backward_kernel(np.ones_like(out), x, w.shape, stride, groups)

    k = kernels.FFT_MIN_TAPS
    run((2, 4, 1, k))
    for w_shape, stride, groups in [((2, 4, 1, k - 1), ONE, 1),   # too few taps
                                    ((2, 4, 2, k), ONE, 1),       # not 1 x k
                                    ((4, 1, 1, k), ONE, 4),       # grouped
                                    ((2, 4, 1, k), (1, 2), 1)]:   # strided
        with pytest.raises(AssertionError, match="direct summation"):
            run(w_shape, stride, groups)


def test_gradcheck_through_fft_time_convs():
    """The mini preset's 7/9-tap time convs never reach the rFFT path, so
    gradcheck a small model whose time kernels do."""
    cfg = ModelConfig(n_channels=3, n_times=40, n_freqs=2, n_classes=2,
                      branch_channels=2, embed_dim=4,
                      time_kernel_raw=kernels.FFT_MIN_TAPS, time_kernel_tfr=21,
                      pool_raw=8, pool_raw_stride=4, pool_tfr=8, pool_tfr_stride=4,
                      encoder_layers=1, encoder_heads=2, classifier_hidden=4)
    rng = np.random.default_rng(5)
    model = DualTsstModel(cfg, rng=rng)
    eeg = rng.normal(size=(2, cfg.n_channels, cfg.n_times))
    tfr = rng.normal(size=(2, cfg.n_channels, cfg.n_freqs, cfg.n_times))
    labels = np.array([0, 1])
    result = check_gradients(
        lambda: cross_entropy(model.forward(eeg, tfr, train=True), labels), model.params)
    assert result.ok(1e-3), f"{result.worst_param}: {result.max_rel_error:.3e}"


# ---------------------------------------------------------------------------
# trial-parallel rFFT
# ---------------------------------------------------------------------------


def fft_passes(rng, n):
    x = rng.normal(size=(n, 3, 2, 50))
    w = rng.normal(size=(4, 3, 1, 20))
    g = rng.normal(size=(n, 4, 2, 31))
    return (kernels.conv2d_forward(x, w, ONE, 1),
            kernels.conv2d_backward_input(g, w, x.shape, ONE, 1),
            kernels.conv2d_backward_kernel(g, x, w.shape, ONE, 1))


@pytest.mark.parametrize("n", [1, 3, 4])
def test_trial_parallel_fft_equals_serial_loop(monkeypatch, n):
    threaded = fft_passes(np.random.default_rng(n), n)
    again = fft_passes(np.random.default_rng(n), n)
    monkeypatch.setattr(kernels, "_per_trial", lambda fn, n: [fn(b) for b in range(n)])
    serial = fft_passes(np.random.default_rng(n), n)
    for name, a, b, c in zip(("forward", "input gradient", "kernel gradient"),
                             threaded, again, serial):
        assert np.array_equal(a, b), f"{name}: repeated calls differ"
        assert np.array_equal(a, c), f"{name}: threads differ from the serial loop"


def _fft_passes_of(n):
    return fft_passes(np.random.default_rng(n), n)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_trial_parallel_fft_runs_in_a_forked_child():
    """A forked child inherits the pool object but not its threads."""
    want = _fft_passes_of(4)  # the pool now exists in this process
    with multiprocessing.get_context("fork").Pool(1) as pool:
        got = pool.apply_async(_fft_passes_of, (4,)).get(timeout=60)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_fork_while_the_pool_lock_is_held_does_not_deadlock_the_child():
    want = _fft_passes_of(4)
    with kernels._pool_lock:  # as if another thread were creating the pool
        pool = multiprocessing.get_context("fork").Pool(1)
    with pool:
        got = pool.apply_async(_fft_passes_of, (4,)).get(timeout=60)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


# ---------------------------------------------------------------------------
# depthwise conv over the full height
# ---------------------------------------------------------------------------


def assert_depthwise_matches_oracle(rng, n, c, h, wd, dtype=np.float64, tol=FFT_TOL):
    x = rng.normal(size=(n, c, h, wd)).astype(dtype)
    w = rng.normal(size=(c, 1, h, 1)).astype(dtype)
    g = rng.normal(size=(n, c, 1, wd)).astype(dtype)
    x64, w64, g64 = (a.astype(np.float64) for a in (x, w, g))
    pairs = {
        "forward": (kernels.conv2d_forward(x, w, ONE, c),
                    kernels.conv2d_forward_np(x64, w64, ONE, c)),
        "input gradient": (kernels.conv2d_backward_input(g, w, x.shape, ONE, c),
                           kernels.conv2d_backward_input_np(g64, w64, x.shape, ONE, c)),
        "kernel gradient": (kernels.conv2d_backward_kernel(g, x, w.shape, ONE, c),
                            kernels.conv2d_backward_kernel_np(g64, x64, w.shape, ONE, c)),
    }
    for name, (fast, ref) in pairs.items():
        assert fast.shape == ref.shape and fast.dtype == dtype, name
        err = max_rel(fast, ref)
        assert err <= tol, f"{name}: max relative error {err:.3e}"


@pytest.mark.parametrize("n, c, h, wd", [
    (2, 40, 22, 971),  # bci2a branch1.sc
    (2, 40, 40, 876),  # bci2a branch2.view1.sc
    (2, 40, 22, 876),  # bci2a branch2.view2.sc
    (2, 40, 62, 171),  # seed branch1.sc
    (2, 40, 50, 76),   # seed branch2.view1.sc
    (2, 40, 62, 76),   # seed branch2.view2.sc
    (8, 3, 4, 58),     # mini branch1.sc
    (8, 3, 6, 56),     # mini branch2.view1.sc
    (8, 3, 4, 56),     # mini branch2.view2.sc
])
def test_depthwise_conv_matches_loop_at_model_shapes(n, c, h, wd):
    assert_depthwise_matches_oracle(np.random.default_rng(c + h + wd), n, c, h, wd)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 4), c=st.integers(1, 6), h=st.integers(1, 8),
       wd=st.integers(1, 40), seed=st.integers(0, 2**16))
def test_depthwise_conv_matches_loop(n, c, h, wd, seed):
    assert_depthwise_matches_oracle(np.random.default_rng(seed), n, c, h, wd)


def test_depthwise_conv_keeps_float32():
    assert_depthwise_matches_oracle(np.random.default_rng(4), 2, 5, 6, 30,
                                    dtype=np.float32, tol=1e-5)


def test_only_full_height_depthwise_kernels_skip_the_loop(monkeypatch, rng):
    """With the direct-summation functions disabled, exactly the full-height
    depthwise shapes still compute."""
    def disabled(*args):
        raise AssertionError("direct summation called")

    for name in ("conv2d_forward_np", "conv2d_backward_input_np", "conv2d_backward_kernel_np"):
        monkeypatch.setattr(kernels, name, disabled)

    def run(w_shape, stride=ONE, groups=4):
        x = rng.normal(size=(2, 4, 3, 10))
        w = rng.normal(size=w_shape)
        out = kernels.conv2d_forward(x, w, stride, groups)
        kernels.conv2d_backward_input(np.ones_like(out), w, x.shape, stride, groups)
        kernels.conv2d_backward_kernel(np.ones_like(out), x, w.shape, stride, groups)

    run((4, 1, 3, 1))
    for w_shape, stride, groups in [((4, 1, 2, 1), ONE, 4),      # partial height
                                    ((4, 1, 3, 1), (1, 2), 4),   # strided
                                    ((4, 1, 3, 1), (2, 1), 4),   # strided
                                    ((4, 2, 3, 1), ONE, 2),      # 2 channels per group
                                    ((8, 1, 3, 1), ONE, 4),      # channel multiplier 2
                                    ((4, 1, 3, 2), ONE, 4)]:     # 3 x 2 kernel
        with pytest.raises(AssertionError, match="direct summation"):
            run(w_shape, stride, groups)


def test_gradcheck_through_depthwise_convs():
    """Every branch's spatial/spectral conv takes the depthwise path."""
    cfg = ModelConfig(n_channels=3, n_times=24, n_freqs=4, n_classes=2,
                      branch_channels=3, embed_dim=4, time_kernel_raw=5, time_kernel_tfr=5,
                      pool_raw=6, pool_raw_stride=3, pool_tfr=6, pool_tfr_stride=3,
                      encoder_layers=1, encoder_heads=2, classifier_hidden=4)
    rng = np.random.default_rng(6)
    model = DualTsstModel(cfg, rng=rng)
    eeg = rng.normal(size=(3, cfg.n_channels, cfg.n_times))
    tfr = rng.normal(size=(3, cfg.n_channels, cfg.n_freqs, cfg.n_times))
    labels = np.array([0, 1, 1])
    result = check_gradients(
        lambda: cross_entropy(model.forward(eeg, tfr, train=True), labels), model.params)
    assert result.ok(1e-3), f"{result.worst_param}: {result.max_rel_error:.3e}"
