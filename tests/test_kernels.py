"""The rFFT temporal convolution against the direct-summation einsum loop.

``kernels.conv2d_*_np`` sum the cross-correlation tap by tap; they are the
oracle for the spectral path taken by ``[Cout, Cin, 1, k]`` kernels with at
least ``kernels.FFT_MIN_TAPS`` taps.
"""

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
    monkeypatch.setattr(kernels, "_backend", "numpy")

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
