"""The model's three convolution shapes and their paths, against a
generic direct-summation convolution.

``conv_oracle.conv2d_*_np`` sum any grouped, strided cross-correlation one
kernel position at a time.  They are the oracle for the one-einsum path of
pointwise ``[Cout, Cin, 1, 1]`` kernels, the rFFT path of time convs
``[Cout, Cin, 1, k >= 2]`` and the one-contraction path of full-height
depthwise ``[C, 1, H, 1]`` kernels.
"""

import gc
import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualtsst import dataio, kernels
from dualtsst import tensor as T
from dualtsst.gradcheck import check_gradients
from dualtsst.model import DualTsstModel, ModelConfig, config_from_preset
from dualtsst.tensor import cross_entropy

from conv_oracle import conv2d_backward_input_np, conv2d_backward_kernel_np, conv2d_forward_np

FFT_TOL = 1e-12  # max |fft - loop| / max |loop|, float64
ONE = (1, 1)


def max_rel(fast, ref):
    return float(np.max(np.abs(fast - ref)) / np.max(np.abs(ref)))


def random_input(rng, n, cin, h, wd, transposed=False, dtype=np.float64):
    """An [n, cin, h, wd] input; a ``transposed`` one is a transposed view, as
    branch 2's view 2 is."""
    if transposed:
        return rng.normal(size=(n, h, cin, wd)).astype(dtype).transpose(0, 2, 1, 3)
    return rng.normal(size=(n, cin, h, wd)).astype(dtype)


def assert_matches_oracle(rng, n, cin, h, wd, cout, k, transposed=False, dtype=np.float64,
                          tol=FFT_TOL):
    assert k >= 2
    x = random_input(rng, n, cin, h, wd, transposed, dtype)
    w = rng.normal(size=(cout, cin, 1, k)).astype(dtype)
    g = rng.normal(size=(n, cout, h, wd - k + 1)).astype(dtype)
    pairs = {
        "forward": (kernels.conv2d_forward(x, w, ONE), conv2d_forward_np(x, w, ONE, 1)),
        "input gradient": (kernels.conv2d_backward_input(g, w, x.shape),
                           conv2d_backward_input_np(g, w, x.shape, ONE, 1)),
        "kernel gradient": (kernels.conv2d_backward_kernel(g, x, w.shape),
                            conv2d_backward_kernel_np(g, x, w.shape, ONE, 1)),
    }
    for name, (fast, ref) in pairs.items():
        assert fast.shape == ref.shape and fast.dtype == ref.dtype == dtype, name
        err = max_rel(fast, ref)
        assert err <= tol, f"{name}: max relative error {err:.3e}"


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


@pytest.mark.parametrize("dtype, tol", [(np.float64, FFT_TOL), (np.float32, 1e-5)],
                         ids=["float64", "float32"])
@pytest.mark.parametrize("n, cin, h, wd, cout, k, transposed", [
    (8, 1, 4, 64, 3, 7, False),  # mini branch1.tc
    (8, 4, 6, 64, 3, 9, False),  # mini branch2.view1.tc
    (8, 6, 4, 64, 3, 9, True),   # mini branch2.view2.tc, a transposed view
])
def test_fft_conv_matches_loop_at_mini_shapes(n, cin, h, wd, cout, k, transposed, dtype, tol):
    assert_matches_oracle(np.random.default_rng(k + wd), n, cin, h, wd, cout, k, transposed,
                          dtype, tol)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 3), cin=st.integers(1, 4), h=st.integers(1, 4),
    cout=st.integers(1, 4), k=st.integers(2, 40),
    extra=st.integers(0, 40), seed=st.integers(0, 2**16),
)
def test_fft_conv_matches_loop(n, cin, h, cout, k, extra, seed):
    assert_matches_oracle(np.random.default_rng(seed), n, cin, h, k + extra, cout, k)


def test_fft_conv_keeps_float32():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 3, 2, 64)).astype(np.float32)
    w = rng.normal(size=(4, 3, 1, 20)).astype(np.float32)
    out = kernels.conv2d_forward(x, w, ONE)
    assert out.dtype == np.float32
    ref = conv2d_forward_np(x.astype(np.float64), w.astype(np.float64), ONE, 1)
    assert max_rel(out, ref) < 1e-5


# ---------------------------------------------------------------------------
# the shape rule
# ---------------------------------------------------------------------------


@pytest.fixture
def computed(monkeypatch):
    """Records ``"rfft"`` for every rFFT and the subscripts of every einsum
    that the kernels compute, in call order."""
    seen = []
    spectrum, einsum = kernels._spectrum, np.einsum

    def spy_spectrum(a, n):
        seen.append("rfft")
        return spectrum(a, n)

    def spy_einsum(subscripts, *operands, **kwargs):
        seen.append(subscripts)
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(kernels, "_spectrum", spy_spectrum)
    monkeypatch.setattr(np, "einsum", spy_einsum)
    return seen


def passes(computed, x, w):
    """What the forward, input-gradient and kernel-gradient calls compute."""
    g = np.ones_like(kernels.conv2d_forward(x, w, ONE))
    taken = []
    for run in (lambda: kernels.conv2d_forward(x, w, ONE),
                lambda: kernels.conv2d_backward_input(g, w, x.shape),
                lambda: kernels.conv2d_backward_kernel(g, x, w.shape)):
        computed.clear()
        run()
        taken.append(list(computed))
    return taken


def assert_rejected(x, w):
    """Every kernels entry point and ``tensor.conv2d`` refuse ``w`` over ``x``."""
    g = np.ones((x.shape[0], w.shape[0], 1, x.shape[3]))
    for run in (lambda: kernels.conv2d_forward(x, w, ONE),
                lambda: kernels.conv2d_backward_input(g, w, x.shape),
                lambda: kernels.conv2d_backward_kernel(g, x, w.shape),
                lambda: T.conv2d(x, w)):
        with pytest.raises(ValueError, match="neither a time conv"):
            run()


def test_time_convs_take_the_fft_path_and_pointwise_convs_one_einsum(computed, rng):
    """Time convs of every length from 2 taps run by rFFT only, pointwise
    convs as one einsum per pass; any other shape or stride raises."""
    x = rng.normal(size=(2, 4, 3, 40))
    k = 16
    for taps in (2, 7, 9, k, 40):
        taken = passes(computed, x, rng.normal(size=(2, 4, 1, taps)))
        assert all(t and set(t) == {"rfft"} for t in taken), taken
    assert passes(computed, x, rng.normal(size=(2, 4, 1, 1))) == [
        ["nchw,oc->nohw"], ["nohw,oc->nchw"], ["nchw,nohw->oc"]]
    for w_shape in [(2, 4, 2, k),   # two rows
                    (2, 4, 3, 5),   # 2-D
                    (2, 3, 1, k),   # a channel short
                    (4, 1, 1, k),   # grouped, one channel per group
                    (2, 4, 1, 41)]:  # wider than the input
        assert_rejected(x, rng.normal(size=w_shape))
    for stride in [(1, 2), (2, 1)]:
        with pytest.raises(ValueError, match="stride"):
            kernels.conv2d_forward(x, rng.normal(size=(2, 4, 1, k)), stride)


def test_gradcheck_through_fft_time_convs():
    """Gradcheck a small model whose time kernels are longer than mini's."""
    cfg = ModelConfig(n_channels=3, n_times=40, n_freqs=2, n_classes=2,
                      branch_channels=2, embed_dim=4, time_kernel_raw=16, time_kernel_tfr=21,
                      pool_raw=8, pool_raw_stride=4, pool_tfr=8, pool_tfr_stride=4,
                      encoder_layers=1, encoder_heads=2, classifier_hidden=4)
    rng = np.random.default_rng(5)
    model = DualTsstModel(cfg, rng=rng)
    eeg = rng.normal(size=(2, cfg.n_channels, cfg.n_times))
    tfr = rng.normal(size=(2, cfg.n_channels, cfg.n_freqs, cfg.n_times))
    labels = np.array([0, 1])
    result = check_gradients(
        lambda: cross_entropy(model.forward(eeg, tfr, train=True), labels), model.params)
    assert result.max_rel_error < 1e-3, f"{result.worst_param}: {result.max_rel_error:.3e}"


# ---------------------------------------------------------------------------
# chunks of trials, two in flight
# ---------------------------------------------------------------------------


def serial(fn, chunks):
    """``kernels._per_chunk`` with every chunk on the calling thread."""
    return [fn(s) for s in chunks]


@pytest.fixture
def one_trial_chunks(monkeypatch):
    """Chunks of one trial each, as at the full-scale presets, so a call on
    more than one trial runs chunks on the helper thread."""
    monkeypatch.setattr(kernels, "CHUNK_BYTES", 1)


@pytest.mark.parametrize("preset", ["bci2a", "bci2b", "seed", "mini"])
def test_full_scale_chunks_are_one_trial_and_a_mini_step_batch_is_one(preset):
    """At every time conv of a 64-trial batch, forward (input and output
    channels) and backward (the reverse): one trial per chunk at the
    full-scale presets, one chunk for mini's 32 + 32 step batch."""
    cfg = config_from_preset(dataio.preset(preset))
    n, t, cout = 64, cfg.n_times, cfg.branch_channels
    want = [slice(0, n)] if preset == "mini" else [slice(b, b + 1) for b in range(n)]
    for name, b in cfg.branches().items():
        x = np.broadcast_to(0.0, (n, b.in_channels, b.spatial, t))  # no memory behind it
        g = np.broadcast_to(0.0, (n, cout, b.spatial, t - b.time_kernel + 1))
        assert kernels._time_chunks(x, cout, t) == want, name
        assert kernels._time_chunks(g, b.in_channels, t) == want, name


def fft_passes(rng, n):
    x = rng.normal(size=(n, 3, 2, 50))
    w = rng.normal(size=(4, 3, 1, 20))
    g = rng.normal(size=(n, 4, 2, 31))
    d = rng.normal(size=(4, 1, 2, 1))
    return (kernels.conv2d_forward(x, w, ONE),
            kernels.conv2d_backward_input(g, w, x.shape),
            kernels.conv2d_backward_kernel(g, x, w.shape),
            kernels.conv2d_forward(x, w, ONE, depthwise=d))


FFT_PASSES = ("forward", "input gradient", "kernel gradient", "forward with depthwise")


@pytest.mark.parametrize("n", [1, 3, 4])
def test_trial_parallel_fft_equals_serial_loop(monkeypatch, one_trial_chunks, n):
    threaded = fft_passes(np.random.default_rng(n), n)
    again = fft_passes(np.random.default_rng(n), n)
    monkeypatch.setattr(kernels, "_per_chunk", serial)
    looped = fft_passes(np.random.default_rng(n), n)
    for name, a, b, c in zip(FFT_PASSES, threaded, again, looped):
        assert np.array_equal(a, b), f"{name}: repeated calls differ"
        assert np.array_equal(a, c), f"{name}: threads differ from the serial loop"


@pytest.mark.parametrize("trials", [2, 3, 7])
def test_chunks_in_flight_equal_the_serial_chunk_loop(monkeypatch, trials):
    """Chunks of several trials, two at a time, give the bits of a serial
    loop over the same chunks, and one-trial chunks' values to FFT_TOL."""
    n = 7
    # F x H x (Cin + Cout) complex128s: one trial's spectra in fft_passes
    monkeypatch.setattr(kernels, "CHUNK_BYTES", trials * 26 * 2 * (3 + 4) * 16)
    chunks = kernels._time_chunks(np.empty((n, 3, 2, 50)), 4, 50)
    assert [s.stop - s.start for s in chunks] == [min(trials, n - b) for b in range(0, n, trials)]
    threaded = fft_passes(np.random.default_rng(n), n)
    monkeypatch.setattr(kernels, "_per_chunk", serial)
    looped = fft_passes(np.random.default_rng(n), n)
    for name, a, b in zip(FFT_PASSES, threaded, looped):
        assert np.array_equal(a, b), f"{name}: threads differ from the serial chunk loop"
    monkeypatch.setattr(kernels, "CHUNK_BYTES", 1)
    for name, a, b in zip(FFT_PASSES, threaded, fft_passes(np.random.default_rng(n), n)):
        assert max_rel(a, b) <= FFT_TOL, f"{name}: chunks of {trials} differ from one-trial chunks"


def _fft_passes_of(n):
    return fft_passes(np.random.default_rng(n), n)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_trial_parallel_fft_runs_in_a_forked_child(one_trial_chunks):
    """A child forked after the parent ran trial-parallel rFFTs runs them too."""
    want = _fft_passes_of(4)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        got = pool.apply_async(_fft_passes_of, (4,)).get(timeout=60)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_no_thread_outlives_an_fft_conv_call(one_trial_chunks):
    before = threading.active_count()
    _fft_passes_of(3)
    assert threading.active_count() == before
    assert not [t.name for t in threading.enumerate() if t.name.startswith("dualtsst")]


def test_an_error_on_the_helper_thread_reaches_the_caller():
    ran_on = {}

    def trial(s):
        ran_on[s.start] = threading.current_thread()
        if s.start == 1:
            raise ArithmeticError("trial 1 failed")
        return s.start

    before = threading.active_count()
    with pytest.raises(ArithmeticError, match="trial 1 failed"):
        list(kernels._per_chunk(trial, [slice(b, b + 1) for b in range(4)]))
    assert ran_on[1] is not threading.current_thread()
    assert 2 not in ran_on  # the next group never started
    assert threading.active_count() == before


def test_one_call_runs_all_its_chunks_on_two_threads():
    """8 one-trial chunks run on the calling thread and one helper, not on a
    new helper per group."""
    ran_on = {}

    def trial(s):
        ran_on[s.start] = threading.current_thread()
        return s.start

    assert list(kernels._per_chunk(trial, [slice(b, b + 1) for b in range(8)])) == list(range(8))
    assert len(set(ran_on.values())) <= kernels.TRIALS_IN_FLIGHT
    assert all(ran_on[b] is threading.current_thread() for b in range(0, 8, 2))


def test_an_error_on_the_calling_thread_waits_for_its_helper():
    started, finished = threading.Event(), []

    def trial(s):
        if s.start == 0:
            assert started.wait(timeout=60)
            raise ArithmeticError("trial 0 failed")
        started.set()
        time.sleep(0.2)
        finished.append(s.start)
        return s.start

    before = threading.active_count()
    with pytest.raises(ArithmeticError, match="trial 0 failed"):
        list(kernels._per_chunk(trial, [slice(b, b + 1) for b in range(4)]))
    assert finished == [1]  # the group's helper chunk ran to its end; the next group never ran
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# depthwise conv over the full height
# ---------------------------------------------------------------------------


def assert_depthwise_matches_oracle(rng, n, c, h, wd, dtype=np.float64, tol=FFT_TOL):
    x = rng.normal(size=(n, c, h, wd)).astype(dtype)
    w = rng.normal(size=(c, 1, h, 1)).astype(dtype)
    g = rng.normal(size=(n, c, 1, wd)).astype(dtype)
    x64, w64, g64 = (a.astype(np.float64) for a in (x, w, g))
    pairs = {
        "forward": (kernels.conv2d_forward(x, w, ONE), conv2d_forward_np(x64, w64, ONE, c)),
        "input gradient": (kernels.conv2d_backward_input(g, w, x.shape),
                           conv2d_backward_input_np(g64, w64, x.shape, ONE, c)),
        "kernel gradient": (kernels.conv2d_backward_kernel(g, x, w.shape),
                            conv2d_backward_kernel_np(g64, x64, w.shape, ONE, c)),
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


def test_only_full_height_depthwise_kernels_skip_the_loop(computed, rng):
    """[C, 1, H, 1] kernels over a C-channel input of height H are one
    contraction per pass; every other grouped shape, or a stride, raises
    from kernels, tensor.conv2d and tensor.time_conv_bn_depthwise."""
    x = rng.normal(size=(2, 4, 3, 10))
    assert passes(computed, x, rng.normal(size=(4, 1, 3, 1))) == [
        ["nchw,ch->ncw"], [], ["ncw,nchw->ch"]]
    time_conv = T.Tensor(rng.normal(size=(4, 4, 1, 3)))  # [2, 4, 3, 8] out of x
    bn = (T.Tensor(np.ones(4)), T.Tensor(np.zeros(4)), np.zeros(4), np.ones(4))
    for w_shape in [(4, 1, 2, 1),   # partial height
                    (4, 2, 3, 1),   # 2 channels per group
                    (8, 1, 3, 1),   # channel multiplier 2
                    (4, 1, 3, 2)]:  # 3 x 2 kernel
        w = rng.normal(size=w_shape)
        assert_rejected(x, w)
        with pytest.raises(ValueError, match="depthwise kernel"):
            T.time_conv_bn_depthwise(T.Tensor(x), time_conv, *bn, T.Tensor(w), train=True)
    for stride in [(1, 2), (2, 1)]:
        with pytest.raises(ValueError, match="stride"):
            kernels.conv2d_forward(x, rng.normal(size=(4, 1, 3, 1)), stride)


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
    assert result.max_rel_error < 1e-3, f"{result.worst_param}: {result.max_rel_error:.3e}"


# ---------------------------------------------------------------------------
# a time conv and the depthwise conv after it, in one call (inference)
# ---------------------------------------------------------------------------


def time_then_depthwise(rng, n, cin, h, wd, k, transposed=False, dtype=np.float64, cout=40):
    """Input, time kernel and depthwise kernel of one branch."""
    return (random_input(rng, n, cin, h, wd, transposed, dtype),
            rng.normal(size=(cout, cin, 1, k)).astype(dtype),
            rng.normal(size=(cout, 1, h, 1)).astype(dtype))


def composed_oracle(x, w, d):
    return conv2d_forward_np(conv2d_forward_np(x, w, ONE, 1), d, ONE, d.shape[0])


BRANCH_SHAPES = {  # cin, h, wd, k, transposed
    "bci2a-branch1": (1, 22, 1000, 30, False),
    "bci2a-view1": (22, 40, 1000, 125, False),
    "bci2a-view2": (40, 22, 1000, 125, True),
    "bci2b-branch1": (1, 3, 1125, 30, False),
    "bci2b-view1": (3, 40, 1125, 125, False),
    "bci2b-view2": (40, 3, 1125, 125, True),
    "seed-branch1": (1, 62, 200, 30, False),
    "seed-view1": (62, 50, 200, 125, False),
    "seed-view2": (50, 62, 200, 125, True),
    "mini-branch1": (1, 4, 64, 7, False),
    "mini-view1": (4, 6, 64, 9, False),
    "mini-view2": (6, 4, 64, 9, True),
}


@pytest.fixture(scope="module", params=list(BRANCH_SHAPES.values()), ids=list(BRANCH_SHAPES))
def branch_case(request):
    """Four trials of one branch shape and their oracle.  Direct summation
    at these shapes takes seconds per trial, and the convs are linear in
    each trial, so trials 2 and 3 are combinations of trials 0 and 1 and so
    are their oracles."""
    cin, h, wd, k, transposed = request.param
    x2, w, d = time_then_depthwise(np.random.default_rng(cin + h + k), 2, cin, h, wd, k,
                                   transposed)
    want2 = composed_oracle(x2, w, d)
    mix = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -2.0], [0.0, 3.0]])
    x = np.einsum("bn,nchw->bchw", mix, x2)
    if transposed:
        x = np.ascontiguousarray(x.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)
    return x, w, d, np.einsum("bn,nchw->bchw", mix, want2)


@pytest.mark.parametrize("n", [1, 3, 4])
def test_time_then_depthwise_matches_the_composed_oracle(branch_case, n):
    x, w, d, want = branch_case
    k = w.shape[3]
    got = kernels.conv2d_forward(x[:n], w, ONE, depthwise=d)
    assert got.shape == (n, 40, 1, x.shape[3] - k + 1) and got.dtype == np.float64
    err = max_rel(got, want[:n])
    assert err <= FFT_TOL, f"max relative error {err:.3e}"


def test_time_then_depthwise_keeps_float32():
    x, w, d = time_then_depthwise(np.random.default_rng(7), 3, 4, 5, 80, 20,
                                  dtype=np.float32, cout=6)
    got = kernels.conv2d_forward(x, w, ONE, depthwise=d)
    assert got.dtype == np.float32
    want = composed_oracle(*(a.astype(np.float64) for a in (x, w, d)))
    assert max_rel(got, want) < 1e-5


@pytest.mark.parametrize("n", [1, 3, 4])
def test_time_then_depthwise_threads_equal_the_serial_loop(monkeypatch, one_trial_chunks, n):
    x, w, d = time_then_depthwise(np.random.default_rng(n), n, 3, 4, 60, 20, cout=5)
    threaded = kernels.conv2d_forward(x, w, ONE, depthwise=d)
    again = kernels.conv2d_forward(x, w, ONE, depthwise=d)
    monkeypatch.setattr(kernels, "_per_chunk", serial)
    looped = kernels.conv2d_forward(x, w, ONE, depthwise=d)
    assert np.array_equal(threaded, again), "repeated calls differ"
    assert np.array_equal(threaded, looped), "threads differ from the serial loop"


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("cin, h, transposed, cout", [
    (1, 4, False, 3),  # a 1-tap mini branch1
    (4, 6, False, 3),  # a 1-tap mini branch2.view1
    (6, 4, True, 3),   # a 1-tap mini branch2.view2
    (1, 1, False, 1),  # [1, 1, 1, 1] on one row: pointwise, not depthwise
])
def test_pointwise_then_depthwise_is_two_calls_bit_for_bit(cin, h, transposed, cout, dtype):
    """A 1-tap stem's time conv is a pointwise conv: the call composes the
    two einsums."""
    x, w, d = time_then_depthwise(np.random.default_rng(cin), 8, cin, h, 64, 1, transposed,
                                  dtype, cout=cout)
    got = kernels.conv2d_forward(x, w, ONE, depthwise=d)
    assert got.dtype == dtype
    assert np.array_equal(got, kernels.conv2d_forward(kernels.conv2d_forward(x, w, ONE), d, ONE))


def test_time_then_depthwise_inverse_transforms_cout_rows(computed, monkeypatch, rng):
    """The depthwise sum is one contraction on a chunk's spectrum, and the
    inverse transform sees [F, B, Cout, 1], not [F, B, Cout, H]."""
    inverse = []
    signal = kernels._signal

    def spy_signal(spec, n):
        inverse.append(spec.shape)
        return signal(spec, n)

    monkeypatch.setattr(kernels, "_signal", spy_signal)
    x, w, d = time_then_depthwise(rng, 3, 4, 5, 40, 16, cout=2)
    kernels.conv2d_forward(x, w, ONE, depthwise=d)
    # the three trials are one chunk: one kernel spectrum, then the chunk's and its sum
    assert computed == ["rfft", "rfft", "fobh,oh->fob"]
    assert inverse == [(21, 3, 2, 1)]


def test_time_then_depthwise_rejects_other_kernels(rng):
    x, w, d = time_then_depthwise(rng, 2, 4, 3, 40, 20, cout=2)
    for bad in [rng.normal(size=(2, 1, 2, 1)),   # partial height
                rng.normal(size=(3, 1, 3, 1)),   # another channel count
                rng.normal(size=(2, 2, 1, 5))]:  # a time conv
        with pytest.raises(ValueError, match="depthwise kernel"):
            kernels.conv2d_forward(x, w, ONE, depthwise=bad)
    with pytest.raises(ValueError, match="depthwise kernel"):  # after a depthwise conv
        kernels.conv2d_forward(x, rng.normal(size=(4, 1, 3, 1)), ONE, depthwise=d)


# ---------------------------------------------------------------------------
# kernel spectra, taken once per kernel value
# ---------------------------------------------------------------------------


@pytest.fixture
def no_spectra():
    """An empty kernel-spectrum memo, so the first call on a kernel is cold."""
    kernels._KERNEL_SPECTRA.clear()
    return kernels._KERNEL_SPECTRA


def memo_passes(x, w, d, g):
    """Forward, fused forward and input gradient of one time kernel."""
    return (kernels.conv2d_forward(x, w, ONE),
            kernels.conv2d_forward(x, w, ONE, depthwise=d),
            kernels.conv2d_backward_input(g, w, x.shape))


def test_a_kernel_spectrum_is_taken_once_per_kernel_value(computed, no_spectra, rng):
    """After the first call on a kernel, each call transforms only its
    input (one chunk here), and gives the bits of a call with no memo."""
    x, w, d = time_then_depthwise(rng, 3, 4, 5, 40, 16, cout=2)
    g = rng.normal(size=(3, 2, 5, 25))
    cold = []
    for run in range(3):
        no_spectra.clear()
        cold.append(memo_passes(x, w, d, g)[run])
    no_spectra.clear()
    computed.clear()
    kernels.conv2d_forward(x, w, ONE)
    assert computed == ["rfft", "rfft"]  # the kernel's, then the input's
    computed.clear()
    warm = memo_passes(x, w, d, g)
    assert computed == ["rfft", "rfft", "fobh,oh->fob", "rfft"]
    for name, a, b in zip(("forward", "forward with depthwise", "input gradient"), warm, cold):
        assert np.array_equal(a, b), f"{name}: a warm call differs from a cold one"
    assert len(no_spectra) == 1


def test_a_kernel_changed_in_place_gets_a_fresh_spectrum(computed, no_spectra, rng):
    x = rng.normal(size=(2, 3, 2, 50))
    w = rng.normal(size=(4, 3, 1, 20))
    w[0, 0, 0, 3] = -0.0
    kernels.conv2d_forward(x, w, ONE)
    for edit in ("one element", "-0.0 to +0.0"):
        if edit == "one element":
            w[1, 2, 0, 5] += 1.0
        else:
            w[0, 0, 0, 3] = 0.0
        computed.clear()
        got = kernels.conv2d_forward(x, w, ONE)
        assert computed == ["rfft", "rfft"], edit
        assert max_rel(got, conv2d_forward_np(x, w, ONE, 1)) <= FFT_TOL, edit
        g = rng.normal(size=got.shape)
        want = conv2d_backward_input_np(g, w, x.shape, ONE, 1)
        assert max_rel(kernels.conv2d_backward_input(g, w, x.shape), want) <= FFT_TOL, edit
    assert len(no_spectra) == 1


def test_float32_and_float64_kernels_never_share_an_entry(no_spectra, rng):
    x = rng.normal(size=(2, 3, 2, 50))
    w64 = rng.normal(size=(4, 3, 1, 20))
    w32 = w64.astype(np.float32)
    got64 = kernels.conv2d_forward(x, w64, ONE)
    got32 = kernels.conv2d_forward(x.astype(np.float32), w32, ONE)
    assert got64.dtype == np.float64 and got32.dtype == np.float32
    assert len(no_spectra) == 2
    assert kernels._kernel_spectrum(w64, 50).dtype == np.complex128
    assert kernels._kernel_spectrum(w32, 50).dtype == np.complex64
    no_spectra.clear()
    assert np.array_equal(kernels.conv2d_forward(x.astype(np.float32), w32, ONE), got32)
    assert np.array_equal(kernels.conv2d_forward(x, w64, ONE), got64)


def test_the_kept_spectrum_is_read_only(no_spectra, rng):
    w = rng.normal(size=(4, 3, 1, 20))
    spec = kernels._kernel_spectrum(w, 50)
    assert spec.shape == (26, 4, 3) and not spec.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        spec[0, 0, 0] = 0.0
    assert kernels._kernel_spectrum(w, 50) is spec


def test_threads_sharing_kernels_get_the_bits_of_a_cold_call(no_spectra):
    """Threads calling with one shared kernel and kernels of their own, each
    own kernel toggled in place between two values, get the bits of a call
    with no memo."""
    rng = np.random.default_rng(11)
    x = rng.normal(size=(1, 3, 2, 40))
    shared = rng.normal(size=(4, 3, 1, 9))
    own = [rng.normal(size=(4, 3, 1, 9)) for _ in range(6)]
    values = {id(w): (w[0, 0, 0, 0], w[0, 0, 0, 0] + 1.0) for w in own}
    want = {}
    for w in [shared, *own]:
        want[id(w)] = []
        for v in values.get(id(w), (w[0, 0, 0, 0],)):
            w[0, 0, 0, 0] = v
            no_spectra.clear()
            want[id(w)].append(kernels.conv2d_forward(x, w, ONE))
    bad = []

    def work(w):
        for i in range(40):
            w[0, 0, 0, 0] = values[id(w)][i % 2]
            for w_, which in ((shared, 0), (w, i % 2)):
                if not np.array_equal(kernels.conv2d_forward(x, w_, ONE), want[id(w_)][which]):
                    bad.append((w_ is shared, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in own]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not bad
    del w, shared, own
    gc.collect()
    assert no_spectra == {}


def test_no_spectrum_outlives_its_model(no_spectra, rng):
    model = DualTsstModel(config_from_preset(dataio.preset("mini")), rng=rng)
    cfg = model.config
    eeg = rng.normal(size=(2, cfg.n_channels, cfg.n_times))
    tfr = rng.normal(size=(2, cfg.n_channels, cfg.n_freqs, cfg.n_times))
    with T.no_grad():
        model.forward(eeg, tfr, train=False)
    cross_entropy(model.forward(eeg, tfr, train=True), np.array([0, 1])).backward()
    assert len(no_spectra) == len(cfg.branches())  # one per time kernel
    del model
    gc.collect()
    assert no_spectra == {}


# ---------------------------------------------------------------------------
# the pointwise path and the oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n, cin, wd, cout", [
    (8, 3, 13, 8),     # mini pwc
    (2, 40, 71, 120),  # bci2a branch1.pwc
    (2, 40, 1, 120),   # seed branch2 pwc
])
def test_pointwise_conv_equals_the_oracle_bit_for_bit(n, cin, wd, cout, dtype):
    rng = np.random.default_rng(wd)
    x = rng.normal(size=(n, cin, 1, wd)).astype(dtype)
    w = rng.normal(size=(cout, cin, 1, 1)).astype(dtype)
    g = rng.normal(size=(n, cout, 1, wd)).astype(dtype)
    pairs = {
        "forward": (kernels.conv2d_forward(x, w, ONE), conv2d_forward_np(x, w, ONE, 1)),
        "input gradient": (kernels.conv2d_backward_input(g, w, x.shape),
                           conv2d_backward_input_np(g, w, x.shape, ONE, 1)),
        "kernel gradient": (kernels.conv2d_backward_kernel(g, x, w.shape),
                            conv2d_backward_kernel_np(g, x, w.shape, ONE, 1)),
    }
    for name, (fast, ref) in pairs.items():
        assert fast.dtype == ref.dtype == dtype, name
        assert np.array_equal(fast, ref), name


def test_oracle_hand_cross_correlation():
    x = np.array([1.0, 2, 3, 4, 5]).reshape(1, 1, 1, 5)
    w = np.array([1.0, 0, -1]).reshape(1, 1, 1, 3)
    np.testing.assert_array_equal(conv2d_forward_np(x, w, ONE, 1).ravel(), [-2.0, -2.0, -2.0])
    # two rows at stride 2 along time: x[0, q] + 10 x[1, q] at q = 0, 2, 4
    x = np.arange(10.0).reshape(1, 1, 2, 5)
    w = np.array([1.0, 10.0]).reshape(1, 1, 2, 1)
    np.testing.assert_array_equal(conv2d_forward_np(x, w, (1, 2), 1).ravel(), [50.0, 72, 94])
    # two groups of one channel each scale their own channel
    x = np.arange(6.0).reshape(1, 2, 1, 3)
    w = np.array([2.0, 3.0]).reshape(2, 1, 1, 1)
    np.testing.assert_array_equal(conv2d_forward_np(x, w, ONE, 2)[0, :, 0],
                                  [[0.0, 2, 4], [9, 12, 15]])


def test_oracle_gradients_match_finite_differences(rng):
    """At a strided, grouped 2 x 3 shape the backward oracles are the
    gradients of ``sum(forward * g)``."""
    stride, groups = (1, 2), 2
    x = rng.normal(size=(2, 4, 5, 7))
    w = rng.normal(size=(6, 2, 2, 3))
    g = rng.normal(size=conv2d_forward_np(x, w, stride, groups).shape)

    def loss():
        return float(np.sum(conv2d_forward_np(x, w, stride, groups) * g))

    def central_difference(a, h=1e-6):
        grad = np.empty_like(a)
        for i in np.ndindex(a.shape):
            keep = a[i]
            a[i] = keep + h
            up = loss()
            a[i] = keep - h
            grad[i] = (up - loss()) / (2 * h)
            a[i] = keep
        return grad

    for name, got, a in [
            ("input", conv2d_backward_input_np(g, w, x.shape, stride, groups), x),
            ("kernel", conv2d_backward_kernel_np(g, x, w.shape, stride, groups), w)]:
        err = max_rel(got, central_difference(a))
        assert err < 1e-6, f"{name} gradient: max relative error {err:.3e}"
