import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualtsst import kernels, tensor as T
from dualtsst.gradcheck import central_difference, max_relative_error

OP_TOL = 1e-4  # per-op gradient tolerance at gradcheck.FD_STEP (1e-6)


def fd_check(build_loss, tensors, tol=OP_TOL):
    for p in tensors:
        p.zero_grad()
    loss = build_loss()
    T.backward(loss)
    for p in tensors:
        assert p.grad is not None
        numeric = central_difference(build_loss, p)
        err = max_relative_error(p.grad, numeric)
        assert err < tol, f"gradient mismatch {err:.3e}"


def leaf(rng, *shape, scale=1.0):
    return T.Tensor(scale * rng.normal(size=shape), requires_grad=True)


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------


def test_conv2d_hand_cross_correlation():
    x = T.Tensor(np.array([1.0, 2, 3, 4, 5]).reshape(1, 1, 1, 5))
    k = T.Tensor(np.array([1.0, 0, -1]).reshape(1, 1, 1, 3))
    out = T.conv2d(x, k)  # by rFFT, so exact only to rounding
    np.testing.assert_allclose(out.data.ravel(), [-2.0, -2.0, -2.0], rtol=1e-12, atol=0)


def test_conv2d_pointwise_all_ones_is_channel_sum(rng):
    x = rng.normal(size=(2, 3, 4, 5))
    k = np.ones((1, 3, 1, 1))
    out = T.conv2d(T.Tensor(x), T.Tensor(k))
    np.testing.assert_allclose(out.data[:, 0], x.sum(axis=1), rtol=1e-12)


def test_conv2d_branch1_geometry(rng):
    x = T.Tensor(rng.normal(size=(1, 1, 22, 1000)))
    k = T.Tensor(rng.normal(size=(40, 1, 1, 30)))
    assert T.conv2d(x, k).shape == (1, 40, 22, 971)


def test_conv2d_depthwise_groups(rng):
    x = rng.normal(size=(1, 3, 4, 6))
    k = rng.normal(size=(3, 1, 4, 1))
    out = T.conv2d(T.Tensor(x), T.Tensor(k))
    assert out.shape == (1, 3, 1, 6)
    for c in range(3):
        expected = (x[0, c] * k[c, 0]).sum(axis=0)
        np.testing.assert_allclose(out.data[0, c, 0], expected, rtol=1e-12)


def test_conv2d_errors():
    x = T.Tensor(np.zeros((1, 2, 3, 3)))
    with pytest.raises(ValueError):
        T.conv2d(x, T.Tensor(np.zeros((1, 2, 4, 1))))  # kernel taller than input
    with pytest.raises(ValueError):
        T.conv2d(x, T.Tensor(np.zeros((1, 2, 1, 4))))  # kernel wider than input
    with pytest.raises(ValueError):
        T.conv2d(x, T.Tensor(np.zeros((2, 1, 1, 1))))  # grouped, not full height


@settings(max_examples=40, deadline=None)
@given(
    c=st.integers(1, 4), cout=st.integers(1, 4), h=st.integers(1, 9), w=st.integers(1, 40),
    kw=st.integers(1, 40),
)
def test_conv2d_shape_algebra(c, cout, h, w, kw):
    x = T.Tensor(np.zeros((2, c, h, w)))
    if kw <= w:  # a time conv
        assert T.conv2d(x, T.Tensor(np.zeros((cout, c, 1, kw)))).shape == (2, cout, h, w - kw + 1)
    # a full-height depthwise conv
    assert T.conv2d(x, T.Tensor(np.zeros((c, 1, h, 1)))).shape == (2, c, 1, w)


def test_conv2d_gradients(rng):
    x = leaf(rng, 2, 3, 4, 20)
    for k in (leaf(rng, 2, 3, 1, 5),    # rFFT, a mini-length kernel
              leaf(rng, 2, 3, 1, 16),   # rFFT
              leaf(rng, 2, 3, 1, 1),    # pointwise
              leaf(rng, 3, 1, 4, 1)):   # full-height depthwise
        w = T.Tensor(rng.normal(size=T.conv2d(x.data, k.data).shape))
        fd_check(lambda: (T.conv2d(x, k) * w).sum(), [x, k])


# ---------------------------------------------------------------------------
# avg_pool2d
# ---------------------------------------------------------------------------


def test_avg_pool_hand():
    x = T.Tensor(np.array([1.0, 2, 3, 4]).reshape(1, 1, 1, 4))
    out = T.avg_pool2d(x, 2, 2)
    np.testing.assert_array_equal(out.data.ravel(), [1.5, 3.5])


def test_avg_pool_constant():
    x = T.Tensor(np.full((1, 2, 3, 10), 7.25))
    out = T.avg_pool2d(x, 4, 3)
    np.testing.assert_allclose(out.data, 7.25, rtol=1e-15)


def test_avg_pool_table_geometry():
    x = T.Tensor(np.zeros((1, 40, 1, 971)))
    assert T.avg_pool2d(x, 120, 12).shape == (1, 40, 1, 71)


def test_avg_pool_kernel_too_large():
    with pytest.raises(ValueError):
        T.avg_pool2d(T.Tensor(np.zeros((1, 1, 1, 3))), 4, 1)


def test_avg_pool_gradients(rng):
    x = leaf(rng, 2, 3, 2, 11)
    fd_check(lambda: (T.avg_pool2d(x, 4, 3) * T.Tensor(np.ones((2, 3, 2, 3)) * 0.5)).sum(), [x])


@settings(max_examples=40, deadline=None)
@given(w=st.integers(1, 30), k=st.integers(1, 30), s=st.integers(1, 5))
def test_avg_pool_shape_algebra(w, k, s):
    if k > w:
        return
    out = T.avg_pool2d(T.Tensor(np.zeros((1, 1, 1, w))), k, s)
    assert out.shape == (1, 1, 1, (w - k) // s + 1)


# ---------------------------------------------------------------------------
# batch_norm
# ---------------------------------------------------------------------------


def _bn_state(c):
    return np.zeros(c), np.ones(c)


def test_batch_norm_train_normalises():
    x = T.Tensor(np.array([1.0, 2.0, 3.0]).reshape(1, 1, 1, 3))
    gamma, beta = T.Tensor(np.ones(1)), T.Tensor(np.zeros(1))
    rm, rv = _bn_state(1)
    out = T.batch_norm(x, gamma, beta, rm, rv, train=True)
    expected = (np.array([1.0, 2, 3]) - 2.0) / np.sqrt(2.0 / 3.0 + 1e-5)
    np.testing.assert_allclose(out.data.ravel(), expected, rtol=1e-12)


def test_batch_norm_eval_identity():
    x = T.Tensor(np.random.default_rng(0).normal(size=(2, 3, 2, 2)))
    gamma, beta = T.Tensor(np.ones(3)), T.Tensor(np.zeros(3))
    rm, rv = _bn_state(3)
    out = T.batch_norm(x, gamma, beta, rm, rv, train=False)
    np.testing.assert_allclose(out.data, x.data / np.sqrt(1 + 1e-5), rtol=1e-12)


def test_batch_norm_eval_hand_value():
    x = T.Tensor(np.full((1, 1, 1, 1), 4.0))
    gamma, beta = T.Tensor(np.full(1, 3.0)), T.Tensor(np.full(1, 1.0))
    rm = np.full(1, 2.0)
    rv = np.full(1, 4.0)
    out = T.batch_norm(x, gamma, beta, rm, rv, train=False)
    expected = 3.0 * (4.0 - 2.0) / np.sqrt(4.0 + 1e-5) + 1.0
    assert abs(out.item() - expected) < 1e-12
    assert abs(out.item() - 4.0) < 1e-4


def test_batch_norm_train_statistics(rng):
    # output mean ~ 0 and population variance ~ 1 needs data variance >> eps
    x = T.Tensor(10.0 * rng.normal(size=(4, 3, 5, 7)))
    gamma, beta = T.Tensor(np.ones(3)), T.Tensor(np.zeros(3))
    rm, rv = _bn_state(3)
    out = T.batch_norm(x, gamma, beta, rm, rv, train=True)
    m = out.data.mean(axis=(0, 2, 3))
    v = out.data.var(axis=(0, 2, 3))
    assert np.all(np.abs(m) < 1e-10)
    assert np.all(np.abs(v - 1.0) < 1e-6)


def test_batch_norm_single_sample_batch(rng):
    # N=1 in train mode: statistics come from the H*W elements per channel
    x = T.Tensor(10.0 * rng.normal(size=(1, 2, 4, 8)))
    gamma, beta = T.Tensor(np.ones(2)), T.Tensor(np.zeros(2))
    rm, rv = _bn_state(2)
    out = T.batch_norm(x, gamma, beta, rm, rv, train=True)
    assert np.all(np.abs(out.data.mean(axis=(0, 2, 3))) < 1e-10)
    assert np.all(np.abs(out.data.var(axis=(0, 2, 3)) - 1.0) < 1e-6)


def test_batch_norm_updates_running_stats(rng):
    x = T.Tensor(rng.normal(loc=5.0, size=(2, 2, 3, 3)))
    gamma, beta = T.Tensor(np.ones(2)), T.Tensor(np.zeros(2))
    rm, rv = _bn_state(2)
    T.batch_norm(x, gamma, beta, rm, rv, train=True)
    mu = x.data.mean(axis=(0, 2, 3))
    var = x.data.var(axis=(0, 2, 3))
    np.testing.assert_allclose(rm, 0.1 * mu, rtol=1e-12)
    np.testing.assert_allclose(rv, 0.9 * 1.0 + 0.1 * var, rtol=1e-12)


def test_batch_norm_gradients_train_and_eval(rng):
    for train in (True, False):
        x = leaf(rng, 2, 3, 2, 4)
        gamma = leaf(rng, 3)
        beta = leaf(rng, 3)
        rm, rv = np.zeros(3), np.abs(rng.normal(size=3)) + 0.5
        w = T.Tensor(rng.normal(size=(2, 3, 2, 4)))  # break the zero-sum degeneracy

        def build():
            return (T.batch_norm(x, gamma, beta, rm.copy(), rv.copy(), train=train) * w).sum()

        fd_check(build, [x, gamma, beta])


def _batch_norm_oracle(x, gamma, beta, rm, rv, g, train, momentum=0.1, eps=1e-5):
    """The two-pass formula: ``np.var`` for the statistics, the VJP through
    ``mean(gamma * g)`` and ``mean(gamma * g * xhat)``.  Returns the output,
    the x, gamma and beta gradients, and the updated running buffers."""
    rm, rv = rm.copy(), rv.copy()
    axes, gshape = (0, 2, 3), (1, x.shape[1], 1, 1)
    if train:
        mu, var = x.mean(axis=axes), x.var(axis=axes)
        rm *= 1.0 - momentum
        rm += momentum * mu
        rv *= 1.0 - momentum
        rv += momentum * var
    else:
        mu, var = rm, rv
    inv = (1.0 / np.sqrt(var + eps)).reshape(gshape)
    xhat = (x - mu.reshape(gshape)) * inv
    out = xhat * gamma.reshape(gshape) + beta.reshape(gshape)
    gg = g * gamma.reshape(gshape)
    if train:
        gx = inv * (gg - gg.mean(axis=axes).reshape(gshape)
                    - xhat * (gg * xhat).mean(axis=axes).reshape(gshape))
    else:
        gx = gg * inv
    return out, gx, (g * xhat).sum(axis=axes), g.sum(axis=axes), rm, rv


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("shape", [(2, 3, 2, 4), (1, 5, 1, 33), (4, 40, 22, 97)])
def test_batch_norm_matches_two_pass_formula(rng, train, shape):
    c = shape[1]
    x = leaf(rng, *shape, scale=3.0)
    x.data += rng.normal(size=(1, c, 1, 1))  # per-channel offsets
    gamma, beta = leaf(rng, c), leaf(rng, c)
    rm, rv = rng.normal(size=c), np.abs(rng.normal(size=c)) + 0.5
    g = rng.normal(size=shape)
    want = _batch_norm_oracle(x.data, gamma.data, beta.data, rm, rv, g, train)

    out = T.batch_norm(x, gamma, beta, rm, rv, train=train)
    T.backward((out * T.Tensor(g)).sum())
    got = (out.data, x.grad, gamma.grad, beta.grad, rm, rv)
    for name, a, b in zip(("out", "x grad", "gamma grad", "beta grad",
                           "running mean", "running var"), got, want):
        assert a.shape == b.shape, name
        err = np.max(np.abs(a - b)) / np.max(np.abs(b))
        assert err <= 1e-12, f"{name}: max relative error {err:.3e}"


def test_batch_norm_eval_gradient_ignores_later_buffer_updates(rng):
    x, gamma, beta = leaf(rng, 2, 3, 2, 5), leaf(rng, 3), leaf(rng, 3)
    rm, rv = rng.normal(size=3), np.abs(rng.normal(size=3)) + 0.5
    g = rng.normal(size=x.shape)
    want = _batch_norm_oracle(x.data, gamma.data, beta.data, rm, rv, g, train=False)
    out = T.batch_norm(x, gamma, beta, rm, rv, train=False)
    with T.no_grad():  # a train-mode call moves the running buffers before backward
        T.batch_norm(T.Tensor(x.data + 5.0), gamma, beta, rm, rv, train=True)
    T.backward((out * T.Tensor(g)).sum())
    for got, ref in zip((x.grad, gamma.grad, beta.grad), want[1:4]):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("train", [True, False])
def test_batch_norm_keeps_float32(rng, train):
    f32 = np.float32
    x = T.Tensor(rng.normal(size=(2, 3, 4, 5)).astype(f32), requires_grad=True)
    gamma = T.Tensor(np.ones(3, dtype=f32), requires_grad=True)
    beta = T.Tensor(np.zeros(3, dtype=f32), requires_grad=True)
    rm, rv = np.zeros(3, dtype=f32), np.ones(3, dtype=f32)
    out = T.batch_norm(x, gamma, beta, rm, rv, train=train)
    T.backward(out.sum())
    for a in (out.data, x.grad, gamma.grad, beta.grad, rm, rv):
        assert a.dtype == f32


# ---------------------------------------------------------------------------
# time_conv_bn_depthwise: a branch stem, time conv then batch norm folded
# around the depthwise conv (the tests named batch_norm_depthwise)
# ---------------------------------------------------------------------------

# a pointwise (1-tap) and two rFFT time convs
STEM_TAPS = (1, 5, 20)


def _stem_case(rng, shape, taps, cin=2, dtype=np.float64):
    """Leaves for a stem whose time-conv output has ``shape`` [N, C, H, W]."""
    n, c, h, w = shape

    def leaf_of(*s, scale=1.0):
        return T.Tensor((scale * rng.normal(size=s)).astype(dtype), requires_grad=True)

    x = leaf_of(n, cin, h, w + taps - 1)
    kernel = leaf_of(c, cin, 1, taps)
    kernel.data += rng.normal(size=(c, 1, 1, 1)).astype(dtype)  # per-channel offsets in h
    depthwise, gamma, beta = leaf_of(c, 1, h, 1), leaf_of(c), leaf_of(c)
    rm = rng.normal(size=c).astype(dtype)
    rv = (np.abs(rng.normal(size=c)) + 0.5).astype(dtype)
    return x, kernel, gamma, beta, rm, rv, depthwise


def _stem_run(fused, x, kernel, gamma, beta, rm, rv, depthwise, g, train):
    """Output, the x/kernel/gamma/beta/depthwise gradients and the running
    buffers of the stem op or of ``conv2d(batch_norm(conv2d(x)))`` on fresh
    copies of the inputs."""
    x, kernel, gamma, beta, depthwise = (T.Tensor(t.data.copy(), requires_grad=True)
                                         for t in (x, kernel, gamma, beta, depthwise))
    rm, rv = rm.copy(), rv.copy()
    if fused:
        out = T.time_conv_bn_depthwise(x, kernel, gamma, beta, rm, rv, depthwise, train)
    else:
        out = T.conv2d(T.batch_norm(T.conv2d(x, kernel), gamma, beta, rm, rv, train=train),
                       depthwise)
    T.backward((out * T.Tensor(g)).sum())
    return out.data, x.grad, kernel.grad, gamma.grad, beta.grad, depthwise.grad, rm, rv


STEM_RESULTS = ("out", "x grad", "kernel grad", "gamma grad", "beta grad", "depthwise grad",
                "running mean", "running var")


def _assert_stem_matches(got, want, tol):
    for name, a, b in zip(STEM_RESULTS, got, want):
        assert a.shape == b.shape and a.dtype == b.dtype, name
        err = np.max(np.abs(a - b)) / np.max(np.abs(b))
        assert err <= tol, f"{name}: max relative error {err:.3e}"


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("shape,kh", [((2, 3, 4, 9), 4), ((1, 5, 6, 33), 6),
                                      ((1, 4, 2, 7), 2), ((3, 40, 22, 97), 22)])
def test_batch_norm_depthwise_matches_the_unfused_ops(rng, train, shape, kh):
    for taps in STEM_TAPS:
        case = _stem_case(rng, shape, taps)
        g = rng.normal(size=(shape[0], shape[1], shape[2] - kh + 1, shape[3]))
        _assert_stem_matches(_stem_run(True, *case, g, train),
                             _stem_run(False, *case, g, train), tol=1e-12)


def test_batch_norm_depthwise_gradients_train_and_eval(rng):
    for train in (True, False):
        x, kernel, gamma, beta, rm, rv, depthwise = _stem_case(rng, (2, 3, 4, 5), 3)
        w = T.Tensor(rng.normal(size=(2, 3, 1, 5)))  # break the zero-sum degeneracy

        def build():
            return (T.time_conv_bn_depthwise(x, kernel, gamma, beta, rm.copy(), rv.copy(),
                                             depthwise, train) * w).sum()

        fd_check(build, [x, kernel, gamma, beta, depthwise])


def test_batch_norm_depthwise_eval_gradient_ignores_later_buffer_updates(rng):
    x, kernel, gamma, beta, rm, rv, depthwise = _stem_case(rng, (2, 3, 4, 5), 3)
    g = rng.normal(size=(2, 3, 1, 5))
    want = _stem_run(False, x, kernel, gamma, beta, rm, rv, depthwise, g, train=False)
    out = T.time_conv_bn_depthwise(x, kernel, gamma, beta, rm, rv, depthwise, train=False)
    with T.no_grad():  # a train-mode call moves the running buffers before backward
        T.time_conv_bn_depthwise(T.Tensor(x.data + 5.0), kernel, gamma, beta, rm, rv,
                                 depthwise, train=True)
    T.backward((out * T.Tensor(g)).sum())
    for got, ref in zip((x.grad, kernel.grad, gamma.grad, beta.grad, depthwise.grad),
                        want[1:6]):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("train", [True, False])
def test_batch_norm_depthwise_keeps_float32(rng, train):
    for taps in STEM_TAPS:
        case = _stem_case(rng, (2, 3, 4, 5), taps, dtype=np.float32)
        g = rng.normal(size=(2, 3, 1, 5)).astype(np.float32)
        got = _stem_run(True, *case, g, train)
        assert all(a.dtype == np.float32 for a in got)
        _assert_stem_matches(got, _stem_run(False, *case, g, train), tol=1e-4)
        with T.no_grad():
            x, kernel, gamma, beta, rm, rv, depthwise = case
            out = T.time_conv_bn_depthwise(x, kernel, gamma, beta, rm, rv, depthwise, train)
        assert out.dtype == np.float32


def test_batch_norm_depthwise_rejects_a_non_depthwise_kernel(rng):
    x = T.Tensor(rng.normal(size=(1, 2, 4, 9)))
    kernel = T.Tensor(rng.normal(size=(3, 2, 1, 5)))
    gamma, beta = T.Tensor(np.ones(3)), T.Tensor(np.zeros(3))
    rm, rv = _bn_state(3)
    for shape in [(3, 2, 4, 1), (6, 1, 4, 1), (3, 1, 5, 1), (3, 1, 2, 1), (3, 1, 4, 2)]:
        for train in (True, False):  # the graph path and, under no_grad, the inference path
            with T.no_grad(), pytest.raises(ValueError, match="depthwise kernel"):
                T.time_conv_bn_depthwise(x, kernel, gamma, beta, rm, rv,
                                         T.Tensor(np.ones(shape)), train)


@pytest.mark.parametrize("taps", [1, 5, 20])  # pointwise and rFFT
def test_conv2d_batch_norm_depthwise_equals_the_graph_ops(rng, taps):
    """Eval mode with no graph recorded takes the inference path: one
    kernels call with the depthwise kernel contracted inside the time conv
    (after a pointwise conv, the two einsums one after the other)."""
    x = T.Tensor(rng.normal(size=(3, 2, 4, 40)))
    w = leaf(rng, 3, 2, 1, taps)
    depthwise, gamma, beta = leaf(rng, 3, 1, 4, 1), leaf(rng, 3), leaf(rng, 3)
    rm, rv = rng.normal(size=3), np.abs(rng.normal(size=3)) + 0.5
    want = T.time_conv_bn_depthwise(x, w, gamma, beta, rm, rv, depthwise, train=False)
    assert want.requires_grad
    with T.no_grad():
        got = T.time_conv_bn_depthwise(x, w, gamma, beta, rm, rv, depthwise, train=False)
    assert got.shape == want.shape == (3, 3, 1, 41 - taps)
    assert not got.requires_grad
    if taps == 1:
        assert np.array_equal(got.data, want.data)
    else:
        assert np.max(np.abs(got.data - want.data)) / np.max(np.abs(want.data)) <= 1e-12


def test_chunked_moments_and_stem_backward_do_not_depend_on_the_chunk(rng, monkeypatch):
    """Batch statistics, running buffers and the stem's batch-statistics
    gradient are walked a chunk of trials at a time; one chunk of the whole
    batch and one-trial chunks give the same bits.  The stem's time conv is
    pointwise, which is not chunked."""
    case = _stem_case(rng, (5, 3, 4, 11), 1)
    _, _, gamma, beta, rm, rv, _ = case
    g = rng.normal(size=(5, 3, 1, 11))
    h_data, g_bn = rng.normal(size=(2, 5, 3, 4, 11))

    def runs():
        h = T.Tensor(h_data, requires_grad=True)
        buffers = rm.copy(), rv.copy()
        out = T.batch_norm(h, T.Tensor(gamma.data), T.Tensor(beta.data), *buffers, train=True)
        T.backward((out * T.Tensor(g_bn)).sum())
        return _stem_run(True, *case, g, True) + (out.data, h.grad) + buffers

    assert kernels._chunks(5, h_data[0].nbytes) == [slice(0, 5)]
    whole = runs()
    monkeypatch.setattr(kernels, "CHUNK_BYTES", 1)
    names = STEM_RESULTS + ("bn out", "bn x grad", "bn running mean", "bn running var")
    for name, a, b in zip(names, whole, runs(), strict=True):
        assert np.array_equal(a, b), name


# ---------------------------------------------------------------------------
# elu / linear / softmax / layer_norm / gap
# ---------------------------------------------------------------------------


def test_elu_values():
    out = T.elu(T.Tensor(np.array([0.0, 2.0, -1.0])))
    np.testing.assert_allclose(out.data, [0.0, 2.0, np.expm1(-1.0)], rtol=1e-12)
    assert abs(out.data[2] - (-0.6321)) < 1e-4


def test_elu_gradients(rng):
    x = leaf(rng, 4, 5)
    fd_check(lambda: (T.elu(x) * T.Tensor(np.ones((4, 5)))).sum(), [x])


def test_linear_identity_and_hand():
    x = T.Tensor(np.array([[1.0, 2.0]]))
    eye = T.Tensor(np.eye(2))
    zero = T.Tensor(np.zeros(2))
    np.testing.assert_array_equal(T.linear(x, eye, zero).data, x.data)

    w = T.Tensor(np.array([[1.0, 0.0], [0.0, 2.0]]))
    b = T.Tensor(np.array([0.0, 1.0]))
    np.testing.assert_array_equal(T.linear(x, w, b).data, [[1.0, 5.0]])


def test_linear_batched_shape(rng):
    x = T.Tensor(rng.normal(size=(3, 2)))
    w = T.Tensor(rng.normal(size=(2, 7)))
    b = T.Tensor(rng.normal(size=7))
    assert T.linear(x, w, b).shape == (3, 7)
    # leading axes preserved
    x3 = T.Tensor(rng.normal(size=(4, 3, 2)))
    assert T.linear(x3, w, b).shape == (4, 3, 7)


def test_linear_gradients(rng):
    x, w, b = leaf(rng, 3, 4), leaf(rng, 4, 2), leaf(rng, 2)
    fd_check(lambda: (T.linear(x, w, b) * T.Tensor(np.ones((3, 2)))).sum(), [x, w, b])


def test_softmax_examples():
    np.testing.assert_allclose(T.softmax(T.Tensor([0.0, 0.0])).data, [0.5, 0.5], atol=1e-15)
    big = T.softmax(T.Tensor([1000.0, 1000.0]))
    assert np.all(np.isfinite(big.data))
    np.testing.assert_allclose(big.data, [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(
        T.softmax(T.Tensor([0.0, np.log(3.0)])).data, [0.25, 0.75], atol=1e-15
    )


def test_softmax_rows_sum_and_shift_invariance(rng):
    x = rng.normal(size=(6, 9)) * 10
    s = T.softmax(T.Tensor(x), axis=-1)
    np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)
    shifted = T.softmax(T.Tensor(x + 100.0), axis=-1)
    np.testing.assert_allclose(s.data, shifted.data, atol=1e-12)


def test_softmax_gradients(rng):
    x = leaf(rng, 3, 5)
    w = T.Tensor(rng.normal(size=(3, 5)))
    fd_check(lambda: (T.softmax(x, axis=-1) * w).sum(), [x])


def test_layer_norm_examples():
    gamma, beta = T.Tensor(np.ones(4)), T.Tensor(np.zeros(4))
    const = T.layer_norm(T.Tensor(np.full((2, 4), 3.3)), gamma, beta)
    np.testing.assert_allclose(const.data, 0.0, atol=1e-12)

    two = T.layer_norm(T.Tensor(np.array([1.0, 3.0])), T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)))
    np.testing.assert_allclose(two.data, [-1.0, 1.0], atol=1e-4)

    gamma0 = T.Tensor(np.zeros(4))
    shift = T.Tensor(np.full(4, 2.5))
    out = T.layer_norm(T.Tensor(np.random.default_rng(3).normal(size=(3, 4))), gamma0, shift)
    np.testing.assert_allclose(out.data, 2.5, rtol=1e-15)


def test_layer_norm_gradients(rng):
    x, gamma, beta = leaf(rng, 3, 6), leaf(rng, 6), leaf(rng, 6)
    w = T.Tensor(rng.normal(size=(3, 6)))
    fd_check(lambda: (T.layer_norm(x, gamma, beta) * w).sum(), [x, gamma, beta])


def test_gap_examples(rng):
    row = rng.normal(size=(1, 5))
    np.testing.assert_array_equal(T.gap(T.Tensor(row)).data, row[0])

    x = T.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(T.gap(x).data, [2.0, 3.0])

    xs = rng.normal(size=(6, 3))
    perm = rng.permutation(6)
    np.testing.assert_allclose(T.gap(T.Tensor(xs)).data, T.gap(T.Tensor(xs[perm])).data,
                               rtol=1e-12)


def test_gap_empty_errors():
    with pytest.raises(ValueError):
        T.gap(T.Tensor(np.zeros((0, 3))))


# ---------------------------------------------------------------------------
# matmul / concat / transpose
# ---------------------------------------------------------------------------


def test_matmul_batched_gradients(rng):
    a, b = leaf(rng, 2, 3, 4, 5), leaf(rng, 2, 3, 5, 6)
    w = T.Tensor(rng.normal(size=(2, 3, 4, 6)))
    fd_check(lambda: (T.matmul(a, b) * w).sum(), [a, b])


def test_concat_and_transpose_gradients(rng):
    a, b = leaf(rng, 2, 3), leaf(rng, 4, 3)
    w = T.Tensor(rng.normal(size=(3, 6)))

    def build():
        cat = T.concat([a, b], axis=0)  # [6, 3]
        return (T.transpose(cat, (1, 0)) * w).sum()

    fd_check(build, [a, b])


# ---------------------------------------------------------------------------
# backward semantics
# ---------------------------------------------------------------------------


def _add_every_vjp(a, b):
    """``tensor.add`` as it was: a gradient for both operands."""
    a, b = T._pair(a, b)
    return T._track(a.data + b.data, (a, b), lambda g: (
        (a, T._unbroadcast(g, a.data.shape)), (b, T._unbroadcast(g, b.data.shape))))


def _mul_every_vjp(a, b):
    """``tensor.mul`` as it was: a gradient for both operands."""
    a, b = T._pair(a, b)
    return T._track(a.data * b.data, (a, b), lambda g: (
        (a, T._unbroadcast(g * b.data, a.data.shape)),
        (b, T._unbroadcast(g * a.data, b.data.shape))))


def test_add_and_mul_skip_the_gradient_of_a_constant(rng):
    x = leaf(rng, 2, 3)
    c = T.Tensor(rng.normal(size=(2, 3)))
    g = np.ones((2, 3))
    for out in (x * 0.5, 0.5 * x, x * c, c * x, x + 1.0, c + x, -x, x - c, c - x, T.gap(x)):
        # one gradient, for the operand on x's side of the graph
        assert [p.requires_grad for p, _ in out._vjp(np.ones(out.shape))] == [True]
    assert [p for p, _ in (x * x)._vjp(g)] == [x, x]


def test_parameter_gradients_unchanged_by_skipping_constant_vjps(monkeypatch):
    from dualtsst import dataio
    from dualtsst.model import DualTsstModel, config_from_preset

    cfg = config_from_preset(dataio.preset("mini"))
    rng = np.random.default_rng(8)
    eeg = rng.normal(size=(3, cfg.n_channels, cfg.n_times))
    tfr = rng.normal(size=(3, cfg.n_channels, cfg.n_freqs, cfg.n_times))

    def grads():
        model = DualTsstModel(cfg, rng=np.random.default_rng(0))
        T.backward(T.cross_entropy(model.forward(eeg, tfr, train=True), np.array([0, 1, 1])))
        return {name: p.grad for name, p in model.params.items()}

    got = grads()
    monkeypatch.setattr(T, "add", _add_every_vjp)
    monkeypatch.setattr(T, "mul", _mul_every_vjp)
    want = grads()
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name


def test_backward_sum_gives_ones():
    x = T.Tensor(np.arange(5.0), requires_grad=True)
    T.backward(x.sum())
    np.testing.assert_array_equal(x.grad, np.ones(5))


def test_backward_quadratic():
    x = T.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    T.backward((x * x).sum())
    np.testing.assert_array_equal(x.grad, [2.0, -4.0])


def test_backward_composed_chain_matches_fd(rng):
    x = leaf(rng, 3, 4)
    w = leaf(rng, 4, 4)

    def build():
        h = T.elu(T.linear(x, w, np.zeros(4)))
        s = T.softmax(h, axis=-1)
        return (s * s).sum()

    for p in (x, w):
        p.zero_grad()
    loss = build()
    T.backward(loss)
    for p in (x, w):
        numeric = central_difference(build, p)
        assert max_relative_error(p.grad, numeric) < 1e-5


def test_backward_accumulates_additively():
    x = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    T.backward(x.sum())
    T.backward(x.sum())
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])


def test_backward_rejects_non_scalar():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        T.backward(x * 2.0)


def test_backward_twice_on_freed_graph_errors():
    x = T.Tensor(np.ones(3), requires_grad=True)
    loss = (x * x).sum()
    T.backward(loss)
    with pytest.raises(ValueError):
        T.backward(loss)


def test_backward_releases_a_node_once_its_vjp_has_run():
    x = T.Tensor(np.ones(3), requires_grad=True)
    released = []

    def probe(t):
        def vjp(g):
            released.append(later() is None)
            return ((t, g),)

        return T._track(t.data.copy(), (t,), vjp)

    def build():
        # ``mid`` is made after the probe, so backward runs its VJP first;
        # Tensor takes no weak reference, its array does
        mid = T.mul(probe(x), 3.0)
        return mid.sum(), weakref.ref(mid.data)

    loss, later = build()
    T.backward(loss)
    assert released == [True]
    np.testing.assert_array_equal(x.grad, np.full(3, 3.0))


def test_stem_drops_its_time_conv_output_before_the_time_conv_gradients(rng, monkeypatch):
    x, kernel, gamma, beta, rm, rv, depthwise = _stem_case(rng, (3, 2, 4, 9), taps=5)
    forward, backward_input = kernels.conv2d_forward, kernels.conv2d_backward_input
    made, alive = [], []

    def recorded_forward(inp, k, *args, **kwargs):
        out = forward(inp, k, *args, **kwargs)
        if k is kernel.data:
            made.append(weakref.ref(out))
        return out

    def checked_backward_input(g, k, shape):
        if k is kernel.data:
            alive.append(made[0]() is not None)
        return backward_input(g, k, shape)

    monkeypatch.setattr(kernels, "conv2d_forward", recorded_forward)
    monkeypatch.setattr(kernels, "conv2d_backward_input", checked_backward_input)
    for train in (True, False):
        made.clear()
        out = T.time_conv_bn_depthwise(x, kernel, gamma, beta, rm, rv, depthwise, train)
        T.backward(out.sum())
    assert alive == [False, False]


def test_no_grad_blocks_recording():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        y = (x * x).sum()
    assert not y.requires_grad


def test_forward_determinism(rng):
    x = rng.normal(size=(2, 3, 6, 8))
    k = rng.normal(size=(4, 3, 1, 3))
    a = T.conv2d(T.Tensor(x), T.Tensor(k)).data
    b = T.conv2d(T.Tensor(x), T.Tensor(k)).data
    assert np.array_equal(a, b)


def test_cross_entropy_gradients(rng):
    logits = leaf(rng, 4, 3)
    labels = np.array([0, 2, 1, 2])
    fd_check(lambda: T.cross_entropy(logits, labels), [logits])
