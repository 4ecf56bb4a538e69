"""Convolution and pooling kernels, the hot inner loops of training.

Each convolution takes one of three paths, chosen by the shapes alone.

Temporal convolutions, kernels ``[Cout, Cin, 1, k]`` with ``groups == 1``,
stride ``(1, 1)`` and at least ``FFT_MIN_TAPS`` taps, run as spectral
products along time (Mathieu et al., arXiv:1312.5851).  The rFFT length is
the input length ``W``: the valid outputs ``0..W-k`` never wrap around, so
nothing is padded.

* forward: ``irfft(conj(rfft(w)) @ rfft(x))``, first ``W-k+1`` samples;
* input gradient: ``irfft(rfft(w)^T @ rfft(g))``;
* kernel gradient: ``irfft(sum over trials and rows of conj(rfft(g)) rfft(x))``,
  first ``k`` taps.

The products are one batched complex ``matmul`` over frequencies, and each
function transforms one trial at a time, so the spectra of a whole batch
are never held at once.  The trials of a batch run ``TRIALS_IN_FLIGHT``
(2) at a time, on the calling thread and a pool thread (numpy's FFTs,
copies and BLAS calls release the GIL); each
trial writes its own slice of the output and the kernel gradient sums the
per-trial products in trial order, so the result is bit-identical to a
serial loop.  Direct summation makes one pass over the data per tap; at the
paper's bci2a geometry the spectral path cut the three time convolutions'
forward plus backward from about 7.3 s to 0.26 s per trial (2 vCPU,
float64).

Depthwise convolutions whose kernel spans the full input height, kernels
``[C, 1, H, 1]`` with ``groups == C`` input and output channels and stride
``(1, 1)`` (every spatial/spectral conv of the model), are one contraction
each:

* forward: ``einsum("nchw,ch->ncw")``;
* input gradient: the broadcast product ``g[n, c, 0, w] * k[c, h]``;
* kernel gradient: ``einsum("ncw,nchw->ch")``.

At the raw branch's bci2a shape that is about 5x faster than direct
summation (forward plus both gradients).

Every other convolution (below ``FFT_MIN_TAPS`` taps, as the ``mini``
preset's 7 and 9, pointwise, grouped or strided) is summed directly by
``conv2d_*_np``: a loop over kernel positions that stays inside einsum
calls and never materialises an im2col buffer.  The tests use those three
functions as the oracle for the two fast paths.

All convolutions are valid (no padding) cross-correlations.  Every path is
deterministic; the fast paths differ from direct summation in the last few
ulps because the summation orders differ.
"""

from __future__ import annotations

import functools
import operator
import os
import threading

import numpy as np

# ---------------------------------------------------------------------------
# temporal convolution by rFFT
# ---------------------------------------------------------------------------

# The fewest taps for which a temporal conv runs by rFFT.  At the mini
# preset's geometry (64 samples) direct summation is faster below about 12
# taps and the rFFT about 2x faster from 16; the paper's 30- and 125-tap
# kernels take the rFFT path, the mini preset's 7 and 9 do not.
FFT_MIN_TAPS = 16


def _uses_fft(w_shape, stride, groups) -> bool:
    _, _, kh, kw = w_shape
    return kh == 1 and kw >= FFT_MIN_TAPS and groups == 1 and tuple(stride) == (1, 1)


def _spectrum(a, n):
    """rfft of length ``n`` along the last axis, frequencies moved to the front."""
    spec = np.empty((n // 2 + 1,) + a.shape[:-1], dtype=np.result_type(a.dtype, np.complex64))
    # written straight into the frequency-first layout: no second copy is held
    np.fft.rfft(a, n=n, axis=-1, out=np.moveaxis(spec, 0, -1))
    return spec


def _signal(spec, n):
    """Inverse of :func:`_spectrum`: ``[F, ...]`` back to ``[..., n]``."""
    # a contiguous last-axis irfft beats a strided one by more than the copy
    return np.fft.irfft(np.ascontiguousarray(np.moveaxis(spec, 0, -1)), n=n, axis=-1)


# Trials of one batch transformed at a time: the calling thread and
# ``TRIALS_IN_FLIGHT - 1`` pool threads.  Fixed rather than one per CPU
# because every trial in flight holds its spectra (about 30-40 MB for the
# bci2a 125-tap conv), and 2 is the only value whose speed and peak memory
# have been measured.
TRIALS_IN_FLIGHT = 2

_pool = None
_pool_lock = threading.Lock()


def _forget_pool():
    # a forked child inherits the pool object but none of its threads, and
    # the lock possibly held by a thread that no longer exists
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _submit(fn, *args):
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here: concurrent.futures pulls in logging, about 10 ms of import
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max_workers=TRIALS_IN_FLIGHT - 1,
                                       thread_name_prefix="dualtsst")
    return _pool.submit(fn, *args)


def _per_trial(fn, n):
    """Yield ``fn(b)`` for every trial ``b < n``, in trial order.

    ``TRIALS_IN_FLIGHT`` trials run at a time, one on the calling thread and
    the others on pool threads (numpy's FFTs, copies and BLAS calls release
    the GIL), so at most that many results are held at once.  The calling
    thread works rather than waits because memory freed on a pool thread
    stays in that thread's malloc arena: a pool doing every trial left bci2a
    steps about 100 MiB larger.
    """
    for first in range(0, n, TRIALS_IN_FLIGHT):
        rest = [_submit(fn, b) for b in range(first + 1, min(first + TRIALS_IN_FLIGHT, n))]
        yield fn(first)
        for future in rest:
            yield future.result()


def _tconv_forward_fft(x, w):
    n, _, h, wd = x.shape
    cout, _, _, k = w.shape
    wf = _spectrum(w[:, :, 0, :], wd).conj()  # [F, Cout, Cin]
    out = np.empty((n, cout, h, wd - k + 1), dtype=x.dtype)

    def trial(b):
        out[b] = _signal(wf @ _spectrum(x[b], wd), wd)[..., : wd - k + 1]

    list(_per_trial(trial, n))
    return out


def _tconv_backward_input_fft(gout, w, x_shape):
    wd = x_shape[3]
    wf = _spectrum(w[:, :, 0, :], wd).transpose(0, 2, 1)  # [F, Cin, Cout]
    gx = np.empty(x_shape, dtype=gout.dtype)

    def trial(b):
        gx[b] = _signal(wf @ _spectrum(gout[b], wd), wd)

    list(_per_trial(trial, x_shape[0]))
    return gx


def _tconv_backward_kernel_fft(gout, x, w_shape):
    wd = x.shape[3]

    def trial(b):
        gs = _spectrum(gout[b], wd)
        return np.conjugate(gs, out=gs) @ _spectrum(x[b], wd).transpose(0, 2, 1)

    # summed in trial order, so the bits do not depend on thread timing
    acc = functools.reduce(operator.iadd, _per_trial(trial, x.shape[0]))
    gw = _signal(acc, wd)[..., : w_shape[3]]  # [Cout, Cin, k]
    return np.ascontiguousarray(gw[:, :, None, :], dtype=gout.dtype)


# ---------------------------------------------------------------------------
# depthwise convolution over the full height
# ---------------------------------------------------------------------------


def _uses_depthwise(w_shape, x_shape, stride, groups) -> bool:
    cout, cin_g, kh, kw = w_shape
    return (cin_g == 1 and groups == cout == x_shape[1] and kh == x_shape[2] and kw == 1
            and tuple(stride) == (1, 1))


# ---------------------------------------------------------------------------
# direct summation: every other convolution shape
# ---------------------------------------------------------------------------


def conv2d_forward_np(x, w, stride, groups):
    n, cin, h, wd = x.shape
    cout, cin_g, kh, kw = w.shape
    sh, sw = stride
    ho = (h - kh) // sh + 1
    wo = (wd - kw) // sw + 1
    cout_g = cout // groups
    xg = x.reshape(n, groups, cin_g, h, wd)
    wg = w.reshape(groups, cout_g, cin_g, kh, kw)
    out = np.zeros((n, groups, cout_g, ho, wo), dtype=x.dtype)
    for p in range(kh):
        for q in range(kw):
            xs = xg[:, :, :, p : p + sh * ho : sh, q : q + sw * wo : sw]
            out += np.einsum("ngihw,goi->ngohw", xs, wg[:, :, :, p, q])
    return out.reshape(n, cout, ho, wo)


def conv2d_backward_input_np(gout, w, x_shape, stride, groups):
    n, cin, h, wd = x_shape
    cout, cin_g, kh, kw = w.shape
    sh, sw = stride
    ho, wo = gout.shape[2], gout.shape[3]
    cout_g = cout // groups
    go = gout.reshape(n, groups, cout_g, ho, wo)
    wg = w.reshape(groups, cout_g, cin_g, kh, kw)
    gx = np.zeros(x_shape, dtype=gout.dtype).reshape(n, groups, cin_g, h, wd)
    for p in range(kh):
        for q in range(kw):
            contrib = np.einsum("ngohw,goi->ngihw", go, wg[:, :, :, p, q])
            gx[:, :, :, p : p + sh * ho : sh, q : q + sw * wo : sw] += contrib
    return gx.reshape(x_shape)


def conv2d_backward_kernel_np(gout, x, w_shape, stride, groups):
    cout, cin_g, kh, kw = w_shape
    n, cin, h, wd = x.shape
    sh, sw = stride
    ho, wo = gout.shape[2], gout.shape[3]
    cout_g = cout // groups
    xg = x.reshape(n, groups, cin_g, h, wd)
    go = gout.reshape(n, groups, cout_g, ho, wo)
    gw = np.zeros((groups, cout_g, cin_g, kh, kw), dtype=gout.dtype)
    for p in range(kh):
        for q in range(kw):
            xs = xg[:, :, :, p : p + sh * ho : sh, q : q + sw * wo : sw]
            gw[:, :, :, p, q] = np.einsum("ngihw,ngohw->goi", xs, go)
    return gw.reshape(w_shape)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def conv2d_forward(x, w, stride, groups):
    if _uses_fft(w.shape, stride, groups):
        return _tconv_forward_fft(x, w)
    if _uses_depthwise(w.shape, x.shape, stride, groups):
        return np.einsum("nchw,ch->ncw", x, w[:, 0, :, 0])[:, :, None, :]
    return conv2d_forward_np(x, w, stride, groups)


def conv2d_backward_input(gout, w, x_shape, stride, groups):
    if _uses_fft(w.shape, stride, groups):
        return _tconv_backward_input_fft(gout, w, x_shape)
    if _uses_depthwise(w.shape, x_shape, stride, groups):
        return gout * w[:, 0]  # [N, C, 1, W] * [C, H, 1]
    return conv2d_backward_input_np(gout, w, x_shape, stride, groups)


def conv2d_backward_kernel(gout, x, w_shape, stride, groups):
    if _uses_fft(w_shape, stride, groups):
        return _tconv_backward_kernel_fft(gout, x, w_shape)
    if _uses_depthwise(w_shape, x.shape, stride, groups):
        return np.einsum("ncw,nchw->ch", gout[:, :, 0], x)[:, None, :, None]
    return conv2d_backward_kernel_np(gout, x, w_shape, stride, groups)


# ---------------------------------------------------------------------------
# average pooling along time
# ---------------------------------------------------------------------------


def avgpool_forward(x, k, s):
    win = np.lib.stride_tricks.sliding_window_view(x, k, axis=3)[:, :, :, ::s]
    return win.mean(axis=-1)


def avgpool_backward(gout, k, s, w_in):
    n, c, h, wo = gout.shape
    gx = np.zeros((n, c, h, w_in), dtype=gout.dtype)
    g = gout / k
    for q in range(k):
        gx[:, :, :, q : q + s * wo : s] += g
    return gx
