"""Convolution and pooling kernels, the hot inner loops of training.

The model's convolutions have two kernel shapes, all stride 1, and one
shape rule (``_path``) picks the path of each from the shapes alone.  Any
other shape, or a stride other than ``(1, 1)``, raises ``ValueError``.

Time convolutions, kernels ``[Cout, Cin, 1, k]`` over a ``Cin``-channel
input, run by one of two paths.

From ``FFT_MIN_TAPS`` taps (the paper's 30 and 125) they are spectral
products along time (Mathieu et al., arXiv:1312.5851).  The rFFT length is
the input length ``W``: the valid outputs ``0..W-k`` never wrap around, so
nothing is padded.

* forward: ``irfft(conj(rfft(w)) @ rfft(x))``, first ``W-k+1`` samples;
* input gradient: ``irfft(rfft(w)^T @ rfft(g))``;
* kernel gradient: ``irfft(sum over trials and rows of conj(rfft(g)) rfft(x))``,
  first ``k`` taps;
* forward followed by a full-height depthwise conv ``d`` (the model's
  inference path, ``conv2d_forward(..., depthwise=d)``):
  ``irfft(sum over h of d[o, h] (conj(rfft(w)) @ rfft(x))[o, h])``, so
  ``Cout`` rows are inverse-transformed instead of ``Cout * H`` (at the
  bci2a view-1 shape 40 rather than 1,600 per trial).  Folding ``d`` into
  the time kernel instead would make a ``[Cout, Cin * H, k]`` kernel whose
  spectrum is about 282 MB at bci2a.

The products are one batched complex ``matmul`` over frequencies, and each
function transforms one trial at a time, so the spectra of a whole batch
are never held at once.  The trials of a batch run ``TRIALS_IN_FLIGHT``
(2) at a time, on the calling thread and a helper thread that is started
for the pair and joined before the call returns (numpy's FFTs, copies and
BLAS calls release the GIL); no thread outlives a call.  Each trial writes
its own slice of the output and the kernel gradient sums the per-trial
products in trial order, so the result is bit-identical to a serial loop.
Direct summation makes one pass over the data per tap; at the paper's
bci2a geometry the spectral path cut the three time convolutions' forward
plus backward from about 7.3 s to 0.26 s per trial (2 vCPU, float64).

Below ``FFT_MIN_TAPS`` taps (the ``mini`` preset's 7 and 9, and the 1-tap
pointwise convs) they loop over the taps with one einsum each, and never
materialise an im2col buffer:

* forward: ``einsum("nchw,oc->nohw")`` per tap;
* input gradient: ``einsum("nohw,oc->nchw")`` per tap;
* kernel gradient: ``einsum("nchw,nohw->oc")`` per tap;
* forward followed by a depthwise conv: the two forwards one after the
  other, bit-identical to two calls.

Depthwise convolutions whose kernel spans the full input height, kernels
``[C, 1, H, 1]`` over a ``C``-channel input of height ``H`` (every
spatial/spectral conv of the model), are one contraction each:

* forward: ``einsum("nchw,ch->ncw")``;
* input gradient: the broadcast product ``g[n, c, 0, w] * k[c, h]``;
* kernel gradient: ``einsum("ncw,nchw->ch")``.

At the raw branch's bci2a shape that is about 5x faster than direct
summation (forward plus both gradients).

All convolutions are valid (no padding) cross-correlations.  Every path is
deterministic.  The tests check all three against a generic grouped,
strided direct-summation convolution: the tap loop matches it bit for bit,
the other two paths in the last few ulps, because the summation orders
differ.
"""

from __future__ import annotations

import functools
import operator
import threading

import numpy as np

# ---------------------------------------------------------------------------
# temporal convolution by rFFT
# ---------------------------------------------------------------------------

# The fewest taps for which a temporal conv runs by rFFT.  At the mini
# preset's geometry (64 samples) the tap loop is faster below about 12
# taps and the rFFT about 2x faster from 16; the paper's 30- and 125-tap
# kernels take the rFFT path, the mini preset's 7 and 9 do not.
FFT_MIN_TAPS = 16


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
# ``TRIALS_IN_FLIGHT - 1`` trials on one helper thread.  Fixed rather than
# one per CPU because every trial in flight holds its spectra (about
# 30-40 MB for the bci2a 125-tap conv), and 2 is the only value whose speed
# and peak memory have been measured.
TRIALS_IN_FLIGHT = 2


def _per_trial(fn, n):
    """Yield ``fn(b)`` for every trial ``b < n``, in trial order.

    Trials run in groups of ``TRIALS_IN_FLIGHT``: ``first`` on the calling
    thread, the others of its group on one short-lived helper thread
    (numpy's FFTs, copies and BLAS calls release the GIL), so at most that
    many results are held at once.  The helper is joined before its results
    are yielded, so no thread outlives its group, and an exception it
    raised is raised again on the calling thread.  The calling thread works
    rather than waits because memory freed on another thread stays in that
    thread's malloc arena: a pool thread doing every trial left bci2a steps
    about 100 MiB larger.
    """
    for first in range(0, n, TRIALS_IN_FLIGHT):
        rest = range(first + 1, min(first + TRIALS_IN_FLIGHT, n))
        done, failed = [], []

        def run_rest():
            try:
                done.extend(map(fn, rest))
            except BaseException as exc:
                failed.append(exc)

        helper = threading.Thread(target=run_rest, name="dualtsst-trial")
        if rest:
            helper.start()
        try:
            yield fn(first)
        finally:
            if rest:
                helper.join()
        if failed:
            raise failed[0]
        yield from done


def _fft_apply(wf, a, out, n, depthwise=None):
    """``out[b] = irfft(wf @ rfft(a[b]))`` for every trial ``b``, rFFT length ``n``.

    ``wf`` is a ``[F, rows, cols]`` kernel spectrum; each result is cut to
    the first ``out.shape[3]`` samples.  A ``[rows, H]`` ``depthwise``
    kernel contracts the product's ``H`` axis before the inverse transform,
    so ``rows`` signals are inverse-transformed instead of ``rows * H``.
    """
    keep = out.shape[3]

    def trial(b):
        spec = wf @ _spectrum(a[b], n)
        if depthwise is not None:
            spec = np.einsum("foh,oh->fo", spec, depthwise)[:, :, None]
        out[b] = _signal(spec, n)[..., :keep]

    list(_per_trial(trial, len(a)))
    return out


# ---------------------------------------------------------------------------
# the shape rule and the three entry points
# ---------------------------------------------------------------------------


def _path(w_shape, x_shape) -> str:
    """``"depthwise"``, ``"fft"`` or ``"taps"``: how a conv of these shapes runs."""
    cout, cin_k, kh, kw = w_shape
    _, cin, h, wd = x_shape
    if cin_k == 1 and cout == cin and kh == h and kw == 1:
        return "depthwise"
    if cin_k == cin and kh == 1 and kw <= wd:
        return "fft" if kw >= FFT_MIN_TAPS else "taps"
    raise ValueError(
        f"kernel {tuple(w_shape)} on input {tuple(x_shape)} is neither a time conv "
        f"[Cout, {cin}, 1, k <= {wd}] nor a full-height depthwise conv [{cin}, 1, {h}, 1]")


def _depthwise_forward(x, w):
    return np.einsum("nchw,ch->ncw", x, w[:, 0, :, 0])[:, :, None, :]


def conv2d_forward(x, w, stride, *, depthwise=None):
    """Valid, stride-1 cross-correlation of ``x`` with ``w``.

    With a full-height ``depthwise`` kernel ``[Cout, 1, H, 1]``, ``w`` must
    be a time conv and the result is ``conv2d_forward(conv2d_forward(x, w,
    stride), depthwise, stride)``, ``[N, Cout, 1, W-k+1]``.  On the rFFT
    path the depthwise sum over ``H`` is taken on the ``[F, Cout, H]``
    product, before the inverse transform, so the ``[N, Cout, H, W-k+1]``
    time-conv output is never built; on the tap loop the two convs run one
    after the other, bit-identical to two calls.
    """
    if tuple(stride) != (1, 1):
        raise ValueError(f"only stride (1, 1) is supported, got {tuple(stride)}")
    path = _path(w.shape, x.shape)
    n, _, h, wd = x.shape
    cout, _, _, k = w.shape
    wo = wd - k + 1
    if depthwise is not None and (path == "depthwise" or depthwise.shape != (cout, 1, h, 1)):
        raise ValueError(f"depthwise kernel {tuple(depthwise.shape)} must follow a time conv "
                         f"{tuple(w.shape)} as [{cout}, 1, {h}, 1]")
    if path == "depthwise":
        return _depthwise_forward(x, w)
    if path == "fft":
        wf = _spectrum(w[:, :, 0, :], wd).conj()  # [F, Cout, Cin]
        if depthwise is None:
            return _fft_apply(wf, x, np.empty((n, cout, h, wo), dtype=x.dtype), wd)
        return _fft_apply(wf, x, np.empty((n, cout, 1, wo), dtype=x.dtype), wd,
                          depthwise[:, 0, :, 0])
    out = np.zeros((n, cout, h, wo), dtype=x.dtype)
    for q in range(k):
        out += np.einsum("nchw,oc->nohw", x[..., q : q + wo], w[:, :, 0, q])
    return out if depthwise is None else _depthwise_forward(out, depthwise)


def conv2d_backward_input(gout, w, x_shape):
    path = _path(w.shape, x_shape)
    if path == "depthwise":
        return gout * w[:, 0]  # [N, C, 1, W] * [C, H, 1]
    wd = x_shape[3]
    if path == "fft":
        wf = _spectrum(w[:, :, 0, :], wd).transpose(0, 2, 1)  # [F, Cin, Cout]
        return _fft_apply(wf, gout, np.empty(x_shape, dtype=gout.dtype), wd)
    wo = gout.shape[3]
    gx = np.zeros(x_shape, dtype=gout.dtype)
    for q in range(w.shape[3]):
        gx[..., q : q + wo] += np.einsum("nohw,oc->nchw", gout, w[:, :, 0, q])
    return gx


def conv2d_backward_kernel(gout, x, w_shape):
    path = _path(w_shape, x.shape)
    if path == "depthwise":
        return np.einsum("ncw,nchw->ch", gout[:, :, 0], x)[:, None, :, None]
    wd = x.shape[3]
    if path == "fft":
        def trial(b):
            gs = _spectrum(gout[b], wd)
            return np.conjugate(gs, out=gs) @ _spectrum(x[b], wd).transpose(0, 2, 1)

        # summed in trial order, so the bits do not depend on thread timing
        acc = functools.reduce(operator.iadd, _per_trial(trial, x.shape[0]))
        gw = _signal(acc, wd)[..., : w_shape[3]]  # [Cout, Cin, k]
        return np.ascontiguousarray(gw[:, :, None, :], dtype=gout.dtype)
    wo = gout.shape[3]
    gw = np.zeros(w_shape, dtype=gout.dtype)
    for q in range(w_shape[3]):
        gw[:, :, 0, q] = np.einsum("nchw,nohw->oc", x[..., q : q + wo], gout)
    return gw


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
