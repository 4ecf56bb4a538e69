"""Convolution and pooling kernels, the hot inner loops of training.

The model's convolutions have three kernel shapes, all stride 1, and one
shape rule (``_path``) names the shape from the kernel and input shapes
alone; each shape has one path.  Any other shape, or a stride other than
``(1, 1)``, raises ``ValueError``.

Pointwise convolutions, kernels ``[Cout, Cin, 1, 1]``, are one einsum per
pass: ``"nchw,oc->nohw"`` forward, ``"nohw,oc->nchw"`` for the input
gradient and ``"nchw,nohw->oc"`` for the kernel gradient.

Time convolutions, kernels ``[Cout, Cin, 1, k]`` with ``k >= 2`` over a
``Cin``-channel input, are spectral products along time (Mathieu et al.,
arXiv:1312.5851).  The rFFT length is the input length ``W``: the valid
outputs ``0..W-k`` never wrap around, so nothing is padded.

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

A time kernel's spectrum is taken once per kernel value, not once per call
(``_kernel_spectrum``): the forward, the fused forward and the input
gradient share one read-only ``conj(rfft(w))`` per kernel array.  It is
reused only while the array's bit pattern equals a copy kept with it, so
an in-place edit (gradcheck's perturbations, an optimiser writing in
place) takes a fresh one, and it is dropped when the kernel array is
freed, so no spectrum outlives its model.  At bci2a the three kept spectra
take about 20 MB (7.1 + 12.8 + 0.3 MB) and the kernel copies 2.5 MB.  The
memo saves a fixed cost per call, the kernels' rFFTs (30-60 ms per eval
forward at bci2a on 2 vCPU): a third to a half of a one-trial forward, a
few percent of a 32-trial one.

A batch is transformed a chunk of trials at a time (``_chunks``), so its
spectra are never held at once.  A chunk's spectrum is channel first,
``[F, Cin, B * H]``, so its product is one batched complex ``matmul``:
``F`` GEMMs over ``[Cin, B * H]``.  ``TRIALS_IN_FLIGHT`` chunks run at a
time, and the result is bit-identical to a serial loop over the chunks.
Direct summation makes one pass over the data per tap; at the paper's
bci2a geometry the spectral path cut the three time convolutions' forward
plus backward from about 7.3 s to 0.26 s per trial (2 vCPU, float64).

Depthwise convolutions whose kernel spans the full input height, kernels
``[C, 1, H, 1]`` over a ``C``-channel input of height ``H`` (every
spatial/spectral conv of the model), are one contraction each:

* forward: ``einsum("nchw,ch->ncw")``;
* input gradient: the broadcast product ``g[n, c, 0, w] * k[c, h]``;
* kernel gradient: ``einsum("ncw,nchw->ch")``.

At the raw branch's bci2a shape that is about 5x faster than direct
summation (forward plus both gradients).

All convolutions are valid (no padding), deterministic cross-correlations.
The tests check each path against a direct-summation oracle: the pointwise
path bit for bit, the other two, which sum in another order, to a few ulps.
"""

from __future__ import annotations

import functools
import operator
import threading
import weakref

import numpy as np

# ---------------------------------------------------------------------------
# temporal convolution by rFFT, a chunk of trials at a time
# ---------------------------------------------------------------------------

# Bytes of transient arrays one chunk of trials may hold: more than the
# 1.4 MB of time-conv spectra of a 64-trial mini batch, less than twice
# the 1.1 MB of one trial's at any bci2a, bci2b or seed time conv.  So a
# mini step batch is one chunk and a full-scale chunk is one trial.  The
# batch-norm moments in ``tensor`` walk the same chunks.
CHUNK_BYTES = 2 << 20


def _chunks(n, trial_bytes):
    """``range(n)`` as contiguous slices of ``max(1, CHUNK_BYTES // trial_bytes)``."""
    step = max(1, CHUNK_BYTES // trial_bytes)
    return [slice(s, min(s + step, n)) for s in range(0, n, step)]


# Chunks of one batch transformed at a time: the calling thread and
# ``TRIALS_IN_FLIGHT - 1`` chunks on one helper thread.  Fixed rather than
# one per CPU because every chunk in flight holds its spectra (about
# 30-40 MB for the bci2a 125-tap conv), and 2 is the only value whose speed
# and peak memory have been measured.
TRIALS_IN_FLIGHT = 2


def _per_chunk(fn, chunks):
    """Yield ``fn(s)`` for every slice ``s`` of ``chunks``, in order.

    Chunks run in groups of ``TRIALS_IN_FLIGHT``: the first on the calling
    thread, the others of its group on one short-lived helper thread
    (numpy's FFTs, copies and BLAS calls release the GIL), so at most that
    many results are held at once.  The helper is joined before its results
    are yielded, so no thread outlives its group, and an exception it
    raised is raised again on the calling thread.  The calling thread works
    rather than waits because memory freed on another thread stays in that
    thread's malloc arena: a pool thread doing every trial left bci2a steps
    about 100 MiB larger.
    """
    for first in range(0, len(chunks), TRIALS_IN_FLIGHT):
        rest = chunks[first + 1 : first + TRIALS_IN_FLIGHT]
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
            yield fn(chunks[first])
        finally:
            if rest:
                helper.join()
        if failed:
            raise failed[0]
        yield from done


def _spectrum(a, n):
    """rfft of length ``n`` along the last axis of ``a``, as ``[F, len(a), rest]``:
    frequencies first, then ``a``'s first axis, then its middle axes flattened."""
    spec = np.empty((n // 2 + 1,) + a.shape[:-1], dtype=np.result_type(a.dtype, np.complex64))
    # written straight into the frequency-first layout: no second copy is held
    np.fft.rfft(a, n=n, axis=-1, out=np.moveaxis(spec, 0, -1))
    return spec.reshape(len(spec), len(a), -1)


# Kernel spectra, one entry per live kernel array: id(w) -> (weakref to w,
# rFFT length, a copy of w, conj(_spectrum(w, n)) made read-only).
_KERNEL_SPECTRA = {}


def _same_bits(a, b):
    """Whether ``a`` and ``b`` have one dtype, one shape and equal bit patterns."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    bits = np.dtype(f"u{a.dtype.itemsize}")
    return np.array_equal(a.view(bits), b.view(bits))


def _forget(key, ref):
    """weakref callback: drop the entry of the kernel array that died."""
    entry = _KERNEL_SPECTRA.get(key)
    if entry is not None and entry[0] is ref:
        del _KERNEL_SPECTRA[key]


def _kernel_spectrum(w, n):
    """``conj(_spectrum(w, n))``, ``[F, Cout, Cin]``, read-only, taken once
    per kernel value.

    The entry of ``w`` is reused only while ``w`` is the same live array, at
    the same ``n``, with the bit pattern of the copy kept with it, so any
    in-place edit (gradcheck's perturbations, a ``-0.0`` turned ``+0.0``)
    takes a fresh spectrum.  The entry dies with ``w``.
    """
    key = id(w)
    entry = _KERNEL_SPECTRA.get(key)
    if entry is not None and entry[0]() is w and entry[1] == n and _same_bits(entry[2], w):
        return entry[3]
    spec = _spectrum(w, n)
    np.conjugate(spec, out=spec)
    spec.flags.writeable = False
    _KERNEL_SPECTRA[key] = (weakref.ref(w, functools.partial(_forget, key)), n, w.copy(), spec)
    return spec


def _signal(spec, n):
    """Inverse of :func:`_spectrum`: ``[F, ...]`` back to ``[..., n]``."""
    # a contiguous last-axis irfft beats a strided one by more than the copy
    return np.fft.irfft(np.ascontiguousarray(np.moveaxis(spec, 0, -1)), n=n, axis=-1)


def _time_chunks(a, rows, n):
    """``_chunks`` of ``a`` by the bytes of a trial's spectra, its own and ``rows`` more."""
    itemsize = np.result_type(a.dtype, np.complex64).itemsize
    return _chunks(len(a), (n // 2 + 1) * a.shape[2] * (a.shape[1] + rows) * itemsize)


def _fft_apply(wf, a, out, n, depthwise=None):
    """``out[b] = irfft(wf @ rfft(a[b]))`` for every trial ``b``, rFFT length ``n``.

    ``wf`` is a ``[F, rows, cols]`` kernel spectrum; each result is cut to
    the first ``out.shape[3]`` samples.  A ``[rows, H]`` ``depthwise``
    kernel contracts the product's ``H`` axis before the inverse transform,
    so ``rows`` signals are inverse-transformed instead of ``rows * H``.
    """
    f, rows, _ = wf.shape
    h, keep = a.shape[2], out.shape[3]

    def chunk(s):
        spec = (wf @ _spectrum(a[s].transpose(1, 0, 2, 3), n)).reshape(f, rows, -1, h)
        if depthwise is not None:
            spec = np.einsum("fobh,oh->fob", spec, depthwise)[..., None]
        out[s] = _signal(spec.transpose(0, 2, 1, 3), n)[..., :keep]

    list(_per_chunk(chunk, _time_chunks(a, rows, n)))
    return out


# ---------------------------------------------------------------------------
# the shape rule and the three entry points
# ---------------------------------------------------------------------------


def _path(w_shape, x_shape) -> str:
    """``"pointwise"``, ``"time"`` or ``"depthwise"``: the shape of a conv."""
    cout, cin_k, kh, kw = w_shape
    _, cin, h, wd = x_shape
    if cin_k == cin and kh == 1 and kw <= wd:
        return "pointwise" if kw == 1 else "time"
    if cin_k == 1 and cout == cin and kh == h and kw == 1:
        return "depthwise"
    raise ValueError(
        f"kernel {tuple(w_shape)} on input {tuple(x_shape)} is neither a time conv "
        f"[Cout, {cin}, 1, k <= {wd}] nor a full-height depthwise conv [{cin}, 1, {h}, 1]")


def _depthwise_forward(x, w):
    return np.einsum("nchw,ch->ncw", x, w[:, 0, :, 0])[:, :, None, :]


def conv2d_forward(x, w, stride, *, depthwise=None):
    """Valid, stride-1 cross-correlation of ``x`` with ``w``.

    With a full-height ``depthwise`` kernel ``[Cout, 1, H, 1]``, ``w`` must
    be a time or pointwise conv and the result is
    ``conv2d_forward(conv2d_forward(x, w, stride), depthwise, stride)``,
    ``[N, Cout, 1, W-k+1]``.  For a time conv the depthwise sum over ``H``
    is taken on the ``[F, Cout, H]`` product, before the inverse transform,
    so the ``[N, Cout, H, W-k+1]`` time-conv output is never built; a
    pointwise conv and the depthwise conv run one after the other.
    """
    if tuple(stride) != (1, 1):
        raise ValueError(f"only stride (1, 1) is supported, got {tuple(stride)}")
    path = _path(w.shape, x.shape)
    n, _, h, wd = x.shape
    cout, _, _, k = w.shape
    if depthwise is not None and (path == "depthwise" or depthwise.shape != (cout, 1, h, 1)):
        raise ValueError(f"depthwise kernel {tuple(depthwise.shape)} must follow a time conv "
                         f"{tuple(w.shape)} as [{cout}, 1, {h}, 1]")
    if path == "depthwise":
        return _depthwise_forward(x, w)
    if path == "pointwise":
        out = np.einsum("nchw,oc->nohw", x, w[:, :, 0, 0])
        return out if depthwise is None else _depthwise_forward(out, depthwise)
    wf = _kernel_spectrum(w, wd)  # [F, Cout, Cin]
    if depthwise is None:
        return _fft_apply(wf, x, np.empty((n, cout, h, wd - k + 1), dtype=x.dtype), wd)
    return _fft_apply(wf, x, np.empty((n, cout, 1, wd - k + 1), dtype=x.dtype), wd,
                      depthwise[:, 0, :, 0])


def conv2d_backward_input(gout, w, x_shape):
    path = _path(w.shape, x_shape)
    if path == "depthwise":
        return gout * w[:, 0]  # [N, C, 1, W] * [C, H, 1]
    if path == "pointwise":
        return np.einsum("nohw,oc->nchw", gout, w[:, :, 0, 0])
    wd = x_shape[3]
    wf = _kernel_spectrum(w, wd).conj().transpose(0, 2, 1)  # [F, Cin, Cout]
    return _fft_apply(wf, gout, np.empty(x_shape, dtype=gout.dtype), wd)


def conv2d_backward_kernel(gout, x, w_shape):
    path = _path(w_shape, x.shape)
    if path == "depthwise":
        return np.einsum("ncw,nchw->ch", gout[:, :, 0], x)[:, None, :, None]
    if path == "pointwise":
        return np.einsum("nchw,nohw->oc", x, gout)[:, :, None, None]
    wd = x.shape[3]

    def chunk(s):
        gs = _spectrum(gout[s].transpose(1, 0, 2, 3), wd)  # [F, Cout, B * H]
        xs = _spectrum(x[s].transpose(1, 0, 2, 3), wd)  # [F, Cin, B * H]
        return np.conjugate(gs, out=gs) @ xs.transpose(0, 2, 1)

    # summed in trial order, so the bits do not depend on thread timing
    acc = functools.reduce(operator.iadd, _per_chunk(chunk, _time_chunks(x, w_shape[0], wd)))
    gw = _signal(acc, wd)[..., : w_shape[3]]  # [Cout, Cin, k]
    return np.ascontiguousarray(gw[:, :, None, :], dtype=gout.dtype)


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
