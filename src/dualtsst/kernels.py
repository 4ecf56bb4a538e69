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
place) takes a fresh one, and a ``weakref.finalize`` drops it when the
kernel array is freed, so no spectrum outlives its model.  At bci2a the
three kept spectra take about 20 MB (7.1 + 12.8 + 0.3 MB) and the kernel
copies 2.5 MB.  The memo saves a fixed cost per call, the kernels' rFFTs
(30-60 ms per eval forward at bci2a on 2 vCPU): a third to a half of a
one-trial forward, a few percent of a 32-trial one.

A batch is transformed a chunk of trials at a time (``_chunks``), so its
spectra are never held at once.  A chunk's spectrum is channel first,
``[F, Cin, B * H]``, so its product is one batched complex ``matmul``:
``F`` GEMMs over ``[Cin, B * H]``.  ``TRIALS_IN_FLIGHT`` chunks run at a
time, one on the calling thread and the others on a thread pool that each
call opens and shuts, and the result is bit-identical to a serial loop.
These chunks are the package's only parallelism: importing the module
sets the OpenBLAS that numpy calls to one thread (``blas_threads`` reads
it back), whatever ``OPENBLAS_NUM_THREADS`` said.  Nested in the chunk
threads, OpenBLAS's own pool competes with them for the same cores: on
2 vCPU, two threads each taking a seed chunk's batched complex product
took a median of 4.7-18.2 ms with OpenBLAS at 2 threads and 3.7-4.4 ms
at 1 (three sets of 100).  At the seed geometry the view-1 time conv's
input and kernel gradients fell from 17.2 and 13.6 ms per trial to 7.0
each (one traced run), and eval went from a median of 47.4 to 77.9
trials/s over 10 benchmark pairs.  The bits do not change.
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

import ctypes
import functools
import operator
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# ---------------------------------------------------------------------------
# temporal convolution by rFFT, a chunk of trials at a time
# ---------------------------------------------------------------------------

# Bytes of transient arrays one chunk of trials may hold: more than the
# 1.4 MB of time-conv spectra of a 64-trial mini batch, less than twice
# the 1.1 MB of one trial's at any bci2a, bci2b or seed time conv.  So a
# mini step batch is one chunk and a full-scale chunk is one trial.  The
# batch-norm moments in ``tensor`` walk the same chunks.  The rule's second
# user is ``dataio.transform_dataset``: a trial's Morlet spectra and power
# take about 11 MB at bci2a, so there too a full-scale chunk is one trial,
# and a mini chunk is about 50 trials.
CHUNK_BYTES = 2 << 20


def _chunks(n, trial_bytes):
    """``range(n)`` as contiguous slices of ``max(1, CHUNK_BYTES // trial_bytes)``."""
    step = max(1, CHUNK_BYTES // trial_bytes)
    return [slice(s, min(s + step, n)) for s in range(0, n, step)]


# Chunks of one batch transformed at a time: the calling thread and
# ``TRIALS_IN_FLIGHT - 1`` chunks on a helper thread.  Fixed rather than
# one per CPU because every chunk in flight holds its spectra (about
# 30-40 MB for the bci2a 125-tap conv; about 11 MB per trial for the
# Morlet transform, ``dataio.transform_dataset``, the second user), and 2
# is the only value whose speed and peak memory have been measured.
TRIALS_IN_FLIGHT = 2


def _per_chunk(fn, chunks):
    """Yield ``fn(s)`` for every slice ``s`` of ``chunks``, in order.

    Chunks run in groups of ``TRIALS_IN_FLIGHT``: the first on the calling
    thread, the others on a pool the call opens and shuts (numpy's FFTs,
    copies and BLAS calls release the GIL), so at most that many results
    are held at once and no thread outlives the call.  ``Future.result``
    raises a helper's exception again on the calling thread; if the calling
    thread's chunk raises, leaving the ``with`` waits for its group's
    helper.  The calling thread works rather than waits because memory
    freed on another thread stays in that thread's malloc arena: a pool
    thread doing every trial left bci2a steps about 100 MiB larger.
    BLAS runs one thread (``_pin_one_blas_thread``), so each chunk in flight
    gets a core of its own rather than sharing both with OpenBLAS's pool.
    """
    with ThreadPoolExecutor(TRIALS_IN_FLIGHT - 1, thread_name_prefix="dualtsst-trial") as pool:
        for first in range(0, len(chunks), TRIALS_IN_FLIGHT):
            rest = [pool.submit(fn, s) for s in chunks[first + 1 : first + TRIALS_IN_FLIGHT]]
            yield fn(chunks[first])
            for future in rest:
                yield future.result()


def _openblas():
    """``(set_num_threads, get_num_threads)`` of the OpenBLAS numpy calls, or None."""
    try:
        # a symbol lookup on numpy's extension module also searches the
        # libraries it links, so this finds the BLAS numpy loaded, not another
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                 "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
        if hasattr(lib, name.format("set")) and hasattr(lib, name.format("get")):
            return getattr(lib, name.format("set")), getattr(lib, name.format("get"))
    return None


def _pin_one_blas_thread():
    """Run numpy's OpenBLAS on one thread, if numpy calls one."""
    global _OPENBLAS
    _OPENBLAS = _openblas()
    if _OPENBLAS is not None:
        _OPENBLAS[0](1)


def blas_threads():
    """Threads the OpenBLAS numpy calls runs on, or None when none was found."""
    return None if _OPENBLAS is None else _OPENBLAS[1]()


_pin_one_blas_thread()


def _spectrum(a, n):
    """rfft of length ``n`` along the last axis of ``a``, as ``[F, len(a), rest]``:
    frequencies first, then ``a``'s first axis, then its middle axes flattened."""
    spec = np.empty((n // 2 + 1,) + a.shape[:-1], dtype=np.result_type(a.dtype, np.complex64))
    # written straight into the frequency-first layout: no second copy is held
    np.fft.rfft(a, n=n, axis=-1, out=np.moveaxis(spec, 0, -1))
    return spec.reshape(len(spec), len(a), -1)


# Kernel spectra, one entry per live kernel array: id(w) -> (rFFT length,
# a copy of w, conj(_spectrum(w, n)) made read-only).  A finalizer on w
# drops its entry when w is freed.
_KERNEL_SPECTRA = {}


def _same_bits(a, b):
    """Whether ``a`` and ``b`` have one dtype, one shape and equal bit patterns."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    bits = np.dtype(f"u{a.dtype.itemsize}")
    return np.array_equal(a.view(bits), b.view(bits))


def _kernel_spectrum(w, n):
    """``conj(_spectrum(w, n))``, ``[F, Cout, Cin]``, read-only, taken once
    per kernel value.

    The entry of ``w`` is reused only at the same ``n`` and while ``w`` has
    the bit pattern of the copy kept with it, so any in-place edit
    (gradcheck's perturbations, a ``-0.0`` turned ``+0.0``) takes a fresh
    spectrum.  A ``weakref.finalize`` registered with a new entry drops it
    when ``w`` is freed, before another array can take ``w``'s id.
    """
    key = id(w)
    entry = _KERNEL_SPECTRA.get(key)
    if entry is not None and entry[0] == n and _same_bits(entry[1], w):
        return entry[2]
    spec = _spectrum(w, n)
    np.conjugate(spec, out=spec)
    spec.flags.writeable = False
    if entry is None:
        weakref.finalize(w, _KERNEL_SPECTRA.pop, key, None)
    _KERNEL_SPECTRA[key] = (n, w.copy(), spec)
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
