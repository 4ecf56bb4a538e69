"""Correctness oracles, computed apart from the program.

Each oracle either recomputes a result from its documented definition
(Morlet power by direct quadrature, accuracy and Cohen's kappa, the cosine
learning rate) or checks a property the method must have (an empty
spectrum outside the pass band, single same-class donors per augmented
segment, a gradient that matches a central difference of the loss).
Nothing here imports the dualtsst package; the caller passes program
objects in.  Every check returns ``(ok, detail)``.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

# float32 rounding is at most half an ulp: 2**-24 relative
F32_REL = 2.0 ** -23
GRAD_TOL = 1e-3


# ---------------------------------------------------------------------------
# tensor files
# ---------------------------------------------------------------------------


def read_eegt(path) -> np.ndarray:
    """Read an ``.eegt`` tensor file from its documented layout: magic
    ``EEGT``, u32 version, u8 ndim, ndim x u32 extents, float32 payload."""
    blob = Path(path).read_bytes()
    if blob[:4] != b"EEGT":
        raise ValueError(f"{path}: bad magic")
    _, ndim = struct.unpack_from("<IB", blob, 4)
    shape = struct.unpack_from(f"<{ndim}I", blob, 9)
    return np.frombuffer(blob, dtype="<f4", offset=9 + 4 * ndim).reshape(shape)


# ---------------------------------------------------------------------------
# Morlet power
# ---------------------------------------------------------------------------


def morlet_taps(freqs, fs: float) -> np.ndarray:
    """Complex Morlet taps [F, K]: sigma_t = 1/(4 pi) s for every frequency,
    support +-5 sigma_t sampled at 1/fs, Gaussian exp(-t^2 / (2 sigma_t^2)),
    L2-normalised."""
    sigma = 1.0 / (4.0 * math.pi)
    half = int(math.floor(5.0 * sigma * fs))
    t = np.arange(-half, half + 1) / fs
    freqs = np.asarray(freqs, dtype=np.float64)[:, None]
    taps = np.exp(-(t ** 2) / (2.0 * sigma ** 2)) * np.exp(2j * np.pi * freqs * t)
    return taps / np.sqrt(np.sum(np.abs(taps) ** 2, axis=1, keepdims=True))


def morlet_power(x, freqs, fs: float) -> np.ndarray:
    """Power [ch, F, T] of [ch, T] by direct summation over the taps, with
    the signal reflect-padded by half the support."""
    x = np.asarray(x, dtype=np.float64)
    taps = morlet_taps(freqs, fs)
    half = (taps.shape[1] - 1) // 2
    xp = np.pad(x, ((0, 0), (half, half)), mode="reflect")
    windows = np.lib.stride_tricks.sliding_window_view(xp, taps.shape[1], axis=-1)
    coef = windows @ taps.T  # [ch, T, F]
    return np.transpose(coef.real ** 2 + coef.imag ** 2, (0, 2, 1))


def check_sidecar(sidecar, expected) -> tuple:
    """A stored float32 sidecar equals the float64 oracle up to float32
    rounding, plus a 1e-9 floor relative to each channel's peak power for
    the transform's own float64 round-off."""
    sidecar = np.asarray(sidecar, dtype=np.float64)
    if sidecar.shape != expected.shape:
        return False, f"shape {sidecar.shape} != {expected.shape}"
    floor = 1e-9 * expected.max(axis=(1, 2), keepdims=True)
    err = np.abs(sidecar - expected) / (F32_REL * np.abs(expected) + floor)
    worst = float(err.max())
    return worst <= 1.0, f"max error {worst:.3g} of the float32 tolerance"


def bandpass(x, fs: float, lo: float, hi: float) -> np.ndarray:
    """Brickwall band-pass by zeroing rFFT bins outside [lo, hi]."""
    spec = np.fft.rfft(np.asarray(x, dtype=np.float64), axis=-1)
    f = np.fft.rfftfreq(np.shape(x)[-1], 1.0 / fs)
    spec[..., (f < lo - 1e-9) | (f > hi + 1e-9)] = 0.0
    return np.fft.irfft(spec, n=np.shape(x)[-1], axis=-1)


def check_band_empty(x, fs: float, lo: float, hi: float) -> tuple:
    """The spectrum of ``x`` [..., T] is zero outside [lo, hi], relative to
    its largest bin."""
    mag = np.abs(np.fft.rfft(np.asarray(x, dtype=np.float64), axis=-1))
    f = np.fft.rfftfreq(np.shape(x)[-1], 1.0 / fs)
    outside = (f < lo - 1e-9) | (f > hi + 1e-9)
    ratio = float(mag[..., outside].max() / mag.max()) if outside.any() else 0.0
    return ratio <= 1e-9, f"largest out-of-band bin {ratio:.3g} of the peak"


def check_peak_frequency(power, labels, class_freqs, freqs) -> tuple:
    """Each trial's power [n, ch, F, T], averaged over channels and time,
    peaks at its class frequency."""
    freqs = np.asarray(freqs, dtype=np.float64)
    peaks = freqs[np.argmax(np.asarray(power).mean(axis=(1, 3)), axis=1)]
    want = np.asarray([class_freqs[int(k)] for k in labels])
    bad = np.nonzero(peaks != want)[0]
    return bad.size == 0, f"{bad.size} of {len(want)} trials peak off their class frequency"


# ---------------------------------------------------------------------------
# evaluation statistics
# ---------------------------------------------------------------------------


def accuracy_kappa(labels, preds, n_classes: int) -> tuple:
    """Accuracy and Cohen's kappa with marginal-product chance agreement."""
    labels = np.asarray(labels, dtype=np.int64)
    preds = np.asarray(preds, dtype=np.int64)
    n = labels.size
    p_o = float(np.sum(labels == preds)) / n
    p_e = sum(float(np.sum(labels == k)) * float(np.sum(preds == k))
              for k in range(n_classes)) / (n * n)
    kappa = 1.0 if p_e == 1.0 else (p_o - p_e) / (1.0 - p_e)
    return p_o, kappa


def check_report(report, labels, preds, n_classes: int) -> tuple:
    acc, kappa = accuracy_kappa(labels, preds, n_classes)
    ok = math.isclose(report.accuracy, acc, rel_tol=1e-12, abs_tol=1e-15) and \
        math.isclose(report.kappa, kappa, rel_tol=1e-12, abs_tol=1e-15)
    return ok, (f"report acc {report.accuracy!r} kappa {report.kappa!r}, "
                f"recomputed acc {acc!r} kappa {kappa!r}")


# ---------------------------------------------------------------------------
# training log
# ---------------------------------------------------------------------------


def cosine_lr(epoch: int, lr_max: float, lr_min: float, cycle: int) -> float:
    t = epoch % cycle
    return lr_min + (lr_max - lr_min) * (1.0 + math.cos(math.pi * t / cycle)) / 2.0


def read_log_csv(path) -> list:
    """Rows of ``log.csv`` as dicts of floats (test_acc None when blank)."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        rows.append({k: (float(v) if v != "" else None) for k, v in row.items()})
    return rows


def check_log(rows, epochs: int, lr_max: float, lr_min: float, cycle: int) -> tuple:
    """Every epoch is logged, its loss is finite and its learning rate is
    the cosine schedule."""
    if [int(r["epoch"]) for r in rows] != list(range(epochs)):
        return False, f"logged epochs {[r['epoch'] for r in rows]} != 0..{epochs - 1}"
    for r in rows:
        if not math.isfinite(r["loss"]):
            return False, f"non-finite loss at epoch {int(r['epoch'])}"
        want = cosine_lr(int(r["epoch"]), lr_max, lr_min, cycle)
        if not math.isclose(r["lr"], want, rel_tol=1e-12):
            return False, f"epoch {int(r['epoch'])} lr {r['lr']!r} != cosine {want!r}"
    return True, f"{epochs} epochs, finite losses, cosine learning rates"


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


def segment_bounds(n_times: int, segments: int) -> list:
    """Contiguous segments whose lengths differ by at most one, the longer
    ones first."""
    base, extra = divmod(n_times, segments)
    stops = np.cumsum([base + (1 if i < extra else 0) for i in range(segments)])
    return list(zip([0, *stops[:-1]], stops))


def check_donors(aug_eeg, aug_tfr, aug_labels, pool_eeg, pool_tfr, pool_labels,
                 segments: int) -> tuple:
    """Every segment of every augmented trial copies both its EEG and its
    TFR samples from one pool trial of the same class."""
    bounds = segment_bounds(aug_eeg.shape[-1], segments)
    for i, label in enumerate(aug_labels):
        donors = np.nonzero(np.asarray(pool_labels) == label)[0]
        for s, e in bounds:
            if not any(np.array_equal(pool_eeg[d][..., s:e], aug_eeg[i][..., s:e])
                       and np.array_equal(pool_tfr[d][..., s:e], aug_tfr[i][..., s:e])
                       for d in donors):
                return False, f"augmented trial {i}, samples {s}:{e}: no single same-class donor"
    return True, f"{len(aug_labels)} augmented trials x {segments} segments"


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def check_directional_derivative(loss_at, params: dict, grads: dict,
                                 rng: np.random.Generator, h: float = 1e-4) -> tuple:
    """<grad, d> against (L(theta + h d) - L(theta - h d)) / 2h for a random
    unit direction d over every parameter.

    ``params`` maps names to objects with a ``.data`` array; ``loss_at()``
    returns the loss as a float for the current ``.data`` values.
    """
    direction = {k: rng.standard_normal(p.data.shape) for k, p in params.items()}
    norm = math.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
    analytic = sum(float(np.sum(grads[k] * d)) for k, d in direction.items()) / norm
    original = {k: p.data for k, p in params.items()}
    losses = []
    try:
        for sign in (1.0, -1.0):
            for k, p in params.items():
                p.data = original[k] + (sign * h / norm) * direction[k]
            losses.append(loss_at())
    finally:
        for k, p in params.items():
            p.data = original[k]
    numeric = (losses[0] - losses[1]) / (2.0 * h)
    rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
    return rel < GRAD_TOL, (f"<grad, d> {analytic:.9g} vs central difference {numeric:.9g}, "
                            f"relative error {rel:.3g} (< {GRAD_TOL:g})")


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def check_float32_close(before: dict, after: dict) -> tuple:
    """Every named array comes back equal up to float32 rounding."""
    far = [k for k in before
           if k not in after or after[k].shape != before[k].shape
           or np.any(np.abs(after[k] - before[k]) > F32_REL * np.abs(before[k]))]
    return not far, (f"{len(far)} of {len(before)} tensors differ beyond float32 rounding"
                     + (f", first {far[0]}" if far else ""))


def check_bit_identical(before: dict, after: dict) -> tuple:
    """Every named array comes back with the same dtype and bits."""
    changed = [k for k in before
               if k not in after or before[k].dtype != after[k].dtype
               or before[k].tobytes() != after[k].tobytes()]
    return not changed, (f"{len(changed)} of {len(before)} tensors changed"
                         + (f", first {changed[0]}" if changed else ""))
