"""Raw-EEG preprocessing: band filtering, epoching, Morlet time-frequency
transform, and Z-score normalisation.

The time-frequency view uses a complex Morlet wavelet per analysis
frequency.  The wavelet width follows the half-frequency cycle rule
(``n_cycles = freq / 2``), which gives a temporal standard deviation of

    sigma_t = n_cycles / (2 * pi * freq) = 1 / (4 * pi) seconds

for every frequency, so every frequency shares one support of k taps.
Taps are sampled on [-5 sigma_t, +5 sigma_t] at the signal's sampling
interval and L2-normalised; the Gaussian envelope is
exp(-t^2 / (2 sigma_t^2)), the standard temporal-std convention.  Signals
are reflect-padded by half the support so the output keeps the input's
length, and power |W|^2 is returned.

The convolution runs as a circular FFT product of the padded signal
(n_t + k - 1 samples) with the taps.  Only the n_t outputs k-1 .. n_t+k-2
are kept, and each of them reads k padded samples that lie wholly inside
the padded signal, so none of them wraps: a circular length of
n_t + k - 1 suffices.  It is rounded up to the next 2^a 3^b 5^c length
(``fft_length``), since numpy's FFT falls back to a slow Bluestein
transform at lengths with a large prime factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

#: slices with a standard deviation below this are emitted as zeros
ZSCORE_GUARD = 1e-12


@dataclass
class MorletPlan:
    """Complex Morlet taps ``[F, k]`` for a fixed sampling rate, one row per
    frequency, all on one support of k taps."""

    freqs: np.ndarray
    fs: float
    taps: np.ndarray = field(init=False)
    _spectra: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=np.float64)
        if self.freqs.size == 0:
            raise DataError("frequency grid is empty")
        if np.any(self.freqs <= 0):
            raise DataError("analysis frequencies must be positive")
        if np.any(np.diff(self.freqs) <= 0):
            raise DataError("analysis frequencies must be strictly ascending")
        if self.fs <= 0:
            raise DataError(f"sampling rate must be positive, got {self.fs}")
        aliased = self.freqs[self.freqs >= self.fs / 2]
        if aliased.size:
            raise DataError(f"analysis frequencies must be below fs/2 = {self.fs / 2:g} Hz, "
                            f"got {', '.join(f'{f:g}' for f in aliased)} Hz")
        sigma_t = self.freqs / 2.0 / (2.0 * np.pi * self.freqs)  # n_cycles = freq / 2
        # the support is +-5 sigma_t with the rule's sigma_t = 1/(4 pi); the
        # per-frequency sigma_t above differ from it only in the last ulp
        half = int(math.floor(5.0 * self.fs / (4.0 * math.pi)))
        t = np.arange(-half, half + 1) / self.fs
        self.taps = np.stack([self._make_taps(f, s, t) for f, s in zip(self.freqs, sigma_t)])

    @staticmethod
    def _make_taps(freq: float, sigma_t: float, t: np.ndarray) -> np.ndarray:
        w = np.exp(-(t ** 2) / (2.0 * sigma_t ** 2)) * np.exp(2j * np.pi * freq * t)
        return w / np.sqrt(np.sum(np.abs(w) ** 2))

    @property
    def n_freqs(self) -> int:
        return self.freqs.size

    @property
    def support(self) -> int:
        return self.taps.shape[1]

    def circular_length(self, n_t: int) -> int:
        """The FFT length ``morlet_power`` uses on ``n_t``-sample signals:
        ``fft_length`` of the reflect-padded length ``n_t + k - 1``."""
        return fft_length(n_t + self.support - 1)

    def spectrum(self, n: int) -> np.ndarray:
        """The taps' ``n``-point FFT ``[F, n]``, computed once per length.
        Not locked: a caller that runs transforms on several threads takes
        it once first."""
        if n not in self._spectra:
            self._spectra[n] = np.fft.fft(self.taps, n, axis=-1)
        return self._spectra[n]


def make_morlet_plan(freqs, fs: float) -> MorletPlan:
    return MorletPlan(freqs=np.asarray(freqs, dtype=np.float64), fs=fs)


# ---------------------------------------------------------------------------
# filtering / epoching
# ---------------------------------------------------------------------------


def bandpass_array(x: np.ndarray, fs: float, f_lo: float, f_hi: float) -> np.ndarray:
    """Brickwall FFT filter: keep bins with f_lo <= f <= f_hi, zero the rest.

    Zero-phase and idempotent; the output length equals the input length.
    """
    x = np.asarray(x, dtype=np.float64)
    if not (0.0 <= f_lo < f_hi <= fs / 2.0 + 1e-9):
        raise DataError(f"invalid band [{f_lo}, {f_hi}] for fs={fs}")
    spec = np.fft.rfft(x, axis=-1)
    f = np.fft.rfftfreq(x.shape[-1], 1.0 / fs)
    keep = (f >= f_lo - 1e-9) & (f <= f_hi + 1e-9)
    spec[..., ~keep] = 0.0
    return np.fft.irfft(spec, n=x.shape[-1], axis=-1)


def epoch_array(x: np.ndarray, fs: float, t_start: float, t_end: float) -> np.ndarray:
    """Extract the window [t_start, t_end) seconds; round((t_end-t_start)*fs) samples."""
    x = np.asarray(x)
    total = x.shape[-1]
    if not (0.0 <= t_start < t_end and (t_end - t_start) * fs < math.inf):
        raise DataError(f"invalid window [{t_start}, {t_end}]")
    i0 = int(round(t_start * fs))
    n = int(round((t_end - t_start) * fs))
    if i0 + n > total:
        raise DataError(
            f"window [{t_start}, {t_end}] s needs {i0 + n} samples, recording has {total}"
        )
    return np.array(x[..., i0 : i0 + n])


# ---------------------------------------------------------------------------
# Morlet transform
# ---------------------------------------------------------------------------


def fft_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c that is >= n (n >= 1)."""
    while True:
        r = n
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return n
        n += 1


def morlet_power(x: np.ndarray, plan: MorletPlan) -> np.ndarray:
    """Morlet power of [ch, T] -> [ch, F, T].

    Each channel is reflect-padded by half the wavelet support k, so it
    has T + k - 1 samples, and convolved with each frequency's complex taps
    by a circular FFT of ``fft_length(T + k - 1)`` points.  The T outputs
    kept (k-1 .. T+k-2) never wrap, since each reads only padded samples.
    The result is squared.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DataError(f"morlet_power expects [ch, T], got shape {x.shape}")
    ch, n_t = x.shape
    k = plan.support
    half = (k - 1) // 2
    if half > n_t - 1:
        raise DataError(f"wavelet support {k} cannot be reflect-padded onto {n_t} samples")
    xp = np.pad(x, ((0, 0), (half, half)), mode="reflect")
    n = plan.circular_length(n_t)
    spec = np.fft.fft(xp, n, axis=-1)
    wspec = plan.spectrum(n)
    out = np.empty((ch, plan.n_freqs, n_t), dtype=np.float64)
    prod = np.empty_like(spec)  # one product buffer, inverse-transformed in place
    for i in range(plan.n_freqs):
        np.fft.ifft(np.multiply(spec, wspec[i], out=prod), axis=-1, out=prod)
        conv = prod[:, k - 1 : k - 1 + n_t]
        np.square(conv.real, out=out[:, i, :])
        out[:, i, :] += conv.imag ** 2
    return out


# ---------------------------------------------------------------------------
# normalisation
# ---------------------------------------------------------------------------


def zscore(x: np.ndarray) -> np.ndarray:
    """(x - mean) / population-std over the last axis; degenerate slices become 0."""
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=-1, keepdims=True)
    sd = x.std(axis=-1, keepdims=True)
    ok = sd >= ZSCORE_GUARD
    return np.where(ok, (x - mu) / np.where(ok, sd, 1.0), 0.0)
