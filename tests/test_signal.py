import math
import time

import numpy as np
import pytest

from dualtsst import dataio, kernels, signal
from dualtsst.errors import DataError


def sine(freq, fs, n, phase=0.0):
    return np.sin(2 * np.pi * freq * np.arange(n) / fs + phase)


# ---------------------------------------------------------------------------
# bandpass
# ---------------------------------------------------------------------------


def test_bandpass_passes_in_band_sine():
    x = sine(10.0, 250.0, 1000)[None, :]
    out = signal.bandpass_array(x, 250.0, 0.0, 40.0)
    assert np.max(np.abs(out - x)) < 1e-6


def test_bandpass_kills_out_of_band_sine():
    x = sine(60.0, 250.0, 1000)[None, :]
    out = signal.bandpass_array(x, 250.0, 0.0, 40.0)
    assert np.sqrt(np.mean(out**2)) < 1e-6 * np.sqrt(np.mean(x**2))


def test_bandpass_removes_dc():
    x = np.full((2, 500), 3.7)
    out = signal.bandpass_array(x, 250.0, 0.5, 50.0)
    assert np.all(np.abs(out.mean(axis=-1)) < 1e-6 * 3.7)


def test_bandpass_idempotent(rng):
    x = rng.normal(size=(3, 400))
    once = signal.bandpass_array(x, 200.0, 4.0, 30.0)
    twice = signal.bandpass_array(once, 200.0, 4.0, 30.0)
    assert np.max(np.abs(once - twice)) < 1e-9


def test_bandpass_invalid_band():
    x = np.zeros((1, 100))
    with pytest.raises(DataError):
        signal.bandpass_array(x, 100.0, 30.0, 10.0)
    with pytest.raises(DataError):
        signal.bandpass_array(x, 100.0, 0.0, 80.0)  # above Nyquist


def test_bandpass_preserves_length(rng):
    x = rng.normal(size=(2, 333))
    assert signal.bandpass_array(x, 100.0, 1.0, 40.0).shape == x.shape


# ---------------------------------------------------------------------------
# epoch
# ---------------------------------------------------------------------------


def test_epoch_preset_lengths():
    rec = np.zeros((3, 2000))
    assert signal.epoch_array(rec, 250.0, 2.0, 6.0).shape == (3, 1000)
    assert signal.epoch_array(rec, 250.0, 3.0, 7.5).shape == (3, 1125)
    assert signal.epoch_array(np.zeros((3, 400)), 200.0, 0.0, 1.0).shape == (3, 200)


def test_epoch_full_window_identity(rng):
    data = rng.normal(size=(2, 500))
    np.testing.assert_array_equal(signal.epoch_array(data, 250.0, 0.0, 2.0), data)


def test_epoch_out_of_range():
    rec = np.zeros((1, 100))
    # the last four have no finite sample count
    for window in ((0.5, 1.5), (-0.1, 0.5), (0.0, np.inf), (np.nan, 0.5), (0.0, np.nan),
                   (0.0, 1e307)):
        with pytest.raises(DataError):
            signal.epoch_array(rec, 100.0, *window)


# ---------------------------------------------------------------------------
# Morlet plan and transform
# ---------------------------------------------------------------------------


def test_plan_invariants():
    plan = signal.make_morlet_plan(np.arange(1.0, 41.0), 250.0)
    for taps in plan.taps:
        assert len(taps) % 2 == 1
        half = len(taps) // 2
        # symmetric support; conj-symmetric taps
        np.testing.assert_allclose(taps[: half], np.conj(taps[half + 1 :][::-1]), rtol=1e-12)
        np.testing.assert_allclose(np.sum(np.abs(taps) ** 2), 1.0, rtol=1e-12)


def test_plan_rejects_bad_grids():
    with pytest.raises(DataError):
        signal.make_morlet_plan([0.0, 1.0], 100.0)
    with pytest.raises(DataError):
        signal.make_morlet_plan([10.0, 5.0], 100.0)


def test_plan_rejects_frequencies_at_or_above_nyquist():
    signal.make_morlet_plan([4.0, 63.9], 128.0)
    for freqs in ([4.0, 64.0], [4.0, 24.0, 44.0, 64.0, 84.0]):
        with pytest.raises(DataError, match="below fs/2 = 64 Hz"):
            signal.make_morlet_plan(freqs, 128.0)


def test_morlet_zero_signal_is_zero():
    plan = signal.make_morlet_plan([4.0, 8.0], 128.0)
    out = signal.morlet_power(np.zeros((2, 64)), plan)
    assert out.shape == (2, 2, 64)
    np.testing.assert_array_equal(out, 0.0)


def morlet_quadrature(x, taps, n_t):
    """Direct per-sample evaluation of the transform as a correlation with
    the conjugate wavelet; independent of the FFT implementation.
    ``x`` is [ch, T] and ``taps`` [F, k]; returns the complex [ch, F, n_t]."""
    k = taps.shape[-1]
    half = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (half, half)), mode="reflect")
    out = np.empty((x.shape[0], taps.shape[0], n_t), dtype=np.complex128)
    cw = np.conj(taps).T
    for t in range(n_t):  # real and imaginary parts apart: x is real
        out[:, :, t].real = xp[:, t : t + k] @ cw.real
        out[:, :, t].imag = xp[:, t : t + k] @ cw.imag
    return out


def test_morlet_matches_quadrature_oracle():
    fs, n_t = 250.0, 600
    freqs = np.arange(4.0, 41.0, 2.0)
    plan = signal.make_morlet_plan(freqs, fs)
    x = sine(10.0, fs, n_t, phase=0.3)[None, :]
    power = signal.morlet_power(x, plan)
    bin10 = int(np.argmin(np.abs(freqs - 10.0)))
    oracle = np.abs(morlet_quadrature(x, plan.taps[bin10 : bin10 + 1], n_t)[0, 0]) ** 2
    np.testing.assert_allclose(power[0, bin10], oracle, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("name", ["mini", "bci2a", "seed"])
def test_morlet_matches_quadrature_oracle_at_preset_geometry(rng, name):
    # every frequency and channel, on noise: <= 1e-9 relative plus 1e-12 of
    # the channel's peak power
    p = dataio.preset(name)
    plan = signal.make_morlet_plan(p.freqs(), p.fs)
    x = rng.normal(size=(p.n_channels, p.n_times))
    power = signal.morlet_power(x, plan)
    oracle = np.abs(morlet_quadrature(x, plan.taps, p.n_times)) ** 2
    assert power.shape == oracle.shape == (p.n_channels, plan.n_freqs, p.n_times)
    peak = oracle.max(axis=(1, 2), keepdims=True)
    excess = np.abs(power - oracle) - (1e-9 * oracle + 1e-12 * peak)
    assert np.all(excess <= 0.0), f"worst excess {excess.max():.3e}"


def _pre_stacking_taps(freqs, fs):
    """The taps as they were built one frequency at a time, each with the
    support of its own sigma_t."""
    taps = []
    for f in freqs:
        sigma_t = (f / 2.0) / (2.0 * np.pi * f)
        half = int(math.floor(5.0 * sigma_t * fs))
        t = np.arange(-half, half + 1) / fs
        w = np.exp(-(t ** 2) / (2.0 * sigma_t ** 2)) * np.exp(2j * np.pi * f * t)
        taps.append(w / np.sqrt(np.sum(np.abs(w) ** 2)))
    return taps


@pytest.mark.parametrize("name", ["mini", "bci2a", "bci2b", "seed"])
def test_plan_taps_are_one_array_equal_to_per_frequency_taps(name):
    p = dataio.preset(name)
    plan = signal.make_morlet_plan(p.freqs(), p.fs)
    want = _pre_stacking_taps(plan.freqs, p.fs)
    assert plan.taps.shape == (plan.n_freqs, len(want[0])) and plan.support == len(want[0])
    for got, w in zip(plan.taps, want):
        np.testing.assert_array_equal(got, w)


def test_fft_length_is_the_smallest_5_smooth_length():
    limit = 5000
    smooth = sorted(2 ** a * 3 ** b * 5 ** c
                    for a in range(14) for b in range(9) for c in range(7)
                    if 2 ** a * 3 ** b * 5 ** c <= 2 * limit)
    want = np.array(smooth)[np.searchsorted(smooth, np.arange(1, limit + 1))]
    got = np.array([signal.fft_length(n) for n in range(1, limit + 1)])
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("name, circular", [("mini", 180), ("bci2a", 1200), ("seed", 360)])
def test_morlet_inverse_transforms_at_the_circular_length(monkeypatch, rng, name, circular):
    # the padded trial has n_t + k - 1 samples; the transform runs at the next
    # 5-smooth length, not at a power of two or the linear-convolution length
    p = dataio.preset(name)
    plan = signal.make_morlet_plan(p.freqs(), p.fs)
    assert signal.fft_length(p.n_times + plan.support - 1) == circular
    lengths = []
    ifft = np.fft.ifft
    monkeypatch.setattr(np.fft, "ifft", lambda a, *args, **kw: (
        lengths.append(np.shape(a)[-1]), ifft(a, *args, **kw))[1])
    signal.morlet_power(rng.normal(size=(p.n_channels, p.n_times)), plan)
    assert lengths == [circular] * plan.n_freqs


def test_transform_dataset_takes_the_taps_fft_once(tmp_path, monkeypatch):
    ts = dataio.synth(3, 2, 64, 128.0, [dataio.SynthClass(8.0), dataio.SynthClass(20.0)],
                      seed=1)
    dataio.write_dataset(tmp_path, ts)
    chunks = []
    walk = kernels._chunks
    monkeypatch.setattr(kernels, "_chunks", lambda *args: (
        chunks.append(walk(*args)), chunks[-1])[1])
    complex_inputs = []
    fft = np.fft.fft

    def counted_fft(a, *args, **kw):
        complex_inputs.append(np.iscomplexobj(a))
        if complex_inputs[-1]:
            time.sleep(0.05)  # a slow taps FFT, so chunks taking it at once would overlap
        return fft(a, *args, **kw)

    monkeypatch.setattr(np.fft, "fft", counted_fft)
    # all six trials in one chunk, then one trial per chunk and every chunk
    # in flight at once, more threads than CPUs
    for chunk_bytes, n_chunks in ((kernels.CHUNK_BYTES, 1), (1, 6)):
        monkeypatch.setattr(kernels, "CHUNK_BYTES", chunk_bytes)
        monkeypatch.setattr(kernels, "TRIALS_IN_FLIGHT", max(2, n_chunks))
        chunks.clear()
        complex_inputs.clear()
        assert dataio.transform_dataset(tmp_path, [4.0, 8.0, 16.0], force=True) == 6
        assert len(chunks) == 1 and len(chunks[0]) == n_chunks
        # one transform of each chunk's stacked real rows, and one of the
        # complex taps per call, taken before any chunk runs
        assert sorted(complex_inputs) == [False] * n_chunks + [True]


def test_morlet_peak_at_signal_frequency():
    fs, n_t = 250.0, 1000
    freqs = np.arange(4.0, 41.0, 2.0)
    plan = signal.make_morlet_plan(freqs, fs)
    x = sine(10.0, fs, n_t)[None, :]
    power = signal.morlet_power(x, plan)
    central = slice(n_t // 4, 3 * n_t // 4)
    profile = power[0, :, central].mean(axis=-1)
    assert freqs[np.argmax(profile)] == 10.0


def test_morlet_two_tones_two_local_maxima():
    fs, n_t = 250.0, 1000
    freqs = np.arange(4.0, 41.0, 2.0)
    plan = signal.make_morlet_plan(freqs, fs)
    x = (sine(8.0, fs, n_t) + sine(24.0, fs, n_t, phase=1.1))[None, :]
    profile = signal.morlet_power(x, plan)[0, :, n_t // 4 : 3 * n_t // 4].mean(axis=-1)
    peaks = [
        i for i in range(1, len(freqs) - 1)
        if profile[i] > profile[i - 1] and profile[i] > profile[i + 1]
    ]
    assert {8.0, 24.0} <= {freqs[i] for i in peaks}


def test_morlet_nonnegative_and_time_preserving(rng):
    plan = signal.make_morlet_plan([4.0, 8.0, 16.0], 128.0)
    tfr = signal.morlet_power(rng.normal(size=(3, 200)), plan)
    assert tfr.shape == (3, 3, 200)
    assert np.all(tfr >= 0.0)


def test_morlet_power_scales_quadratically(rng):
    plan = signal.make_morlet_plan([6.0, 12.0], 128.0)
    x = rng.normal(size=(1, 256))
    p1 = signal.morlet_power(x, plan)
    p3 = signal.morlet_power(3.0 * x, plan)
    np.testing.assert_allclose(p3, 9.0 * p1, rtol=1e-8)


def test_morlet_support_guard():
    plan = signal.make_morlet_plan([4.0], 5000.0)
    # support ~ 2*floor(5*sigma_t*fs)+1 ~ 3979 samples > 10 * 16
    with pytest.raises(DataError):
        signal.morlet_power(np.zeros((1, 16)), plan)


def test_morlet_support_guard_names_support_and_length():
    plan = signal.make_morlet_plan([4.0], 5000.0)
    with pytest.raises(DataError) as err:
        signal.morlet_power(np.zeros((1, 16)), plan)
    assert str(err.value) == "wavelet support 3979 cannot be reflect-padded onto 16 samples"


# ---------------------------------------------------------------------------
# zscore
# ---------------------------------------------------------------------------


def test_zscore_hand_example():
    out = signal.zscore(np.array([1.0, 2.0, 3.0]))
    expected = (np.array([1.0, 2.0, 3.0]) - 2.0) / np.sqrt(2.0 / 3.0)
    np.testing.assert_allclose(out, expected, rtol=1e-12)
    np.testing.assert_allclose(out, [-1.2247, 0.0, 1.2247], atol=1e-4)


def test_zscore_constant_guard():
    out = signal.zscore(np.full((2, 10), 5.0))
    np.testing.assert_array_equal(out, 0.0)


def test_zscore_idempotent(rng):
    x = rng.normal(size=(4, 100)) * 3 + 1
    once = signal.zscore(x)
    twice = signal.zscore(once)
    assert np.max(np.abs(once - twice)) < 1e-10


def test_zscore_moments(rng):
    x = rng.normal(size=(5, 3, 50)) * 7 - 2
    out = signal.zscore(x)
    assert np.all(np.abs(out.mean(axis=-1)) < 1e-10)
    assert np.all(np.abs(out.std(axis=-1) - 1.0) < 1e-8)
