import numpy as np
import pytest

from dualtsst import signal
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
    with pytest.raises(DataError):
        signal.epoch_array(rec, 100.0, 0.5, 1.5)
    with pytest.raises(DataError):
        signal.epoch_array(rec, 100.0, -0.1, 0.5)


# ---------------------------------------------------------------------------
# Morlet plan and transform
# ---------------------------------------------------------------------------


def test_plan_invariants():
    plan = signal.make_morlet_plan(np.arange(1.0, 41.0), 250.0)
    np.testing.assert_allclose(plan.n_cycles, plan.freqs / 2.0)
    assert np.all(plan.sigma_t > 0)
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


def morlet_quadrature(x_1ch, taps, n_t):
    """Direct per-sample evaluation of the transform as a correlation with
    the conjugate wavelet; independent of the FFT implementation."""
    k = len(taps)
    half = (k - 1) // 2
    xp = np.pad(x_1ch, (half, half), mode="reflect")
    out = np.empty(n_t, dtype=np.complex128)
    cw = np.conj(taps)
    for t in range(n_t):
        out[t] = np.dot(xp[t : t + k], cw)
    return out


def test_morlet_matches_quadrature_oracle():
    fs, n_t = 250.0, 600
    freqs = np.arange(4.0, 41.0, 2.0)
    plan = signal.make_morlet_plan(freqs, fs)
    x = sine(10.0, fs, n_t, phase=0.3)[None, :]
    power = signal.morlet_power(x, plan)
    bin10 = int(np.argmin(np.abs(freqs - 10.0)))
    oracle = np.abs(morlet_quadrature(x[0], plan.taps[bin10], n_t)) ** 2
    np.testing.assert_allclose(power[0, bin10], oracle, rtol=1e-9, atol=1e-12)


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
    out = signal.zscore(x, axes=(-1,))
    assert np.all(np.abs(out.mean(axis=-1)) < 1e-10)
    assert np.all(np.abs(out.std(axis=-1) - 1.0) < 1e-8)
