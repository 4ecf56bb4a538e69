import numpy as np
import pytest

from dualtsst import augment, dataio
from dualtsst.errors import DataError


class ScriptedRng:
    """Stands in for a Generator; returns a fixed donor sequence."""

    def __init__(self, draws):
        self.draws = list(draws)

    def integers(self, low, high):
        assert low == 0
        value = self.draws.pop(0)
        assert value < high
        return value


def make_pool(n=3, ch=2, t=8, f=2, seed=0):
    """Pool whose every sample value encodes (donor, channel, time) so donor
    provenance is recoverable exactly."""
    rng = np.random.default_rng(seed)
    eeg = np.zeros((n, ch, t))
    tfr = np.zeros((n, ch, f, t))
    for i in range(n):
        eeg[i] = 100 * i + np.arange(ch)[:, None] * 10 + np.arange(t)
        tfr[i] = 1000 * i + rng.normal(size=(ch, f, t))
    return dataio.TrialSet(
        eeg=eeg,
        labels=np.zeros(n, dtype=np.int64),
        fs=64.0,
        tfr=tfr,
        freqs=np.array([4.0, 8.0]),
    )


def test_segment_bounds_remainder():
    assert augment.segment_bounds(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]
    assert augment.segment_bounds(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]
    with pytest.raises(DataError):
        augment.segment_bounds(3, 5)


def test_single_donor_pool_is_identity():
    pool = make_pool(n=1)
    for r in (1, 3, 8):
        eeg, tfr = augment.segment_reassemble(pool, 0, r, np.random.default_rng(0))
        np.testing.assert_array_equal(eeg, pool.eeg[0])
        np.testing.assert_array_equal(tfr, pool.tfr[0])


def test_r1_copies_one_donor_in_both_views():
    pool = make_pool(n=4)
    eeg, tfr = augment.segment_reassemble(pool, 0, 1, np.random.default_rng(5))
    matches = [
        i for i in range(4)
        if np.array_equal(eeg, pool.eeg[i]) and np.array_equal(tfr, pool.tfr[i])
    ]
    assert len(matches) == 1


def test_scripted_draw_sequence():
    pool = make_pool(n=2, t=8)
    a, b = 0, 1
    eeg, tfr = augment.segment_reassemble(pool, 0, 4, ScriptedRng([a, b, b, a]))
    np.testing.assert_array_equal(eeg[:, 0:2], pool.eeg[a][:, 0:2])
    np.testing.assert_array_equal(eeg[:, 2:4], pool.eeg[b][:, 2:4])
    np.testing.assert_array_equal(eeg[:, 4:6], pool.eeg[b][:, 4:6])
    np.testing.assert_array_equal(eeg[:, 6:8], pool.eeg[a][:, 6:8])
    np.testing.assert_array_equal(tfr[:, :, 0:2], pool.tfr[a][:, :, 0:2])
    np.testing.assert_array_equal(tfr[:, :, 6:8], pool.tfr[a][:, :, 6:8])


def test_every_sample_comes_from_a_same_class_donor():
    pool = make_pool(n=3, t=10)
    eeg, _ = augment.segment_reassemble(pool, 0, 3, np.random.default_rng(9))
    for t in range(10):
        column = eeg[:, t]
        assert any(np.array_equal(column, pool.eeg[i][:, t]) for i in range(3))


def test_paired_views_share_donor_and_boundaries():
    # encode the donor index as the constant value of both views
    n, ch, f, t = 4, 3, 2, 12
    eeg = np.zeros((n, ch, t))
    tfr = np.zeros((n, ch, f, t))
    for i in range(n):
        eeg[i] = i
        tfr[i] = i
    pool = dataio.TrialSet(eeg=eeg, labels=np.zeros(n, dtype=np.int64), fs=64.0,
                           tfr=tfr, freqs=np.array([1.0, 2.0]))
    e, w = augment.segment_reassemble(pool, 0, 5, np.random.default_rng(11))
    bounds = augment.segment_bounds(t, 5)
    for start, stop in bounds:
        seg_eeg = e[:, start:stop]
        seg_tfr = w[:, :, start:stop]
        # one donor per segment, identical across channels and across views
        assert np.unique(seg_eeg).size == 1
        assert np.unique(seg_tfr).size == 1
        assert seg_eeg.ravel()[0] == seg_tfr.ravel()[0]


def test_reproducible_with_fixed_seed():
    pool = make_pool(n=5, t=16)
    out1 = augment.segment_reassemble(pool, 0, 4, np.random.default_rng(123))
    out2 = augment.segment_reassemble(pool, 0, 4, np.random.default_rng(123))
    assert np.array_equal(out1[0], out2[0])
    assert np.array_equal(out1[1], out2[1])


def test_errors():
    pool = make_pool(n=2)
    with pytest.raises(DataError):
        augment.segment_reassemble(pool, 1, 2, np.random.default_rng(0))  # empty class
    with pytest.raises(DataError):
        augment.segment_reassemble(pool, 0, 99, np.random.default_rng(0))  # R > T
    no_tfr = dataio.TrialSet(eeg=pool.eeg, labels=pool.labels, fs=pool.fs)
    with pytest.raises(DataError):
        augment.segment_reassemble(no_tfr, 0, 2, np.random.default_rng(0))


def test_augment_batch_is_class_balanced():
    n, ch, f, t = 6, 2, 2, 12
    rng = np.random.default_rng(0)
    pool = dataio.TrialSet(
        eeg=rng.normal(size=(n, ch, t)),
        labels=np.array([0, 0, 1, 1, 2, 2]),
        fs=64.0,
        tfr=rng.normal(size=(n, ch, f, t)),
        freqs=np.array([1.0, 2.0]),
    )
    eeg, tfr, labels = augment.augment_batch(pool, 4, np.random.default_rng(1))
    assert eeg.shape == (6, ch, t) and tfr.shape == (6, ch, f, t)
    counts = np.bincount(labels, minlength=3)
    np.testing.assert_array_equal(counts, [2, 2, 2])

    # an odd-sized batch: the first classes present absorb the remainder
    odd = pool.subset([0, 1, 2, 3, 4, 5, 0])
    eeg7, _, labels7 = augment.augment_batch(odd, 4, np.random.default_rng(1))
    assert eeg7.shape[0] == 7
    assert np.bincount(labels7, minlength=3).tolist() == [3, 2, 2]
