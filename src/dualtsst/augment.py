"""Segment-and-Reassemble augmentation.

The time axis is cut into a fixed number of contiguous segments; for each
segment position one donor trial of the target class is drawn uniformly at
random, and both the EEG samples and the time-frequency samples of that
exact range are copied from the same donor.  Segment order is preserved,
so every synthetic trial respects the original temporal sequence.
"""

from __future__ import annotations

import numpy as np

from .dataio import TrialSet
from .errors import DataError


def segment_bounds(n_times: int, segments: int) -> list:
    """Contiguous (start, stop) pairs; the first ``n_times % segments``
    segments absorb the extra samples so lengths differ by at most one."""
    if segments < 1 or segments > n_times:
        raise DataError(f"cannot cut {n_times} samples into {segments} segments")
    base, extra = divmod(n_times, segments)
    bounds, start = [], 0
    for i in range(segments):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def segment_reassemble(pool: TrialSet, label: int, segments: int,
                       rng: np.random.Generator):
    """Build one augmented trial of class ``label``: (eeg [ch, T], tfr [ch, F, T]).

    Donors are drawn with replacement, uniformly per segment, from the
    same-class trials in ``pool``; the two views always share the donor.
    """
    if pool.tfr is None:
        raise DataError("augmentation needs a TrialSet with TFR sidecars")
    donors = pool.class_indices(label)
    if donors.size == 0:
        raise DataError(f"no trials of class {label} to augment from")
    bounds = segment_bounds(pool.n_times, segments)
    eeg = np.empty_like(pool.eeg[0])
    tfr = np.empty_like(pool.tfr[0])
    for start, stop in bounds:
        donor = donors[rng.integers(0, donors.size)]
        eeg[:, start:stop] = pool.eeg[donor, :, start:stop]
        tfr[:, :, start:stop] = pool.tfr[donor, :, :, start:stop]
    return eeg, tfr


def augment_batch(batch: TrialSet, segments: int, rng: np.random.Generator):
    """Generate one augmented sample per batch trial, class-balanced over the
    classes present in the batch.

    Returns (eeg [n, ch, T], tfr [n, ch, F, T], labels [n]).
    """
    if batch.tfr is None:
        raise DataError("augmentation needs a TrialSet with TFR sidecars")
    count = len(batch)
    present = np.unique(batch.labels)
    base, extra = divmod(count, present.size)
    eeg = np.empty_like(batch.eeg)
    tfr = np.empty_like(batch.tfr)
    labels = np.empty(count, dtype=np.int64)
    i = 0
    for j, label in enumerate(present):
        for _ in range(base + (1 if j < extra else 0)):
            eeg[i], tfr[i] = segment_reassemble(batch, int(label), segments, rng)
            labels[i] = label
            i += 1
    return eeg, tfr, labels
