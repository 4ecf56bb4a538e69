"""Segment-and-Reassemble augmentation.

The time axis is cut into a fixed number of contiguous segments; for each
segment position one donor trial of the target class is drawn uniformly at
random, and both the EEG samples and the time-frequency samples of that
exact range are copied from the same donor.  Segment order is preserved,
so every synthetic trial respects the original temporal sequence.

``segment_reassemble`` is the one sampler: training (``augment_batch``) and
the ``augment`` command each make one call to it with the labels to build.
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


def segment_reassemble(pool: TrialSet, labels, segments: int,
                       rng: np.random.Generator):
    """Build one augmented trial per entry of ``labels``:
    (eeg [n, ch, T], tfr [n, ch, F, T]).

    Donors are drawn with replacement, uniformly per segment, from the
    same-class trials in ``pool``, trial by trial and segment by segment
    within a trial; the two views always share the donor.
    """
    if pool.tfr is None:
        raise DataError("augmentation needs a TrialSet with TFR sidecars")
    donors = {label: pool.class_indices(label) for label in np.unique(labels)}
    for label, idx in donors.items():
        if idx.size == 0:
            raise DataError(f"no trials of class {label} to augment from")
    bounds = segment_bounds(pool.n_times, segments)
    eeg = np.empty((len(labels),) + pool.eeg.shape[1:], dtype=pool.eeg.dtype)
    tfr = np.empty((len(labels),) + pool.tfr.shape[1:], dtype=pool.tfr.dtype)
    for i, label in enumerate(labels):
        idx = donors[label]
        for start, stop in bounds:
            donor = idx[rng.integers(0, idx.size)]
            eeg[i, :, start:stop] = pool.eeg[donor, :, start:stop]
            tfr[i, :, :, start:stop] = pool.tfr[donor, :, :, start:stop]
    return eeg, tfr


def augment_batch(batch: TrialSet, segments: int, rng: np.random.Generator):
    """Generate one augmented sample per batch trial, class-balanced over the
    classes present in the batch.

    Returns (eeg [n, ch, T], tfr [n, ch, F, T], labels [n]).
    """
    present = np.unique(batch.labels)
    base, extra = divmod(len(batch), present.size)
    labels = np.repeat(present, [base + (j < extra) for j in range(present.size)])
    return (*segment_reassemble(batch, labels, segments, rng), labels)
