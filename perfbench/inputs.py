"""Seeded synthetic datasets for the benchmark workloads.

Every input is generated here from the workload seed.  The program never
sees the seed: it receives only the dataset directories written below
(raw ``.eegt`` trials plus ``manifest.json``, in the program's own format).

Each class is a sinusoid with a random phase on a set of channels, plus
white noise on every channel.  Class frequencies sit on the preset's
analysis grid, so the Morlet power of a class peaks at a known frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dualtsst import dataio


@dataclass(frozen=True)
class DatasetSpec:
    preset: str
    n_channels: int
    fs: float
    n_samples: int            # raw recording length
    class_freqs: tuple        # Hz, one per class
    class_channels: tuple     # per class: channel indices, or None for all
    n_classes: int            # classes named in the manifest
    noise: float
    labels: tuple             # label of each trial, in file order
    splits: tuple | None      # per-trial "train"/"test" tags, or None


# The quick-start recipe: `synth --preset mini --n 48 --noise 0.5`, emitted
# class by class and split 3-fold by the preset.
MINI = DatasetSpec(
    preset="mini", n_channels=4, fs=128.0, n_samples=64,
    class_freqs=(8.0, 20.0), class_channels=((0, 1), (2, 3)), n_classes=2,
    noise=0.5, labels=(0,) * 48 + (1,) * 48, splits=None,
)

# bci2a geometry: 7 s recordings cover the preset's 2-6 s window.  The two
# training trials share a class, so augmentation mixes two donors.
BCI2A = DatasetSpec(
    preset="bci2a", n_channels=22, fs=250.0, n_samples=1750,
    class_freqs=(10.0, 14.0, 18.0, 22.0), class_channels=(None,) * 4, n_classes=4,
    noise=1.0, labels=(0, 0, 1), splits=("train", "train", "test"),
)

# SEED geometry: 1 s epochs at 200 Hz, three classes, three trials each.
SEED = DatasetSpec(
    preset="seed", n_channels=62, fs=200.0, n_samples=200,
    class_freqs=(6.0, 14.0, 30.0), class_channels=(None,) * 3, n_classes=3,
    noise=0.5, labels=(0, 1, 2) * 3, splits=None,
)


def generate(spec: DatasetSpec, seed: int) -> np.ndarray:
    """Raw trials [n, ch, T] for ``spec``; the same seed gives the same array."""
    rng = np.random.default_rng(seed)
    t = np.arange(spec.n_samples) / spec.fs
    eeg = np.empty((len(spec.labels), spec.n_channels, spec.n_samples))
    for i, label in enumerate(spec.labels):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        wave = np.sin(2.0 * np.pi * spec.class_freqs[label] * t + phase)
        trial = rng.normal(0.0, spec.noise, size=eeg.shape[1:])
        channels = spec.class_channels[label]
        trial[slice(None) if channels is None else list(channels)] += wave
        eeg[i] = trial
    return eeg


def write(spec: DatasetSpec, seed: int, out_dir) -> np.ndarray:
    """Write the generated raw trials as a dataset directory with the
    program's writer; returns the float64 array that was written."""
    eeg = generate(spec, seed)
    trials = dataio.TrialSet(
        eeg=eeg,
        labels=np.asarray(spec.labels),
        fs=spec.fs,
        class_names=[f"c{k}" for k in range(spec.n_classes)],
    )
    dataio.write_dataset(out_dir, trials, name=f"bench-{spec.preset}",
                         splits=None if spec.splits is None else list(spec.splits))
    return eeg
