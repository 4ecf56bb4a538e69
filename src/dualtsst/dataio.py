"""Neutral on-disk dataset format, split management, presets, and a
synthetic-EEG generator for self-contained tests.

A dataset directory holds ``manifest.json`` plus ``trials/*.eegt`` files
(raw EEG, one per trial) and optional ``trials/*.tfr.eegt`` sidecars with
the cached Morlet power of the preprocessed trial.

Tensor file format (little endian):

    magic  b"EEGT"
    u32    version (1)
    u8     ndim                                       (the tensor record)
    u32    extent per dim (row-major payload order)
    f32    payload

Checkpoints (``model.DualTsstModel.save``) store each tensor as the same
record; ``pack_record`` writes it and ``ByteCursor.record`` reads it.

The sidecar cache key is the frequency grid plus the band/window used to
preprocess; changing either invalidates the cache.

Tensor files are rewritten in place and then cut to length (``write_array``),
never truncated first: a truncate frees every block (on a file system mounted
with ``discard``, discarding it) for the write to allocate again.  An
interrupted rewrite can therefore leave a full-length file of new and old
bytes, so no reader may take a sidecar the manifest does not list.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import signal
from .errors import DataError

MAGIC = b"EEGT"
VERSION = 1
TFR_SUFFIX = ".tfr.eegt"
_MAX_EXTENT = 2**31
_MAX_NDIM = 8


# ---------------------------------------------------------------------------
# tensor files
# ---------------------------------------------------------------------------


def pack_record(arr, dtype) -> bytes:
    """One tensor record: u8 ndim, ndim x u32 extents, then the row-major
    little-endian payload in ``dtype``."""
    arr = np.ascontiguousarray(arr, dtype=dtype)
    if arr.ndim < 1 or arr.ndim > _MAX_NDIM or 0 in arr.shape:
        raise DataError(f"cannot store an array of shape {arr.shape}")
    # appending the buffer copies the payload once; arr.tobytes() would copy it twice
    return struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape) + arr.data


class ByteCursor:
    """Bounds-checked reader over one file's bytes: reading past the end, or
    a malformed tensor record, is a DataError naming the file."""

    def __init__(self, blob: bytes, path):
        self.blob, self.path, self.off = blob, path, 0

    def _advance(self, size: int, what: str) -> int:
        start = self.off
        if start + size > len(self.blob):
            raise DataError(f"{self.path}: truncated: {what} needs {size} bytes "
                            f"at offset {start}, file has {len(self.blob)}")
        self.off = start + size
        return start

    def take(self, size: int, what: str) -> bytes:
        start = self._advance(size, what)
        return self.blob[start : self.off]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack_from(fmt, self.blob, self._advance(struct.calcsize(fmt), what))

    def record(self, dtype, what: str) -> np.ndarray:
        """Read one tensor record (see ``pack_record``) as a read-only view."""
        (ndim,) = self.unpack("<B", f"{what} ndim")
        if ndim < 1 or ndim > _MAX_NDIM:
            raise DataError(f"{self.path}: {what} has bad ndim {ndim}")
        shape = self.unpack(f"<{ndim}I", f"{what} shape")
        count = 1
        for e in shape:
            count *= e
            if e < 1 or count > _MAX_EXTENT:
                raise DataError(f"{self.path}: {what} has a zero extent or extent "
                                f"overflow in shape {shape}")
        dtype = np.dtype(dtype)
        start = self._advance(count * dtype.itemsize, f"{what} payload")
        return np.frombuffer(self.blob, dtype=dtype, count=count, offset=start).reshape(shape)

    def finish(self) -> None:
        if self.off != len(self.blob):
            raise DataError(f"{self.path}: {len(self.blob) - self.off} trailing bytes")


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Open ``<path>.tmp`` in the same directory for writing and rename it
    over ``path`` when the block ends.  On any error the temporary file is
    removed and ``path`` keeps what it held before.  No fsync: this guards
    against a failing or killed process, not against power loss."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def array_chunks(arr) -> tuple[bytes, bytes]:
    """A tensor file of ``arr`` as 32-bit little-endian floats: the header, then
    the shape-prefixed record, apart so that the payload is not copied again."""
    return MAGIC + struct.pack("<I", VERSION), pack_record(arr, "<f4")


def write_array(path, arr) -> None:
    """Write ``array_chunks(arr)`` over the file's old bytes, then cut the file
    to the new length.  Truncating first would free every block for the write
    to allocate again (on a file system mounted with ``discard``, discarding
    each): that took most of a forced bci2a re-transform.  A rename per file
    cost 30% at mini.  A failed write leaves a cut file or a full-length one of
    new and old bytes; the manifest, not the file, says whether it may be read."""
    chunks = array_chunks(arr)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        fh = open(path, "r+b")
    except FileNotFoundError:
        fh = open(path, "wb")
    with fh:
        for chunk in chunks:
            fh.write(chunk)
        fh.truncate()


def read_array(path) -> np.ndarray:
    """Read a tensor file; returns float32 with the stored shape."""
    path = Path(path)
    rd = ByteCursor(path.read_bytes(), path)
    magic = rd.take(4, "magic")
    if magic != MAGIC:
        raise DataError(f"{path}: bad magic {magic!r}")
    (version,) = rd.unpack("<I", "version")
    if version != VERSION:
        raise DataError(f"{path}: unsupported version {version}")
    arr = rd.record("<f4", "tensor")
    rd.finish()
    return arr.copy()


# ---------------------------------------------------------------------------
# trial collections
# ---------------------------------------------------------------------------


@dataclass
class TrialSet:
    """A labelled stack of trials: EEG [n, ch, T] and optional TFR [n, ch, F, T]."""

    eeg: np.ndarray
    labels: np.ndarray
    fs: float
    tfr: np.ndarray | None = None
    freqs: np.ndarray | None = None
    class_names: list[str] | None = None

    def __post_init__(self):
        self.eeg = np.asarray(self.eeg, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.eeg.ndim != 3:
            raise DataError(f"TrialSet EEG must be [n, ch, T], got {self.eeg.shape}")
        if self.labels.shape != (self.eeg.shape[0],):
            raise DataError("labels do not match the number of trials")
        if self.tfr is not None:
            self.tfr = np.asarray(self.tfr, dtype=np.float64)
            n, ch, t = self.eeg.shape
            if self.tfr.shape[0] != n or self.tfr.shape[1] != ch or self.tfr.shape[3] != t:
                raise DataError(
                    f"TFR shape {self.tfr.shape} inconsistent with EEG {self.eeg.shape}"
                )

    def __len__(self) -> int:
        return self.eeg.shape[0]

    @property
    def n_channels(self) -> int:
        return self.eeg.shape[1]

    @property
    def n_times(self) -> int:
        return self.eeg.shape[2]

    @property
    def n_freqs(self) -> int:
        return 0 if self.tfr is None else self.tfr.shape[2]

    def subset(self, idx) -> "TrialSet":
        idx = np.asarray(idx, dtype=np.int64)
        return TrialSet(
            eeg=self.eeg[idx],
            labels=self.labels[idx],
            fs=self.fs,
            tfr=None if self.tfr is None else self.tfr[idx],
            freqs=self.freqs,
            class_names=self.class_names,
        )

    def class_indices(self, label: int) -> np.ndarray:
        return np.nonzero(self.labels == label)[0]


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


@dataclass
class TrialEntry:
    file: str
    label: int
    subject: str = "s0"
    session: str = "0"
    split: str | None = None


@dataclass
class DatasetManifest:
    name: str
    fs: float
    channels: list[str]
    n_classes: int
    class_names: list[str]
    trials: list[TrialEntry]
    preprocess: dict | None = None  # {"band": [lo, hi] | None, "window": [t0, t1] | None}
    tfr: dict | None = None  # {"freqs": [...], "suffix": ".tfr.eegt"}

    def validate(self) -> None:
        """Check every field's JSON type and range; a bad one is a DataError."""
        _require(isinstance(self.name, str), "name", self.name, "a string")
        _require(_is_finite(self.fs) and self.fs > 0, "fs", self.fs, "a positive finite number")
        _require(_is_strs(self.channels), "channels", self.channels, "a list of strings")
        _require(_is_int(self.n_classes) and self.n_classes >= 1, "n_classes", self.n_classes,
                 "an integer >= 1")
        _require(_is_strs(self.class_names) and len(self.class_names) == self.n_classes,
                 "class_names", self.class_names, f"a list of {self.n_classes} strings")
        pre = self.preprocess
        _require(pre is None or (isinstance(pre, dict) and _is_pair(pre.get("band"))
                                 and _is_pair(pre.get("window"))),
                 "preprocess", pre, "null or an object whose band and window are null "
                 "or two finite numbers")
        freqs = self.tfr.get("freqs") if isinstance(self.tfr, dict) else None
        _require(self.tfr is None or (isinstance(freqs, list) and all(map(_is_finite, freqs))),
                 "tfr", self.tfr, "null or an object whose freqs are a list of finite numbers")
        for field, value, known in (("preprocess", pre, {"band", "window"}),
                                    ("tfr", self.tfr, {"freqs", "suffix"})):
            keys = sorted(value or ())
            _require(set(keys) <= known, f"{field} keys", keys, f"among {sorted(known)}")
        suffix = (self.tfr or {}).get("suffix", TFR_SUFFIX)
        _require(suffix == TFR_SUFFIX, "tfr.suffix", suffix, repr(TFR_SUFFIX))
        if not self.trials:
            raise DataError("manifest lists no trials")
        for t in self.trials:
            _require(isinstance(t.file, str), "trial file", t.file, "a string")
            _require(_is_int(t.label) and 0 <= t.label < self.n_classes, f"{t.file}: label",
                     t.label, f"an integer in [0, {self.n_classes})")
            _require(isinstance(t.subject, str) and isinstance(t.session, str),
                     f"{t.file}: subject/session", (t.subject, t.session), "strings")
            _require(t.split in (None, "train", "test"), f"{t.file}: split tag", t.split,
                     "null, 'train' or 'test'")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_num(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _is_finite(value) -> bool:
    """A number a float64 holds: not NaN, not infinite, no integer beyond its range."""
    return _is_num(value) and abs(value) <= sys.float_info.max


def _is_strs(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _is_pair(value) -> bool:
    """null, or two finite numbers (a band in Hz or a window in seconds)."""
    return value is None or (isinstance(value, (list, tuple)) and len(value) == 2
                             and all(map(_is_finite, value)))


def _require(ok: bool, field: str, value, expected: str) -> None:
    if not ok:
        raise DataError(f"{field} must be {expected}, got {value!r}")


def save_manifest(dataset_dir, manifest: DatasetManifest) -> None:
    manifest.validate()
    payload = dataclasses.asdict(manifest)
    with atomic_open(Path(dataset_dir) / "manifest.json") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def load_manifest(dataset_dir) -> DatasetManifest:
    path = Path(dataset_dir) / "manifest.json"
    if not path.exists():
        raise DataError(f"no manifest.json in {dataset_dir}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise DataError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise DataError(f"{path}: manifest must be a JSON object")
    try:
        trials = [TrialEntry(**t) for t in raw.pop("trials")]
        manifest = DatasetManifest(trials=trials, **raw)
    except (KeyError, TypeError) as exc:
        raise DataError(f"{path}: malformed manifest ({exc})") from exc
    try:
        manifest.validate()
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return manifest


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


@dataclass
class SplitPlan:
    """How to carve a dataset into train/test.

    ``session`` mode honours the per-trial split tags in the manifest;
    ``kfold`` deterministically derives fold membership from (seed, k)
    and holds out fold ``fold``.
    """

    mode: str = "kfold"
    k: int = 5
    fold: int = 0
    seed: int = 0

    def validate(self) -> None:
        if self.mode not in ("session", "kfold"):
            raise DataError(f"unknown split mode {self.mode!r}")
        if self.seed < 0:
            raise DataError(f"split seed must be >= 0, got {self.seed}")
        if self.mode == "kfold":
            if self.k < 2:
                raise DataError("kfold needs k >= 2")
            if not 0 <= self.fold < self.k:
                raise DataError(f"fold {self.fold} out of range for k={self.k}")


def split_indices(n: int, plan: SplitPlan, tags=None):
    """Return (train_idx, test_idx) as sorted arrays."""
    plan.validate()
    if plan.mode == "session":
        if tags is None or any(t is None for t in tags):
            raise DataError("session split requires split tags on every trial")
        train = np.array([i for i, t in enumerate(tags) if t == "train"], dtype=np.int64)
        test = np.array([i for i, t in enumerate(tags) if t == "test"], dtype=np.int64)
    else:
        rng = np.random.default_rng(plan.seed)
        perm = rng.permutation(n)
        test = np.sort(perm[plan.fold :: plan.k])
        mask = np.ones(n, dtype=bool)
        mask[test] = False
        train = np.nonzero(mask)[0]
    if len(train) == 0 or len(test) == 0:
        raise DataError(f"degenerate split: {len(train)} train / {len(test)} test trials")
    return train, test


# ---------------------------------------------------------------------------
# dataset IO
# ---------------------------------------------------------------------------


def _tfr_path(dataset_dir: Path, trial_file: str) -> Path:
    rel = trial_file[: -len(".eegt")] if trial_file.endswith(".eegt") else trial_file
    return Path(dataset_dir) / (rel + TFR_SUFFIX)


def write_dataset(dataset_dir, trials: TrialSet, name: str = "dataset",
                  splits=None) -> DatasetManifest:
    """Write a TrialSet (and TFR sidecars, if present) as a dataset directory, old
    manifest removed first: an interrupted rewrite fails to load, never mixes data."""
    dataset_dir = Path(dataset_dir)
    n, ch, _ = trials.eeg.shape
    class_names = trials.class_names or [str(c) for c in range(int(trials.labels.max()) + 1)]
    (dataset_dir / "manifest.json").unlink(missing_ok=True)
    entries = []
    for i in range(n):
        rel = f"trials/trial_{i:04d}.eegt"
        write_array(dataset_dir / rel, trials.eeg[i])
        if trials.tfr is not None:
            write_array(_tfr_path(dataset_dir, rel), trials.tfr[i])
        entries.append(
            TrialEntry(
                file=rel,
                label=int(trials.labels[i]),
                split=None if splits is None else splits[i],
            )
        )
    manifest = DatasetManifest(
        name=name,
        fs=float(trials.fs),
        channels=[f"ch{i}" for i in range(ch)],
        n_classes=len(class_names),
        class_names=list(class_names),
        trials=entries,
        preprocess=None,
        tfr=None
        if trials.tfr is None
        else {"freqs": [float(f) for f in trials.freqs], "suffix": TFR_SUFFIX},
    )
    save_manifest(dataset_dir, manifest)
    return manifest


def _read_trial(dataset_dir: Path, manifest: DatasetManifest, file: str, preprocess) -> np.ndarray:
    """Read one raw trial [ch, T] of ``manifest`` as float64, then apply the
    ``preprocess`` band filter and window (each None to skip)."""
    path = dataset_dir / file
    if not path.exists():
        raise DataError(f"missing trial file {path}")
    x = read_array(path).astype(np.float64)
    if x.ndim != 2:
        raise DataError(f"{file}: trial must be [ch, T], got {x.shape}")
    if len(x) != len(manifest.channels):
        raise DataError(f"{file}: trial has {len(x)} channels, the manifest's channels "
                        f"lists {len(manifest.channels)}")
    pre = preprocess or {}
    if pre.get("band") is not None:
        x = signal.bandpass_array(x, manifest.fs, *pre["band"])
    if pre.get("window") is not None:
        x = signal.epoch_array(x, manifest.fs, *pre["window"])
    return x


def transform_dataset(dataset_dir, freqs, band=None, window=None, force: bool = False) -> int:
    """Compute Morlet-power sidecars for every trial; returns how many were written.

    ``band``/``window`` are applied to the raw trial before the transform and
    recorded in the manifest so later loads preprocess the EEG identically.
    Existing sidecars are reused when the recorded settings match; the others
    are overwritten in place (``write_array``), so while they are written the
    manifest lists none of them.
    """
    dataset_dir = Path(dataset_dir)
    manifest = load_manifest(dataset_dir)
    freqs = [float(f) for f in freqs]
    settings = {
        "freqs": freqs,
        "suffix": TFR_SUFFIX,
    }
    preprocess = {
        "band": None if band is None else [float(band[0]), float(band[1])],
        "window": None if window is None else [float(window[0]), float(window[1])],
    }
    unchanged = manifest.tfr == settings and manifest.preprocess == preprocess
    plan = signal.make_morlet_plan(freqs, manifest.fs)
    written = 0
    for entry in manifest.trials:
        out_path = _tfr_path(dataset_dir, entry.file)
        if unchanged and out_path.exists() and not force:
            continue
        x = _read_trial(dataset_dir, manifest, entry.file, preprocess)
        power = signal.morlet_power(x, plan)
        if manifest.tfr is not None:
            # a cut in-place write can leave a short sidecar or a full-length
            # one of new and old bytes, so from the first write on the manifest
            # lists none of them until the last one is written: an interrupted
            # run leaves a dataset that asks for a transform
            manifest.tfr = None
            save_manifest(dataset_dir, manifest)
        write_array(out_path, power)
        written += 1
    manifest.tfr = settings
    manifest.preprocess = preprocess
    save_manifest(dataset_dir, manifest)
    return written


def load_trialset(dataset_dir, require_tfr: bool = False, normalize: bool = True, *,
                  manifest: DatasetManifest | None = None) -> TrialSet:
    """Load every trial of a dataset directory into one TrialSet.

    EEG is preprocessed with the band/window recorded in the manifest and
    Z-scored per (trial, channel); TFR sidecars are Z-scored per
    (trial, channel, frequency).  Each trial is normalised as it is read,
    straight into its row of one array per view, so no list of trials or
    second copy of the set is ever held.  A caller that has already parsed
    the directory's manifest passes it as ``manifest``.
    """
    dataset_dir = Path(dataset_dir)
    if manifest is None:
        manifest = load_manifest(dataset_dir)
    if require_tfr and manifest.tfr is None:
        raise DataError(
            f"{dataset_dir}: no TFR sidecars; run the 'transform' command first"
        )
    n_freqs = None if manifest.tfr is None else len(manifest.tfr["freqs"])
    eeg = tfr = None
    for i, entry in enumerate(manifest.trials):
        x = _read_trial(dataset_dir, manifest, entry.file, manifest.preprocess)
        if i == 0:
            eeg = np.empty((len(manifest.trials), *x.shape))
            tfr = None if n_freqs is None else np.empty((len(eeg), x.shape[0], n_freqs, x.shape[1]))
        elif x.shape != eeg.shape[1:]:
            raise DataError(f"{entry.file}: shape {x.shape} != {eeg.shape[1:]} of first trial")
        eeg[i] = signal.zscore(x) if normalize else x
        if tfr is not None:
            tfr_path = _tfr_path(dataset_dir, entry.file)
            if not tfr_path.exists():
                raise DataError(f"missing TFR sidecar {tfr_path}")
            t = read_array(tfr_path)
            if t.ndim != 3 or t.shape[0] != x.shape[0] or t.shape[2] != x.shape[1]:
                raise DataError(
                    f"{tfr_path.name}: sidecar shape {t.shape} inconsistent with trial {x.shape}"
                )
            if t.shape[1] != n_freqs:
                raise DataError(
                    f"{tfr_path.name}: sidecar has {t.shape[1]} frequencies, the manifest's "
                    f"tfr.freqs lists {n_freqs}"
                )
            tfr[i] = signal.zscore(t) if normalize else t

    labels = np.array([t.label for t in manifest.trials], dtype=np.int64)
    return TrialSet(
        eeg=eeg,
        labels=labels,
        fs=manifest.fs,
        tfr=tfr,
        freqs=None if manifest.tfr is None else np.asarray(manifest.tfr["freqs"]),
        class_names=manifest.class_names,
    )


def split_manifest(dataset_dir, plan: SplitPlan) -> tuple:
    """A dataset directory's manifest cut into (train, test) manifests by ``plan``."""
    manifest = load_manifest(dataset_dir)
    tags = [t.split for t in manifest.trials]
    return tuple(dataclasses.replace(manifest, trials=[manifest.trials[i] for i in idx])
                 for idx in split_indices(len(manifest.trials), plan, tags=tags))


def load_dataset(dataset_dir, plan: SplitPlan, require_tfr: bool = False, *,
                 manifests: tuple | None = None):
    """Load a dataset directory split into (train, test) TrialSets.  The split is
    taken on the manifest, or is ``manifests`` if the caller has it from
    :func:`split_manifest`, and each split is read on its own."""
    manifests = manifests or split_manifest(dataset_dir, plan)
    train, test = (load_trialset(dataset_dir, require_tfr=require_tfr, manifest=m)
                   for m in manifests)
    if test.eeg.shape[1:] != train.eeg.shape[1:]:
        raise DataError(f"{manifests[1].trials[0].file}: shape {test.eeg.shape[1:]} != "
                        f"{train.eeg.shape[1:]} of the training trials")
    return train, test


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthClass:
    """A class emits a sinusoid at ``freq`` Hz on ``channels`` (None = all)."""

    freq: float
    channels: tuple | None = None


def synth(n_per_class: int, n_channels: int, n_times: int, fs: float,
          classes, noise: float = 0.0, seed: int = 0) -> TrialSet:
    """Generate labelled trials: per-class sinusoid (random phase) on masked
    channels plus white noise everywhere.

    Trials are emitted class by class, so with ``noise=0`` a frequency-bin
    rule on the masked channels separates the classes perfectly.
    """
    rng = np.random.default_rng(seed)
    classes = list(classes)
    for c in classes:
        if not 0 < c.freq < fs / 2:
            raise DataError(f"class frequency {c.freq} outside (0, fs/2)")
        if c.channels is not None and any(not 0 <= ch < n_channels for ch in c.channels):
            raise DataError(f"class channel mask {c.channels} outside [0, {n_channels})")
    t = np.arange(n_times) / fs
    eeg = np.zeros((n_per_class * len(classes), n_channels, n_times))
    labels = np.zeros(n_per_class * len(classes), dtype=np.int64)
    i = 0
    for label, spec in enumerate(classes):
        mask = range(n_channels) if spec.channels is None else spec.channels
        for _ in range(n_per_class):
            phase = rng.uniform(0.0, 2.0 * np.pi)
            wave = np.sin(2.0 * np.pi * spec.freq * t + phase)
            trial = np.zeros((n_channels, n_times))
            for ch in mask:
                trial[ch] = wave
            if noise > 0:
                trial += rng.normal(0.0, noise, size=trial.shape)
            eeg[i] = trial
            labels[i] = label
            i += 1
    return TrialSet(
        eeg=eeg,
        labels=labels,
        fs=fs,
        class_names=[f"f{spec.freq:g}" for spec in classes],
    )


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def freq_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """The analysis frequencies ``lo, lo + step, ...`` up to ``hi``, built by
    ``np.arange`` once its length is known to fit: an empty grid is returned
    empty, and one longer than a tensor record holds is a DataError."""
    stop = hi + 1e-9  # keeps hi on the grid despite rounding in the steps
    length = (stop - lo) / step  # np.arange's length, before its ceil
    if not length <= _MAX_EXTENT:
        raise DataError(f"frequency grid {lo:g} to {hi:g} Hz in steps of {step:g} Hz has "
                        f"over {_MAX_EXTENT} values, more than a tensor record holds")
    return np.arange(lo, stop, step) if length > 0 else np.empty(0)


@dataclass(frozen=True)
class DatasetPreset:
    """Geometry, preprocessing, and training defaults for a known dataset."""

    name: str
    n_channels: int
    fs: float
    n_classes: int
    n_times: int
    band: tuple | None
    window: tuple | None
    freq_lo: float
    freq_hi: float
    freq_step: float
    augment_segments: int  # 0 disables augmentation
    split_mode: str
    kfold_k: int
    model_overrides: dict
    train_overrides: dict
    synth_classes: tuple | None = None

    def freqs(self) -> np.ndarray:
        return freq_grid(self.freq_lo, self.freq_hi, self.freq_step)

    def split_plan(self) -> SplitPlan:
        return SplitPlan(mode=self.split_mode, k=self.kfold_k)


_PRESETS = {
    "bci2a": DatasetPreset(
        name="bci2a",
        n_channels=22,
        fs=250.0,
        n_classes=4,
        n_times=1000,  # 2..6 s at 250 Hz
        band=(0.0, 40.0),
        window=(2.0, 6.0),
        freq_lo=1.0,
        freq_hi=40.0,
        freq_step=1.0,
        augment_segments=8,
        split_mode="session",
        kfold_k=5,
        model_overrides={},
        train_overrides={},
    ),
    "bci2b": DatasetPreset(
        name="bci2b",
        n_channels=3,
        fs=250.0,
        n_classes=2,
        n_times=1125,  # 3..7.5 s at 250 Hz
        band=(0.0, 40.0),
        window=(3.0, 7.5),
        freq_lo=1.0,
        freq_hi=40.0,
        freq_step=1.0,
        augment_segments=9,
        split_mode="session",
        kfold_k=5,
        model_overrides={},
        train_overrides={},
    ),
    "seed": DatasetPreset(
        name="seed",
        n_channels=62,
        fs=200.0,
        n_classes=3,
        n_times=200,  # non-overlapping 1 s windows at 200 Hz
        band=(0.5, 50.0),
        window=None,
        freq_lo=1.0,
        freq_hi=50.0,
        freq_step=1.0,
        augment_segments=0,
        split_mode="kfold",
        kfold_k=5,
        model_overrides={},
        train_overrides={},
    ),
    # desk-scale configuration used by the test suite and gradcheck
    "mini": DatasetPreset(
        name="mini",
        n_channels=4,
        fs=128.0,
        n_classes=2,
        n_times=64,
        band=None,
        window=None,
        freq_lo=4.0,
        freq_hi=24.0,
        freq_step=4.0,
        augment_segments=8,
        split_mode="kfold",
        kfold_k=3,
        model_overrides={
            "branch_channels": 3,
            "embed_dim": 8,
            "time_kernel_raw": 7,
            "time_kernel_tfr": 9,
            "pool_raw": 16,
            "pool_raw_stride": 4,
            "pool_tfr": 8,
            "pool_tfr_stride": 4,
            "encoder_layers": 2,
            "encoder_heads": 2,
            "classifier_hidden": 16,
        },
        train_overrides={"epochs": 200, "lr_max": 2e-3, "cycle_epochs": 32},
        synth_classes=(SynthClass(8.0, (0, 1)), SynthClass(20.0, (2, 3))),
    ),
}


def preset(name: str) -> DatasetPreset:
    try:
        return _PRESETS[name]
    except KeyError:
        raise DataError(f"unknown preset {name!r}; known: {sorted(_PRESETS)}") from None


def preset_names():
    return sorted(_PRESETS)
