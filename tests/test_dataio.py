import dataclasses
import json
import math
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualtsst import cli, dataio, kernels, metrics, signal, train
from dualtsst.errors import DataError
from dualtsst.model import DualTsstModel, config_from_preset


# ---------------------------------------------------------------------------
# tensor files
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(shape=st.lists(st.integers(1, 5), min_size=1, max_size=4))
def test_array_round_trip(tmp_path_factory, shape):
    tmp = tmp_path_factory.mktemp("eegt")
    rng = np.random.default_rng(sum(shape))
    arr = rng.normal(size=shape).astype(np.float32)
    path = tmp / "x.eegt"
    dataio.write_array(path, arr)
    back = dataio.read_array(path)
    assert back.shape == tuple(shape)
    assert back.dtype == np.float32
    np.testing.assert_array_equal(back, arr)


def test_array_known_payload(tmp_path):
    path = tmp_path / "half.eegt"
    dataio.write_array(path, np.array([[[0.5]]]))
    blob = path.read_bytes()
    assert blob[:4] == b"EEGT"
    assert blob[-4:] == bytes([0x00, 0x00, 0x00, 0x3F])  # 0.5 as LE float32


@pytest.mark.parametrize("extra", [-1000, 0, 1000], ids=["shorter", "equal", "longer"])
def test_write_array_over_an_old_file_leaves_exactly_the_new_bytes(tmp_path, extra):
    arr = np.random.default_rng(0).normal(size=(4, 6, 64))
    blob = b"".join(dataio.array_chunks(arr))
    path = tmp_path / "x.tfr.eegt"
    path.write_bytes(b"\xff" * (len(blob) + extra))
    dataio.write_array(path, arr)
    assert path.read_bytes() == blob
    np.testing.assert_array_equal(dataio.read_array(path), arr.astype(np.float32))


def test_array_bad_magic(tmp_path):
    path = tmp_path / "bad.eegt"
    path.write_bytes(b"XXXX" + bytes(16))
    with pytest.raises(DataError, match="magic"):
        dataio.read_array(path)


def test_array_truncated_payload(tmp_path):
    path = tmp_path / "short.eegt"
    dataio.write_array(path, np.zeros((2, 3)))
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])
    with pytest.raises(DataError, match="payload"):
        dataio.read_array(path)


def test_array_extent_overflow(tmp_path):
    import struct

    path = tmp_path / "huge.eegt"
    header = b"EEGT" + struct.pack("<IB", 1, 2) + struct.pack("<2I", 2**30, 2**30)
    path.write_bytes(header)
    with pytest.raises(DataError, match="overflow"):
        dataio.read_array(path)


def test_array_bad_version(tmp_path):
    import struct

    path = tmp_path / "v9.eegt"
    path.write_bytes(b"EEGT" + struct.pack("<IB", 9, 1) + struct.pack("<I", 1) + bytes(4))
    with pytest.raises(DataError, match="version"):
        dataio.read_array(path)


# ---------------------------------------------------------------------------
# atomic writes
# ---------------------------------------------------------------------------


def _save_manifest(tmp_path, version):
    if version == 0:
        make_dataset(tmp_path, with_tfr=False)
    else:
        manifest = dataio.load_manifest(tmp_path)
        manifest.name = "renamed"
        dataio.save_manifest(tmp_path, manifest)
    return tmp_path / "manifest.json"


def _write_log_csv(tmp_path, version):
    logs = [train.EpochLog(epoch=e, lr=1e-3, loss=1.0 / (e + 1), train_acc=0.5, test_acc=None)
            for e in range(version + 2)]
    train.write_log_csv(tmp_path / "log.csv", logs)
    return tmp_path / "log.csv"


def _write_resolved(tmp_path, version):
    cli._write_resolved(tmp_path, {"seed": version, "model": {"embed_dim": 8}})
    return tmp_path / "resolved_config.json"


def _save_model(tmp_path, version):
    model = DualTsstModel(config_from_preset(dataio.preset("mini")),
                          rng=np.random.default_rng(version))
    model.save(tmp_path / "model_best.dtss")
    return tmp_path / "model_best.dtss"


def _export_report(tmp_path, version):
    labels = np.array([0, 1, 1, 0])
    preds = labels if version else np.array([0, 1, 0, 0])
    return metrics.export_report(metrics.evaluate_predictions(labels, preds, ["a", "b"]),
                                 tmp_path)


def _export_confusion_csv(tmp_path, version):
    return _export_report(tmp_path, version)[0]


def _export_report_json(tmp_path, version):
    return _export_report(tmp_path, version)[1]


def _eval_features(tmp_path, version):
    if not (tmp_path / "data").exists():
        make_dataset(tmp_path / "data")
    model = tmp_path / f"model{version}.dtss"
    DualTsstModel(config_from_preset(dataio.preset("mini")),
                  rng=np.random.default_rng(version)).save(model)
    features = tmp_path / "features" / "features.eegt"
    args = cli.build_parser().parse_args([
        "eval", "--model", str(model), "--data", str(tmp_path / "data"),
        "--out", str(tmp_path / "eval"), "--preset", "mini", "--features", str(features)])
    args.func(args)
    return features


class DiskFullAfter10Bytes:
    """A file object that writes 10 bytes, then raises as a full disk would."""

    def __init__(self, fh):
        self.fh, self.left = fh, 10

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        if len(data) > self.left:
            self.fh.write(data[: self.left])
            raise OSError("disk full")
        self.left -= len(data)
        return self.fh.write(data)


@pytest.mark.parametrize("write", [_save_manifest, _write_log_csv, _write_resolved, _save_model,
                                   _export_confusion_csv, _export_report_json,
                                   _eval_features])
def test_interrupted_write_leaves_the_old_file(tmp_path, monkeypatch, write):
    target = write(tmp_path, 0)
    before = target.read_bytes()
    names = sorted(p.name for p in target.parent.iterdir())

    def cut_target(path, *args, **kw):  # other files of the same call are written whole
        fh = open(path, *args, **kw)
        return DiskFullAfter10Bytes(fh) if Path(path).name == target.name + ".tmp" else fh

    monkeypatch.setattr(dataio, "open", cut_target, raising=False)
    with pytest.raises(OSError, match="disk full"):
        write(tmp_path, 1)
    assert target.read_bytes() == before
    assert sorted(p.name for p in target.parent.iterdir()) == names

    monkeypatch.delattr(dataio, "open")
    write(tmp_path, 1)
    assert target.read_bytes() != before
    assert sorted(p.name for p in target.parent.iterdir()) == names


def test_transform_that_fails_before_writing_changes_no_file(tmp_path):
    make_dataset(tmp_path)
    before = {f: f.read_bytes() for f in tmp_path.rglob("*") if f.is_file()}
    with pytest.raises(DataError, match="needs"):
        dataio.transform_dataset(tmp_path, [4.0, 8.0], window=(0.0, 2.0))  # trials last 0.5 s
    assert {f: f.read_bytes() for f in tmp_path.rglob("*") if f.is_file()} == before


def test_interrupted_transform_leaves_a_dataset_that_asks_for_a_transform(tmp_path,
                                                                          monkeypatch):
    # the third sidecar of a forced re-run is cut off after 10 bytes
    make_dataset(tmp_path)
    freqs = dataio.load_manifest(tmp_path).tfr["freqs"]
    sidecars = []

    def cut_third_sidecar(path, *args, **kw):
        fh = open(path, *args, **kw)
        if str(path).endswith(dataio.TFR_SUFFIX):
            sidecars.append(path)
            if len(sidecars) == 3:
                return DiskFullAfter10Bytes(fh)
        return fh

    monkeypatch.setattr(dataio, "open", cut_third_sidecar, raising=False)
    with pytest.raises(OSError, match="disk full"):
        dataio.transform_dataset(tmp_path, freqs, force=True)
    monkeypatch.delattr(dataio, "open")
    assert sidecars[2].stat().st_size == sidecars[0].stat().st_size  # cut, at its old length
    assert dataio.load_manifest(tmp_path).tfr is None
    with pytest.raises(DataError, match="transform"):
        dataio.load_trialset(tmp_path, require_tfr=True)

    assert dataio.transform_dataset(tmp_path, freqs) == 8  # nothing is taken from the cache
    assert dataio.load_trialset(tmp_path, require_tfr=True).tfr.shape == (8, 4, 6, 64)


def test_interrupted_rewrite_leaves_a_dataset_that_does_not_load(tmp_path, monkeypatch):
    # a transformed set is rewritten with new trials, and the fourth file fails
    make_dataset(tmp_path)
    new = dataio.synth(4, 4, 64, 128.0, MINI_CLASSES, noise=0.1, seed=2)
    written = []
    write_array = dataio.write_array

    def fail_fourth(path, arr):
        written.append(path)
        if len(written) == 4:
            raise OSError("disk full")
        write_array(path, arr)

    monkeypatch.setattr(dataio, "write_array", fail_fourth)
    with pytest.raises(OSError, match="disk full"):
        dataio.write_dataset(tmp_path, new, name="unit")
    monkeypatch.undo()
    with pytest.raises(DataError, match="no manifest"):
        dataio.load_trialset(tmp_path, require_tfr=True)

    dataio.write_dataset(tmp_path, new, name="unit")
    loaded = dataio.load_trialset(tmp_path, normalize=False)
    assert loaded.tfr is None
    np.testing.assert_array_equal(loaded.eeg, new.eeg.astype(np.float32))


@pytest.mark.parametrize("band", [None, (2.0, 30.0)], ids=["forced", "new-band"])
def test_a_re_transform_rewrites_old_sidecars_in_place(tmp_path, monkeypatch, band):
    make_dataset(tmp_path / "old")
    make_dataset(tmp_path / "fresh", with_tfr=False)
    freqs = dataio.load_manifest(tmp_path / "old").tfr["freqs"]
    dataio.transform_dataset(tmp_path / "fresh", freqs, band=band)
    opened = []

    def spy(path, mode="r", *args, **kw):
        if str(path).endswith(dataio.TFR_SUFFIX):
            opened.append((Path(path).exists(), mode))
        return open(path, mode, *args, **kw)

    monkeypatch.setattr(dataio, "open", spy, raising=False)
    assert dataio.transform_dataset(tmp_path / "old", freqs, band=band, force=band is None) == 8
    monkeypatch.delattr(dataio, "open")
    assert opened == [(True, "r+b")] * 8  # no old sidecar is opened in a truncating mode
    fresh = sorted((tmp_path / "fresh" / "trials").glob("*" + dataio.TFR_SUFFIX))
    assert len(fresh) == 8
    for path in fresh:
        assert (tmp_path / "old" / "trials" / path.name).read_bytes() == path.read_bytes()


@pytest.mark.parametrize("rerun,written", [({}, 0), ({"force": True}, 8),
                                            ({"band": (2.0, 30.0)}, 8)],
                         ids=["no-op", "forced", "new-band"])
def test_only_a_transform_that_changes_something_saves_the_manifest(tmp_path, monkeypatch,
                                                                    rerun, written):
    make_dataset(tmp_path)
    path = tmp_path / "manifest.json"
    before, inode = path.read_bytes(), path.stat().st_ino
    saved = []
    save = dataio.save_manifest
    monkeypatch.setattr(dataio, "save_manifest",
                        lambda d, m: (saved.append(m.tfr), save(d, m))[1])
    freqs = dataio.load_manifest(tmp_path).tfr["freqs"]
    assert dataio.transform_dataset(tmp_path, freqs, **rerun) == written
    if written:  # the sidecars are unlisted while written, then listed again
        assert saved == [None, {"freqs": freqs, "suffix": dataio.TFR_SUFFIX}]
    else:
        assert saved == []
        assert path.stat().st_ino == inode and path.read_bytes() == before
    assert dataio.load_trialset(tmp_path, require_tfr=True).tfr.shape == (8, 4, 6, 64)


def _per_trial_sidecars(dataset_dir, out_dir, freqs):
    """Reference sidecar bytes: one ``morlet_power`` and one ``write_array`` per trial."""
    manifest = dataio.load_manifest(dataset_dir)
    plan = signal.make_morlet_plan(freqs, manifest.fs)
    want = {}
    for entry in manifest.trials:
        x = dataio._read_trial(dataset_dir, manifest, entry.file, manifest.preprocess)
        path = out_dir / Path(entry.file).name
        dataio.write_array(path, signal.morlet_power(x, plan))
        want[dataio._tfr_path(dataset_dir, entry.file).name] = path.read_bytes()
    return want


def _sidecars(dataset_dir):
    return {p.name: p.read_bytes()
            for p in sorted((dataset_dir / "trials").glob("*" + dataio.TFR_SUFFIX))}


@pytest.mark.parametrize("trials_per_chunk", [1, 2, None], ids=["one", "two", "default"])
def test_chunked_transform_writes_the_bytes_of_a_per_trial_loop(tmp_path, monkeypatch,
                                                                 trials_per_chunk):
    make_dataset(tmp_path / "d")
    freqs = dataio.load_manifest(tmp_path / "d").tfr["freqs"]
    want = _per_trial_sidecars(tmp_path / "d", tmp_path, freqs)
    if trials_per_chunk is not None:
        # a trial holds ch x (2 x 16 n + 12 F T) bytes at the circular length n
        n = signal.make_morlet_plan(freqs, 128.0).circular_length(64)
        monkeypatch.setattr(kernels, "CHUNK_BYTES",
                            trials_per_chunk * 4 * (2 * 16 * n + 12 * len(freqs) * 64))
    walks = []
    walk = kernels._chunks
    monkeypatch.setattr(kernels, "_chunks", lambda *args: (
        walks.append(walk(*args)), walks[-1])[1])

    assert dataio.transform_dataset(tmp_path / "d", freqs, force=True) == 8
    assert [s.stop - s.start for s in walks[0]] == [trials_per_chunk or 8] * (
        8 // (trials_per_chunk or 8))
    assert _sidecars(tmp_path / "d") == want

    # a cached run transforms only the trials whose sidecars are gone
    names = sorted(want)
    for name in (names[1], names[4], names[5]):
        (tmp_path / "d" / "trials" / name).unlink()
    assert dataio.transform_dataset(tmp_path / "d", freqs) == 3
    assert [s.stop - s.start for s in walks[1]] == {1: [1, 1, 1], 2: [2, 1], None: [3]}[
        trials_per_chunk]
    assert _sidecars(tmp_path / "d") == want
    assert dataio.load_manifest(tmp_path / "d").tfr["freqs"] == freqs


def test_a_bad_trial_on_the_helper_thread_raises_its_data_error_on_the_caller(tmp_path,
                                                                              monkeypatch):
    make_dataset(tmp_path)
    freqs = dataio.load_manifest(tmp_path).tfr["freqs"]
    monkeypatch.setattr(kernels, "CHUNK_BYTES", 1)  # one trial per chunk
    (tmp_path / "trials" / "trial_0001.eegt").unlink()
    threads = {}
    read = dataio._read_trial
    monkeypatch.setattr(dataio, "_read_trial", lambda d, m, file, pre: (
        threads.setdefault(file, threading.current_thread().name), read(d, m, file, pre))[1])
    with pytest.raises(DataError) as info:
        dataio.transform_dataset(tmp_path, freqs, force=True)
    assert str(info.value) == f"missing trial file {tmp_path / 'trials' / 'trial_0001.eegt'}"
    assert threads["trials/trial_0001.eegt"].startswith("dualtsst")
    assert threads["trials/trial_0000.eegt"] == threading.current_thread().name
    assert dataio.load_manifest(tmp_path).tfr is None
    assert not [t for t in threading.enumerate() if t.name.startswith("dualtsst")]


@pytest.mark.parametrize("chunk_bytes", [kernels.CHUNK_BYTES, 1], ids=["one-chunk", "helper"])
def test_a_trial_of_another_shape_is_a_one_line_transform_error(tmp_path, capsys, monkeypatch,
                                                                 chunk_bytes):
    # with one trial per chunk, trial 5 is read on the helper thread
    make_dataset(tmp_path, with_tfr=False)
    monkeypatch.setattr(kernels, "CHUNK_BYTES", chunk_bytes)
    dataio.write_array(tmp_path / "trials/trial_0005.eegt", np.zeros((4, 48)))
    code = cli.dispatch(["transform", "--data", str(tmp_path), "--preset", "mini"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: trials/trial_0005.eegt: shape (4, 48) != (4, 64) of first trial\n"
    assert dataio.load_manifest(tmp_path).tfr is None


def test_write_dataset_over_longer_trials_leaves_files_of_the_new_size(tmp_path):
    make_dataset(tmp_path)
    new = dataio.synth(4, 4, 32, 128.0, MINI_CLASSES, noise=0.1, seed=2)
    dataio.write_dataset(tmp_path, new, name="unit")
    for i in range(len(new)):
        path = tmp_path / f"trials/trial_{i:04d}.eegt"
        assert path.read_bytes() == b"".join(dataio.array_chunks(new.eeg[i]))
    loaded = dataio.load_trialset(tmp_path, normalize=False)
    assert loaded.tfr is None
    np.testing.assert_array_equal(loaded.eeg, new.eeg.astype(np.float32))


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def test_session_split_uses_tags():
    tags = ["train", "test", "train", "train", "test"]
    plan = dataio.SplitPlan(mode="session")
    train, test = dataio.split_indices(5, plan, tags=tags)
    assert list(train) == [0, 2, 3]
    assert list(test) == [1, 4]


def test_session_split_requires_tags():
    with pytest.raises(DataError):
        dataio.split_indices(4, dataio.SplitPlan(mode="session"), tags=[None] * 4)


def test_kfold_partition():
    plan = dataio.SplitPlan(mode="kfold", k=5, fold=0, seed=3)
    train, test = dataio.split_indices(10, plan)
    assert len(train) == 8 and len(test) == 2
    assert set(train) | set(test) == set(range(10))
    assert set(train) & set(test) == set()


def test_kfold_deterministic_and_fold_dependent():
    plan = dataio.SplitPlan(mode="kfold", k=5, fold=0, seed=7)
    a = dataio.split_indices(20, plan)
    b = dataio.split_indices(20, plan)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    other = dataio.split_indices(20, dataio.SplitPlan(mode="kfold", k=5, fold=1, seed=7))
    assert not np.array_equal(a[1], other[1])


def test_kfold_folds_are_exhaustive():
    tests = []
    for fold in range(4):
        _, te = dataio.split_indices(13, dataio.SplitPlan(mode="kfold", k=4, fold=fold, seed=0))
        tests.append(set(te))
    assert set().union(*tests) == set(range(13))
    assert sum(len(t) for t in tests) == 13


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


MINI_CLASSES = [dataio.SynthClass(8.0, (0, 1)), dataio.SynthClass(20.0, (2, 3))]


def test_synth_shapes_and_determinism():
    a = dataio.synth(5, 4, 64, 128.0, MINI_CLASSES, noise=0.3, seed=42)
    b = dataio.synth(5, 4, 64, 128.0, MINI_CLASSES, noise=0.3, seed=42)
    assert a.eeg.shape == (10, 4, 64)
    assert np.array_equal(a.eeg, b.eeg)
    assert np.array_equal(a.labels, b.labels)


def test_synth_empty():
    ts = dataio.synth(0, 4, 64, 128.0, MINI_CLASSES)
    assert len(ts) == 0


def test_synth_rejects_aliased_class():
    with pytest.raises(DataError):
        dataio.synth(1, 2, 64, 128.0, [dataio.SynthClass(70.0, None)])


def test_synth_noiseless_separable_by_frequency_rule():
    ts = dataio.synth(6, 4, 64, 128.0, MINI_CLASSES, noise=0.0, seed=0)
    plan = signal.make_morlet_plan([8.0, 20.0], 128.0)
    correct = 0
    for i in range(len(ts)):
        power = signal.morlet_power(ts.eeg[i], plan)
        profile = power.mean(axis=-1)  # [ch, F]
        score0 = profile[[0, 1], 0].mean()  # class-0 channels at 8 Hz
        score1 = profile[[2, 3], 1].mean()  # class-1 channels at 20 Hz
        pred = 0 if score0 > score1 else 1
        correct += pred == ts.labels[i]
    assert correct == len(ts)


# ---------------------------------------------------------------------------
# datasets on disk
# ---------------------------------------------------------------------------


def make_dataset(tmp_path, n_per_class=4, noise=0.1, with_tfr=True):
    ts = dataio.synth(n_per_class, 4, 64, 128.0, MINI_CLASSES, noise=noise, seed=1)
    dataio.write_dataset(tmp_path, ts, name="unit")
    if with_tfr:
        dataio.transform_dataset(tmp_path, [4.0, 8.0, 12.0, 16.0, 20.0, 24.0])
    return ts


def test_dataset_round_trip(tmp_path):
    ts = make_dataset(tmp_path)
    full = dataio.load_trialset(tmp_path, require_tfr=True, normalize=False)
    assert len(full) == len(ts)
    assert full.tfr.shape == (8, 4, 6, 64)
    np.testing.assert_allclose(full.eeg, ts.eeg.astype(np.float32), atol=0.0)
    assert full.class_names == ts.class_names


def test_load_dataset_split(tmp_path):
    make_dataset(tmp_path)
    plan = dataio.SplitPlan(mode="kfold", k=4, fold=0, seed=0)
    train, test = dataio.load_dataset(tmp_path, plan, require_tfr=True)
    assert len(train) == 6 and len(test) == 2
    # normalisation applied per channel / per (channel, freq)
    assert np.all(np.abs(train.eeg.mean(axis=-1)) < 1e-9)
    assert np.all(np.abs(train.tfr.mean(axis=-1)) < 1e-9)


def test_load_dataset_parses_the_manifest_once(tmp_path, monkeypatch):
    make_dataset(tmp_path)
    calls = []
    parse = dataio.load_manifest
    monkeypatch.setattr(dataio, "load_manifest", lambda d: calls.append(d) or parse(d))
    dataio.load_dataset(tmp_path, dataio.SplitPlan(mode="kfold", k=4), require_tfr=True)
    assert len(calls) == 1


def test_load_requires_tfr(tmp_path):
    make_dataset(tmp_path, with_tfr=False)
    plan = dataio.SplitPlan(mode="kfold", k=4, fold=0)
    with pytest.raises(DataError, match="transform"):
        dataio.load_dataset(tmp_path, plan, require_tfr=True)


def test_transform_cache_skips_existing(tmp_path):
    make_dataset(tmp_path, with_tfr=False)
    freqs = [4.0, 8.0]
    first = dataio.transform_dataset(tmp_path, freqs)
    again = dataio.transform_dataset(tmp_path, freqs)
    assert first == 8 and again == 0
    changed = dataio.transform_dataset(tmp_path, [4.0, 8.0, 12.0])
    assert changed == 8


def test_manifest_label_out_of_range(tmp_path):
    ts = make_dataset(tmp_path, with_tfr=False)
    manifest = dataio.load_manifest(tmp_path)
    manifest.trials[0].label = 7
    with pytest.raises(DataError, match="label"):
        dataio.save_manifest(tmp_path, manifest)
    del ts


def test_missing_trial_file(tmp_path):
    make_dataset(tmp_path, with_tfr=False)
    (tmp_path / "trials" / "trial_0000.eegt").unlink()
    with pytest.raises(DataError, match="missing"):
        dataio.load_trialset(tmp_path)


@pytest.mark.parametrize("channels", [pytest.param([f"c{i}" for i in range(22)], id="22-names"),
                                      pytest.param([], id="none")])
@pytest.mark.parametrize("read", [
    pytest.param(lambda d: dataio.load_trialset(d, require_tfr=True), id="load"),
    pytest.param(lambda d: dataio.transform_dataset(d, [4.0, 8.0], force=True), id="transform"),
])
def test_a_channel_list_that_does_not_match_the_trials_is_a_data_error(tmp_path, channels,
                                                                       read):
    make_dataset(tmp_path, n_per_class=1)  # trials of 4 channels
    path = tmp_path / "manifest.json"
    raw = json.loads(path.read_text())
    raw["channels"] = channels
    path.write_text(json.dumps(raw))
    before = {f: f.read_bytes() for f in tmp_path.rglob("*") if f.is_file()}
    with pytest.raises(DataError) as info:
        read(tmp_path)
    assert str(info.value) == (f"trials/trial_0000.eegt: trial has 4 channels, the manifest's "
                               f"channels lists {len(channels)}")
    assert {f: f.read_bytes() for f in tmp_path.rglob("*") if f.is_file()} == before


def _set(path, value):
    """Manifest edit: set the JSON value at ``path`` (a tuple of keys)."""
    def edit(raw):
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return json.dumps(raw).encode()
    return edit


@pytest.mark.parametrize("edit", [
    pytest.param(_set(("trials", 0, "label"), "x"), id="label-string"),
    pytest.param(_set(("trials", 0, "label"), True), id="label-bool"),
    pytest.param(_set(("n_classes",), "2"), id="n_classes-string"),
    pytest.param(_set(("fs",), "abc"), id="fs-string"),
    pytest.param(_set(("fs",), -128.0), id="fs-negative"),
    pytest.param(_set(("fs",), 10**400), id="fs-beyond-float64"),
    pytest.param(_set(("tfr",), {"freqs": "ab"}), id="tfr-freqs-string"),
    pytest.param(_set(("trials", 0, "file"), 5), id="file-number"),
    pytest.param(_set(("preprocess",), {"band": [1, 2, 3], "window": None}), id="band-three"),
    pytest.param(_set(("preprocess",), {"band": None, "window": ["a", 1]}), id="window-string"),
    pytest.param(_set(("class_names",), [0, 1]), id="class_names-numbers"),
    pytest.param(lambda raw: b"\xff" + json.dumps(raw).encode(), id="not-utf8"),
    pytest.param(lambda raw: b"[]", id="not-an-object"),
])
def test_malformed_manifest_is_a_one_line_data_error(tmp_path, edit):
    make_dataset(tmp_path, n_per_class=1)
    path = tmp_path / "manifest.json"
    path.write_bytes(edit(json.loads(path.read_text())))
    with pytest.raises(DataError) as info:
        dataio.load_manifest(tmp_path)
    message = str(info.value)
    assert str(path) in message and "\n" not in message


@pytest.mark.parametrize("field,key,value", [
    pytest.param("tfr", "freqs", [math.nan, 8.0, 12.0], id="freq-nan"),
    pytest.param("preprocess", "band", [0.0, math.inf], id="band-inf"),
    pytest.param("preprocess", "window", [-math.inf, 1.0], id="window-inf"),
    pytest.param("preprocess", "window", [0, 10**400], id="window-beyond-float64"),
])
def test_non_finite_manifest_value_is_a_one_line_data_error(tmp_path, field, key, value):
    make_dataset(tmp_path, n_per_class=1)
    path = tmp_path / "manifest.json"
    before = path.read_bytes()
    raw = json.loads(before)
    raw[field] = {**(raw[field] or {"band": None, "window": None}), key: value}
    with pytest.raises(DataError) as saved:
        dataio.save_manifest(tmp_path, dataclasses.replace(dataio.load_manifest(tmp_path),
                                                           **{field: raw[field]}))
    assert path.read_bytes() == before
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError) as loaded:
        dataio.load_manifest(tmp_path)
    assert str(loaded.value).startswith(f"{path}: {field} must be ")
    for info in (saved, loaded):
        assert "finite numbers" in str(info.value) and "\n" not in str(info.value)


@pytest.mark.parametrize("field,key,value,named", [
    pytest.param("tfr", "suffix", ".nope", "tfr.suffix", id="tfr-suffix"),
    pytest.param("tfr", "extra", 1, "'extra'", id="tfr-unknown-key"),
    pytest.param("preprocess", "junk", None, "'junk'", id="preprocess-unknown-key"),
])
def test_manifest_key_it_would_not_read_is_a_one_line_data_error(tmp_path, field, key, value,
                                                                 named):
    make_dataset(tmp_path, n_per_class=1)
    path = tmp_path / "manifest.json"
    before = path.read_bytes()
    raw = json.loads(before)
    raw[field] = {**raw[field], key: value}
    with pytest.raises(DataError) as saved:
        dataio.save_manifest(tmp_path, dataclasses.replace(dataio.load_manifest(tmp_path),
                                                           **{field: raw[field]}))
    assert path.read_bytes() == before
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError) as loaded:
        dataio.load_manifest(tmp_path)
    assert str(loaded.value).startswith(f"{path}: {field}")
    for info in (saved, loaded):
        assert named in str(info.value) and "\n" not in str(info.value)


def test_manifest_without_band_or_window_reads_them_as_null(tmp_path):
    make_dataset(tmp_path, n_per_class=1)
    path = tmp_path / "manifest.json"
    raw = json.loads(path.read_text())
    raw["preprocess"] = {}
    del raw["tfr"]["suffix"]
    path.write_text(json.dumps(raw))
    assert len(dataio.load_trialset(tmp_path, require_tfr=True)) == 2


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A small dataset with sidecars and a mini checkpoint: the dataset root,
    and per file kind the file's path and its intact bytes."""
    root = tmp_path_factory.mktemp("pristine")
    make_dataset(root, n_per_class=1)
    model = DualTsstModel(config_from_preset(dataio.preset("mini")),
                          rng=np.random.default_rng(0))
    model.save(root / "model.dtss")
    files = {"eegt": root / "trials" / "trial_0000.eegt", "dtss": root / "model.dtss",
             "manifest": root / "manifest.json"}
    return root, {kind: (path, path.read_bytes()) for kind, path in files.items()}


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["eegt", "dtss", "manifest"]), truncate=st.booleans(),
       where=st.floats(0.0, 1.0, exclude_max=True), bit=st.integers(0, 7))
def test_truncated_or_bit_flipped_files_raise_only_data_error(pristine, kind, truncate,
                                                              where, bit):
    root, files = pristine
    path, blob = files[kind]
    pos = int(where * len(blob))
    if truncate:
        bad = blob[:pos]
    else:
        bad = blob[:pos] + bytes([blob[pos] ^ (1 << bit)]) + blob[pos + 1 :]
    load = {"eegt": lambda: dataio.read_array(path),
            "dtss": lambda: DualTsstModel.load(path),
            "manifest": lambda: dataio.load_trialset(root, require_tfr=True)}[kind]
    path.write_bytes(bad)
    try:
        load()
    except DataError:
        pass
    finally:
        path.write_bytes(blob)


def test_session_split_through_manifest(tmp_path):
    ts = dataio.synth(3, 2, 32, 64.0, [dataio.SynthClass(8.0, None)], seed=0)
    splits = ["train", "train", "test"]
    dataio.write_dataset(tmp_path, ts, splits=splits)
    train, test = dataio.load_dataset(tmp_path, dataio.SplitPlan(mode="session"))
    assert len(train) == 2 and len(test) == 1


@pytest.mark.parametrize("mode", ["kfold", "session"])
def test_load_dataset_equals_the_whole_set_normalised_then_split(tmp_path, mode):
    """Each split holds the bits of z-scoring the whole set, then subsetting."""
    ts = dataio.synth(5, 4, 64, 128.0, MINI_CLASSES, noise=0.3, seed=4)
    tags = ["test" if i % 3 == 1 else "train" for i in range(len(ts))]
    dataio.write_dataset(tmp_path, ts, splits=tags if mode == "session" else None)
    dataio.transform_dataset(tmp_path, [4.0, 8.0, 12.0], band=(2.0, 30.0))
    plan = dataio.SplitPlan(mode=mode, k=3, fold=1, seed=2)
    raw = dataio.load_trialset(tmp_path, require_tfr=True, normalize=False)
    eeg, tfr = signal.zscore(raw.eeg), signal.zscore(raw.tfr)
    splits = dataio.load_dataset(tmp_path, plan, require_tfr=True)
    for part, idx in zip(splits, dataio.split_indices(len(raw), plan, tags=tags)):
        assert np.array_equal(part.eeg, eeg[idx]) and np.array_equal(part.tfr, tfr[idx])
        assert np.array_equal(part.labels, raw.labels[idx])


def test_unnormalised_load_holds_the_stored_values(tmp_path):
    make_dataset(tmp_path)
    full = dataio.load_trialset(tmp_path, require_tfr=True, normalize=False)
    files = [t.file for t in dataio.load_manifest(tmp_path).trials]
    eeg = np.stack([dataio.read_array(tmp_path / f) for f in files])
    tfr = np.stack([dataio.read_array(dataio._tfr_path(tmp_path, f)) for f in files])
    assert full.eeg.dtype == full.tfr.dtype == np.float64
    assert np.array_equal(full.eeg, eeg) and np.array_equal(full.tfr, tfr)


def _bci2a_dataset(root, n):
    """``n`` random trials at the bci2a preset's geometry, half of them test."""
    p = dataio.preset("bci2a")
    rng = np.random.default_rng(n)
    freqs = p.freqs()
    ts = dataio.TrialSet(eeg=rng.normal(size=(n, p.n_channels, p.n_times)),
                         labels=np.arange(n) % p.n_classes, fs=p.fs, freqs=freqs,
                         tfr=rng.random(size=(n, p.n_channels, freqs.size, p.n_times)))
    dataio.write_dataset(root, ts, splits=["train", "test"] * (n // 2))


def test_load_dataset_peak_grows_by_little_more_than_the_bytes_kept(tmp_path):
    """At the paper's bci2a geometry each trial adds to the load peak about
    what it adds to the arrays kept: no trial list, stacked or split copy."""
    peaks, kept = [], []
    for n in (2, 6):
        _bci2a_dataset(tmp_path / str(n), n)
        tracemalloc.start()
        try:
            splits = dataio.load_dataset(tmp_path / str(n), dataio.SplitPlan(mode="session"),
                                         require_tfr=True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        kept.append(sum(part.eeg.nbytes + part.tfr.nbytes for part in splits))
        del splits
    slope, per_trial = (peaks[1] - peaks[0]) / 4, (kept[1] - kept[0]) / 4
    assert slope <= 1.25 * per_trial, (f"peak grows {slope / 2**20:.2f} MiB per trial, "
                                       f"{per_trial / 2**20:.2f} MiB kept")


def test_a_test_split_of_another_shape_is_a_one_line_data_error(tmp_path, capsys):
    ts = dataio.synth(3, 4, 64, 128.0, MINI_CLASSES, noise=0.3, seed=1)
    dataio.write_dataset(tmp_path, ts, splits=["train"] * 4 + ["test"] * 2)
    dataio.transform_dataset(tmp_path, dataio.preset("mini").freqs())
    for entry in dataio.load_manifest(tmp_path).trials[4:]:
        dataio.write_array(tmp_path / entry.file, np.zeros((4, 48)))
        dataio.write_array(dataio._tfr_path(tmp_path, entry.file), np.zeros((4, 6, 48)))
    with pytest.raises(DataError, match=r"trial_0004.eegt: shape \(4, 48\) != \(4, 64\)"):
        dataio.load_dataset(tmp_path, dataio.SplitPlan(mode="session"), require_tfr=True)
    code = cli.dispatch(["train", "--data", str(tmp_path), "--out", str(tmp_path / "run"),
                         "--preset", "mini", "--split", "session", "--epochs", "1", "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "trial_0004.eegt: shape (4, 48)" in err


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def test_preset_values():
    p2a = dataio.preset("bci2a")
    assert p2a.n_classes == 4 and p2a.augment_segments == 8
    assert p2a.n_times == 1000 and len(p2a.freqs()) == 40
    p2b = dataio.preset("bci2b")
    assert p2b.n_channels == 3 and p2b.augment_segments == 9 and p2b.n_times == 1125
    seed = dataio.preset("seed")
    assert seed.augment_segments == 0 and seed.n_channels == 62
    assert len(seed.freqs()) == 50


def assert_the_arange_grid(got, lo, hi, step):
    want = np.arange(lo, hi + 1e-9, step)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", dataio.preset_names())
def test_preset_freqs_are_the_arange_grid_bit_for_bit(name):
    p = dataio.preset(name)
    assert_the_arange_grid(p.freqs(), p.freq_lo, p.freq_hi, p.freq_step)


# hi lands n steps from lo, nudged by about the 1e-9 the grid adds to keep hi on it
@settings(max_examples=300, deadline=None)
@given(lo=st.floats(-50, 200), step=st.floats(1e-2, 20), n=st.integers(-5, 300),
       nudge=st.sampled_from([0.0, 1e-10, -1e-10, 1e-9, -1e-9, 2e-9, -2e-9, 0.5, -0.5]))
def test_freq_grid_is_the_arange_grid_bit_for_bit(lo, step, n, nudge):
    hi = lo + n * step + nudge
    assert_the_arange_grid(dataio.freq_grid(lo, hi, step), lo, hi, step)


@pytest.mark.parametrize("name", [n for n in dataio.preset_names() if dataio.preset(n).window])
def test_a_windowed_preset_keeps_the_samples_of_its_window(name):
    p = dataio.preset(name)
    assert p.n_times == round((p.window[1] - p.window[0]) * p.fs)


def test_preset_unknown():
    with pytest.raises(DataError):
        dataio.preset("nope")


def test_mini_preset_geometry():
    from dualtsst.model import config_from_preset

    cfg = config_from_preset(dataio.preset("mini"))
    raw_only = dataclasses.replace(cfg, use_branch2_input1=False, use_branch2_input2=False)
    view1_only = dataclasses.replace(cfg, use_branch1=False, use_branch2_input2=False)
    assert raw_only.fused_len() == 11
    assert view1_only.fused_len() == 13
    assert cfg.fused_len() == 37
