import dataclasses
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from dualtsst import dataio, metrics, train as training
from dualtsst.cli import dispatch
from dualtsst.model import DualTsstModel, config_from_preset
from dualtsst.tensor import no_grad


@pytest.fixture(scope="module")
def mini_data(tmp_path_factory):
    """A small synthetic dataset with sidecars, shared across CLI tests."""
    data = tmp_path_factory.mktemp("data")
    assert dispatch(["synth", "--out", str(data), "--preset", "mini",
                     "--n", "9", "--noise", "0.4", "--seed", "7"]) == 0
    assert dispatch(["transform", "--data", str(data), "--preset", "mini"]) == 0
    return data


@pytest.fixture
def trials_read(monkeypatch):
    """The trial count of every ``dataio.load_trialset`` call the test makes."""
    counts = []
    load = dataio.load_trialset

    def counted(*args, **kwargs):
        trials = load(*args, **kwargs)
        counts.append(len(trials))
        return trials

    monkeypatch.setattr(dataio, "load_trialset", counted)
    return counts


def train_args(data, out, extra=()):
    return ["train", "--data", str(data), "--out", str(out), "--preset", "mini",
            "--epochs", "4", "--seed", "11", "--quiet", *extra]


def test_unknown_subcommand_exits_1(capsys):
    assert dispatch(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "invalid choice: 'frobnicate'" in err


def test_no_subcommand_exits_1():
    assert dispatch([]) == 1


def test_missing_required_flag_exits_1():
    assert dispatch(["synth"]) == 1


def test_synth_requires_classes_without_preset(tmp_path):
    assert dispatch(["synth", "--out", str(tmp_path / "d")]) == 1


def test_synth_writes_dataset_and_resolved_config(tmp_path):
    out = tmp_path / "ds"
    code = dispatch(["synth", "--out", str(out), "--classes", "8:0+1,20:2+3",
                     "--n", "3", "--ch", "4", "--t", "64", "--fs", "128",
                     "--noise", "0", "--seed", "1"])
    assert code == 0
    manifest = dataio.load_manifest(out)
    assert len(manifest.trials) == 6
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["command"] == "synth"
    assert resolved["classes"][0]["freq"] == 8.0


def test_transform_unknown_dataset_exits_2(tmp_path):
    assert dispatch(["transform", "--data", str(tmp_path / "missing")]) == 2


def test_augment_command(tmp_path, mini_data):
    out = tmp_path / "aug"
    code = dispatch(["augment", "--data", str(mini_data), "--out", str(out),
                     "--r", "8", "--count", "6", "--seed", "3"])
    assert code == 0
    manifest = dataio.load_manifest(out)
    assert len(manifest.trials) == 6
    full = dataio.load_trialset(out, require_tfr=True, normalize=False)
    assert full.tfr.shape[1:] == (4, 6, 64)
    # labels cycle over the classes present
    assert sorted(np.bincount(full.labels)) == [3, 3]


@pytest.mark.parametrize("count", ["0", "-3"])
def test_augment_nonpositive_count_exits_1(tmp_path, mini_data, capsys, count):
    out = tmp_path / "aug"
    code = dispatch(["augment", "--data", str(mini_data), "--out", str(out),
                     "--r", "8", "--count", count])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--count" in err
    assert not out.exists()


def test_sidecar_frequency_axis_must_match_the_manifest(tmp_path, mini_data, capsys):
    data = tmp_path / "data"
    shutil.copytree(mini_data, data)
    path = data / "manifest.json"
    raw = json.loads(path.read_text())
    raw["tfr"]["freqs"] = raw["tfr"]["freqs"][:3]  # the sidecars hold 6
    path.write_text(json.dumps(raw))
    with pytest.raises(dataio.DataError, match="sidecar has 6 frequencies.*lists 3"):
        dataio.load_trialset(data)
    out = tmp_path / "aug"
    code = dispatch(["augment", "--data", str(data), "--out", str(out),
                     "--r", "8", "--count", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "sidecar has 6 frequencies" in err
    assert not out.exists()


@pytest.mark.parametrize("r", ["0", "65"])  # the mini trials have 64 samples
def test_augment_segments_out_of_range_exits_2(tmp_path, mini_data, capsys, trials_read, r):
    out = tmp_path / "aug"
    code = dispatch(["augment", "--data", str(mini_data), "--out", str(out),
                     "--r", r, "--count", "2"])
    assert code == 2
    assert trials_read == [1]  # checked on the first trial, before the rest is read
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--r must be in [1, 64] segments" in err
    assert f"got {r}" in err
    assert not out.exists()


@pytest.mark.parametrize("argv,flag", [
    pytest.param(["synth", "--preset", "mini", "--classes", "8:a"], "'8:a'", id="classes-channel"),
    pytest.param(["synth", "--preset", "mini", "--classes", "8:"], "'8:'", id="classes-empty"),
    pytest.param(["synth", "--preset", "mini", "--noise", "-1"], "--noise", id="noise-negative"),
    pytest.param(["synth", "--preset", "mini", "--noise", "inf"], "--noise", id="noise-inf"),
    pytest.param(["synth", "--preset", "mini", "--noise", "nan"], "--noise", id="noise-nan"),
    pytest.param(["synth", "--preset", "mini", "--t", "0"], "--t", id="t-zero"),
    pytest.param(["synth", "--preset", "mini", "--t", "-5"], "--t", id="t-negative"),
    pytest.param(["synth", "--preset", "mini", "--ch", "0"], "--ch", id="ch-zero"),
    pytest.param(["synth", "--preset", "mini", "--ch", "-1"], "--ch", id="ch-negative"),
    pytest.param(["synth", "--preset", "mini", "--n", "-1"], "--n", id="n-negative"),
    pytest.param(["synth", "--preset", "mini", "--fs", "0"], "--fs", id="fs-zero"),
    pytest.param(["synth", "--preset", "mini", "--fs", "-5"], "--fs", id="fs-negative"),
    pytest.param(["synth", "--preset", "mini", "--fs", "inf"], "--fs", id="fs-inf"),
    pytest.param(["synth", "--preset", "mini", "--fs", "nan"], "--fs", id="fs-nan"),
    pytest.param(["transform", "--preset", "mini", "--freq-step", "0"], "--freq-step",
                 id="freq-step-zero"),
    pytest.param(["transform", "--preset", "mini", "--freq-step", "inf"], "--freq-step",
                 id="freq-step-inf"),
    pytest.param(["transform", "--preset", "mini", "--band", "8-30"],
                 "argument --band: expected 'start:end', got '8-30'", id="band-dash"),
])
def test_bad_flag_value_exits_1(tmp_path, capsys, argv, flag):
    out = tmp_path / "x"
    target = ["--data" if argv[0] == "transform" else "--out", str(out)]
    assert dispatch(argv + target) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flag in err
    assert not out.exists()


@pytest.fixture(scope="module")
def mini_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "m.dtss"
    DualTsstModel(config_from_preset(dataio.preset("mini")),
                  rng=np.random.default_rng(0)).save(path)
    return path


SWEPT_FLAGS = {
    "synth": ["--n", "--ch", "--t", "--fs", "--noise", "--seed", "--classes"],
    "transform": ["--freq-lo", "--freq-hi", "--freq-step", "--window", "--band"],
    "augment": ["--r", "--count", "--seed"],
    "train": ["--seed", "--epochs", "--k", "--fold", "--split-seed"],
    "eval": ["--k", "--fold", "--split-seed"],
    "gradcheck": ["--seed", "--batch"],
}


# bounds, not sizes: a finite frequency grid too large to build (say
# --freq-step 1e-12) is test_transform_non_finite_setting_is_a_one_line_error's
@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "-inf", "1e400", "2.5", "x"])
@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, flags in SWEPT_FLAGS.items() for flag in flags])
def test_every_numeric_flag_value_exits_0_1_or_2(tmp_path, mini_data, mini_model, capsys,
                                                 command, flag, value):
    data, out = tmp_path / "d", tmp_path / "out"
    shutil.copytree(mini_data, data)
    before = {f: f.read_bytes() for f in data.rglob("*") if f.is_file()}
    argv = {
        "synth": ["synth", "--preset", "mini", "--n", "1", "--out", str(out)],
        "transform": ["transform", "--preset", "mini", "--data", str(data)],
        "augment": ["augment", "--data", str(data), "--r", "8", "--count", "2",
                    "--out", str(out)],
        "train": ["train", "--data", str(data), "--preset", "mini", "--epochs", "1",
                  "--quiet", "--out", str(out)],
        "eval": ["eval", "--model", str(mini_model), "--data", str(data), "--preset", "mini",
                 "--out", str(out)],
        "gradcheck": ["gradcheck", "--preset", "mini", "--batch", "1"],
    }[command]
    code = dispatch(argv + [flag, value])
    assert code in (0, 1, 2)
    if code:
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert not out.exists()
        assert {f: f.read_bytes() for f in data.rglob("*") if f.is_file()} == before
    if code == 1:  # a usage error is the parser's, and names the flag
        assert err.startswith(f"error: dualtsst {command}: argument {flag}: ")


def test_synth_preset_window_under_one_sample_exits_1(tmp_path, capsys):
    out = tmp_path / "d"
    assert dispatch(["synth", "--out", str(out), "--preset", "bci2a", "--classes", "8",
                     "--fs", "0.01"]) == 1
    assert capsys.readouterr().err == (
        "error: preset bci2a's window ends at 6.0 s, under one sample at --fs 0.01; "
        "give --t\n")
    assert not out.exists()


@pytest.mark.parametrize("command,flag,value,message", [
    ("train", "--epochs", "0", "epochs and batch_size must be >= 1"),
    ("train", "--k", "1", "kfold needs k >= 2"),
    ("train", "--fold", "9", "fold 9 out of range for k=3"),
    ("eval", "--k", "1", "kfold needs k >= 2"),
    ("eval", "--fold", "9", "fold 9 out of range for k=3"),
])
def test_config_owned_flag_bounds_exit_2(tmp_path, mini_data, mini_model, capsys, command,
                                         flag, value, message):
    """These bounds belong to TrainConfig/SplitPlan, so a config file meets the same ones."""
    out = tmp_path / "x"
    argv = {"train": train_args(mini_data, out),
            "eval": ["eval", "--model", str(mini_model), "--data", str(mini_data),
                     "--preset", "mini", "--out", str(out)]}[command]
    assert dispatch(argv + [flag, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_transform_above_nyquist_exits_2(tmp_path, mini_data, capsys):
    data = tmp_path / "d"
    shutil.copytree(mini_data, data)
    before = {f: f.read_bytes() for f in data.rglob("*") if f.is_file()}
    code = dispatch(["transform", "--data", str(data), "--preset", "mini",
                     "--freq-hi", "100", "--freq-step", "20"])  # 4 .. 84 Hz at fs 128
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "below fs/2 = 64 Hz, got 64, 84 Hz" in err
    assert {f: f.read_bytes() for f in data.rglob("*") if f.is_file()} == before


def test_transform_missing_trial_file_exits_2(tmp_path, capsys):
    data = tmp_path / "d"
    assert dispatch(["synth", "--out", str(data), "--preset", "mini", "--n", "2"]) == 0
    (data / "trials" / "trial_0001.eegt").unlink()
    assert dispatch(["transform", "--data", str(data), "--preset", "mini"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "missing trial file" in err


@pytest.mark.parametrize("name", dataio.preset_names())
def test_synth_preset_writes_what_its_transform_reads(tmp_path, name):
    p = dataio.preset(name)
    data = tmp_path / "d"
    classes = [] if p.synth_classes else [
        "--classes", ",".join(str(8 + 4 * k) for k in range(p.n_classes))]
    assert dispatch(["synth", "--out", str(data), "--preset", name, "--n", "1", *classes]) == 0
    assert dispatch(["transform", "--data", str(data), "--preset", name]) == 0
    trials = dataio.load_trialset(data, require_tfr=True)
    assert (trials.n_channels, trials.n_times, trials.n_freqs) == (
        p.n_channels, p.n_times, len(p.freqs()))


@pytest.mark.parametrize("name", dataio.preset_names())
def test_synth_tags_a_session_split_and_only_for_its_presets(tmp_path, name):
    p = dataio.preset(name)
    classes = [] if p.synth_classes else [
        "--classes", ",".join(str(8 + 4 * k) for k in range(p.n_classes))]
    assert dispatch(["synth", "--out", str(tmp_path), "--preset", name, "--n", "3",
                     "--t", "64", *classes]) == 0
    tags = [t.split for t in dataio.load_manifest(tmp_path).trials]
    if p.split_mode == "session":
        assert tags == ["train", "train", "test"] * p.n_classes
    else:
        assert tags == [None] * 3 * p.n_classes


def test_synth_without_a_preset_writes_no_split_tags(tmp_path):
    assert dispatch(["synth", "--out", str(tmp_path), "--n", "3", "--classes", "8,12"]) == 0
    assert [t.split for t in dataio.load_manifest(tmp_path).trials] == [None] * 6


def test_a_session_preset_runs_its_own_split_from_synth_to_eval(tmp_path, capsys):
    data, run = tmp_path / "d", tmp_path / "run"
    assert dispatch(["synth", "--out", str(data), "--preset", "bci2b", "--n", "3",
                     "--classes", "10,22", "--noise", "0.5"]) == 0
    assert dispatch(["transform", "--data", str(data), "--preset", "bci2b"]) == 0
    assert dispatch(["train", "--data", str(data), "--out", str(run), "--preset", "bci2b",
                     "--epochs", "1", "--quiet"]) == 0
    assert json.loads((run / "resolved_config.json").read_text())["split"]["mode"] == "session"
    capsys.readouterr()
    assert dispatch(["eval", "--model", str(run / "model_final.dtss"), "--data", str(data),
                     "--out", str(tmp_path / "eval"), "--preset", "bci2b"]) == 0
    assert capsys.readouterr().out.rstrip().endswith(" n=2")  # one test trial per class


@pytest.mark.parametrize("flag,value,code,message", [
    pytest.param("--freq-hi", "inf", 1, "dualtsst transform: argument --freq-hi: "
                 "must be a finite number, got inf", id="freq-hi-inf"),
    pytest.param("--freq-lo", "nan", 1, "dualtsst transform: argument --freq-lo: "
                 "must be a finite number, got nan", id="freq-lo-nan"),
    pytest.param("--freq-hi", "nan", 1, "dualtsst transform: argument --freq-hi: "
                 "must be a finite number, got nan", id="freq-hi-nan"),
    pytest.param("--window", "0:inf", 2, "invalid window [0.0, inf]", id="window-inf"),
    pytest.param("--window", "0:1e307", 2, "invalid window [0.0, 1e+307]",
                 id="window-overflows-samples"),
    pytest.param("--freq-lo", "1e20", 2, "frequency grid is empty", id="freq-lo-past-hi"),
    pytest.param("--freq-hi", "1e12", 2, "frequency grid 4 to 1e+12 Hz in steps of 4 Hz has "
                 "over 2147483648 values, more than a tensor record holds", id="freq-hi-huge"),
    pytest.param("--freq-step", "1e-12", 2, "frequency grid 4 to 24 Hz in steps of 1e-12 Hz "
                 "has over 2147483648 values, more than a tensor record holds",
                 id="freq-step-tiny"),
])
def test_transform_non_finite_setting_is_a_one_line_error(tmp_path, mini_data, capsys, flag,
                                                          value, code, message):
    data = tmp_path / "d"
    shutil.copytree(mini_data, data)
    before = {f: f.read_bytes() for f in data.rglob("*") if f.is_file()}
    assert dispatch(["transform", "--data", str(data), "--preset", "mini", flag, value]) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert {f: f.read_bytes() for f in data.rglob("*") if f.is_file()} == before
    assert len(dataio.load_trialset(data, require_tfr=True)) == 18


# flag, its value, the preset, the resolved_config.json key, then the value without a
# preset (None: the run exits 1), with the preset, and with the preset and the flag
SYNTH_PRECEDENCE = [
    pytest.param("--ch", "3", "seed", "n_channels", 4, 62, 3, id="ch"),
    pytest.param("--t", "100", "seed", "n_times", 64, 200, 100, id="t"),
    pytest.param("--fs", "100", "seed", "fs", 128.0, 200.0, 100.0, id="fs"),
    pytest.param("--classes", "10", "mini", "classes", None,
                 [{"freq": 8.0, "channels": [0, 1]}, {"freq": 20.0, "channels": [2, 3]}],
                 [{"freq": 10.0, "channels": None}], id="classes"),
]


@pytest.mark.parametrize("flag,value,preset,key,fallback,preset_value,flag_value",
                         SYNTH_PRECEDENCE)
def test_synth_flag_beats_the_preset_which_beats_the_fallback(tmp_path, flag, value, preset,
                                                              key, fallback, preset_value,
                                                              flag_value):
    classes = [] if flag == "--classes" else ["--classes", "8,12,16"]  # seed has 3 classes

    def resolved(name, extra=()):
        out = tmp_path / name
        assert dispatch(["synth", "--out", str(out), "--n", "1", *classes, *extra]) == 0
        return json.loads((out / "resolved_config.json").read_text())[key]

    if fallback is None:
        assert dispatch(["synth", "--out", str(tmp_path / "bare"), "--n", "1"]) == 1
    else:
        assert resolved("bare") == fallback
    assert resolved("preset", ["--preset", preset]) == preset_value
    assert resolved("flag", ["--preset", preset, flag, value]) == flag_value


# as SYNTH_PRECEDENCE, with a reader of the setting from resolved_config.json
TRANSFORM_PRECEDENCE = [
    pytest.param("--freq-lo", "8", "mini", lambda r: r["freqs"][0], 1.0, 4.0, 8.0,
                 id="freq-lo"),
    pytest.param("--freq-hi", "20", "mini", lambda r: r["freqs"][-1], 40.0, 24.0, 20.0,
                 id="freq-hi"),
    pytest.param("--freq-step", "2", "mini", lambda r: r["freqs"][1] - r["freqs"][0], 1.0,
                 4.0, 2.0, id="freq-step"),
    pytest.param("--window", "1:3", "bci2a", lambda r: r["window"], None, [2.0, 6.0],
                 [1.0, 3.0], id="window"),
    pytest.param("--band", "1:30", "seed", lambda r: r["band"], None, [0.5, 50.0],
                 [1.0, 30.0], id="band"),
]


@pytest.mark.parametrize("flag,value,preset,read,fallback,preset_value,flag_value",
                         TRANSFORM_PRECEDENCE)
def test_transform_flag_beats_the_preset_which_beats_the_fallback(tmp_path, flag, value,
                                                                  preset, read, fallback,
                                                                  preset_value, flag_value):
    # 6 s at 250 Hz: long enough for the bci2a window, fast enough for every preset's grid
    data = tmp_path / "d"
    assert dispatch(["synth", "--out", str(data), "--classes", "8,12", "--n", "1",
                     "--ch", "2", "--t", "1500", "--fs", "250"]) == 0

    def resolved(extra=()):
        assert dispatch(["transform", "--data", str(data), *extra]) == 0
        return read(json.loads((data / "resolved_config.json").read_text()))

    assert resolved() == fallback
    assert resolved(["--preset", preset]) == preset_value
    assert resolved(["--preset", preset, flag, value]) == flag_value


def test_transform_of_a_manifest_whose_channels_do_not_match_exits_2(tmp_path, mini_data,
                                                                     capsys):
    data = tmp_path / "d"
    shutil.copytree(mini_data, data)
    raw = json.loads((data / "manifest.json").read_text())
    raw["channels"] = [f"c{i}" for i in range(22)]
    (data / "manifest.json").write_text(json.dumps(raw))
    before = {f: f.read_bytes() for f in data.rglob("*") if f.is_file()}
    assert dispatch(["transform", "--data", str(data), "--preset", "mini", "--force"]) == 2
    assert capsys.readouterr().err == ("error: trials/trial_0000.eegt: trial has 4 channels, "
                                       "the manifest's channels lists 22\n")
    assert {f: f.read_bytes() for f in data.rglob("*") if f.is_file()} == before


def test_train_on_a_manifest_with_an_infinite_window_exits_2(tmp_path, mini_data, capsys):
    data = tmp_path / "d"
    shutil.copytree(mini_data, data)
    path = data / "manifest.json"
    raw = json.loads(path.read_text())
    raw["preprocess"] = {"band": None, "window": [0.0, math.inf]}
    path.write_text(json.dumps(raw))
    assert "Infinity" in path.read_text()
    out = tmp_path / "run"
    assert dispatch(train_args(data, out)) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: preprocess must be null or an object whose band and window are "
        "null or two finite numbers, got {'band': None, 'window': [0.0, inf]}\n")
    assert not out.exists()


@pytest.mark.parametrize("batch", ["0", "-2"])
def test_gradcheck_nonpositive_batch_exits_1(capsys, batch):
    assert dispatch(["gradcheck", "--preset", "mini", "--batch", batch]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--batch" in err


def test_train_eval_stats_pipeline(tmp_path, mini_data):
    out = tmp_path / "run"
    assert dispatch(train_args(mini_data, out)) == 0
    assert (out / "log.csv").exists()
    assert (out / "model_final.dtss").exists()
    assert (out / "resolved_config.json").exists()

    evaldir = tmp_path / "eval"
    feats = tmp_path / "features.eegt"
    code = dispatch(["eval", "--model", str(out / "model_final.dtss"),
                     "--data", str(mini_data), "--out", str(evaldir),
                     "--preset", "mini", "--features", str(feats)])
    assert code == 0
    report = json.loads((evaldir / "report.json").read_text())
    assert 0.0 <= report["accuracy"] <= 1.0
    assert (evaldir / "confusion.csv").exists()
    assert dataio.read_array(feats).shape[1] == 8  # pre-classifier width

    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("0.8\n0.7\n0.9\n0.6\n")
    b.write_text("0.6\n0.5\n0.8\n0.6\n")
    assert dispatch(["stats", "--a", str(a), "--b", str(b)]) == 0


def test_stats_non_finite_value_exits_2(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("0.8\n0.7\n0.9\n")
    b.write_text("0.6\nnan\n0.8\n")
    assert dispatch(["stats", "--a", str(a), "--b", str(b)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and str(b) in captured.err
    assert "non-finite" in captured.err and captured.out == ""


def test_stats_undefined_when_identical(tmp_path, capsys):
    a = tmp_path / "a.txt"
    a.write_text("0.5\n0.5\n")
    out = tmp_path / "stats"
    assert dispatch(["stats", "--a", str(a), "--b", str(a), "--out", str(out)]) == 0
    assert "undefined" in capsys.readouterr().out
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved == {"command": "stats", "a": str(a), "b": str(a), "W": None, "p": None,
                        "n_effective": 0, "method": "undefined"}


def test_train_rerun_from_resolved_config_is_bit_identical(tmp_path, mini_data):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert dispatch(train_args(mini_data, out1)) == 0
    code = dispatch(["train", "--data", str(mini_data), "--out", str(out2),
                     "--config", str(out1 / "resolved_config.json"), "--quiet"])
    assert code == 0
    assert (out1 / "log.csv").read_bytes() == (out2 / "log.csv").read_bytes()
    assert (out1 / "model_final.dtss").read_bytes() == (out2 / "model_final.dtss").read_bytes()


def test_train_parses_the_manifest_once(tmp_path, mini_data, monkeypatch, trials_read):
    """The split manifests of the first-trial probe are the ones the full
    load reads; the probe's own read of the first trial stays."""
    parsed = []
    parse = dataio.load_manifest
    monkeypatch.setattr(dataio, "load_manifest", lambda d: parsed.append(d) or parse(d))
    assert dispatch(train_args(mini_data, tmp_path / "run", ["--epochs", "1"])) == 0
    assert len(parsed) == 1
    assert trials_read[0] == 1 and len(trials_read) == 3  # the probe, then train and test


def test_train_geometry_mismatch_exits_2(tmp_path, mini_data, capsys, trials_read):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"model": {"n_times": 32}}))
    out = tmp_path / "bad_run"
    code = dispatch(["train", "--data", str(mini_data), "--out", str(out),
                     "--preset", "mini", "--epochs", "1", "--config", str(cfg),
                     "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert "32" in err and "64" in err  # offending shapes named
    assert trials_read == [1]
    assert not (out / "resolved_config.json").exists()


@pytest.mark.parametrize("field,value", [
    ("time_kernel_raw", 0), ("time_kernel_tfr", 0), ("pool_raw", 0), ("pool_tfr", 0),
    ("pool_raw_stride", -1), ("pool_tfr_stride", -1),
])
def test_train_kernel_or_pool_below_minimum_exits_2(tmp_path, mini_data, capsys, field, value):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"model": {field: value}}))
    out = tmp_path / "x"
    assert dispatch(["train", "--data", str(mini_data), "--out", str(out),
                     "--preset", "mini", "--epochs", "1", "--config", str(cfg),
                     "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{field} must be >= " in err
    assert not out.exists()


@pytest.mark.parametrize("field,value", [
    ("weight_decay", -5.0), ("lr_max", math.inf), ("weight_decay", math.nan),
    ("cycle_epochs", 0), ("batch_size", 0), ("augment_segments", -1), ("dtype", "float16"),
])
def test_train_bad_optimiser_value_exits_2(tmp_path, mini_data, capsys, monkeypatch,
                                           field, value):
    loads = []  # the train settings are checked before the dataset is read
    monkeypatch.setattr(dataio, "load_dataset", lambda *a, **kw: loads.append(a))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"train": {field: value}}))  # inf and nan as Infinity and NaN
    out = tmp_path / "x"
    assert dispatch(["train", "--data", str(mini_data), "--out", str(out),
                     "--preset", "mini", "--epochs", "1", "--config", str(cfg),
                     "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and field in err
    assert loads == []
    assert not (out / "resolved_config.json").exists()


def test_train_unknown_config_key_exits_2(tmp_path, mini_data, capsys):
    cfg = tmp_path / "unknown.json"
    cfg.write_text(json.dumps({"model": {"embed_dimension": 8}}))
    assert dispatch(["train", "--data", str(mini_data), "--out",
                     str(tmp_path / "x"), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("config", [
    pytest.param({"model": 5}, id="model-not-object"),
    pytest.param({"seed": "abc"}, id="seed-string"),
    pytest.param({"seed": True}, id="seed-bool"),
    pytest.param({"model": {"embed_dim": "x"}}, id="model-field-string"),
    pytest.param({"train": {"lr_max": "fast"}}, id="train-field-string"),
    pytest.param({"split": 3}, id="split-not-object"),
    pytest.param({"split": {"k": "x"}}, id="split-field-string"),
    pytest.param({"split": {"folds": 3}}, id="split-unknown-key"),
    pytest.param({"preset": ["mini"]}, id="preset-not-string"),
    pytest.param([], id="not-an-object"),
    pytest.param({"junk": 1}, id="unknown-top-level-key"),
])
def test_train_malformed_config_exits_2(tmp_path, mini_data, capsys, config):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "x"
    assert dispatch(["train", "--data", str(mini_data), "--out", str(out),
                     "--preset", "mini", "--epochs", "1", "--config", str(cfg),
                     "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(cfg) in err
    assert not out.exists()


@pytest.mark.parametrize("write", [
    pytest.param(lambda path: None, id="missing"),
    pytest.param(lambda path: path.write_text("{"), id="invalid-json"),
    pytest.param(lambda path: path.mkdir(), id="a-directory"),
])
def test_train_unreadable_config_exits_2(tmp_path, mini_data, capsys, write):
    cfg = tmp_path / "c.json"
    write(cfg)
    out = tmp_path / "x"
    assert dispatch(train_args(mini_data, out, extra=["--config", str(cfg)])) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {cfg}: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("split,message", [
    ({"k": 1}, "kfold needs k >= 2"), ({"fold": 3}, "fold 3 out of range for k=3"),
])
def test_train_config_split_out_of_range_exits_2(tmp_path, mini_data, capsys, split, message):
    out = tmp_path / "x"
    assert config_run(mini_data, out, {"split": split}) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_config_checks_cover_every_field_type():
    from dualtsst.dataio import _JSON_CHECKS
    from dualtsst.model import ModelConfig
    from dualtsst.train import TrainConfig

    types = {f.type for cls in (ModelConfig, TrainConfig, dataio.SplitPlan)
             for f in dataclasses.fields(cls)}
    assert types <= set(_JSON_CHECKS)


@pytest.mark.parametrize("command,flag", [
    ("synth", "--seed"), ("augment", "--seed"), ("train", "--seed"),
    ("train", "--split-seed"), ("eval", "--split-seed"), ("gradcheck", "--seed"),
])
def test_negative_seed_flag_exits_1(tmp_path, mini_data, capsys, command, flag):
    args = {
        "synth": ["synth", "--preset", "mini"],
        "augment": ["augment", "--data", str(mini_data), "--r", "8"],
        "train": ["train", "--data", str(mini_data), "--preset", "mini", "--quiet"],
        "eval": ["eval", "--model", str(tmp_path / "m.dtss"), "--data", str(mini_data)],
        "gradcheck": ["gradcheck", "--preset", "mini"],
    }[command]
    out = tmp_path / "x"
    if command != "gradcheck":
        args += ["--out", str(out)]
    assert dispatch(args + [flag, "-1"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flag in err
    assert not out.exists()


@pytest.mark.parametrize("config", [{"seed": -1}, {"train": {"seed": -1}},
                                    {"split": {"seed": -1}}], ids=["top", "train", "split"])
def test_train_negative_config_seed_exits_2(tmp_path, mini_data, capsys, config):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    assert dispatch(["train", "--data", str(mini_data), "--out", str(tmp_path / "x"),
                     "--preset", "mini", "--split", "kfold", "--epochs", "1",
                     "--config", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "seed must be >= 0" in err


def config_run(data, out, config=None, extra=()):
    argv = ["train", "--data", str(data), "--out", str(out), "--preset", "mini",
            "--epochs", "2", "--quiet", *extra]
    if config is not None:
        path = out.with_suffix(".json")
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    return dispatch(argv)


def test_train_config_seeds_that_disagree_exit_2(tmp_path, mini_data, capsys):
    out = tmp_path / "x"
    assert config_run(mini_data, out, {"seed": 1, "train": {"seed": 2}}) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "seed 1 and train.seed 2 disagree" in err
    assert not (out / "resolved_config.json").exists()


def test_a_top_level_config_seed_is_the_train_seed(tmp_path, mini_data):
    flag = tmp_path / "flag"
    assert config_run(mini_data, flag, extra=["--seed", "5"]) == 0
    for i, config in enumerate([{"seed": 5}, {"train": {"seed": 5}},
                                {"seed": 5, "train": {"seed": 5}}]):
        out = tmp_path / f"config{i}"
        assert config_run(mini_data, out, config) == 0
        for name in ("log.csv", "model_final.dtss"):
            assert (out / name).read_bytes() == (flag / name).read_bytes()
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert "seed" not in resolved and resolved["train"]["seed"] == 5


def test_float32_training_is_deterministic_and_reloads_as_float32(tmp_path, mini_data):
    runs = [tmp_path / "r1", tmp_path / "r2"]
    for out in runs:
        assert config_run(mini_data, out, {"train": {"dtype": "float32"}},
                          extra=["--seed", "3"]) == 0
    for name in ("log.csv", "model_best.dtss", "model_final.dtss"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
    model = DualTsstModel.load(runs[0] / "model_final.dtss")
    assert model.dtype == np.float32
    assert all(p.data.dtype == np.float32 for p in model.params.values())


def test_train_backend_flag_is_a_usage_error(tmp_path, mini_data, capsys):
    assert dispatch(train_args(mini_data, tmp_path / "x", extra=["--backend", "numpy"])) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--backend" in err


def test_resolved_config_with_backend_key_still_replays(tmp_path, mini_data):
    """Resolved configs written while the kernels had a backend switch carry
    a "backend" key; it is accepted and ignored."""
    out1 = tmp_path / "r1"
    assert dispatch(train_args(mini_data, out1)) == 0
    resolved = json.loads((out1 / "resolved_config.json").read_text())
    assert "backend" not in resolved
    old = tmp_path / "old.json"
    old.write_text(json.dumps({**resolved, "backend": "numpy"}))
    out2 = tmp_path / "r2"
    assert dispatch(["train", "--data", str(mini_data), "--out", str(out2),
                     "--config", str(old), "--quiet"]) == 0
    assert (out1 / "log.csv").read_bytes() == (out2 / "log.csv").read_bytes()


def test_resolved_config_records_the_environment_and_still_replays(tmp_path, mini_data,
                                                                  monkeypatch):
    """train records the environment next to the config; a replay ignores
    the block, even one from another machine."""
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out1 = tmp_path / "r1"
    assert dispatch(train_args(mini_data, out1)) == 0
    resolved = json.loads((out1 / "resolved_config.json").read_text())
    assert "seed" not in resolved and resolved["train"]["seed"] == 11
    env = resolved["environment"]
    assert set(env) == {"python", "numpy", "cpu_count", "blas_threads"}
    assert env["numpy"] == np.__version__ and isinstance(env["python"], str)
    assert isinstance(env["cpu_count"], int) and env["cpu_count"] >= 1
    assert env["blas_threads"]["OMP_NUM_THREADS"] == "1"
    assert env["blas_threads"]["MKL_NUM_THREADS"] is None
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**resolved, "environment": {"python": "0.0", "cpu_count": 512}}))
    for cfg, out in ((out1 / "resolved_config.json", tmp_path / "r2"), (other, tmp_path / "r3")):
        assert dispatch(["train", "--data", str(mini_data), "--out", str(out),
                         "--config", str(cfg), "--quiet"]) == 0
        assert (out1 / "log.csv").read_bytes() == (out / "log.csv").read_bytes()


def test_eval_records_the_environment(tmp_path, mini_data, monkeypatch):
    """eval records the environment next to its config, as train does."""
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    run, evaldir = tmp_path / "run", tmp_path / "eval"
    assert dispatch(train_args(mini_data, run)) == 0
    assert dispatch(["eval", "--model", str(run / "model_final.dtss"), "--data", str(mini_data),
                     "--out", str(evaldir), "--preset", "mini"]) == 0
    trained = json.loads((run / "resolved_config.json").read_text())
    resolved = json.loads((evaldir / "resolved_config.json").read_text())
    assert resolved["command"] == "eval"
    assert resolved["environment"] == trained["environment"]
    assert resolved["environment"]["blas_threads"]["OMP_NUM_THREADS"] == "1"


def test_train_summary_says_the_best_accuracy_is_not_held_out(tmp_path, mini_data, capsys):
    assert dispatch(train_args(mini_data, tmp_path / "run")) == 0
    lines = capsys.readouterr().out.splitlines()
    best = [line for line in lines if line.startswith("best test accuracy")]
    assert len(best) == 1
    assert best[0].endswith("(selected on the test split: not a held-out estimate)"), best


def test_ablation_flags(tmp_path, mini_data):
    out = tmp_path / "ablate"
    code = dispatch(train_args(mini_data, out, extra=["--no-transformer", "--no-augment"]))
    assert code == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["model"]["use_transformer"] is False
    assert resolved["train"]["augment_segments"] == 0


# flags, the config key they set, its value at the mini preset, in the config file, and
# the value the run resolves: the flag's, or the config file's when no flag is given
PRECEDENCE = [
    pytest.param([], "train.epochs", 200, 2, 2, id="no-flag"),
    pytest.param(["--epochs", "1"], "train.epochs", 200, 2, 1, id="epochs"),
    pytest.param(["--seed", "5"], "train.seed", 0, 3, 5, id="seed"),
    pytest.param(["--split", "kfold"], "split.mode", "kfold", "session", "kfold", id="split"),
    pytest.param(["--k", "2"], "split.k", 3, 4, 2, id="k"),
    pytest.param(["--fold", "2"], "split.fold", 0, 1, 2, id="fold"),
    pytest.param(["--split-seed", "2"], "split.seed", 0, 1, 2, id="split-seed"),
    pytest.param(["--no-transformer"], "model.use_transformer", True, True, False,
                 id="no-transformer"),
    pytest.param(["--no-branch1"], "model.use_branch1", True, True, False, id="no-branch1"),
    pytest.param(["--no-b2-input1"], "model.use_branch2_input1", True, True, False,
                 id="no-b2-input1"),
    pytest.param(["--no-b2-input2"], "model.use_branch2_input2", True, True, False,
                 id="no-b2-input2"),
    pytest.param(["--no-augment"], "train.augment_segments", 8, 4, 0, id="no-augment"),
]


@pytest.mark.parametrize("flags,key,preset_value,config_value,want", PRECEDENCE)
def test_flags_beat_the_config_file_which_beats_the_preset(tmp_path, mini_data, monkeypatch,
                                                           flags, key, preset_value,
                                                           config_value, want):
    # resolved_config.json is written before training starts, so none is needed
    monkeypatch.setattr(training, "train_loop", lambda *a, **kw: training.TrainResult(
        log=[], best_epoch=None, best_test_acc=None))
    section, field = key.split(".")

    def resolved(out, extra=()):
        assert dispatch(["train", "--data", str(mini_data), "--out", str(out),
                         "--preset", "mini", "--quiet", *extra]) == 0
        return json.loads((out / "resolved_config.json").read_text())[section][field]

    config = tmp_path / "config.json"
    config.write_text(json.dumps({section: {field: config_value}}))
    assert resolved(tmp_path / "preset") == preset_value
    assert resolved(tmp_path / "run", ["--config", str(config), *flags]) == want


def test_eval_split_flags_beat_the_preset(tmp_path, mini_data):
    out = tmp_path / "e"
    assert dispatch(["eval", "--model", str(mini_checkpoint(tmp_path / "m.dtss")),
                     "--data", str(mini_data), "--out", str(out), "--preset", "mini",
                     "--k", "4", "--fold", "3", "--split-seed", "2"]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["split"] == {"mode": "kfold", "k": 4, "fold": 3, "seed": 2}


def test_an_empty_config_split_mode_exits_2(tmp_path, mini_data, capsys):
    out = tmp_path / "x"
    assert config_run(mini_data, out, {"split": {"mode": ""}}) == 2
    assert capsys.readouterr().err == "error: unknown split mode ''\n"
    assert not out.exists()


@pytest.mark.parametrize("command,groups", [
    ("train", ["[--seed SEED]", "[--epochs EPOCHS]", "[--split {session,kfold}]", "[--k K]",
               "[--fold FOLD]", "[--split-seed SPLIT_SEED]", "[--no-transformer]",
               "[--no-augment]"]),
    ("eval", ["[--split {session,kfold}]", "[--k K]", "[--fold FOLD]",
              "[--split-seed SPLIT_SEED]"]),
    ("synth", ["[--classes CLASSES]", "[--ch CH]", "[--t T]", "[--fs FS]"]),
    ("transform", ["[--freq-lo FREQ_LO]", "[--freq-hi FREQ_HI]", "[--freq-step FREQ_STEP]",
                   "[--window WINDOW]", "[--band BAND]"]),
])
def test_help_usage_keeps_each_flag_metavar(capsys, command, groups):
    with pytest.raises(SystemExit) as info:
        dispatch([command, "--help"])
    assert info.value.code == 0
    usage = capsys.readouterr().out.split("\n\n", 1)[0]
    assert all(group in usage for group in groups), usage


def test_all_branches_disabled_exits_2(tmp_path, mini_data, trials_read):
    code = dispatch(train_args(mini_data, tmp_path / "none", extra=[
        "--no-branch1", "--no-b2-input1", "--no-b2-input2"]))
    assert code == 2
    assert trials_read == [1]
    assert not (tmp_path / "none" / "resolved_config.json").exists()


def test_eval_geometry_mismatch_exits_2(tmp_path, mini_data):
    out = tmp_path / "run"
    assert dispatch(train_args(mini_data, out)) == 0
    other = tmp_path / "other_data"
    assert dispatch(["synth", "--out", str(other), "--classes", "8:0,16:1",
                     "--n", "4", "--ch", "2", "--t", "64", "--fs", "128"]) == 0
    assert dispatch(["transform", "--data", str(other), "--preset", "mini"]) == 0
    code = dispatch(["eval", "--model", str(out / "model_final.dtss"),
                     "--data", str(other), "--out", str(tmp_path / "e")])
    assert code == 2


def mini_checkpoint(path, **overrides):
    cfg = dataclasses.replace(config_from_preset(dataio.preset("mini")), **overrides)
    DualTsstModel(cfg, rng=np.random.default_rng(0)).save(path)
    return path


@pytest.mark.parametrize("data_classes,model_classes", [(2, 4), (4, 2)])
def test_eval_class_count_mismatch_exits_2(tmp_path, mini_data, capsys, trials_read,
                                           data_classes, model_classes):
    data = mini_data
    if data_classes != 2:
        data = tmp_path / "data"
        assert dispatch(["synth", "--out", str(data), "--preset", "mini", "--n", "3",
                         "--classes", "8,12,16,20"]) == 0
        assert dispatch(["transform", "--data", str(data), "--preset", "mini"]) == 0
    model = mini_checkpoint(tmp_path / "m.dtss", n_classes=model_classes)
    capsys.readouterr()
    out = tmp_path / "e"
    assert dispatch(["eval", "--model", str(model), "--data", str(data), "--out", str(out),
                     "--preset", "mini"]) == 2
    assert capsys.readouterr().err == (
        f"error: dataset has {data_classes} classes, model has {model_classes}\n")
    assert trials_read == [1]
    assert not (out / "report.json").exists()
    assert not (out / "resolved_config.json").exists()


def test_eval_reads_only_the_test_split(tmp_path, mini_data, monkeypatch):
    model = mini_checkpoint(tmp_path / "m.dtss")
    plan = dataio.preset("mini").split_plan()
    evaluated = []
    evaluate = training.evaluate
    monkeypatch.setattr(training, "evaluate", lambda m, ts, **kw: (
        evaluated.append(ts), evaluate(m, ts, **kw))[1])
    argv = ["eval", "--model", str(model), "--preset", "mini"]
    assert dispatch([*argv, "--data", str(mini_data), "--out", str(tmp_path / "e1")]) == 0
    want = dataio.load_dataset(mini_data, plan, require_tfr=True)[1]
    for a, b in ((evaluated[0].eeg, want.eeg), (evaluated[0].tfr, want.tfr),
                 (evaluated[0].labels, want.labels)):
        assert np.array_equal(a, b)

    data = tmp_path / "data"
    shutil.copytree(mini_data, data)
    train_manifest = dataio.split_manifest(data, plan)[0]
    (data / train_manifest.trials[0].file).unlink()  # a training trial is never read
    assert dispatch([*argv, "--data", str(data), "--out", str(tmp_path / "e2")]) == 0
    for name in ("report.json", "confusion.csv"):
        assert (tmp_path / "e2" / name).read_bytes() == (tmp_path / "e1" / name).read_bytes()


def test_eval_features_run_in_batches_of_64(tmp_path, monkeypatch):
    """70 test trials make two passes, of 64 and 6 trials, and the bytes of
    one pass over the whole split."""
    data = tmp_path / "data"
    assert dispatch(["synth", "--out", str(data), "--preset", "mini", "--n", "70",
                     "--noise", "0.4", "--seed", "5"]) == 0
    assert dispatch(["transform", "--data", str(data), "--preset", "mini"]) == 0
    model = mini_checkpoint(tmp_path / "m.dtss")
    passes = []
    pooled = DualTsstModel.pooled_features
    monkeypatch.setattr(DualTsstModel, "pooled_features", lambda self, eeg, tfr: (
        passes.append(len(eeg)), pooled(self, eeg, tfr))[1])
    feats = tmp_path / "features.eegt"
    assert dispatch(["eval", "--model", str(model), "--data", str(data), "--preset", "mini",
                     "--k", "2", "--out", str(tmp_path / "e"), "--features", str(feats)]) == 0
    assert passes == [64, 6]
    test_set = dataio.load_dataset(data, dataio.SplitPlan(k=2), require_tfr=True)[1]
    with no_grad():
        whole = pooled(DualTsstModel.load(model), test_set.eeg, test_set.tfr).data
    assert whole.shape == (70, 8)
    assert feats.read_bytes() == b"".join(dataio.array_chunks(whole))


def test_eval_features_encode_each_batch_once(tmp_path, monkeypatch):
    """With --features a batch is encoded once: its pooled output gives both
    the features and the labels, and the report is the one eval writes
    without --features."""
    data = tmp_path / "data"
    assert dispatch(["synth", "--out", str(data), "--preset", "mini", "--n", "70",
                     "--noise", "0.4", "--seed", "5"]) == 0
    assert dispatch(["transform", "--data", str(data), "--preset", "mini"]) == 0
    model = mini_checkpoint(tmp_path / "m.dtss")
    encoded = []
    encode = DualTsstModel._encode
    monkeypatch.setattr(DualTsstModel, "_encode", lambda self, eeg, *args, **kw: (
        encoded.append(len(eeg)), encode(self, eeg, *args, **kw))[1])
    argv = ["eval", "--model", str(model), "--data", str(data), "--preset", "mini", "--k", "2"]
    assert dispatch([*argv, "--out", str(tmp_path / "plain")]) == 0
    assert encoded == [64, 6]
    encoded.clear()
    assert dispatch([*argv, "--out", str(tmp_path / "feats"),
                     "--features", str(tmp_path / "features.eegt")]) == 0
    assert encoded == [64, 6]
    for name in ("report.json", "confusion.csv"):
        assert (tmp_path / "feats" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_eval_scores_each_subject_the_manifest_tags(tmp_path, mini_data):
    data = tmp_path / "d"
    shutil.copytree(mini_data, data)
    manifest = dataio.load_manifest(data)
    for i, trial in enumerate(manifest.trials):
        trial.subject = f"s{i % 2 + 1}"
    dataio.save_manifest(data, manifest)
    out = tmp_path / "e"
    assert dispatch(["eval", "--model", str(mini_checkpoint(tmp_path / "m.dtss")),
                     "--data", str(data), "--out", str(out), "--preset", "mini"]) == 0
    report = json.loads((out / "report.json").read_text())
    per_subject = report["subjects"]["per_subject"]
    assert sorted(per_subject) == ["s1", "s2"]
    assert sum(v["n"] for v in per_subject.values()) == report["n"]
    kappas = [per_subject[s]["kappa"] for s in ("s1", "s2")]
    assert report["subjects"]["kappa_mean"] == float(np.mean(kappas))
    assert "kappa_mean" not in report  # each score once: the subject means are in "subjects"
    assert not {"kappa_pooled", "accuracy_pooled"} & (set(report) | set(report["subjects"]))
    cm = np.loadtxt(out / "confusion.csv", delimiter=",", skiprows=1, dtype=np.int64)
    assert report["kappa"] == metrics.kappa(cm) and report["accuracy"] == metrics.accuracy(cm)


# the model and train sections of a resolved_config.json written while
# encoder_mlp_ratio, dropout, per_head_scaling and decoupled_weight_decay
# existed: every field in declaration order, the retired ones at their value
OLD_MODEL_ORDER = (
    "n_channels", "n_times", "n_freqs", "n_classes", "branch_channels", "embed_dim",
    "time_kernel_raw", "time_kernel_tfr", "pool_raw", "pool_raw_stride", "pool_tfr",
    "pool_tfr_stride", "encoder_layers", "encoder_heads", "encoder_mlp_ratio",
    "classifier_hidden", "dropout", "use_branch1", "use_branch2_input1",
    "use_branch2_input2", "use_transformer", "per_head_scaling",
)
OLD_TRAIN_ORDER = (
    "lr_max", "lr_min", "weight_decay", "beta1", "beta2", "epochs", "batch_size",
    "cycle_epochs", "augment_segments", "decoupled_weight_decay", "dtype", "seed",
)


def with_retired(resolved):
    from dualtsst.model import RETIRED_MODEL_KEYS
    from dualtsst.train import RETIRED_TRAIN_KEYS

    model = {**resolved["model"], **RETIRED_MODEL_KEYS}
    train = {**resolved["train"], **RETIRED_TRAIN_KEYS}
    return {**resolved, "model": {k: model[k] for k in OLD_MODEL_ORDER},
            "train": {k: train[k] for k in OLD_TRAIN_ORDER}}


def test_resolved_config_with_retired_keys_replays_bit_identically(tmp_path, mini_data):
    out1 = tmp_path / "r1"
    assert dispatch(train_args(mini_data, out1)) == 0
    resolved = json.loads((out1 / "resolved_config.json").read_text())
    old = tmp_path / "old.json"
    old.write_text(json.dumps(with_retired(resolved), indent=2) + "\n")
    out2 = tmp_path / "r2"
    assert dispatch(["train", "--data", str(mini_data), "--out", str(out2),
                     "--config", str(old), "--quiet"]) == 0
    assert (out1 / "log.csv").read_bytes() == (out2 / "log.csv").read_bytes()
    assert (out1 / "model_final.dtss").read_bytes() == (out2 / "model_final.dtss").read_bytes()
    assert json.loads((out2 / "resolved_config.json").read_text())["model"] == resolved["model"]


@pytest.mark.parametrize("section,key,value", [
    ("model", "dropout", 0.3), ("model", "per_head_scaling", True),
    ("model", "encoder_mlp_ratio", 4), ("train", "decoupled_weight_decay", True),
    ("train", "beta1", 0.9), ("train", "beta2", 0.99),
])
def test_retired_key_off_its_value_exits_2(tmp_path, mini_data, capsys, section, key, value):
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps({"preset": "mini", section: {key: value}}))
    out = tmp_path / "x"
    assert dispatch(["train", "--data", str(mini_data), "--out", str(out),
                     "--epochs", "1", "--config", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{section}.{key} is retired" in err and str(cfg) in err
    assert not out.exists()


def test_eval_of_a_checkpoint_with_a_retired_key_off_its_value_exits_2(tmp_path, mini_data,
                                                                        capsys):
    out = tmp_path / "run"
    assert dispatch(train_args(mini_data, out)) == 0
    blob = (out / "model_final.dtss").read_bytes()
    cfg_len = int.from_bytes(blob[8:12], "little")
    cfg = json.loads(blob[12 : 12 + cfg_len])
    new_cfg = json.dumps({**cfg, "dropout": 0.3}).encode()
    old = tmp_path / "old.dtss"
    old.write_bytes(blob[:8] + len(new_cfg).to_bytes(4, "little") + new_cfg
                    + blob[12 + cfg_len :])
    assert dispatch(["eval", "--model", str(old), "--data", str(mini_data),
                     "--out", str(tmp_path / "e"), "--preset", "mini"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "dropout is retired" in err


def test_readme_lists_every_retired_key_at_its_value():
    from dualtsst.model import RETIRED_MODEL_KEYS
    from dualtsst.train import RETIRED_TRAIN_KEYS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| Key | Section | Only value |", 1)[1].split("\n\n", 1)[0]
    rows = [[cell.strip().strip("`") for cell in line.split("|")[1:4]]
            for line in table.splitlines()[2:]]
    want = [[key, section, json.dumps(value)]
            for section, retired in (("model", RETIRED_MODEL_KEYS), ("train", RETIRED_TRAIN_KEYS))
            for key, value in retired.items()]
    assert sorted(rows) == sorted(want)
