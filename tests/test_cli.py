import dataclasses
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from dualtsst import dataio, train as training
from dualtsst.cli import dispatch
from dualtsst.model import DualTsstModel, config_from_preset


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
])
def test_bad_flag_value_exits_1(tmp_path, capsys, argv, flag):
    out = tmp_path / "x"
    target = ["--data" if argv[0] == "transform" else "--out", str(out)]
    assert dispatch(argv + target) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flag in err
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


def test_config_checks_cover_every_field_type():
    from dualtsst.cli import _JSON_CHECKS
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
