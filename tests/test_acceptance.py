"""Acceptance suite.

Each test prints one `[ACCEPTANCE n] PASS/FAIL` line (run pytest with -s to
see them) and enforces its stated tolerance.  Run time for the whole module
is a few minutes on a desktop CPU; the heavyweight criteria also assert
their own wall-clock budgets.
"""

import dataclasses
import itertools
import math
import os
import re
import time

import numpy as np
import pytest

from dualtsst import dataio, metrics, signal, train
from dualtsst.cli import dispatch
from dualtsst.model import DualTsstModel, config_from_preset
from dualtsst.tensor import Tensor, cross_entropy, no_grad


def report(num, name, ok, detail=""):
    print(f"\n[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def build_mini_sets(noise, synth_seed, n_per_class=48):
    p = dataio.preset("mini")
    ts = dataio.synth(n_per_class, p.n_channels, p.n_times, p.fs,
                      list(p.synth_classes), noise=noise, seed=synth_seed)
    plan = signal.make_morlet_plan(p.freqs(), p.fs)
    tfr = np.stack([signal.morlet_power(ts.eeg[i], plan) for i in range(len(ts))])
    full = dataio.TrialSet(
        eeg=signal.zscore(ts.eeg), labels=ts.labels, fs=ts.fs,
        tfr=signal.zscore(tfr), freqs=plan.freqs, class_names=ts.class_names,
    )
    tr_idx, te_idx = dataio.split_indices(
        len(full), dataio.SplitPlan(mode="kfold", k=3, fold=0, seed=0))
    return full.subset(tr_idx), full.subset(te_idx)


def mini_train_config(seed, epochs):
    p = dataio.preset("mini")
    kwargs = dict(p.train_overrides)
    kwargs.update(epochs=epochs, augment_segments=p.augment_segments, seed=seed)
    return train.TrainConfig(**kwargs)


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_suite(capsys):
    t0 = time.time()
    code = dispatch(["gradcheck", "--preset", "mini", "--seed", "1"])
    elapsed = time.time() - t0
    out = capsys.readouterr().out
    match = re.search(r"max relative error ([0-9.e+-]+)", out)
    err = float(match.group(1)) if match else float("inf")
    ok = code == 0 and err < 1e-3 and elapsed < 300.0
    report(1, "end-to-end gradients vs central differences", ok,
           f"max rel err {err:.3e} (< 1e-3), {elapsed:.1f}s (< 300s), exit {code}")


# ---------------------------------------------------------------------------
# 2. shape conformance
# ---------------------------------------------------------------------------


def test_criterion_2_shape_conformance():
    results = {}
    for name, expect in (("bci2a", (71, 26, 123)), ("bci2b", (82, 30, 142))):
        p = dataio.preset(name)
        cfg = config_from_preset(p)
        model = DualTsstModel(cfg, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        eeg = rng.normal(size=(1, cfg.n_channels, cfg.n_times))
        tfr = rng.normal(size=(1, cfg.n_channels, cfg.n_freqs, cfg.n_times))
        with no_grad():
            b1 = model.branch1_forward(eeg[:, None])
            o1, o2 = model.branch2_forward(
                tfr, np.ascontiguousarray(tfr.transpose(0, 2, 1, 3)))
            fused = model.fuse([b1, o1, o2])
            logits = model.classify(model.encoder_forward(fused))
        results[name] = (b1.shape, o1.shape, o2.shape, fused.shape)
        l1, l2, l = expect
        assert b1.shape == (1, l1, 120)
        assert o1.shape == (1, l2, 120) and o2.shape == (1, l2, 120)
        assert fused.shape == (1, l, 120)
        assert logits.shape == (1, cfg.n_classes)
    report(2, "branch/fused sequence shapes match the layer table", True,
           f"bci2a {results['bci2a'][3]}, bci2b {results['bci2b'][3]}")


# ---------------------------------------------------------------------------
# 3. wavelet correctness
# ---------------------------------------------------------------------------


def quadrature_oracle(x, taps):
    k = len(taps)
    half = (k - 1) // 2
    xp = np.pad(x, (half, half), mode="reflect")
    cw = np.conj(taps)
    return np.array([np.dot(xp[t : t + k], cw) for t in range(len(x))])


def test_criterion_3_wavelet_correctness():
    fs, n_t = 250.0, 1000
    freqs = np.arange(1.0, 41.0)
    plan = signal.make_morlet_plan(freqs, fs)
    t = np.arange(n_t) / fs
    worst = 0.0
    for f0 in (8.0, 10.0, 24.0):
        x = np.sin(2 * np.pi * f0 * t + 0.37)[None, :]
        power = signal.morlet_power(x, plan)
        central = slice(n_t // 4, 3 * n_t // 4)
        profile = power[0, :, central].mean(axis=-1)
        peak = int(np.argmax(profile))
        assert freqs[peak] == f0, f"argmax {freqs[peak]} != {f0}"
        oracle = np.abs(quadrature_oracle(x[0], plan.taps[peak])) ** 2
        rel = np.max(np.abs(power[0, peak] - oracle) /
                     np.maximum(np.abs(oracle), 1e-12))
        worst = max(worst, rel)
        assert rel < 1e-3
    report(3, "TFR peaks at the true frequency and matches the integral oracle",
           True, f"worst peak-bin relative deviation {worst:.2e} (< 1e-3)")


# ---------------------------------------------------------------------------
# 4. learning sanity
# ---------------------------------------------------------------------------


def test_criterion_4_learning_sanity():
    t0 = time.time()
    tr, te = build_mini_sets(noise=0.5, synth_seed=0)
    assert len(tr) == 64 and len(te) == 32
    model = DualTsstModel(config_from_preset(dataio.preset("mini")),
                          rng=train.init_rng_for_seed(0))
    result = train.train_loop(model, tr, mini_train_config(seed=0, epochs=200),
                              test_set=te)
    elapsed = time.time() - t0
    final = result.log[-1]
    ok = final.train_acc >= 0.95 and final.test_acc >= 0.90 and elapsed < 900.0
    report(4, "synthetic two-class task is learned", ok,
           f"train_acc {final.train_acc:.3f} (>= 0.95), test_acc {final.test_acc:.3f} "
           f"(>= 0.90), {elapsed:.0f}s (< 900s)")


# ---------------------------------------------------------------------------
# 5. ablation direction
# ---------------------------------------------------------------------------


def test_criterion_5_ablation_direction():
    def run(seed, use_transformer):
        tr, te = build_mini_sets(noise=1.0, synth_seed=100 + seed)
        cfg = dataclasses.replace(config_from_preset(dataio.preset("mini")),
                                  use_transformer=use_transformer)
        model = DualTsstModel(cfg, rng=train.init_rng_for_seed(seed))
        result = train.train_loop(model, tr, mini_train_config(seed=seed, epochs=100),
                                  test_set=te)
        return result.log[-1].test_acc

    seeds = range(5)
    full = np.mean([run(s, True) for s in seeds])
    ablated = np.mean([run(s, False) for s in seeds])
    ok = full >= ablated - 0.01
    margin = (full - ablated) * 100
    report(5, "full model is not inferior to the no-transformer ablation", ok,
           f"mean test acc full {full:.3f} vs ablated {ablated:.3f} "
           f"({margin:+.1f}pp; reported, guard is -1pp)")


# ---------------------------------------------------------------------------
# 6. schedule and optimizer identities
# ---------------------------------------------------------------------------


def test_criterion_6_schedule_and_optimizer_identities():
    checks = []
    checks.append(abs(train.cosine_lr(0, 1e-4, 0.0, 32) - 1e-4))
    checks.append(abs(train.cosine_lr(32, 1e-4, 0.0, 32) - 0.0))
    checks.append(abs(train.cosine_lr(16, 1e-4, 0.0, 32) - 5e-5))

    cfg = train.TrainConfig(weight_decay=0.0)
    p = Tensor(np.zeros(1), requires_grad=True)
    p.grad = np.ones(1)
    train.adam_step({"w": p}, train.TrainState(), 1e-4, cfg)
    checks.append(abs(p.data[0] - (-1e-4 / (1.0 + train.ADAM_EPS))))

    for m in (2, 4, 10):
        loss = cross_entropy(Tensor(np.zeros((1, m))), [0])
        checks.append(abs(loss.item() - math.log(m)))

    worst = max(checks)
    report(6, "cosine endpoints, first Adam step, and uniform-logit loss are exact",
           worst < 1e-12, f"worst deviation {worst:.2e} (< 1e-12)")


# ---------------------------------------------------------------------------
# 7. statistics oracles
# ---------------------------------------------------------------------------


def enumeration_p(d):
    d = np.asarray(d, dtype=float)
    d = d[d != 0]
    ranks = metrics._midranks(np.abs(d))
    w_obs = min(ranks[d > 0].sum(), ranks[d < 0].sum())
    hits = 0
    for signs in itertools.product((1.0, -1.0), repeat=len(d)):
        s = np.asarray(signs)
        if min(ranks[s > 0].sum(), ranks[s < 0].sum()) <= w_obs + 1e-12:
            hits += 1
    return w_obs, hits / 2.0 ** len(d)


def test_criterion_7_statistics_oracles():
    # kappa against hand values
    assert metrics.kappa(np.diag([3, 4, 5, 6])) == 1.0
    assert abs(metrics.kappa(np.full((4, 4), 5))) < 1e-12
    diag = [2017, 2017, 2017, 2016]
    cm = np.zeros((4, 4), dtype=np.int64)
    for i, d in enumerate(diag):
        cm[i, i] = d
        cm[i, (i + 1) % 4] = 2500 - d
    assert abs(metrics.kappa(cm) - (0.8067 - 0.25) / 0.75) < 1e-12

    # Wilcoxon exact p against full sign-pattern enumeration, |d| <= 8
    rng = np.random.default_rng(0)
    cases = [list(v) for v in itertools.product([-2, -1, 1, 2], repeat=4)]
    for n in range(1, 9):
        for _ in range(40):
            cases.append(rng.integers(-4, 5, size=n).tolist())
    checked = 0
    for d in cases:
        d = np.asarray(d, dtype=float)
        res = metrics.wilcoxon_signed_rank(d, np.zeros_like(d))
        if np.all(d == 0):
            assert not res.defined
            continue
        w, pv = enumeration_p(d)
        assert res.method == "exact"
        assert res.statistic == w
        assert abs(res.p_value - pv) < 1e-12
        checked += 1
    report(7, "kappa hand values exact; Wilcoxon p matches enumeration", True,
           f"kappa to 1e-12; {checked} difference vectors verified")


# ---------------------------------------------------------------------------
# 8. determinism
# ---------------------------------------------------------------------------


def test_criterion_8_train_determinism(tmp_path):
    data = tmp_path / "data"
    assert dispatch(["synth", "--out", str(data), "--preset", "mini",
                     "--n", "12", "--noise", "0.5", "--seed", "5"]) == 0
    assert dispatch(["transform", "--data", str(data), "--preset", "mini"]) == 0
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = dispatch(["train", "--data", str(data), "--out", str(out),
                         "--preset", "mini", "--epochs", "20", "--seed", "9",
                         "--quiet"])
        assert code == 0
        outs.append(out)
    a = (outs[0] / "log.csv").read_bytes()
    b = (outs[1] / "log.csv").read_bytes()
    report(8, "identical config and seed give identical training logs",
           a == b, f"log.csv byte-identical over 20 epochs ({len(a)} bytes)")


# ---------------------------------------------------------------------------
# 9. optional integration (not gated)
# ---------------------------------------------------------------------------


@pytest.mark.skipif("DUALTSST_BCI2B_DIR" not in os.environ,
                    reason="set DUALTSST_BCI2B_DIR to a converted dataset to enable")
def test_criterion_9_optional_bci2b_integration(tmp_path):
    data = os.environ["DUALTSST_BCI2B_DIR"]
    out = tmp_path / "bci2b"
    code = dispatch(["transform", "--data", data, "--preset", "bci2b"])
    assert code == 0
    code = dispatch(["train", "--data", data, "--out", str(out),
                     "--preset", "bci2b", "--split", "session", "--seed", "0"])
    assert code == 0
    log = (out / "log.csv").read_text().strip().split("\n")[-1]
    test_acc = float(log.split(",")[4])
    report(9, "single-subject full recipe (qualitative, no tolerance)", True,
           f"test accuracy {test_acc:.4f}; published subject-average reference 0.8864")
