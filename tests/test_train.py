import math

import numpy as np
import pytest

from dualtsst import dataio, tensor as T, train
from dualtsst.errors import DataError, NumericalError
from dualtsst.model import DualTsstModel, config_from_preset
from dualtsst.tensor import Tensor, backward, cross_entropy

ADAM_EPS = train.ADAM_EPS


# ---------------------------------------------------------------------------
# cross entropy
# ---------------------------------------------------------------------------


def test_cross_entropy_two_class_tie():
    loss = cross_entropy(Tensor([[0.0, 0.0]]), [0])
    assert abs(loss.item() - math.log(2.0)) < 1e-12


def test_cross_entropy_confident_limit():
    loss = cross_entropy(Tensor([[60.0, 0.0]]), [0])
    assert 0.0 <= loss.item() < 1e-20


def test_cross_entropy_uniform_is_log_m():
    for m in (2, 4, 7):
        logits = np.full((3, m), 1.234)
        loss = cross_entropy(Tensor(logits), [0, m - 1, 1])
        assert abs(loss.item() - math.log(m)) < 1e-12


def test_cross_entropy_nonnegative(rng):
    logits = rng.normal(size=(6, 4)) * 5
    labels = rng.integers(0, 4, size=6)
    assert cross_entropy(Tensor(logits), labels).item() >= 0.0


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError):
        cross_entropy(Tensor([[0.0, 0.0]]), [2])


def test_cross_entropy_log_space_large_logits():
    loss = cross_entropy(Tensor([[1000.0, 999.0]]), [1])
    assert np.isfinite(loss.item())
    assert abs(loss.item() - math.log(1 + math.e)) < 1e-9


# ---------------------------------------------------------------------------
# cosine schedule
# ---------------------------------------------------------------------------


def test_cosine_endpoints_and_midpoint():
    assert abs(train.cosine_lr(0, 1e-4, 0.0, 32) - 1e-4) < 1e-12
    assert abs(train.cosine_lr(32, 1e-4, 0.0, 32) - 0.0) < 1e-12
    assert abs(train.cosine_lr(16, 1e-4, 0.0, 32) - 5e-5) < 1e-12
    assert abs(train.cosine_lr(8, 2e-3, 1e-4, 16) - (1e-4 + 0.5 * 1.9e-3)) < 1e-12


def test_cosine_periodic_with_restarts():
    cfg = train.TrainConfig(lr_max=1e-4, lr_min=0.0, cycle_epochs=32)
    lrs = [train.cosine_lr(ep % cfg.cycle_epochs, cfg.lr_max, cfg.lr_min, cfg.cycle_epochs)
           for ep in range(3 * 32)]
    for c in range(3):
        assert lrs[c * 32] == 1e-4  # restart hits lr_max exactly
    np.testing.assert_array_equal(lrs[:32], lrs[32:64])
    np.testing.assert_array_equal(lrs[:32], lrs[64:96])


def test_cosine_rejects_out_of_cycle():
    with pytest.raises(DataError):
        train.cosine_lr(33, 1e-4, 0.0, 32)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def one_param(value):
    p = Tensor(np.array([value]), requires_grad=True)
    return {"w": p}, p


def test_adam_zero_gradient_is_noop():
    cfg = train.TrainConfig(weight_decay=0.0)
    params, p = one_param(0.7)
    p.grad = np.zeros(1)
    state = train.TrainState()
    train.adam_step(params, state, 1e-3, cfg)
    assert p.data[0] == 0.7


def test_adam_first_step_closed_form():
    cfg = train.TrainConfig(weight_decay=0.0)
    params, p = one_param(0.0)
    p.grad = np.ones(1)
    state = train.TrainState()
    lr = 1e-4
    train.adam_step(params, state, lr, cfg)
    # bias-corrected m-hat = v-hat = 1 on step 1 for a unit gradient
    expected = -lr * 1.0 / (math.sqrt(1.0) + ADAM_EPS)
    assert abs(p.data[0] - expected) < 1e-12


def test_adam_lr_zero_updates_moments_only():
    cfg = train.TrainConfig(weight_decay=0.0)
    params, p = one_param(1.5)
    p.grad = np.full(1, 2.0)
    state = train.TrainState()
    before = p.data.copy()
    train.adam_step(params, state, 0.0, cfg)
    assert np.array_equal(p.data, before)
    assert state.m["w"][0] != 0.0 and state.v["w"][0] != 0.0
    assert state.step == 1


def test_adam_weight_decay_shrinks_parameters():
    cfg = train.TrainConfig(weight_decay=0.1)
    params, p = one_param(2.0)
    state = train.TrainState()
    norms = [abs(p.data[0])]
    for _ in range(5):
        p.grad = np.zeros(1)
        train.adam_step(params, state, 1e-2, cfg)
        norms.append(abs(p.data[0]))
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_adam_rejects_nan_gradient():
    cfg = train.TrainConfig()
    params, p = one_param(1.0)
    p.grad = np.array([np.nan])
    with pytest.raises(NumericalError):
        train.adam_step(params, train.TrainState(), 1e-3, cfg)


def test_adam_identical_states_identical_updates(rng):
    cfg = train.TrainConfig(weight_decay=0.01)
    runs = []
    for _ in range(2):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        params = {"w": p}
        state = train.TrainState()
        for step in range(3):
            p.zero_grad()
            backward((p * p).sum())
            train.adam_step(params, state, 1e-2, cfg)
        runs.append(p.data.copy())
    np.testing.assert_array_equal(runs[0], runs[1])


def test_optimizer_wiring_loss_decreases(rng):
    # linear softmax regression on separable data: loss strictly decreases
    x = np.concatenate([rng.normal(size=(16, 2)) + 3.0, rng.normal(size=(16, 2)) - 3.0])
    y = np.array([0] * 16 + [1] * 16)
    w = Tensor(np.zeros((2, 2)), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    params = {"w": w, "b": b}
    state = train.TrainState()
    cfg = train.TrainConfig(weight_decay=0.0, lr_max=0.05)
    losses = []
    for _ in range(5):
        for p in params.values():
            p.zero_grad()
        loss = cross_entropy(T.linear(Tensor(x), w, b), y)
        losses.append(loss.item())
        backward(loss)
        train.adam_step(params, state, cfg.lr_max, cfg)
    assert all(b_ < a_ for a_, b_ in zip(losses, losses[1:]))


# ---------------------------------------------------------------------------
# train loop
# ---------------------------------------------------------------------------


MINI_CLASSES = [dataio.SynthClass(8.0, (0, 1)), dataio.SynthClass(20.0, (2, 3))]


def tiny_sets(n_per_class=6, noise=0.3, seed=0):
    from dualtsst import signal

    ts = dataio.synth(n_per_class, 4, 64, 128.0, MINI_CLASSES, noise=noise, seed=seed)
    plan = signal.make_morlet_plan(dataio.preset("mini").freqs(), 128.0)
    tfr = np.stack([signal.morlet_power(ts.eeg[i], plan) for i in range(len(ts))])
    full = dataio.TrialSet(
        eeg=signal.zscore(ts.eeg), labels=ts.labels, fs=ts.fs,
        tfr=signal.zscore(tfr), freqs=plan.freqs, class_names=ts.class_names,
    )
    train_idx, test_idx = dataio.split_indices(
        len(full), dataio.SplitPlan(mode="kfold", k=3, fold=0, seed=0))
    return full.subset(train_idx), full.subset(test_idx)


def mini_train_cfg(**overrides):
    base = dict(lr_max=2e-3, epochs=3, batch_size=4, cycle_epochs=8,
                augment_segments=8, seed=0)
    base.update(overrides)
    return train.TrainConfig(**base)


def build_model(seed=0):
    cfg = config_from_preset(dataio.preset("mini"))
    return DualTsstModel(cfg, rng=np.random.default_rng(seed))


def test_train_loop_runs_and_logs(tmp_path):
    tr, te = tiny_sets()
    model = build_model()
    result = train.train_loop(model, tr, mini_train_cfg(), test_set=te, out_dir=tmp_path)
    assert len(result.log) == 3
    assert (tmp_path / "log.csv").exists()
    assert (tmp_path / "model_final.dtss").exists()
    assert (tmp_path / "model_best.dtss").exists()
    lines = (tmp_path / "log.csv").read_text().strip().split("\n")
    assert lines[0] == "epoch,lr,loss,train_acc,test_acc"
    assert len(lines) == 4


def test_train_determinism():
    tr, te = tiny_sets()
    seqs = []
    for _ in range(2):
        model = build_model(seed=3)
        result = train.train_loop(model, tr, mini_train_cfg(), test_set=te)
        seqs.append([e.loss for e in result.log])
    assert max(abs(a - b) for a, b in zip(*seqs)) <= 1e-12


def test_train_augmentation_off_and_on_same_geometry():
    tr, te = tiny_sets()
    for r in (0, 8):
        model = build_model()
        result = train.train_loop(model, tr, mini_train_cfg(augment_segments=r, epochs=1))
        assert len(result.log) == 1


def test_train_aborts_on_nonfinite_loss():
    tr, _ = tiny_sets()
    model = build_model()
    model.params["classifier.fc2.weight"].data[:] = np.inf
    # the inf weights give inf - inf in the logits on purpose
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="epoch 0"):
        train.train_loop(model, tr, mini_train_cfg(epochs=1))


def test_train_empty_set_rejected():
    tr, _ = tiny_sets()
    model = build_model()
    with pytest.raises(DataError):
        train.train_loop(model, tr.subset([]), mini_train_cfg())


def test_train_rejects_a_model_of_another_dtype():
    tr, _ = tiny_sets()
    model = build_model()
    with pytest.raises(DataError, match="model is float64, the train config asks for float32"):
        train.train_loop(model, tr, mini_train_cfg(dtype="float32"))


def test_train_r_bigger_than_trial_rejected():
    tr, _ = tiny_sets()
    model = build_model()
    with pytest.raises(DataError):
        train.train_loop(model, tr, mini_train_cfg(augment_segments=100))


def test_evaluate_covers_all_trials():
    tr, te = tiny_sets()
    model = build_model()
    preds = train.evaluate(model, te, batch_size=3)
    assert preds.shape == (len(te),)
    assert set(np.unique(preds)) <= {0, 1}


def test_evaluate_batches_that_do_not_divide_the_trials():
    tr, _ = tiny_sets()
    model = build_model()
    batch = 5
    assert len(tr) % batch != 0
    copied = []  # fancy-indexed copies of each batch, as evaluate once took them
    with T.no_grad():
        for start in range(0, len(tr), batch):
            idx = np.arange(start, min(start + batch, len(tr)))
            copied.append(np.argmax(model.forward(tr.eeg[idx], tr.tfr[idx]).data, axis=1))
    preds = train.evaluate(model, tr, batch_size=batch)
    assert np.array_equal(preds, np.concatenate(copied))
    assert np.array_equal(preds, train.evaluate(model, tr, batch_size=1))
