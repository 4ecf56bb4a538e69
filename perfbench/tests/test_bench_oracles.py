"""The benchmark's oracles accept the program's correct outputs and reject
planted errors in them."""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for p in (ROOT, ROOT / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

from dualtsst import augment, dataio, metrics, signal, train  # noqa: E402
from dualtsst.model import DualTsstModel, config_from_preset  # noqa: E402
from dualtsst.tensor import cross_entropy, no_grad  # noqa: E402
from perfbench import inputs, oracles  # noqa: E402

FS = 128.0
FREQS = np.arange(4.0, 25.0, 4.0)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _stored(power):
    return np.asarray(power, dtype=np.float32)


def test_morlet_oracle_accepts_program_and_rejects_scaled_sidecar(rng):
    x = rng.normal(size=(3, 96))
    program = signal.morlet_power(x, signal.make_morlet_plan(FREQS, FS))
    expected = oracles.morlet_power(x, FREQS, FS)
    assert oracles.check_sidecar(_stored(program), expected)[0]
    assert not oracles.check_sidecar(_stored(program * 1.0001), expected)[0]
    shifted = signal.morlet_power(x, signal.make_morlet_plan(FREQS + 0.5, FS))
    assert not oracles.check_sidecar(_stored(shifted), expected)[0]


def test_read_eegt_matches_program_writer(tmp_path, rng):
    x = rng.normal(size=(2, 3, 5))
    dataio.write_array(tmp_path / "a.eegt", x)
    np.testing.assert_array_equal(oracles.read_eegt(tmp_path / "a.eegt"), x.astype(np.float32))


def test_band_check_accepts_bandpass_and_rejects_leak(rng):
    fs, lo, hi = 200.0, 0.5, 50.0
    y = signal.bandpass_array(rng.normal(size=(4, 200)), fs, lo, hi)
    assert oracles.check_band_empty(y, fs, lo, hi)[0]
    leak = y + 1e-6 * np.sin(2 * np.pi * 70.0 * np.arange(200) / fs)
    assert not oracles.check_band_empty(leak, fs, lo, hi)[0]
    np.testing.assert_allclose(oracles.bandpass(y, fs, lo, hi), y, atol=1e-12)


def test_peak_frequency_check_rejects_swapped_labels():
    spec = inputs.SEED
    eeg = inputs.generate(spec, seed=3)[:3]
    plan = signal.make_morlet_plan(np.arange(1.0, 51.0), spec.fs)
    power = np.stack([signal.morlet_power(x, plan) for x in eeg])
    labels = spec.labels[:3]
    assert oracles.check_peak_frequency(power, labels, spec.class_freqs, plan.freqs)[0]
    swapped = (labels[1], labels[0], labels[2])
    assert not oracles.check_peak_frequency(power, swapped, spec.class_freqs, plan.freqs)[0]


def test_report_check_rejects_flipped_prediction(rng):
    labels = rng.integers(0, 3, size=30)
    preds = np.where(rng.random(30) < 0.7, labels, (labels + 1) % 3)
    report = metrics.evaluate_predictions(labels, preds, ["a", "b", "c"])
    assert oracles.check_report(report, labels, preds, 3)[0]
    flipped = preds.copy()
    flipped[0] = (flipped[0] + 1) % 3
    assert not oracles.check_report(report, labels, flipped, 3)[0]


def _mini_sets():
    p = dataio.preset("mini")
    eeg = inputs.generate(inputs.MINI, seed=0)
    plan = signal.make_morlet_plan(p.freqs(), p.fs)
    tfr = np.stack([signal.morlet_power(x, plan) for x in eeg])
    return p, dataio.TrialSet(eeg=signal.zscore(eeg), labels=np.asarray(inputs.MINI.labels),
                              fs=p.fs, tfr=signal.zscore(tfr), freqs=plan.freqs)


def test_gradient_check_rejects_scaled_gradient():
    p, ts = _mini_sets()
    model = DualTsstModel(config_from_preset(p), rng=np.random.default_rng(0))
    batch = ts.subset([0, 1, 50, 51])

    def loss():
        return cross_entropy(model.forward(batch.eeg, batch.tfr, train=True), batch.labels)

    model.zero_grad()
    loss().backward()
    grads = {k: q.grad for k, q in model.params.items()}

    def loss_at():
        with no_grad():
            return float(loss().data)

    ok, detail = oracles.check_directional_derivative(loss_at, model.params, grads,
                                                      np.random.default_rng(1))
    assert ok, detail
    scaled = {k: 1.01 * g for k, g in grads.items()}
    assert not oracles.check_directional_derivative(loss_at, model.params, scaled,
                                                    np.random.default_rng(1))[0]


def test_log_check_accepts_train_loop_and_rejects_wrong_rate(tmp_path):
    p, ts = _mini_sets()
    cfg = train.TrainConfig(epochs=3, batch_size=32, lr_max=2e-3, cycle_epochs=2,
                            augment_segments=8, seed=0)
    model = DualTsstModel(config_from_preset(p), rng=np.random.default_rng(0))
    train.train_loop(model, ts.subset(np.arange(0, 96, 3)), cfg, out_dir=tmp_path)
    rows = oracles.read_log_csv(tmp_path / "log.csv")
    args = (cfg.epochs, cfg.lr_max, cfg.lr_min, cfg.cycle_epochs)
    assert oracles.check_log(rows, *args)[0]
    rows[1]["lr"] *= 1 + 1e-9
    assert not oracles.check_log(rows, *args)[0]
    rows[1]["lr"] = oracles.cosine_lr(1, cfg.lr_max, cfg.lr_min, cfg.cycle_epochs)
    rows[2]["loss"] = float("nan")
    assert not oracles.check_log(rows, *args)[0]


def test_donor_check_rejects_mixed_views(rng):
    _, ts = _mini_sets()
    pool = ts.subset([0, 1, 2, 50, 51, 52])
    a_eeg, a_tfr, a_labels = augment.augment_batch(pool, 8, rng)
    args = (pool.eeg, pool.tfr, pool.labels, 8)
    assert oracles.check_donors(a_eeg, a_tfr, a_labels, *args)[0]
    # TFR of the first segment from a different donor than its EEG
    bad_tfr = a_tfr.copy()
    donor = next(d for d in np.nonzero(pool.labels == a_labels[0])[0]
                 if not np.array_equal(pool.eeg[d][:, :8], a_eeg[0][:, :8]))
    bad_tfr[0][..., :8] = pool.tfr[donor][..., :8]
    assert not oracles.check_donors(a_eeg, bad_tfr, a_labels, *args)[0]
    # a donor of the wrong class
    bad_eeg = a_eeg.copy()
    other = np.nonzero(pool.labels != a_labels[0])[0][0]
    bad_eeg[0][:, :8] = pool.eeg[other][:, :8]
    assert not oracles.check_donors(bad_eeg, a_tfr, a_labels, *args)[0]


def test_float32_check_accepts_checkpoint_and_rejects_perturbation(tmp_path):
    p, _ = _mini_sets()
    model = DualTsstModel(config_from_preset(p), rng=np.random.default_rng(0))
    model.save(tmp_path / "m.dtss")
    before = {k: q.data for k, q in model.params.items()}
    after = {k: q.data for k, q in DualTsstModel.load(tmp_path / "m.dtss").params.items()}
    assert oracles.check_float32_close(before, after)[0]
    after["classifier.fc1.weight"] = after["classifier.fc1.weight"] * (1 + 1e-6)
    assert not oracles.check_float32_close(before, after)[0]


def test_bit_identical_check_rejects_one_ulp(rng):
    before = {"w": rng.normal(size=(3, 4)), "b": np.zeros(4)}
    after = {k: v.copy() for k, v in before.items()}
    assert oracles.check_bit_identical(before, after)[0]
    after["w"][1, 2] = np.nextafter(after["w"][1, 2], np.inf)
    assert not oracles.check_bit_identical(before, after)[0]
    assert not oracles.check_bit_identical(before, {k: v.astype(np.float32)
                                                    for k, v in before.items()})[0]
