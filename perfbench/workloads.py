"""The three benchmark workloads and the loop that measures them.

A workload writes its seeded inputs once (``prepare``), sets up several
times (``setup``: dataset load plus model build; the median is reported)
and then runs whole rounds (``round``) until the run length is used up.
Each round times only calls into the package's public functions and then
checks what those calls produced.  Every round of a workload attempts the
same operations, so the share of failed operations is fixed.
"""

from __future__ import annotations

import hashlib
import math
import resource
import shutil
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dualtsst import augment, dataio, metrics, train
from dualtsst.model import DualTsstModel, config_from_preset
from dualtsst.tensor import cross_entropy, no_grad

from . import inputs, oracles, tracing

SETUP_REPS = 7
# model parameters are initialised from a fixed seed, never from --seed:
# the workload seed only draws the data
MODEL_SEED = 0

# (name, unit, better) of every end-to-end metric
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("train_trials_per_s", "trials/s", "higher"),
    ("transform_trials_per_s", "trials/s", "higher"),
    ("eval_trials_per_s", "trials/s", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
)


@dataclass
class Round:
    """What one round did: timed samples, operation counts and check results."""

    transform: list = field(default_factory=list)   # (trials, seconds) per call
    train: list = field(default_factory=list)
    eval: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: str = ""              # identical in every round of a run
    checks: list = field(default_factory=list)

    @property
    def timed_s(self) -> float:
        return sum(s for _, s in self.transform + self.train + self.eval)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    spec: inputs.DatasetSpec
    # timed transform calls per round, so that their median rests on
    # enough samples
    transform_reps = 1

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work = Path(work_dir)
        self.data = self.work / "data"
        self.preset = dataio.preset(self.spec.preset)
        self.freqs = self.preset.freqs()
        self.raw = None
        self.sidecars = None      # bytes of every sidecar from the first round
        self.run_checks = []

    # -- shared steps ----------------------------------------------------------

    def prepare(self) -> None:
        self.raw = inputs.write(self.spec, self.seed, self.data)
        self.transform()

    def transform(self) -> int:
        return dataio.transform_dataset(self.data, self.freqs, band=self.preset.band,
                                        window=self.preset.window, force=True)

    def build_model(self) -> DualTsstModel:
        return DualTsstModel(config_from_preset(self.preset),
                             rng=train.init_rng_for_seed(MODEL_SEED))

    def timed_transform(self, rnd: Round, reps: int) -> None:
        for _ in range(reps):
            rnd.transform.append(_timed(self.transform))
            rnd.attempted += len(self.spec.labels)
        files = sorted((self.data / "trials").glob("*.tfr.eegt"))
        stored = [f.read_bytes() for f in files]
        if self.sidecars is None:
            self.sidecars = stored
            rnd.checks.append(("sidecars match the quadrature oracle",)
                              + self.check_sidecars(files))
        else:
            rnd.checks.append(("sidecars are byte-identical in every round",
                               stored == self.sidecars, f"{len(stored)} files"))

    def check_sidecars(self, files) -> tuple:
        """Quadrature oracle on every sidecar, from the stored raw trial."""
        band, window, fs = self.preset.band, self.preset.window, self.spec.fs
        detail = ""
        for i, path in enumerate(files):
            x = np.asarray(self.raw[i], dtype=np.float32).astype(np.float64)
            if band is not None:
                x = oracles.bandpass(x, fs, band[0], band[1])
            if window is not None:
                i0 = int(round(window[0] * fs))
                x = x[:, i0: i0 + int(round((window[1] - window[0]) * fs))]
            ok, detail = oracles.check_sidecar(oracles.read_eegt(path),
                                               oracles.morlet_power(x, self.freqs, fs))
            if not ok:
                return False, f"{path.name}: {detail}"
        return True, f"{len(files)} trials; last {detail}"

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, index: int) -> Round:
        raise NotImplementedError

    def memory_sets(self) -> tuple:
        """(one optimiser step's real trials, one evaluate call's trials) for
        the memory pass."""
        raise NotImplementedError

    def memory_pass(self) -> None:
        """One forward + backward on a step's real trials (augmented copies
        left out, to keep the traced run short) and one evaluate call, on a
        freshly built model.  Run only under tracemalloc, for the peaks;
        never timed."""
        step, evaluated = self.memory_sets()
        model = self.build_model()
        cross_entropy(model.forward(step.eeg, step.tfr, train=True), step.labels).backward()
        train.evaluate(model, evaluated)

    def finish(self) -> None:
        """Checks made once per run, after the rounds."""


class TrainWorkload(Workload):
    """Transform fresh sidecars, train a freshly built model with
    ``train.train_loop`` (checkpoints and log written), then evaluate the
    test split."""

    eval_reps = 1  # timed evaluate calls per round

    def train_config(self) -> train.TrainConfig:
        raise NotImplementedError

    def setup(self) -> None:
        self.train_set, self.test_set = dataio.load_dataset(
            self.data, self.preset.split_plan(), require_tfr=True)
        self.build_model()

    def timed_eval(self, rnd: Round, model, reps: int):
        for _ in range(reps):
            preds, seconds = _timed(train.evaluate, model, self.test_set)
            rnd.eval.append((len(self.test_set), seconds))
            rnd.attempted += len(self.test_set)
        return preds

    def round(self, index: int) -> Round:
        """Transform and evaluate calls are split into two halves, before
        and after the training, so that their samples span the round."""
        rnd = Round()
        self.timed_transform(rnd, (self.transform_reps + 1) // 2)
        cfg = self.train_config()
        model = self.build_model()
        self.timed_eval(rnd, model, (self.eval_reps + 1) // 2)
        out = self.work / "run"
        shutil.rmtree(out, ignore_errors=True)
        result, seconds = _timed(train.train_loop, model, self.train_set, cfg,
                                 test_set=self.test_set, out_dir=out)
        copies = 2 if cfg.augment_segments else 1
        rnd.train.append((cfg.epochs * len(self.train_set) * copies, seconds))
        rnd.attempted += cfg.epochs * math.ceil(len(self.train_set) / cfg.batch_size)
        preds = self.timed_eval(rnd, model, self.eval_reps // 2)
        self.timed_transform(rnd, self.transform_reps // 2)
        # what `dualtsst eval` does next: reload the final checkpoint, report
        final = DualTsstModel.load(out / "model_final.dtss")
        report = metrics.evaluate_predictions(self.test_set.labels, preds,
                                              self.test_set.class_names)
        rnd.attempted += 2

        rnd.digest = _sha256((out / "log.csv").read_bytes())
        rows = oracles.read_log_csv(out / "log.csv")
        rnd.checks.append(("log: every epoch, finite loss, cosine learning rate",)
                          + oracles.check_log(rows, cfg.epochs, cfg.lr_max, cfg.lr_min,
                                              cfg.cycle_epochs))
        rnd.checks.append(("best checkpoint written", (out / "model_best.dtss").is_file(), ""))
        rnd.checks.append(("final checkpoint holds the trained tensors to float32 precision",)
                          + oracles.check_float32_close(
                              {k: p.data for k, p in model.params.items()},
                              {k: p.data for k, p in final.params.items()}))
        rnd.checks.append(("report accuracy and kappa equal the recomputed ones",)
                          + oracles.check_report(report, self.test_set.labels, preds,
                                                 len(self.test_set.class_names)))
        acc = float(np.mean(preds == self.test_set.labels))
        rnd.checks.append(("evaluate agrees with the last logged test accuracy",
                           acc == result.log[-1].test_acc,
                           f"{acc!r} vs {result.log[-1].test_acc!r}"))
        self.check_training(rnd, result)
        return rnd

    def check_training(self, rnd: Round, result) -> None:
        """Workload-specific checks of a round's training result."""

    def memory_sets(self) -> tuple:
        return (self.train_set.subset(np.arange(self.train_config().batch_size)),
                self.test_set)


class MiniTrain(TrainWorkload):
    spec = inputs.MINI
    transform_reps = 4
    eval_reps = 10
    EPOCHS = 16  # half a cosine cycle; short rounds give more samples per run

    def train_config(self) -> train.TrainConfig:
        kwargs = dict(self.preset.train_overrides)
        kwargs.update(epochs=self.EPOCHS, augment_segments=self.preset.augment_segments,
                      seed=0)
        return train.TrainConfig(**kwargs)

    def check_training(self, rnd: Round, result) -> None:
        final = result.log[-1]
        rnd.checks.append(("final train accuracy >= 0.95 and test accuracy >= 0.90",
                           final.train_acc >= 0.95 and final.test_acc >= 0.90,
                           f"train {final.train_acc:.4f}, test {final.test_acc:.4f}"))


class Bci2aTrain(TrainWorkload):
    spec = inputs.BCI2A
    transform_reps = 10
    eval_reps = 6

    def train_config(self) -> train.TrainConfig:
        return train.TrainConfig(epochs=1, batch_size=2,
                                 augment_segments=self.preset.augment_segments, seed=0)

    def finish(self) -> None:
        """Augmentation of every loaded trial, and the full gradient on one
        training trial against a directional central difference of the loss.

        The training split holds one class only, so augmentation is checked
        on all trials (two classes): a donor of the wrong class can show."""
        segments = self.preset.augment_segments
        ts = dataio.load_trialset(self.data, require_tfr=True)
        a_eeg, a_tfr, a_labels = augment.augment_batch(
            ts, segments, np.random.default_rng(self.seed))
        self.run_checks.append(("augmented segments come from single same-class donors",)
                               + oracles.check_donors(a_eeg, a_tfr, a_labels, ts.eeg, ts.tfr,
                                                      ts.labels, segments))

        model = self.build_model()
        batch = self.train_set.subset([0])

        def loss():
            return cross_entropy(model.forward(batch.eeg, batch.tfr, train=True), batch.labels)

        model.zero_grad()
        loss().backward()
        grads = {k: p.grad for k, p in model.params.items()}

        def loss_at():
            with no_grad():
                return float(loss().data)

        self.run_checks.append(("gradient matches a directional central difference",)
                               + oracles.check_directional_derivative(
                                   loss_at, model.params, grads, np.random.default_rng(1)))


class SeedInfer(Workload):
    """Transform fresh trials, load the sidecars, round-trip a seeded model
    through a checkpoint, evaluate every trial and report; then fine-tune on
    two trials, so that a training rate exists at this geometry too, and
    evaluate every trial again, so that the evaluate samples span the round."""

    spec = inputs.SEED
    transform_reps = 3
    CHECK_SINGLE = 3  # trials also evaluated one at a time, in the first round

    def setup(self) -> None:
        dataio.load_trialset(self.data, require_tfr=True)
        self.build_model()

    def round(self, index: int) -> Round:
        rnd = Round()
        self.timed_transform(rnd, self.transform_reps)
        full = dataio.load_trialset(self.data, require_tfr=True)
        if index == 0:
            self.check_inputs(rnd, full)

        # checkpoint round trip: fails unless every tensor comes back bit-identical
        model = self.build_model()
        before = {k: p.data.copy() for k, p in model.params.items()}
        before.update({k: b.copy() for k, b in model.buffers.items()})
        path = self.work / "model.dtss"
        model.save(path)
        loaded = DualTsstModel.load(path)
        after = {k: p.data for k, p in loaded.params.items()}
        after.update(loaded.buffers)
        ok, detail = oracles.check_bit_identical(before, after)
        rnd.attempted += 1
        rnd.failed += 0 if ok else 1
        rnd.checks.append(("checkpoint round trip (counted in failed, not a check)", True,
                           ("bit-identical" if ok else "FAILED: " + detail)))

        preds, seconds = _timed(train.evaluate, loaded, full)
        rnd.eval.append((len(full), seconds))
        rnd.attempted += len(full)
        report = metrics.evaluate_predictions(full.labels, preds, full.class_names)
        rnd.attempted += 1
        rnd.checks.append(("report accuracy and kappa equal the recomputed ones",)
                          + oracles.check_report(report, full.labels, preds,
                                                 len(full.class_names)))
        if index == 0:
            single = train.evaluate(loaded, full.subset(np.arange(self.CHECK_SINGLE)),
                                    batch_size=1)
            rnd.checks.append(("predictions equal in one batch and one at a time",
                               bool(np.array_equal(single, preds[: self.CHECK_SINGLE])),
                               f"{single.tolist()} vs {preds[: self.CHECK_SINGLE].tolist()}"))

        cfg = train.TrainConfig(epochs=1, batch_size=2, augment_segments=0, seed=0)
        tune_set = full.subset([0, 1])
        result, seconds = _timed(train.train_loop, loaded, tune_set, cfg)
        rnd.train.append((len(tune_set), seconds))
        rnd.attempted += 1
        rnd.checks.append(("fine-tune loss is finite", math.isfinite(result.log[-1].loss),
                           repr(result.log[-1].loss)))
        tuned_preds, seconds = _timed(train.evaluate, loaded, full)
        rnd.eval.append((len(full), seconds))
        rnd.attempted += len(full)
        rnd.digest = _sha256(preds.tobytes() + tuned_preds.tobytes()
                             + repr(result.log[-1].loss).encode())
        return rnd

    def memory_sets(self) -> tuple:
        full = dataio.load_trialset(self.data, require_tfr=True)
        return full.subset([0, 1]), full

    def check_inputs(self, rnd: Round, full) -> None:
        power = np.stack([oracles.read_eegt(p)
                          for p in sorted((self.data / "trials").glob("*.tfr.eegt"))])
        rnd.checks.append(("each class peaks at its analysis frequency",)
                          + oracles.check_peak_frequency(power, self.spec.labels,
                                                         self.spec.class_freqs, self.freqs))
        lo, hi = self.preset.band
        rnd.checks.append(("loaded EEG has an empty spectrum outside the band",)
                          + oracles.check_band_empty(full.eeg, self.spec.fs, lo, hi))


WORKLOADS = {
    "mini-train": MiniTrain,
    "bci2a-train": Bci2aTrain,
    "seed-infer": SeedInfer,
}


# ---------------------------------------------------------------------------
# measurement loop
# ---------------------------------------------------------------------------


def _rate(samples) -> float:
    """Median trials per second over (trials, seconds) samples."""
    return statistics.median(n / s for n, s in samples)


def run(name: str, seed: int, seconds: float, trace: bool, work_dir: Path,
        spans_path: Path | None = None) -> dict:
    """Run one workload; returns its result record.  ``setup_s`` holds the
    median set-up alone; the caller adds the import time."""
    wl = WORKLOADS[name](seed, work_dir)
    wl.prepare()
    # set-ups before and after the rounds, so that their samples span the run
    setups = [_timed(wl.setup)[1] for _ in range((SETUP_REPS + 1) // 2)]
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(wl.round(len(rounds)))
    setups += [_timed(wl.setup)[1] for _ in range(SETUP_REPS // 2)]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    measured = {
        "setup_s": statistics.median(setups),
        "train_trials_per_s": _rate([x for r in rounds for x in r.train]),
        "transform_trials_per_s": _rate([x for r in rounds for x in r.transform]),
        "eval_trials_per_s": _rate([x for r in rounds for x in r.eval]),
        "peak_rss_mib": peak_rss_mib,
    }
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "setup_samples_s": setups,
              "round_timed_s": [r.timed_s for r in rounds],
              "samples_trials_s": {op: [x for r in rounds for x in getattr(r, op)]
                                   for op in ("train", "transform", "eval")}}
    units = {n: u for n, u, _ in END_TO_END}
    if trace:
        tracer = tracing.Tracer()
        with tracer:
            wl.setup()
            traced = wl.round(len(rounds))
        per_layer = tracing.summarize(tracer)
        # the peaks come from a pass of their own: tracemalloc hooks every
        # allocation, so it stays off while the traced round is timed
        memory = tracing.Tracer()
        tracemalloc.start()
        try:
            with memory:
                wl.memory_pass()
        finally:
            tracemalloc.stop()
        per_layer.update(tracing.memory_peaks(memory))
        untraced_s = statistics.median(r.timed_s for r in rounds)
        per_layer["trace.overhead_pct"] = 100.0 * (traced.timed_s / untraced_s - 1.0)
        unattributed = tracing.unattributed_kernel_calls(tracer)
        traced.checks.append(("every kernels call is assigned to one model layer",
                              unattributed == 0, f"{unattributed} unassigned"))
        if spans_path is not None:
            tracer.write_spans(spans_path)
            record["spans_file"] = str(spans_path)
        rounds.append(traced)
        units = {n: u for n, u, _ in tracing.PER_LAYER}
        measured = per_layer
        record["traced_timed_s"] = traced.timed_s

    wl.finish()
    digests = sorted({r.digest for r in rounds})
    checks = [c for r in rounds for c in r.checks]
    checks.append(("every round gives identical outputs", len(digests) == 1,
                   f"{len(digests)} distinct digests over {len(rounds)} rounds"))
    checks += wl.run_checks
    record.update(
        correct=all(ok for _, ok, _ in checks),
        attempted=sum(r.attempted for r in rounds),
        failed=sum(r.failed for r in rounds),
        rounds=len(rounds),
        output_digest=digests[0] if len(digests) == 1 else digests,
        checks=[{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        metrics={k: {"value": measured[k], "unit": units[k]} for k in units},
    )
    return record
