"""Training loop: cross-entropy, Adam with coupled L2 decay, cosine-annealed
learning rate with restarts, and per-batch segment augmentation.

The learning rate follows

    lr = lr_min + 0.5 * (lr_max - lr_min) * (1 + cos(pi * t / cycle))

with t = epoch mod cycle, so the rate restarts at lr_max at each cycle
boundary and decays to lr_min at the end of a cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import augment as aug
from .dataio import TrialSet, atomic_open
from .errors import DataError, NumericalError
from .model import DualTsstModel
from .tensor import backward, cross_entropy, no_grad

ADAM_BETAS = (0.5, 0.999)
ADAM_EPS = 1e-8
# removed options and the one value every run used (see model.drop_retired)
RETIRED_TRAIN_KEYS = {"decoupled_weight_decay": False,
                      "beta1": ADAM_BETAS[0], "beta2": ADAM_BETAS[1]}


@dataclass
class TrainConfig:
    """Optimisation hyperparameters; defaults are the full-scale recipe."""

    lr_max: float = 1e-4
    lr_min: float = 0.0
    weight_decay: float = 0.0012
    epochs: int = 1000
    batch_size: int = 32
    cycle_epochs: int = 32           # cosine cycle length (epochs)
    augment_segments: int = 8        # 0 disables augmentation
    dtype: str = "float64"           # "float32" trades gradient-check headroom for speed
    seed: int = 0

    def validate(self) -> None:
        if not 0.0 <= self.lr_min < self.lr_max < math.inf:
            raise DataError(f"need 0 <= lr_min < lr_max < inf, got [{self.lr_min}, {self.lr_max}]")
        if not 0.0 <= self.weight_decay < math.inf:
            raise DataError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.cycle_epochs < 1:
            raise DataError("cycle_epochs must be >= 1")
        if self.epochs < 1 or self.batch_size < 1:
            raise DataError("epochs and batch_size must be >= 1")
        if self.augment_segments < 0:
            raise DataError("augment_segments must be >= 0")
        if self.dtype not in ("float64", "float32"):
            raise DataError(f"dtype must be float64 or float32, got {self.dtype!r}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")


def cosine_lr(t_cur: float, lr_max: float, lr_min: float, cycle: int) -> float:
    """Learning rate at epoch-in-cycle ``t_cur`` (0 gives lr_max, cycle gives lr_min)."""
    if not 0 <= t_cur <= cycle:
        raise DataError(f"t_cur={t_cur} outside [0, {cycle}]")
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * t_cur / cycle))


def _streams(seed: int) -> list[np.random.Generator]:
    """A run seed's three independent streams: shuffle, augment, parameter init."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]


def init_rng_for_seed(seed: int) -> np.random.Generator:
    """Parameter-initialisation stream for a run seed (the third of ``_streams``)."""
    return _streams(seed)[2]


@dataclass
class TrainState:
    """Adam moments plus step count."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def adam_step(params: dict, state: TrainState, lr: float, cfg: TrainConfig) -> None:
    """One Adam update over the parameter registry.

    Gradients get the coupled L2 term ``weight_decay * theta`` added before
    the moments update, so the decay is scaled by Adam's step like the rest
    of the gradient; moments update even when lr == 0.
    """
    beta1, beta2 = ADAM_BETAS
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = p.grad
        if g is None:
            raise DataError(f"parameter {name} has no gradient; run backward first")
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient in {name}")
        if cfg.weight_decay:
            g = g + cfg.weight_decay * p.data
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        if lr:
            mhat = m / bc1
            vhat = v / bc2
            p.data = p.data - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


@dataclass
class EpochLog:
    epoch: int
    lr: float
    loss: float
    train_acc: float
    test_acc: float | None


@dataclass
class TrainResult:
    log: list
    best_epoch: int | None
    best_test_acc: float | None


def evaluate(model: DualTsstModel, ts: TrialSet, batch_size: int = 64,
             features: bool = False):
    """Predicted labels for every trial, ``batch_size`` trials a pass;
    eval-mode batch norm, no grad.  With ``features``, ``(labels, pooled
    features [N, D])`` from one encoder pass per batch: the head reads the
    pooled features the caller gets."""
    labels, pooled = [], []
    with no_grad():
        for start in range(0, len(ts), batch_size):
            # contiguous slices are views: no batch is copied
            batch = slice(start, start + batch_size)
            tfr = None if ts.tfr is None else ts.tfr[batch]
            if features:
                feats = model.pooled_features(ts.eeg[batch], tfr)
                pooled.append(feats.data)
                logits = model.head(feats)
            else:
                logits = model.forward(ts.eeg[batch], tfr, train=False)
            labels.append(np.argmax(logits.data, axis=1))
    if features:
        return np.concatenate(labels), np.concatenate(pooled)
    return np.concatenate(labels)


def train_loop(model: DualTsstModel, train_set: TrialSet, cfg: TrainConfig,
               test_set: TrialSet | None = None, out_dir=None,
               progress=None) -> TrainResult:
    """Run the full recipe; returns the per-epoch log.

    Each epoch shuffles (seeded), walks batches, optionally appends one
    augmented sample per real sample (doubling the batch), and applies one
    Adam step per batch at the epoch's cosine learning rate.  When a test
    set is given, the model is evaluated every epoch and the best-accuracy
    checkpoint is kept alongside the final one.
    """
    cfg.validate()
    if model.dtype != cfg.dtype:
        raise DataError(f"the model is {model.dtype}, the train config asks for {cfg.dtype}")
    if len(train_set) == 0:
        raise DataError("empty training set")
    if model.config.branches().keys() - {"branch1"} and train_set.tfr is None:
        raise DataError("model uses the time-frequency branch but the dataset has no TFR")
    if cfg.augment_segments > train_set.n_times:
        raise DataError(
            f"augment_segments={cfg.augment_segments} exceeds trial length {train_set.n_times}"
        )

    shuffle_rng, augment_rng, _ = _streams(cfg.seed)

    state = TrainState()
    logs: list[EpochLog] = []
    best_acc, best_epoch = None, None
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    for ep in range(cfg.epochs):
        lr = cosine_lr(ep % cfg.cycle_epochs, cfg.lr_max, cfg.lr_min, cfg.cycle_epochs)
        order = shuffle_rng.permutation(len(train_set))
        loss_sum, loss_n = 0.0, 0
        hit, seen = 0, 0
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            batch = train_set.subset(idx)
            eeg, tfr, labels = batch.eeg, batch.tfr, batch.labels
            n_real = len(labels)
            if cfg.augment_segments > 0:
                eeg, tfr, labels = (np.concatenate(pair) for pair in zip(
                    (eeg, tfr, labels), aug.augment_batch(batch, cfg.augment_segments, augment_rng)))
            del batch  # with augmentation, only the joined arrays live through the step

            model.zero_grad()
            logits = model.forward(eeg, tfr, train=True)
            loss = cross_entropy(logits, labels)
            val = float(loss.data)
            if not math.isfinite(val):
                raise NumericalError(f"non-finite loss at epoch {ep}, batch {start // cfg.batch_size}")
            backward(loss)
            adam_step(model.params, state, lr, cfg)

            loss_sum += val * len(labels)
            loss_n += len(labels)
            hit += int(np.sum(np.argmax(logits.data[:n_real], axis=1) == labels[:n_real]))
            seen += n_real

        test_acc = None
        if test_set is not None and len(test_set):
            test_acc = float(np.mean(evaluate(model, test_set, cfg.batch_size)
                                     == test_set.labels))
            if best_acc is None or test_acc > best_acc:
                best_acc, best_epoch = test_acc, ep
                if out_dir is not None:
                    model.save(out_dir / "model_best.dtss")
        entry = EpochLog(epoch=ep, lr=lr, loss=loss_sum / loss_n,
                         train_acc=hit / seen, test_acc=test_acc)
        logs.append(entry)
        if progress is not None:
            progress(entry)

    if out_dir is not None:
        model.save(out_dir / "model_final.dtss")
        write_log_csv(out_dir / "log.csv", logs)
    return TrainResult(log=logs, best_epoch=best_epoch, best_test_acc=best_acc)


def write_log_csv(path, logs) -> None:
    lines = ["epoch,lr,loss,train_acc,test_acc"]
    for e in logs:
        test = "" if e.test_acc is None else repr(e.test_acc)
        lines.append(f"{e.epoch},{e.lr!r},{e.loss!r},{e.train_acc!r},{test}")
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")
