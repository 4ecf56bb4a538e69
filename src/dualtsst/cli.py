"""Command-line pipeline: synth -> transform -> train -> eval -> stats,
plus an augmentation inspector and an end-to-end gradient check.

Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 numerical failure.  Every command that produces artefacts writes a
``resolved_config.json`` echoing the effective settings next to them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import augment as aug
from . import dataio, kernels, metrics, train as training
from .dataio import _is_int
from .errors import DataError, DualTsstError, NumericalError, UsageError
from .gradcheck import check_gradients
from .model import (RETIRED_MODEL_KEYS, DualTsstModel, ModelConfig, config_from_preset,
                    drop_retired)
from .tensor import cross_entropy

GRADCHECK_TOL = 1e-3
# thread-count variables the BLAS libraries numpy links against read at import
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _write_resolved(out_dir, payload: dict) -> None:
    with dataio.atomic_open(Path(out_dir) / "resolved_config.json") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def _environment() -> dict:
    """What a run's speed depends on besides its config: recorded, never replayed."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": cpus,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        # what the package set, which the variables above may not say
        "blas_threads_in_use": kernels.blas_threads(),
    }


def _number(cast, low=-math.inf, strict=False):
    """argparse type: a finite ``cast`` value at or above ``low`` (above it if ``strict``)."""
    what = "an integer" if cast is int else "a finite number"
    bound = "" if low == -math.inf else f" {'>' if strict else '>='} {low}"

    def parse(text):
        value = cast(text)
        if not (abs(value) < math.inf and (value > low if strict else value >= low)):
            raise argparse.ArgumentTypeError(f"must be {what}{bound}, got {text}")
        return value
    parse.__name__ = cast.__name__  # a bad literal reads "invalid int value: '2.5'"
    return parse


def _span(text) -> tuple[float, float]:
    """argparse type of ``--window``/``--band``: 'start:end' as two floats."""
    try:
        lo, hi = (float(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'start:end', got {text!r}")
    return (lo, hi)


def _classes(text) -> list:
    """argparse type of ``--classes``: '8:0+1,20:2+3' -> two classes; channels
    default to all when omitted."""
    classes = []
    for part in text.split(","):
        freq_s, colon, ch_s = part.partition(":")
        try:
            channels = tuple(int(c) for c in ch_s.split("+")) if colon else None
            classes.append(dataio.SynthClass(float(freq_s), channels))
        except ValueError:
            raise argparse.ArgumentTypeError(f"cannot parse class spec {part!r}")
    return classes


def _first_trial(data, manifest: dataio.DatasetManifest) -> dataio.TrialSet:
    """The first trial of ``manifest`` and its TFR, to check settings on it first."""
    return dataio.load_trialset(data, require_tfr=True, manifest=dataclasses.replace(
        manifest, trials=manifest.trials[:1]))


def _check_fits(cfg: ModelConfig, trials: dataio.TrialSet) -> None:
    """The trials have the geometry and the class count of a ``cfg`` model."""
    geometry = (trials.n_channels, trials.n_times, trials.n_freqs)
    expected = (cfg.n_channels, cfg.n_times, cfg.n_freqs)
    if geometry != expected:
        raise DataError(f"dataset geometry {geometry} != model geometry {expected}")
    if len(trials.class_names) != cfg.n_classes:
        raise DataError(f"dataset has {len(trials.class_names)} classes, model has {cfg.n_classes}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _preset_settings(args, preset, **fallbacks) -> dict:
    """The ``synth``/``transform`` settings named in ``fallbacks``: the preset's field
    of each name (without a preset, its fallback), then every given flag's over it
    (each flag's dest is the field it overrides)."""
    settings = {key: getattr(preset, key) for key in fallbacks} if preset else fallbacks
    settings.update((key, getattr(args, key)) for key in fallbacks
                    if getattr(args, key) is not None)
    return settings


def _cmd_synth(args) -> int:
    p = dataio.preset(args.preset) if args.preset else None
    s = _preset_settings(args, p, n_channels=4, n_times=64, fs=128.0, synth_classes=None)
    if args.n_times is None and p is not None and p.window:
        s["n_times"] = round(p.window[1] * s["fs"])  # recordings reach the end of the window
        if s["n_times"] < 1:
            raise UsageError(f"preset {args.preset}'s window ends at {p.window[1]} s, "
                             f"under one sample at --fs {s['fs']}; give --t")
    if not s["synth_classes"]:
        raise UsageError("--classes is required unless the preset defines them")
    classes = list(s.pop("synth_classes"))
    ts = dataio.synth(args.n, classes=classes, noise=args.noise, seed=args.seed, **s)
    splits = None
    if p is not None and p.split_mode == "session":
        # trials come class by class: each class's first half, rounded up, is
        # the training session and the rest the test session
        splits = ["train" if i < args.n - args.n // 2 else "test"
                  for _ in classes for i in range(args.n)]
    dataio.write_dataset(args.out, ts, name=args.name, splits=splits)
    _write_resolved(args.out, {
        "command": "synth",
        "preset": args.preset,
        "n_per_class": args.n,
        **s,
        "classes": [{"freq": c.freq, "channels": c.channels} for c in classes],
        "noise": args.noise,
        "seed": args.seed,
    })
    print(f"wrote {len(ts)} trials to {args.out}")
    return 0


def _cmd_transform(args) -> int:
    p = dataio.preset(args.preset) if args.preset else None
    s = _preset_settings(args, p, freq_lo=1.0, freq_hi=40.0, freq_step=1.0, band=None,
                         window=None)
    freqs = dataio.freq_grid(s.pop("freq_lo"), s.pop("freq_hi"), s.pop("freq_step"))
    written = dataio.transform_dataset(args.data, freqs, force=args.force, **s)  # band, window
    _write_resolved(args.data, {"command": "transform", "freqs": [float(f) for f in freqs], **s})
    print(f"computed {written} TFR sidecars under {args.data}")
    return 0


def _cmd_augment(args) -> int:
    manifest = dataio.load_manifest(args.data)
    n_times = _first_trial(args.data, manifest).n_times
    if not 1 <= args.r <= n_times:
        raise DataError(f"--r must be in [1, {n_times}] segments for "
                        f"{n_times}-sample trials, got {args.r}")
    pool = dataio.load_trialset(args.data, require_tfr=True, normalize=False,
                                manifest=manifest)
    rng = np.random.default_rng(args.seed)
    classes = sorted(int(c) for c in np.unique(pool.labels))
    labels = [classes[i % len(classes)] for i in range(args.count)]
    eeg, tfr = aug.segment_reassemble(pool, labels, args.r, rng)
    out_set = dataio.TrialSet(eeg=eeg, labels=np.asarray(labels), fs=pool.fs, tfr=tfr,
                              freqs=pool.freqs, class_names=manifest.class_names)
    dataio.write_dataset(args.out, out_set, name=manifest.name + "-augmented")
    _write_resolved(args.out, {
        "command": "augment",
        "source": str(args.data),
        "segments": args.r,
        "count": args.count,
        "seed": args.seed,
    })
    print(f"wrote {args.count} augmented trials to {args.out}")
    return 0


def _load_run_config(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise DataError(f"{path}: config must be a JSON object")
    # "command"/"data"/"environment" appear in resolved_config.json echoes, and
    # "backend" in those written while the kernels had a backend switch; all
    # four are ignored, so a resolved config can be replayed directly via --config
    allowed = {"model", "train", "preset", "seed", "split",
               "command", "data", "environment", "backend"}
    unknown = set(raw) - allowed
    if unknown:
        raise DataError(f"{path}: unknown config keys {sorted(unknown)}")
    if raw.get("preset") is not None and not isinstance(raw["preset"], str):
        raise DataError(f"{path}: preset must be a string, got {raw['preset']!r}")
    if "seed" in raw and not _is_int(raw["seed"]):
        raise DataError(f"{path}: seed must be an integer, got {raw['seed']!r}")
    for section, cls, retired in (("model", ModelConfig, RETIRED_MODEL_KEYS),
                                  ("train", training.TrainConfig, training.RETIRED_TRAIN_KEYS),
                                  ("split", dataio.SplitPlan, {})):
        if section not in raw:
            continue
        if not isinstance(raw[section], dict):
            raise DataError(f"{path}: {section} must be a JSON object, got {raw[section]!r}")
        raw[section] = drop_retired(raw[section], retired, f"{path}: {section}.")
        dataio.check_fields(raw[section], cls, f"{path}: {section}.")
    if "seed" in raw:  # the run seed is train.seed; older resolved configs hold both
        seed, train = raw.pop("seed"), raw.setdefault("train", {})
        if train.setdefault("seed", seed) != seed:
            raise DataError(f"{path}: seed {seed} and train.seed {train['seed']} disagree")
    return raw


def _run_sections(args, preset, file_cfg) -> dict:
    """The ``model``/``train``/``split`` settings of a run: the preset's, then the
    config file's over them, then every given flag's (its dest is the key it sets)."""
    if preset is None:
        sections = {"model": {}, "train": {}, "split": dataclasses.asdict(dataio.SplitPlan())}
    else:
        sections = {
            "model": dict(preset.model_overrides),
            "train": {"augment_segments": preset.augment_segments, **preset.train_overrides},
            "split": dataclasses.asdict(preset.split_plan()),
        }
    for name, section in sections.items():
        section.update(file_cfg.get(name, {}))
    for key, value in vars(args).items():
        if "." in key and value is not None:
            name, field = key.split(".")
            sections[name][field] = value
    return sections


def _cmd_train(args) -> int:
    file_cfg = _load_run_config(args.config) if args.config else {}
    preset_name = args.preset or file_cfg.get("preset")
    p = dataio.preset(preset_name) if preset_name else None

    sections = _run_sections(args, p, file_cfg)
    # what needs no data is checked before any is read, and the model before the rest
    train_cfg = training.TrainConfig(**sections["train"])
    train_cfg.validate()
    plan = dataio.SplitPlan(**sections["split"])
    plan.validate()

    manifests = dataio.split_manifest(args.data, plan)
    first = _first_trial(args.data, manifests[0])
    # the data's geometry, unless a preset or the config file sets it
    model_cfg = ModelConfig(**{
        "n_channels": first.n_channels,
        "n_times": first.n_times,
        "n_freqs": first.n_freqs,
        "n_classes": len(first.class_names),
        **sections["model"],
    })
    _check_fits(model_cfg, first)
    model = DualTsstModel(model_cfg, rng=training.init_rng_for_seed(train_cfg.seed),
                          dtype=np.dtype(train_cfg.dtype))

    train_set, test_set = dataio.load_dataset(args.data, plan, require_tfr=True,
                                              manifests=manifests)

    _write_resolved(args.out, {
        "command": "train",
        "preset": preset_name,
        "split": dataclasses.asdict(plan),
        "model": dataclasses.asdict(model_cfg),
        "train": dataclasses.asdict(train_cfg),
        "data": str(args.data),
        "environment": _environment(),
    })

    def progress(entry):
        if not args.quiet and (entry.epoch % 10 == 0 or entry.epoch == train_cfg.epochs - 1):
            test = "" if entry.test_acc is None else f" test_acc={entry.test_acc:.3f}"
            print(f"epoch {entry.epoch:4d} lr={entry.lr:.2e} loss={entry.loss:.4f} "
                  f"train_acc={entry.train_acc:.3f}{test}")

    result = training.train_loop(model, train_set, train_cfg, test_set=test_set,
                                 out_dir=args.out, progress=progress)
    if result.best_test_acc is not None:
        print(f"best test accuracy {result.best_test_acc:.4f} at epoch {result.best_epoch} "
              "(selected on the test split: not a held-out estimate)")
    print(f"artifacts in {args.out}")
    return 0


def _cmd_eval(args) -> int:
    model = DualTsstModel.load(args.model)
    p = dataio.preset(args.preset) if args.preset else None
    plan = dataio.SplitPlan(**_run_sections(args, p, {})["split"])
    test_manifest = dataio.split_manifest(args.data, plan)[1]
    _check_fits(model.config, _first_trial(args.data, test_manifest))
    test_set = dataio.load_trialset(args.data, require_tfr=True, manifest=test_manifest)

    if args.features:
        preds, features = training.evaluate(model, test_set, features=True)
    else:
        preds = training.evaluate(model, test_set)
    report = metrics.evaluate_predictions(
        test_set.labels, preds, test_set.class_names,
        config=dataclasses.asdict(model.config),
    )
    subjects = np.array([t.subject for t in test_manifest.trials])
    groups = {str(s): (test_set.labels[subjects == s], preds[subjects == s])
              for s in np.unique(subjects)}
    if len(groups) > 1:
        report.subjects = metrics.subject_summary(groups, n_classes=len(test_set.class_names))
    metrics.export_report(report, args.out)
    if args.features:
        blob = b"".join(dataio.array_chunks(features))
        with dataio.atomic_open(args.features, "wb") as fh:
            fh.write(blob)
    _write_resolved(args.out, {
        "command": "eval",
        "model": str(args.model),
        "data": str(args.data),
        "split": dataclasses.asdict(plan),
        "environment": _environment(),
    })
    print(f"accuracy={report.accuracy:.4f} kappa={report.kappa:.4f} n={report.n}")
    return 0


def _read_column(path) -> np.ndarray:
    try:
        values = [float(line) for line in Path(path).read_text().split()]
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read accuracy column from {path}: {exc}") from exc
    if not values:
        raise DataError(f"{path} contains no values")
    values = np.asarray(values)
    if not np.isfinite(values).all():
        raise DataError(f"{path} contains a non-finite value")
    return values


def _cmd_stats(args) -> int:
    a = _read_column(args.a)
    b = _read_column(args.b)
    if a.size != b.size:
        raise DataError(f"paired columns differ in length ({a.size} vs {b.size})")
    res = metrics.wilcoxon_signed_rank(a, b)
    if res.defined:
        print(f"wilcoxon W={res.statistic:g} p={res.p_value:.6g} "
              f"(n_effective={res.n_effective}, {res.method})")
    else:
        print("wilcoxon: undefined (all paired differences are zero)")
    if args.out:
        _write_resolved(args.out, {
            "command": "stats",
            "a": str(args.a),
            "b": str(args.b),
            "W": res.statistic,
            "p": res.p_value,
            "n_effective": res.n_effective,
            "method": res.method,
        })
    return 0


def _cmd_gradcheck(args) -> int:
    p = dataio.preset(args.preset)
    cfg = config_from_preset(p)
    rng = np.random.default_rng(args.seed)
    model = DualTsstModel(cfg, rng=rng)
    n = args.batch
    eeg = rng.normal(size=(n, cfg.n_channels, cfg.n_times))
    tfr = rng.normal(size=(n, cfg.n_channels, cfg.n_freqs, cfg.n_times))
    labels = rng.integers(0, cfg.n_classes, size=n)

    def loss_fn():
        return cross_entropy(model.forward(eeg, tfr, train=True), labels)

    result = check_gradients(loss_fn, model.params)
    print(f"gradcheck: max relative error {result.max_rel_error:.3e} "
          f"(worst: {result.worst_param}) over {model.param_count()} parameters")
    if not result.max_rel_error < GRADCHECK_TOL:
        raise NumericalError(
            f"gradient check failed: {result.max_rel_error:.3e} >= {GRADCHECK_TOL}"
        )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_split_flags(sp) -> None:
    """The flags that set the ``split`` section, shared by ``train`` and ``eval``."""
    sp.add_argument("--split", dest="split.mode", choices=["session", "kfold"])
    sp.add_argument("--k", dest="split.k", metavar="K", type=int)
    sp.add_argument("--fold", dest="split.fold", metavar="FOLD", type=int)
    sp.add_argument("--split-seed", dest="split.seed", metavar="SPLIT_SEED", type=_number(int, 0))


def build_parser() -> _Parser:
    parser = _Parser(prog="dualtsst", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    sp = sub.add_parser("synth", help="generate a synthetic dataset")
    sp.add_argument("--out", required=True)
    sp.add_argument("--preset", choices=dataio.preset_names())
    sp.add_argument("--classes", dest="synth_classes", metavar="CLASSES", type=_classes,
                    help="e.g. '8:0+1,20:2+3' (freq Hz : channel list)")
    sp.add_argument("--n", type=_number(int, 1), default=48, help="trials per class")
    sp.add_argument("--ch", dest="n_channels", metavar="CH", type=_number(int, 1))
    sp.add_argument("--t", dest="n_times", metavar="T", type=_number(int, 1),
                    help="samples per trial")
    sp.add_argument("--fs", type=_number(float, 0, strict=True))
    sp.add_argument("--noise", type=_number(float, 0), default=0.5)
    sp.add_argument("--seed", type=_number(int, 0), default=0)
    sp.add_argument("--name", default="synth")
    sp.set_defaults(func=_cmd_synth)

    sp = sub.add_parser("transform", help="compute Morlet TFR sidecars")
    sp.add_argument("--data", required=True)
    sp.add_argument("--preset", choices=dataio.preset_names())
    sp.add_argument("--freq-lo", type=_number(float))
    sp.add_argument("--freq-hi", type=_number(float))
    sp.add_argument("--freq-step", type=_number(float, 0, strict=True))
    sp.add_argument("--window", type=_span, help="epoch window 'start:end' in seconds")
    sp.add_argument("--band", type=_span, help="bandpass 'lo:hi' in Hz")
    sp.add_argument("--force", action="store_true", help="recompute existing sidecars")
    sp.set_defaults(func=_cmd_transform)

    sp = sub.add_parser("augment", help="write segment-reassembled trials")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--r", type=int, required=True, help="segments per trial")
    sp.add_argument("--count", type=_number(int, 1), default=32)
    sp.add_argument("--seed", type=_number(int, 0), default=0)
    sp.set_defaults(func=_cmd_augment)

    sp = sub.add_parser("train", help="train a model")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--config", help="JSON file with 'model'/'train'/'split' sections, "
                    "a 'preset' and a 'seed'")
    sp.add_argument("--preset", choices=dataio.preset_names())
    sp.add_argument("--seed", dest="train.seed", metavar="SEED", type=_number(int, 0))
    sp.add_argument("--epochs", dest="train.epochs", metavar="EPOCHS", type=int)
    _add_split_flags(sp)
    sp.add_argument("--quiet", action="store_true")
    for flag, key in (("--no-transformer", "use_transformer"), ("--no-branch1", "use_branch1"),
                      ("--no-b2-input1", "use_branch2_input1"),
                      ("--no-b2-input2", "use_branch2_input2")):
        sp.add_argument(flag, dest=f"model.{key}", action="store_const", const=False)
    sp.add_argument("--no-augment", dest="train.augment_segments", action="store_const",
                    const=0)
    sp.set_defaults(func=_cmd_train)

    sp = sub.add_parser("eval", help="evaluate a checkpoint")
    sp.add_argument("--model", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--preset", choices=dataio.preset_names())
    _add_split_flags(sp)
    sp.add_argument("--features", help="dump pre-classifier features to this tensor file")
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("stats", help="Wilcoxon test on two per-subject accuracy columns")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_stats)

    sp = sub.add_parser("gradcheck", help="finite-difference check of the full model")
    sp.add_argument("--preset", default="mini", choices=dataio.preset_names())
    sp.add_argument("--seed", type=_number(int, 0), default=1)
    sp.add_argument("--batch", type=_number(int, 1), default=2)
    sp.set_defaults(func=_cmd_gradcheck)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except DualTsstError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
