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
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import augment as aug
from . import dataio, metrics, train as training
from .dataio import _is_int, _is_num
from .errors import DataError, DualTsstError, NumericalError, UsageError
from .gradcheck import check_gradients
from .model import (RETIRED_MODEL_KEYS, DualTsstModel, ModelConfig, config_from_preset,
                    drop_retired)
from .tensor import cross_entropy, no_grad

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
    }


def _seed(text) -> int:
    """argparse type of every seed flag: numpy seeds must be >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parse_window(text):
    if text is None:
        return None
    try:
        lo, hi = (float(v) for v in text.split(":"))
    except ValueError:
        raise UsageError(f"cannot parse window {text!r}; expected 'start:end' seconds")
    return (lo, hi)


def _parse_classes(text):
    """'8:0+1,20:2+3' -> two classes; channels default to all when omitted."""
    classes = []
    for part in text.split(","):
        freq_s, colon, ch_s = part.partition(":")
        try:
            channels = tuple(int(c) for c in ch_s.split("+")) if colon else None
            classes.append(dataio.SynthClass(float(freq_s), channels))
        except ValueError:
            raise UsageError(f"cannot parse class spec {part!r}")
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


def _split_plan_from_args(args, preset=None, file_cfg=None) -> dataio.SplitPlan:
    """Split precedence: explicit flags > config file section > preset > defaults."""
    section = (file_cfg or {}).get("split") or {}
    mode = args.split or section.get("mode") or (preset.split_mode if preset else "kfold")
    k = args.k if args.k is not None else section.get("k", preset.kfold_k if preset else 5)
    fold = args.fold if args.fold is not None else section.get("fold", 0)
    seed = args.split_seed if args.split_seed is not None else section.get("seed", 0)
    return dataio.SplitPlan(mode=mode, k=k, fold=fold, seed=seed)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_synth(args) -> int:
    p = dataio.preset(args.preset) if args.preset else None
    ch = args.ch if args.ch is not None else (p.n_channels if p else 4)
    n_times = args.t if args.t is not None else (p.n_times if p else 64)
    fs = args.fs if args.fs is not None else (p.fs if p else 128.0)
    if args.classes:
        classes = _parse_classes(args.classes)
    elif p is not None and p.synth_classes:
        classes = list(p.synth_classes)
    else:
        raise UsageError("--classes is required unless the preset defines them")
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    if ch < 1:
        raise UsageError(f"--ch must be >= 1, got {ch}")
    if n_times < 1:
        raise UsageError(f"--t must be >= 1, got {n_times}")
    if not 0 <= args.noise < float("inf"):
        raise UsageError(f"--noise must be a finite number >= 0, got {args.noise}")
    if not 0 < fs < float("inf"):
        raise UsageError(f"--fs must be a positive finite number, got {fs}")
    ts = dataio.synth(args.n, ch, n_times, fs, classes, noise=args.noise, seed=args.seed)
    dataio.write_dataset(args.out, ts, name=args.name)
    _write_resolved(args.out, {
        "command": "synth",
        "preset": args.preset,
        "n_per_class": args.n,
        "n_channels": ch,
        "n_times": n_times,
        "fs": fs,
        "classes": [{"freq": c.freq, "channels": c.channels} for c in classes],
        "noise": args.noise,
        "seed": args.seed,
    })
    print(f"wrote {len(ts)} trials to {args.out}")
    return 0


def _cmd_transform(args) -> int:
    p = dataio.preset(args.preset) if args.preset else None
    freq_lo = args.freq_lo if args.freq_lo is not None else (p.freq_lo if p else 1.0)
    freq_hi = args.freq_hi if args.freq_hi is not None else (p.freq_hi if p else 40.0)
    freq_step = args.freq_step if args.freq_step is not None else (p.freq_step if p else 1.0)
    if not 0 < freq_step < float("inf"):
        raise UsageError(f"--freq-step must be a positive finite number, got {freq_step}")
    window = _parse_window(args.window) if args.window else (p.window if p else None)
    band = _parse_window(args.band) if args.band else (p.band if p else None)
    freqs = np.arange(freq_lo, freq_hi + 1e-9, freq_step)
    written = dataio.transform_dataset(args.data, freqs, band=band, window=window,
                                       force=args.force)
    _write_resolved(args.data, {
        "command": "transform",
        "freqs": [float(f) for f in freqs],
        "band": band,
        "window": window,
    })
    print(f"computed {written} TFR sidecars under {args.data}")
    return 0


def _cmd_augment(args) -> int:
    if args.count < 1:
        raise UsageError(f"--count must be >= 1, got {args.count}")
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


# config field annotation -> whether a JSON value fits it
_JSON_CHECKS = {
    "int": _is_int,
    "float": _is_num,
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
}


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
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        bad = set(raw[section]) - set(types)
        if bad:
            raise DataError(f"{path}: unknown {section} keys {sorted(bad)}")
        for key, value in raw[section].items():
            if not _JSON_CHECKS[types[key]](value):
                raise DataError(f"{path}: {section}.{key} must be {types[key]}, got {value!r}")
    return raw


def _apply_ablation(args, model_kwargs: dict, train_kwargs: dict) -> None:
    if args.no_transformer:
        model_kwargs["use_transformer"] = False
    if args.no_branch1:
        model_kwargs["use_branch1"] = False
    if args.no_b2_input1:
        model_kwargs["use_branch2_input1"] = False
    if args.no_b2_input2:
        model_kwargs["use_branch2_input2"] = False
    if args.no_augment:
        train_kwargs["augment_segments"] = 0


def _cmd_train(args) -> int:
    file_cfg = _load_run_config(args.config) if args.config else {}
    preset_name = args.preset or file_cfg.get("preset")
    p = dataio.preset(preset_name) if preset_name else None

    plan = _split_plan_from_args(args, p, file_cfg)
    model_kwargs: dict = {}
    train_kwargs: dict = {}
    if p is not None:
        model_kwargs.update(p.model_overrides)
        train_kwargs.update(p.train_overrides)
        train_kwargs.setdefault("augment_segments", p.augment_segments)
    model_kwargs.update(file_cfg.get("model", {}))
    train_kwargs.update(file_cfg.get("train", {}))
    if args.epochs is not None:
        train_kwargs["epochs"] = args.epochs
    seed = args.seed
    if seed is None:
        seed = file_cfg.get("seed", train_kwargs.get("seed", 0))
    train_kwargs["seed"] = seed
    _apply_ablation(args, model_kwargs, train_kwargs)
    # what needs no data is checked before any is read, and the model before the rest
    train_cfg = training.TrainConfig(**train_kwargs)
    train_cfg.validate()
    plan.validate()

    manifests = dataio.split_manifest(args.data, plan)
    first = _first_trial(args.data, manifests[0])
    # the data's geometry, unless a preset or the config file sets it
    model_cfg = ModelConfig(**{
        "n_channels": first.n_channels,
        "n_times": first.n_times,
        "n_freqs": first.n_freqs,
        "n_classes": len(first.class_names),
        **model_kwargs,
    })
    _check_fits(model_cfg, first)
    model = DualTsstModel(model_cfg, rng=training.init_rng_for_seed(seed),
                          dtype=np.dtype(train_cfg.dtype))

    train_set, test_set = dataio.load_dataset(args.data, plan, require_tfr=True,
                                              manifests=manifests)

    _write_resolved(args.out, {
        "command": "train",
        "preset": preset_name,
        "seed": seed,
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
    plan = _split_plan_from_args(args, p)
    test_manifest = dataio.split_manifest(args.data, plan)[1]
    _check_fits(model.config, _first_trial(args.data, test_manifest))
    test_set = dataio.load_trialset(args.data, require_tfr=True, manifest=test_manifest)

    preds = training.evaluate(model, test_set)
    report = metrics.evaluate_predictions(
        test_set.labels, preds, test_set.class_names,
        config=dataclasses.asdict(model.config),
    )
    groups = {}
    for s in sorted(set(test_set.subjects)):
        idx = [i for i, subj in enumerate(test_set.subjects) if subj == s]
        groups[s] = (test_set.labels[idx], preds[idx])
    summary = metrics.subject_summary(groups, n_classes=len(test_set.class_names))
    report.extra["kappa_pooled"] = summary["kappa_pooled"]
    report.extra["kappa_mean"] = summary["kappa_mean"]
    if len(groups) > 1:
        report.extra["subjects"] = summary
    metrics.export_report(report, args.out)
    if args.features:
        with no_grad():
            feats = model.pooled_features(test_set.eeg, test_set.tfr)
        features = b"".join(dataio.array_chunks(feats.data))
        with dataio.atomic_open(args.features, "wb") as fh:
            fh.write(features)
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
    if args.batch < 1:
        raise UsageError(f"--batch must be >= 1, got {args.batch}")
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
    if not result.ok(GRADCHECK_TOL):
        raise NumericalError(
            f"gradient check failed: {result.max_rel_error:.3e} >= {GRADCHECK_TOL}"
        )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="dualtsst", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    sp = sub.add_parser("synth", help="generate a synthetic dataset")
    sp.add_argument("--out", required=True)
    sp.add_argument("--preset", choices=dataio.preset_names())
    sp.add_argument("--classes", help="e.g. '8:0+1,20:2+3' (freq Hz : channel list)")
    sp.add_argument("--n", type=int, default=48, help="trials per class")
    sp.add_argument("--ch", type=int)
    sp.add_argument("--t", type=int, help="samples per trial")
    sp.add_argument("--fs", type=float)
    sp.add_argument("--noise", type=float, default=0.5)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--name", default="synth")
    sp.set_defaults(func=_cmd_synth)

    sp = sub.add_parser("transform", help="compute Morlet TFR sidecars")
    sp.add_argument("--data", required=True)
    sp.add_argument("--preset", choices=dataio.preset_names())
    sp.add_argument("--freq-lo", type=float)
    sp.add_argument("--freq-hi", type=float)
    sp.add_argument("--freq-step", type=float)
    sp.add_argument("--window", help="epoch window 'start:end' in seconds")
    sp.add_argument("--band", help="bandpass 'lo:hi' in Hz")
    sp.add_argument("--force", action="store_true", help="recompute existing sidecars")
    sp.set_defaults(func=_cmd_transform)

    sp = sub.add_parser("augment", help="write segment-reassembled trials")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--r", type=int, required=True, help="segments per trial")
    sp.add_argument("--count", type=int, default=32)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.set_defaults(func=_cmd_augment)

    sp = sub.add_parser("train", help="train a model")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--config", help="JSON file with 'model'/'train' sections")
    sp.add_argument("--preset", choices=dataio.preset_names())
    sp.add_argument("--seed", type=_seed)
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--split", choices=["session", "kfold"])
    sp.add_argument("--k", type=int)
    sp.add_argument("--fold", type=int)
    sp.add_argument("--split-seed", type=_seed)
    sp.add_argument("--quiet", action="store_true")
    sp.add_argument("--no-transformer", action="store_true")
    sp.add_argument("--no-branch1", action="store_true")
    sp.add_argument("--no-b2-input1", action="store_true")
    sp.add_argument("--no-b2-input2", action="store_true")
    sp.add_argument("--no-augment", action="store_true")
    sp.set_defaults(func=_cmd_train)

    sp = sub.add_parser("eval", help="evaluate a checkpoint")
    sp.add_argument("--model", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--preset", choices=dataio.preset_names())
    sp.add_argument("--split", choices=["session", "kfold"])
    sp.add_argument("--k", type=int)
    sp.add_argument("--fold", type=int)
    sp.add_argument("--split-seed", type=_seed)
    sp.add_argument("--features", help="dump pre-classifier features to this tensor file")
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("stats", help="Wilcoxon test on two per-subject accuracy columns")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_stats)

    sp = sub.add_parser("gradcheck", help="finite-difference check of the full model")
    sp.add_argument("--preset", default="mini", choices=dataio.preset_names())
    sp.add_argument("--seed", type=_seed, default=1)
    sp.add_argument("--batch", type=int, default=2)
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DualTsstError as exc:  # pragma: no cover - catch-all for new subtypes
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
