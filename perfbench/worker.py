"""Child process of the benchmark: runs one workload and writes its result
record as JSON.  Started by ``run.py``; not meant to be run by hand.

The package is imported from ``src/`` of the checkout this file sits in,
and from nowhere else, so a checkout without the program fails.  Its import
time is the median of this process's own first import and of fresh
interpreters that only import it, half started before the workload and
half after, so that the samples span the run.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
IMPORT_REPS = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
                "from dualtsst import augment, dataio, kernels, metrics, model, signal, "
                "tensor, train; print(time.perf_counter() - t0)")


def import_package() -> float:
    """Import every layer of the package from ``src/``; returns the seconds
    the import took."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import dualtsst
        from dualtsst import (augment, dataio, kernels, metrics, model,  # noqa: F401
                              signal, tensor, train)
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import dualtsst from {SRC}: {exc}")
    seconds = time.perf_counter() - t0
    if SRC.resolve() not in Path(dualtsst.__file__).resolve().parents:
        raise SystemExit(f"perfbench: dualtsst was imported from {dualtsst.__file__}, "
                         f"not from {SRC}")
    return seconds


def import_probe() -> float:
    """Import time of the package in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True,
                          capture_output=True, text=True, timeout=60)
    return float(proc.stdout)


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version"),
            "configuration": blas.get("openblas configuration")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    imports = [import_package()] + [import_probe() for _ in range(IMPORT_REPS // 2)]
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    try:
        record = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               args.work_dir, spans_path=args.spans)
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)
    imports += [import_probe() for _ in range(IMPORT_REPS - 1 - IMPORT_REPS // 2)]
    import_s = statistics.median(imports)
    if not args.trace:
        record["metrics"]["setup_s"]["value"] += import_s
    record["import_samples_s"] = imports
    record["blas"] = blas_info()
    args.result.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
