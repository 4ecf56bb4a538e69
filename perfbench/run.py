#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the dualtsst package.

Runs each selected workload in its own child process, with BLAS threads
capped at the CPU count, and prints one JSON line per workload:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--seconds`` is the measured time per workload; run it with the
``run_seconds`` of ``BENCHMARK.json``, at which its bounds were set.  With
``--trace 0`` the metrics are the end-to-end ones, measured with no wrapper
installed; with ``--trace 1`` the child also runs one traced stretch and
reports the per-layer metrics instead.  A run record (machine,
library versions, git revision, checks, raw samples) is written to
``perfbench/out/`` next to the spans of a traced run.

    python3 perfbench/run.py --workload mini-train --seed 0 --seconds 20
    python3 perfbench/run.py --workload all --seed 3 --seconds 20 --trace 1

The child has no deadline of its own: a slower program gives slower
figures, not a failed workload.  A SIGTERM, SIGINT or SIGHUP to this
process stops the child and waits for it.

Exit status: 0 results correct, 2 a workload did not produce a result,
3 a result failed its correctness checks.
"""

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("mini-train", "bci2a-train", "seed-infer")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    mem_kib = next((int(line.split()[1]) for line in _read("/proc/meminfo").splitlines()
                    if line.startswith("MemTotal:")), 0)
    return {"cpu": cpu, "nproc": cpu_count(), "memory_mib": mem_kib / 1024.0,
            "platform": platform.platform()}


def versions() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    try:
        numba_imports = importlib.util.find_spec("numba") is not None
        if numba_imports:
            import numba  # noqa: F401
    except ImportError:
        numba_imports = False
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "numba_imports": numba_imports}


def git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` without starting git."""
    head = _read(ROOT / ".git" / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[5:]
    rev = _read(ROOT / ".git" / ref).strip()
    if not rev:
        rev = next((line.split()[0] for line in _read(ROOT / ".git" / "packed-refs").splitlines()
                    if line.endswith(" " + ref)), "unknown")
    return rev


def _stop(signum, frame):
    """Turn a stop signal into an exit, so that ``run_child`` stops its child."""
    raise SystemExit(128 + signum)


def run_child(workload: str, args, env) -> dict | None:
    tag = f"{workload}-seed{args.seed}-trace{args.trace}"
    result = OUT / f"result-{tag}.json"
    work = OUT / f"work-{tag}-{os.getpid()}"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result), "--work-dir", str(work)]
    if args.trace:
        cmd += ["--spans", str(OUT / f"spans-{tag}.json")]
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        code = child.wait()
    finally:
        if child.poll() is None:
            child.terminate()
            child.wait()
        shutil.rmtree(work, ignore_errors=True)
    if code != 0 or not result.exists():
        print(f"perfbench: workload {workload} failed (exit {code})", file=sys.stderr)
        return None
    record = json.loads(result.read_text())
    result.unlink()
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all",
                    help=f"comma-separated subset of {', '.join(WORKLOADS)}, or all")
    ap.add_argument("--seed", type=int, default=0, help="seed of the generated inputs")
    ap.add_argument("--seconds", type=float, required=True,
                    help="measured time per workload (whole rounds; at least one); "
                         "the run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced stretch")
    args = ap.parse_args(argv)
    selected = WORKLOADS if args.workload == "all" else tuple(args.workload.split(","))
    unknown = [w for w in selected if w not in WORKLOADS]
    if unknown:
        ap.error(f"unknown workload(s) {unknown}; known: {', '.join(WORKLOADS)}")
    if not (ROOT / "src" / "dualtsst").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'dualtsst'}", file=sys.stderr)
        return 2

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, _stop)
    threads = cpu_count()
    env = dict(os.environ)
    env.update({var: str(threads) for var in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    OUT.mkdir(parents=True, exist_ok=True)
    context = {"machine": machine(), "versions": versions(), "blas_threads": threads,
               "git_revision": git_revision()}

    status, lines = 0, []
    for workload in selected:
        record = run_child(workload, args, env)
        if record is None:
            status = 2
            continue
        context["versions"]["blas"] = record.pop("blas")
        run_record = dict(context, workloads={workload: record})
        tag = f"{workload}-seed{args.seed}-trace{args.trace}"
        (OUT / f"record-{tag}.json").write_text(json.dumps(run_record, indent=1) + "\n")
        for check in record["checks"]:
            if not check["ok"]:
                print(f"perfbench: {workload}: check failed: {check['name']}: "
                      f"{check['detail']}", file=sys.stderr)
        if not record["correct"] and status == 0:
            status = 3
        lines.append(json.dumps({k: record[k]
                                 for k in ("correct", "attempted", "failed", "metrics")}))
    if status == 2:
        return status
    for line in lines:
        print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
