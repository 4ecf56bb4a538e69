"""Tracing assigns every kernels call to one model layer, and unwrapping
restores the package exactly."""

import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for p in (ROOT, ROOT / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import dualtsst  # noqa: E402
from dualtsst import dataio  # noqa: E402
from dualtsst.model import DualTsstModel, config_from_preset  # noqa: E402
from dualtsst.tensor import cross_entropy  # noqa: E402
from perfbench import run, tracing, workloads  # noqa: E402


def _bindings() -> dict:
    """Every module attribute and class attribute in the package."""
    found = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "dualtsst" or name.startswith("dualtsst.")):
            continue
        for attr, obj in vars(mod).items():
            found[(name, attr)] = obj
            if inspect.isclass(obj) and obj.__module__ == name:
                for cattr, cobj in vars(obj).items():
                    found[(name, attr, cattr)] = cobj
    return found


@pytest.mark.parametrize("preset", ["mini", "bci2a", "bci2b", "seed"])
def test_every_kernel_call_has_exactly_one_layer(preset):
    cfg = config_from_preset(dataio.preset(preset))
    convs, pools = tracing.layer_shapes(cfg)
    assert all(len(branches) == 1 for branches in pools.values()), pools

    model = DualTsstModel(cfg, rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    eeg = rng.normal(size=(1, cfg.n_channels, cfg.n_times))
    tfr = rng.normal(size=(1, cfg.n_channels, cfg.n_freqs, cfg.n_times))
    tracer = tracing.Tracer()
    with tracer:
        loss = cross_entropy(model.forward(eeg, tfr, train=True), np.array([0]))
        loss.backward()

    calls = tracer.kernel_calls()
    seen = {}
    for i in calls:
        note = tracer.notes[i]
        assert note["layer"] is not None, tracer.spans[i]
        key = (note["layer"], note["pass"])
        seen[key] = seen.get(key, 0) + 1
    expected = {(layer, p): 1 for layer in convs for p in tracing.CONV_PASSES}
    expected.update({("branch1", "fwd"): 1, ("branch1", "bwd"): 1,
                     ("branch2", "fwd"): 2, ("branch2", "bwd"): 2})
    assert seen == expected
    assert len(calls) == sum(expected.values())

    summary = tracing.summarize(tracer)
    assert set(summary) | set(tracing.memory_peaks(tracer)) | {"trace.overhead_pct"} == \
        {n for n, _, _ in tracing.PER_LAYER}
    assert summary["kernels.conv2d.useful_input_grad_ratio"] == pytest.approx(6 / 9)


def test_unwrap_restores_every_binding():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings()
        changed = {k for k in before if during.get(k) is not before[k]}
        assert ("dualtsst.kernels", "conv2d_forward") in changed
        assert ("dualtsst.train", "backward") in changed        # imported by name
        assert ("dualtsst.model", "DualTsstModel", "load") in changed
        assert ("dualtsst.tensor", "Tensor", "__init__") in changed
        assert ("dualtsst.tensor", "as_tensor") not in changed
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert dualtsst.model.DualTsstModel.load.__func__ is before[
        ("dualtsst.model", "DualTsstModel", "load")].__func__


def test_benchmark_json_names_match_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER)


def test_run_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "mini-train",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
