"""Per-layer tracing from outside the program.

``Tracer.install`` replaces every public function of each package layer
(``signal``, ``dataio``, ``augment``, ``kernels``, ``tensor``, ``model``,
``train``, ``metrics``) with a wrapper that records a span: name, parent
span, start and end.  Every binding of the function in the package is
replaced, including names imported into other modules, so intra-package
calls are seen too.  ``Tensor.__init__`` is wrapped to count tensors.
``uninstall`` puts every original object back.  Spans stay in memory
until ``summarize`` and ``write_spans`` read them.

A ``kernels`` convolution call is assigned to its model layer by the
identity of the weight array it carries (the input array, for the kernel
gradient, which carries no weight), and the assignment is accepted only
when the weight and input shapes are the ones the model config gives that
layer.  Shapes alone cannot decide: both branch-2 pointwise convs always
have the same weight and input shapes.  A pooling call is assigned by its
window, stride and input shape, which differ between branch 1 and
branch 2; the two branch-2 pools are identical, so pool time is per branch.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc
import weakref

import numpy as np

PACKAGE = "dualtsst"
LAYERS = ("signal", "dataio", "augment", "kernels", "tensor", "model", "train", "metrics")
# accessors that do no work; a span would cost more than the call
NOT_TRACED = frozenset({"tensor.as_tensor", "tensor.is_grad_enabled",
                        "kernels.get_backend", "kernels.numba_available"})
BRANCHES = ("branch1", "branch2.view1", "branch2.view2")
CONV_OPS = ("tc", "sc", "pwc")
CONV_PASSES = ("fwd", "bwd_input", "bwd_kernel")
POOL_BRANCHES = ("branch1", "branch2")
TENSOR_OPS = ("batch_norm", "elu", "linear", "matmul", "softmax", "layer_norm")
MODEL_PIECES = ("branch1_forward", "branch2_forward", "encoder_forward", "classify")
MIB = float(1 << 20)

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [(f"kernels.conv2d.{b}.{op}.{p}_ms_per_trial", "ms", "lower")
     for b in BRANCHES for op in CONV_OPS for p in CONV_PASSES]
    + [(f"kernels.avgpool.{b}.{p}_ms_per_trial", "ms", "lower")
       for b in POOL_BRANCHES for p in ("fwd", "bwd")]
    + [
        ("kernels.conv2d.nominal_gmac_per_s", "GMAC/s", "higher"),
        ("kernels.calls_per_step", "count", "lower"),
        ("kernels.conv2d.discarded_input_grad_calls_per_step", "count", "lower"),
        ("kernels.conv2d.discarded_input_grad_ms_per_trial", "ms", "lower"),
        ("kernels.conv2d.useful_input_grad_ratio", "ratio", "higher"),
        ("tensor.backward_ms_per_trial", "ms", "lower"),
        ("tensor.backward.non_kernel_ms_per_trial", "ms", "lower"),
    ]
    + [(f"tensor.{op}_ms_per_trial", "ms", "lower") for op in TENSOR_OPS]
    + [
        ("tensor.tensors_per_step", "count", "lower"),
        ("tensor.backward.peak_mib", "MiB", "lower"),
        ("model.forward.peak_mib", "MiB", "lower"),
        ("model.forward_train_ms_per_trial", "ms", "lower"),
        ("model.forward_eval_ms_per_trial", "ms", "lower"),
    ]
    + [(f"model.{piece}_ms_per_trial", "ms", "lower") for piece in MODEL_PIECES]
    + [
        ("model.save_ms", "ms", "lower"),
        ("model.load_ms", "ms", "lower"),
        ("augment.augment_batch_ms_per_trial", "ms", "lower"),
        ("train.adam_step_ms_per_step", "ms", "lower"),
        ("train.evaluate_ms_per_trial", "ms", "lower"),
        ("signal.morlet_power_ms_per_trial", "ms", "lower"),
        ("signal.bandpass_ms_per_trial", "ms", "lower"),
        ("signal.zscore_ms_per_trial", "ms", "lower"),
        ("dataio.read_array_mib_per_s", "MiB/s", "higher"),
        ("dataio.bytes_read", "bytes", "lower"),
        ("dataio.write_array_mib_per_s", "MiB/s", "higher"),
        ("dataio.bytes_written", "bytes", "lower"),
        ("dataio.load_dataset_ms_per_trial", "ms", "lower"),
        ("metrics.evaluate_predictions_ms", "ms", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
)


# ---------------------------------------------------------------------------
# layer tables from the model config
# ---------------------------------------------------------------------------


def layer_shapes(cfg) -> tuple:
    """Expected shapes per model layer.

    Returns ``(convs, pools)``: ``convs`` maps ``"<branch>.<op>"`` to
    (weight shape, input shape without batch); ``pools`` maps
    (window, stride, input shape without batch) to the list of branches
    that pool with it.
    """
    convs, pools = {}, {}
    bc, d, t = cfg.branch_channels, cfg.embed_dim, cfg.n_times
    rows = []
    if cfg.use_branch1:
        rows.append(("branch1", 1, cfg.n_channels, cfg.time_kernel_raw,
                     cfg.pool_raw, cfg.raw_pool_stride()))
    if cfg.use_branch2_input1:
        rows.append(("branch2.view1", cfg.n_channels, cfg.n_freqs, cfg.time_kernel_tfr,
                     cfg.pool_tfr, cfg.tfr_pool_stride()))
    if cfg.use_branch2_input2:
        rows.append(("branch2.view2", cfg.n_freqs, cfg.n_channels, cfg.time_kernel_tfr,
                     cfg.pool_tfr, cfg.tfr_pool_stride()))
    for name, cin, spatial, k, pool, stride in rows:
        t1 = t - k + 1
        seq = (t1 - pool) // stride + 1
        convs[f"{name}.tc"] = ((bc, cin, 1, k), (cin, spatial, t))
        convs[f"{name}.sc"] = ((bc, 1, spatial, 1), (bc, spatial, t1))
        convs[f"{name}.pwc"] = ((d, bc, 1, 1), (bc, 1, seq))
        branch = name.split(".")[0]
        key = (pool, stride, (bc, 1, t1))
        if branch not in pools.setdefault(key, []):
            pools[key].append(branch)
    return convs, pools


# ---------------------------------------------------------------------------
# probes: per-call notes taken before a traced call; "_after" runs on its result
# ---------------------------------------------------------------------------


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _conv_macs(out_elems, w_shape):
    return out_elems * w_shape[1] * w_shape[2] * w_shape[3]


def _out_elems(n, cout, h, w, kh, kw, stride):
    return n * cout * ((h - kh) // stride[0] + 1) * ((w - kw) // stride[1] + 1)


def _probe_conv_fwd(tr, args, kwargs):
    x, w = args[0], args[1]
    stride = _arg(args, kwargs, 2, "stride")
    label = tr.conv_label(w, w.shape, x.shape)
    if label is not None:
        tr._inputs[id(x)] = (weakref.ref(x), label)
    n, _, h, wd = x.shape
    macs = _conv_macs(_out_elems(n, w.shape[0], h, wd, w.shape[2], w.shape[3], stride), w.shape)
    return {"layer": label, "pass": "fwd", "macs": macs}


def _probe_conv_bwd_input(tr, args, kwargs):
    gout, w, x_shape = args[0], args[1], args[2]
    return {"layer": tr.conv_label(w, w.shape, x_shape), "pass": "bwd_input",
            "macs": _conv_macs(gout.size, w.shape)}


def _probe_conv_bwd_kernel(tr, args, kwargs):
    gout, x, w_shape = args[0], args[1], args[2]
    entry = tr._inputs.get(id(x))
    label = entry[1] if entry is not None and entry[0]() is x else None
    if label is not None and tr.convs.get(label) != (tuple(w_shape), tuple(x.shape[1:])):
        label = None
    return {"layer": label, "pass": "bwd_kernel", "macs": _conv_macs(gout.size, w_shape)}


def _pool_label(tr, key):
    branches = tr.pools.get(key, ())
    return branches[0] if len(branches) == 1 else None


def _probe_pool_fwd(tr, args, kwargs):
    x, k, s = args[0], args[1], args[2]
    return {"layer": _pool_label(tr, (k, s, tuple(x.shape[1:]))), "pass": "fwd"}


def _probe_pool_bwd(tr, args, kwargs):
    gout, k, s, w_in = args[0], args[1], args[2], args[3]
    return {"layer": _pool_label(tr, (k, s, (gout.shape[1], gout.shape[2], w_in))),
            "pass": "bwd"}


def _memory_note(note):
    """Track the tracemalloc peak above the level at entry."""
    if tracemalloc.is_tracing():
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]

        def after(note, result):
            note["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base

        note["_after"] = after
    return note


def _probe_forward(tr, args, kwargs):
    tr.bind(args[0])
    tr._inputs = {}
    eeg, tfr = _arg(args, kwargs, 1, "eeg"), _arg(args, kwargs, 2, "tfr")
    n = len(eeg if eeg is not None else tfr)
    return _memory_note({"n": n, "train": bool(_arg(args, kwargs, 3, "train", False))})


def _probe_backward(tr, args, kwargs):
    return _memory_note({})


def _note_result(key, fn):
    def probe(tr, args, kwargs):
        def after(note, result):
            note[key] = fn(result)
        return {"_after": after}
    return probe


def _probe_train_loop(tr, args, kwargs):
    before = tr.tensors_created

    def after(note, result):
        note["tensors"] = tr.tensors_created - before

    return {"_after": after}


def _header_bytes(ndim):
    return 9 + 4 * ndim


def _probe_write_array(tr, args, kwargs):
    arr = np.asarray(_arg(args, kwargs, 1, "arr"))
    return {"bytes": _header_bytes(arr.ndim) + 4 * arr.size}


PROBES = {
    "kernels.conv2d_forward": _probe_conv_fwd,
    "kernels.conv2d_backward_input": _probe_conv_bwd_input,
    "kernels.conv2d_backward_kernel": _probe_conv_bwd_kernel,
    "kernels.avgpool_forward": _probe_pool_fwd,
    "kernels.avgpool_backward": _probe_pool_bwd,
    "model.forward": _probe_forward,
    "tensor.backward": _probe_backward,
    "train.train_loop": _probe_train_loop,
    "dataio.read_array": _note_result("bytes", lambda a: _header_bytes(a.ndim) + 4 * a.size),
    "dataio.write_array": _probe_write_array,
    "dataio.load_trialset": _note_result("n", len),
    "augment.augment_batch": _note_result("n", lambda r: len(r[2])),
    "train.evaluate": lambda tr, args, kwargs: {"n": len(_arg(args, kwargs, 1, "ts"))},
    "signal.zscore": lambda tr, args, kwargs: {"n": args[0].shape[0] if args[0].ndim >= 3 else 1},
}


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


class Tracer:
    """Installs span-recording wrappers on the package and removes them.

    ``spans[i]`` is ``[parent index or -1, name, start_ns, end_ns]``;
    ``notes[i]`` holds what the probe of span ``i`` recorded.
    """

    def __init__(self):
        self.spans = []
        self.notes = {}
        self.tensors_created = 0
        self.convs, self.pools = {}, {}
        self._stack = []
        self._patches = []
        self._weights = {}
        self._inputs = {}
        self._config = None

    # -- model binding ---------------------------------------------------------

    def bind(self, model) -> None:
        """Map the model's current conv weight arrays to layer names."""
        if model.config is not self._config:
            self._config = model.config
            self.convs, self.pools = layer_shapes(model.config)
        self._weights = {id(p.data): (p.data, name[: -len(".weight")])
                         for name, p in model.params.items()
                         if name[: -len(".weight")] in self.convs}

    def conv_label(self, w, w_shape, x_shape):
        entry = self._weights.get(id(w))
        if entry is None or entry[0] is not w:
            return None
        if self.convs[entry[1]] != (tuple(w_shape), tuple(x_shape[1:])):
            return None
        return entry[1]

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, fn, name):
        probe = PROBES.get(name)
        spans, stack, notes = self.spans, self._stack, self.notes
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [stack[-1] if stack else -1, name, 0, 0]
            spans.append(span)
            note = probe(tracer, args, kwargs) if probe is not None else None
            stack.append(sid)
            span[2] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                stack.pop()
            if note is not None:
                after = note.pop("_after", None)
                if after is not None:
                    after(note, result)
                notes[sid] = note
            return result

        return traced

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _targets(self) -> dict:
        """id -> (function, span name) for every traced module-level function."""
        found = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{obj.__name__}"
                    if name not in NOT_TRACED:
                        found.setdefault(id(obj), (obj, name))
        return found

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in targets.items()}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    self._patch(mod, attr, wrappers[id(obj)])

        cls = sys.modules[f"{PACKAGE}.model"].DualTsstModel
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(raw.__func__, f"model.{attr}")))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, f"model.{attr}"))

        tensor_cls = sys.modules[f"{PACKAGE}.tensor"].Tensor
        init = vars(tensor_cls)["__init__"]
        tracer = self

        @functools.wraps(init)
        def counted_init(t, *args, **kwargs):
            tracer.tensors_created += 1
            init(t, *args, **kwargs)

        self._patch(tensor_cls, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._weights, self._inputs = {}, {}

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reading spans ---------------------------------------------------------

    def kernel_calls(self) -> list:
        """Indices of calls into ``kernels`` from outside it."""
        spans = self.spans
        return [i for i, (parent, name, _, _) in enumerate(spans)
                if name.startswith("kernels.")
                and (parent < 0 or not spans[parent][1].startswith("kernels."))]

    def write_spans(self, path) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "fields": ["parent", "name", "start_ns", "end_ns"],
            "names": names,
            "spans": [[p, index[n], t0, t1] for p, n, t0, t1 in self.spans],
            "notes": {str(i): note for i, note in self.notes.items()},
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _per(value, base):
    return value / base if base else 0.0


def summarize(tr: Tracer) -> dict:
    """Per-layer metrics (name -> value) from one traced stretch.

    Timings are per trial passed: forward figures per trial forwarded,
    backward figures per trial back-propagated, transform figures per trial
    transformed, load figures per trial loaded.  Per-step counts take the
    calls made inside ``train.train_loop`` (its per-epoch test eval
    included) over its optimiser steps.  A metric whose layer did no work
    reads 0.
    """
    spans, notes = tr.spans, tr.notes
    ms = [(t1 - t0) / 1e6 for _, _, t0, t1 in spans]
    in_backward = [False] * len(spans)
    in_training = [False] * len(spans)
    # per span name: total ms, calls, and the trials ("n") or bytes its probe noted
    total, calls, amount = {}, {}, {}
    fwd_train = fwd_eval = 0
    loads_ms = 0.0
    for i, (parent, name, _, _) in enumerate(spans):
        in_backward[i] = name == "tensor.backward" or (parent >= 0 and in_backward[parent])
        in_training[i] = name == "train.train_loop" or (parent >= 0 and in_training[parent])
        total[name] = total.get(name, 0.0) + ms[i]
        calls[name] = calls.get(name, 0) + 1
        note = notes.get(i, {})
        amount[name] = amount.get(name, 0) + note.get("n", 0) + note.get("bytes", 0)
        if name == "model.forward":
            if note["train"]:
                fwd_train += note["n"]
            else:
                fwd_eval += note["n"]
        if name in ("dataio.load_dataset", "dataio.load_trialset") and (
                parent < 0 or spans[parent][1] not in ("dataio.load_dataset",)):
            loads_ms += ms[i]

    fwd_trials, bwd_trials = fwd_train + fwd_eval, fwd_train
    steps = calls.get("train.adam_step", 0)
    kernel = tr.kernel_calls()
    layer_ms, conv_ms, conv_macs = {}, 0.0, 0
    bwd_input_calls = discarded_calls = 0
    discarded_ms = kernel_in_backward_ms = 0.0
    for i in kernel:
        note = notes.get(i, {})
        key = (note.get("layer"), note.get("pass"))
        layer_ms[key] = layer_ms.get(key, 0.0) + ms[i]
        if in_backward[i]:
            kernel_in_backward_ms += ms[i]
        if spans[i][1].startswith("kernels.conv2d_"):
            conv_ms += ms[i]
            conv_macs += note.get("macs", 0)
            if note.get("pass") == "bwd_input":
                bwd_input_calls += 1
                # a branch's time conv reads the constant input data
                if (note.get("layer") or "").endswith(".tc"):
                    discarded_calls += 1
                    discarded_ms += ms[i]

    out = {}
    for b in BRANCHES:
        for op in CONV_OPS:
            for p in CONV_PASSES:
                base = fwd_trials if p == "fwd" else bwd_trials
                out[f"kernels.conv2d.{b}.{op}.{p}_ms_per_trial"] = _per(
                    layer_ms.get((f"{b}.{op}", p), 0.0), base)
    for b in POOL_BRANCHES:
        for p in ("fwd", "bwd"):
            base = fwd_trials if p == "fwd" else bwd_trials
            out[f"kernels.avgpool.{b}.{p}_ms_per_trial"] = _per(layer_ms.get((b, p), 0.0), base)
    out["kernels.conv2d.nominal_gmac_per_s"] = _per(conv_macs / 1e9, conv_ms / 1e3)
    out["kernels.calls_per_step"] = _per(sum(in_training[i] for i in kernel), steps)
    out["kernels.conv2d.discarded_input_grad_calls_per_step"] = _per(discarded_calls, steps)
    out["kernels.conv2d.discarded_input_grad_ms_per_trial"] = _per(discarded_ms, bwd_trials)
    out["kernels.conv2d.useful_input_grad_ratio"] = _per(
        bwd_input_calls - discarded_calls, bwd_input_calls)
    backward_ms = total.get("tensor.backward", 0.0)
    out["tensor.backward_ms_per_trial"] = _per(backward_ms, bwd_trials)
    out["tensor.backward.non_kernel_ms_per_trial"] = _per(
        backward_ms - kernel_in_backward_ms, bwd_trials)
    for op in TENSOR_OPS:
        out[f"tensor.{op}_ms_per_trial"] = _per(total.get(f"tensor.{op}", 0.0), fwd_trials)
    out["tensor.tensors_per_step"] = _per(
        sum(notes[i]["tensors"] for i, s in enumerate(spans) if s[1] == "train.train_loop"),
        steps)
    train_fwd_ms = sum(ms[i] for i, s in enumerate(spans)
                       if s[1] == "model.forward" and notes[i]["train"])
    out["model.forward_train_ms_per_trial"] = _per(train_fwd_ms, fwd_train)
    out["model.forward_eval_ms_per_trial"] = _per(
        total.get("model.forward", 0.0) - train_fwd_ms, fwd_eval)
    for piece in MODEL_PIECES:
        out[f"model.{piece}_ms_per_trial"] = _per(total.get(f"model.{piece}", 0.0), fwd_trials)
    out["model.save_ms"] = _per(total.get("model.save", 0.0), calls.get("model.save", 0))
    out["model.load_ms"] = _per(total.get("model.load", 0.0), calls.get("model.load", 0))
    out["augment.augment_batch_ms_per_trial"] = _per(
        total.get("augment.augment_batch", 0.0), amount.get("augment.augment_batch", 0))
    out["train.adam_step_ms_per_step"] = _per(total.get("train.adam_step", 0.0), steps)
    out["train.evaluate_ms_per_trial"] = _per(
        total.get("train.evaluate", 0.0), amount.get("train.evaluate", 0))
    out["signal.morlet_power_ms_per_trial"] = _per(
        total.get("signal.morlet_power", 0.0), calls.get("signal.morlet_power", 0))
    out["signal.bandpass_ms_per_trial"] = _per(
        total.get("signal.bandpass_array", 0.0), calls.get("signal.bandpass_array", 0))
    loaded = amount.get("dataio.load_trialset", 0)
    out["signal.zscore_ms_per_trial"] = _per(total.get("signal.zscore", 0.0), loaded)
    for verb, fn in (("read", "dataio.read_array"), ("write", "dataio.write_array")):
        nbytes = amount.get(fn, 0)
        out[f"dataio.{verb}_array_mib_per_s"] = _per(nbytes / MIB, total.get(fn, 0.0) / 1e3)
        out[f"dataio.bytes_{'read' if verb == 'read' else 'written'}"] = float(nbytes)
    out["dataio.load_dataset_ms_per_trial"] = _per(loads_ms, loaded)
    out["metrics.evaluate_predictions_ms"] = _per(
        total.get("metrics.evaluate_predictions", 0.0), calls.get("metrics.evaluate_predictions", 0))
    return out


def memory_peaks(tr: Tracer) -> dict:
    """The tracemalloc peaks inside ``model.forward`` and ``tensor.backward``
    over a stretch traced while tracemalloc was on; 0 where a call was not
    made."""
    peak = {"model.forward": 0, "tensor.backward": 0}
    for i, (_, name, _, _) in enumerate(tr.spans):
        if name in peak:
            peak[name] = max(peak[name], tr.notes.get(i, {}).get("peak_bytes", 0))
    return {"tensor.backward.peak_mib": peak["tensor.backward"] / MIB,
            "model.forward.peak_mib": peak["model.forward"] / MIB}


def unattributed_kernel_calls(tr: Tracer) -> int:
    return sum(1 for i in tr.kernel_calls() if tr.notes.get(i, {}).get("layer") is None)
