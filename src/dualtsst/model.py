"""The dual-branch temporal-spectral-spatial decoder.

One table, ``ModelConfig.branches``, declares the enabled CNN branches in
fusion order with their geometry; the ablations drop its rows.  Branch 1
consumes the raw EEG [N, 1, ch, T]; branch 2 consumes the time-frequency
power in two orientations, view 1 [N, ch, F, T] and view 2 [N, F, ch, T]
(a transposed view of the same array, not a copy).  Each branch runs

    time conv -> batch norm -> separable (depthwise) spatial or frequency
    conv -> batch norm -> ELU -> average pooling -> pointwise conv

and is reshaped to a [L_i, D] feature sequence.  The stem, time conv ->
batch norm -> depthwise conv, is one op (``tensor.time_conv_bn_depthwise``)
with the batch norm folded around the depthwise conv, so the normalised
time-conv output is never built.  All branch inputs are checked against
the table before any branch runs.  The branch outputs are concatenated
along the sequence axis, a learnable positional encoding is added, and a
post-norm transformer encoder plus a GAP/MLP head produce the class logits.

Inference, ``train=False`` with no graph recorded (under
``tensor.no_grad``, as in ``train.evaluate``), needs no time-conv output,
and the stem op runs as one ``kernels.conv2d_forward`` call that contracts
the depthwise kernel before the inverse rFFT.  Its logits agree with the
graph path's to about 1e-15 relative.

Attention scores are scaled by 1/sqrt(embed_dim), the full embedding
width, not the per-head width.  The scale is applied to the queries
before the score product, so no unscaled ``[N, heads, L, L]`` copy of the
scores is kept for backward.  The encoder MLP widens to
``ENCODER_MLP_RATIO`` times the embedding, and training mode zeroes no
activations: the forward pass draws no random numbers.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .dataio import ByteCursor, atomic_open, pack_record
from .errors import DataError
from .tensor import Tensor

CHECKPOINT_MAGIC = b"DTSS"
CHECKPOINT_VERSION = 2
# payload dtype per tensor, by the code that version 2 stores; version 1 is all float32
_PAYLOAD_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
ENCODER_MLP_RATIO = 2

# options that were removed, with the one value every run used; checkpoints
# and resolved configs written before their removal still carry them
RETIRED_MODEL_KEYS = {"encoder_mlp_ratio": 2, "dropout": 0.0, "per_head_scaling": False}


def drop_retired(values: dict, retired: dict, prefix: str) -> dict:
    """``values`` without the ``retired`` keys, each of which must hold its one
    value: a file that asks for another was made by behaviour that is gone."""
    for key, kept in retired.items():
        value = values.get(key, kept)
        if value != kept or isinstance(value, bool) != isinstance(kept, bool):
            raise DataError(f"{prefix}{key} is retired; only {json.dumps(kept)} is accepted, "
                            f"got {json.dumps(value)}")
    return {k: v for k, v in values.items() if k not in retired}


# one CNN branch: its input is [N, in_channels, spatial, n_times], and its
# depthwise conv spans the spatial (electrode or frequency) axis
Branch = namedtuple("Branch", "in_channels spatial time_kernel pool pool_stride")


def _seq_len(n_times: int, time_kernel: int, pool: int, stride: int) -> int:
    """Length of a branch's output: a valid time conv, then pooling."""
    return (n_times - time_kernel + 1 - pool) // stride + 1


@dataclass
class ModelConfig:
    """Architecture hyperparameters.  Defaults are the full-scale recipe;
    geometry fields (channels/times/freqs/classes) come from the dataset."""

    n_channels: int
    n_times: int
    n_freqs: int
    n_classes: int
    branch_channels: int = 40        # width after the time convolutions
    embed_dim: int = 120             # width after the pointwise convolutions
    time_kernel_raw: int = 30        # branch-1 time kernel
    time_kernel_tfr: int = 125       # branch-2 time kernel
    pool_raw: int = 120              # branch-1 pooling kernel
    pool_raw_stride: int = 0         # 0 -> pool_raw // 10
    pool_tfr: int = 64               # branch-2 pooling kernel
    pool_tfr_stride: int = 0         # 0 -> pool_tfr // 2
    encoder_layers: int = 4
    encoder_heads: int = 10
    classifier_hidden: int = 64
    use_branch1: bool = True
    use_branch2_input1: bool = True
    use_branch2_input2: bool = True
    use_transformer: bool = True

    # -- derived geometry ----------------------------------------------------

    def raw_pool_stride(self) -> int:
        if self.pool_raw_stride:
            return self.pool_raw_stride
        if self.pool_raw % 10:
            raise DataError(f"pool_raw={self.pool_raw} not divisible by 10; set pool_raw_stride")
        return self.pool_raw // 10

    def tfr_pool_stride(self) -> int:
        if self.pool_tfr_stride:
            return self.pool_tfr_stride
        if self.pool_tfr % 2:
            raise DataError(f"pool_tfr={self.pool_tfr} not divisible by 2; set pool_tfr_stride")
        return self.pool_tfr // 2

    def branches(self) -> dict[str, Branch]:
        """The enabled branches in fusion order, name -> geometry: the raw EEG,
        then the TFR with its channel (view 1) or frequency axis (view 2) first."""
        raw = (self.time_kernel_raw, self.pool_raw, self.raw_pool_stride)
        tfr = (self.time_kernel_tfr, self.pool_tfr, self.tfr_pool_stride)
        rows = (("branch1", self.use_branch1, 1, self.n_channels, raw),
                ("branch2.view1", self.use_branch2_input1, self.n_channels, self.n_freqs, tfr),
                ("branch2.view2", self.use_branch2_input2, self.n_freqs, self.n_channels, tfr))
        # a stride is derived only for an enabled branch: its pool may not divide
        return {name: Branch(cin, spatial, k, pool, stride())
                for name, on, cin, spatial, (k, pool, stride) in rows if on}

    def fused_len(self) -> int:
        return sum(_seq_len(self.n_times, b.time_kernel, b.pool, b.pool_stride)
                   for b in self.branches().values())

    def validate(self) -> None:
        positive = ("n_channels", "n_times", "n_freqs", "n_classes", "branch_channels",
                    "embed_dim", "classifier_hidden", "time_kernel_raw", "time_kernel_tfr",
                    "pool_raw", "pool_tfr")
        lows = {**dict.fromkeys(positive, 1), "pool_raw_stride": 0, "pool_tfr_stride": 0}
        for name, low in lows.items():
            if getattr(self, name) < low:
                raise DataError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not (self.use_branch1 or self.use_branch2_input1 or self.use_branch2_input2):
            raise DataError("all branches disabled; at least one input must remain")
        if self.use_transformer:
            for name in ("encoder_layers", "encoder_heads"):
                if getattr(self, name) < 1:
                    raise DataError(f"{name} must be >= 1 when the transformer is enabled")
            if self.embed_dim % self.encoder_heads:
                raise DataError(
                    f"embed_dim={self.embed_dim} not divisible by heads={self.encoder_heads}"
                )
        # a pool no longer than the conv output leaves at least one position
        for name, b in self.branches().items():
            if b.pool > self.n_times - b.time_kernel + 1:
                raise DataError(f"{name}: time kernel {b.time_kernel} and pool {b.pool} need "
                                f"n_times >= {b.time_kernel + b.pool - 1}, got {self.n_times}")


def config_from_preset(p) -> ModelConfig:
    """Build a ModelConfig from a DatasetPreset plus its model overrides."""
    kwargs = dict(
        n_channels=p.n_channels,
        n_times=p.n_times,
        n_freqs=len(p.freqs()),
        n_classes=p.n_classes,
    )
    kwargs.update(p.model_overrides)
    return ModelConfig(**kwargs)


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------


class DualTsstModel:
    """Parameter container plus forward pass.

    Parameters live in an ordered name -> Tensor registry (creation order,
    which is also the checkpoint order); batch-norm running statistics are
    plain arrays in ``buffers``.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None,
                 dtype=np.float64):
        config.validate()
        self.config = config
        self.dtype = np.dtype(dtype)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.params: dict[str, Tensor] = {}
        self.buffers: dict[str, np.ndarray] = {}

        c = config
        for name, b in c.branches().items():
            self._conv_param(f"{name}.tc", c.branch_channels, b.in_channels, 1, b.time_kernel)
            self._bn_param(f"{name}.bn1", c.branch_channels)
            self._conv_param(f"{name}.sc", c.branch_channels, 1, b.spatial, 1)  # depthwise
            self._bn_param(f"{name}.bn2", c.branch_channels)
            self._conv_param(f"{name}.pwc", c.embed_dim, c.branch_channels, 1, 1)
            self._param(f"{name}.pwc.bias", np.zeros(c.embed_dim))
        if c.use_transformer:
            self._param("pos_encoding",
                        self._rng.normal(0.0, 0.02, size=(c.fused_len(), c.embed_dim)))
            for i in range(c.encoder_layers):
                self._build_encoder_layer(f"encoder.{i}")
        self._linear_param("classifier.fc1", c.embed_dim, c.classifier_hidden)
        self._linear_param("classifier.fc2", c.classifier_hidden, c.n_classes)

    # -- construction helpers ------------------------------------------------

    def _param(self, name: str, array) -> Tensor:
        t = Tensor(np.asarray(array, dtype=self.dtype), requires_grad=True)
        self.params[name] = t
        return t

    def _uniform(self, shape, fan_in: int):
        bound = 1.0 / np.sqrt(fan_in)
        return self._rng.uniform(-bound, bound, size=shape)

    def _conv_param(self, name: str, cout: int, cin_g: int, kh: int, kw: int):
        self._param(name + ".weight", self._uniform((cout, cin_g, kh, kw), cin_g * kh * kw))

    def _linear_param(self, name: str, din: int, dout: int):
        self._param(name + ".weight", self._uniform((din, dout), din))
        self._param(name + ".bias", np.zeros(dout))

    def _bn_param(self, name: str, channels: int):
        self._param(name + ".gamma", np.ones(channels))
        self._param(name + ".beta", np.zeros(channels))
        self.buffers[name + ".running_mean"] = np.zeros(channels, dtype=self.dtype)
        self.buffers[name + ".running_var"] = np.ones(channels, dtype=self.dtype)

    def _build_encoder_layer(self, prefix: str):
        d = self.config.embed_dim
        hidden = d * ENCODER_MLP_RATIO
        for proj in ("q", "k", "v", "o"):
            self._linear_param(f"{prefix}.{proj}", d, d)
        self._param(f"{prefix}.ln1.gamma", np.ones(d))
        self._param(f"{prefix}.ln1.beta", np.zeros(d))
        self._linear_param(f"{prefix}.mlp1", d, hidden)
        self._linear_param(f"{prefix}.mlp2", hidden, d)
        self._param(f"{prefix}.ln2.gamma", np.ones(d))
        self._param(f"{prefix}.ln2.beta", np.zeros(d))

    # -- forward pieces --------------------------------------------------------

    def _bn_state(self, name: str) -> tuple:
        """gamma, beta, running mean and running variance of one batch norm."""
        return (self.params[name + ".gamma"], self.params[name + ".beta"],
                self.buffers[name + ".running_mean"], self.buffers[name + ".running_var"])

    def _checked(self, inputs: dict) -> dict[str, Tensor]:
        """The inputs among ``inputs`` (name -> array) of enabled branches, as
        tensors in fusion order, each checked against the branch table and
        all of one batch size."""
        c = self.config
        checked = {}
        for name, branch in c.branches().items():
            if name not in inputs:
                continue
            x = checked[name] = T.as_tensor(inputs[name])  # None reads as shape ()
            want = (branch.in_channels, branch.spatial, c.n_times)
            if x.shape[1:] != want:
                raise DataError(f"{name} input {tuple(x.shape)} is not "
                                f"(N, {', '.join(map(str, want))})")
        if len({x.shape[0] for x in checked.values()}) > 1:
            raise DataError("branch inputs disagree on batch size")
        return checked

    def _branch(self, prefix: str, x, train: bool):
        c = self.config
        branch = c.branches()[prefix]
        h = T.time_conv_bn_depthwise(x, self.params[f"{prefix}.tc.weight"],
                                     *self._bn_state(f"{prefix}.bn1"),
                                     self.params[f"{prefix}.sc.weight"], train)
        h = T.batch_norm(h, *self._bn_state(f"{prefix}.bn2"), train)
        h = T.elu(h)
        h = T.avg_pool2d(h, branch.pool, branch.pool_stride)
        h = T.conv2d(h, self.params[f"{prefix}.pwc.weight"])
        h = h + T.reshape(self.params[f"{prefix}.pwc.bias"], (1, c.embed_dim, 1, 1))
        n, d, _, seq = h.shape
        h = T.reshape(h, (n, d, seq))
        return T.transpose(h, (0, 2, 1))  # [N, L, D]

    def branch1_forward(self, eeg, train: bool = False) -> Tensor:
        """Raw-EEG branch: [N, 1, ch, T] -> [N, L1, D]."""
        return self._branch("branch1", self._checked({"branch1": eeg})["branch1"], train)

    def branch2_forward(self, tfr_view1, tfr_view2, train: bool = False):
        """Time-frequency branch on both orientations.

        ``tfr_view1`` is [N, ch, F, T]; ``tfr_view2`` must be the same data
        with channel and frequency axes swapped, [N, F, ch, T].  Both are
        checked before either runs.  Returns the enabled outputs, [N, L2, D].
        """
        views = self._checked({"branch2.view1": tfr_view1, "branch2.view2": tfr_view2})
        return tuple(self._branch(name, x, train) for name, x in views.items())

    def fuse(self, branch_outputs) -> Tensor:
        """Concatenate branch sequences along the sequence axis, in the fixed
        order (branch 1, branch-2 view 1, branch-2 view 2)."""
        if not branch_outputs:
            raise DataError("no branch outputs to fuse")
        return T.concat(branch_outputs, axis=-2)

    def encoder_forward(self, fused, attention_maps: list | None = None) -> Tensor:
        """Add the positional encoding, then run the post-norm encoder stack.

        When ``attention_maps`` is a list, each layer appends its attention
        weights [N, heads, L, L] for inspection.
        """
        c = self.config
        if not c.use_transformer:
            raise DataError("encoder_forward called with the transformer ablated")
        pos = self.params["pos_encoding"]
        if fused.shape[-2:] != pos.shape:
            raise DataError(
                f"fused sequence {tuple(fused.shape[-2:])} != positional encoding "
                f"{tuple(pos.shape)}"
            )
        x = fused + pos
        for i in range(c.encoder_layers):
            x = self._encoder_layer(f"encoder.{i}", x, attention_maps)
        return x

    def _encoder_layer(self, prefix: str, x, attention_maps: list | None = None):
        a = self._mha(prefix, x, attention_maps)
        x = T.layer_norm(x + a, self.params[f"{prefix}.ln1.gamma"],
                         self.params[f"{prefix}.ln1.beta"])
        m = T.linear(x, self.params[f"{prefix}.mlp1.weight"], self.params[f"{prefix}.mlp1.bias"])
        m = T.elu(m)
        m = T.linear(m, self.params[f"{prefix}.mlp2.weight"], self.params[f"{prefix}.mlp2.bias"])
        return T.layer_norm(x + m, self.params[f"{prefix}.ln2.gamma"],
                            self.params[f"{prefix}.ln2.beta"])

    def _mha(self, prefix: str, x, attention_maps: list | None = None):
        c = self.config
        n, seq, d = x.shape
        heads = c.encoder_heads
        head_dim = d // heads
        q = T.linear(x, self.params[f"{prefix}.q.weight"], self.params[f"{prefix}.q.bias"])
        k = T.linear(x, self.params[f"{prefix}.k.weight"], self.params[f"{prefix}.k.bias"])
        v = T.linear(x, self.params[f"{prefix}.v.weight"], self.params[f"{prefix}.v.bias"])

        def split(t):
            t = T.reshape(t, (n, seq, heads, head_dim))
            return T.transpose(t, (0, 2, 1, 3))  # [N, h, L, hd]

        q, k, v = split(q), split(k), split(v)
        scores = T.matmul(q * (1.0 / np.sqrt(d)), T.transpose(k, (0, 1, 3, 2)))
        attn = T.softmax(scores, axis=-1)
        if attention_maps is not None:
            attention_maps.append(attn.data)
        ctx = T.matmul(attn, v)  # [N, h, L, hd]
        ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (n, seq, d))
        return T.linear(ctx, self.params[f"{prefix}.o.weight"], self.params[f"{prefix}.o.bias"])

    def classify(self, encoded) -> Tensor:
        """GAP over the sequence axis, then the two-layer head; returns logits."""
        h = T.gap(encoded)
        h = T.linear(h, self.params["classifier.fc1.weight"], self.params["classifier.fc1.bias"])
        h = T.elu(h)
        return T.linear(h, self.params["classifier.fc2.weight"], self.params["classifier.fc2.bias"])

    def _batch(self, batch, kind: str, layout: str, ndim: int) -> np.ndarray:
        """An EEG or TFR batch in the model's dtype, checked to be ``layout``;
        a missing one reads as shape ()."""
        arr = np.asarray(batch, dtype=self.dtype)
        if arr.ndim != ndim:
            raise DataError(f"{kind} batch must be {layout}, got {arr.shape}")
        return arr

    def _encode(self, eeg, tfr, train: bool) -> Tensor:
        """Fused (and, unless ablated, encoded) feature sequence [N, L, D]."""
        names = self.config.branches()
        x = self._batch(eeg, "EEG", "[N, ch, T]", 3) if "branch1" in names else None
        t = self._batch(tfr, "TFR", "[N, ch, F, T]", 4) if names.keys() - {"branch1"} else None
        if x is not None and t is not None and len(t) != len(x):
            raise DataError(f"EEG batch of {len(x)} trials but TFR batch of {len(t)}")
        # every input is checked before any branch runs; view 2 is a transposed
        # view, not a copy: the time convs read it a chunk of trials at a time
        inputs = self._checked({"branch1": None if x is None else x[:, None, :, :],
                                "branch2.view1": t,
                                "branch2.view2": None if t is None else t.transpose(0, 2, 1, 3)})
        outs = [] if x is None else [self.branch1_forward(inputs["branch1"], train=train)]
        if t is not None:
            outs.extend(self.branch2_forward(inputs.get("branch2.view1"),
                                             inputs.get("branch2.view2"), train=train))
        fused = self.fuse(outs)
        if self.config.use_transformer:
            fused = self.encoder_forward(fused)
        return fused

    def pooled_features(self, eeg, tfr, train: bool = False) -> Tensor:
        """Pre-classifier features [N, D]: the encoded sequence after GAP."""
        return T.gap(self._encode(eeg, tfr, train))

    def forward(self, eeg, tfr, train: bool = False) -> Tensor:
        """Full pass from input views to logits [N, n_classes]."""
        return self.classify(self._encode(eeg, tfr, train))

    # -- bookkeeping -----------------------------------------------------------

    def param_count(self) -> int:
        """Number of trainable scalars (buffers excluded)."""
        return sum(p.data.size for p in self.params.values())

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    # -- checkpointing -----------------------------------------------------------

    def save(self, path) -> None:
        """Checkpoint (version 2): magic, version, config JSON, then named tensors
        (parameters first, then buffers) in registry order, each stored in the
        model's dtype behind a one-byte dtype code, so a reload is bit-identical.
        It is written beside ``path`` and renamed over it: a failed save leaves
        the file already at ``path`` as it was."""
        code = next((c for c, dt in _PAYLOAD_DTYPES.items() if dt == self.dtype), None)
        if code is None:
            raise ValueError(f"cannot checkpoint a {self.dtype} model")
        cfg = json.dumps(dataclasses.asdict(self.config)).encode()
        entries = [(n, p.data) for n, p in self.params.items()]
        entries += [(n, b) for n, b in self.buffers.items()]
        with atomic_open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(cfg)) + cfg)
            fh.write(struct.pack("<I", len(entries)))
            for name, arr in entries:
                nb = name.encode()
                fh.write(struct.pack("<I", len(nb)) + nb + struct.pack("<B", code))
                fh.write(pack_record(arr, _PAYLOAD_DTYPES[code]))

    @classmethod
    def load(cls, path) -> "DualTsstModel":
        """Read a version 1 (all float32) or version 2 checkpoint.  A version 2
        model comes back in the dtype its tensors are stored in, a version 1
        model as float64.  A truncated or garbled file, one whose tensors mix
        dtype codes, one made for another configuration, or one whose config
        sets a retired option to anything but its one value
        (``RETIRED_MODEL_KEYS``) raises DataError."""
        path = Path(path)
        rd = ByteCursor(path.read_bytes(), path)
        magic = rd.take(4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: bad checkpoint magic {magic!r}")
        version, cfg_len = rd.unpack("<II", "header")
        if version not in (1, 2):
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        cfg_bytes = rd.take(cfg_len, "model config")
        try:
            raw = json.loads(cfg_bytes.decode())
            if not isinstance(raw, dict):
                raise DataError(f"{path}: model config is not a JSON object")
            cfg = ModelConfig(**drop_retired(raw, RETIRED_MODEL_KEYS, f"{path}: "))
            # float64 until every tensor, and so the stored dtype, has been read
            model = cls(cfg, rng=np.random.default_rng(0))
        except (ValueError, TypeError) as exc:
            raise DataError(f"{path}: bad model config ({exc})") from exc
        (n_entries,) = rd.unpack("<I", "tensor count")
        arrays, codes = {}, set()
        for _ in range(n_entries):
            (name_len,) = rd.unpack("<I", "tensor name length")
            try:
                name = rd.take(name_len, "tensor name").decode()
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}: garbled tensor name ({exc})") from exc
            code = rd.unpack("<B", f"{name} dtype code")[0] if version == 2 else 1
            if code not in _PAYLOAD_DTYPES:
                raise DataError(f"{path}: {name} has unknown dtype code {code}")
            if name in model.params:
                target = model.params[name].data
            elif name in model.buffers:
                target = model.buffers[name]
            else:
                raise DataError(f"{path}: unknown tensor {name!r} for this configuration")
            if name in arrays:
                raise DataError(f"{path}: tensor {name!r} stored twice")
            arr = arrays[name] = rd.record(_PAYLOAD_DTYPES[code], name)
            if target.shape != arr.shape:
                raise DataError(f"{path}: {name} has shape {arr.shape}, expected {target.shape}")
            codes.add(code)
        rd.finish()
        missing = (set(model.params) | set(model.buffers)) - set(arrays)
        if missing:
            raise DataError(f"{path}: checkpoint is missing tensors: {sorted(missing)}")
        if len(codes) > 1:
            raise DataError(f"{path}: tensors mix dtype codes {sorted(codes)}")
        model.dtype = _PAYLOAD_DTYPES[codes.pop()] if version == 2 else np.dtype(np.float64)
        for name, arr in arrays.items():
            if name in model.params:
                model.params[name].data = arr.astype(model.dtype)
            else:
                model.buffers[name] = arr.astype(model.dtype)
        return model
