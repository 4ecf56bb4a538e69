import dataclasses
import hashlib
import json
import struct

import numpy as np
import pytest

from dualtsst import dataio, tensor as T
from dualtsst.errors import DataError
from dualtsst.gradcheck import check_gradients
from dualtsst import model as model_module
from dualtsst.model import (ENCODER_MLP_RATIO, RETIRED_MODEL_KEYS, DualTsstModel, ModelConfig,
                            config_from_preset)


def mini_config(**overrides) -> ModelConfig:
    cfg = config_from_preset(dataio.preset("mini"))
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def mini_model(seed=0, **overrides):
    return DualTsstModel(mini_config(**overrides), rng=np.random.default_rng(seed))


def mini_inputs(rng, n=2, cfg=None):
    cfg = cfg or mini_config()
    eeg = rng.normal(size=(n, cfg.n_channels, cfg.n_times))
    tfr = rng.normal(size=(n, cfg.n_channels, cfg.n_freqs, cfg.n_times))
    return eeg, tfr


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


def branch_lengths(cfg):
    """Sequence length of each enabled branch: the fused length with it alone on."""
    alone = {"branch1": "use_branch1", "branch2.view1": "use_branch2_input1",
             "branch2.view2": "use_branch2_input2"}
    return {name: dataclasses.replace(cfg, **{flag: flag == alone[name]
                                              for flag in alone.values()}).fused_len()
            for name in cfg.branches()}


def test_sequence_length_formulas():
    cfg2a = ModelConfig(n_channels=22, n_times=1000, n_freqs=40, n_classes=4)
    assert branch_lengths(cfg2a) == {"branch1": 71, "branch2.view1": 26, "branch2.view2": 26}
    assert cfg2a.fused_len() == 123

    cfg2b = ModelConfig(n_channels=3, n_times=1125, n_freqs=40, n_classes=2)
    assert branch_lengths(cfg2b) == {"branch1": 82, "branch2.view1": 30, "branch2.view2": 30}
    assert cfg2b.fused_len() == 142


def test_mini_forward_shapes(rng):
    model = mini_model()
    cfg = model.config
    eeg, tfr = mini_inputs(rng)
    b1 = model.branch1_forward(eeg[:, None, :, :])
    assert b1.shape == (2, 11, 8)
    v1 = tfr
    v2 = tfr.transpose(0, 2, 1, 3)
    o1, o2 = model.branch2_forward(v1, v2)
    assert o1.shape == (2, 13, 8) and o2.shape == (2, 13, 8)
    fused = model.fuse([b1, o1, o2])
    assert fused.shape == (2, 37, 8)
    logits = model.forward(eeg, tfr)
    assert logits.shape == (2, cfg.n_classes)
    assert np.all(np.isfinite(logits.data))


def test_branch_input_validation(rng):
    model = mini_model()
    with pytest.raises(DataError):
        model.branch1_forward(rng.normal(size=(1, 1, 5, 64)))  # wrong channel count
    with pytest.raises(DataError):
        model.branch2_forward(rng.normal(size=(1, 4, 6, 64)),
                              rng.normal(size=(1, 4, 6, 64)))  # view 2 not transposed


@pytest.mark.parametrize("train", [False, True])
def test_eeg_and_tfr_batches_of_different_sizes_are_a_data_error(rng, monkeypatch, train):
    model = mini_model()
    eeg, _ = mini_inputs(rng, n=3)
    _, tfr = mini_inputs(rng, n=4)
    ran = []
    monkeypatch.setattr(model, "branch1_forward", lambda *a, **k: ran.append("branch 1"))
    monkeypatch.setattr(model, "branch2_forward", lambda *a, **k: ran.append("branch 2"))
    with pytest.raises(DataError, match="^EEG batch of 3 trials but TFR batch of 4$"):
        model.forward(eeg, tfr, train=train)
    assert ran == []


@pytest.mark.parametrize("bad", ["tfr-extra-freq", "tfr-extra-sample", "view2-only",
                                 "views-batch-sizes"])
def test_a_rejected_train_batch_changes_no_running_statistic(rng, bad):
    model = mini_model()
    cfg = model.config
    eeg, tfr = mini_inputs(rng, n=3)
    before = {name: buf.copy() for name, buf in model.buffers.items()}
    with pytest.raises(DataError):
        if bad == "tfr-extra-freq":
            model.forward(eeg, np.concatenate([tfr, tfr[:, :, :1]], axis=2), train=True)
        elif bad == "tfr-extra-sample":
            model.forward(eeg, np.concatenate([tfr, tfr[..., :1]], axis=3), train=True)
        elif bad == "view2-only":
            model.branch2_forward(tfr, np.zeros((3, cfg.n_freqs + 1, cfg.n_channels,
                                                 cfg.n_times)), train=True)
        else:
            model.branch2_forward(tfr, tfr[:2].transpose(0, 2, 1, 3), train=True)
    assert all(np.array_equal(buf, model.buffers[name]) for name, buf in before.items())


def test_config_validation_errors():
    with pytest.raises(DataError):
        ModelConfig(n_channels=4, n_times=64, n_freqs=6, n_classes=2,
                    embed_dim=8, encoder_heads=3).validate()
    with pytest.raises(DataError):
        ModelConfig(n_channels=4, n_times=16, n_freqs=6, n_classes=2,
                    time_kernel_raw=30).validate()
    with pytest.raises(DataError):
        ModelConfig(n_channels=4, n_times=64, n_freqs=6, n_classes=2,
                    use_branch1=False, use_branch2_input1=False,
                    use_branch2_input2=False).validate()
    for field in ("encoder_layers", "encoder_heads"):
        with pytest.raises(DataError, match=field):
            mini_config(**{field: 0}).validate()


@pytest.mark.parametrize("field,value", [
    ("time_kernel_raw", 0), ("time_kernel_tfr", 0), ("pool_raw", 0), ("pool_tfr", 0),
    ("time_kernel_raw", -3), ("pool_tfr", -1), ("pool_raw_stride", -1), ("pool_tfr_stride", -2),
])
def test_kernels_and_pools_below_their_minimum_are_data_errors(field, value):
    with pytest.raises(DataError, match=f"^{field} must be >= "):
        mini_config(**{field: value}).validate()


def test_default_pool_strides():
    cfg = ModelConfig(n_channels=22, n_times=1000, n_freqs=40, n_classes=4)
    cfg.validate()  # a stride of 0 is valid: it means "derive it"
    assert cfg.raw_pool_stride() == 12
    assert cfg.tfr_pool_stride() == 32


# ---------------------------------------------------------------------------
# memory footprint of the training graph
# ---------------------------------------------------------------------------


def _graph(loss):
    """Every tensor reachable from ``loss`` through ``_parents``."""
    seen, stack = {}, [loss]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t._parents)
    return list(seen.values())


def _graph_arrays(loss):
    """Every distinct array reachable from ``loss``: the tensors of the graph
    and the arrays their ops' backward closures hold."""
    arrays = {}
    for t in _graph(loss):
        held = [t.data]
        for cell in getattr(t._vjp, "__closure__", None) or ():
            v = cell.cell_contents
            held.append(v.data if isinstance(v, T.Tensor) else v)
        arrays.update((id(a), a) for a in held if isinstance(a, np.ndarray))
    return list(arrays.values())


def test_each_branch_holds_one_time_conv_sized_tensor(rng):
    # batch norm 1 is folded around the depthwise conv, so the normalised
    # [N, bc, H, W-k+1] activation is never kept next to the time conv
    # output it came from
    model = mini_model()
    cfg = model.config
    n, bc = 3, cfg.branch_channels
    eeg, tfr = mini_inputs(rng, n=n)
    loss = T.cross_entropy(model.forward(eeg, tfr, train=True), np.arange(n) % cfg.n_classes)
    t_raw = cfg.n_times - cfg.time_kernel_raw + 1
    t_tfr = cfg.n_times - cfg.time_kernel_tfr + 1
    expected = {(n, bc, cfg.n_channels, t_raw): 1, (n, bc, cfg.n_freqs, t_tfr): 1,
                (n, bc, cfg.n_channels, t_tfr): 1}
    assert len(expected) == 3  # the three branch shapes differ at mini
    shapes = [a.shape for a in _graph_arrays(loss)]
    assert {s: shapes.count(s) for s in expected} == expected


def test_each_encoder_layer_holds_two_attention_sized_tensors(rng):
    # the queries are scaled before the score product, so the graph keeps the
    # scores and their softmax, not also an unscaled copy of the scores
    model = mini_model()
    cfg = model.config
    n, L = 3, cfg.fused_len()
    eeg, tfr = mini_inputs(rng, n=n)
    loss = T.cross_entropy(model.forward(eeg, tfr, train=True), np.arange(n) % cfg.n_classes)
    attention_sized = (n, cfg.encoder_heads, L, L)
    assert cfg.embed_dim // cfg.encoder_heads != L  # no other graph node has this shape
    shapes = [t.shape for t in _graph(loss)]
    assert shapes.count(attention_sized) == 2 * cfg.encoder_layers


def test_attention_maps_are_the_softmax_of_the_scaled_scores(rng, monkeypatch):
    model = mini_model()
    cfg = model.config
    d, heads = cfg.embed_dim, cfg.encoder_heads
    layer_inputs = []
    mha = model._mha
    monkeypatch.setattr(model, "_mha", lambda prefix, x, maps=None: (
        layer_inputs.append(x.data), mha(prefix, x, maps))[1])
    x = T.Tensor(rng.normal(size=(2, cfg.fused_len(), d)))
    maps = []
    model.encoder_forward(x, attention_maps=maps)
    assert len(maps) == len(layer_inputs) == cfg.encoder_layers
    for i, (h, got) in enumerate(zip(layer_inputs, maps)):
        def heads_of(name):
            p = model.params
            t = h @ p[f"encoder.{i}.{name}.weight"].data + p[f"encoder.{i}.{name}.bias"].data
            return t.reshape(*h.shape[:2], heads, d // heads).transpose(0, 2, 1, 3)
        scores = heads_of("q") @ heads_of("k").transpose(0, 1, 3, 2) / np.sqrt(d)
        want = np.exp(scores - scores.max(axis=-1, keepdims=True))
        want /= want.sum(axis=-1, keepdims=True)
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= 1e-12, f"layer {i}: max relative error {err:.3e}"


@pytest.mark.parametrize("time_kernel_tfr", [9, 17])  # mini's and a longer time kernel
@pytest.mark.parametrize("train", [False, True])
def test_transposed_view_2_matches_a_contiguous_copy(rng, time_kernel_tfr, train):
    eeg, tfr = mini_inputs(rng, n=3)
    viewed = mini_model(time_kernel_tfr=time_kernel_tfr)
    got = viewed.forward(eeg, tfr, train=train)  # passes view 2 as a transposed view

    copied = mini_model(time_kernel_tfr=time_kernel_tfr)
    view2 = np.ascontiguousarray(tfr.transpose(0, 2, 1, 3))
    fused = copied.fuse([copied.branch1_forward(eeg[:, None, :, :], train=train),
                         *copied.branch2_forward(tfr, view2, train=train)])
    want = copied.classify(copied.encoder_forward(fused))
    pairs = [("logits", got.data, want.data)]
    if train:
        labels = np.array([0, 1, 1])
        T.backward(T.cross_entropy(got, labels))
        T.backward(T.cross_entropy(want, labels))
        pairs += [(name, p.grad, copied.params[name].grad) for name, p in viewed.params.items()]
    for name, a, b in pairs:
        err = np.max(np.abs(a - b)) / np.max(np.abs(b))
        assert err <= 1e-12, f"{name}: max relative error {err:.3e}"


# ---------------------------------------------------------------------------
# inference: the depthwise conv inside the time conv
# ---------------------------------------------------------------------------

ABLATIONS = [
    pytest.param({}, id="full"),
    pytest.param({"use_branch1": False}, id="no-branch1"),
    pytest.param({"use_branch2_input1": False}, id="no-view1"),
    pytest.param({"use_branch2_input2": False}, id="no-view2"),
    pytest.param({"use_branch2_input1": False, "use_branch2_input2": False}, id="branch1-only"),
    pytest.param({"use_branch1": False, "use_branch2_input2": False}, id="view1-only"),
    pytest.param({"use_branch1": False, "use_branch2_input1": False}, id="view2-only"),
    pytest.param({"use_transformer": False}, id="no-transformer"),
]


def rfft_config(**overrides) -> ModelConfig:
    """A small model whose time kernels are longer than mini's."""
    cfg = ModelConfig(n_channels=3, n_times=48, n_freqs=4, n_classes=3,
                      branch_channels=5, embed_dim=8, time_kernel_raw=16, time_kernel_tfr=21,
                      pool_raw=10, pool_raw_stride=4, pool_tfr=8, pool_tfr_stride=4,
                      encoder_layers=2, encoder_heads=2, classifier_hidden=6)
    return dataclasses.replace(cfg, **overrides)


def stirred_model(cfg) -> DualTsstModel:
    """A model whose batch norms hold running statistics far from 0 and 1."""
    model = DualTsstModel(cfg, rng=np.random.default_rng(3))
    rng = np.random.default_rng(4)
    for name, buf in model.buffers.items():
        buf[...] = (rng.uniform(0.2, 3.0, buf.shape) if name.endswith("running_var")
                    else rng.normal(0.0, 2.0, buf.shape))
    for name, p in model.params.items():
        if ".bn" in name:
            p.data = p.data + rng.normal(0.0, 0.5, p.data.shape)
    return model


def graph_and_inference_logits(model, rng, n=3):
    eeg, tfr = mini_inputs(rng, n=n, cfg=model.config)
    graph = model.forward(eeg, tfr, train=False)  # records a graph: the unfused ops
    assert graph.requires_grad
    with T.no_grad():
        inference = model.forward(eeg, tfr, train=False)
    return graph.data, inference.data


def assert_inference_matches_the_graph(model, rng):
    graph, inference = graph_and_inference_logits(model, rng)
    err = np.max(np.abs(inference - graph)) / np.max(np.abs(graph))
    assert err <= 1e-10, f"max relative error {err:.3e}"


@pytest.mark.parametrize("make_config, ablation", [
    *(pytest.param(rfft_config, *a.values, id=a.id) for a in ABLATIONS),
    *(pytest.param(mini_config, *a.values, id=f"mini-{a.id}") for a in ABLATIONS)])
def test_inference_logits_match_the_graph_logits(rng, make_config, ablation):
    assert_inference_matches_the_graph(stirred_model(make_config(**ablation)), rng)


def test_one_tap_stems_run_in_inference_and_pass_gradcheck(rng):
    """With 1-tap time kernels every stem's time conv is pointwise: the
    inference call composes it with the depthwise conv."""
    model = stirred_model(mini_config(time_kernel_raw=1, time_kernel_tfr=1))
    assert_inference_matches_the_graph(model, rng)
    eeg, tfr = mini_inputs(rng, n=3)
    result = check_gradients(
        lambda: T.cross_entropy(model.forward(eeg, tfr, train=True), np.array([0, 1, 1])),
        model.params)
    assert result.ok(1e-3), f"{result.worst_param}: {result.max_rel_error:.3e}"


def test_evaluate_makes_no_depthwise_conv_call(monkeypatch):
    from dualtsst import kernels, train

    model = stirred_model(rfft_config())
    cfg = model.config
    calls = []
    forward = kernels.conv2d_forward

    def spy(x, w, stride, **kwargs):
        calls.append((w.shape, kwargs.get("depthwise")))
        return forward(x, w, stride, **kwargs)

    monkeypatch.setattr(kernels, "conv2d_forward", spy)
    eeg, tfr = mini_inputs(np.random.default_rng(5), n=5, cfg=cfg)
    ts = dataio.TrialSet(eeg=eeg, labels=np.arange(5) % cfg.n_classes, fs=128.0, tfr=tfr,
                         class_names=["a", "b", "c"])
    train.evaluate(model, ts, batch_size=3)
    time_convs = [(cfg.branch_channels, cin, 1, k) for cin, k in (
        (1, cfg.time_kernel_raw), (cfg.n_channels, cfg.time_kernel_tfr),
        (cfg.n_freqs, cfg.time_kernel_tfr))]
    assert calls, "evaluate made no conv call"
    assert not [s for s, _ in calls if s[1] == 1 and s[3] == 1 and s[2] > 1], calls
    fused = [s for s, d in calls if d is not None]
    assert sorted(fused) == sorted(time_convs * 2)  # two batches, three branches each


def test_kernel_spectra_kept_between_calls_change_no_bit(monkeypatch):
    """``evaluate`` twice, and again with no kernel spectra kept, gives equal
    logits; a train step's gradients and running statistics are the same
    bits whether the spectra are already kept or not."""
    from dualtsst import kernels, train

    model = stirred_model(rfft_config())
    cfg = model.config
    eeg, tfr = mini_inputs(np.random.default_rng(6), n=5, cfg=cfg)
    ts = dataio.TrialSet(eeg=eeg, labels=np.arange(5) % cfg.n_classes, fs=128.0, tfr=tfr,
                         class_names=["a", "b", "c"])
    logits = []
    forward = model.forward

    def spy(*args, **kwargs):
        out = forward(*args, **kwargs)
        logits.append(out.data.copy())
        return out

    monkeypatch.setattr(model, "forward", spy)
    runs = []
    for clear in (True, False, True):
        if clear:
            kernels._KERNEL_SPECTRA.clear()
        logits.clear()
        train.evaluate(model, ts, batch_size=3)
        runs.append(np.concatenate(logits))
    assert np.array_equal(runs[0], runs[1]) and np.array_equal(runs[0], runs[2])
    monkeypatch.undo()

    buffers = {name: buf.copy() for name, buf in model.buffers.items()}

    def step():
        for name, buf in model.buffers.items():
            buf[...] = buffers[name]
        model.zero_grad()
        T.cross_entropy(model.forward(eeg, tfr, train=True), ts.labels).backward()
        return ({name: p.grad.copy() for name, p in model.params.items()},
                {name: buf.copy() for name, buf in model.buffers.items()})

    kernels._KERNEL_SPECTRA.clear()
    cold = step()
    assert kernels._KERNEL_SPECTRA  # the step kept its time kernels' spectra
    warm = step()
    for kind, a, b in (("gradient", cold[0], warm[0]), ("buffer", cold[1], warm[1])):
        assert a.keys() == b.keys()
        for name in a:
            assert a[name].tobytes() == b[name].tobytes(), f"{kind} {name}"


# ---------------------------------------------------------------------------
# encoder behaviour
# ---------------------------------------------------------------------------


def test_encoder_single_position(rng):
    model = mini_model()
    # shrink to a length-1 sequence by slicing the positional encoding
    d = model.config.embed_dim
    model.params["pos_encoding"].data = model.params["pos_encoding"].data[:1]
    x = T.Tensor(rng.normal(size=(1, 1, d)))
    out = model.encoder_forward(x)
    assert out.shape == (1, 1, d)
    assert np.all(np.isfinite(out.data))


def test_encoder_uniform_attention_on_equal_rows(rng):
    model = mini_model()
    cfg = model.config
    L, d = cfg.fused_len(), cfg.embed_dim
    model.params["pos_encoding"].data = np.zeros((L, d))
    row = rng.normal(size=d)
    x = T.Tensor(np.tile(row, (1, L, 1)))
    maps = []
    out = model.encoder_forward(x, attention_maps=maps)
    assert len(maps) == cfg.encoder_layers
    np.testing.assert_allclose(maps[0], 1.0 / L, atol=1e-12)
    # identical rows stay identical through the stack
    np.testing.assert_allclose(
        out.data, np.broadcast_to(out.data[:, :1, :], out.data.shape), atol=1e-10
    )


def test_attention_rows_sum_to_one(rng):
    model = mini_model()
    eeg, tfr = mini_inputs(rng)
    maps = []
    fused = model.fuse([
        model.branch1_forward(eeg[:, None, :, :]),
        *model.branch2_forward(tfr, tfr.transpose(0, 2, 1, 3)),
    ])
    model.encoder_forward(fused, attention_maps=maps)
    for attn in maps:
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-10)


def test_encoder_permutation_equivariance(rng):
    model = mini_model()
    cfg = model.config
    L, d = cfg.fused_len(), cfg.embed_dim
    x = rng.normal(size=(1, L, d))
    base = model.encoder_forward(T.Tensor(x)).data

    perm = rng.permutation(L)
    pos = model.params["pos_encoding"].data.copy()
    model.params["pos_encoding"].data = pos[perm]
    permuted = model.encoder_forward(T.Tensor(x[:, perm, :])).data
    np.testing.assert_allclose(permuted, base[:, perm, :], atol=1e-10)


def test_encoder_preserves_shape_for_any_length(rng):
    model = mini_model()
    d = model.config.embed_dim
    for L in (1, 5, 37):
        model.params["pos_encoding"].data = np.zeros((L, d))
        out = model.encoder_forward(T.Tensor(rng.normal(size=(2, L, d))))
        assert out.shape == (2, L, d)


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------


def test_classify_zero_weights_gives_uniform(rng):
    model = mini_model()
    for name in ("classifier.fc1.weight", "classifier.fc1.bias",
                 "classifier.fc2.weight", "classifier.fc2.bias"):
        model.params[name].data = np.zeros_like(model.params[name].data)
    eeg, tfr = mini_inputs(rng)
    logits = model.forward(eeg, tfr)
    np.testing.assert_array_equal(logits.data, 0.0)
    probs = T.softmax(logits, axis=-1).data
    np.testing.assert_allclose(probs, 0.5, atol=1e-15)


def test_classify_single_row_gap_identity(rng):
    model = mini_model()
    d = model.config.embed_dim
    row = rng.normal(size=(1, 1, d))
    out = model.classify(T.Tensor(row))
    # recompute by hand: GAP of one row is the row itself
    z = row[0, 0] @ model.params["classifier.fc1.weight"].data + \
        model.params["classifier.fc1.bias"].data
    z = np.where(z > 0, z, np.expm1(z))
    expected = z @ model.params["classifier.fc2.weight"].data + \
        model.params["classifier.fc2.bias"].data
    np.testing.assert_allclose(out.data[0], expected, rtol=1e-12)


def test_argmax_consistency(rng):
    model = mini_model()
    eeg, tfr = mini_inputs(rng, n=5)
    logits = model.forward(eeg, tfr)
    probs = T.softmax(logits, axis=-1)
    np.testing.assert_array_equal(np.argmax(logits.data, axis=1),
                                  np.argmax(probs.data, axis=1))


# ---------------------------------------------------------------------------
# parameter counting
# ---------------------------------------------------------------------------


def closed_form_param_count(cfg: ModelConfig) -> int:
    def conv(cout, cin_g, kh, kw, bias=False):
        return cout * cin_g * kh * kw + (cout if bias else 0)

    def lin(i, o):
        return i * o + o

    def branch(in_ch, spatial):
        total = conv(cfg.branch_channels, in_ch, 1,
                     cfg.time_kernel_raw if in_ch == 1 else cfg.time_kernel_tfr)
        total += 2 * cfg.branch_channels  # bn1
        total += conv(cfg.branch_channels, 1, spatial, 1)
        total += 2 * cfg.branch_channels  # bn2
        total += conv(cfg.embed_dim, cfg.branch_channels, 1, 1, bias=True)
        return total

    total = 0
    if cfg.use_branch1:
        total += branch(1, cfg.n_channels)
    if cfg.use_branch2_input1:
        total += branch(cfg.n_channels, cfg.n_freqs)
    if cfg.use_branch2_input2:
        total += branch(cfg.n_freqs, cfg.n_channels)
    if cfg.use_transformer:
        d = cfg.embed_dim
        total += cfg.fused_len() * d  # positional encoding
        per_layer = 4 * lin(d, d) + 2 * d + lin(d, ENCODER_MLP_RATIO * d) \
            + lin(ENCODER_MLP_RATIO * d, d) + 2 * d
        total += cfg.encoder_layers * per_layer
    total += lin(cfg.embed_dim, cfg.classifier_hidden)
    total += lin(cfg.classifier_hidden, cfg.n_classes)
    return total


def test_param_count_matches_closed_form():
    cfg = mini_config()
    model = DualTsstModel(cfg)
    assert model.param_count() == closed_form_param_count(cfg)


def test_param_count_linear_layer_example():
    # a 2->3 linear layer with bias contributes exactly 9 scalars
    a = closed_form_param_count(mini_config(classifier_hidden=3))
    model = DualTsstModel(mini_config(classifier_hidden=3))
    assert model.param_count() == a
    fc1 = model.params["classifier.fc1.weight"].data.size + \
        model.params["classifier.fc1.bias"].data.size
    assert fc1 == 8 * 3 + 3


def test_param_count_layers_additive():
    two = DualTsstModel(mini_config(encoder_layers=2)).param_count()
    four = DualTsstModel(mini_config(encoder_layers=4)).param_count()
    d = 8
    per_layer = 4 * (d * d + d) + 2 * d + (d * 2 * d + 2 * d) + (2 * d * d + d) + 2 * d
    assert four - two == 2 * per_layer


# ---------------------------------------------------------------------------
# ablations
# ---------------------------------------------------------------------------


def test_no_transformer_path(rng):
    model = mini_model(use_transformer=False)
    assert "pos_encoding" not in model.params
    eeg, tfr = mini_inputs(rng)
    logits = model.forward(eeg, tfr)
    assert logits.shape == (2, 2)
    assert np.all(np.isfinite(logits.data))


def test_ablation_lengths_full_scale():
    base = dict(n_channels=22, n_times=1000, n_freqs=40, n_classes=4)
    only_b1 = ModelConfig(use_branch2_input1=False, use_branch2_input2=False, **base)
    assert only_b1.fused_len() == 71
    one_view = ModelConfig(use_branch1=False, use_branch2_input2=False, **base)
    assert one_view.fused_len() == 26


@pytest.mark.parametrize("make_config", [mini_config, rfft_config], ids=["mini", "rfft"])
@pytest.mark.parametrize("ablation", ABLATIONS)
def test_fused_len_is_the_sum_of_the_branch_output_lengths(rng, make_config, ablation):
    model = DualTsstModel(make_config(**ablation))
    eeg, tfr = mini_inputs(rng, cfg=model.config)
    names = model.config.branches()
    outs = [model.branch1_forward(eeg[:, None, :, :])] if "branch1" in names else []
    outs += model.branch2_forward(tfr, tfr.transpose(0, 2, 1, 3))
    assert len(outs) == len(names)
    assert model.config.fused_len() == sum(o.shape[1] for o in outs)


# sha256 of the "name shape" lines of every parameter, then every buffer, in
# registry order, as the model built them before the branch table existed.
# Checkpoints store tensors by these names, in this order, so an equal digest
# means that the checkpoints of that time still load.
REGISTRY_SHA256 = {
    ("mini", "full"): "370b91330762fdd644cc7d19eb258bc91a244e8cbbae913b23a0bbd02ad1f96e",
    ("mini", "no-branch1"): "6ba3330b04205accbae9f3a51aaae440f0823473cc635fc6041d7c1ab3e715fb",
    ("mini", "no-view1"): "05f62f47ed095ee2c5492aa22e347adb0112572b083056457fc57425d15f1a4a",
    ("mini", "no-view2"): "1c2c7755e0ab9b984c5f397fe7a39df968559ccdbedae002284466d7c3c54490",
    ("bci2a", "full"): "b9a7e059678d84031107caf7930acb79fc6896bc5b3be882b509b9ef83875e71",
    ("bci2a", "no-branch1"): "4a3431a2658bc76dee52900880f1d952997b5253072d125ec86299b2d4be6c43",
    ("bci2a", "no-view1"): "7e3a662eeb15710aa8677b49b30a18d03e8a9c649cdf62811fbb3cdbca927c1a",
    ("bci2a", "no-view2"): "2d1a75b828aa14479f483b7d9608baa938e11069827785f968a223ba22b04e28",
}
SINGLE_BRANCH_ABLATIONS = {"full": {}, "no-branch1": {"use_branch1": False},
                           "no-view1": {"use_branch2_input1": False},
                           "no-view2": {"use_branch2_input2": False}}


@pytest.mark.parametrize("preset,ablation", list(REGISTRY_SHA256))
def test_parameter_and_buffer_registry_is_unchanged(preset, ablation):
    cfg = dataclasses.replace(config_from_preset(dataio.preset(preset)),
                              **SINGLE_BRANCH_ABLATIONS[ablation])
    model = DualTsstModel(cfg)
    lines = [f"{n} {p.data.shape}" for n, p in model.params.items()]
    lines += [f"{n} {b.shape}" for n, b in model.buffers.items()]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == REGISTRY_SHA256[preset, ablation], lines


def test_fuse_single_position(rng):
    # pooling that swallows the whole conv output leaves a length-1 sequence
    model = mini_model(pool_raw=58, pool_raw_stride=58,
                       use_branch2_input1=False, use_branch2_input2=False)
    assert model.config.fused_len() == 1
    eeg, tfr = mini_inputs(rng)
    logits = model.forward(eeg, tfr)
    assert logits.shape == (2, 2)
    assert np.all(np.isfinite(logits.data))


def test_float32_mode(rng):
    model = DualTsstModel(mini_config(), rng=np.random.default_rng(0),
                          dtype=np.float32)
    assert all(p.data.dtype == np.float32 for p in model.params.values())
    eeg, tfr = mini_inputs(rng)
    out = model.forward(eeg, tfr, train=True)
    assert out.data.dtype == np.float32
    assert np.all(np.isfinite(out.data))
    assert all(b.dtype == np.float32 for b in model.buffers.values())


def test_branch_ablations(rng):
    eeg, tfr = mini_inputs(rng)
    only_b1 = mini_model(use_branch2_input1=False, use_branch2_input2=False)
    assert only_b1.config.fused_len() == 11
    assert only_b1.forward(eeg, tfr).shape == (2, 2)

    no_b1 = mini_model(use_branch1=False)
    assert no_b1.config.fused_len() == 26
    assert no_b1.forward(eeg, tfr).shape == (2, 2)

    one_view = mini_model(use_branch1=False, use_branch2_input2=False)
    assert one_view.config.fused_len() == 13
    assert one_view.forward(eeg, tfr).shape == (2, 2)


# ---------------------------------------------------------------------------
# determinism and checkpointing
# ---------------------------------------------------------------------------


def test_init_and_forward_deterministic(rng):
    eeg, tfr = mini_inputs(rng)
    a = mini_model(seed=5).forward(eeg, tfr).data
    b = mini_model(seed=5).forward(eeg, tfr).data
    assert np.array_equal(a, b)


def test_checkpoint_round_trip(tmp_path, rng):
    model = mini_model(seed=9)
    eeg, tfr = mini_inputs(rng)
    # leave a trace in the running stats so buffers get exercised too
    model.forward(eeg, tfr, train=True)
    path = tmp_path / "model.dtss"
    model.save(path)
    assert path.read_bytes()[:4] == b"DTSS"

    back = DualTsstModel.load(path)
    out_a = model.forward(eeg, tfr).data
    out_b = back.forward(eeg, tfr).data
    np.testing.assert_allclose(out_a, out_b, rtol=1e-5, atol=1e-6)

    # a second save of the loaded model is byte-identical (stable registry order)
    path2 = tmp_path / "model2.dtss"
    back.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.dtss"
    path.write_bytes(b"NOPE" + bytes(32))
    with pytest.raises(DataError, match="magic"):
        DualTsstModel.load(path)


def trained_model(dtype, rng):
    """A mini model whose parameters and running stats are off their init values."""
    model = DualTsstModel(mini_config(), rng=np.random.default_rng(9), dtype=dtype)
    eeg, tfr = mini_inputs(rng)
    model.forward(eeg, tfr, train=True)
    for p in model.params.values():
        p.data = p.data + np.asarray(rng.normal(scale=1e-3, size=p.data.shape), dtype=dtype)
    return model


def checkpoint_tensors(model):
    out = {k: p.data for k, p in model.params.items()}
    out.update(model.buffers)
    return out


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_checkpoint_round_trip_is_bit_identical(tmp_path, rng, dtype):
    model = trained_model(dtype, rng)
    path = tmp_path / "model.dtss"
    model.save(path)
    back = DualTsstModel.load(path)
    assert back.dtype == dtype
    before, after = checkpoint_tensors(model), checkpoint_tensors(back)
    assert before.keys() == after.keys()
    for name, arr in before.items():
        assert after[name].dtype == arr.dtype, name
        assert after[name].tobytes() == arr.tobytes(), name


def checkpoint_blob(model, version, config=None, float32=()):
    """A checkpoint built from the documented layout: version 1 stores every
    tensor as float32 with no dtype code; version 2 stores each tensor in the
    model's dtype behind a dtype code (1 float32, 2 float64).  ``config`` is
    the stored config dict, ``dataclasses.asdict(model.config)`` by default;
    version 2 tensors named in ``float32`` are stored as float32 anyway."""
    cfg = json.dumps(config or dataclasses.asdict(model.config)).encode()
    entries = list(checkpoint_tensors(model).items())
    code, payload = (2, "<f8") if version == 2 and model.dtype == np.float64 else (1, "<f4")
    parts = [b"DTSS", struct.pack("<II", version, len(cfg)), cfg, struct.pack("<I", len(entries))]
    for name, arr in entries:
        c, p = (1, "<f4") if name in float32 else (code, payload)
        arr = np.ascontiguousarray(arr, dtype=p)
        parts += [struct.pack("<I", len(name)), name.encode(),
                  b"" if version == 1 else struct.pack("<B", c),
                  struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape), arr.tobytes()]
    return b"".join(parts)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_checkpoint_bytes_follow_the_version_2_layout(tmp_path, rng, dtype):
    model = trained_model(dtype, rng)
    path = tmp_path / "model.dtss"
    model.save(path)
    assert path.read_bytes() == checkpoint_blob(model, 2)


def test_checkpoint_version_1_still_loads(tmp_path, rng):
    model = trained_model(np.float64, rng)
    path = tmp_path / "v1.dtss"
    path.write_bytes(checkpoint_blob(model, 1))
    back = DualTsstModel.load(path)
    for name, arr in checkpoint_tensors(model).items():
        got = checkpoint_tensors(back)[name]
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, arr.astype(np.float32).astype(np.float64))


def test_checkpoint_truncated_anywhere_in_header_is_a_data_error(tmp_path):
    model = mini_model(seed=2)
    path = tmp_path / "model.dtss"
    model.save(path)
    blob = path.read_bytes()
    name = next(iter(model.params))
    ndim = model.params[name].data.ndim
    cfg_len = int.from_bytes(blob[8:12], "little")
    # magic, version, config length, config, tensor count, then the first tensor's header
    header_end = 12 + cfg_len + 4 + 4 + len(name) + 2 + 4 * ndim
    cut = tmp_path / "cut.dtss"
    for size in list(range(header_end + 1)) + list(range(header_end + 1, len(blob), 97)):
        cut.write_bytes(blob[:size])
        with pytest.raises(DataError):
            DualTsstModel.load(cut)


@pytest.mark.parametrize("garble", [
    lambda b: b[:4] + (9).to_bytes(4, "little") + b[8:],
    lambda b: b[:12] + b"x" + b[13:],
    lambda b: b[:12] + b"\xff" + b[13:],
    lambda b: b + b"\x00",
], ids=["unknown-version", "config-not-json", "config-not-utf8", "trailing-byte"])
def test_checkpoint_garbled_is_a_data_error(tmp_path, garble):
    path = tmp_path / "model.dtss"
    mini_model(seed=2).save(path)
    path.write_bytes(garble(path.read_bytes()))
    with pytest.raises(DataError):
        DualTsstModel.load(path)


def test_checkpoint_mixing_dtype_codes_is_a_data_error(tmp_path):
    model = mini_model(seed=2)
    path = tmp_path / "mixed.dtss"
    path.write_bytes(checkpoint_blob(model, 2, float32={"classifier.fc2.bias"}))
    with pytest.raises(DataError, match=rf"{path}: tensors mix dtype codes \[1, 2\]"):
        DualTsstModel.load(path)


# ---------------------------------------------------------------------------
# files written while the retired options existed
# ---------------------------------------------------------------------------

# ModelConfig's fields in declaration order before encoder_mlp_ratio, dropout
# and per_head_scaling were retired; checkpoints and resolved configs of that
# time store all 22
FIELDS_WITH_RETIRED = (
    "n_channels", "n_times", "n_freqs", "n_classes", "branch_channels", "embed_dim",
    "time_kernel_raw", "time_kernel_tfr", "pool_raw", "pool_raw_stride", "pool_tfr",
    "pool_tfr_stride", "encoder_layers", "encoder_heads", "encoder_mlp_ratio",
    "classifier_hidden", "dropout", "use_branch1", "use_branch2_input1",
    "use_branch2_input2", "use_transformer", "per_head_scaling",
)


def config_with_retired(cfg, **retired):
    """``cfg`` as a dict in the old field order, the retired keys at their one
    value unless ``retired`` overrides them."""
    values = {**dataclasses.asdict(cfg), **RETIRED_MODEL_KEYS, **retired}
    assert set(values) == set(FIELDS_WITH_RETIRED)
    return {k: values[k] for k in FIELDS_WITH_RETIRED}


def test_retired_table_holds_the_values_every_run_used():
    assert RETIRED_MODEL_KEYS == {"encoder_mlp_ratio": ENCODER_MLP_RATIO, "dropout": 0.0,
                                  "per_head_scaling": False}
    assert not set(RETIRED_MODEL_KEYS) & {f.name for f in dataclasses.fields(ModelConfig)}


@pytest.mark.parametrize("version", [1, 2])
def test_checkpoint_with_retired_keys_at_their_value_loads(tmp_path, rng, version):
    model = trained_model(np.float64, rng)
    current, old = tmp_path / "current.dtss", tmp_path / "old.dtss"
    current.write_bytes(checkpoint_blob(model, version))
    old.write_bytes(checkpoint_blob(model, version, config_with_retired(model.config)))
    a, b = DualTsstModel.load(current), DualTsstModel.load(old)
    assert b.config == model.config
    ta, tb = checkpoint_tensors(a), checkpoint_tensors(b)
    assert ta.keys() == tb.keys()
    for name, arr in ta.items():
        assert tb[name].dtype == arr.dtype and tb[name].tobytes() == arr.tobytes(), name
    eeg, tfr = mini_inputs(rng, n=3)
    with T.no_grad():
        assert np.array_equal(a.forward(eeg, tfr).data, b.forward(eeg, tfr).data)


@pytest.mark.parametrize("key,value", [
    ("dropout", 0.3), ("per_head_scaling", True), ("encoder_mlp_ratio", 4),
    ("dropout", False), ("per_head_scaling", 0), ("encoder_mlp_ratio", "2"),
])
def test_checkpoint_with_a_retired_key_off_its_value_is_a_data_error(tmp_path, key, value):
    model = mini_model(seed=2)
    path = tmp_path / "old.dtss"
    path.write_bytes(checkpoint_blob(model, 2, config_with_retired(model.config,
                                                                   **{key: value})))
    with pytest.raises(DataError, match=f"{path}: {key} is retired"):
        DualTsstModel.load(path)


def test_checkpoint_config_that_is_not_an_object_is_a_data_error(tmp_path):
    path = tmp_path / "list.dtss"
    cfg = b'"dropout"'
    path.write_bytes(b"DTSS" + struct.pack("<II", 2, len(cfg)) + cfg + struct.pack("<I", 0))
    with pytest.raises(DataError, match="not a JSON object"):
        DualTsstModel.load(path)


def test_failed_save_leaves_the_previous_checkpoint_intact(tmp_path, rng, monkeypatch):
    path = tmp_path / "model_best.dtss"
    mini_model(seed=2).save(path)
    before = path.read_bytes()

    calls = []
    real = model_module.pack_record

    def failing_pack_record(arr, dtype):
        calls.append(1)
        if len(calls) == 3:
            raise OSError("disk full")
        return real(arr, dtype)

    monkeypatch.setattr(model_module, "pack_record", failing_pack_record)
    with pytest.raises(OSError, match="disk full"):
        trained_model(np.float64, rng).save(path)
    assert len(calls) == 3
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model_best.dtss"]
