"""Dense tensors with reverse-mode differentiation.

Only the operators the decoder needs are implemented.  Each differentiable
op records its parents and a vector-Jacobian closure on the output tensor;
:func:`backward` replays those closures in exact reverse execution order
(nodes carry a monotonically increasing id assigned at creation).

Tensors are treated as immutable once created, except for gradient
accumulation into ``.grad``.  Repeated backward passes accumulate
additively until :meth:`Tensor.zero_grad` (or ``grad = None``) resets them.
Compute happens in the dtype of the inputs; 64-bit floats are the default.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np

from . import kernels

_node_ids = itertools.count()
_state = threading.local()

# batch-norm running-statistics momentum; batch- and layer-norm variance epsilons
BN_MOMENTUM = 0.1
BN_EPS = 1e-5
LN_EPS = 1e-5


def is_grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


class no_grad:
    """Context manager that disables graph recording."""

    def __enter__(self):
        self._prev = is_grad_enabled()
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_nid")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._vjp = None
        self._nid = next(_node_ids)

    # -- basic protocol ----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def item(self) -> float:
        return self.data.item()

    def zero_grad(self):
        self.grad = None

    # -- operators ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return add(self, mul(other, -1.0))
        return add(self, -other)

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def sum(self, axis=None):
        return tsum(self, axis)

    def backward(self):
        backward(self)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _pair(a, b):
    """Wrap operands; python scalars adopt the other operand's dtype so that
    float32 graphs are not silently promoted to float64."""
    if isinstance(a, Tensor) and isinstance(b, (int, float)):
        return a, Tensor(np.asarray(b, dtype=a.data.dtype))
    if isinstance(b, Tensor) and isinstance(a, (int, float)):
        return Tensor(np.asarray(a, dtype=b.data.dtype)), b
    return as_tensor(a), as_tensor(b)


def _records(parents) -> bool:
    """Whether an op on ``parents`` records a graph node."""
    return is_grad_enabled() and any(p.requires_grad for p in parents)


def _track(data, parents, vjp) -> Tensor:
    out = Tensor(data)
    if _records(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back down to ``shape``."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into ``t.grad`` for every requires-grad leaf.

    ``loss`` must be scalar.  The op record is freed afterwards; calling
    backward twice on the same output raises.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not require grad (graph absent or already freed)")

    nodes = []
    seen = set()
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        nodes.append(t)
        stack.extend(t._parents)
    nodes.sort(key=lambda t: t._nid, reverse=True)

    grads: dict[int, np.ndarray] = {loss._nid: np.ones_like(loss.data)}
    for node in nodes:
        g = grads.pop(node._nid, None)
        if g is None:
            continue
        if node._vjp is None:
            # leaf: accumulate
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, pg in node._vjp(g):
            if not parent.requires_grad:
                continue
            acc = grads.get(parent._nid)
            grads[parent._nid] = pg if acc is None else acc + pg
        # free the record so tensors do not pin the whole graph
        node._vjp = None
        node._parents = ()
        node.requires_grad = node.grad is not None


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------


# add and mul reduce a gradient only for an operand that takes one: a
# constant operand (an attention scale, a mean's 1/n, a negation's -1) would
# cost a product the size of the output that backward then drops


def add(a, b) -> Tensor:
    a, b = _pair(a, b)
    out = a.data + b.data

    def vjp(g):
        return tuple((t, _unbroadcast(g, t.data.shape)) for t in (a, b) if t.requires_grad)

    return _track(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _pair(a, b)
    out = a.data * b.data

    def vjp(g):
        return tuple((t, _unbroadcast(g * other.data, t.data.shape))
                     for t, other in ((a, b), (b, a)) if t.requires_grad)

    return _track(out, (a, b), vjp)


def tsum(x, axis=None) -> Tensor:
    x = as_tensor(x)
    out = x.data.sum(axis=axis)

    def vjp(g):
        if axis is None:
            return ((x, np.broadcast_to(g, x.data.shape).copy()),)
        gk = np.expand_dims(g, axis)
        return ((x, np.broadcast_to(gk, x.data.shape).copy()),)

    return _track(out, (x,), vjp)


def tmean(x, axis=None) -> Tensor:
    x = as_tensor(x)
    n = x.data.size if axis is None else x.data.shape[axis]
    s = tsum(x, axis)
    return mul(s, 1.0 / n)


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    out = x.data.reshape(shape)

    def vjp(g):
        return ((x, g.reshape(x.data.shape)),)

    return _track(out, (x,), vjp)


def transpose(x, axes) -> Tensor:
    x = as_tensor(x)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = x.data.transpose(axes)

    def vjp(g):
        return ((x, g.transpose(inv)),)

    return _track(out, (x,), vjp)


def concat(tensors, axis: int) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concat of zero tensors")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        pieces = np.split(g, splits, axis=axis)
        return tuple(zip(tensors, pieces))

    return _track(out, tuple(tensors), vjp)


def elu(x) -> Tensor:
    """x for x > 0, exp(x) - 1 otherwise."""
    x = as_tensor(x)
    pos = x.data > 0
    out = np.where(pos, x.data, np.expm1(x.data))

    def vjp(g):
        return ((x, g * np.where(pos, 1.0, out + 1.0)),)

    return _track(out, (x,), vjp)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = np.matmul(a.data, b.data)

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return ((a, _unbroadcast(ga, a.data.shape)), (b, _unbroadcast(gb, b.data.shape)))

    return _track(out, (a, b), vjp)


def linear(x, weight, bias) -> Tensor:
    """Affine map over the last axis: ``x @ weight + bias``.

    ``x`` has shape [..., Din], ``weight`` [Din, Dout], ``bias`` [Dout].
    """
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    din, dout = weight.data.shape
    if x.data.shape[-1] != din:
        raise ValueError(f"linear: input last axis {x.data.shape[-1]} != weight Din {din}")
    if bias.data.shape != (dout,):
        raise ValueError(f"linear: bias shape {bias.data.shape} != ({dout},)")
    out = x.data @ weight.data + bias.data

    def vjp(g):
        g2 = g.reshape(-1, dout)
        x2 = x.data.reshape(-1, din)
        return ((x, (g2 @ weight.data.T).reshape(x.data.shape)), (weight, x2.T @ g2),
                (bias, g2.sum(axis=0)))

    return _track(out, (x, weight, bias), vjp)


# ---------------------------------------------------------------------------
# convolution / pooling
# ---------------------------------------------------------------------------


def conv2d(x, kernel) -> Tensor:
    """Valid, stride-1 cross-correlation of ``x`` [N, Cin, H, W] with ``kernel``.

    ``kernel`` has one of the model's three shapes: a pointwise conv
    [Cout, Cin, 1, 1], a time conv [Cout, Cin, 1, k] or a full-height
    depthwise conv [Cin, 1, H, 1].  Any other shape raises ValueError.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ValueError("conv2d expects 4-d input and kernel")
    out = kernels.conv2d_forward(x.data, kernel.data, (1, 1))

    def vjp(g):
        return (
            (x, kernels.conv2d_backward_input(g, kernel.data, x.data.shape)),
            (kernel, kernels.conv2d_backward_kernel(g, x.data, kernel.data.shape)),
        )

    return _track(out, (x, kernel), vjp)


def avg_pool2d(x, kernel: int, stride: int) -> Tensor:
    """Mean pooling along the last axis with window ``kernel`` and ``stride``."""
    x = as_tensor(x)
    if x.data.ndim != 4:
        raise ValueError("avg_pool2d expects 4-d input")
    w = x.data.shape[3]
    if kernel > w:
        raise ValueError(f"pool kernel {kernel} larger than input width {w}")
    if stride < 1:
        raise ValueError("stride must be positive")
    out = kernels.avgpool_forward(x.data, kernel, stride)

    def vjp(g):
        return ((x, kernels.avgpool_backward(g, kernel, stride, w)),)

    return _track(out, (x,), vjp)


# ---------------------------------------------------------------------------
# normalisation / attention pieces
# ---------------------------------------------------------------------------


def softmax(x, axis: int = -1) -> Tensor:
    """Numerically stable softmax (max-subtracted) along ``axis``."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((x, out * (g - dot)),)

    return _track(out, (x,), vjp)


def layer_norm(x, gamma, beta) -> Tensor:
    """Normalise the last axis to zero mean/unit variance, then scale+shift."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x.data - mu) * inv
    out = xhat * gamma.data + beta.data

    def vjp(g):
        gg = g * gamma.data
        gx = inv * (gg - gg.mean(axis=-1, keepdims=True) - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
        axes = tuple(range(g.ndim - 1))
        return (
            (x, gx),
            (gamma, (g * xhat).sum(axis=axes) if axes else g * xhat),
            (beta, g.sum(axis=axes) if axes else g.copy()),
        )

    return _track(out, (x, gamma, beta), vjp)


def _moments(x, running_mean, running_var, train: bool):
    """Per-channel mean and variance of [N,C,H,W] over (N,H,W).

    Train mode returns the batch statistics and folds them into the running
    buffers in place; eval mode returns copies of the buffers (they may
    change before backward).
    """
    if not train:
        return np.array(running_mean), np.array(running_var)
    c = x.shape[1]
    mu = x.mean(axis=(0, 2, 3))
    # centred a chunk at a time, so no second x-sized array is held; the per-trial
    # squares are summed in trial order, so the bits do not depend on the chunk
    squares = np.empty((len(x), c), dtype=x.dtype)
    for s in kernels._chunks(len(x), x[0].nbytes):
        d = x[s] - mu.reshape(1, c, 1, 1)
        np.einsum("nchw,nchw->nc", d, d, out=squares[s])
    var = squares.sum(axis=0) / (x.size // c)
    running_mean *= 1.0 - BN_MOMENTUM
    running_mean += BN_MOMENTUM * mu
    running_var *= 1.0 - BN_MOMENTUM
    running_var += BN_MOMENTUM * var
    return mu, var


def batch_norm(x, gamma, beta, running_mean, running_var, train: bool) -> Tensor:
    """Per-channel batch normalisation of [N,C,H,W].

    Train mode normalises by batch statistics over (N,H,W) per channel and
    updates the running buffers in place; eval mode uses the buffers.
    ``running_mean``/``running_var`` are plain arrays, not differentiated.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.data.ndim != 4:
        raise ValueError("batch_norm expects 4-d input")
    n, c, h, w = x.data.shape
    m = n * h * w
    axes = (0, 2, 3)
    gshape = (1, c, 1, 1)
    mu, var = _moments(x.data, running_mean, running_var, train)
    inv = 1.0 / np.sqrt(var + BN_EPS)
    out = x.data - mu.reshape(gshape)
    out *= inv.reshape(gshape)  # out is xhat here
    out *= gamma.data.reshape(gshape)
    out += beta.data.reshape(gshape)

    def vjp(g):
        # xhat is recomputed from x, which the graph keeps anyway, rather than
        # held from the forward pass as a second array of x's size
        xhat = x.data - mu.reshape(gshape)
        xhat *= inv.reshape(gshape)
        gbeta = g.sum(axis=axes)
        ggamma = np.einsum("nchw,nchw->c", g, xhat)
        scale = gamma.data * inv
        gx = g * scale.reshape(gshape)
        if train:
            # gx = scale * (g - mean(g) - xhat * mean(g * xhat)), per channel
            xhat *= (scale * ggamma / m).reshape(gshape)
            gx -= xhat
            gx -= (scale * gbeta / m).reshape(gshape)
        return ((x, gx), (gamma, ggamma), (beta, gbeta))

    return _track(out, (x, gamma, beta), vjp)


def time_conv_bn_depthwise(x, kernel, gamma, beta, running_mean, running_var, depthwise,
                           train: bool) -> Tensor:
    """``conv2d(batch_norm(conv2d(x, kernel), ...), depthwise)``: a branch's stem.

    ``kernel`` is a time conv [Cout, Cin, 1, k], ``depthwise`` a full-height
    [Cout, 1, H, 1] kernel.  Batch norm of the time-conv output ``h`` is
    affine per channel, ``a * (h - mu) + beta`` with ``a = gamma / sigma``,
    so it is applied after the depthwise conv, on the small output:
    ``a * (conv(h) - mu * sum(d)) + beta * sum(d)``.  Batch statistics and
    running buffers behave as in :func:`batch_norm`.  Only the backward
    holds ``h``; in eval mode with no graph recorded nothing needs it, and
    one ``kernels.conv2d_forward`` call runs both convs.
    """
    x, kernel, depthwise = as_tensor(x), as_tensor(kernel), as_tensor(depthwise)
    gamma, beta = as_tensor(gamma), as_tensor(beta)
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ValueError("time_conv_bn_depthwise expects 4-d input and kernels")
    c, h_in = kernel.data.shape[0], x.data.shape[2]
    if depthwise.data.shape != (c, 1, h_in, 1):
        raise ValueError(f"depthwise kernel {depthwise.data.shape} != ({c}, 1, {h_in}, 1)")
    parents = (x, kernel, gamma, beta, depthwise)
    if train or _records(parents):
        h = kernels.conv2d_forward(x.data, kernel.data, (1, 1))
        out = kernels.conv2d_forward(h, depthwise.data, (1, 1))
    else:
        h = None
        out = kernels.conv2d_forward(x.data, kernel.data, (1, 1), depthwise=depthwise.data)
    mu, var = _moments(h, running_mean, running_var, train)
    inv = 1.0 / np.sqrt(var + BN_EPS)
    a = gamma.data * inv
    ksum = depthwise.data.sum(axis=(1, 2, 3))
    gshape = (1, c, 1, 1)
    out -= (mu * ksum).reshape(gshape)
    out *= a.reshape(gshape)
    out += (beta.data * ksum).reshape(gshape)

    def vjp(g):
        gsum = g.sum(axis=(0, 2, 3))
        # depthwise gradient of the normalised h: a * (conv_d(g, h) - mu * sum(g)) + beta * sum(g)
        centred = kernels.conv2d_backward_kernel(g, h, depthwise.data.shape)
        centred -= (mu * gsum).reshape(c, 1, 1, 1)
        gdepthwise = centred * a.reshape(c, 1, 1, 1)
        gdepthwise += (beta.data * gsum).reshape(c, 1, 1, 1)
        gbeta = ksum * gsum
        ggamma = inv * np.einsum("cijk,cijk->c", depthwise.data, centred)
        gh = kernels.conv2d_backward_input(g * a.reshape(gshape), depthwise.data, h.shape)
        if train:
            # gh -= a * (mean(g') + hhat * mean(g' * hhat)), g' the normalised
            # h's gradient, a chunk of trials at a time
            m = h.size // c
            mu4, slope = mu.reshape(gshape), (a * ggamma * inv / m).reshape(gshape)
            for s in kernels._chunks(len(h), h[0].nbytes):
                gh[s] -= (h[s] - mu4) * slope
            gh -= (a * gbeta / m).reshape(gshape)
        return ((x, kernels.conv2d_backward_input(gh, kernel.data, x.data.shape)),
                (kernel, kernels.conv2d_backward_kernel(gh, x.data, kernel.data.shape)),
                (gamma, ggamma), (beta, gbeta), (depthwise, gdepthwise))

    return _track(out, parents, vjp)


def gap(x) -> Tensor:
    """Global average pooling: mean over the sequence axis of [..., L, D]."""
    x = as_tensor(x)
    if x.data.ndim < 2:
        raise ValueError("gap expects at least 2 dims ([..., L, D])")
    if x.data.shape[-2] < 1:
        raise ValueError("gap over an empty sequence")
    return tmean(x, axis=x.data.ndim - 2)


def cross_entropy(logits, labels) -> Tensor:
    """Mean negative log-likelihood of integer ``labels`` under ``logits``.

    Computed in log space via log-sum-exp; never through a stored softmax.
    """
    logits = as_tensor(logits)
    labels = np.asarray(labels)
    if logits.data.ndim != 2:
        raise ValueError("cross_entropy expects [N, n_classes] logits")
    n, m = logits.data.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} != ({n},)")
    if labels.min() < 0 or labels.max() >= m:
        raise ValueError(f"label out of range [0, {m})")
    shift = logits.data.max(axis=1, keepdims=True)
    lse = shift[:, 0] + np.log(np.exp(logits.data - shift).sum(axis=1))
    picked = logits.data[np.arange(n), labels]
    out = np.asarray((lse - picked).mean())

    def vjp(g):
        p = np.exp(logits.data - shift)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(n), labels] -= 1.0
        return ((logits, (float(g) / n) * p),)

    return _track(out, (logits,), vjp)

