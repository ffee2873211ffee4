"""Dense float64 tensors with reverse-mode automatic differentiation.

Tensors wrap read-only numpy arrays. Ops executed while a Tape is active
record nodes in append order; `backward` replays them in strict reverse
order. Everything runs in float64 and all reductions use numpy's fixed
left-to-right summation, so results are bit-reproducible for a given
thread count.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NonFiniteError, NonScalarRootError, ShapeError

Array = np.ndarray


def _as_array(value) -> Array:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim:  # ascontiguousarray would promote 0-d to shape (1,)
        arr = np.ascontiguousarray(arr)
    elif not arr.flags.owndata:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


class Tensor:
    """Immutable dense value, optionally participating in the active tape."""

    __slots__ = ("data", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False, node: Optional["Node"] = None):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.node = node

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Node:
    """One tape entry: op kind, input tensors, and a vjp closure."""

    __slots__ = ("op", "inputs", "vjp")

    def __init__(self, op: str, inputs: Sequence[Tensor], vjp: Callable[[Array], Sequence[Optional[Array]]]):
        self.op = op
        self.inputs = tuple(inputs)
        self.vjp = vjp


class Tape:
    """Append-only record of executed ops, usable as a context manager."""

    _active: list["Tape"] = []

    def __init__(self):
        self.nodes: list[tuple[Node, Tensor]] = []

    def __enter__(self):
        Tape._active.append(self)
        return self

    def __exit__(self, *exc):
        Tape._active.pop()
        return False

    @classmethod
    def current(cls) -> Optional["Tape"]:
        return cls._active[-1] if cls._active else None


def _tracked(*tensors: Tensor) -> bool:
    return any(t.requires_grad or t.node is not None for t in tensors)


def _record(op: str, out_data: Array, inputs: Sequence[Tensor], vjp) -> Tensor:
    tape = Tape.current()
    if tape is not None and _tracked(*inputs):
        node = Node(op, inputs, vjp)
        out = Tensor(out_data, node=node)
        tape.nodes.append((node, out))
        return out
    return Tensor(out_data)


def backward(tape: Tape, root: Tensor) -> dict[Tensor, Tensor]:
    """Grads of `root` w.r.t. every requires_grad leaf reached by the tape."""
    if root.shape != ():
        raise NonScalarRootError(f"backward root must be scalar, got shape {root.shape}")
    grads: dict[int, Array] = {id(root): np.ones((), dtype=np.float64)}
    keep: dict[int, Tensor] = {id(root): root}
    for node, out in reversed(tape.nodes):
        g = grads.pop(id(out), None)
        keep.pop(id(out), None)
        if g is None:
            continue
        in_grads = node.vjp(g)
        for t, gi in zip(node.inputs, in_grads):
            if gi is None:
                continue
            if not (t.requires_grad or t.node is not None):
                continue
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + gi
            else:
                grads[key] = gi
                keep[key] = t
    result: dict[Tensor, Tensor] = {}
    for key, t in keep.items():
        if t.requires_grad:
            result[t] = Tensor(grads[key])
    return result


# ---------------------------------------------------------------------------
# elementwise and arithmetic ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} vs {b.shape}")
    return _record("add", a.data + b.data, [a, b], lambda g: (g, g))


def add_scalar(x: Tensor, c: float) -> Tensor:
    return _record("add_scalar", x.data + c, [x], lambda g: (g,))


def mul_scalar(x: Tensor, c: float) -> Tensor:
    return _record("mul_scalar", x.data * c, [x], lambda g: (g * c,))


def bias_add(x: Tensor, b: Tensor, axis: int = 1) -> Tensor:
    """Broadcast a rank-1 bias along `axis` of x (the only broadcast allowed)."""
    if b.data.ndim != 1 or x.shape[axis] != b.shape[0]:
        raise ShapeError(f"bias_add: x {x.shape} axis {axis} vs bias {b.shape}")
    shape = [1] * x.data.ndim
    shape[axis] = b.shape[0]
    bb = b.data.reshape(shape)
    reduce_axes = tuple(i for i in range(x.data.ndim) if i != axis % x.data.ndim)

    def vjp(g):
        return g, g.sum(axis=reduce_axes)

    return _record("bias_add", x.data + bb, [x, b], vjp)


def _sigmoid(xd: Array) -> Array:
    """1 / (1 + exp(-x)) in one fresh buffer. exp(-x) overflows to inf below
    x = -709, where the sigmoid is exactly 0, so that overflow is not warned."""
    s = np.negative(xd, out=np.empty_like(xd))  # out=: a 0-d input stays an array
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def silu(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)
    out = x.data * s

    def vjp(g):  # g * (s + x * s * (1 - s)), with out == x * s
        t = 1.0 - s
        t *= out
        t += s
        t *= g
        return (t,)

    return _record("silu", out, [x], vjp)


def softplus(x: Tensor) -> Tensor:
    # log(1 + e^x) computed stably for large |x|
    out = np.logaddexp(0.0, x.data)
    s = _sigmoid(x.data)
    return _record("softplus", out, [x], lambda g: (g * s,))


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0
    return _record("relu", np.where(mask, x.data, 0.0), [x], lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"reshape: {x.shape} -> {shape}")
    old = x.shape
    return _record("reshape", x.data.reshape(shape), [x], lambda g: (g.reshape(old),))


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _record("transpose", x.data.transpose(axes), [x], lambda g: (g.transpose(inv),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    base = tensors[0].shape
    for t in tensors[1:]:
        if len(t.shape) != len(base):
            raise ShapeError(f"concat: rank mismatch {base} vs {t.shape}")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _record("concat", out, list(tensors), vjp)


# ---------------------------------------------------------------------------
# reductions and losses
# ---------------------------------------------------------------------------

def sum_all(x: Tensor) -> Tensor:
    n_shape = x.shape
    return _record("sum", x.data.sum(), [x], lambda g: (np.broadcast_to(g, n_shape).copy(),))


def mean_all(x: Tensor) -> Tensor:
    n = x.size
    shape = x.shape
    return _record("mean", x.data.mean(), [x], lambda g: (np.broadcast_to(g / n, shape).copy(),))


def mse(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mse: shapes {a.shape} vs {b.shape}")
    diff = a.data - b.data
    n = max(a.size, 1)
    out = np.float64((diff * diff).mean()) if a.size else np.float64(0.0)

    def vjp(g):
        scaled = (2.0 / n) * g * diff
        return scaled, -scaled

    return _record("mse", out, [a, b], vjp)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """x @ w.T + b with x (..., K) and w (O, K)."""
    if x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear: x {x.shape} vs w {w.shape}")
    out = x.data @ w.data.T
    if b is not None and b.shape != (w.shape[0],):
        raise ShapeError(f"linear: bias {b.shape} vs w {w.shape}")
    if b is not None:
        out += b.data

    def vjp(g):
        gx = g @ w.data
        gw = np.tensordot(g, x.data, axes=(range(g.ndim - 1), range(x.data.ndim - 1)))
        grads = [gx, gw]
        if b is not None:
            grads.append(g.sum(axis=tuple(range(g.ndim - 1))))
        return tuple(grads)

    inputs = [x, w] if b is None else [x, w, b]
    return _record("linear", out, inputs, vjp)


# ---------------------------------------------------------------------------
# convolutions (im2col: one GEMM for the forward, one per input for the vjp)
# ---------------------------------------------------------------------------

def _zero_pad(a: Array, pads: Sequence[tuple]) -> Array:
    """np.pad with zeros, without its per-call overhead."""
    out = np.zeros(tuple(n + lo + hi for n, (lo, hi) in zip(a.shape, pads)))
    out[tuple(slice(lo, lo + n) for n, (lo, _) in zip(a.shape, pads))] = a
    return out


def conv2d(x: Tensor, w: Tensor, b: Optional[Tensor] = None, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D convolution over (N, C, H, W) with kernel (O, C, kh, kw)."""
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d: ranks {x.shape} vs {w.shape}")
    n, c, h, wd = x.shape
    o, ci, kh, kw = w.shape
    if ci != c:
        raise ShapeError(f"conv2d: input channels {x.shape} vs kernel {w.shape}")
    if b is not None and b.shape != (o,):
        raise ShapeError(f"conv2d: bias {b.shape} vs kernel {w.shape}")
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d: kernel {w.shape} too large for input {x.shape} pad {pad}")
    pads = ((0, 0), (0, 0), (pad, pad), (pad, pad))

    def im2col():  # rebuilt in the vjp, so the tape holds neither the padded input nor this matrix
        xp = _zero_pad(x.data, pads) if pad else x.data
        win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
        win = win[:, :, ::stride, ::stride].transpose(1, 4, 5, 0, 2, 3)  # (C, kh, kw, N, Ho, Wo)
        return np.ascontiguousarray(win).reshape(c * kh * kw, n * ho * wo)

    out = w.data.reshape(o, c * kh * kw) @ im2col()
    if b is not None:
        out += b.data[:, None]

    def vjp(g):
        g2 = g.transpose(1, 0, 2, 3).reshape(o, n * ho * wo)
        gw = (g2 @ im2col().T).reshape(w.shape)
        # tap-major rows: each gcols[i, j] is one contiguous (C, N, Ho, Wo) block
        gcols = (w.data.transpose(2, 3, 1, 0).reshape(kh * kw * c, o) @ g2).reshape(kh, kw, c, n, ho, wo)
        gxp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad))
        gxp_c = gxp.transpose(1, 0, 2, 3)
        for i in range(kh):
            for j in range(kw):
                gxp_c[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += gcols[i, j]
        gx = gxp[:, :, pad : pad + h, pad : pad + wd]
        grads = [gx, gw]
        if b is not None:
            grads.append(g2.sum(axis=1))
        return tuple(grads)

    inputs = [x, w] if b is None else [x, w, b]
    return _record("conv2d", out.reshape(o, n, ho, wo).transpose(1, 0, 2, 3), inputs, vjp)


def conv1d_frames(x: Tensor, w: Tensor, b: Optional[Tensor] = None, pad: int = 0) -> Tensor:
    """1-D convolution along the frame axis of (F, C, H, W), kernel (O, C, k)."""
    if x.data.ndim != 4 or w.data.ndim != 3:
        raise ShapeError(f"conv1d_frames: ranks {x.shape} vs {w.shape}")
    f, c, h, wd = x.shape
    o, ci, k = w.shape
    if ci != c:
        raise ShapeError(f"conv1d_frames: channels {x.shape} vs kernel {w.shape}")
    if b is not None and b.shape != (o,):
        raise ShapeError(f"conv1d_frames: bias {b.shape} vs kernel {w.shape}")
    fo = f + 2 * pad - k + 1
    if fo < 1:
        raise ShapeError(f"conv1d_frames: kernel {w.shape} too long for {x.shape} pad {pad}")
    pads = ((pad, pad), (0, 0), (0, 0), (0, 0))

    def im2col():  # rebuilt in the vjp, as in conv2d
        xp = _zero_pad(x.data, pads) if pad else x.data
        win = np.lib.stride_tricks.sliding_window_view(xp, k, axis=0)  # (Fo, C, H, W, k)
        return np.ascontiguousarray(win.transpose(1, 4, 0, 2, 3)).reshape(c * k, fo * h * wd)

    w2 = w.data.reshape(o, c * k)
    out = w2 @ im2col()
    if b is not None:
        out += b.data[:, None]

    def vjp(g):
        g2 = g.transpose(1, 0, 2, 3).reshape(o, fo * h * wd)
        gw = (g2 @ im2col().T).reshape(w.shape)
        gcols = (w2.T @ g2).reshape(c, k, fo, h, wd).transpose(2, 0, 1, 3, 4)
        gxp = np.zeros((f + 2 * pad, c, h, wd))
        for i in range(k):
            gxp[i : i + fo] += gcols[:, :, i]
        gx = gxp[pad : pad + f]
        grads = [gx, gw]
        if b is not None:
            grads.append(g2.sum(axis=1))
        return tuple(grads)

    inputs = [x, w] if b is None else [x, w, b]
    return _record("conv1d_frames", out.reshape(o, fo, h, wd).transpose(1, 0, 2, 3), inputs, vjp)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def group_norm(x: Tensor, gamma: Tensor, beta: Tensor, groups: int = 1, eps: float = 1e-5) -> Tensor:
    """Group normalization over (N, C, *spatial)."""
    c = x.shape[1]
    if c % groups:
        raise ShapeError(f"group_norm: {c} channels not divisible by {groups} groups")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"group_norm: affine shapes {gamma.shape}/{beta.shape} vs {c} channels")
    n = x.shape[0]
    spatial = x.shape[2:]
    xg = x.data.reshape(n, groups, -1)
    m = xg.shape[2]
    mu = xg.mean(axis=2, keepdims=True)
    d = xg - mu
    var = np.multiply(d, d).sum(axis=2, keepdims=True) / m  # what xg.var computes
    inv = 1.0 / np.sqrt(var + eps)
    d *= inv
    xhat = d.reshape(x.shape)
    gshape = (1, c) + (1,) * len(spatial)
    out = xhat * gamma.data.reshape(gshape)
    out += beta.data.reshape(gshape)

    def vjp(g):
        affine_axes = (0,) + tuple(range(2, x.data.ndim))
        ggamma = (g * xhat).sum(axis=affine_axes)
        gbeta = g.sum(axis=affine_axes)
        # an owned C-order buffer, whatever the layout of g; it becomes gx
        dxhat = np.multiply(g, gamma.data.reshape(gshape), out=np.empty(x.shape)).reshape(n, groups, -1)
        t1 = dxhat.mean(axis=2, keepdims=True)
        tmp = dxhat * d
        t2 = tmp.mean(axis=2, keepdims=True)
        # inv * (dxhat - t1 - xhat * t2), into dxhat
        dxhat -= t1
        dxhat -= np.multiply(d, t2, out=tmp)
        dxhat *= inv
        return dxhat.reshape(x.shape), ggamma, gbeta

    return _record("group_norm", out, [x, gamma, beta], vjp)


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

def upsample_nearest2x(x: Tensor) -> Tensor:
    if x.data.ndim != 4:
        raise ShapeError(f"upsample_nearest2x: rank {x.shape}")
    out = x.data.repeat(2, axis=2).repeat(2, axis=3)

    def vjp(g):
        n, c, h2, w2 = g.shape
        return (g.reshape(n, c, h2 // 2, 2, w2 // 2, 2).sum(axis=(3, 5)),)

    return _record("upsample_nearest2x", out, [x], vjp)


# ---------------------------------------------------------------------------
# attention (exact softmax(QK^T / sqrt(d)) V, single head), one tape node each
# ---------------------------------------------------------------------------

def _softmax_rows(z: Array) -> Array:
    """Softmax over the last axis, max-shifted, written into `z` itself."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _attention(op: str, x: Tensor, ws: Sequence[Tensor], to_tokens, from_tokens) -> Tensor:
    """Attention over the (B, T, C) tokens `to_tokens(x.data)`; `from_tokens`
    maps (B, T, C) back to the layout of x."""
    c = x.shape[1]
    if any(t.shape != (c, c) for t in ws):
        raise ShapeError(f"{op}: weights {[t.shape for t in ws]} vs {c} channels")
    wq, wk, wv, wo = (t.data for t in ws)
    tokens = to_tokens(x.data)
    bsz, nt, _ = tokens.shape
    flat = tokens.reshape(bsz * nt, c)
    q, k, v = ((flat @ m.T).reshape(bsz, nt, c) for m in (wq, wk, wv))
    scale = 1.0 / math.sqrt(c)
    a = q @ k.transpose(0, 2, 1)
    a *= scale
    a = _softmax_rows(a)
    av = (a @ v).reshape(bsz * nt, c)

    def vjp(g):
        g2 = to_tokens(g).reshape(bsz * nt, c)
        gwo = g2.T @ av
        gav = (g2 @ wo).reshape(bsz, nt, c)
        gs = gav @ v.transpose(0, 2, 1)  # (ga - (ga * a).sum(-1)) * a * scale, in place
        gs -= (gs * a).sum(axis=-1, keepdims=True)
        gs *= a
        gs *= scale
        gq = (gs @ k).reshape(bsz * nt, c)
        gk = (gs.transpose(0, 2, 1) @ q).reshape(bsz * nt, c)
        gv = (a.transpose(0, 2, 1) @ gav).reshape(bsz * nt, c)
        gx = gq @ wq
        gx += gk @ wk
        gx += gv @ wv
        return (from_tokens(gx.reshape(bsz, nt, c)),
                gq.T @ flat, gk.T @ flat, gv.T @ flat, gwo)

    out = from_tokens((av @ wo.T).reshape(bsz, nt, c))
    return _record(op, out, [x, *ws], vjp)


def attention_spatial(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor) -> Tensor:
    """Self-attention per frame; spatial sites are the token axis."""
    f, c, h, w = x.shape
    return _attention("attention_spatial", x, (wq, wk, wv, wo),
                      lambda a: a.reshape(f, c, h * w).transpose(0, 2, 1),  # (F, HW, C)
                      lambda t: t.transpose(0, 2, 1).reshape(f, c, h, w))


def attention_temporal(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor) -> Tensor:
    """Self-attention per spatial site; frames are the token axis."""
    f, c, h, w = x.shape
    return _attention("attention_temporal", x, (wq, wk, wv, wo),
                      lambda a: a.reshape(f, c, h * w).transpose(2, 0, 1),  # (HW, F, C)
                      lambda t: t.transpose(1, 2, 0).reshape(f, c, h, w))


# ---------------------------------------------------------------------------
# op table and gradient checking
# ---------------------------------------------------------------------------

_OPS = {
    "add": add,
    "add_scalar": add_scalar,
    "mul_scalar": mul_scalar,
    "bias_add": bias_add,
    "relu": relu,
    "silu": silu,
    "softplus": softplus,
    "reshape": reshape,
    "transpose": transpose,
    "concat": concat,
    "sum": sum_all,
    "mean": mean_all,
    "mse": mse,
    "linear": linear,
    "conv2d": conv2d,
    "conv1d_frames": conv1d_frames,
    "group_norm": group_norm,
    "upsample_nearest2x": upsample_nearest2x,
    "attention_spatial": attention_spatial,
    "attention_temporal": attention_temporal,
}


def op_kinds() -> tuple:
    return tuple(sorted(_OPS))


class GradCheckReport:
    """Per-element comparison of analytic vs central-difference gradients."""

    def __init__(self, analytic: Array, numeric: Array):
        self.analytic = analytic
        self.numeric = numeric
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
        self.rel_err = np.abs(analytic - numeric) / denom
        self.max_rel_err = float(self.rel_err.max()) if self.rel_err.size else 0.0

    def __repr__(self):
        return f"GradCheckReport(max_rel_err={self.max_rel_err:.3e})"


def finite_difference_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradient of scalar-valued f against central differences."""
    if not (0.0 < eps <= 1e-2):
        raise ValueError(f"eps must be in (0, 1e-2], got {eps}")
    leaf = Tensor(x.data, requires_grad=True)
    with Tape() as tape:
        y = f(leaf)
    grads = backward(tape, y)
    analytic = grads[leaf].data if leaf in grads else np.zeros_like(x.data)

    flat = x.data.ravel().copy()
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        bump = flat.copy()
        bump[i] = flat[i] + eps
        hi = f(Tensor(bump.reshape(x.shape))).item()
        bump[i] = flat[i] - eps
        lo = f(Tensor(bump.reshape(x.shape))).item()
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise NonFiniteError(f"f non-finite near element {i} during finite differences")
        numeric[i] = (hi - lo) / (2.0 * eps)
    return GradCheckReport(analytic, numeric.reshape(x.shape))
