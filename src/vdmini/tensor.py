"""Dense float64 tensors with reverse-mode automatic differentiation.

Tensors wrap read-only numpy arrays. Ops executed while a Tape is active
on their thread record nodes in append order. `backward` consumes the tape:
the calling thread walks it in strict reverse order, computing the chain of
input gradients and popping each node once its vjp has run, while one
worker thread computes every gradient contribution to a leaf (the parameter
gradients) and sums them in the order the walk produced them. Everything
runs in float64 and all reductions use numpy's fixed left-to-right
summation, so results are bit-reproducible for a given BLAS thread count,
whichever thread computes them.
"""

from __future__ import annotations

import math
import queue
import threading
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NonScalarRootError, ShapeError, TapeError

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
        """The value of a one-element tensor, such as one video's logit."""
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Node:
    """One tape entry: op kind, input tensors, and a vjp closure.

    The vjp maps the output's gradient to one entry per input: an array,
    None, or, for a parameter gradient, a zero-argument callable that
    computes the array with NumPy alone, so that `backward` can run it on
    its worker thread."""

    __slots__ = ("op", "inputs", "vjp")

    def __init__(self, op: str, inputs: Sequence[Tensor], vjp: Callable[[Array], Sequence[Optional[Array]]]):
        self.op = op
        self.inputs = tuple(inputs)
        self.vjp = vjp


class _ActiveTapes(threading.local):
    def __init__(self):
        self.stack: list["Tape"] = []


class Tape:
    """Record of executed ops, in the order they ran, usable as a context
    manager. `backward` consumes it: it empties `nodes` as it walks them,
    and a second `backward` on the same tape is an error.

    The stack of active tapes is per thread: a tape entered on one thread
    records only the ops that thread runs, so an untaped forward on another
    thread may share parameter Tensors with the taped one and record
    nothing."""

    _active = _ActiveTapes()

    def __init__(self):
        self.nodes: list[tuple[Node, Tensor]] = []
        self.consumed = False

    def __enter__(self):
        Tape._active.stack.append(self)
        return self

    def __exit__(self, *exc):
        Tape._active.stack.pop()
        return False

    @classmethod
    def current(cls) -> Optional["Tape"]:
        stack = cls._active.stack
        return stack[-1] if stack else None


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
    """Grads of `root` w.r.t. every requires_grad leaf reached by the tape.

    The calling thread pops the nodes off the tape in reverse order, runs
    each vjp, and sums the gradients of non-leaf tensors. It hands every
    contribution to a leaf, array or deferred callable, to one worker
    thread, which computes and sums them per leaf in the order they were
    handed over: the same order and the same expressions as a serial walk,
    so every returned gradient has the same bits. A node popped off the
    tape that nothing else holds is freed there and then; the nodes the
    root reaches stay until the caller drops the root. The worker has
    stopped when this returns; an error on either thread is raised after
    both have stopped.

    The root must be a node of this tape, or a requires_grad leaf (whose
    gradient is one). Any other root, or a tape an earlier `backward`
    consumed, raises TapeError, rather than returning no gradients."""
    if root.shape != ():
        raise NonScalarRootError(f"backward root must be scalar, got shape {root.shape}")
    if tape.consumed:
        raise TapeError("backward: this tape was already consumed by an earlier backward")
    nodes = tape.nodes
    if root.node is None:
        if not root.requires_grad:
            raise TapeError("backward: the root is a constant, recorded on no tape")
        tape.consumed = True
        nodes.clear()
        return {root: Tensor(np.ones(()))}
    if not any(out is root for _, out in reversed(nodes)):
        raise TapeError("backward: the root was not recorded on this tape")
    tape.consumed = True
    grads: dict[Tensor, Array] = {root: np.ones((), dtype=np.float64)}
    sums: dict[Tensor, Array] = {}
    errors: list[BaseException] = []
    todo: queue.SimpleQueue = queue.SimpleQueue()
    worker = threading.Thread(target=_sum_leaf_grads, args=(todo, sums, errors),
                              name="vdmini-backward")
    worker.start()
    try:
        while nodes and not errors:
            node, out = nodes.pop()
            g = grads.pop(out, None)
            if g is None:
                continue
            for t, gi in zip(node.inputs, node.vjp(g)):
                if gi is None:
                    continue
                if t.node is None:
                    if t.requires_grad:
                        todo.put((t, gi))
                    continue
                if callable(gi):
                    gi = gi()
                grads[t] = grads[t] + gi if t in grads else gi
    finally:
        todo.put(None)
        worker.join()
    if errors:
        raise errors[0]
    return {t: Tensor(g) for t, g in sums.items()}


def _sum_leaf_grads(todo: queue.SimpleQueue, sums: dict, errors: list) -> None:
    """`backward`'s worker: compute each (leaf, gradient or callable) it is
    handed and add it to that leaf's sum, until it is handed None. It stops
    at the first error and leaves it in `errors` for the caller to raise."""
    try:
        while (item := todo.get()) is not None:
            leaf, g = item
            if callable(g):
                g = g()
            sums[leaf] = sums[leaf] + g if leaf in sums else g
    except BaseException as e:  # raised by `backward` once the walk has stopped
        errors.append(e)


# ---------------------------------------------------------------------------
# elementwise and arithmetic ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} vs {b.shape}")
    return _record("add", a.data + b.data, [a, b], lambda g: (g, g))


def add_scalar(x: Tensor, c: float) -> Tensor:
    return _record("add_scalar", x.data + c, [x], lambda g: (g,))


def mul_scalar(x: Tensor, c) -> Tensor:
    """x * c for a float c; for a sequence c, axis 0 of x holds len(c) equal
    runs of frames (videos), and c[i] scales run i."""
    if np.ndim(c):
        if not x.data.ndim or x.shape[0] % len(c):
            raise ShapeError(f"mul_scalar: {x.shape} does not split into {len(c)} videos")
        c = np.repeat(c, x.shape[0] // len(c)).reshape((-1,) + (1,) * (x.data.ndim - 1))
    return _record("mul_scalar", x.data * c, [x], lambda g: (g * c,))


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Broadcast a bias along the channel axis 1 of x (the only broadcast
    allowed): a (C,) bias, or a (V, C) bias with a row per video, where axis
    0 of x holds V equal runs of frames."""
    rows = b.shape[0] if b.data.ndim == 2 else 1
    if b.data.ndim not in (1, 2) or x.shape[1:2] != b.shape[-1:] or x.shape[0] % rows:
        raise ShapeError(f"bias_add: x {x.shape} vs bias {b.shape}")
    runs = (rows, x.shape[0] // rows) + x.shape[1:]  # x as (V, frames, C, ...)
    bb = b.data.reshape((rows, 1, -1) + (1,) * (x.data.ndim - 2))
    reduce_axes = (1,) + tuple(range(3, x.data.ndim + 1))

    def vjp(g):
        return g, lambda: g.reshape(runs).sum(axis=reduce_axes).reshape(b.shape)

    return _record("bias_add", (x.data.reshape(runs) + bb).reshape(x.shape), [x, b], vjp)


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


def mean_all(x: Tensor, videos: Optional[int] = None) -> Tensor:
    """The mean of all of x, a scalar. With `videos`, axis 0 holds that many
    equal runs of frames, and the result is each run's mean, shape (videos,)."""
    if videos is not None and (videos < 1 or not x.data.ndim or x.shape[0] % videos):
        raise ShapeError(f"mean: {x.shape} does not split into {videos} videos")
    rows = videos or 1
    n, shape = x.size // rows, x.shape
    out = x.data.reshape(rows, n).mean(axis=1)
    return _record("mean", out if videos else out[0], [x],
                   lambda g: (np.repeat(np.reshape(g, rows) / n, n).reshape(shape),))


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
        grads = [g @ w.data,
                 lambda: np.tensordot(g, x.data, axes=(range(g.ndim - 1), range(x.data.ndim - 1)))]
        if b is not None:
            grads.append(lambda: g.sum(axis=tuple(range(g.ndim - 1))))
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

    def im2col():  # rebuilt in `vjp`, so the tape holds neither the padded input nor this matrix
        xp = _zero_pad(x.data, pads) if pad else x.data
        win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
        win = win[:, :, ::stride, ::stride].transpose(1, 4, 5, 0, 2, 3)  # (C, kh, kw, N, Ho, Wo)
        return np.ascontiguousarray(win).reshape(c * kh * kw, n * ho * wo)

    out = w.data.reshape(o, c * kh * kw) @ im2col()
    if b is not None:
        out += b.data[:, None]

    def vjp_stride1(g):
        # One column matrix of g, zero-padded by k-1-pad, gives both gradients:
        # gx is the valid correlation of it with the flipped, transposed kernel,
        # and gw, flipped back, is x correlated with it.
        g2 = g.transpose(1, 0, 2, 3)  # (O, N, Ho, Wo)
        ph, pw = kh - 1 - pad, kw - 1 - pad
        gp = _zero_pad(g2, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if ph or pw else g2
        win = np.lib.stride_tricks.sliding_window_view(gp, (kh, kw), axis=(2, 3))
        cols = np.ascontiguousarray(win.transpose(0, 4, 5, 1, 2, 3)).reshape(o * kh * kw, n * h * wd)
        wflip = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, o * kh * kw)
        gx = (wflip @ cols).reshape(c, n, h, wd).transpose(1, 0, 2, 3)

        def gw():
            xc = x.data.transpose(1, 0, 2, 3).reshape(c, n * h * wd)
            return (xc @ cols.T).reshape(c, o, kh, kw).transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]

        grads = [gx, gw]
        if b is not None:
            grads.append(lambda: g2.reshape(o, n * ho * wo).sum(axis=1))
        return tuple(grads)

    def vjp(g):
        g2 = g.transpose(1, 0, 2, 3).reshape(o, n * ho * wo)
        # tap-major rows: each gcols[i, j] is one contiguous (C, N, Ho, Wo) block
        gcols = (w.data.transpose(2, 3, 1, 0).reshape(kh * kw * c, o) @ g2).reshape(kh, kw, c, n, ho, wo)
        gxp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad))
        gxp_c = gxp.transpose(1, 0, 2, 3)
        for i in range(kh):
            for j in range(kw):
                gxp_c[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += gcols[i, j]
        grads = [gxp[:, :, pad : pad + h, pad : pad + wd], lambda: (g2 @ im2col().T).reshape(w.shape)]
        if b is not None:
            grads.append(lambda: g2.sum(axis=1))
        return tuple(grads)

    inputs = [x, w] if b is None else [x, w, b]
    out = out.reshape(o, n, ho, wo).transpose(1, 0, 2, 3)
    # the one-matrix vjp's columns have O*kh*kw rows against the other's C*kh*kw
    one_matrix = stride == 1 and pad < min(kh, kw) and o <= 2 * c
    return _record("conv2d", out, inputs, vjp_stride1 if one_matrix else vjp)


def conv1d_frames(x: Tensor, w: Tensor, b: Optional[Tensor] = None, pad: int = 0,
                  videos: int = 1) -> Tensor:
    """1-D convolution along the frame axis of (F, C, H, W), kernel (O, C, k).

    Axis 0 holds `videos` equal runs of frames, each convolved (and padded)
    on its own; the output stacks their outputs the same way."""
    if x.data.ndim != 4 or w.data.ndim != 3:
        raise ShapeError(f"conv1d_frames: ranks {x.shape} vs {w.shape}")
    nf, c, h, wd = x.shape
    o, ci, k = w.shape
    if ci != c:
        raise ShapeError(f"conv1d_frames: channels {x.shape} vs kernel {w.shape}")
    if b is not None and b.shape != (o,):
        raise ShapeError(f"conv1d_frames: bias {b.shape} vs kernel {w.shape}")
    if videos < 1 or nf % videos:
        raise ShapeError(f"conv1d_frames: {nf} frames do not split into {videos} videos")
    f = nf // videos
    fo = f + 2 * pad - k + 1
    if fo < 1:
        raise ShapeError(f"conv1d_frames: kernel {w.shape} too long for {x.shape} pad {pad}")
    pads = ((0, 0), (pad, pad), (0, 0), (0, 0), (0, 0))

    def im2col():  # rebuilt in the vjp, as in conv2d
        xv = x.data.reshape(videos, f, c, h, wd)
        xp = _zero_pad(xv, pads) if pad else xv
        win = np.lib.stride_tricks.sliding_window_view(xp, k, axis=1)  # (V, Fo, C, H, W, k)
        return np.ascontiguousarray(win.transpose(2, 5, 0, 1, 3, 4)).reshape(
            c * k, videos * fo * h * wd)

    w2 = w.data.reshape(o, c * k)
    out = w2 @ im2col()
    if b is not None:
        out += b.data[:, None]

    def vjp(g):
        g2 = g.transpose(1, 0, 2, 3).reshape(o, videos * fo * h * wd)
        gcols = (w2.T @ g2).reshape(c, k, videos, fo, h, wd).transpose(2, 3, 0, 1, 4, 5)
        gxp = np.zeros((videos, f + 2 * pad, c, h, wd))
        for i in range(k):
            gxp[:, i : i + fo] += gcols[:, :, :, i]
        grads = [gxp[:, pad : pad + f].reshape(nf, c, h, wd), lambda: (g2 @ im2col().T).reshape(w.shape)]
        if b is not None:
            grads.append(lambda: g2.sum(axis=1))
        return tuple(grads)

    inputs = [x, w] if b is None else [x, w, b]
    out = out.reshape(o, videos * fo, h, wd).transpose(1, 0, 2, 3)
    return _record("conv1d_frames", out, inputs, vjp)


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
    gshape = (1, c) + (1,) * len(spatial)
    # the output is written over xhat; the vjp rebuilds xhat from x, mu and inv
    out = d.reshape(x.shape)
    out *= gamma.data.reshape(gshape)
    out += beta.data.reshape(gshape)

    def vjp(g):
        d = x.data.reshape(n, groups, -1) - mu
        d *= inv
        affine_axes = (0,) + tuple(range(2, x.data.ndim))
        # an owned C-order buffer, whatever the layout of g; it becomes gx
        dxhat = np.multiply(g, gamma.data.reshape(gshape), out=np.empty(x.shape)).reshape(n, groups, -1)
        t1 = dxhat.mean(axis=2, keepdims=True)
        tmp = dxhat * d
        t2 = tmp.mean(axis=2, keepdims=True)
        # inv * (dxhat - t1 - xhat * t2), into dxhat
        dxhat -= t1
        dxhat -= np.multiply(d, t2, out=tmp)
        dxhat *= inv
        return (dxhat.reshape(x.shape), lambda: (g * d.reshape(x.shape)).sum(axis=affine_axes),
                lambda: g.sum(axis=affine_axes))

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

# Batch items per chunk are sized so that one chunk's (chunk, T, T) scores
# take about this many bytes (one 256-token frame) and stay in L2.
_CHUNK_BYTES = 1 << 19


def _attention(op: str, x: Tensor, ws: Sequence[Tensor], to_tokens, from_tokens) -> Tensor:
    """Attention over the (B, T, C) tokens `to_tokens(x.data)`; `from_tokens`
    maps (B, T, C) back to the layout of x.

    The forward keeps the row maxima mx and the row sums rs of the
    exponentials e = exp(q k^T - mx), and normalises the (T, C) output
    instead of the (T, T) weights. Both passes fill one chunk's e at a time:
    the vjp rebuilds it, bit for bit, from q, k and mx, and uses the row-dot
    identity sum_j(dA * A) = dO . O (Dao et al., 2022)."""
    c = x.shape[1]
    if any(t.shape != (c, c) for t in ws):
        raise ShapeError(f"{op}: weights {[t.shape for t in ws]} vs {c} channels")
    wq, wk, wv, wo = (t.data for t in ws)
    tokens = to_tokens(x.data)
    bsz, nt, _ = tokens.shape
    flat = tokens.reshape(bsz * nt, c)
    q, k, v = ((flat @ m.T).reshape(bsz, nt, c) for m in (wq, wk, wv))
    scale = 1.0 / math.sqrt(c)
    q *= scale
    step = max(1, _CHUNK_BYTES // (8 * nt * nt))
    chunks = [slice(i, min(i + step, bsz)) for i in range(0, bsz, step)]
    mx = np.empty((bsz, nt, 1))
    rs = np.empty((bsz, nt, 1))

    def scores(s, buf):  # one chunk's q k^T, in `buf`
        return np.matmul(q[s], k[s].transpose(0, 2, 1), out=buf[: s.stop - s.start])

    e = np.empty((min(step, bsz), nt, nt))
    o = np.empty((bsz, nt, c))
    for s in chunks:
        es = scores(s, e)
        es.max(axis=-1, keepdims=True, out=mx[s])
        es -= mx[s]
        np.exp(es, out=es)
        es.sum(axis=-1, keepdims=True, out=rs[s])
        np.matmul(es, v[s], out=o[s])
    o /= rs
    av = o.reshape(bsz * nt, c)

    def vjp(g):
        g2 = to_tokens(g).reshape(bsz * nt, c)
        gav = (g2 @ wo).reshape(bsz, nt, c)
        d = (gav * o).sum(axis=-1, keepdims=True)
        gav /= rs
        d /= rs
        gq, gk, gv = (np.empty((bsz, nt, c)) for _ in range(3))
        e, gs = (np.empty((min(step, bsz), nt, nt)) for _ in range(2))
        for s in chunks:
            es = scores(s, e)
            es -= mx[s]
            np.exp(es, out=es)
            gss = np.matmul(gav[s], v[s].transpose(0, 2, 1), out=gs[: s.stop - s.start])
            gss -= d[s]
            gss *= es
            np.matmul(gss, k[s], out=gq[s])
            np.matmul(gss.transpose(0, 2, 1), q[s], out=gk[s])
            np.matmul(es.transpose(0, 2, 1), gav[s], out=gv[s])
        gq *= scale
        gq, gk, gv = (t.reshape(bsz * nt, c) for t in (gq, gk, gv))
        gx = gq @ wq
        gx += gk @ wk
        gx += gv @ wv
        return (from_tokens(gx.reshape(bsz, nt, c)), lambda: gq.T @ flat, lambda: gk.T @ flat,
                lambda: gv.T @ flat, lambda: g2.T @ av)

    out = from_tokens((av @ wo.T).reshape(bsz, nt, c))
    return _record(op, out, [x, *ws], vjp)


def attention_spatial(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor) -> Tensor:
    """Self-attention per frame; spatial sites are the token axis."""
    f, c, h, w = x.shape
    return _attention("attention_spatial", x, (wq, wk, wv, wo),
                      lambda a: a.reshape(f, c, h * w).transpose(0, 2, 1),  # (F, HW, C)
                      lambda t: t.transpose(0, 2, 1).reshape(f, c, h, w))


def attention_temporal(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor,
                       videos: int = 1) -> Tensor:
    """Self-attention per spatial site; frames are the token axis. Axis 0
    holds `videos` equal runs of frames, and tokens attend only within
    their own video."""
    nf, c, h, w = x.shape
    if videos < 1 or nf % videos:
        raise ShapeError(f"attention_temporal: {nf} frames do not split into {videos} videos")
    f = nf // videos
    return _attention("attention_temporal", x, (wq, wk, wv, wo),
                      # (V, F, C, HW) -> (V * HW, F, C)
                      lambda a: a.reshape(videos, f, c, h * w).transpose(0, 3, 1, 2)
                                 .reshape(videos * h * w, f, c),
                      lambda t: t.reshape(videos, h * w, f, c).transpose(0, 2, 3, 1)
                                 .reshape(nf, c, h, w))


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
