"""Dense float64 tensors with reverse-mode automatic differentiation.

Tensors wrap read-only numpy arrays. Ops executed while a Tape is active
on their thread record nodes in append order. `backward` consumes the tape
with one serial walk in strict reverse order, popping each node once its
vjp has run; a tape whose parts were recorded on other threads has each
part walked on a thread of its own. Everything runs in float64. Reductions
use numpy's fixed summation order, and attention's row sums come from a
BLAS GEMM, whose order is fixed by each item's shape, so results are
bit-reproducible for a given BLAS thread count, whichever thread computes
them.
"""

from __future__ import annotations

import math
import threading
from functools import partial
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
    """One tape entry: op kind, input tensors, and a vjp closure that maps
    the output's gradient to one array or None per input."""

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
    nothing.

    A tape may hold `parts`: tapes recorded apart, typically each on its
    own thread, such as one per slice of a batch. The tape's own `nodes`
    may read the parts' outputs (the join of the parts' losses), but no
    part may read another's. `nodes` lists the tape's own nodes only."""

    _active = _ActiveTapes()

    def __init__(self, parts: Sequence["Tape"] = ()):
        self.nodes: list[tuple[Node, Tensor]] = []
        self.parts = tuple(parts)
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

    def with_parts(self) -> list["Tape"]:
        """This tape, then each part with its own parts, in part order."""
        return [self] + [t for part in self.parts for t in part.with_parts()]


def _tracked(*tensors: Tensor) -> bool:
    return any(t.requires_grad or t.node is not None for t in tensors)


def _recording(inputs: Sequence[Tensor]) -> Optional[Tape]:
    """The tape that an op on these inputs records on, if any."""
    tape = Tape.current()
    return tape if tape is not None and _tracked(*inputs) else None


def _record(op: str, out_data: Array, inputs: Sequence[Tensor], vjp) -> Tensor:
    tape = _recording(inputs)
    if tape is not None:
        node = Node(op, inputs, vjp)
        out = Tensor(out_data, node=node)
        tape.nodes.append((node, out))
        return out
    return Tensor(out_data)


def run_parts(fns: Sequence[Callable[[], object]]) -> list:
    """[fn() for fn in fns], all at once: fns[0] on the calling thread and
    each other on a thread of its own. Every thread has stopped when this
    returns or raises; the first error, in part order, is raised then."""
    results: list = [None] * len(fns)
    errors: list = [None] * len(fns)

    def run(i):
        try:
            results[i] = fns[i]()
        except BaseException as e:  # raised below, once every thread has stopped
            errors[i] = e

    threads = []
    try:
        for i in range(1, len(fns)):
            thread = threading.Thread(target=run, args=(i,), name=f"vdmini-part-{i}")
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
    for e in errors:
        if e is not None:
            raise e
    return results


def join_parts(tapes: Sequence[Tape], roots: Sequence[Tensor],
               weights: Sequence[float]) -> tuple:
    """(tape, root) of the sum over i of weights[i] * roots[i], where each
    root is recorded on tapes[i]: one tape and its root as they are (its
    weight is 1), or else a new tape with the tapes as its parts, holding
    the weighted sum."""
    if len(tapes) == 1:
        return tapes[0], roots[0]
    tape = Tape(tapes)
    with tape:
        total = None
        for root, w in zip(roots, weights):
            term = mul_scalar(root, w)
            total = term if total is None else add(total, term)
    return tape, total


def backward(tape: Tape, root: Tensor) -> dict[Tensor, Tensor]:
    """Grads of `root` w.r.t. every requires_grad leaf reached by the tape.

    The calling thread pops the tape's own nodes off in reverse order, runs
    each vjp, and sums every tensor's gradient contributions in walk order.
    Then it walks the parts side by side in the same way, each on a thread
    of its own (part 0 on the calling thread, `run_parts`), from the
    gradients of its outputs. A leaf's gradient is its sum over the tape's
    own nodes, then each part's sum added in part order: fixed by the
    tape's layout, not by timing. A node popped off the tape that nothing
    else holds is freed there and then; the nodes the root reaches stay
    until the caller drops the root. No thread outlives the call, and an
    error on any part's thread is raised once every thread has stopped.

    The root must be a node of this tape or of one of its parts, or a
    requires_grad leaf (whose gradient is one). Any other root, or a tape
    or part an earlier `backward` consumed, raises TapeError, rather than
    returning no gradients."""
    if root.shape != ():
        raise NonScalarRootError(f"backward root must be scalar, got shape {root.shape}")
    tapes = tape.with_parts()
    if any(t.consumed for t in tapes):
        raise TapeError("backward: this tape was already consumed by an earlier backward")
    if root.node is None:
        if not root.requires_grad:
            raise TapeError("backward: the root is a constant, recorded on no tape")
        for t in tapes:
            t.consumed = True
            t.nodes.clear()
        return {root: Tensor(np.ones(()))}
    if not any(out is root for t in tapes for _, out in reversed(t.nodes)):
        raise TapeError("backward: the root was not recorded on this tape")
    for t in tapes:
        t.consumed = True
    sums = _walk(tape, {root: np.ones((), dtype=np.float64)})
    return {t: Tensor(g) for t, g in sums.items()}


def _walk(tape: Tape, grads: dict) -> dict:
    """`backward`'s walk of one tape: pop its nodes in reverse order, adding
    each vjp's contributions into `grads` (non-leaf tensors) or the leaf
    sums, then walk the parts side by side, each from the gradients in
    `grads` of its own outputs. Returns each leaf's sum: the tape's own
    contributions in walk order, then each part's sum in part order."""
    nodes = tape.nodes
    sums: dict = {}
    while nodes:
        node, out = nodes.pop()
        g = grads.pop(out, None)
        if g is None:
            continue
        for t, gi in zip(node.inputs, node.vjp(g)):
            if gi is None or not (t.requires_grad or t.node is not None):
                continue
            into = grads if t.node is not None else sums
            into[t] = into[t] + gi if t in into else gi
    if tape.parts:
        starts = [{out: grads.pop(out) for _, out in part.nodes if out in grads}
                  for part in tape.parts]
        for part_sums in run_parts([partial(_walk, part, start)
                                    for part, start in zip(tape.parts, starts)]):
            for t, g in part_sums.items():
                sums[t] = sums[t] + g if t in sums else g
    return sums


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
        return g, g.reshape(runs).sum(axis=reduce_axes).reshape(b.shape)

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
    """x / (1 + exp(-x)). Off the tape the output is written over the one
    buffer that holds 1 + exp(-x); on a tape that buffer is kept, in place
    of the sigmoid, for the vjp. exp(-x) overflows to inf below x = -709,
    where the output is exactly (-)0, so that overflow is not warned."""
    xd = x.data
    d = np.negative(xd, out=np.empty_like(xd))  # out=: a 0-d input stays an array
    with np.errstate(over="ignore"):
        np.exp(d, out=d)
    d += 1.0
    if _recording([x]) is None:
        return Tensor(np.divide(xd, d, out=d))
    out = xd / d

    def vjp(g):  # g * (s + x * s * (1 - s)) with s = 1 / d, and out == x / d
        s = np.divide(1.0, d)
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

def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None, axis: int = -1) -> Tensor:
    """x @ w.T + b with x (..., K) and w (O, K). With axis=1, K is instead
    the channel axis of x (N, K, *spatial): the output (N, O, *spatial)
    holds w @ x[n] + b for each n, one GEMM per item, with no transposes."""
    if axis not in (-1, 1) or x.data.ndim < (2 if axis == 1 else 1):
        raise ShapeError(f"linear: axis {axis} of x {x.shape}")
    if x.shape[axis] != w.shape[1]:
        raise ShapeError(f"linear: x {x.shape} vs w {w.shape}")
    if b is not None and b.shape != (w.shape[0],):
        raise ShapeError(f"linear: bias {b.shape} vs w {w.shape}")
    inputs = [x, w] if b is None else [x, w, b]
    if axis == 1:
        return _linear_channels(x, w, b, inputs)
    out = x.data @ w.data.T
    if b is not None:
        out += b.data

    def vjp(g):
        grads = [g @ w.data, np.tensordot(g, x.data, axes=(range(g.ndim - 1), range(x.data.ndim - 1)))]
        if b is not None:
            grads.append(g.sum(axis=tuple(range(g.ndim - 1))))
        return tuple(grads)

    return _record("linear", out, inputs, vjp)


def _linear_channels(x: Tensor, w: Tensor, b: Optional[Tensor], inputs: list) -> Tensor:
    """`linear` over the channel axis 1 of x."""
    n, k = x.shape[:2]
    o = w.shape[0]
    x3 = x.data.reshape(n, k, -1)
    out = np.matmul(w.data, x3)  # (N, O, S)
    if b is not None:
        out += b.data[:, None]

    def vjp(g):
        g3 = g.reshape(n, o, -1)
        grads = [np.matmul(w.data.T, g3).reshape(x.shape),
                 np.matmul(g3, x3.transpose(0, 2, 1)).sum(axis=0)]
        if b is not None:
            grads.append(g3.sum(axis=(0, 2)))
        return tuple(grads)

    return _record("linear", out.reshape((n, o) + x.shape[2:]), inputs, vjp)


# ---------------------------------------------------------------------------
# convolutions (im2col: one GEMM per frame for the forward, one GEMM per
# input for the vjp)
# ---------------------------------------------------------------------------

def _zero_pad(a: Array, pads: Sequence[tuple]) -> Array:
    """np.pad with zeros, without its per-call overhead."""
    out = np.zeros(tuple(n + lo + hi for n, (lo, hi) in zip(a.shape, pads)))
    out[tuple(slice(lo, lo + n) for n, (lo, _) in zip(a.shape, pads))] = a
    return out


def _windows(a: Array, axes: Sequence[int], taps: Sequence[int], at: int, stride: int = 1) -> Array:
    """A view of the C-contiguous `a`, with no copy: each axis in `axes`
    steps over the starts of its windows of taps[i] samples, every
    `stride`-th one, and the tap axes, in `axes` order, are inserted at
    position `at` of the view's shape."""
    shape, strides = list(a.shape), list(a.strides)
    for ax, k in zip(axes, taps):
        shape[ax] = (a.shape[ax] - k) // stride + 1
        strides[ax] *= stride
    shape[at:at] = taps
    strides[at:at] = [a.strides[ax] for ax in axes]
    return np.ndarray(shape, a.dtype, a, 0, strides)


def conv2d(x: Tensor, w: Tensor, b: Optional[Tensor] = None, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D convolution over (N, C, H, W) with kernel (O, C, kh, kw).

    Each frame's columns form a (C*kh*kw, Ho*Wo) matrix (a 1x1 stride-1
    conv uses x itself), and one broadcast GEMM writes the (N, O, Ho, Wo)
    output directly, one (O, C*kh*kw) @ (C*kh*kw, Ho*Wo) product per frame:
    a frame's output does not depend on the other frames in x."""
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

    def windows():  # (N, C, kh, kw, Ho, Wo); rebuilt in the vjp, so the tape holds no padded input
        return _windows(_zero_pad(x.data, pads) if pad else x.data, (2, 3), (kh, kw), 2, stride)

    w2 = w.data.reshape(o, c * kh * kw)
    out = np.matmul(w2, windows().reshape(n, c * kh * kw, ho * wo))
    if b is not None:
        out += b.data[:, None]

    def vjp_stride1(g):
        # One column matrix of g, zero-padded by k-1-pad, gives both gradients:
        # gx is the valid correlation of it with the flipped, transposed kernel,
        # and gw, flipped back, is x correlated with it.
        g2 = g.transpose(1, 0, 2, 3)  # (O, N, Ho, Wo)
        ph, pw = kh - 1 - pad, kw - 1 - pad
        gp = _zero_pad(g2, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if ph or pw else np.ascontiguousarray(g2)
        win = _windows(gp, (2, 3), (kh, kw), 2)  # (O, N, kh, kw, H, W)
        cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(o * kh * kw, n * h * wd)
        wflip = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, o * kh * kw)
        gx = (wflip @ cols).reshape(c, n, h, wd).transpose(1, 0, 2, 3)
        xc = x.data.transpose(1, 0, 2, 3).reshape(c, n * h * wd)
        gw = (xc @ cols.T).reshape(c, o, kh, kw).transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
        grads = [gx, gw]
        if b is not None:
            grads.append(g2.reshape(o, n * ho * wo).sum(axis=1))
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
        cols = windows().transpose(1, 2, 3, 0, 4, 5).reshape(c * kh * kw, n * ho * wo)
        grads = [gxp[:, :, pad : pad + h, pad : pad + wd], (g2 @ cols.T).reshape(w.shape)]
        if b is not None:
            grads.append(g2.sum(axis=1))
        return tuple(grads)

    inputs = [x, w] if b is None else [x, w, b]
    # the one-matrix vjp's columns have O*kh*kw rows against the other's C*kh*kw
    one_matrix = stride == 1 and pad < min(kh, kw) and o <= 2 * c
    return _record("conv2d", out.reshape(n, o, ho, wo), inputs, vjp_stride1 if one_matrix else vjp)


def conv1d_frames(x: Tensor, w: Tensor, b: Optional[Tensor] = None, pad: int = 0,
                  videos: int = 1) -> Tensor:
    """1-D convolution along the frame axis of (F, C, H, W), kernel (O, C, k).

    Axis 0 holds `videos` equal runs of frames, each convolved (and padded)
    on its own; the output stacks their outputs the same way. Each output
    frame's columns form a (C*k, H*W) matrix, rows of H*W contiguous
    pixels, and one broadcast GEMM writes the (F_out, O, H, W) output
    directly, one (O, C*k) @ (C*k, H*W) product per output frame."""
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

    def windows():  # (V, Fo, C, k, H, W); rebuilt in the vjp, as in conv2d
        xv = x.data.reshape(videos, f, c, h, wd)
        return _windows(_zero_pad(xv, pads) if pad else xv, (1,), (k,), 3)

    w2 = w.data.reshape(o, c * k)
    out = np.matmul(w2, windows().reshape(videos * fo, c * k, h * wd))
    if b is not None:
        out += b.data[:, None]

    def vjp(g):
        g2 = g.transpose(1, 0, 2, 3).reshape(o, videos * fo * h * wd)
        gcols = (w2.T @ g2).reshape(c, k, videos, fo, h, wd).transpose(2, 3, 0, 1, 4, 5)
        gxp = np.zeros((videos, f + 2 * pad, c, h, wd))
        for i in range(k):
            gxp[:, i : i + fo] += gcols[:, :, :, i]
        cols = windows().transpose(2, 3, 0, 1, 4, 5).reshape(c * k, videos * fo * h * wd)
        grads = [gxp[:, pad : pad + f].reshape(nf, c, h, wd), (g2 @ cols.T).reshape(w.shape)]
        if b is not None:
            grads.append(g2.sum(axis=1))
        return tuple(grads)

    inputs = [x, w] if b is None else [x, w, b]
    return _record("conv1d_frames", out.reshape(videos * fo, o, h, wd), inputs, vjp)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

_GN_EPS = 1e-5


def group_norm(x: Tensor, gamma: Tensor, beta: Tensor, groups: int) -> Tensor:
    """Group normalization over (N, C, *spatial): (x - mu) * s + beta, with
    mu and var each group's mean and (biased) variance and s = gamma /
    sqrt(var + 1e-5) one scale per (item, channel). x is centred into the
    output buffer, the only full-size array; the variance is a NumPy
    einsum of it with itself (no BLAS dot, so its bits do not depend on
    how the buffer is aligned)."""
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
    out = np.subtract(xg, mu, out=np.empty(xg.shape))
    var = np.einsum("ngm,ngm->ng", out, out)[:, :, None] / m
    inv = 1.0 / np.sqrt(var + _GN_EPS)
    out3 = out.reshape(n, c, -1)
    out3 *= (inv * gamma.data.reshape(groups, -1)).reshape(n, c, 1)
    out3 += beta.data[:, None]
    gshape = (1, c) + (1,) * len(spatial)

    def vjp(g):  # rebuilds xhat from x, mu and inv
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
        return (dxhat.reshape(x.shape), (g * d.reshape(x.shape)).sum(axis=affine_axes),
                g.sum(axis=affine_axes))

    return _record("group_norm", out.reshape(x.shape), [x, gamma, beta], vjp)


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

# A row whose exponentials sum to less than this had a shift far above its
# largest score (or a non-finite input) and is redone with its exact maximum.
_ROW_SUM_FLOOR = math.exp(-600.0)


def _attention(op: str, x: Tensor, ws: Sequence[Tensor], to_tokens, from_tokens) -> Tensor:
    """Attention over the (B, T, C) tokens `to_tokens(x.data)`; `from_tokens`
    maps (B, T, C) back to the layout of x.

    The projections, 1/sqrt(C) folded into wq, fill the first C columns of
    (B, T, C+1) buffers qa, ka and va. The last column holds minus a per-row
    shift in qa and ones in ka and va. The shift is the Cauchy-Schwarz bound
    |q_i| max_j |k_j| over the row's own batch item, at least the row's
    largest score, so each chunk of scores is passed over three times:
    qa ka^T comes out shifted, exp runs in place, and es va gives the
    unnormalised output and, in its last column, the row sums rs. A row
    whose sum falls below `_ROW_SUM_FLOOR` takes its exact maximum as its
    shift and its item is recomputed, so no item's bits depend on the
    others. The tape keeps qa (the shifts in it), ka, va, the output and rs;
    the vjp rebuilds es, bit for bit, with the same GEMM and folds the
    row-dot term -D of sum_j(dA * A) = dO . O (Dao et al., 2022) into
    dO va^T through va's ones column."""
    c = x.shape[1]
    if any(t.shape != (c, c) for t in ws):
        raise ShapeError(f"{op}: weights {[t.shape for t in ws]} vs {c} channels")
    wq, wk, wv, wo = (t.data for t in ws)
    tokens = to_tokens(x.data)
    bsz, nt, _ = tokens.shape
    flat = tokens.reshape(bsz * nt, c)
    scale = 1.0 / math.sqrt(c)
    qkv = np.empty((3, bsz * nt, c + 1))
    for a, m in zip(qkv, (wq * scale, wk, wv)):
        np.matmul(flat, m.T, out=a[:, :c])
    qkv[1:, :, c] = 1.0
    qa, ka, va = qkv.reshape(3, bsz, nt, c + 1)
    q, k = qa[..., :c], ka[..., :c]
    norms = np.einsum("nrc,nrc->nr", qkv[:2, :, :c], qkv[:2, :, :c]).reshape(2, bsz, nt)
    shift = norms[0]
    shift *= norms[1].max(axis=1, keepdims=True)
    np.sqrt(shift, out=shift)
    np.negative(shift, out=qa[..., c])
    step = max(1, _CHUNK_BYTES // (8 * nt * nt))
    chunks = [slice(i, min(i + step, bsz)) for i in range(0, bsz, step)]

    def scores(s, buf):  # one chunk's exp(qa ka^T), in `buf`
        es = np.matmul(qa[s], ka[s].transpose(0, 2, 1), out=buf[: s.stop - s.start])
        return np.exp(es, out=es)

    e = np.empty((min(step, bsz), nt, nt))
    ov = np.empty((bsz, nt, c + 1))
    for s in chunks:
        np.matmul(scores(s, e), va[s], out=ov[s])
    rs = ov[..., c:]
    if not rs.min() >= _ROW_SUM_FLOOR:  # NaN sums too
        low = ~(rs[..., 0] >= _ROW_SUM_FLOOR)
        for b in np.flatnonzero(low.any(axis=1)):
            rows = low[b]
            qa[b, rows, c] = -(q[b, rows] @ k[b].T).max(axis=1)
            np.matmul(scores(slice(b, b + 1), e), va[b:b + 1], out=ov[b:b + 1])
    o = np.divide(ov[..., :c], rs)
    rs = rs.copy()  # so the tape does not keep ov
    av = o.reshape(bsz * nt, c)

    def vjp(g):
        g2 = to_tokens(g).reshape(bsz * nt, c)
        gava = np.empty((bsz, nt, c + 1))
        gav = gava[..., :c]
        np.matmul(g2, wo, out=gava.reshape(bsz * nt, c + 1)[:, :c])
        gava[..., c] = -np.einsum("btc,btc->bt", gav, o)
        gava /= rs
        gq, gk, gv = gqkv = np.empty((3, bsz, nt, c))
        e, gs = (np.empty((min(step, bsz), nt, nt)) for _ in range(2))
        for s in chunks:
            es = scores(s, e)
            gss = np.matmul(gava[s], va[s].transpose(0, 2, 1), out=gs[: s.stop - s.start])
            gss *= es
            np.matmul(gss, k[s], out=gq[s])
            np.matmul(gss.transpose(0, 2, 1), q[s], out=gk[s])
            np.matmul(es.transpose(0, 2, 1), gav[s], out=gv[s])
        gflat = gqkv.reshape(3, bsz * nt, c)
        gx = gflat[0] @ (wq * scale)
        gx += gflat[1] @ wk
        gx += gflat[2] @ wv
        gw = np.matmul(gflat.transpose(0, 2, 1), flat)
        gw[0] *= scale
        return from_tokens(gx.reshape(bsz, nt, c)), gw[0], gw[1], gw[2], g2.T @ av

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
# op table
# ---------------------------------------------------------------------------

_OPS = {
    "add": add,
    "add_scalar": add_scalar,
    "mul_scalar": mul_scalar,
    "bias_add": bias_add,
    "relu": relu,
    "silu": silu,
    "softplus": softplus,
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
