import math
import sys
import threading
import time
import warnings
import weakref
from functools import partial

import numpy as np
import pytest

import vdmini.tensor as T
from vdmini.errors import NonScalarRootError, ShapeError, TapeError
from vdmini.optim import Adam, named_grads
from vdmini.tensor import Tape, Tensor, backward

from gradcheck import backward_matching_reference, finite_difference_check, reference_backward


def test_conv2d_all_ones_hand_value():
    x = Tensor(np.ones((1, 1, 3, 3)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    b = Tensor(np.zeros(1))
    out = T.conv2d(x, w, b, pad=0)
    assert out.shape == (1, 1, 1, 1)
    assert out.data.ravel()[0] == 9.0


def test_linear_identity_weight():
    x = Tensor(np.array([[1.0, 2.0]]))
    w = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    b = Tensor(np.zeros(2))
    assert np.array_equal(T.linear(x, w, b).data, [[1.0, 2.0]])


def test_sum_grad_is_ones():
    x = Tensor(np.random.default_rng(1).standard_normal((2, 5)), requires_grad=True)
    with Tape() as tape:
        y = T.sum_all(x)
    grads = backward(tape, y)
    assert np.array_equal(grads[x].data, np.ones((2, 5)))


def test_mse_hand_gradient():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    with Tape() as tape:
        y = T.mse(x, Tensor(np.zeros(3)))
    grads = backward(tape, y)
    assert np.allclose(grads[x].data, [2 / 3, 4 / 3, 2.0], atol=1e-15)


def test_silu_grad_at_zero_is_half():
    x = Tensor(np.zeros(()), requires_grad=True)
    with Tape() as tape:
        y = T.silu(x)
    grads = backward(tape, y)
    assert grads[x].item() == pytest.approx(0.5, abs=1e-15)


def test_backward_rejects_non_scalar_root():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = T.mul_scalar(x, 2.0)
    with pytest.raises(NonScalarRootError):
        backward(tape, y)


def test_backward_rejects_a_root_its_tape_did_not_record():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = T.sum_all(x)
    with Tape() as other:
        T.sum_all(T.silu(x))
    with pytest.raises(TapeError, match="not recorded on this tape"):
        backward(other, y)
    assert len(other.nodes) == 2  # a refused call leaves the tape as it was
    with pytest.raises(TapeError, match="constant"):
        backward(tape, T.sum_all(x))  # no tape active: recorded nowhere
    assert np.array_equal(backward(tape, y)[x].data, np.ones(3))


def test_a_second_backward_on_a_consumed_tape_raises():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = T.sum_all(T.silu(x))
    assert x in backward(tape, y)
    with pytest.raises(TapeError, match="consumed"):
        backward(tape, y)


def _shared_weight_loss(x, w, b):
    h = x
    for _ in range(5):  # w and b get five contributions each, x two
        h = T.silu(T.linear(h, w, b))
    return T.mean_all(T.add(h, x))


def test_a_weight_fed_by_several_nodes_sums_its_grads_in_walk_order():
    rng = np.random.default_rng(25)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 4)) / 2.0, requires_grad=True)
    b = Tensor(rng.standard_normal(4), requires_grad=True)
    with Tape() as tape:
        y = _shared_weight_loss(x, w, b)
    grads = backward_matching_reference(tape, y)
    assert list(grads) == [x, w, b]


def _two_part_tape(xs, w, b):
    """A tape whose parts each record `_shared_weight_loss` of one x on a
    thread of their own (part 0 on the calling thread), joined as the mean
    of the parts' losses, and that mean."""
    tapes = [Tape() for _ in xs]

    def part(tape, x):
        with tape:
            return _shared_weight_loss(x, w, b)

    losses = T.run_parts([partial(part, t, x) for t, x in zip(tapes, xs)])
    return T.join_parts(tapes, losses, [1.0 / len(xs)] * len(xs))


def _part_inputs(seed, n_parts=2):
    rng = np.random.default_rng(seed)
    w = Tensor(rng.standard_normal((4, 4)) / 2.0, requires_grad=True)
    b = Tensor(rng.standard_normal(4), requires_grad=True)
    xs = [Tensor(rng.standard_normal((3, 4)), requires_grad=True) for _ in range(n_parts)]
    return xs, w, b


def test_a_two_part_backward_keeps_the_bits_of_the_serial_reference_over_repeated_runs():
    xs, w, b = _part_inputs(30)
    tape, y = _two_part_tape(xs, w, b)
    assert [len(part.nodes) for part in tape.parts] == [12, 12] and len(tape.nodes) == 3
    want = [_bits(g.data) for g in backward_matching_reference(tape, y).values()]
    threads = threading.active_count()
    for _ in range(20):
        tape, y = _two_part_tape(xs, w, b)
        grads = backward(tape, y)
        assert list(grads) == [xs[0], w, b, xs[1]]
        assert [_bits(g.data) for g in grads.values()] == want
        assert tape.nodes == [] and all(part.nodes == [] for part in tape.parts)
    assert threading.active_count() == threads


def test_concurrent_backwards_keep_the_bits_of_the_serial_reference():
    # more threads than cores, switching between them as often as possible;
    # each thread's backward walks a part of its tape on a thread of its own
    _, w, b = _part_inputs(29)
    xs = [_part_inputs(31 + i)[0] for i in range(4)]  # a pair of inputs per thread
    want = []
    for pair in xs:
        tape, y = _two_part_tape(pair, w, b)
        want.append([_bits(g.data) for g in reference_backward(tape, y).values()])
    mismatches, runs = [], []

    def work(i):
        for _ in range(20):
            tape, y = _two_part_tape(xs[i], w, b)
            if [_bits(g.data) for g in backward(tape, y).values()] != want[i]:
                mismatches.append(i)
            runs.append(i)

    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(i,)) for i in range(len(xs))]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert len(runs) == 20 * len(xs) and mismatches == []
    assert threading.active_count() == threads


def test_the_part_walk_sums_each_leaf_in_part_order():
    # w reaches the root through the tape's own nodes as well as through
    # both parts: its own contribution comes first, then each part's sum
    xs, w, b = _part_inputs(32)
    tape, y = _two_part_tape(xs, w, b)
    with tape:
        y = T.add(y, T.mean_all(T.linear(xs[1], w)))
    grads = backward_matching_reference(tape, y)
    assert list(grads) == [xs[1], w, xs[0], b]


def test_backward_refuses_a_part_tape_it_cannot_walk():
    xs, w, b = _part_inputs(33)
    tape, y = _two_part_tape(xs, w, b)
    with Tape() as other:
        T.sum_all(T.silu(xs[0]))
    with pytest.raises(TapeError, match="not recorded on this tape"):
        backward(Tape([other]), y)
    with pytest.raises(TapeError, match="constant"):
        backward(tape, T.sum_all(xs[0]))  # no tape active: recorded nowhere
    part_root = tape.parts[1].nodes[-1][1]  # a root recorded on a part
    assert list(backward_matching_reference(tape, part_root)) == [xs[1], w, b]
    with pytest.raises(TapeError, match="consumed"):
        backward(Tape([Tape(), tape.parts[0]]), y)


def test_an_error_on_a_part_thread_is_raised_once_both_threads_have_stopped(monkeypatch):
    unhandled = []
    monkeypatch.setattr(threading, "excepthook", unhandled.append)
    xs, w, b = _part_inputs(27)
    tape, y = _two_part_tape(xs, w, b)
    calls = []

    def failing(g):
        calls.append(threading.current_thread() is threading.main_thread())
        raise ShapeError("part gradient")

    def counted(vjp):
        def wrapped(g):
            calls.append("part 0")
            return vjp(g)
        return wrapped

    tape.parts[1].nodes[0][0].vjp = failing  # the last node part 1 walks
    first = tape.parts[0].nodes[0][0]
    first.vjp = counted(first.vjp)  # and part 0's
    threads = threading.active_count()
    with pytest.raises(ShapeError, match="part gradient"):
        backward(tape, y)
    assert threading.active_count() == threads
    assert sorted(calls, key=str) == [False, "part 0"] and unhandled == []
    # and in `run_parts` alone: part 0's error, once part 1 has finished
    ran = []

    def fails():
        raise ShapeError("part 0")

    def slow():
        time.sleep(0.05)
        ran.append(1)

    with pytest.raises(ShapeError, match="part 0"):
        T.run_parts([fails, slow])
    assert ran == [1] and threading.active_count() == threads and unhandled == []


def test_a_requires_grad_leaf_root_has_gradient_one():
    x = Tensor(np.array(0.5), requires_grad=True)
    with Tape() as tape:
        T.silu(x)
    grads = backward_matching_reference(tape, x)
    assert list(grads) == [x] and grads[x].data.tobytes() == np.float64(1.0).tobytes()
    assert tape.nodes == []


def test_backward_empties_the_tape_and_frees_what_only_it_held():
    x = Tensor(np.random.default_rng(26).standard_normal((4, 5)), requires_grad=True)
    with Tape() as tape:
        h = T.silu(x)  # a branch the root does not use
        y = T.mean_all(T.silu(x))
    held = weakref.ref(h.data)
    del h
    grads = backward(tape, y)
    assert tape.nodes == []
    assert held() is None
    assert grads[x].shape == x.shape


def test_finite_difference_quadratic_is_tight():
    x = Tensor(np.random.default_rng(0).standard_normal(6))
    report = finite_difference_check(lambda t: T.mse(t, Tensor(np.zeros(6))), x, eps=1e-5)
    assert report.max_rel_err <= 1e-6


def test_finite_difference_constant_function():
    x = Tensor(np.random.default_rng(2).standard_normal(4))
    report = finite_difference_check(lambda t: T.mul_scalar(T.sum_all(t), 0.0), x)
    assert report.max_rel_err == 0.0
    assert np.array_equal(report.analytic, np.zeros(4))


def test_named_grads_omits_parameters_the_tape_never_reached():
    used = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    unused = Tensor(np.ones(2), requires_grad=True)
    with Tape() as tape:
        y = T.mse(used, Tensor(np.zeros(2)))
    grads = backward(tape, y)
    named = named_grads({"used": used, "unused": unused}, grads)
    assert list(named) == ["used"]
    assert named["used"] is grads[used]
    assert np.array_equal(named["used"].data, [1.0, -2.0])


def test_shape_errors_are_typed():
    with pytest.raises(ShapeError):
        T.add(Tensor(np.ones(2)), Tensor(np.ones(3)))
    with pytest.raises(ShapeError):
        T.mse(Tensor(np.ones((2, 2))), Tensor(np.ones(4)))
    with pytest.raises(ShapeError):
        T.attention_spatial(Tensor(np.ones((2, 3, 4, 4))), *[Tensor(np.ones((3, 4)))] * 4)
    for axis, x in ((1, np.ones((2, 4, 3))), (1, np.ones(3)), (0, np.ones((3, 3)))):
        with pytest.raises(ShapeError):
            T.linear(Tensor(x), Tensor(np.ones((2, 3))), axis=axis)


def test_tensors_are_immutable():
    x = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        x.data[0] = 5.0


def test_softmax_rows_sum_to_one():
    # x50 logits: without the max shift the exponentials overflow
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3, 5, 6))
    ws = [rng.standard_normal((3, 3)) * (50.0 if i == 0 else 0.5) for i in range(4)]
    got = T.attention_spatial(Tensor(x), *(Tensor(w) for w in ws)).data
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got, _attention_spatial_loop(x, ws), rtol=1e-12, atol=1e-12)


def test_mca_style_ops_unit_values():
    zero = Tensor(np.zeros(()))
    assert T.softplus(zero).item() == pytest.approx(math.log(2.0), abs=1e-15)
    assert T.relu(Tensor(np.array(-3.0))).item() == 0.0
    assert T.relu(Tensor(np.array(3.0))).item() == 3.0


def test_ops_do_not_record_without_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    y = T.silu(x)
    assert y.node is None


def test_a_tape_records_only_the_ops_of_its_own_thread():
    # more threads than cores, switching between them as often as possible
    x = Tensor(np.ones(3), requires_grad=True)
    n_threads, n_ops = 4, 200
    seen = {}

    def work(i):
        seen[i, "current"] = Tape.current()
        with Tape() as own:
            for _ in range(n_ops):
                T.silu(x)
        seen[i, "nodes"] = len(own.nodes)
        seen[i, "after"] = T.silu(x).node

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Tape() as tape:
            workers = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
            assert not any(w.is_alive() for w in workers)
            assert Tape.current() is tape
    finally:
        sys.setswitchinterval(interval)
    assert tape.nodes == []
    for i in range(n_threads):
        assert seen[i, "current"] is None
        assert seen[i, "nodes"] == n_ops
        assert seen[i, "after"] is None


def test_eps_domain_is_validated():
    x = Tensor(np.ones(2))
    with pytest.raises(ValueError):
        finite_difference_check(lambda t: T.sum_all(t), x, eps=0.5)


def _grad_cases():
    """(name, op closure over its inputs, inputs) for every input of each
    single-GEMM convolution, the channel form of `linear` and each one-node
    attention."""
    rng = np.random.default_rng(7)
    c = lambda *s: rng.standard_normal(s)
    x, w2, w1, b = c(2, 3, 5, 6), c(4, 3, 3, 3), c(4, 3, 3), c(4)
    ws = [c(3, 3) / 2.0 for _ in range(4)]
    return [
        ("conv2d stride 1", lambda *a: T.conv2d(*a, stride=1, pad=1), [x, w2, b]),
        ("conv2d k3 p0", lambda *a: T.conv2d(*a, pad=0), [x, w2, b]),
        ("conv2d k1 p0", lambda *a: T.conv2d(*a, pad=0), [x, w2[:, :, :1, :1], b]),
        ("conv2d k1 p1", lambda *a: T.conv2d(*a, pad=1), [x, w2[:, :, :1, :1], b]),
        ("conv2d stride 2", lambda *a: T.conv2d(*a, stride=2, pad=1), [x, w2, b]),
        ("conv2d o > 2c", lambda *a: T.conv2d(*a, pad=1), [x, c(7, 3, 3, 3), c(7)]),
        ("conv1d_frames", lambda *a: T.conv1d_frames(*a, pad=1), [x, w1, b]),
        ("linear channels", lambda *a: T.linear(*a, axis=1), [x, c(4, 3), b]),
        ("attention_spatial", T.attention_spatial, [x] + ws),
        ("attention_temporal", T.attention_temporal, [x] + ws),
    ]


_GRAD_CASES = _grad_cases()


@pytest.mark.parametrize("name,op,inputs", _GRAD_CASES, ids=[case[0] for case in _GRAD_CASES])
def test_single_node_ops_gradients_for_every_input(name, op, inputs):
    tensors = [Tensor(a) for a in inputs]
    with Tape() as tape:
        out = op(*[Tensor(a, requires_grad=True) for a in inputs])
    assert len(tape.nodes) == 1 and tape.nodes[0][0].op == name.split()[0]
    probe = Tensor(np.random.default_rng(8).standard_normal(out.shape))
    for i in range(len(inputs)):
        def f(t, i=i):
            args = tensors[:i] + [t] + tensors[i + 1:]
            return T.mse(op(*args), probe)
        report = finite_difference_check(f, tensors[i])
        assert report.max_rel_err <= 1e-7, f"{name} input {i}: {report}"


def test_single_gemm_ops_match_loop_references():
    rng = np.random.default_rng(9)
    x, w2, w1, b = (rng.standard_normal(s) for s in ((2, 3, 5, 6), (4, 3, 3, 3), (4, 3, 3), (4,)))
    ws = [rng.standard_normal((3, 3)) / 2.0 for _ in range(4)]
    for stride in (1, 2):
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        ho, wo = (5 + 2 - 3) // stride + 1, (6 + 2 - 3) // stride + 1
        want = np.zeros((2, 4, ho, wo)) + b[None, :, None, None]
        for i in range(3):
            for j in range(3):
                patch = xp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
                want += np.tensordot(w2[:, :, i, j], patch, axes=(1, 1)).transpose(1, 0, 2, 3)
        got = T.conv2d(Tensor(x), Tensor(w2), Tensor(b), stride=stride, pad=1).data
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    xp = np.pad(x, ((1, 1), (0, 0), (0, 0), (0, 0)))
    want = np.stack([sum(np.tensordot(w1[:, :, i], xp[t + i], axes=(1, 0)) for i in range(3))
                     + b[:, None, None] for t in range(2)])
    got = T.conv1d_frames(Tensor(x), Tensor(w1), Tensor(b), pad=1).data
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    temporal = np.empty_like(x)
    for i in range(5):
        for j in range(6):
            temporal[:, :, i, j] = _attend_loop(x[:, :, i, j], ws)
    for op, want in ((T.attention_spatial, _attention_spatial_loop(x, ws)),
                     (T.attention_temporal, temporal)):
        got = op(Tensor(x), *(Tensor(w) for w in ws)).data
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def _attend_loop(tokens, ws):  # (T, C) -> (T, C)
    wq, wk, wv, wo = ws
    scores = (tokens @ wq.T) @ (tokens @ wk.T).T / math.sqrt(tokens.shape[1])
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)) @ (tokens @ wv.T) @ wo.T


def _attention_spatial_loop(x, ws):
    f, c, h, w = x.shape
    return np.stack([_attend_loop(x[i].reshape(c, h * w).T, ws).T.reshape(c, h, w) for i in range(f)])


# ---------------------------------------------------------------------------
# each hot kernel equals, bit for bit, the plain NumPy expressions of its own
# math; where that math was rewritten (the stride-1 conv2d vjp, attention,
# the per-frame GEMMs of the convolutions and of linear's channel form, SiLU
# as a quotient and group norm's folded scale), the expressions it replaced
# stay as a second reference, equal to round-off
# ---------------------------------------------------------------------------

def _sigmoid_ref(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _silu_ref(x):
    with np.errstate(over="ignore"):
        d = 1.0 + np.exp(-x)
    out = x / d
    return out, lambda g: (g * (1.0 / d + out * (1.0 - 1.0 / d)),)


def _silu_parent_ref(x):
    s = _sigmoid_ref(x)
    return x * s, lambda g: (g * (s + x * s * (1.0 - s)),)


def _softplus_ref(x):
    s = _sigmoid_ref(x)
    return np.logaddexp(0.0, x), lambda g: (g * s,)


def _group_norm_ref(x, gamma, beta, groups, eps=1e-5):
    """(x - mu) times one gamma * inv per (item, channel), plus beta."""
    n, c = x.shape[:2]
    xg = x.reshape(n, groups, -1)
    mu = xg.mean(axis=2, keepdims=True)
    d = xg - mu
    var = np.einsum("ngm,ngm->ng", d, d)[:, :, None] / xg.shape[2]
    inv = 1.0 / np.sqrt(var + eps)
    scale = (inv * gamma.reshape(groups, -1)).reshape(n, c, 1)
    out = (d.reshape(n, c, -1) * scale + beta[:, None]).reshape(x.shape)
    return out, _group_norm_vjp(x, gamma, groups, mu, inv)


def _group_norm_parent_ref(x, gamma, beta, groups, eps=1e-5):
    n, c = x.shape[:2]
    xg = x.reshape(n, groups, -1)
    mu = xg.mean(axis=2, keepdims=True)
    var = xg.var(axis=2, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = ((xg - mu) * inv).reshape(x.shape)
    gshape = (1, c) + (1,) * (x.ndim - 2)
    out = xhat * gamma.reshape(gshape) + beta.reshape(gshape)
    return out, _group_norm_vjp(x, gamma, groups, mu, inv)


def _group_norm_vjp(x, gamma, groups, mu, inv):
    n, c = x.shape[:2]
    xhat = ((x.reshape(n, groups, -1) - mu) * inv).reshape(x.shape)
    gshape = (1, c) + (1,) * (x.ndim - 2)

    def vjp(g):
        affine_axes = (0,) + tuple(range(2, x.ndim))
        ggamma = (g * xhat).sum(axis=affine_axes)
        gbeta = g.sum(axis=affine_axes)
        dxhat = (g * gamma.reshape(gshape)).reshape(n, groups, -1)
        xh = xhat.reshape(n, groups, -1)
        t1 = dxhat.mean(axis=2, keepdims=True)
        t2 = (dxhat * xh).mean(axis=2, keepdims=True)
        gx = (inv * (dxhat - t1 - xh * t2)).reshape(x.shape)
        return gx, ggamma, gbeta

    return vjp


def _conv2d_parent_ref(x, w, b=None, stride=1, pad=0):
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride].transpose(1, 4, 5, 0, 2, 3)
    cols = np.ascontiguousarray(win).reshape(c * kh * kw, n * ho * wo)
    w2 = w.reshape(o, c * kh * kw)
    out = w2 @ cols
    if b is not None:
        out += b[:, None]

    def vjp(g):
        g2 = g.transpose(1, 0, 2, 3).reshape(o, n * ho * wo)
        gw = (g2 @ cols.T).reshape(w.shape)
        gcols = (w2.T @ g2).reshape(c, kh, kw, n, ho, wo).transpose(3, 0, 1, 2, 4, 5)
        gxp = np.zeros(xp.shape)
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += gcols[:, :, i, j]
        grads = [gxp[:, :, pad:pad + h, pad:pad + wd], gw]
        return tuple(grads + ([g2.sum(axis=1)] if b is not None else []))

    return out.reshape(o, n, ho, wo).transpose(1, 0, 2, 3), vjp


def _conv2d_ref(x, w, b=None, stride=1, pad=0):
    """One GEMM per frame: the kernel times that frame's (C*kh*kw, Ho*Wo)
    columns. For stride 1, pad < k and O <= 2C, both gradients come from one
    column matrix of g zero-padded by k-1-pad: gx through the flipped,
    transposed kernel, gw as x times its transpose, flipped back. Other
    convs keep `_conv2d_parent_ref`'s vjp."""
    _, parent_vjp = _conv2d_parent_ref(x, w, b, stride, pad)
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    cols = np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3)).reshape(n, c * kh * kw, ho * wo)
    out = np.stack([w.reshape(o, -1) @ cols[i] for i in range(n)])
    if b is not None:
        out += b[:, None]
    out = out.reshape(n, o, ho, wo)
    if stride != 1 or pad >= min(kh, kw) or o > 2 * c:
        return out, parent_vjp

    def vjp(g):
        g2 = g.transpose(1, 0, 2, 3)
        gp = np.pad(g2, ((0, 0), (0, 0), (kh - 1 - pad,) * 2, (kw - 1 - pad,) * 2))
        win = np.lib.stride_tricks.sliding_window_view(gp, (kh, kw), axis=(2, 3))
        cols = np.ascontiguousarray(win.transpose(0, 4, 5, 1, 2, 3)).reshape(o * kh * kw, n * h * wd)
        wflip = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, o * kh * kw)
        gx = (wflip @ cols).reshape(c, n, h, wd).transpose(1, 0, 2, 3)
        gw = (x.transpose(1, 0, 2, 3).reshape(c, n * h * wd) @ cols.T).reshape(c, o, kh, kw)
        grads = [gx, gw.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]]
        return tuple(grads + ([g2.reshape(o, -1).sum(axis=1)] if b is not None else []))

    return out, vjp


def _conv1d_ref(x, w, b, pad):
    """One GEMM per output frame, over (C*k, H*W) columns; the vjp is
    `_conv1d_parent_ref`'s."""
    f, c, h, wd = x.shape
    o, _, k = w.shape
    fo = f + 2 * pad - k + 1
    xp = np.pad(x, ((pad, pad), (0, 0), (0, 0), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, k, axis=0)  # (Fo, C, H, W, k)
    cols = np.ascontiguousarray(win.transpose(0, 1, 4, 2, 3)).reshape(fo, c * k, h * wd)
    out = np.stack([w.reshape(o, c * k) @ cols[i] for i in range(fo)]) + b[:, None]
    return out.reshape(fo, o, h, wd), _conv1d_parent_ref(x, w, b, pad)[1]


def _conv1d_parent_ref(x, w, b, pad):
    f, c, h, wd = x.shape
    o, _, k = w.shape
    fo = f + 2 * pad - k + 1
    xp = np.pad(x, ((pad, pad), (0, 0), (0, 0), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, k, axis=0)
    cols = np.ascontiguousarray(win.transpose(1, 4, 0, 2, 3)).reshape(c * k, fo * h * wd)
    w2 = w.reshape(o, c * k)
    out = w2 @ cols + b[:, None]

    def vjp(g):
        g2 = g.transpose(1, 0, 2, 3).reshape(o, fo * h * wd)
        gw = (g2 @ cols.T).reshape(w.shape)
        gcols = (w2.T @ g2).reshape(c, k, fo, h, wd).transpose(2, 0, 1, 3, 4)
        gxp = np.zeros(xp.shape)
        for i in range(k):
            gxp[i:i + fo] += gcols[:, :, i]
        return gxp[pad:pad + f], gw, g2.sum(axis=1)

    return out.reshape(o, fo, h, wd).transpose(1, 0, 2, 3), vjp


def _linear_channels_ref(x, w, b):
    """w @ x[i] + b for each item i of (N, K, *spatial)."""
    n, k = x.shape[:2]
    x3 = x.reshape(n, k, -1)
    out = np.stack([w @ x3[i] + b[:, None] for i in range(n)]).reshape((n, -1) + x.shape[2:])

    def vjp(g):
        g3 = g.reshape(n, w.shape[0], -1)
        gw = g3[0] @ x3[0].T
        for i in range(1, n):
            gw = gw + g3[i] @ x3[i].T
        return (np.stack([w.T @ g3[i] for i in range(n)]).reshape(x.shape), gw,
                g3.sum(axis=(0, 2)))

    return out, vjp


def _linear_channels_parent_ref(x, w, b):
    """The tokens form between two transposes, as the attention MLP ran it."""
    tokens = np.ascontiguousarray(x.transpose(0, 2, 3, 1))
    out = tokens @ w.T + b

    def vjp(g):
        gt = g.transpose(0, 2, 3, 1)
        return ((gt @ w).transpose(0, 3, 1, 2), np.tensordot(gt, tokens, axes=((0, 1, 2), (0, 1, 2))),
                gt.sum(axis=(0, 1, 2)))

    return out.transpose(0, 3, 1, 2), vjp


def _attention_ref(x, wq, wk, wv, wo, to_tokens, from_tokens):
    """The scale folded into wq; q, k and v with one more column: minus the
    row's shift |q_i| max_j |k_j| in q, ones in k and v, so the scores come
    out shifted and the value GEMM gives the row sums rs in its last column;
    the vjp's row-dot term D = (dO * O).sum(-1) rides in dO's extra column."""
    c = x.shape[1]
    tokens = to_tokens(x)
    bsz, nt, _ = tokens.shape
    flat = tokens.reshape(bsz * nt, c)
    scale = 1.0 / math.sqrt(c)
    w = np.stack([wq * scale, wk, wv])
    q, k, v = ((flat @ m.T).reshape(bsz, nt, c) for m in w)
    shift = np.sqrt(np.einsum("btc,btc->bt", q, q)
                    * np.einsum("btc,btc->bt", k, k).max(axis=1, keepdims=True))
    ones = np.ones((bsz, nt, 1))
    qa = np.concatenate([q, -shift[..., None]], axis=-1)
    ka, va = np.concatenate([k, ones], axis=-1), np.concatenate([v, ones], axis=-1)
    e = np.exp(qa @ ka.transpose(0, 2, 1))
    ov = e @ va
    rs = ov[..., c:]
    o = ov[..., :c] / rs
    av = o.reshape(bsz * nt, c)

    def vjp(g):
        g2 = to_tokens(g).reshape(bsz * nt, c)
        gwo = g2.T @ av
        gav = (g2 @ wo).reshape(bsz, nt, c)
        d = np.einsum("btc,btc->bt", gav, o)[..., None]
        gava = np.concatenate([gav, -d], axis=-1) / rs
        gs = (gava @ va.transpose(0, 2, 1)) * e
        gq = (gs @ k).reshape(bsz * nt, c)
        gk = (gs.transpose(0, 2, 1) @ q).reshape(bsz * nt, c)
        gv = (e.transpose(0, 2, 1) @ gava[..., :c]).reshape(bsz * nt, c)
        gx = gq @ w[0] + gk @ w[1] + gv @ w[2]
        return (from_tokens(gx.reshape(bsz, nt, c)),
                (gq.T @ flat) * scale, gk.T @ flat, gv.T @ flat, gwo)

    return from_tokens((av @ wo.T).reshape(bsz, nt, c)), vjp


def _attention_parent_ref(x, wq, wk, wv, wo, to_tokens, from_tokens):
    """Exact-max softmax: scale folded into q, scores shifted by their row
    maxima; the output normalised by the row sums rs of the exponentials e;
    the vjp by the row-dot identity D = (dO * O).sum(-1)."""
    c = x.shape[1]
    tokens = to_tokens(x)
    bsz, nt, _ = tokens.shape
    flat = tokens.reshape(bsz * nt, c)
    q, k, v = ((flat @ m.T).reshape(bsz, nt, c) for m in (wq, wk, wv))
    scale = 1.0 / math.sqrt(c)
    q = q * scale
    z = q @ k.transpose(0, 2, 1)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    rs = e.sum(axis=-1, keepdims=True)
    o = (e @ v) / rs
    av = o.reshape(bsz * nt, c)

    def vjp(g):
        g2 = to_tokens(g).reshape(bsz * nt, c)
        gwo = g2.T @ av
        gav = (g2 @ wo).reshape(bsz, nt, c)
        d = (gav * o).sum(axis=-1, keepdims=True) / rs
        gav = gav / rs
        gs = (gav @ v.transpose(0, 2, 1) - d) * e
        gq = ((gs @ k) * scale).reshape(bsz * nt, c)
        gk = (gs.transpose(0, 2, 1) @ q).reshape(bsz * nt, c)
        gv = (e.transpose(0, 2, 1) @ gav).reshape(bsz * nt, c)
        gx = gq @ wq + gk @ wk + gv @ wv
        return (from_tokens(gx.reshape(bsz, nt, c)),
                gq.T @ flat, gk.T @ flat, gv.T @ flat, gwo)

    return from_tokens((av @ wo.T).reshape(bsz, nt, c)), vjp


def _spatial_tokens(x):
    f, c, h, w = x.shape
    return (lambda a: a.reshape(f, c, h * w).transpose(0, 2, 1),
            lambda t: t.transpose(0, 2, 1).reshape(f, c, h, w))


def _temporal_tokens(x):
    f, c, h, w = x.shape
    return (lambda a: a.reshape(f, c, h * w).transpose(2, 0, 1),
            lambda t: t.transpose(1, 2, 0).reshape(f, c, h, w))


def _bits(a):
    """Shape and bytes: equal bits, so -0.0 differs from 0.0."""
    return np.shape(a), np.asarray(a, dtype=np.float64).tobytes()


def _kernel_cases():
    rng = np.random.default_rng(17)
    r = lambda *s: rng.standard_normal(s)
    extremes = np.array([-1000.0, -50.0, -0.0, 0.0, 50.0, 1000.0])
    cases = []
    for name, op, ref in (("silu", T.silu, _silu_ref), ("softplus", T.softplus, _softplus_ref)):
        for x in (np.array(0.7), r(2, 3, 4, 4), extremes):
            cases.append((f"{name} {x.shape}", op, ref, [x], {}))
    x, gamma, beta = r(2, 4, 3, 5), r(4), r(4)
    for groups in (1, 2):
        cases.append((f"group_norm {groups}", T.group_norm, _group_norm_ref, [x, gamma, beta],
                      {"groups": groups}))
    x = r(2, 3, 6, 5)
    for k in (1, 3):
        for stride in (1, 2):
            for pad in (0, 1):
                for bias in (True, False):
                    args = [x, r(4, 3, k, k)] + ([r(4)] if bias else [])
                    cases.append((f"conv2d k{k} s{stride} p{pad} b{int(bias)}", T.conv2d, _conv2d_ref,
                                  args, {"stride": stride, "pad": pad}))
    for pad in (0, 1):
        cases.append((f"conv1d_frames p{pad}", T.conv1d_frames, _conv1d_ref,
                      [r(4, 3, 2, 3), r(5, 3, 3), r(5)], {"pad": pad}))
    cases.append(("linear channels", lambda *a: T.linear(*a, axis=1), _linear_channels_ref,
                  [r(3, 4, 3, 5), r(6, 4), r(6)], {}))
    x, ws = r(3, 4, 3, 2), [r(4, 4) / 2.0 for _ in range(4)]
    for name, op, tokens in (("attention_spatial", T.attention_spatial, _spatial_tokens),
                             ("attention_temporal", T.attention_temporal, _temporal_tokens)):
        cases.append((name, op, lambda *a, t=tokens: _attention_ref(*a, *t(a[0])), [x] + ws, {}))
    # O > 2C: the stride-1 conv keeps the two-matrix vjp
    cases.append(("conv2d k3 s1 p1 o7", T.conv2d, _conv2d_ref, [r(2, 3, 6, 5), r(7, 3, 3, 3), r(7)],
                  {"stride": 1, "pad": 1}))
    for frames in (1, 2):  # FAST_PIPELINE's videos are 2 frames long
        cases.append((f"attention_temporal T{frames}", T.attention_temporal,
                      lambda *a: _attention_ref(*a, *_temporal_tokens(a[0])),
                      [r(frames, 4, 3, 2)] + ws, {}))
    return cases


_KERNEL_CASES = _kernel_cases()

_PARENT_REFS = {
    "silu": _silu_parent_ref,
    "group_norm": _group_norm_parent_ref,
    "conv2d": _conv2d_parent_ref,
    "conv1d_frames": _conv1d_parent_ref,
    "linear": _linear_channels_parent_ref,
    "attention_spatial": lambda *a: _attention_parent_ref(*a, *_spatial_tokens(a[0])),
    "attention_temporal": lambda *a: _attention_parent_ref(*a, *_temporal_tokens(a[0])),
}
# the cases whose math changed: all but softplus; at T = 1 the softmax is
# constant, so the q and k weight gradients of both forms are round-off
# around zero, with no relative accuracy to compare
_REWRITTEN_CASES = [case for case in _KERNEL_CASES
                    if case[0].split()[0] in _PARENT_REFS and case[0] != "attention_temporal T1"]


def _g_layouts(shape):
    """A C-order g and one with permuted strides, both read-only."""
    g = np.random.default_rng(18).standard_normal(shape)
    gs = [g]
    if g.ndim == 4:
        gs.append(np.ascontiguousarray(g.transpose(2, 0, 3, 1)).transpose(1, 3, 0, 2))
    for a in gs:
        a.flags.writeable = False
    return gs


@pytest.mark.parametrize("name,op,ref,inputs,kw", _KERNEL_CASES, ids=[c[0] for c in _KERNEL_CASES])
def test_kernels_match_parent_expressions_bitwise(name, op, ref, inputs, kw):
    with Tape() as tape:
        out = op(*[Tensor(a, requires_grad=True) for a in inputs], **kw)
    (node, _), = tape.nodes
    want, want_vjp = ref(*inputs, **kw)
    assert _bits(out.data) == _bits(want)
    # a vjp that wrote into g, or into what it keeps, would differ on the second call
    for g in _g_layouts(out.shape):
        first = [_bits(a) for a in node.vjp(g)]
        assert [_bits(a) for a in want_vjp(g)] == first
        assert [_bits(a) for a in node.vjp(g)] == first


@pytest.mark.parametrize("name,op,ref,inputs,kw", _REWRITTEN_CASES, ids=[c[0] for c in _REWRITTEN_CASES])
def test_rewritten_kernels_match_the_expressions_they_replaced(name, op, ref, inputs, kw):
    with Tape() as tape:
        out = op(*[Tensor(a, requires_grad=True) for a in inputs], **kw)
    (node, _), = tape.nodes
    want, want_vjp = _PARENT_REFS[name.split()[0]](*inputs, **kw)
    np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    for g in _g_layouts(out.shape):
        for got, want in zip(node.vjp(g), want_vjp(g), strict=True):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())


@pytest.mark.parametrize("op", [T.attention_spatial, T.attention_temporal])
def test_attention_chunks_do_not_change_a_bit(op, monkeypatch):
    rng = np.random.default_rng(21)
    x, ws = rng.standard_normal((5, 4, 3, 2)), [rng.standard_normal((4, 4)) / 2.0 for _ in range(4)]

    def run():
        with Tape() as tape:
            out = op(Tensor(x, requires_grad=True), *(Tensor(w, requires_grad=True) for w in ws))
        node = tape.nodes[0][0]
        return [_bits(out.data)] + [_bits(a) for g in _g_layouts(out.shape) for a in node.vjp(g)]

    whole = run()  # every batch item fits in one default-sized chunk
    batch, tokens = (5, 6) if op is T.attention_spatial else (6, 5)
    for per_chunk in (1, 2):  # 5 or 6 chunks, then 3 with a short last one
        monkeypatch.setattr(T, "_CHUNK_BYTES", per_chunk * 8 * tokens * tokens)
        assert -(-batch // per_chunk) >= 3
        assert run() == whole


@pytest.mark.parametrize("op,shape", [(T.attention_spatial, (16, 2, 8, 8)),
                                      (T.attention_temporal, (64, 2, 4, 4))])
def test_untaped_attention_keeps_one_chunk_of_scores(op, shape, monkeypatch, traced_peak):
    rng = np.random.default_rng(22)
    x, ws = rng.standard_normal(shape), [rng.standard_normal((2, 2)) for _ in range(4)]
    g = rng.standard_normal(shape)
    batch, tokens = 16, 64
    monkeypatch.setattr(T, "_CHUNK_BYTES", 8 * tokens * tokens)  # one batch item per chunk
    leaves = [Tensor(x, requires_grad=True)] + [Tensor(w, requires_grad=True) for w in ws]

    def forward_and_vjp():
        with Tape() as tape:
            out = op(*leaves)
        return out, tape.nodes[0][0].vjp(g)

    (taped, _), taped_peak = traced_peak(forward_and_vjp)
    inputs = [Tensor(x)] + [Tensor(w) for w in ws]
    untaped, peak = traced_peak(lambda: op(*inputs))
    assert untaped.node is None and _bits(untaped.data) == _bits(taped.data)
    scores = batch * tokens * tokens * 8  # the whole (B, T, T) scores
    assert peak < scores, peak
    assert taped_peak < scores, taped_peak


def _forced_fallback(op, x):
    """x with one token of every attention item scaled by 300 (its k norm
    near 1e3): that k sets the shift of every row of its item, and the rows
    whose largest score lies more than 600 below that bound fall back."""
    x = x.copy()
    if op is T.attention_spatial:
        x[:, :, 0, 0] *= 300.0
    else:
        x[0] *= 300.0
    return x


def _row_gaps(op, x, ws):
    """Each row's shift |q_i| max_j |k_j| minus its largest score."""
    to_tokens = (_spatial_tokens if op is T.attention_spatial else _temporal_tokens)(x)[0]
    tokens = to_tokens(x)
    q = tokens @ ws[0].T / math.sqrt(x.shape[1])
    k = tokens @ ws[1].T
    bound = np.linalg.norm(q, axis=-1) * np.linalg.norm(k, axis=-1).max(axis=1, keepdims=True)
    return bound - (q @ k.transpose(0, 2, 1)).max(axis=-1)


@pytest.mark.parametrize("op", [T.attention_spatial, T.attention_temporal])
def test_rows_under_the_floor_match_the_exact_max_softmax(op):
    rng = np.random.default_rng(26)
    x = _forced_fallback(op, rng.standard_normal((3, 4, 3, 2)))
    ws = [rng.standard_normal((4, 4)) / 2.0 for _ in range(4)]
    gaps = _row_gaps(op, x, ws)
    # rows whose sum is surely under e^-600, and rows that keep their bound
    assert (gaps > 600.0 + math.log(gaps.shape[1])).any() and (gaps < 500.0).any()
    with Tape() as tape:
        out = op(*[Tensor(a, requires_grad=True) for a in [x] + ws])
    want, want_vjp = _PARENT_REFS[op.__name__](x, *ws)
    np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    for g in _g_layouts(out.shape):
        for got, want in zip(tape.nodes[0][0].vjp(g), want_vjp(g), strict=True):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())


@pytest.mark.parametrize("op", [T.attention_spatial, T.attention_temporal])
def test_a_nan_input_gives_nan_outputs_without_a_warning(op):
    rng = np.random.default_rng(27)
    x, ws = rng.standard_normal((3, 4, 3, 2)), [rng.standard_normal((4, 4)) / 2.0 for _ in range(4)]
    x[1, 2, 1, 0] = np.nan
    g = rng.standard_normal(x.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with Tape() as tape:
            out = op(*[Tensor(a, requires_grad=True) for a in [x] + ws])
        grads = tape.nodes[0][0].vjp(g)
    want, want_vjp = _PARENT_REFS[op.__name__](x, *ws)
    assert np.isnan(out.data).any() and np.isfinite(out.data).any()
    for got, want in zip([out.data, *grads], [want, *want_vjp(g)], strict=True):
        nan = np.isnan(want)
        assert (np.isnan(got) == nan).all()
        np.testing.assert_allclose(got[~nan], want[~nan], rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("op", [T.attention_spatial, T.attention_temporal])
def test_a_fallback_item_leaves_the_bits_of_the_items_beside_it(op):
    rng = np.random.default_rng(28)
    forced = _forced_fallback(op, rng.standard_normal((2, 4, 3, 2)))
    plain = rng.standard_normal((2, 4, 3, 2))
    ws = [rng.standard_normal((4, 4)) / 2.0 for _ in range(4)]
    assert (_row_gaps(op, forced, ws) > 610.0).any()
    # spatial items are frames; temporal ones are sites within one video
    kw = (lambda n: {}) if op is T.attention_spatial else (lambda n: {"videos": n})

    def run(x, n):
        with Tape() as tape:
            out = op(Tensor(x, requires_grad=True), *(Tensor(w) for w in ws), **kw(n))
        return out.data, tape.nodes[0][0].vjp(np.ones(x.shape))[0]

    out, gx = run(np.concatenate([forced, plain]), 2)
    for part, alone in ((slice(0, 2), forced), (slice(2, 4), plain)):
        alone_out, alone_gx = run(alone, 1)
        assert _bits(out[part]) == _bits(alone_out)
        assert _bits(gx[part]) == _bits(alone_gx)


def _taped(op, *inputs, **kw):
    with Tape() as tape:
        out = op(*inputs, **kw)
    return tape, out


def test_taped_group_norm_keeps_its_output_and_the_group_statistics(traced_kept):
    rng = np.random.default_rng(23)
    n, groups = 2, 4
    x = Tensor(rng.standard_normal((n, 8, 32, 32)), requires_grad=True)
    gamma, beta = Tensor(rng.standard_normal(8)), Tensor(rng.standard_normal(8))
    (tape, out), kept = traced_kept(lambda: _taped(T.group_norm, x, gamma, beta, groups=groups))
    # mu and inv are (n, groups, 1), and the tape's Python objects take a few
    # KiB; a second full-size array would be another out.data.nbytes (128 KiB)
    assert kept < out.data.nbytes + 2 * 8 * n * groups + (1 << 14), kept - out.data.nbytes


def test_taped_silu_keeps_only_its_output(traced_kept):
    x = Tensor(np.random.default_rng(30).standard_normal((8, 8, 32, 32)), requires_grad=True)
    (tape, out), kept = traced_kept(lambda: _taped(T.silu, x))
    # 1 + e^{-x} or the sigmoid would be another out.data.nbytes (512 KiB)
    assert kept < out.data.nbytes + (1 << 14), kept - out.data.nbytes


@pytest.mark.parametrize("fallback", [False, True], ids=["plain", "fallback"])
@pytest.mark.parametrize("op,shape", [(T.attention_spatial, (8, 8, 16, 16)),
                                      (T.attention_temporal, (32, 8, 8, 8))],
                         ids=["spatial", "temporal"])
def test_taped_attention_keeps_its_output_o_and_the_row_statistics(op, shape, fallback, traced_kept):
    rng = np.random.default_rng(29)
    x = rng.standard_normal(shape)
    ws = [rng.standard_normal((8, 8)) / 2.0 for _ in range(4)]
    if fallback:
        x = _forced_fallback(op, x)
        assert (_row_gaps(op, x, ws) > 610.0).any()
    leaves = [Tensor(a, requires_grad=True) for a in [x] + ws]
    (tape, out), kept = traced_kept(lambda: _taped(op, *leaves))
    rows = out.size // shape[1]  # B * T, 2048 here
    # the output and o (the same size), a row sum and a shift per row, and a
    # few KiB of Python objects; q, k and v would be 3 * (C + 1) / C more
    # output sizes (432 KiB)
    assert kept < 2 * out.data.nbytes + 2 * 8 * rows + (1 << 14), kept - 2 * out.data.nbytes


@pytest.mark.parametrize("op", ["silu", "group_norm"])
def test_untaped_silu_and_group_norm_allocate_one_output_sized_buffer(op, traced_peak):
    rng = np.random.default_rng(25)
    x = rng.standard_normal((8, 8, 32, 32))
    gamma, beta = Tensor(rng.standard_normal(8)), Tensor(rng.standard_normal(8))
    run = {"silu": T.silu, "group_norm": lambda t: T.group_norm(t, gamma, beta, groups=4)}[op]
    out, peak = traced_peak(lambda: run(Tensor(x)))
    # a second output-sized array would be another out.data.nbytes (512 KiB);
    # a broadcasting ufunc's iterator takes a 64 KiB buffer of its own
    assert out.node is None and peak < 1.5 * out.data.nbytes, peak - out.data.nbytes
    leaf = Tensor(x, requires_grad=True)
    (_, taped), taped_peak = traced_peak(lambda: _taped(run, leaf))
    assert taped.node is not None and _bits(taped.data) == _bits(out.data)
    assert taped_peak < 1.5 * out.data.nbytes, taped_peak - out.data.nbytes


def test_sigmoid_family_does_not_warn_on_overflow():
    x = np.array([-1000.0, -50.0, 0.0, 50.0, 1000.0])
    g = np.linspace(-1.0, 1.0, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for op, ref in ((T.silu, _silu_ref), (T.softplus, _softplus_ref)):
            with Tape() as tape:
                out = op(Tensor(x, requires_grad=True))
            got = tape.nodes[0][0].vjp(g)
            want, want_vjp = ref(x)
            assert _bits(out.data) == _bits(want)
            assert [_bits(a) for a in got] == [_bits(a) for a in want_vjp(g)]
    assert T._sigmoid(x)[0] == 0.0 and T.silu(Tensor(x)).data[0] == 0.0


def test_adam_matches_the_textbook_update_bitwise():
    rng = np.random.default_rng(19)
    params = {"a": Tensor(rng.standard_normal((32, 32)), requires_grad=True),
              "b": Tensor(rng.standard_normal(5), requires_grad=True),
              "c": Tensor(np.array(0.3), requires_grad=True)}
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8  # the textbook betas and epsilon
    opt = Adam(lr)
    want = {n: p.data for n, p in params.items()}
    m = {n: np.zeros_like(p) for n, p in want.items()}
    v = {n: np.zeros_like(p) for n, p in want.items()}
    for t in range(1, 4):
        names = ("a", "c") if t == 2 else ("a", "b", "c")  # "b" gets no gradient at step 2
        grads = {n: Tensor(rng.standard_normal(want[n].shape)) for n in names}
        params = opt.step(params, grads)
        b1c, b2c = 1.0 - b1 ** t, 1.0 - b2 ** t
        for n in names:
            g = grads[n].data
            m[n] = b1 * m[n] + (1.0 - b1) * g
            v[n] = b2 * v[n] + (1.0 - b2) * g * g
            want[n] = want[n] - lr * (m[n] / b1c) / (np.sqrt(v[n] / b2c) + eps)
        for n in want:
            assert _bits(params[n].data) == _bits(want[n]), (t, n)
            assert _bits(opt.m[n]) == _bits(m[n]) and _bits(opt.v[n]) == _bits(v[n]), (t, n)


def _video_cases():
    """(name, op taking x and the other inputs plus `videos`, other inputs,
    the shape of one video) for the ops whose axis 0 may stack several
    videos' frames, and for conv2d, whose forward is one GEMM per frame."""
    rng = np.random.default_rng(23)
    w1, b = rng.standard_normal((4, 3, 3)), rng.standard_normal(4)
    w2 = rng.standard_normal((4, 3, 3, 3))
    ws = [rng.standard_normal((3, 3)) / 2.0 for _ in range(4)]
    conv = lambda *a, videos: T.conv2d(*a, pad=1)
    return [
        ("conv1d_frames p0", lambda *a, videos: T.conv1d_frames(*a, pad=0, videos=videos), [w1],
         (4, 3, 2, 3)),
        ("conv1d_frames p0 bias", lambda *a, videos: T.conv1d_frames(*a, pad=0, videos=videos),
         [w1, b], (4, 3, 2, 3)),
        ("conv1d_frames p1", lambda *a, videos: T.conv1d_frames(*a, pad=1, videos=videos), [w1],
         (4, 3, 2, 3)),
        ("conv1d_frames p1 bias", lambda *a, videos: T.conv1d_frames(*a, pad=1, videos=videos),
         [w1, b], (4, 3, 2, 3)),
        ("attention_temporal", T.attention_temporal, ws, (4, 3, 2, 3)),
        # shapes at which one GEMM over all frames rounds a video's tail columns
        # differently from the same GEMM over that video alone
        ("conv2d 2x2", conv, [w2, b], (5, 3, 2, 2)),
        ("conv2d 3 frames", conv, [w2, b], (3, 3, 5, 6)),
    ]


_VIDEO_CASES = [(name, op, rest, shape, videos) for name, op, rest, shape in _video_cases()
                for videos in (2, 3)]


@pytest.mark.parametrize("name,op,rest,shape,videos", _VIDEO_CASES,
                         ids=[f"{c[0]} videos{c[4]}" for c in _VIDEO_CASES])
def test_stacked_videos_equal_per_video_calls(name, op, rest, shape, videos):
    rng = np.random.default_rng(24)
    x = rng.standard_normal((videos * shape[0],) + shape[1:])
    parts = np.split(x, videos)
    # conv2d takes no `videos`; its vjp is one GEMM over all frames, so only
    # its output is each video's own
    stacks = name.split()[0] != "conv2d"
    with Tape() as tape:
        out = op(Tensor(x, requires_grad=True), *(Tensor(a) for a in rest), videos=videos)
    assert len(tape.nodes) == 1 and tape.nodes[0][0].op == name.split()[0]
    g = rng.standard_normal(out.shape)
    gx = tape.nodes[0][0].vjp(g)[0]
    alone_out, alone_gx = [], []
    for part, gpart in zip(parts, np.split(g, videos)):
        with Tape() as tape:
            o = op(Tensor(part, requires_grad=True), *(Tensor(a) for a in rest), videos=1)
        alone_out.append(o.data)
        alone_gx.append(tape.nodes[0][0].vjp(gpart)[0])
    assert _bits(out.data) == _bits(np.concatenate(alone_out))
    if stacks:
        assert _bits(gx) == _bits(np.concatenate(alone_gx))

    probe = Tensor(rng.standard_normal(out.shape))
    inputs = [x] + rest
    for i in range(len(inputs)):
        def f(t, i=i):
            args = [Tensor(a) for a in inputs[:i]] + [t] + [Tensor(a) for a in inputs[i + 1:]]
            return T.mse(op(*args, videos=videos), probe)
        report = finite_difference_check(f, Tensor(inputs[i]))
        assert report.max_rel_err <= 1e-7, f"{name} videos {videos} input {i}: {report}"

    if stacks:
        with pytest.raises(ShapeError, match="videos"):
            op(Tensor(x[1:]), *(Tensor(a) for a in rest), videos=videos)
    assert len(T.op_kinds()) == 18
