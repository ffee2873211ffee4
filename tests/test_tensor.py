import math

import numpy as np
import pytest

import vdmini.tensor as T
from vdmini.errors import NonScalarRootError, ShapeError
from vdmini.optim import named_grads
from vdmini.tensor import Tape, Tensor, backward, finite_difference_check


def test_conv2d_all_ones_hand_value():
    x = Tensor(np.ones((1, 1, 3, 3)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    b = Tensor(np.zeros(1))
    out = T.conv2d(x, w, b, pad=0)
    assert out.shape == (1, 1, 1, 1)
    assert out.data.ravel()[0] == 9.0


def test_identity_bitwise():
    x = Tensor(np.random.default_rng(0).standard_normal((3, 4)))
    assert np.array_equal(T.identity(x).data, x.data)


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
        y = T.identity(x)
    with pytest.raises(NonScalarRootError):
        backward(tape, y)


def test_finite_difference_quadratic_is_tight():
    x = Tensor(np.random.default_rng(0).standard_normal(6))
    report = finite_difference_check(lambda t: T.sum_all(T.mul(t, t)), x, eps=1e-5)
    assert report.max_rel_err <= 1e-6


def test_finite_difference_constant_function():
    x = Tensor(np.random.default_rng(2).standard_normal(4))
    report = finite_difference_check(lambda t: T.sum_all(T.mul(t, Tensor(np.zeros(4)))), x)
    assert report.max_rel_err == 0.0
    assert np.array_equal(report.analytic, np.zeros(4))


def test_named_grads_omits_parameters_the_tape_never_reached():
    used = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    unused = Tensor(np.ones(2), requires_grad=True)
    with Tape() as tape:
        y = T.sum_all(T.mul(used, used))
    grads = backward(tape, y)
    named = named_grads({"used": used, "unused": unused}, grads)
    assert list(named) == ["used"]
    assert named["used"] is grads[used]
    assert np.array_equal(named["used"].data, [2.0, -4.0])


def test_shape_errors_are_typed():
    with pytest.raises(ShapeError):
        T.add(Tensor(np.ones(2)), Tensor(np.ones(3)))
    with pytest.raises(ShapeError):
        T.mse(Tensor(np.ones((2, 2))), Tensor(np.ones(4)))
    with pytest.raises(ShapeError):
        T.attention_spatial(Tensor(np.ones((2, 3, 4, 4))), *[Tensor(np.ones((3, 4)))] * 4)


def test_tensors_are_immutable():
    x = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        x.data[0] = 5.0


def test_softmax_rows_sum_to_one():
    x = Tensor(np.random.default_rng(4).standard_normal((3, 5)) * 50)
    y = T.softmax(x)
    assert np.allclose(y.data.sum(axis=-1), 1.0, atol=1e-12)


def test_mca_style_ops_unit_values():
    zero = Tensor(np.zeros(()))
    assert T.softplus(zero).item() == pytest.approx(math.log(2.0), abs=1e-15)
    assert T.relu(Tensor(np.array(-3.0))).item() == 0.0
    assert T.relu(Tensor(np.array(3.0))).item() == 3.0


def test_ops_do_not_record_without_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    y = T.silu(x)
    assert y.node is None


def test_eps_domain_is_validated():
    x = Tensor(np.ones(2))
    with pytest.raises(ValueError):
        finite_difference_check(lambda t: T.sum_all(t), x, eps=0.5)


def _grad_cases():
    """(name, op closure over its inputs, inputs) for every input of each
    single-GEMM convolution and each one-node attention."""
    rng = np.random.default_rng(7)
    c = lambda *s: rng.standard_normal(s)
    x, w2, w1, b = c(2, 3, 5, 6), c(4, 3, 3, 3), c(4, 3, 3), c(4)
    ws = [c(3, 3) / 2.0 for _ in range(4)]
    return [
        ("conv2d stride 1", lambda *a: T.conv2d(*a, stride=1, pad=1), [x, w2, b]),
        ("conv2d stride 2", lambda *a: T.conv2d(*a, stride=2, pad=1), [x, w2, b]),
        ("conv1d_frames", lambda *a: T.conv1d_frames(*a, pad=1), [x, w1, b]),
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
            return T.sum_all(T.mul(op(*args), probe))
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

    def attend(tokens):  # (T, C) -> (T, C)
        wq, wk, wv, wo = ws
        scores = (tokens @ wq.T) @ (tokens @ wk.T).T / math.sqrt(tokens.shape[1])
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        return (e / e.sum(axis=1, keepdims=True)) @ (tokens @ wv.T) @ wo.T

    spatial = np.stack([attend(x[f].reshape(3, 30).T).T.reshape(3, 5, 6) for f in range(2)])
    temporal = np.empty_like(x)
    for i in range(5):
        for j in range(6):
            temporal[:, :, i, j] = attend(x[:, :, i, j])
    for op, want in ((T.attention_spatial, spatial), (T.attention_temporal, temporal)):
        got = op(Tensor(x), *(Tensor(w) for w in ws)).data
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
