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
