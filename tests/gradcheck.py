"""Central-difference gradient checking for the autodiff tests, and the
serial backward that `tensor.backward` must match bit for bit.

Imported by name (`from gradcheck import ...`), not as a conftest fixture:
the benchmark's tests have a `conftest` module of their own.
"""

import math
from typing import Callable

import numpy as np

from vdmini.errors import NonFiniteError
from vdmini.tensor import Tape, Tensor, backward


class GradCheckReport:
    """Per-element comparison of analytic vs central-difference gradients."""

    def __init__(self, analytic: np.ndarray, numeric: np.ndarray):
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


def reference_backward(tape: Tape, root: Tensor) -> dict[Tensor, Tensor]:
    """`tensor.backward` as one serial loop on the calling thread: it walks
    the tape in reverse, computes each deferred parameter gradient where the
    walk meets it, sums every tensor's contributions in walk order, and
    leaves the tape as it found it."""
    grads = {id(root): np.ones((), dtype=np.float64)}
    keep = {id(root): root}
    for node, out in reversed(tape.nodes):
        g = grads.pop(id(out), None)
        keep.pop(id(out), None)
        if g is None:
            continue
        for t, gi in zip(node.inputs, node.vjp(g)):
            if gi is None or not (t.requires_grad or t.node is not None):
                continue
            if callable(gi):
                gi = gi()
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + gi
            else:
                grads[key] = gi
                keep[key] = t
    return {t: Tensor(grads[key]) for key, t in keep.items() if t.requires_grad}


def backward_matching_reference(tape: Tape, root: Tensor) -> dict[Tensor, Tensor]:
    """`backward(tape, root)`, after asserting that it returns the leaves
    `reference_backward` returns, in the same order, with the same bits."""
    want = reference_backward(tape, root)
    got = backward(tape, root)
    assert list(got) == list(want)
    for leaf, g in want.items():
        # tobytes as well: array_equal takes -0.0 for 0.0
        assert np.array_equal(got[leaf].data, g.data) and got[leaf].data.tobytes() == g.data.tobytes()
    return got
