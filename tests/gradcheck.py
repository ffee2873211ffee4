"""Central-difference gradient checking for the autodiff tests.

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
