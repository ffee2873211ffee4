"""Adam optimizer over named parameter dicts."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def named_grads(params: dict[str, Tensor], grads: dict[Tensor, Tensor]) -> dict[str, Tensor]:
    """Re-key `backward`'s result (leaf tensor -> gradient) by parameter
    name; parameters the tape never reached get no entry."""
    return {n: grads[p] for n, p in params.items() if p in grads}


class Adam:
    def __init__(self, lr: float = 1e-4, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, Tensor], grads: dict[str, Tensor]) -> dict[str, Tensor]:
        """Return updated params; entries without a gradient pass through."""
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        out = {}
        for name, p in params.items():
            g = grads.get(name)
            if g is None:
                out[name] = p
                continue
            m = self.m.get(name)
            if m is None:
                m = np.zeros_like(p.data)
                self.m[name] = m
                self.v[name] = np.zeros_like(p.data)
            v = self.v[name]
            m[...] = self.beta1 * m + (1.0 - self.beta1) * g.data
            v[...] = self.beta2 * v + (1.0 - self.beta2) * g.data * g.data
            update = self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)
            out[name] = Tensor(p.data - update, requires_grad=True)
        return out
