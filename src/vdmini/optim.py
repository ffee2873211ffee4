"""Adam optimizer over named parameter dicts."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

# Kingma and Ba's defaults (arXiv 1412.6980)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


def named_grads(params: dict[str, Tensor], grads: dict[Tensor, Tensor]) -> dict[str, Tensor]:
    """Re-key `backward`'s result (leaf tensor -> gradient) by parameter
    name; parameters the tape never reached get no entry."""
    return {n: grads[p] for n, p in params.items() if p in grads}


class Adam:
    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, Tensor], grads: dict[str, Tensor]) -> dict[str, Tensor]:
        """Return updated params; entries without a gradient pass through."""
        self.t += 1
        b1c = 1.0 - _BETA1**self.t
        b2c = 1.0 - _BETA2**self.t
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
            # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
            # p - lr * (m/b1c) / (sqrt(v/b2c) + eps), one operation at a time in
            # this order and into owned buffers, so the bits are these expressions'
            gd = g.data
            m *= _BETA1
            m += (1.0 - _BETA1) * gd
            t = (1.0 - _BETA2) * gd
            t *= gd
            v *= _BETA2
            v += t
            den = np.divide(v, b2c, out=np.empty_like(v))  # out=: 0-d stays an array
            np.sqrt(den, out=den)
            den += _EPS
            upd = np.divide(m, b1c, out=np.empty_like(m))
            upd *= self.lr
            upd /= den
            out[name] = Tensor(np.subtract(p.data, upd, out=upd), requires_grad=True)
        return out
