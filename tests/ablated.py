"""A whole model with one block ablated, walked by the plain forward: the
reference that the grouped and resumed ablation walks must match bit for
bit.

Imported by name (`from ablated import ablated_model`), like gradcheck.
"""

from vdmini import netgraph as ng
from vdmini.tensor import Tensor


class _Ablated(ng.Model):
    """The model with `spec.block_id`'s block replaced by `spec`."""

    def __init__(self, graph, params, spec):
        super().__init__(graph, params)
        self.spec = spec

    def _block(self, x, b, emb):
        return super()._block(x, self.spec if b.block_id == self.spec.block_id else b, emb)


def ablated_model(model: ng.Model, block_id: str) -> ng.Model:
    """`model` with block `block_id` replaced as `ng.ablate` gives it: the
    model's parameter Tensors, plus a shortcut conv's initialised as
    `_init_param(spec, 0)` gives them."""
    spec = ng.ablate(model.graph, block_id)
    params = dict(model.params)
    if spec.replacement == ng.SHORTCUT_CONV:
        params.update((p.name, Tensor(ng._init_param(p, 0), requires_grad=True))
                      for p in ng.shortcut_params(spec))
    return _Ablated(model.graph, params, spec)
