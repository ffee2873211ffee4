"""Block-importance profiling and the VDMini block-removal plan."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import diffusion, evalkit, netgraph
from .errors import MetricError, PlanError, VdminiError
from .netgraph import BlockGraph, Model
# `backward` is not called here, but perfbench/spans.py patches it on this
# module, as on tensor, cli and icmd, and needs the name to exist
from .tensor import Tensor, backward  # noqa: F401


# ---------------------------------------------------------------------------
# importance profiling by ablation
# ---------------------------------------------------------------------------

@dataclass
class AblationRow:
    block_id: str
    fvd_after_ablation: float
    delta_fvd: float
    latency_ms: float
    params: int
    error: Optional[str] = None


@dataclass
class AblationReport:
    reference_fvd: float
    rows: list = field(default_factory=list)

    def sorted_rows(self) -> list:
        good = [r for r in self.rows if r.error is None]
        bad = [r for r in self.rows if r.error is not None]
        return sorted(good, key=lambda r: -r.delta_fvd) + bad


# Byte budget of a group's largest convolution column matrix: a group's
# models share one walk, so its working set grows with them (8 models at
# widths 4/6/8 on 2 videos of 2x16x16, 1 at the default shapes).
_GROUP_BYTES = 5 << 20


def _group(teacher: Model, block_ids: list) -> tuple:
    """(model, ablated): the teacher's graph and parameter Tensors plus the
    replacement of each block in `block_ids` (`netgraph.ablate`'s BlockSpec;
    a shortcut conv's parameters initialised as `_init_param(spec, 0)`
    gives them), for `Model.forward`/`resume` with `ablated`."""
    ablated = [netgraph.ablate(teacher.graph, bid) for bid in block_ids]
    params = dict(teacher.params)
    params.update((spec.name, Tensor(netgraph._init_param(spec, 0), requires_grad=True))
                  for b in ablated if b.replacement == netgraph.SHORTCUT_CONV
                  for spec in netgraph.shortcut_params(b))
    return Model(teacher.graph, params), ablated


def _stacked(a: Optional[np.ndarray], b: Optional[np.ndarray], runs: int) -> bool:
    """Whether `a` is `runs` copies of `b` stacked on axis 0, bit for bit."""
    if a is None or b is None:
        return a is b
    return (a.dtype == b.dtype and a.shape == (runs * b.shape[0],) + b.shape[1:]
            and a.tobytes() == b.tobytes() * runs)


class _FirstStep:
    """`diffusion.sample`'s network. Without `recorded`, its first call (the
    teacher's first Euler step) runs whole and records its inputs and the
    state entering every block. With the teacher's `recorded` _FirstStep,
    the model is `_group`'s, and its first call resumes the group from the
    recorded states, provided its inputs are the recorded ones once per
    model, bit for bit (else resuming would answer for the teacher's input).
    Every other call runs whole."""

    def __init__(self, model: Model, recorded: Optional["_FirstStep"] = None,
                 ablated: Sequence = ()):
        self.model, self.recorded, self.ablated = model, recorded, ablated
        self.inputs: Optional[tuple] = None  # x, c_noise, cond, videos of the first call
        self.states: dict = {}
        self._first = True

    def forward(self, x: Tensor, c_noise: float, cond: Optional[Tensor] = None,
                features: Optional[dict] = None, videos: int = 1) -> Tensor:
        first, self._first = self._first, False
        cdata = None if cond is None else cond.data
        rec, runs = self.recorded, len(self.ablated)
        if first and rec is None:
            self.inputs = (x.data, c_noise, cdata, videos)
            return self.model.forward(x, c_noise, cond, features=features, states=self.states,
                                      videos=videos, ablated=self.ablated)
        if first and runs and rec.inputs is not None:
            rx, rc_noise, rcond, rvideos = rec.inputs
            if (c_noise == rc_noise and videos == runs * rvideos and _stacked(x.data, rx, runs)
                    and _stacked(cdata, rcond, runs)):
                return self.model.resume(rec.states, self.ablated)
        return self.model.forward(x, c_noise, cond, features=features, videos=videos,
                                  ablated=self.ablated)


def _fvd(samples: list, eval_stats: evalkit.GaussianStats,
         extractor: evalkit.FeatureExtractor) -> float:
    """evalkit.fvd against an eval set whose Gaussian is already fitted."""
    stats = evalkit.fit_gaussian(evalkit.extract_features(samples, extractor))
    return evalkit.frechet_distance(stats, eval_stats)


def profile_importance(teacher: Model, eval_set: list, blocks: list,
                       extractor: evalkit.FeatureExtractor,
                       schedule: diffusion.NoiseSchedule,
                       conds: Optional[list] = None, seed: int = 0,
                       steps: int = 1, latency_reps: int = 3) -> AblationReport:
    """Ablate each block in turn and score the FVD proxy of its samples.

    Each sample set runs as one network call per Euler step
    (`diffusion.sample_set`), with the same seeded noise and conditions, so
    up to its ablated block each ablated model's first call recomputes the
    teacher's. The teacher's reference pass records the state entering
    every block on that call. The ablated models then run in groups of
    consecutive blocks in walk order (sized by `_GROUP_BYTES`), each group
    as one walk with its models' sample sets stacked (`sample_set(...,
    runs=)`): the first step resumes at the group's first block and each
    model joins at its own block from the recorded state (`Model.resume`);
    later steps run the group from the stem. The eval set is embedded once,
    and `netgraph.ablate` is called once per profiled block. The report
    is the same, byte for byte, as sampling every ablated model whole, one
    video at a time.
    """
    if not eval_set:
        raise VdminiError("profile_importance: empty eval set")
    shape = eval_set[0].shape
    if conds is None:
        conds = [None] * len(eval_set)
    per_block_params, _ = netgraph.count_params(teacher.graph)
    # latency_reps=0 keeps the report free of wall-clock values (reproducible)
    per_block_ms: dict = {}
    if latency_reps > 0:
        per_block_ms = evalkit.measure_latency(teacher, shape, warmup=1,
                                               reps=latency_reps).per_block_ms

    eval_stats = evalkit.fit_gaussian(evalkit.extract_features(eval_set, extractor))
    ref = _FirstStep(teacher)
    ref_samples = diffusion.sample_set(ref, schedule,
                                       conds, seed, shape, steps)
    ref_fvd = _fvd(ref_samples, eval_stats, extractor)

    order = {bid: i for i, bid in enumerate(teacher.graph.block_ids())}
    walk = sorted(set(blocks), key=lambda bid: (order.get(bid, -1), bid))
    # models per group: _GROUP_BYTES over one model's largest conv column
    # matrix, 3x3 taps of a block's input channels by its videos' pixels
    f, _, h, w = shape
    largest = max((8 * b.in_channels * 9 * len(conds) * f * h * w // s.res_divisor ** 2
                   for s in teacher.graph.stages for b in s.blocks), default=1)
    size = max(1, _GROUP_BYTES // largest)
    rows: dict = {}
    for k in range(0, len(walk), size):
        model, ablated = _group(teacher, walk[k:k + size])  # unknown ids raise here
        samples = diffusion.sample_set(_FirstStep(model, ref, ablated), schedule,
                                       conds, seed, shape, steps, runs=len(ablated))
        for i, b in enumerate(ablated):
            row = rows[b.block_id] = AblationRow(b.block_id, math.nan, math.nan,
                                                 per_block_ms.get(b.block_id, 0.0),
                                                 per_block_params.get(b.block_id, 0))
            try:
                row.fvd_after_ablation = _fvd(samples[i * len(conds):(i + 1) * len(conds)],
                                              eval_stats, extractor)
                row.delta_fvd = row.fvd_after_ablation - ref_fvd
            except MetricError as exc:
                row.error = str(exc)
    report = AblationReport(ref_fvd, [rows[block_id] for block_id in sorted(blocks)])
    report.rows = report.sorted_rows()
    return report


# ---------------------------------------------------------------------------
# the VDMini pruning plan
# ---------------------------------------------------------------------------

VDMINI_LAYER_COUNTS = {"D.0": 1, "D.1": 1, "D.2": 2, "D.3": 0, "M": 0,
                       "U.0": 0, "U.1": 3, "U.2": 2, "U.3": 2}
# layer indices removed from multi-layer stages: the second R-A pair
_REMOVED_LAYER = 1


@dataclass(frozen=True)
class PruningPlan:
    removed_block_ids: tuple
    emptied_stages: tuple
    inheritance: dict  # retained student block_id -> teacher block_id
    student_layer_counts: dict

    def to_json_doc(self) -> dict:
        return {
            "removed_block_ids": list(self.removed_block_ids),
            "emptied_stages": list(self.emptied_stages),
            "inheritance": dict(sorted(self.inheritance.items())),
            "student_layer_counts": dict(sorted(self.student_layer_counts.items())),
        }

    @classmethod
    def from_json_doc(cls, doc) -> "PruningPlan":
        """The plan a `to_json_doc` document describes. Other keys, such as
        an artifact's config hash, are ignored; a missing key, a value of
        the wrong type or layer counts for other stages than the origin
        U-Net's raise PlanError."""
        if not isinstance(doc, dict):
            raise PlanError("plan: the document must be a JSON object")

        def checked(key: str, kind: type, ok, what: str):
            if key not in doc:
                raise PlanError(f"plan: missing key {key!r}")
            value = doc[key]
            if not isinstance(value, kind) or not all(
                    map(ok, value.values() if kind is dict else value)):
                raise PlanError(f"plan: {key!r} must be a JSON {what}")
            return value

        def is_id(v) -> bool:
            return isinstance(v, str)

        def is_count(v) -> bool:
            return type(v) is int and v >= 0

        plan = cls(tuple(checked("removed_block_ids", list, is_id, "list of block ids")),
                   tuple(checked("emptied_stages", list, is_id, "list of stage ids")),
                   dict(checked("inheritance", dict, is_id, "object of block ids")),
                   dict(checked("student_layer_counts", dict, is_count,
                                "object of non-negative layer counts")))
        named, stages = set(plan.student_layer_counts), set(netgraph.ORIGIN_LAYER_COUNTS)
        if named != stages:
            raise PlanError(f"plan: 'student_layer_counts' must name exactly the stages "
                            f"{sorted(stages)}; unknown {sorted(named - stages)}, "
                            f"missing {sorted(stages - named)}")
        return plan


def plan_vdmini(graph: BlockGraph) -> PruningPlan:
    """Emit the block-removal plan: drop the second R-A pair of the shallow
    Down/Up stages, keep D.2 and U.1 intact, and empty D.3, Mid, and U.0."""
    if graph.layer_counts != netgraph.ORIGIN_LAYER_COUNTS:
        raise PlanError(f"non-conforming stage layout: layer counts {graph.layer_counts}, "
                        f"expected {netgraph.ORIGIN_LAYER_COUNTS}")
    counts = dict(VDMINI_LAYER_COUNTS)
    inheritance = {}
    for s in replace(graph, layer_counts=counts).stages:
        shifted = counts[s.stage_id] < graph.layer_counts[s.stage_id]  # lost a pair
        for b in s.blocks:
            prefix, layer, variant = b.block_id.rsplit(".", 2)
            if shifted and int(layer) >= _REMOVED_LAYER:
                layer = int(layer) + 1
            inheritance[b.block_id] = f"{prefix}.{layer}.{variant}"
    kept = set(inheritance.values())
    removed = tuple(bid for bid in graph.block_ids() if bid not in kept)
    emptied = tuple(sid for sid, c in counts.items() if c == 0)
    return PruningPlan(removed, emptied, inheritance, counts)


def student_graph(teacher_graph: BlockGraph, plan: PruningPlan) -> BlockGraph:
    """The pruned graph implied by a plan: the teacher's with the plan's
    layer counts."""
    return replace(teacher_graph, layer_counts=dict(plan.student_layer_counts))


def apply_plan(teacher: Model, plan: PruningPlan) -> Model:
    """Build the student, inheriting retained teacher weights bitwise. A plan
    that does not prune the teacher is a PlanError: every student block
    must inherit a teacher block, and every student tensor a teacher
    tensor of its shape."""
    teacher_blocks = set(teacher.graph.block_ids())
    for tid in plan.inheritance.values():
        if tid not in teacher_blocks:
            raise PlanError(f"inheritance references missing teacher block {tid}")
    graph = student_graph(teacher.graph, plan)
    for bid in graph.block_ids():
        if bid not in plan.inheritance:
            raise PlanError(f"plan: student block {bid} inherits no teacher block")
    params = {}
    for spec in netgraph.enumerate_params(graph):
        src = teacher.params.get(plan.inheritance.get(spec.owner, spec.owner)
                                 + spec.name[len(spec.owner):])
        if src is None or src.shape != spec.shape:
            raise PlanError(f"plan: student tensor {spec.name} {spec.shape} has no teacher "
                            f"tensor of its shape to inherit")
        params[spec.name] = Tensor(src.data, requires_grad=True)
    return Model(graph, params)
