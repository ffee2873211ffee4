"""Block-importance profiling and the VDMini block-removal plan."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import diffusion, evalkit, netgraph
from .errors import MetricError, PlanError, VdminiError
from .netgraph import BlockGraph, Model, StageSpec
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

    def to_csv(self) -> str:
        lines = ["block_id,fvd_after_ablation,delta_fvd,latency_ms,params,error"]
        for r in self.sorted_rows():
            lines.append(f"{r.block_id},{r.fvd_after_ablation:.6g},{r.delta_fvd:.6g},"
                         f"{r.latency_ms:.6g},{r.params},{r.error or ''}")
        return "\n".join(lines) + "\n"


def _inherit(teacher: Model, graph: BlockGraph, rename: Optional[dict] = None) -> Model:
    """Build a model of `graph` from the teacher's weights, bitwise.

    A parameter owned by `owner` copies the teacher's tensor of owner
    `rename.get(owner, owner)` with the same suffix, when the shapes agree.
    Only parameters the teacher lacks (say, a shortcut conv's) are
    initialised, to the values `init_params(graph, 0)` gives them.
    """
    rename = rename or {}
    params = {}
    for spec in netgraph.enumerate_params(graph):
        src_owner = rename.get(spec.owner, spec.owner)
        src = teacher.params.get(src_owner + spec.name[len(spec.owner):])
        data = src.data if src is not None and src.shape == spec.shape \
            else netgraph._init_param(spec, 0)
        params[spec.name] = Tensor(data, requires_grad=True)
    return Model(graph, params)


def _call_inputs(x: Tensor, c_noise: float, cond: Optional[Tensor]) -> tuple:
    return x.data, np.float64(c_noise), None if cond is None else cond.data


def _same_bits(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> bool:
    if a is None or b is None:
        return a is b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@dataclass
class _Prefix:
    """The teacher's first network call of one sample: its inputs
    (`_call_inputs`) and the state entering each block (block id ->
    netgraph.BlockState)."""
    inputs: tuple
    states: dict


class _PrefixCache:
    """A model whose first network call of each sample records, or resumes
    from, the teacher's prefix.

    `diffusion.sample` calls the network once per Euler step, and the
    first call's input (the seeded noise, its c_noise and condition) does
    not depend on the model. With `start` None the first call of each
    sample runs whole and records the state entering every block (the
    teacher's reference pass). With `start` set, the model is the teacher
    with block `start` ablated, so up to that block it computes exactly
    what the teacher did: its first call resumes at `start` from the
    recorded state, provided its inputs equal the recorded ones bit for
    bit. Every other call runs whole.
    """

    def __init__(self, model: Model, steps: int, prefixes: list,
                 start: Optional[str] = None):
        self.model = model
        self.steps = steps
        self.prefixes = prefixes
        self.start = start
        self.calls = 0

    def forward(self, x: Tensor, c_noise: float, cond: Optional[Tensor] = None) -> Tensor:
        sample, step = divmod(self.calls, self.steps)
        self.calls += 1
        if step == 0 and self.start is None:
            prefix = _Prefix(_call_inputs(x, c_noise, cond), {})
            self.prefixes.append(prefix)
            return self.model.forward(x, c_noise, cond, states=prefix.states)
        if step == 0:
            prefix = self.prefixes[sample]
            if all(map(_same_bits, prefix.inputs, _call_inputs(x, c_noise, cond))):
                return self.model.resume(prefix.states[self.start], self.start)
        return self.model.forward(x, c_noise, cond)


def _fvd(samples: list, eval_stats: evalkit.GaussianStats,
         extractor: evalkit.FeatureExtractor) -> float:
    """evalkit.fvd against an eval set whose Gaussian is already fitted."""
    if not samples:
        raise MetricError("fvd: empty video set")
    stats = evalkit.fit_gaussian(evalkit.extract_features(samples, extractor))
    return evalkit.frechet_distance(stats, eval_stats)


def profile_importance(teacher: Model, eval_set: list, blocks: list,
                       extractor: evalkit.FeatureExtractor,
                       schedule: diffusion.NoiseSchedule,
                       conds: Optional[list] = None, seed: int = 0,
                       steps: int = 1, latency_reps: int = 3) -> AblationReport:
    """Ablate each block in turn and score the FVD proxy of its samples.

    Every sample set uses the same seeded noise and conditions, so each
    ablated model's first network call of a sample would recompute the
    teacher's, bit for bit, up to the ablated block. The teacher's
    reference pass records the state entering every block on that call,
    and each ablated model resumes from it at its ablated block (later
    Euler steps run whole). The eval set is embedded once. The report is
    the same, byte for byte, as sampling every ablated model whole.
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
    prefixes: list = []
    ref_samples = diffusion.sample_set(_PrefixCache(teacher, steps, prefixes), schedule,
                                       conds, seed, shape, steps)
    ref_fvd = _fvd(ref_samples, eval_stats, extractor)

    report = AblationReport(reference_fvd=ref_fvd)
    for block_id in sorted(blocks):
        ablated_graph = netgraph.ablate(teacher.graph, block_id)
        model = _PrefixCache(_inherit(teacher, ablated_graph), steps, prefixes,
                             start=block_id)
        row = AblationRow(block_id, math.nan, math.nan,
                          per_block_ms.get(block_id, 0.0),
                          per_block_params.get(block_id, 0))
        try:
            samples = diffusion.sample_set(model, schedule, conds, seed, shape, steps)
            row.fvd_after_ablation = _fvd(samples, eval_stats, extractor)
            row.delta_fvd = row.fvd_after_ablation - ref_fvd
        except MetricError as exc:
            row.error = str(exc)
        report.rows.append(row)
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


def _stage_layers(stage: StageSpec) -> dict:
    """Map layer index -> block ids, in declaration order."""
    layers: dict = {}
    for b in stage.blocks:
        _, _, _, layer, _ = netgraph.parse_block_id(b.block_id)
        layers.setdefault(layer, []).append(b.block_id)
    return layers


def plan_vdmini(graph: BlockGraph) -> PruningPlan:
    """Emit the block-removal plan: drop the second R-A pair of the shallow
    Down/Up stages, keep D.2 and U.1 intact, and empty D.3, Mid, and U.0."""
    expected = netgraph.ORIGIN_LAYER_COUNTS
    stage_layers = {}
    for stage in graph.stages:
        sid = stage.stage_id
        layers = _stage_layers(stage)
        if sorted(layers) != list(range(expected.get(sid, 0))):
            raise PlanError(f"non-conforming stage layout: {sid} has layers {sorted(layers)}, "
                            f"expected {expected.get(sid, 0)}")
        if any(b.replacement for b in stage.blocks):
            raise PlanError(f"non-conforming stage layout: {sid} contains ablated blocks")
        stage_layers[sid] = layers

    removed = []
    inheritance = {}
    for sid, layers in stage_layers.items():
        target = VDMINI_LAYER_COUNTS[sid]
        n = len(layers)
        if target == 0:
            keep: list = []
        elif target == n:
            keep = sorted(layers)
        else:
            keep = [l for l in sorted(layers) if l != _REMOVED_LAYER]
        for layer in sorted(layers):
            if layer in keep:
                new_layer = keep.index(layer)
                for bid in layers[layer]:
                    kind, idx, btype, _, variant = netgraph.parse_block_id(bid)
                    prefix = "M" if kind == "Mid" else f"{kind[0]}.{idx}"
                    inheritance[f"{prefix}.{btype}.{new_layer}.{variant}"] = bid
            else:
                removed.extend(layers[layer])
    emptied = tuple(sid for sid, c in VDMINI_LAYER_COUNTS.items() if c == 0)
    return PruningPlan(tuple(removed), emptied, inheritance, dict(VDMINI_LAYER_COUNTS))


def student_graph(teacher_graph: BlockGraph, plan: PruningPlan) -> BlockGraph:
    """The pruned graph implied by a plan, with teacher widths preserved."""
    widths = (teacher_graph.stage("D.0").width, teacher_graph.stage("D.1").width,
              teacher_graph.stage("D.2").width)
    return netgraph.make_unet_graph(
        plan.student_layer_counts, widths,
        latent_channels=teacher_graph.latent_channels,
        cond_channels=teacher_graph.cond_channels,
        emb_dim=teacher_graph.emb_dim,
    )


def apply_plan(teacher: Model, plan: PruningPlan) -> Model:
    """Build the student, inheriting retained teacher weights bitwise."""
    teacher_blocks = set(teacher.graph.block_ids())
    for tid in plan.inheritance.values():
        if tid not in teacher_blocks:
            raise PlanError(f"inheritance references missing teacher block {tid}")
    return _inherit(teacher, student_graph(teacher.graph, plan), plan.inheritance)
