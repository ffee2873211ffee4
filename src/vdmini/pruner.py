"""Block-importance profiling, the VDMini plan, and channel pruning baselines."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import diffusion, evalkit, netgraph
from .errors import MetricError, PlanError, PruneError, VdminiError
from .netgraph import BlockGraph, Model, StageSpec
from .tensor import Tape, Tensor, backward


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


def _generate_set(model: Model, schedule: diffusion.NoiseSchedule, conds: list,
                  seed: int, shape: tuple, steps: int = 1) -> list:
    out = []
    for i, cond in enumerate(conds):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, i])))
        out.append(diffusion.sample(model, schedule, steps, cond, rng, shape))
    return out


def _inherit_ablated(teacher: Model, graph: BlockGraph, seed: int = 0) -> Model:
    """Build the ablated model from the teacher's weights.

    Only the parameters the teacher lacks (a shortcut conv's) are
    initialised, to the values `init_params(graph, seed)` gives them.
    """
    lay = netgraph.check(graph)
    params = {}
    for spec in netgraph.enumerate_params(graph, lay):
        src = teacher.params.get(spec.name)
        data = src.data if src is not None and src.shape == spec.shape \
            else netgraph._init_param(spec, seed)
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
    ref_samples = _generate_set(_PrefixCache(teacher, steps, prefixes), schedule, conds,
                                seed, shape, steps)
    ref_fvd = _fvd(ref_samples, eval_stats, extractor)

    report = AblationReport(reference_fvd=ref_fvd)
    for block_id in sorted(blocks):
        ablated_graph, _ = netgraph.ablate(teacher.graph, block_id)
        model = _PrefixCache(_inherit_ablated(teacher, ablated_graph), steps, prefixes,
                             start=block_id)
        row = AblationRow(block_id, math.nan, math.nan,
                          per_block_ms.get(block_id, 0.0),
                          per_block_params.get(block_id, 0))
        try:
            samples = _generate_set(model, schedule, conds, seed, shape, steps)
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
    graph = student_graph(teacher.graph, plan)
    teacher_blocks = set(teacher.graph.block_ids())
    for tid in plan.inheritance.values():
        if tid not in teacher_blocks:
            raise PlanError(f"inheritance references missing teacher block {tid}")
    params = netgraph.init_params(graph, 0)
    # retained blocks: copy per the inheritance map
    rename = {}
    for student_id, teacher_id in plan.inheritance.items():
        rename[student_id] = teacher_id
    for name in list(params):
        owner = _owner_of(name)
        src_name = name
        if owner in rename:
            src_name = rename[owner] + name[len(owner):]
        src = teacher.params.get(src_name)
        if src is not None and src.shape == params[name].shape:
            params[name] = Tensor(src.data, requires_grad=True)
    return Model(graph, params)


def _owner_of(param_name: str) -> str:
    # block param names are "<block_id>.<layer>.<leaf>"; block ids have
    # 4 or 5 dot-separated parts depending on the stage
    parts = param_name.split(".")
    if parts[0] in ("D", "U") and len(parts) >= 5:
        return ".".join(parts[:5])
    if parts[0] == "M" and len(parts) >= 4:
        return ".".join(parts[:4])
    return parts[0]


# ---------------------------------------------------------------------------
# channel groups and importance scores
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelGroup:
    entity: str
    channel: int
    entries: tuple  # (param name, axis, row/column index)


def _expand(ent_label: str, entity: str, channel: int):
    """Indices along an axis labelled ent_label for one entity channel."""
    if ent_label == entity:
        return [channel]
    if ent_label == f"{entity}#4":
        return [4 * channel + j for j in range(4)]
    return []


def build_channel_groups(graph: BlockGraph) -> list:
    """Dependency-coupled channel groups, one per (stage entity, channel)."""
    lay = netgraph.check(graph)
    specs = netgraph.enumerate_params(graph, lay)
    widths = {}
    for entity, sids in lay.entity_stages.items():
        if ":" in entity:
            continue
        widths[entity] = graph.stage(sids[0]).width
    groups = []
    for entity in sorted(widths):
        for ch in range(widths[entity]):
            entries = []
            for spec in specs:
                if spec.ent_out:
                    for idx in _expand(spec.ent_out, entity, ch):
                        entries.append((spec.name, 0, idx))
                # input-coupled channels live on axis 1, except for rank-1
                # affines that directly follow a concatenated input
                axis_in = 1 if len(spec.shape) > 1 else 0
                offset = 0
                for seg_ent, seg_size in spec.ent_in:
                    for idx in _expand(seg_ent, entity, ch):
                        entries.append((spec.name, axis_in, offset + idx))
                    offset += seg_size
            if entries:
                groups.append(ChannelGroup(entity, ch, tuple(entries)))
    return groups


def _group_values(group: ChannelGroup, params: dict):
    for name, axis, idx in group.entries:
        data = params[name].data
        yield name, np.take(data, idx, axis=axis) if data.ndim > axis else data[idx]


def score_magnitude_l2(group: ChannelGroup, params: dict) -> float:
    """sqrt(sum of squared weights) over every entry in the group."""
    if not group.entries:
        raise VdminiError("empty channel group")
    acc = 0.0
    for _, v in _group_values(group, params):
        acc += float(np.sum(np.asarray(v) ** 2))
    return math.sqrt(acc)


def score_taylor(group: ChannelGroup, params: dict, grads: dict) -> float:
    """|sum of w*g| over the group, from one calibration backward pass."""
    if not group.entries:
        raise VdminiError("empty channel group")
    acc = 0.0
    for name, axis, idx in group.entries:
        g = grads.get(name)
        if g is None:
            raise VdminiError(f"missing gradient for group entry {name}")
        w = np.take(params[name].data, idx, axis=axis)
        gv = np.take(g.data, idx, axis=axis)
        acc += float(np.sum(np.asarray(w) * np.asarray(gv)))
    return abs(acc)


def calibration_grads(model: Model, batch: list, schedule: diffusion.NoiseSchedule,
                      seed: int = 0) -> dict:
    """Named gradients from one denoising-loss backward pass."""
    rng = np.random.Generator(np.random.PCG64(seed))
    with Tape() as tape:
        loss = diffusion.denoising_loss(model, batch, schedule, rng)
    grads = backward(tape, loss)
    by_tensor = {id(t): g for t, g in grads.items()}
    return {name: by_tensor[id(p)] for name, p in model.params.items() if id(p) in by_tensor}


def channel_prune(graph: BlockGraph, params: dict, ratio: float,
                  scorer: Callable[[ChannelGroup], float]):
    """Remove the lowest-scoring floor(ratio * #groups) channel groups.

    Surviving weights are copied, never re-initialized. The scorer is a
    callable over ChannelGroup (partially applied L2 or Taylor score).
    """
    if not (0.0 < ratio < 1.0):
        raise PruneError(f"ratio must be in (0,1), got {ratio}")
    groups = build_channel_groups(graph)
    k = int(ratio * len(groups))
    if k == 0:
        return graph, dict(params)
    scored = sorted(groups, key=lambda g: (scorer(g), g.entity, g.channel))
    victims = scored[:k]
    removals: dict = {}
    for g in victims:
        removals.setdefault(g.entity, set()).add(g.channel)
    lay = netgraph.layout(graph)
    widths = {e: graph.stage(sids[0]).width for e, sids in lay.entity_stages.items() if ":" not in e}
    for entity, chans in removals.items():
        if len(chans) >= widths[entity]:
            raise PruneError(f"ratio {ratio} would empty stage {entity}")

    # shrink stage widths; entity label is the stage that opened it
    width_map = {}
    for entity, sids in lay.entity_stages.items():
        if ":" in entity:
            continue
        cut = len(removals.get(entity, ()))
        for sid in sids:
            width_map[sid] = graph.stage(sid).width - cut
    new_graph = _reshape_graph(graph, width_map)

    old_specs = {s.name: s for s in netgraph.enumerate_params(graph)}
    new_params = {}
    for spec in netgraph.enumerate_params(new_graph):
        old = old_specs[spec.name]
        data = params[spec.name].data
        if old.ent_out:
            drop = _axis_drop(old.ent_out, removals)
            if drop:
                data = np.delete(data, drop, axis=0)
        if old.ent_in:
            drop = _segment_drop(old.ent_in, removals)
            if drop:
                data = np.delete(data, drop, axis=1 if data.ndim > 1 else 0)
        if data.shape != spec.shape:
            raise PruneError(f"{spec.name}: sliced shape {data.shape} != expected {spec.shape}")
        new_params[spec.name] = Tensor(data, requires_grad=True)
    return new_graph, new_params


def _base_entity(label: str) -> str:
    return label.split("#")[0] if label else label


def _axis_drop(label: str, removals: dict) -> list:
    base = _base_entity(label)
    chans = sorted(removals.get(base, ()))
    out = []
    for ch in chans:
        out.extend(_expand(label, base, ch))
    return out


def _segment_drop(segments: tuple, removals: dict) -> list:
    drop = []
    offset = 0
    for seg_ent, seg_size in segments:
        for idx in _axis_drop(seg_ent, removals):
            drop.append(offset + idx)
        offset += seg_size
    return drop


def _reshape_graph(graph: BlockGraph, width_map: dict) -> BlockGraph:
    """Rewrite stage widths and per-block channel counts after pruning.

    The incoming channel count is re-walked because a stage's upstream
    width may have shrunk independently of its own.
    """
    from dataclasses import replace

    lay = netgraph.layout(graph)
    new_stages = []
    cur = width_map.get("D.0", lay.stem[1])
    for sp in lay.stages:
        stage = sp.stage
        w = width_map.get(stage.stage_id, stage.width)
        if sp.down_conv or sp.up_conv:
            cur = w
        blocks = []
        for i, b in enumerate(stage.blocks):
            in_ch = cur
            if i == 0 and sp.skip_from:
                in_ch += width_map.get(sp.skip_from, sp.skip_channels)
            blocks.append(replace(b, in_channels=in_ch, out_channels=w))
            cur = w
        new_stages.append(replace(stage, width=w, blocks=tuple(blocks)))
    return BlockGraph(tuple(new_stages), graph.latent_channels, graph.cond_channels,
                      graph.emb_dim, graph.gn_groups)
