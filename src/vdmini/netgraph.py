"""Declarative block graphs for U-Net style video denoisers.

A BlockGraph is the single source of truth: the same structural walk
drives validation, parameter enumeration, parameter counting and model
building. Stages persist even when emptied by pruning; an empty stage
keeps its resolution transition but runs no blocks, which keeps
stage-boundary activations shape-compatible between a teacher and its
pruned student.

Block ids follow the D/M/U naming, e.g. "D.0.R.1.S" is the spatial half
of the second ResBlock layer of the first DownBlock; "M.A.0.T" is the
temporal attention block in the Mid stage.

`Model.forward` and `Model.resume` also walk a group of ablated models at
once, one run of videos per model. `resume` starts at the group's first
block from the states a forward recorded; each run joins at its own block.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .errors import GraphError, ShapeError, UnknownBlockError
from .tensor import Tensor

RES_SPATIAL = "RB-S"
RES_TEMPORAL = "RB-T"
ATTN_SPATIAL = "TB-S"
ATTN_TEMPORAL = "TB-T"

IDENTITY = "identity"
SHORTCUT_CONV = "shortcut_conv"


@dataclass(frozen=True)
class BlockSpec:
    kind: str
    in_channels: int
    out_channels: int
    block_id: str
    replacement: Optional[str] = None  # None, "identity", or "shortcut_conv"


@dataclass(frozen=True)
class StageSpec:
    kind: str  # "Down", "Mid", or "Up"
    index: int
    res_divisor: int
    width: int
    blocks: tuple = ()

    @property
    def stage_id(self) -> str:
        return "M" if self.kind == "Mid" else f"{self.kind[0]}.{self.index}"


@dataclass(frozen=True)
class BlockGraph:
    stages: tuple
    latent_channels: int = 1
    cond_channels: int = 1
    emb_dim: int = 32
    gn_groups: int = 1

    def stage(self, stage_id: str) -> StageSpec:
        for s in self.stages:
            if s.stage_id == stage_id:
                return s
        raise UnknownBlockError(f"no stage {stage_id!r}")

    def block_ids(self) -> list:
        return [b.block_id for s in self.stages for b in s.blocks]

    def find_block(self, block_id: str) -> BlockSpec:
        for s in self.stages:
            for b in s.blocks:
                if b.block_id == block_id:
                    return b
        raise UnknownBlockError(f"no block {block_id!r}")


@dataclass(frozen=True)
class ParamSpec:
    """Shape, initialiser and owner of one named parameter."""

    name: str
    shape: tuple
    init: str  # "fanin", "zeros", "ones", "avg"
    owner: str  # block_id or a pseudo owner like "stem"; the name's prefix


def parse_block_id(block_id: str):
    """Return (stage_kind, stage_index, block_type, layer_index, variant)."""
    parts = block_id.split(".")
    try:
        if parts[0] == "M":
            kind, idx, rest = "Mid", 0, parts[1:]
        elif parts[0] == "D":
            kind, idx, rest = "Down", int(parts[1]), parts[2:]
        elif parts[0] == "U":
            kind, idx, rest = "Up", int(parts[1]), parts[2:]
        else:
            raise ValueError(parts[0])
        btype, layer, variant = rest[0], int(rest[1]), rest[2]
        if btype not in ("R", "A") or variant not in ("S", "T"):
            raise ValueError(block_id)
    except (ValueError, IndexError) as exc:
        raise UnknownBlockError(f"unparseable block id {block_id!r}") from exc
    return kind, idx, btype, layer, variant


def _make_layer(stage_id: str, layer: int, width: int, in_channels: int, with_attn: bool):
    """One R(-A) layer: spatial+temporal ResBlocks, then spatial+temporal attention."""
    blocks = [
        BlockSpec(RES_SPATIAL, in_channels, width, f"{stage_id}.R.{layer}.S"),
        BlockSpec(RES_TEMPORAL, width, width, f"{stage_id}.R.{layer}.T"),
    ]
    if with_attn:
        blocks += [
            BlockSpec(ATTN_SPATIAL, width, width, f"{stage_id}.A.{layer}.S"),
            BlockSpec(ATTN_TEMPORAL, width, width, f"{stage_id}.A.{layer}.T"),
        ]
    return blocks


def make_unet_graph(layer_counts: dict, widths: tuple, latent_channels: int = 1,
                    cond_channels: int = 1, emb_dim: int = 32) -> BlockGraph:
    """Build a 4-Down / Mid / 4-Up graph from per-stage R-A layer counts.

    layer_counts maps stage id to layer count, e.g. {"D.0": 2, ..., "M": 2,
    "U.0": 3, ...}. Down-3 and Up-0 carry ResBlock layers only; Mid gets
    `layer_counts["M"]` ResBlock layers with one attention layer between
    the first two (omitted when fewer than 2 layers).
    """
    w0, w1, w2 = widths
    stage_widths = {"D.0": w0, "D.1": w1, "D.2": w2, "D.3": w2, "M": w2,
                    "U.0": w2, "U.1": w2, "U.2": w1, "U.3": w0}
    divisors = {"D.0": 1, "D.1": 2, "D.2": 4, "D.3": 8, "M": 8,
                "U.0": 8, "U.1": 4, "U.2": 2, "U.3": 1}
    skip_of = {"U.0": "D.3", "U.1": "D.2", "U.2": "D.1", "U.3": "D.0"}

    stages = []
    for i in range(4):
        sid = f"D.{i}"
        w = stage_widths[sid]
        blocks = []
        for layer in range(layer_counts.get(sid, 0)):
            blocks += _make_layer(sid, layer, w, w, with_attn=(i < 3))
        stages.append(StageSpec("Down", i, divisors[sid], w, tuple(blocks)))

    mid_blocks = []
    n_mid = layer_counts.get("M", 0)
    for layer in range(n_mid):
        mid_blocks += _make_layer("M", layer, w2, w2, with_attn=False)
        if layer == 0 and n_mid >= 2:
            mid_blocks += [
                BlockSpec(ATTN_SPATIAL, w2, w2, "M.A.0.S"),
                BlockSpec(ATTN_TEMPORAL, w2, w2, "M.A.0.T"),
            ]
    stages.append(StageSpec("Mid", 0, divisors["M"], w2, tuple(mid_blocks)))

    for j in range(4):
        sid = f"U.{j}"
        w = stage_widths[sid]
        skip_w = stage_widths[skip_of[sid]]
        blocks = []
        for layer in range(layer_counts.get(sid, 0)):
            in_ch = w + skip_w if layer == 0 else w
            blocks += _make_layer(sid, layer, w, in_ch, with_attn=(j > 0))
        stages.append(StageSpec("Up", j, divisors[sid], w, tuple(blocks)))
    return BlockGraph(tuple(stages), latent_channels, cond_channels, emb_dim)


ORIGIN_LAYER_COUNTS = {"D.0": 2, "D.1": 2, "D.2": 2, "D.3": 2, "M": 2,
                       "U.0": 3, "U.1": 3, "U.2": 3, "U.3": 3}
TOY_WIDTHS = (16, 32, 64)


def toy_teacher_graph() -> BlockGraph:
    """Desk-scale analogue of the full-size Origin architecture."""
    return make_unet_graph(ORIGIN_LAYER_COUNTS, TOY_WIDTHS)


# ---------------------------------------------------------------------------
# structural walk
# ---------------------------------------------------------------------------

@dataclass
class StagePlan:
    stage: StageSpec
    down_conv: Optional[tuple] = None  # (in, out)
    up_conv: Optional[tuple] = None
    skip_from: Optional[str] = None  # stage id whose skip is concatenated


@dataclass
class GraphLayout:
    stem: tuple  # (in, out)
    stages: list
    head: tuple
    errors: list = field(default_factory=list)


def layout(graph: BlockGraph) -> GraphLayout:
    """Walk the graph, resolving channel flow and resolution transitions."""
    errors = []
    downs = [s for s in graph.stages if s.kind == "Down"]
    mids = [s for s in graph.stages if s.kind == "Mid"]
    ups = [s for s in graph.stages if s.kind == "Up"]
    if len(downs) != len(ups):
        errors.append(f"skip pairing incomplete: {len(downs)} Down vs {len(ups)} Up stages")
    order = downs + mids + ups
    if [s.stage_id for s in graph.stages] != [s.stage_id for s in order]:
        errors.append("stages must be ordered Down, Mid, Up")

    seen = set()
    for s in graph.stages:
        for b in s.blocks:
            if b.block_id in seen:
                errors.append(f"duplicate block id {b.block_id}")
            seen.add(b.block_id)
            parse_block_id(b.block_id)
            if b.replacement == IDENTITY and b.in_channels != b.out_channels:
                errors.append(f"{b.block_id}: identity replacement with channel mismatch "
                              f"{b.in_channels}->{b.out_channels}")

    # the stem conv maps latent+cond channels to the first stage's width,
    # so the walk starts there
    cur_ch = downs[0].width if downs else graph.latent_channels + graph.cond_channels
    cur_div = 1
    skips: dict = {}  # Down stage id -> its output channels
    plans = []

    def check_blocks(stage: StageSpec, in_ch: int) -> int:
        ch = in_ch
        for b in stage.blocks:
            if b.in_channels != ch:
                errors.append(f"{b.block_id}: expects in={b.in_channels} but receives {ch}")
            if b.kind != RES_SPATIAL and b.in_channels != b.out_channels:
                errors.append(f"{b.block_id}: only spatial ResBlocks may change channels")
            if b.out_channels != stage.width and b.replacement is None:
                errors.append(f"{b.block_id}: out={b.out_channels} differs from stage width {stage.width}")
            ch = b.out_channels
        return ch

    for stage in graph.stages:
        sid = stage.stage_id
        sp = StagePlan(stage)
        if stage.kind == "Down":
            if stage.res_divisor > cur_div:
                sp.down_conv = (cur_ch, stage.width)
                cur_ch = stage.width
            elif stage.width != cur_ch:
                errors.append(f"stage {sid}: width {stage.width} without transition from {cur_ch}")
            cur_div = stage.res_divisor
            cur_ch = check_blocks(stage, cur_ch)
            skips[sid] = cur_ch
        elif stage.kind == "Mid":
            if stage.res_divisor != cur_div:
                errors.append(f"stage {sid}: divisor {stage.res_divisor} != incoming {cur_div}")
            if stage.blocks and stage.width != cur_ch:
                errors.append(f"stage {sid}: width {stage.width} but receives {cur_ch} channels")
            cur_ch = check_blocks(stage, cur_ch)
        else:  # Up
            if stage.res_divisor < cur_div:
                sp.up_conv = (cur_ch, stage.width)
                cur_ch = stage.width
                cur_div = stage.res_divisor
            pair = f"D.{len(ups) - 1 - stage.index}"
            if stage.blocks:
                if pair not in skips:
                    errors.append(f"stage {sid}: paired skip {pair} missing")
                else:
                    sp.skip_from = pair
                    cur_ch += skips[pair]
            cur_ch = check_blocks(stage, cur_ch)
        plans.append(sp)

    head = (cur_ch, graph.latent_channels)
    stem = (graph.latent_channels + graph.cond_channels, downs[0].width if downs else cur_ch)
    return GraphLayout(stem=stem, stages=plans, head=head, errors=errors)


def check(graph: BlockGraph) -> GraphLayout:
    lay = layout(graph)
    if lay.errors:
        raise GraphError(lay.errors)
    return lay


# ---------------------------------------------------------------------------
# parameter enumeration
# ---------------------------------------------------------------------------

def _res_block_params(b: BlockSpec, graph: BlockGraph):
    bid = b.block_id
    cin, c = b.in_channels, b.out_channels
    e = graph.emb_dim
    spatial = b.kind == RES_SPATIAL
    kshape = (c, cin, 3, 3) if spatial else (c, cin, 3)
    k2shape = (c, c, 3, 3) if spatial else (c, c, 3)
    specs = [
        ParamSpec(f"{bid}.gn1.g", (cin,), "ones", bid),
        ParamSpec(f"{bid}.gn1.b", (cin,), "zeros", bid),
        ParamSpec(f"{bid}.conv1.w", kshape, "fanin", bid),
        ParamSpec(f"{bid}.conv1.b", (c,), "zeros", bid),
        ParamSpec(f"{bid}.emb.w", (c, e), "fanin", bid),
        ParamSpec(f"{bid}.emb.b", (c,), "zeros", bid),
        ParamSpec(f"{bid}.gn2.g", (c,), "ones", bid),
        ParamSpec(f"{bid}.gn2.b", (c,), "zeros", bid),
        ParamSpec(f"{bid}.conv2.w", k2shape, "zeros", bid),
        ParamSpec(f"{bid}.conv2.b", (c,), "zeros", bid),
    ]
    if cin != c:
        specs += [
            ParamSpec(f"{bid}.skip.w", (c, cin, 1, 1), "fanin", bid),
            ParamSpec(f"{bid}.skip.b", (c,), "zeros", bid),
        ]
    return specs


def _attn_block_params(b: BlockSpec):
    bid = b.block_id
    c = b.out_channels
    h = 4 * c
    return [
        ParamSpec(f"{bid}.gn.g", (c,), "ones", bid),
        ParamSpec(f"{bid}.gn.b", (c,), "zeros", bid),
        ParamSpec(f"{bid}.wq", (c, c), "fanin", bid),
        ParamSpec(f"{bid}.wk", (c, c), "fanin", bid),
        ParamSpec(f"{bid}.wv", (c, c), "fanin", bid),
        ParamSpec(f"{bid}.wo", (c, c), "zeros", bid),
        ParamSpec(f"{bid}.gn2.g", (c,), "ones", bid),
        ParamSpec(f"{bid}.gn2.b", (c,), "zeros", bid),
        ParamSpec(f"{bid}.lin1.w", (h, c), "fanin", bid),
        ParamSpec(f"{bid}.lin1.b", (h,), "zeros", bid),
        ParamSpec(f"{bid}.lin2.w", (c, h), "zeros", bid),
        ParamSpec(f"{bid}.lin2.b", (c,), "zeros", bid),
    ]


def shortcut_params(b: BlockSpec) -> list:
    """The 1x1 conv that stands in for a block ablated with a channel change."""
    return [ParamSpec(f"{b.block_id}.ablate.w", (b.out_channels, b.in_channels, 1, 1),
                      "avg", b.block_id),
            ParamSpec(f"{b.block_id}.ablate.b", (b.out_channels,), "zeros", b.block_id)]


def enumerate_params(graph: BlockGraph) -> list:
    """Every parameter of the built model, in canonical order."""
    lay = check(graph)
    e = graph.emb_dim
    cin, cout = lay.stem
    specs = [
        ParamSpec("stem.conv.w", (cout, cin, 3, 3), "fanin", "stem"),
        ParamSpec("stem.conv.b", (cout,), "zeros", "stem"),
        ParamSpec("emb.lin1.w", (e, e), "fanin", "emb"),
        ParamSpec("emb.lin1.b", (e,), "zeros", "emb"),
        ParamSpec("emb.lin2.w", (e, e), "fanin", "emb"),
        ParamSpec("emb.lin2.b", (e,), "zeros", "emb"),
    ]
    for sp in lay.stages:
        for conv, io in (("down", sp.down_conv), ("up", sp.up_conv)):
            if io:
                ci, co = io
                owner = f"{conv}.{sp.stage.stage_id}"
                specs += [ParamSpec(f"{owner}.w", (co, ci, 3, 3), "fanin", owner),
                          ParamSpec(f"{owner}.b", (co,), "zeros", owner)]
        for b in sp.stage.blocks:
            if b.replacement == IDENTITY:
                continue
            if b.replacement == SHORTCUT_CONV:
                specs += shortcut_params(b)
            elif b.kind in (RES_SPATIAL, RES_TEMPORAL):
                specs += _res_block_params(b, graph)
            else:
                specs += _attn_block_params(b)
    hin, hout = lay.head
    specs += [
        ParamSpec("head.gn.g", (hin,), "ones", "head"),
        ParamSpec("head.gn.b", (hin,), "zeros", "head"),
        ParamSpec("head.conv.w", (hout, hin, 3, 3), "fanin", "head"),
        ParamSpec("head.conv.b", (hout,), "zeros", "head"),
    ]
    return specs


def count_params(graph: BlockGraph) -> tuple:
    """(per-owner counts, total). Owners are block ids plus stem/head/etc."""
    per_owner: dict = {}
    total = 0
    for spec in enumerate_params(graph):
        n = int(np.prod(spec.shape))
        per_owner[spec.owner] = per_owner.get(spec.owner, 0) + n
        total += n
    return per_owner, total


def _init_param(spec: ParamSpec, init_seed: int) -> np.ndarray:
    if spec.init == "zeros":
        return np.zeros(spec.shape)
    if spec.init == "ones":
        return np.ones(spec.shape)
    if spec.init == "avg":
        w = np.zeros(spec.shape)
        w[:, :, 0, 0] = 1.0 / spec.shape[1]
        return w
    name_key = int.from_bytes(hashlib.blake2s(spec.name.encode()).digest()[:8], "little")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([init_seed, name_key])))
    fan_in = int(np.prod(spec.shape[1:])) or 1
    return rng.standard_normal(spec.shape) / math.sqrt(fan_in)


def init_params(graph: BlockGraph, init_seed: int) -> dict:
    return {s.name: Tensor(_init_param(s, init_seed), requires_grad=True)
            for s in enumerate_params(graph)}


# ---------------------------------------------------------------------------
# executable model
# ---------------------------------------------------------------------------

def sinusoidal_embedding(value, dim: int) -> Tensor:
    """One (sin, cos) row per noise level in `value`: a float gives one row."""
    half = dim // 2
    freqs = np.exp(np.linspace(0.0, math.log(1000.0), half))
    ang = np.reshape(value, (-1, 1)) * freqs
    return Tensor(np.concatenate([np.sin(ang), np.cos(ang)], axis=1))


@dataclass(frozen=True)
class Embedding:
    """What every block reads besides its input: the noise embedding, one
    (1, emb_dim) row that all videos share or one row per video, and the
    number of videos whose frames are stacked on axis 0."""
    value: Tensor
    videos: int = 1


@dataclass(frozen=True)
class BlockState:
    """What the forward walk holds on entering a block: the activation, the
    Down-stage outputs kept for skips so far, and the embedding."""
    h: Tensor
    skips: dict
    emb: Embedding


class Model:
    """Executable denoiser built from a BlockGraph."""

    def __init__(self, graph: BlockGraph, params: dict):
        self.graph = graph
        self.params = params
        self._layout = check(graph)

    def param_checksum(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.params):
            h.update(name.encode())
            h.update(np.ascontiguousarray(self.params[name].data, dtype="<f8").tobytes())
        return h.hexdigest()

    def _p(self, name: str) -> Tensor:
        return self.params[name]

    def _gn(self, x, prefix):
        return T.group_norm(x, self._p(f"{prefix}.g"), self._p(f"{prefix}.b"),
                            groups=self.graph.gn_groups)

    def _res_block(self, x, b: BlockSpec, emb: Embedding):
        bid = b.block_id
        spatial = b.kind == RES_SPATIAL
        conv = (lambda h, w, bias: T.conv2d(h, w, bias, pad=1)) if spatial else \
               (lambda h, w, bias: T.conv1d_frames(h, w, bias, pad=1, videos=emb.videos))
        h = T.silu(self._gn(x, f"{bid}.gn1"))
        h = conv(h, self._p(f"{bid}.conv1.w"), self._p(f"{bid}.conv1.b"))
        shift = T.linear(emb.value, self._p(f"{bid}.emb.w"), self._p(f"{bid}.emb.b"))
        h = T.bias_add(h, shift)
        h = T.silu(self._gn(h, f"{bid}.gn2"))
        h = conv(h, self._p(f"{bid}.conv2.w"), self._p(f"{bid}.conv2.b"))
        if b.in_channels != b.out_channels:
            x = T.conv2d(x, self._p(f"{bid}.skip.w"), self._p(f"{bid}.skip.b"))
        return T.add(x, h)

    def _attn_block(self, x, b: BlockSpec, videos: int):
        bid = b.block_id
        ws = [self._p(f"{bid}.{w}") for w in ("wq", "wk", "wv", "wo")]
        h = self._gn(x, f"{bid}.gn")
        if b.kind == ATTN_SPATIAL:
            x = T.add(x, T.attention_spatial(h, *ws))
        else:
            x = T.add(x, T.attention_temporal(h, *ws, videos=videos))
        # the MLP acts on the channel axis of (F, C, H, W), one GEMM per frame
        m = T.linear(self._gn(x, f"{bid}.gn2"), self._p(f"{bid}.lin1.w"), self._p(f"{bid}.lin1.b"), axis=1)
        m = T.silu(m)
        m = T.linear(m, self._p(f"{bid}.lin2.w"), self._p(f"{bid}.lin2.b"), axis=1)
        return T.add(x, m)

    def _block(self, x, b: BlockSpec, emb: Embedding):
        if b.replacement == IDENTITY:
            return x
        if b.replacement == SHORTCUT_CONV:
            return T.conv2d(x, self._p(f"{b.block_id}.ablate.w"), self._p(f"{b.block_id}.ablate.b"))
        if b.kind in (RES_SPATIAL, RES_TEMPORAL):
            return self._res_block(x, b, emb)
        return self._attn_block(x, b, emb.videos)

    def forward(self, x: Tensor, c_noise, cond: Optional[Tensor] = None,
                features: Optional[dict] = None, states: Optional[dict] = None,
                videos: int = 1, ablated: Sequence = ()) -> Tensor:
        """Denoiser inner network: (F, C, H, W) latent -> same shape.

        Axis 0 may hold `videos` equal runs of frames; they never mix, so
        each video's output is what it gets alone. `c_noise` is one noise
        level that they share (one embedding row) or one per video (a row
        each), as `cond` stacks one condition per video, of 1 or F frames
        each, and each is spread over its own video's frames.

        With `ablated` (BlockSpecs as `ablate` replaces them, a shortcut
        conv's parameters in `params`), c_noise is one level, the videos
        split into one run per entry, and run i is the output with block
        ablated[i] replaced (no gradients: the runs are split on raw arrays).

        Returns the output tensor. A `features` dict is filled with the
        activation leaving each Down and Up stage, keyed by stage id, and a
        `states` dict with the BlockState entering each block, keyed by
        block id, for `resume`.
        """
        g = self.graph
        nf = x.shape[0]
        if x.data.ndim != 4 or x.shape[1] != g.latent_channels:
            raise ShapeError(f"forward: latent shape {x.shape} vs {g.latent_channels} channels")
        runs, levels = max(1, len(ablated)), np.size(c_noise)
        if (videos < 1 or nf % videos or videos % runs or levels not in (1, videos)
                or levels > 1 and ablated):
            raise ShapeError(f"forward: {nf} frames and {levels} noise levels do not split "
                             f"into {videos} videos of {runs} models")
        frame = (g.cond_channels,) + x.shape[2:]
        if cond is None:
            cdata = np.zeros((nf,) + frame)
        else:
            per_video = cond.shape[0] // videos if cond.shape[0] % videos == 0 else 0
            if cond.shape[1:] != frame or per_video not in (1, nf // videos):
                raise ShapeError(f"forward: condition shape {cond.shape} vs latent {x.shape} "
                                 f"of {videos} videos")
            cdata = np.broadcast_to(cond.data.reshape((videos, per_video) + frame),
                                    (videos, nf // videos) + frame).reshape((nf,) + frame)
        emb = sinusoidal_embedding(c_noise, g.emb_dim)
        emb = T.silu(T.linear(emb, self._p("emb.lin1.w"), self._p("emb.lin1.b")))
        emb = T.linear(emb, self._p("emb.lin2.w"), self._p("emb.lin2.b"))
        h = T.concat([x, Tensor(cdata)], axis=1)
        h = T.conv2d(h, self._p("stem.conv.w"), self._p("stem.conv.b"), pad=1)
        return self._walk(h, Embedding(emb, videos // runs), ablated,
                          features=features, states=states)

    def resume(self, states: dict, ablated: Sequence) -> Tensor:
        """`forward(x, ..., ablated=ablated)` for the x whose own forward
        through this model recorded `states`, taken once per entry: the walk
        starts at ablated[0]'s block, and run i joins at ablated[i]'s block,
        from the state recorded there. `ablated` must be in walk order."""
        return self._walk(None, None, ablated, states)

    def _walk(self, h: Optional[Tensor], emb: Optional[Embedding], ablated: Sequence = (),
              recorded: Optional[dict] = None, features: Optional[dict] = None,
              states: Optional[dict] = None) -> Tensor:
        """Run the stages and the head on the stem output h, which stacks one
        run of `emb.videos` videos per entry of `ablated` (or one run when it
        is empty); run i takes block ablated[i]'s replacement.

        With `recorded`, h and emb are None: everything before ablated[0]'s
        block is skipped, and run i joins at ablated[i]'s block with the
        activation and skips recorded there."""
        at = {b.block_id: i for i, b in enumerate(ablated)}
        ids = [bid for bid in self.graph.block_ids() if bid in at] if at else []
        if len(ids) < len(ablated) or recorded is not None and (not ids or ids != list(at)):
            raise UnknownBlockError(f"ablated blocks {[b.block_id for b in ablated]}: unknown, "
                                    f"repeated, or not in walk order to resume")
        if recorded is None:
            runs = max(1, len(ablated))
            rows = h.shape[0] // runs
        else:
            runs, emb = 0, recorded[ids[0]].emb
        videos = emb.videos  # per run
        emb = Embedding(emb.value, runs * videos)
        skips: dict = {}  # Down stage id -> its output
        for sp in self._layout.stages:
            sid = sp.stage.stage_id
            if runs:
                if sp.down_conv:
                    h = T.conv2d(h, self._p(f"down.{sid}.w"), self._p(f"down.{sid}.b"),
                                 stride=2, pad=1)
                if sp.up_conv:
                    h = T.conv2d(T.upsample_nearest2x(h), self._p(f"up.{sid}.w"),
                                 self._p(f"up.{sid}.b"), pad=1)
                if sp.skip_from:
                    h = T.concat([h, skips[sp.skip_from]], axis=1)
            for b in sp.stage.blocks:
                i = at.get(b.block_id)
                if not runs and i != 0:
                    continue
                if states is not None:
                    states[b.block_id] = BlockState(h, dict(skips), emb)
                if i is None:
                    h = self._block(h, b, emb)
                    continue
                if i == runs:  # run i joins here, with the recorded state's rows
                    state = recorded[b.block_id]
                    h = T.concat([h, state.h]) if runs else state.h
                    skips = {k: T.concat([skips[k], s]) if runs else s
                             for k, s in state.skips.items()}
                    rows, runs = state.h.shape[0], runs + 1
                # run i takes the replacement, the other runs the block
                lo, hi = i * rows, (i + 1) * rows
                out = self._block(Tensor(h.data[lo:hi]), ablated[i], Embedding(emb.value, videos))
                if runs > 1:
                    rest = self._block(Tensor(np.concatenate([h.data[:lo], h.data[hi:]])), b,
                                       Embedding(emb.value, (runs - 1) * videos)).data
                    out = Tensor(np.concatenate([rest[:lo], out.data, rest[lo:]]))
                h = out
                emb = Embedding(emb.value, runs * videos)
            if runs and sp.stage.kind == "Down":
                skips[sid] = h
            if features is not None and sp.stage.kind in ("Down", "Up"):
                features[sid] = h
        return T.conv2d(T.silu(self._gn(h, "head.gn")), self._p("head.conv.w"),
                        self._p("head.conv.b"), pad=1)


def build(graph: BlockGraph, init_seed: int) -> Model:
    """Validate the graph and construct a deterministically initialized model."""
    check(graph)
    return Model(graph, init_params(graph, init_seed))


# ---------------------------------------------------------------------------
# ablation
# ---------------------------------------------------------------------------

def ablate(graph: BlockGraph, block_id: str) -> BlockGraph:
    """The graph with one block replaced by identity (or by a 1x1 shortcut
    conv when its channels change)."""
    target = graph.find_block(block_id)
    if target.replacement is not None:
        raise UnknownBlockError(f"{block_id} is already ablated")
    repl = IDENTITY if target.in_channels == target.out_channels else SHORTCUT_CONV
    new_stages = []
    for s in graph.stages:
        blocks = tuple(replace(b, replacement=repl) if b.block_id == block_id else b
                       for b in s.blocks)
        new_stages.append(replace(s, blocks=blocks))
    return replace(graph, stages=tuple(new_stages))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def graph_to_json(graph: BlockGraph) -> str:
    doc = {
        "latent_channels": graph.latent_channels,
        "cond_channels": graph.cond_channels,
        "emb_dim": graph.emb_dim,
        "gn_groups": graph.gn_groups,
        "stages": [
            {
                "kind": s.kind,
                "index": s.index,
                "res_divisor": s.res_divisor,
                "width": s.width,
                "blocks": [
                    {
                        "kind": b.kind,
                        "in_channels": b.in_channels,
                        "out_channels": b.out_channels,
                        "block_id": b.block_id,
                        **({"replacement": b.replacement} if b.replacement else {}),
                    }
                    for b in s.blocks
                ],
            }
            for s in graph.stages
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def graph_from_json(text: str) -> BlockGraph:
    doc = json.loads(text)
    stages = tuple(
        StageSpec(
            kind=s["kind"], index=s["index"], res_divisor=s["res_divisor"], width=s["width"],
            blocks=tuple(BlockSpec(b["kind"], b["in_channels"], b["out_channels"],
                                   b["block_id"], b.get("replacement")) for b in s["blocks"]),
        )
        for s in doc["stages"]
    )
    return BlockGraph(stages, doc["latent_channels"], doc["cond_channels"],
                      doc["emb_dim"], doc["gn_groups"])
