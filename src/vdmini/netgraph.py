"""Video U-Net graphs given by their layer counts.

A BlockGraph is one R-A layer count per stage of STAGE_IDS (four Down
stages, Mid, four Up stages), three widths and its channel counts. Its
stages, with their blocks, resampling convs and skip pairs, are derived
from these fields, and the same stages drive parameter enumeration,
parameter counting and the model's walk. Stages persist even when emptied
by pruning; an empty stage keeps its resolution transition but runs no
blocks, which keeps stage-boundary activations shape-compatible between a
teacher and its pruned student.

Block ids follow the D/M/U naming, e.g. "D.0.R.1.S" is the spatial half
of the second ResBlock layer of the first DownBlock; "M.A.0.T" is the
temporal attention block in the Mid stage.

An ablation is no graph: `ablate` gives the BlockSpec that stands in for
one block, and `Model.forward` and `Model.resume` walk a group of ablated
models at once, one run of videos per model. `resume` starts at the
group's first block from the states a forward recorded; each run joins at
its own block.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, replace
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

STAGE_IDS = ("D.0", "D.1", "D.2", "D.3", "M", "U.0", "U.1", "U.2", "U.3")
# per stage: which of the three widths it has, its resolution divisor, and
# whether each of its layers has attention (Mid has one attention layer,
# after its first ResBlock layer, when it has at least two)
_WIDTH_INDEX = dict(zip(STAGE_IDS, (0, 1, 2, 2, 2, 2, 2, 1, 0)))
_RES_DIVISOR = dict(zip(STAGE_IDS, (1, 2, 4, 8, 8, 8, 4, 2, 1)))
_ATTN_STAGES = ("D.0", "D.1", "D.2", "U.1", "U.2", "U.3")
_GN_GROUPS = 1


@dataclass(frozen=True)
class BlockSpec:
    kind: str
    in_channels: int
    out_channels: int
    block_id: str
    replacement: Optional[str] = None  # None, "identity", or "shortcut_conv"


@dataclass(frozen=True)
class StageSpec:
    stage_id: str
    width: int
    res_divisor: int
    blocks: tuple
    resample: Optional[str]  # "down" or "up": the 3x3 conv entering the stage
    in_channels: int  # the previous stage's width: the resample conv's input
    skip_from: Optional[str]  # the Down stage whose output the first block also reads


@functools.lru_cache(maxsize=32)
def _stages(counts: tuple, widths: tuple) -> tuple:
    """(stages, where) of the graph with `counts` layers per stage, `where`
    mapping each block id to its (stage, block) index; derived once per
    (counts, widths)."""
    stages, prev_w, prev_div = [], widths[0], 1
    for sid, n in zip(STAGE_IDS, counts):
        w, div = widths[_WIDTH_INDEX[sid]], _RES_DIVISOR[sid]
        resample = "down" if div > prev_div else "up" if div < prev_div else None
        skip = f"D.{3 - int(sid[2])}" if sid[0] == "U" and n else None
        cin = w + widths[_WIDTH_INDEX[skip]] if skip else w
        blocks = []
        for layer in range(n):
            blocks += [BlockSpec(RES_SPATIAL, cin if layer == 0 else w, w, f"{sid}.R.{layer}.S"),
                       BlockSpec(RES_TEMPORAL, w, w, f"{sid}.R.{layer}.T")]
            if sid in _ATTN_STAGES or sid == "M" and layer == 0 and n >= 2:
                blocks += [BlockSpec(ATTN_SPATIAL, w, w, f"{sid}.A.{layer}.S"),
                           BlockSpec(ATTN_TEMPORAL, w, w, f"{sid}.A.{layer}.T")]
        stages.append(StageSpec(sid, w, div, tuple(blocks), resample, prev_w, skip))
        prev_w, prev_div = w, div
    return tuple(stages), {b.block_id: (i, j) for i, s in enumerate(stages)
                           for j, b in enumerate(s.blocks)}


@dataclass(frozen=True)
class BlockGraph:
    """A U-Net given by its layer counts, widths and channel counts; its
    stages are derived from these on first use."""

    layer_counts: dict  # stage id -> R-A layer count, for every stage of STAGE_IDS
    widths: tuple  # of D.0, D.1 and D.2; the deeper stages keep D.2's
    latent_channels: int = 1
    cond_channels: int = 1
    emb_dim: int = 32

    @functools.cached_property
    def _derived(self) -> tuple:
        """(stages, where) as `_stages` derives them."""
        return _stages(tuple(self.layer_counts[sid] for sid in STAGE_IDS), self.widths)

    @property
    def stages(self) -> tuple:
        return self._derived[0]

    def stage(self, stage_id: str) -> StageSpec:
        if stage_id not in STAGE_IDS:
            raise UnknownBlockError(f"no stage {stage_id!r}")
        return self.stages[STAGE_IDS.index(stage_id)]

    def block_ids(self) -> list:
        return [b.block_id for s in self.stages for b in s.blocks]

    def find_block(self, block_id: str) -> BlockSpec:
        stages, where = self._derived
        if block_id not in where:
            raise UnknownBlockError(f"no block {block_id!r}")
        i, j = where[block_id]
        return stages[i].blocks[j]


@dataclass(frozen=True)
class ParamSpec:
    """Shape, initialiser and owner of one named parameter."""

    name: str
    shape: tuple
    init: str  # "fanin", "zeros", "ones", "avg"
    owner: str  # block_id or a pseudo owner like "stem"; the name's prefix


def make_unet_graph(layer_counts: dict, widths: tuple, latent_channels: int = 1,
                    cond_channels: int = 1, emb_dim: int = 32) -> BlockGraph:
    """A 4-Down / Mid / 4-Up graph from per-stage R-A layer counts.

    layer_counts maps stage id to layer count, e.g. {"D.0": 2, ..., "M": 2,
    "U.0": 3, ...}; a stage it leaves out has none. Down-3 and Up-0 carry
    ResBlock layers only; Mid gets `layer_counts["M"]` ResBlock layers with
    one attention layer between the first two (omitted when fewer than 2
    layers).
    """
    return BlockGraph({sid: layer_counts.get(sid, 0) for sid in STAGE_IDS}, tuple(widths),
                      latent_channels, cond_channels, emb_dim)


ORIGIN_LAYER_COUNTS = {"D.0": 2, "D.1": 2, "D.2": 2, "D.3": 2, "M": 2,
                       "U.0": 3, "U.1": 3, "U.2": 3, "U.3": 3}
TOY_WIDTHS = (16, 32, 64)


def toy_teacher_graph() -> BlockGraph:
    """Desk-scale analogue of the full-size Origin architecture."""
    return make_unet_graph(ORIGIN_LAYER_COUNTS, TOY_WIDTHS)


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
    e, w0 = graph.emb_dim, graph.widths[0]
    specs = [
        ParamSpec("stem.conv.w", (w0, graph.latent_channels + graph.cond_channels, 3, 3),
                  "fanin", "stem"),
        ParamSpec("stem.conv.b", (w0,), "zeros", "stem"),
        ParamSpec("emb.lin1.w", (e, e), "fanin", "emb"),
        ParamSpec("emb.lin1.b", (e,), "zeros", "emb"),
        ParamSpec("emb.lin2.w", (e, e), "fanin", "emb"),
        ParamSpec("emb.lin2.b", (e,), "zeros", "emb"),
    ]
    for s in graph.stages:
        if s.resample:
            owner = f"{s.resample}.{s.stage_id}"
            specs += [ParamSpec(f"{owner}.w", (s.width, s.in_channels, 3, 3), "fanin", owner),
                      ParamSpec(f"{owner}.b", (s.width,), "zeros", owner)]
        for b in s.blocks:
            if b.kind in (RES_SPATIAL, RES_TEMPORAL):
                specs += _res_block_params(b, graph)
            else:
                specs += _attn_block_params(b)
    specs += [
        ParamSpec("head.gn.g", (w0,), "ones", "head"),
        ParamSpec("head.gn.b", (w0,), "zeros", "head"),
        ParamSpec("head.conv.w", (graph.latent_channels, w0, 3, 3), "fanin", "head"),
        ParamSpec("head.conv.b", (graph.latent_channels,), "zeros", "head"),
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
                            groups=_GN_GROUPS)

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

        With `ablated` (BlockSpecs as `ablate` gives them, a shortcut
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
        for s in self.graph.stages:
            sid = s.stage_id
            if runs:
                if s.resample == "down":
                    h = T.conv2d(h, self._p(f"down.{sid}.w"), self._p(f"down.{sid}.b"),
                                 stride=2, pad=1)
                elif s.resample == "up":
                    h = T.conv2d(T.upsample_nearest2x(h), self._p(f"up.{sid}.w"),
                                 self._p(f"up.{sid}.b"), pad=1)
                if s.skip_from:
                    h = T.concat([h, skips[s.skip_from]], axis=1)
            for b in s.blocks:
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
            if runs and sid[0] == "D":
                skips[sid] = h
            if features is not None and sid[0] in "DU":
                features[sid] = h
        return T.conv2d(T.silu(self._gn(h, "head.gn")), self._p("head.conv.w"),
                        self._p("head.conv.b"), pad=1)


def build(graph: BlockGraph, init_seed: int) -> Model:
    """A deterministically initialized model of the graph."""
    return Model(graph, init_params(graph, init_seed))


# ---------------------------------------------------------------------------
# ablation
# ---------------------------------------------------------------------------

def ablate(graph: BlockGraph, block_id: str) -> BlockSpec:
    """What stands in for one block of the graph when it is ablated: the
    block replaced by identity (or by a 1x1 shortcut conv, `shortcut_params`,
    when its channels change)."""
    target = graph.find_block(block_id)
    repl = IDENTITY if target.in_channels == target.out_channels else SHORTCUT_CONV
    return replace(target, replacement=repl)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def graph_to_json(graph: BlockGraph) -> str:
    doc = {
        "layer_counts": graph.layer_counts,
        "widths": list(graph.widths),
        "latent_channels": graph.latent_channels,
        "cond_channels": graph.cond_channels,
        "emb_dim": graph.emb_dim,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _is_count(v) -> bool:
    return type(v) is int and v >= 0


def graph_from_json(text: str) -> BlockGraph:
    """The graph `graph_to_json` wrote. Layer counts for other stages than
    STAGE_IDS or that are not non-negative integers, widths that are not
    three positive integers, channel counts that are not positive integers
    and an odd `emb_dim` raise GraphError; other keys are ignored."""
    try:
        doc = json.loads(text)
        counts, widths = doc["layer_counts"], doc["widths"]
        channels = [doc[k] for k in ("latent_channels", "cond_channels", "emb_dim")]
    except (ValueError, TypeError, KeyError) as exc:
        raise GraphError(f"graph: not a graph document ({exc!r})") from None
    if not (isinstance(counts, dict) and set(counts) == set(STAGE_IDS)
            and all(map(_is_count, counts.values()))):
        raise GraphError(f"graph: 'layer_counts' must map exactly the stages {list(STAGE_IDS)} "
                         f"to non-negative integers, not {counts!r}")
    if not (isinstance(widths, list) and len(widths) == 3
            and all(_is_count(v) and v > 0 for v in widths + channels) and channels[2] % 2 == 0):
        raise GraphError(f"graph: 'widths' must be 3 positive integers, the channel counts "
                         f"positive integers and 'emb_dim' even, not {widths!r} and {channels!r}")
    return make_unet_graph(counts, widths, *channels)
