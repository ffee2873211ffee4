"""Span recording for the traced benchmark run, from outside the program.

The tracer wraps the public functions of each vdmini module at the name its
callers look up (a module attribute, a class attribute, or an entry of
`cli.COMMANDS`), and wraps the `vjp` of every tape node an op returns.
Spans (metric key, start, end, parent, phase, tag) are kept in memory and
turned into per-layer metrics, per unit of work, when the run ends.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

MS = 1e3
MIB = float(2 ** 20)
ATTN = "attn"
# key of the benchmark's own reference computation when it runs inside a
# program call; its time is taken out of every enclosing span
REFERENCE = "trace.reference"

# Op kinds that some workload runs. `attention_spatial` and
# `attention_temporal` are composites of these and are reported together,
# inclusive, as tensor.attention.*.
OP_KINDS = ("add", "add_scalar", "bias_add", "concat", "conv1d_frames", "conv2d",
            "group_norm", "linear", "matmul", "mean", "mse", "mul_scalar", "relu",
            "reshape", "silu", "softmax", "softplus", "transpose",
            "upsample_nearest2x")
ATTENTION_KINDS = ("attention_spatial", "attention_temporal")
BLOCK_KINDS = ("RB-S", "RB-T", "TB-S", "TB-T")
ROLES = ("teacher", "student")
CLI_STAGES = ("gen-data", "train-teacher", "profile", "plan", "distill", "eval",
              "report")

_LOOP_LAYERS = (
    [(f"tensor.{k}.{d}_ms", "ms") for k in OP_KINDS for d in ("fwd", "vjp")]
    + [("tensor.attention.fwd_ms", "ms"), ("tensor.attention.vjp_ms", "ms"),
       ("tensor.backward_ms", "ms"), ("tensor.tape_nodes", "count"),
       ("tensor.tape_mb", "MB"), ("tensor.grads_unused_mb", "MB"),
       ("netgraph.forward_ms", "ms"), ("netgraph.forward_taped_ms", "ms")]
    + [(f"netgraph.{r}.{k}_ms", "ms") for r in ROLES for k in BLOCK_KINDS + ("resample",)]
    + [("netgraph.param_checksum_ms", "ms"), ("netgraph.param_checksum_calls", "count"),
       ("diffusion.denoising_loss_ms", "ms"), ("diffusion.sample_ms", "ms"),
       ("optim.adam_step_ms", "ms"),
       ("icmd.distill_step_ms", "ms"), ("icmd.critic_ms", "ms"),
       ("icmd.teacher_features_ms", "ms"), ("icmd.student_forward_ms", "ms"),
       ("icmd.student_backward_ms", "ms"), ("icmd.discriminator.fwd_ms", "ms"),
       ("evalkit.extract_features_ms", "ms"), ("evalkit.videos_embedded", "count"),
       ("evalkit.fvd_ms", "ms"), ("evalkit.fvd_calls", "count"),
       ("pruner.profile_importance_s", "s"), ("pruner.blocks_profiled", "count"),
       ("pruner.apply_plan_ms", "ms"),
       ("synthdata.gen_dataset_ms", "ms"), ("synthdata.save_dataset_ms", "ms"),
       ("synthdata.load_dataset_ms", "ms"),
       ("checkpoint.save_ms", "ms"), ("checkpoint.load_ms", "ms"),
       ("checkpoint.mb_written", "MB")]
    + [(f"cli.{s.replace('-', '_')}_s", "s") for s in CLI_STAGES]
)
# Layers that some workload runs in set-up; they are reported per set-up
# under `setup.<key>` as well as per unit of the measured loop.
SETUP_LAYERS = ("synthdata.gen_dataset_ms", "synthdata.save_dataset_ms",
                "checkpoint.save_ms", "checkpoint.load_ms", "checkpoint.mb_written",
                "pruner.apply_plan_ms", "cli.gen_data_s", "cli.plan_s")
PER_LAYER = (_LOOP_LAYERS
             + [(f"setup.{k}", u) for k, u in _LOOP_LAYERS if k in SETUP_LAYERS]
             + [("trace.overhead_pct", "%")])

# Keys whose value is the span's self time; every other span counts its
# whole duration.
_SELF_KEYS = frozenset([f"tensor.{k}.fwd_ms" for k in OP_KINDS] + ["evalkit.fvd_ms"])


class Tracer:
    """In-memory span and counter store; spans nest by call order."""

    def __init__(self):
        # each span: [key, start, end, parent index or -1, phase, tag]
        self.spans: list = []
        self.counters: dict = defaultdict(float)  # (phase, key) -> total
        self.phase = "setup"
        self.attn_depth = 0
        self._stack: list = []
        self._pending_grads: dict = {}  # id(grad) -> (grad, MiB)

    def begin(self, key: str, tag=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([key, time.perf_counter(), 0.0, parent, self.phase, tag])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[(self.phase, key)] += value

    def timed(self, fn, key: str, tag=None):
        def wrapped(*args, **kwargs):
            idx = self.begin(key, tag)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return wrapped

    # gradients that backward returned and no Adam.step consumed
    def grads_returned(self, grads: dict) -> None:
        self.flush_grads()
        self._pending_grads = {id(g): (g, g.data.nbytes / MIB) for g in grads.values()}

    def grads_consumed(self, params: dict, grads: dict) -> None:
        for name in params:
            g = grads.get(name)
            if g is not None:
                self._pending_grads.pop(id(g), None)
        self.flush_grads()

    def flush_grads(self) -> None:
        unused = sum(mb for _, mb in self._pending_grads.values())
        if self._pending_grads:
            self.count("tensor.grads_unused_mb", unused)
        self._pending_grads = {}

    def to_json(self) -> dict:
        t0 = self.spans[0][1] if self.spans else 0.0
        return {"fields": ["key", "start_us", "end_us", "parent", "phase", "tag"],
                "spans": [[k, round((s - t0) * 1e6), round((e - t0) * 1e6), p, ph, t]
                          for k, s, e, p, ph, t in self.spans],
                "counters": [[p, k, v] for (p, k), v in sorted(self.counters.items())]}


class Patcher:
    """Replaces attributes and restores them in reverse order."""

    def __init__(self):
        self._saved: list = []

    def set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._saved.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)


def instrument(tracer: Tracer) -> Patcher:
    """Wrap every layer boundary the per-layer metrics need."""
    from vdmini import (checkpoint, cli, diffusion, evalkit, icmd, netgraph, optim,
                        pruner, synthdata)
    from vdmini import tensor as T

    p = Patcher()
    timed = tracer.timed

    def op(kind, fn):
        fwd_key, vjp_key = f"tensor.{kind}.fwd_ms", f"tensor.{kind}.vjp_ms"

        def wrapped(*args, **kwargs):
            tag = ATTN if tracer.attn_depth else None
            idx = tracer.begin(fwd_key, tag)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            node = out.node
            if node is not None and node.op == kind:
                node.vjp = timed(node.vjp, vjp_key, tag)
            return out
        return wrapped

    def attention(fn):
        def wrapped(*args, **kwargs):
            tracer.attn_depth += 1
            idx = tracer.begin("tensor.attention.fwd_ms")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)
                tracer.attn_depth -= 1
        return wrapped

    for attr, fn in list(vars(T).items()):
        kind = next((k for k, f in T._OPS.items() if f is fn), None)
        if kind in ATTENTION_KINDS:
            p.set(T, attr, attention(fn))
        elif kind is not None:
            p.set(T, attr, op(kind, fn))

    orig_backward = T.backward

    def backward(tape, root):
        tracer.count("tensor.tape_nodes", len(tape.nodes))
        tracer.count("tensor.tape_mb", sum(out.data.nbytes for _, out in tape.nodes) / MIB)
        idx = tracer.begin("tensor.backward_ms")
        try:
            grads = orig_backward(tape, root)
        finally:
            tracer.end(idx)
        tracer.grads_returned(grads)
        return grads

    # cli, icmd and pruner bind backward by name at import
    for module in (T, cli, icmd, pruner):
        p.set(module, "backward", backward)

    n_teacher_blocks = len(netgraph.toy_teacher_graph().block_ids())
    roles: dict = {}  # id(graph) -> (graph, role); holding the graph keeps its id unique

    def role_of(model) -> str:
        graph = model.graph
        entry = roles.get(id(graph))
        if entry is None:
            role = "teacher" if len(graph.block_ids()) == n_teacher_blocks else "student"
            entry = roles[id(graph)] = (graph, role)
        return entry[1]

    Model = netgraph.Model
    orig_forward, orig_block = Model.forward, Model._block

    def forward(self, *args, **kwargs):
        key = "netgraph.forward_taped_ms" if T.Tape.current() is not None else "netgraph.forward_ms"
        idx = tracer.begin(key, role_of(self))
        try:
            return orig_forward(self, *args, **kwargs)
        finally:
            tracer.end(idx)

    def block(self, x, b, emb):
        idx = tracer.begin(f"netgraph.{role_of(self)}.{b.kind}_ms")
        try:
            return orig_block(self, x, b, emb)
        finally:
            tracer.end(idx)

    p.set(Model, "forward", forward)
    p.set(Model, "_block", block)
    timed_checksum = timed(Model.param_checksum, "netgraph.param_checksum_ms")

    def param_checksum(self):
        tracer.count("netgraph.param_checksum_calls")
        return timed_checksum(self)

    p.set(Model, "param_checksum", param_checksum)

    orig_ablate = netgraph.ablate

    def ablate(graph, block_id):
        tracer.count("pruner.blocks_profiled")
        return orig_ablate(graph, block_id)

    p.set(netgraph, "ablate", ablate)

    timed_adam = timed(optim.Adam.step, "optim.adam_step_ms")

    def adam_step(self, params, grads):
        out = timed_adam(self, params, grads)
        tracer.grads_consumed(params, grads)
        return out

    p.set(optim.Adam, "step", adam_step)

    orig_embed = evalkit.FeatureExtractor.embed

    def embed(self, video):
        tracer.count("evalkit.videos_embedded")
        return orig_embed(self, video)

    p.set(evalkit.FeatureExtractor, "embed", embed)
    timed_fvd = timed(evalkit.fvd, "evalkit.fvd_ms")

    def fvd(*args, **kwargs):
        tracer.count("evalkit.fvd_calls")
        return timed_fvd(*args, **kwargs)

    p.set(evalkit, "fvd", fvd)

    timed_save = timed(checkpoint.save_checkpoint, "checkpoint.save_ms")

    def save_checkpoint(params, path):
        timed_save(params, path)
        tracer.count("checkpoint.mb_written", os.path.getsize(path) / MIB)

    p.set(checkpoint, "save_checkpoint", save_checkpoint)

    for owner, attr, key in (
            (checkpoint, "load_checkpoint", "checkpoint.load_ms"),
            (diffusion, "denoising_loss", "diffusion.denoising_loss_ms"),
            (diffusion, "sample", "diffusion.sample_ms"),
            (icmd, "distill_step", "icmd.distill_step_ms"),
            (icmd, "_teacher_features", "icmd.teacher_features_ms"),
            (icmd.Discriminator, "forward", "icmd.discriminator.fwd_ms"),
            (evalkit, "extract_features", "evalkit.extract_features_ms"),
            (pruner, "profile_importance", "pruner.profile_importance_s"),
            (pruner, "apply_plan", "pruner.apply_plan_ms"),
            (synthdata, "gen_dataset", "synthdata.gen_dataset_ms"),
            (synthdata, "save_dataset", "synthdata.save_dataset_ms"),
            (synthdata, "load_dataset", "synthdata.load_dataset_ms")):
        p.set(owner, attr, timed(owner.__dict__[attr], key))
    for stage in CLI_STAGES:
        p.set(cli.COMMANDS, stage,
              timed(cli.COMMANDS[stage], f"cli.{stage.replace('-', '_')}_s"))
    return p


# ---------------------------------------------------------------------------
# from spans to metrics
# ---------------------------------------------------------------------------

def children_index(spans: list) -> list:
    children: list = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    return children


def self_time(spans: list, children: list, i: int) -> float:
    """Span duration minus the part of it that its children's intervals cover."""
    start, end = spans[i][1], spans[i][2]
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                         for c in children[i]):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (end - start) - covered


def _scale(key: str) -> float:
    return MS if key.endswith("_ms") else 1.0


def phase_totals(tracer: Tracer) -> dict:
    """(phase, metric key) -> total over that phase, in the metric's unit."""
    spans = tracer.spans
    children = children_index(spans)
    excluded: dict = defaultdict(float)
    for span in spans:
        if span[0] == REFERENCE:
            parent = span[3]
            while parent >= 0:
                excluded[parent] += span[2] - span[1]
                parent = spans[parent][3]
    totals: dict = defaultdict(float)
    for i, (key, start, end, _, phase, tag) in enumerate(spans):
        if key == REFERENCE:
            continue
        dur = end - start - excluded.get(i, 0.0)
        value = self_time(spans, children, i) if key in _SELF_KEYS else dur
        totals[(phase, key)] += value * _scale(key)
        if tag == ATTN and key.endswith(".vjp_ms"):
            totals[(phase, "tensor.attention.vjp_ms")] += dur * MS
        if key in ("netgraph.forward_ms", "netgraph.forward_taped_ms"):
            blocks = sum(spans[c][2] - spans[c][1] for c in children[i]
                         if spans[c][0].startswith(f"netgraph.{tag}."))
            totals[(phase, f"netgraph.{tag}.resample_ms")] += (dur - blocks) * MS
        if key == "icmd.distill_step_ms":
            _distill_parts(spans, children[i], phase, totals)
    for (phase, key), value in tracer.counters.items():
        totals[(phase, key)] += value
    return totals


def _distill_parts(spans: list, kids: list, phase: str, totals: dict) -> None:
    """Split one distill step into critic update, student forward and backward."""
    def of(key):
        return [spans[c] for c in kids if spans[c][0] == key]
    checksum, adam = of("netgraph.param_checksum_ms"), of("optim.adam_step_ms")
    backward, teacher = of("tensor.backward_ms"), of("icmd.teacher_features_ms")
    if checksum and len(adam) == 2:  # the critic updates first, then the student
        totals[(phase, "icmd.critic_ms")] += (adam[0][2] - checksum[0][2]) * MS
    if backward and teacher:
        totals[(phase, "icmd.student_forward_ms")] += (backward[-1][1] - teacher[-1][2]) * MS
        totals[(phase, "icmd.student_backward_ms")] += (backward[-1][2] - backward[-1][1]) * MS


def layer_metrics(tracer: Tracer, units: int, setups: int = 1) -> dict:
    """Every per-layer metric: `<key>` per unit of work of the measured loop,
    `setup.<key>` per set-up. A layer that does not run reads 0."""
    tracer.flush_grads()
    totals = phase_totals(tracer)
    out = {}
    for key, unit in PER_LAYER:
        if key.startswith("trace."):
            continue
        if key.startswith("setup."):
            value = totals.get(("setup", key[len("setup."):]), 0.0) / setups
        else:
            value = totals.get(("loop", key), 0.0) / units
        out[key] = {"value": value, "unit": unit}
    return out
