"""The benchmark's workloads: set-up, one round of measured work, and the
output checks.

Each workload drives the program only through its CLI stages and public
functions, with inputs made here from the benchmark seed. Each call into
the program goes through a module attribute (`synthdata.gen_dataset`, not
an imported name) so that the traced run sees it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from vdmini import (checkpoint, cli, diffusion, evalkit, icmd, netgraph, pruner,
                    synthdata)
from vdmini import tensor as T
from vdmini.errors import VdminiError

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PLAN = ROOT / "tests" / "golden" / "plan.json"
# scale of the seeded noise added to every initial weight, so that the
# residual branches (zero at init) contribute to the generated teacher
PERTURB = 0.2


# A fixed NumPy computation, timed next to every unit of work. On a shared
# host the same code runs at different speeds for spells of seconds to
# minutes; the reference runs at the same moment, so unit / reference keeps
# the program's cost and drops most of the host's drift. It mixes the
# program's kinds of work: a sliding-window einsum conv, normalization,
# softmax attention, and small-array Python overhead.
_REF_RNG = np.random.default_rng(0)
_REF_X = _REF_RNG.standard_normal((8, 16, 18, 18))
_REF_W = _REF_RNG.standard_normal((16, 16, 3, 3))
_REF_TOKENS = _REF_RNG.standard_normal((8, 256, 16))
_REF_WQ = _REF_RNG.standard_normal((16, 16))
_REF_SMALL = [_REF_RNG.standard_normal((16, 4, 4)) for _ in range(40)]


def reference_s() -> float:
    """Wall time of one run of the reference computation (about 10 ms)."""
    t0 = time.perf_counter()
    win = np.lib.stride_tricks.sliding_window_view(_REF_X, (3, 3), axis=(2, 3))
    h = np.einsum("nchwij,ocij->nohw", win, _REF_W, optimize=True)
    g = h.reshape(8, 1, -1)
    h = ((g - g.mean(axis=2, keepdims=True)) / np.sqrt(g.var(axis=2, keepdims=True) + 1e-5))
    h = h / (1.0 + np.exp(-h))
    q = _REF_TOKENS @ _REF_WQ
    scores = q @ np.swapaxes(q, 1, 2)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    _ = (e / e.sum(axis=-1, keepdims=True)) @ _REF_TOKENS
    for a in _REF_SMALL:
        _ = float((a * a).mean())
    return time.perf_counter() - t0


@dataclass
class Round:
    unit_s: list = field(default_factory=list)  # wall time of each timed unit
    ref_s: list = field(default_factory=list)  # the reference, timed beside each unit
    attempted: int = 0
    failed: int = 0
    units: int = 0  # units of work, the per-layer denominator


class SetupError(RuntimeError):
    pass


def run_cli(stage: str, cfg_path: Path, out: Path, seed: int) -> tuple:
    """Run one CLI stage in this process; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main([stage, "--config", str(cfg_path), "--out", str(out),
                       "--seed", str(seed)])
    return rc, err.getvalue().strip()


def cold_import() -> None:
    """Start the program in a fresh interpreter, as each `vdmini` stage does.

    `wait()` without a timeout blocks in waitpid, so the child's end is seen
    at once; with a timeout, subprocess polls with sleeps of up to 50 ms."""
    proc = subprocess.Popen([sys.executable, "-c", "import vdmini.cli"],
                            stdout=subprocess.DEVNULL)
    if proc.wait() != 0:
        raise SetupError(f"import vdmini.cli exited {proc.returncode}")


@contextlib.contextmanager
def patched(owner, attr: str, wrapper):
    patcher = spans.Patcher()
    patcher.set(owner, attr, wrapper(owner.__dict__[attr]))
    try:
        yield
    finally:
        patcher.restore()


def marks_into(marks: list):
    """Wrapper factory: at each call, record (time, reference time), then
    run the reference before the call."""
    def wrap(fn):
        def wrapped(*args, **kwargs):
            marks.append((time.perf_counter(), reference_s()))
            return fn(*args, **kwargs)
        return wrapped
    return wrap


def durations_into(r: Round):
    """Wrapper factory: record the wall time of each call, then time the
    reference beside it."""
    def wrap(fn):
        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                r.unit_s.append(time.perf_counter() - t0)
                r.ref_s.append(reference_s())
        return wrapped
    return wrap


def teacher_graph(cfg: dict) -> netgraph.BlockGraph:
    m = cfg["model"]
    return netgraph.make_unet_graph(netgraph.ORIGIN_LAYER_COUNTS, tuple(m["widths"]),
                                    emb_dim=m["emb_dim"])


def perturbed_teacher(graph: netgraph.BlockGraph, seed: int) -> dict:
    """Initial weights plus seeded noise: every residual branch contributes."""
    params = netgraph.build(graph, seed).params
    rng = np.random.default_rng([seed, 23])
    out = {}
    for name in sorted(params):
        data = params[name].data
        fan_in = int(np.prod(data.shape[1:])) if data.ndim > 1 else 1
        noise = rng.standard_normal(data.shape) * (PERTURB / math.sqrt(fan_in))
        out[name] = T.Tensor(data + noise, requires_grad=True)
    return out


def check_params_match(path: Path, graph: netgraph.BlockGraph) -> list:
    """A checkpoint holds exactly the graph's parameter names and shapes."""
    stored = {n: p.shape for n, p in checkpoint.load_checkpoint(path).items()
              if not n.startswith("_meta.")}
    want = {s.name: tuple(s.shape) for s in netgraph.enumerate_params(graph)}
    if stored != want:
        missing, extra = sorted(set(want) - set(stored)), sorted(set(stored) - set(want))
        wrong = sorted(n for n in set(want) & set(stored) if want[n] != stored[n])
        return [f"{path.name}: missing {missing[:3]}, extra {extra[:3]}, "
                f"wrong shape {wrong[:3]}"]
    return []


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    name = ""
    min_rounds = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.problems: list = []
        self._setups = 0

    def fresh_dir(self) -> Path:
        self._setups += 1
        d = self.workdir / f"setup{self._setups}"
        d.mkdir(parents=True)
        return d

    def write_config(self, d: Path, cfg: dict) -> Path:
        path = d / "cfg.json"  # kept outside every output directory
        path.write_text(json.dumps(cfg, sort_keys=True))
        return path

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> Round:
        raise NotImplementedError

    def check(self) -> list:
        return self.problems

    def named(self, unit_ms: float) -> dict:
        """The workload's headline figure under its own name: (value, unit)."""
        raise NotImplementedError


class _CliTraining(Workload):
    """`train-teacher` or `distill` called repeatedly, a few steps a call."""
    stage = ""
    section = ""
    steps = 0

    def setup(self) -> None:
        cold_import()
        d = self.fresh_dir()
        self.cfg_path = self.write_config(d, {self.section: {"steps": self.steps}})
        self.out = d / "run"
        self.cfg = cli.load_config(str(self.cfg_path), self.seed, str(self.out))
        rc, err = run_cli("gen-data", self.cfg_path, self.out, self.seed)
        if rc != 0:
            raise SetupError(f"gen-data exited {rc}: {err}")

    def call(self, r: Round) -> tuple:
        """One CLI call, timing its steps into r: (exit code, stderr)."""
        raise NotImplementedError

    def round(self) -> Round:
        r = Round(attempted=self.steps, units=self.steps)
        rc, err = self.call(r)
        if rc != 0:
            r.failed = self.steps
            self.problems.append(f"{self.stage} exited {rc}: {err}")
        return r

    def named(self, unit_ms: float) -> dict:
        batch = self.cfg[self.section]["batch"]
        return {f"{self.name}_videos_per_s": (batch * 1e3 / unit_ms, "videos/s")}


class Train(_CliTraining):
    """vdmini train-teacher at the default shapes."""
    name, stage, section, steps = "train", "train-teacher", "train_teacher", 4

    def call(self, r: Round) -> tuple:
        # a step runs from one backward call to the next, less the reference
        # timed at its start
        marks: list = []
        with patched(cli, "backward", marks_into(marks)):
            rc, err = run_cli(self.stage, self.cfg_path, self.out, self.seed)
        for (t0, ref), (t1, _) in zip(marks, marks[1:]):
            r.unit_s.append(t1 - t0 - ref)
            r.ref_s.append(ref)
        if rc == 0:
            self.problems += self.check_log()
        return rc, err

    def check_log(self) -> list:
        lines = (self.out / "teacher_log.csv").read_text().splitlines()
        losses = [float(line.split(",")[1]) for line in lines[2:]]
        if len(losses) != self.steps or not all(math.isfinite(v) for v in losses):
            return [f"teacher_log.csv: losses {losses}"]
        return []

    def check(self) -> list:
        graph = teacher_graph(self.cfg)
        path = self.out / "teacher.vdmk"
        problems = self.problems + check_params_match(path, graph)
        params = {n: p for n, p in checkpoint.load_checkpoint(path).items()
                  if not n.startswith("_meta.")}
        analytic, numeric = directional_derivatives(
            netgraph.Model(graph, params), self.out / "train.vdds", self.cfg, self.seed)
        return problems + checks.check_directional_derivative(analytic, numeric)


def directional_derivatives(model: netgraph.Model, data: Path, cfg: dict, seed: int,
                            eps: float = 1e-6) -> tuple:
    """d/dt denoising_loss(params + t v) at t = 0, by backward and by central
    difference, along a seeded random direction v over all parameters. The
    loss's RNG is replayed for every evaluation."""
    videos = synthdata.load_dataset(data).tensors()[:2]
    conds = [synthdata.first_frame_condition(v) for v in videos]
    schedule = diffusion.NoiseSchedule(**cfg["schedule"])
    rng = np.random.default_rng([seed, 29])
    direction = {n: rng.standard_normal(p.shape) for n, p in sorted(model.params.items())}

    def loss(params: dict):
        replay = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 31])))
        m = netgraph.Model(model.graph, params)
        return diffusion.denoising_loss(m, videos, schedule, replay, conds)

    with T.Tape() as tape:
        root = loss(model.params)
    grads = T.backward(tape, root)
    analytic = float(sum((grads[p].data * direction[n]).sum()
                         for n, p in model.params.items() if p in grads))

    def shifted(t):
        return {n: T.Tensor(p.data + t * direction[n]) for n, p in model.params.items()}
    numeric = (loss(shifted(eps)).item() - loss(shifted(-eps)).item()) / (2 * eps)
    return analytic, numeric


class Distill(_CliTraining):
    """vdmini distill at the default shapes, from a teacher and plan made in set-up."""
    name, stage, section, steps = "distill", "distill", "distill", 3

    def setup(self) -> None:
        super().setup()
        graph = teacher_graph(self.cfg)
        checkpoint.save_checkpoint(perturbed_teacher(graph, self.seed),
                                   self.out / "teacher.vdmk")
        rc, err = run_cli("plan", self.cfg_path, self.out, self.seed)
        if rc != 0:
            raise SetupError(f"plan exited {rc}: {err}")
        self.teacher_sha = file_sha256(self.out / "teacher.vdmk")

    def call(self, r: Round) -> tuple:
        with patched(icmd, "distill_step", durations_into(r)):
            rc, err = run_cli(self.stage, self.cfg_path, self.out, self.seed)
        if rc == 0:
            d = self.cfg["distill"]
            self.problems += checks.check_distill_log(
                self.out / "distill_log.csv", d["lambda_icd"], d["lambda_mca"])
            if file_sha256(self.out / "teacher.vdmk") != self.teacher_sha:
                self.problems.append("teacher.vdmk changed during distill")
        return rc, err

    def check(self) -> list:
        graph = netgraph.graph_from_json(json.dumps(json.loads(
            (self.out / "student_graph.json").read_text())["graph"]))
        return self.problems + check_params_match(self.out / "student.vdmk", graph)


class Generate(Workload):
    """One-step sampling of fixed first-frame conditions, then FVD and motion."""
    pruned = False

    def setup(self) -> None:
        cold_import()
        d = self.fresh_dir()
        cfg = cli.load_config(None, self.seed, str(d))
        data, graph = cfg["data"], teacher_graph(cfg)
        self.schedule = diffusion.NoiseSchedule(**cfg["schedule"])
        ds = synthdata.gen_dataset(data["n_eval"], self.seed, "eval", tuple(data["speeds"]),
                                   data["height"], data["width"], data["frames"])
        self.videos = ds.tensors()
        self.conds = [synthdata.first_frame_condition(v) for v in self.videos]
        checkpoint.save_checkpoint(perturbed_teacher(graph, self.seed), d / "teacher.vdmk")
        model = netgraph.Model(graph, checkpoint.load_checkpoint(d / "teacher.vdmk"))
        if self.pruned:
            model = pruner.apply_plan(model, pruner.plan_vdmini(graph))
        self.model = model
        self.extractor = evalkit.FeatureExtractor(in_channels=self.videos[0].shape[1])
        self.first = None

    def round(self) -> Round:
        r = Round(attempted=len(self.conds), units=len(self.conds))
        samples = []
        for i, cond in enumerate(self.conds):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed, i])))
            t0 = time.perf_counter()
            try:
                samples.append(diffusion.sample(self.model, self.schedule, 1, cond, rng,
                                                self.videos[0].shape))
            except VdminiError as exc:
                r.failed += 1
                self.problems.append(f"sample {i}: {type(exc).__name__}: {exc}")
                continue
            r.unit_s.append(time.perf_counter() - t0)
            r.ref_s.append(reference_s())
        try:
            score = evalkit.fvd(samples, self.videos, self.extractor)
        except VdminiError as exc:
            score = None
            self.problems.append(f"fvd: {type(exc).__name__}: {exc}")
        motion = [evalkit.motion_dynamics_proxy(s) for s in samples]
        if self.first is None:
            self.first = (samples, score, motion)
        elif not (all(np.array_equal(a.data, b.data) for a, b in zip(samples, self.first[0]))
                  and score == self.first[1] and motion == self.first[2]):
            self.problems.append("samples or scores differ between rounds")
        return r

    def check(self) -> list:
        samples, score, motion = self.first
        problems = list(self.problems)
        if not all(np.isfinite(s.data).all() for s in samples):
            problems.append("non-finite sample")
        f, _, h, w = self.videos[0].shape
        problems += checks.check_ops(T, (f, self.model.graph.stage("D.0").width, h, w),
                                     self.seed)
        fg = evalkit.extract_features(samples, self.extractor)
        fr = evalkit.extract_features(self.videos, self.extractor)
        problems += checks.check_fvd(score, fg, fr, evalkit._SHRINKAGE)
        problems += checks.close("motion proxy", motion,
                                 [checks.motion_ref(s.data) for s in samples], 1e-12)
        self_fvd = evalkit.fvd(self.videos, self.videos, self.extractor)
        problems += checks.close("FVD of the eval set with itself", self_fvd, 0.0, 0.0,
                                 atol=1e-9 * float(np.trace(np.cov(fr, rowvar=False))))
        return problems

    def named(self, unit_ms: float) -> dict:
        role = "student" if self.pruned else "teacher"
        return {f"{role}_sample_ms": (unit_ms, "ms")}


class GenerateTeacher(Generate):
    name = "generate-teacher"


class GenerateStudent(Generate):
    name, pruned = "generate-student", True


# The seven CLI stages at criterion 11's FAST_PIPELINE shapes (2 frames,
# widths 4/6/8); two eval videos keep one round near ten seconds.
PIPELINE_CONFIG = {
    "data": {"n_train": 4, "n_eval": 2, "frames": 2},
    "model": {"widths": [4, 6, 8], "emb_dim": 8},
    "schedule": {"n_levels": 4},
    "train_teacher": {"steps": 2, "batch": 2},
    "profile": {"sample_steps": 1, "latency_reps": 0},
    "distill": {"steps": 2, "batch": 2},
    "eval": {"sample_steps": 1, "latency_reps": 0},
}


class PipelineSmall(Workload):
    """All seven CLI stages in order, each round into a fresh directory."""
    name = "pipeline-small"
    min_rounds = 2  # artifact bytes are compared across rounds

    def setup(self) -> None:
        cold_import()
        self.dir = self.fresh_dir()
        self.cfg_path = self.write_config(self.dir, PIPELINE_CONFIG)
        cfg = {k: v for k, v in cli.load_config(str(self.cfg_path), self.seed, None).items()
               if k != "out_dir"}
        canon = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode("utf-8")
        self.chash = hashlib.sha256(canon).hexdigest()[:16]
        self.rounds = 0
        self.first = None

    def round(self) -> Round:
        out = self.dir / f"round{self.rounds}"
        self.rounds += 1
        r = Round(attempted=len(cli.COMMANDS), units=1)
        # the reference runs between stages and, inside `profile`, which takes
        # most of a round, before each block is ablated; its time inside the
        # stages is taken out of the round's
        wall, refs, inside = 0.0, [], []
        with patched(netgraph, "ablate", marks_into(inside)):
            for i, stage in enumerate(cli.COMMANDS):
                t0 = time.perf_counter()
                rc, err = run_cli(stage, self.cfg_path, out, self.seed)
                wall += time.perf_counter() - t0
                refs.append(reference_s())
                if rc != 0:
                    r.failed = len(cli.COMMANDS) - i
                    self.problems.append(f"{stage} exited {rc}: {err}")
                    return r
        refs += [ref for _, ref in inside]
        r.unit_s.append(wall - sum(ref for _, ref in inside))
        r.ref_s.append(float(np.median(refs)))
        if self.first is None:
            self.first = checks.digests(out)
            self.problems += self.check_artifacts(out)
        else:
            self.problems += checks.check_identical(self.first, out)
        return r

    def check_artifacts(self, out: Path) -> list:
        problems = [f"{p.name}: config hash {h!r}, expected {self.chash}"
                    for p, h in ((p, artifact_hash(p)) for p in sorted(out.iterdir()))
                    if h != self.chash]
        plan = {k: v for k, v in json.loads((out / "plan.json").read_text()).items()
                if k != "config_hash"}
        if plan != json.loads(GOLDEN_PLAN.read_text()):
            problems.append("plan.json differs from tests/golden/plan.json")
        return problems + checks.check_summary(out, self.chash)

    def named(self, unit_ms: float) -> dict:
        return {"pipeline_s": (unit_ms / 1e3, "s")}


def artifact_hash(path: Path):
    """The config hash an artifact carries, read by its format."""
    if path.suffix == ".json":
        return json.loads(path.read_text()).get("config_hash")
    if path.suffix == ".csv":
        first = path.read_text().splitlines()[0]
        return first.split("=", 1)[1] if first.startswith("# config_hash=") else None
    if path.suffix == ".txt":
        first = path.read_text().splitlines()[0]
        return first[len("run summary (config hash "):-1]
    if path.suffix == ".vdds":
        return synthdata.load_dataset(path).provenance.get("config_hash")
    if path.suffix == ".vdmk":
        meta = checkpoint.load_checkpoint(path).get("_meta.config_hash")
        return "".join(chr(int(c)) for c in meta.data) if meta is not None else None
    return None


WORKLOADS = {w.name: w for w in (Train, Distill, GenerateTeacher, GenerateStudent,
                                  PipelineSmall)}
