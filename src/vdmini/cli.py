"""Pipeline orchestration: one config file drives data generation, teacher
training, profiling, planning, distillation, evaluation, and reporting.

Every artifact embeds the producing config hash; a single master seed fans
out to per-stage seeds via blake2s("<seed>:<stage>") so stages can be re-run
independently yet reproducibly.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from . import checkpoint, diffusion, evalkit, icmd, netgraph, pruner, synthdata
from .errors import (CheckpointError, ConfigError, DatasetError, MetricError,
                     MissingArtifactError, NonFiniteError, PlanError, VdminiError)
from .netgraph import Model
from .optim import Adam, named_grads
from .tensor import Tape, Tensor, backward, join_parts, run_parts

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_NUMERIC = 4

DEFAULT_CONFIG = {
    "seed": 0,
    "out_dir": "run",
    "data": {"n_train": 12, "n_eval": 8, "height": 16, "width": 16,
             "frames": 8, "speeds": [1, 3]},
    "model": {"widths": [16, 32, 64], "emb_dim": 32},
    "schedule": {"sigma_min": 0.02, "sigma_max": 80.0, "sigma_data": 0.5,
                 "n_levels": 40, "rho": 7.0},
    "train_teacher": {"steps": 40, "batch": 2, "lr": 1e-4},
    "profile": {"sample_steps": 1, "latency_reps": 3},
    "distill": {"steps": 30, "batch": 2, "lambda_icd": 0.1, "lambda_mca": 1.0,
                "mca_warmup_steps": 0, "student_lr": 1e-4, "disc_lr": 1e-5},
    "eval": {"sample_steps": 1, "latency_reps": 5, "checkpoint": "student"},
}


def fmt6(x) -> str:
    """Locale-independent 6-significant-digit rendering of a number."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".6g")


# ---------------------------------------------------------------------------
# config loading, env overrides, hashing, seed fan-out
# ---------------------------------------------------------------------------

def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def _env_overrides(environ) -> dict:
    """VDMINI_SECTION__KEY=value (JSON-parsed when possible) -> nested dict."""
    out: dict = {}
    for name, raw in environ.items():
        if not name.startswith("VDMINI_"):
            continue
        path = name[len("VDMINI_"):].lower().split("__")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        for part in path[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"environment: {name} overrides a key inside "
                                  f"a non-object value")
        node[path[-1]] = value
    return out


def _kind(default) -> str:
    if isinstance(default, dict):
        return "object"
    if isinstance(default, list):
        return f"list of {_kind(default[0])}"
    return {bool: "boolean", int: "integer", float: "number", str: "string"}[type(default)]


def _fits(value, default) -> bool:
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    if type(default) is float:  # a JSON integer is a number too
        return type(value) in (int, float)
    return type(value) is type(default)


def _check_config(doc: dict, default: dict, where: str, prefix: str = "") -> None:
    """Every key of `doc` must exist in `default` at the same level, and each
    value must have the type of the default it replaces."""
    for key, value in doc.items():
        dotted = prefix + key
        if key not in default:
            raise ConfigError(f"{where}: unknown config key {dotted!r}")
        if isinstance(default[key], dict) and isinstance(value, dict):
            _check_config(value, default[key], where, dotted + ".")
        elif not _fits(value, default[key]):
            raise ConfigError(f"{where}: config key {dotted!r} must be of type "
                              f"{_kind(default[key])}, got {value!r}")


def _multiple_of_8(v) -> bool:  # the U-Net halves height and width three times
    return v > 0 and v % 8 == 0


def _reps(v) -> bool:  # 0 turns timing off; a median needs at least 3
    return v == 0 or v >= 3


# (dotted key, rule, what the rule asks): values that type-check but that
# would crash a stage or let it write an untrained artifact. A 0-step
# distill stays legal: it is the pruned-only student.
_VALUE_RULES = (
    ("model.widths", lambda v: len(v) == 3 and min(v) > 0, "3 positive integers"),
    ("data.height", _multiple_of_8, "a positive multiple of 8"),
    ("data.width", _multiple_of_8, "a positive multiple of 8"),
    ("data.speeds", lambda v: len(v) > 0, "a non-empty list"),
    ("data.n_train", lambda v: v >= 1, "at least 1"),
    ("data.n_eval", lambda v: v >= 1, "at least 1"),
    # the motion proxy and every temporal block need two frames
    ("data.frames", lambda v: v >= 2, "at least 2"),
    ("model.emb_dim", lambda v: v >= 2 and v % 2 == 0, "an even integer of at least 2"),
    ("schedule.n_levels", lambda v: v >= 1, "at least 1"),
    # the sampler's first Euler step scales sigma_max**2 by the noise: near
    # 1e154 it overflows to Inf and every sample is NaN
    ("schedule.sigma_max", lambda v: v <= 1e100, "at most 1e100"),
    ("schedule.rho", lambda v: v > 0, "above 0"),
    ("schedule.sigma_data", lambda v: v > 0, "above 0"),
    ("profile.latency_reps", _reps, "0 or at least 3"),
    ("eval.latency_reps", _reps, "0 or at least 3"),
    ("train_teacher.steps", lambda v: v >= 0, "at least 0"),
    ("distill.steps", lambda v: v >= 0, "at least 0"),
    ("train_teacher.batch", lambda v: v >= 1, "at least 1"),
    ("distill.batch", lambda v: v >= 1, "at least 1"),
    ("profile.sample_steps", lambda v: v >= 1, "at least 1"),
    ("eval.sample_steps", lambda v: v >= 1, "at least 1"),
    # a learning rate at or below 0 trains by gradient ascent, or not at all
    ("train_teacher.lr", lambda v: v > 0, "above 0"),
    ("distill.student_lr", lambda v: v > 0, "above 0"),
    ("distill.disc_lr", lambda v: v > 0, "above 0"),
    ("distill.lambda_icd", lambda v: v >= 0, "at least 0"),
    ("distill.lambda_mca", lambda v: v >= 0, "at least 0"),
    ("distill.mca_warmup_steps", lambda v: v >= 0, "at least 0"),
    ("eval.checkpoint", lambda v: v in ("student", "teacher"), '"student" or "teacher"'),
)


def _check_values(cfg: dict) -> None:
    # the noise levels fall from sigma_max to sigma_min
    sigma_max = cfg["schedule"]["sigma_max"]
    rules = _VALUE_RULES + (("schedule.sigma_min", lambda v: 0 < v < sigma_max,
                             f"above 0 and below schedule.sigma_max ({sigma_max!r})"),)
    for dotted, rule, want in rules:
        section, key = dotted.split(".")
        value = cfg[section][key]
        if not rule(value):
            raise ConfigError(f"config key {dotted!r} must be {want}, got {value!r}")


def load_config(path: Optional[str], seed: Optional[int], out: Optional[str],
                environ=None) -> dict:
    """DEFAULT_CONFIG, then the file at `path`, then VDMINI_* overrides, then
    the seed and out flags. An unknown key at any level, a value whose type
    differs from its default's, or one that breaks a `_VALUE_RULES` rule
    raises ConfigError."""
    cfg = DEFAULT_CONFIG
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"unparseable config {path}: {exc}")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"unreadable config {path}: {exc}")
        if not isinstance(user, dict):
            raise ConfigError(f"config root must be an object: {path}")
        _check_config(user, DEFAULT_CONFIG, path)
        cfg = _merge(cfg, user)
    env = _env_overrides(environ if environ is not None else os.environ)
    _check_config(env, DEFAULT_CONFIG, "environment")
    cfg = _merge(cfg, env)
    if seed is not None:
        cfg["seed"] = seed
    if out is not None:
        cfg["out_dir"] = out
    if not isinstance(cfg["seed"], int) or cfg["seed"] < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {cfg['seed']!r}")
    _check_values(cfg)
    return cfg


def config_hash(cfg: dict) -> str:
    # out_dir is where artifacts land, not what they contain
    cfg = {k: v for k, v in cfg.items() if k != "out_dir"}
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(canon).hexdigest()[:16]


def stage_seed(master: int, stage: str) -> int:
    """Per-stage seed: little-endian blake2s-64 of '<master>:<stage>'."""
    digest = hashlib.blake2s(f"{master}:{stage}".encode("utf-8"),
                             digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _hash_tensor(chash: str) -> Tensor:
    """Config hash as a tensor of character codes, for VDMK embedding."""
    return Tensor(np.array([float(ord(c)) for c in chash]))


def _tensor_hash(t: Tensor, path: Path) -> str:
    """The config hash `_hash_tensor` stored; anything but a vector of
    integral character codes is a CheckpointError."""
    codes = t.data
    if codes.ndim != 1 or not ((codes >= 0) & (codes <= sys.maxunicode)
                               & (codes == np.floor(codes))).all():
        raise CheckpointError(f"{path}: _meta.config_hash is not a vector of character codes")
    return "".join(chr(int(v)) for v in codes)


def atomic_write_text(path: Path, text: str) -> None:
    tmp = Path(str(path) + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)


def write_json_artifact(path: Path, doc: dict, chash: str) -> None:
    doc = {"config_hash": chash, **doc}
    atomic_write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------

def _schedule(cfg: dict) -> diffusion.NoiseSchedule:
    s = cfg["schedule"]
    return diffusion.NoiseSchedule(s["sigma_min"], s["sigma_max"], s["sigma_data"],
                                   s["n_levels"], s["rho"])


def _teacher_graph(cfg: dict) -> netgraph.BlockGraph:
    m = cfg["model"]
    return netgraph.make_unet_graph(netgraph.ORIGIN_LAYER_COUNTS,
                                    tuple(m["widths"]), emb_dim=m["emb_dim"])


def _require(path: Path, what: str) -> Path:
    if not path.exists():
        raise MissingArtifactError(f"missing prerequisite: {what}")
    return path


def _load_model(path: Path, graph: netgraph.BlockGraph, chash: str,
                force: bool) -> Model:
    params = checkpoint.load_checkpoint(path)
    stored = params.pop("_meta.config_hash", None)
    if stored is not None and _tensor_hash(stored, path) != chash and not force:
        raise ConfigError(f"{path}: config hash mismatch (use --force to override)")
    params = {n: p for n, p in params.items() if not n.startswith("_meta.")}
    # exactly the graph's tensors: another model's checkpoint (say, the
    # teacher's saved as the student's) must not run in its place
    specs = netgraph.enumerate_params(graph)
    for spec in specs:
        if spec.name not in params:
            raise CheckpointError(f"{path}: missing tensor {spec.name}")
        if params[spec.name].shape != spec.shape:
            raise CheckpointError(f"{path}: tensor {spec.name} has shape "
                                  f"{params[spec.name].shape}, expected {spec.shape}")
    extra = sorted(set(params) - {spec.name for spec in specs})
    if extra:
        raise CheckpointError(f"{path}: extra tensor {extra[0]}")
    return Model(graph, params)


def _save_model(model: Model, path: Path, chash: str) -> None:
    params = dict(model.params)
    params["_meta.config_hash"] = _hash_tensor(chash)
    checkpoint.save_checkpoint(params, path)


def _dataset_paths(out: Path) -> tuple:
    return out / "train.vdds", out / "eval.vdds"


def _load_videos(path: Path, chash: str, force: bool, what: str) -> tuple:
    """(videos, conds): the dataset's videos as tensors and each one's
    first-frame condition."""
    ds = synthdata.load_dataset(_require(path, what))
    stored = ds.provenance.get("config_hash")
    if stored is not None and stored != chash and not force:
        raise ConfigError(f"{path}: config hash mismatch (use --force to override)")
    if not len(ds):
        raise DatasetError(f"{path}: the dataset holds no videos")
    videos = ds.tensors()
    return videos, [synthdata.first_frame_condition(v) for v in videos]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(cfg: dict, out: Path, chash: str, force: bool) -> None:
    d = cfg["data"]
    train_path, eval_path = _dataset_paths(out)
    for split, n, tag in (("train", d["n_train"], train_path),
                          ("eval", d["n_eval"], eval_path)):
        seed = stage_seed(cfg["seed"], f"gen-data:{split}")
        ds = synthdata.gen_dataset(n, seed, split, tuple(d["speeds"]),
                                   d["height"], d["width"], d["frames"])
        ds.provenance["config_hash"] = chash
        synthdata.save_dataset(ds, tag)
    print(f"gen-data: wrote {train_path} and {eval_path}")


def train_step(model: Model, opt: Adam, batch: list, conds: Optional[list],
               schedule: diffusion.NoiseSchedule, rng: np.random.Generator) -> float:
    """One teacher update on `batch` (with its conditions `conds`, or None):
    the denoising loss, one backward and one Adam step. Returns the loss.

    Every video's sigma and noise are drawn from `rng` first, as
    `diffusion.denoising_loss` draws them. The batch then runs as
    `diffusion.video_parts`, each part's forward on its own thread and tape;
    the root weights each part's loss by its share of the batch, so it is
    the batch mean."""
    if not batch:
        raise VdminiError("train_step: empty batch")
    sigmas, noised = diffusion.draw_noise(batch, schedule, rng)
    parts = diffusion.video_parts(model, batch)
    tapes = [Tape() for _ in parts]

    def forward(tape: Tape, s: slice) -> Tensor:
        with tape:
            return diffusion.denoising_error(model, batch[s], noised[s], sigmas[s],
                                             conds[s] if conds else None,
                                             schedule.sigma_data)

    losses = run_parts([partial(forward, t, s) for t, s in zip(tapes, parts)])
    tape, loss = join_parts(tapes, losses, [len(batch[s]) / len(batch) for s in parts])
    value = loss.item()
    if not np.isfinite(value):
        raise NonFiniteError(f"non-finite loss {value}")
    # one backward per step, through this module's global, after every part's
    # forward has joined: perfbench's `train` workload patches `cli.backward`
    # and times each step from one call to the next
    model.params = opt.step(model.params, named_grads(model.params, backward(tape, loss)))
    return value


def cmd_train_teacher(cfg: dict, out: Path, chash: str, force: bool) -> None:
    videos, conds = _load_videos(_dataset_paths(out)[0], chash, force, "training dataset")
    graph = _teacher_graph(cfg)
    seed = stage_seed(cfg["seed"], "train-teacher")
    model = netgraph.build(graph, seed)
    schedule = _schedule(cfg)
    t = cfg["train_teacher"]
    opt = Adam(lr=t["lr"])
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 1])))
    rows = [["step", "loss"]]
    for step in range(t["steps"]):
        idx = rng.choice(len(videos), size=min(t["batch"], len(videos)),
                         replace=False)
        try:
            value = train_step(model, opt, [videos[i] for i in idx],
                               [conds[i] for i in idx], schedule, rng)
        except NonFiniteError as exc:
            raise NonFiniteError(f"train-teacher: {exc} at step {step}") from None
        rows.append([str(step), fmt6(value)])
    _save_model(model, out / "teacher.vdmk", chash)
    write_json_artifact(out / "teacher_graph.json", {
        "graph": json.loads(netgraph.graph_to_json(graph)),
        "seed": seed,
    }, chash)
    _write_csv(out / "teacher_log.csv", rows, chash)
    print(f"train-teacher: wrote {out / 'teacher.vdmk'}")


def _write_csv(path: Path, rows: list, chash: str) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"# config_hash={chash}"])
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def _read_csv_hash(path: Path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().strip()
    prefix = "# config_hash="
    return first[len(prefix):] if first.startswith(prefix) else ""


def cmd_profile(cfg: dict, out: Path, chash: str, force: bool) -> None:
    graph = _teacher_graph(cfg)
    teacher = _load_model(_require(out / "teacher.vdmk", "teacher checkpoint"),
                          graph, chash, force)
    videos, conds = _load_videos(_dataset_paths(out)[1], chash, force, "evaluation dataset")
    extractor = evalkit.FeatureExtractor(in_channels=videos[0].shape[1])
    p = cfg["profile"]
    report = pruner.profile_importance(
        teacher, videos, graph.block_ids(), extractor, _schedule(cfg),
        conds=conds, seed=stage_seed(cfg["seed"], "profile"),
        steps=p["sample_steps"], latency_reps=p["latency_reps"])
    rows = [["block_id", "fvd_after_ablation", "delta_fvd", "latency_ms", "params", "error"]]
    for r in report.rows:
        rows.append([r.block_id, fmt6(r.fvd_after_ablation), fmt6(r.delta_fvd),
                     fmt6(r.latency_ms), fmt6(r.params), r.error or ""])
    _write_csv(out / "ablation_report.csv", rows, chash)
    write_json_artifact(out / "ablation_report.json", {
        "reference_fvd": report.reference_fvd,
        "rows": [vars(r) for r in report.rows],
    }, chash)
    print(f"profile: wrote {out / 'ablation_report.json'}")


def cmd_plan(cfg: dict, out: Path, chash: str, force: bool) -> None:
    plan = pruner.plan_vdmini(_teacher_graph(cfg))
    write_json_artifact(out / "plan.json", plan.to_json_doc(), chash)
    print(f"plan: wrote {out / 'plan.json'}")


def _load_plan(out: Path) -> pruner.PruningPlan:
    path = _require(out / "plan.json", "pruning plan")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise PlanError(f"{path}: unparseable plan: {exc}")
    return pruner.PruningPlan.from_json_doc(doc)


def cmd_distill(cfg: dict, out: Path, chash: str, force: bool) -> None:
    plan = _load_plan(out)
    graph = _teacher_graph(cfg)
    teacher = _load_model(_require(out / "teacher.vdmk", "teacher checkpoint"),
                          graph, chash, force)
    student = pruner.apply_plan(teacher, plan)
    videos, conds = _load_videos(_dataset_paths(out)[0], chash, force, "training dataset")
    d = cfg["distill"]
    weights = icmd.LossWeights(d["lambda_icd"], d["lambda_mca"],
                               d["mca_warmup_steps"])
    seed = stage_seed(cfg["seed"], "distill")
    state = icmd.DistillState(
        student, teacher, icmd.Discriminator(in_channels=videos[0].shape[1], seed=seed),
        weights, _schedule(cfg), Adam(d["student_lr"]), Adam(d["disc_lr"]))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 2])))
    rows = [["step", "task", "icd", "mca_gen", "mca_disc", "total"]]
    for step in range(d["steps"]):
        idx = rng.choice(len(videos), size=min(d["batch"], len(videos)),
                         replace=False)
        losses = icmd.distill_step(state, [videos[i] for i in idx], rng,
                                   [conds[i] for i in idx])
        rows.append([str(step)] + [fmt6(losses[k]) for k in
                                   ("task", "icd", "mca_gen", "mca_disc", "total")])
    icmd.check_teacher_frozen(state, full=True)
    _save_model(state.student, out / "student.vdmk", chash)
    write_json_artifact(out / "student_graph.json", {
        "graph": json.loads(netgraph.graph_to_json(state.student.graph)),
    }, chash)
    _write_csv(out / "distill_log.csv", rows, chash)
    print(f"distill: wrote {out / 'student.vdmk'}")


def cmd_eval(cfg: dict, out: Path, chash: str, force: bool) -> None:
    e = cfg["eval"]
    graph = _teacher_graph(cfg)
    if e["checkpoint"] == "student":
        graph = pruner.student_graph(graph, _load_plan(out))
    path = out / f"{e['checkpoint']}.vdmk"
    model = _load_model(_require(path, f"{e['checkpoint']} checkpoint"), graph, chash, force)
    videos, conds = _load_videos(_dataset_paths(out)[1], chash, force, "evaluation dataset")
    extractor = evalkit.FeatureExtractor(in_channels=videos[0].shape[1])
    seed = stage_seed(cfg["seed"], "eval")
    samples = diffusion.sample_set(model, _schedule(cfg), conds, seed, videos[0].shape,
                                   e["sample_steps"])
    score = evalkit.fvd(samples, videos, extractor)
    motion = float(np.mean([evalkit.motion_dynamics_proxy(s) for s in samples]))
    doc = {
        "checkpoint": e["checkpoint"],
        "fvd": float(fmt6(score)),
        "motion_dynamics": float(fmt6(motion)),
        "params": netgraph.count_params(graph)[1],
        "seed": seed,
    }
    # wall-clock timings vary run to run; latency_reps = 0 keeps the report
    # bytewise reproducible
    if e["latency_reps"] > 0:
        latency = evalkit.measure_latency(model, videos[0].shape,
                                          reps=e["latency_reps"])
        doc["latency_total_ms"] = float(fmt6(latency.total_ms))
        doc["latency_reps"] = latency.reps
    path = out / f"eval_{e['checkpoint']}.json"
    write_json_artifact(path, doc, chash)
    print(f"eval: wrote {path}")


def cmd_report(cfg: dict, out: Path, chash: str, force: bool) -> None:
    """Aggregate the artifacts in `out`: the JSON files with a `config_hash`
    key and the CSV files whose first line is `# config_hash=...`. Other
    JSON and CSV files are listed in summary.txt as skipped."""
    paths = sorted(list(out.glob("*.json")) + list(out.glob("*.csv")))
    rows = [["artifact", "config_hash", "key", "value"]]
    lines = [f"run summary (config hash {chash})", ""]
    n_artifacts = 0
    for path in paths:
        if path.name == "summary.csv":
            continue
        try:  # a ValueError: bytes that are not UTF-8, or malformed JSON
            if path.suffix == ".json":
                doc = json.loads(path.read_text(encoding="utf-8"))
                doc = doc if isinstance(doc, dict) else {}
                stored = doc.get("config_hash")
            else:
                doc, stored = {}, _read_csv_hash(path)
        except ValueError as exc:
            raise ConfigError(f"report: unparseable {path.name}: {exc}")
        if not stored:
            lines.append(f"{path.name}: skipped (no config hash)")
            continue
        n_artifacts += 1
        if stored != chash and not force:
            raise ConfigError(f"report: {path.name} has config hash {stored}, "
                              f"expected {chash} (use --force to aggregate anyway)")
        lines.append(f"{path.name}: hash {stored}")
        for key, value in sorted(doc.items()):
            if isinstance(value, (int, float)) and key != "config_hash":
                rows.append([path.name, stored, key, fmt6(value)])
                lines.append(f"  {key} = {fmt6(value)}")
    if not n_artifacts:
        raise MissingArtifactError("missing prerequisite: no artifacts to aggregate")
    _write_csv(out / "summary.csv", rows, chash)
    atomic_write_text(out / "summary.txt", "\n".join(lines) + "\n")
    print(f"report: wrote {out / 'summary.csv'}")


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train-teacher": cmd_train_teacher,
    "profile": cmd_profile,
    "plan": cmd_plan,
    "distill": cmd_distill,
    "eval": cmd_eval,
    "report": cmd_report,
}


def _error(kind: str, message: str, code: int) -> int:
    print(json.dumps({"error": kind, "message": message, "code": code}),
          file=sys.stderr)
    return code


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(prog="vdmini",
                                     description="video-diffusion pruning and "
                                                 "distillation pipeline")
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--out", default=None, help="artifact directory")
    parser.add_argument("--force", action="store_true",
                        help="ignore config-hash mismatches")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.seed, args.out)
        out = Path(cfg["out_dir"])
        out.mkdir(parents=True, exist_ok=True)
        chash = config_hash(cfg)
        COMMANDS[args.subcommand](cfg, out, chash, args.force)
        return EXIT_OK
    except ConfigError as exc:
        return _error("config", str(exc), EXIT_CONFIG)
    except MissingArtifactError as exc:
        return _error("missing-prerequisite", str(exc), EXIT_MISSING)
    except (NonFiniteError, MetricError, FloatingPointError) as exc:
        return _error("numeric", str(exc), EXIT_NUMERIC)
    # an OSError: a path that cannot be read or written, named in its message
    except (VdminiError, OSError) as exc:
        return _error("config", str(exc), EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
