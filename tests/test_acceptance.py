"""End-to-end acceptance gate.

Each test maps to one numbered acceptance criterion: gradient oracles,
structural reproduction of the pruning plan, parameter/latency reduction,
metric closed forms, loss unit values, training-based ordering checks,
pipeline determinism, and on-disk round-trips.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from vdmini import checkpoint as ck
from vdmini import cli
from vdmini import diffusion as df
from vdmini import evalkit as ek
from vdmini import icmd
from vdmini import netgraph as ng
from vdmini import pruner as pr
from vdmini import synthdata as sd
from vdmini import tensor as T
from vdmini.errors import VdminiError
from vdmini.optim import Adam
from vdmini.tensor import Tensor

from defaults import configured
from gradcheck import finite_difference_check

GOLDEN_PLAN = Path(__file__).parent / "golden" / "plan.json"
SMALL_WIDTHS = (4, 6, 8)
TOL = 1e-4


# ---------------------------------------------------------------------------
# 1. gradient oracle: every op and every full loss against central differences
# ---------------------------------------------------------------------------

def _op_cases(rng):
    """Scalar-valued closures for each differentiable op kind: the op's
    output against a constant of its shape, through `mse`. The ops with a
    per-video form (one factor, bias row or mean per video stacked on axis
    0) have a second closure for it, as `linear` has for its channel-axis
    form.

    Every constant is drawn once up front so repeated evaluations inside the
    finite-difference probe see the exact same function.
    """
    c = lambda *s: Tensor(rng.standard_normal(s))
    v4 = c(2, 3, 4, 4)
    # the unused (3, 2) draw keeps the later constants' values
    c0, c5, d5, c4, c23, c25, _, c24, c43, c2344 = (
        c(), c(5), c(5), c(4), c(2, 3), c(2, 5), c(3, 2), c(2, 4), c(4, 3), c(2, 3, 4, 4))
    c2244, c2388, g3 = c(2, 2, 4, 4), c(2, 3, 8, 8), c(3)
    k, q, v, o = c(3, 3), c(3, 3), c(3, 3), c(3, 3)
    relu_x = Tensor(rng.standard_normal(4) + 3.0)  # keep clear of the kink
    cases = {
        "add": (lambda x: T.mse(T.add(x, c5), d5), c(5)),
        "add_scalar": (lambda x: T.mse(T.add_scalar(x, 1.7), c4), c(4)),
        "mul_scalar": (lambda x: T.mse(T.mul_scalar(x, -2.3), c4), c(4)),
        "bias_add": (lambda x: T.mse(T.bias_add(v4, x), c2344), c(3)),
        "concat": (lambda x: T.mse(T.concat([x, c23], axis=1), c25), c(2, 2)),
        "sum": (lambda x: T.mse(T.sum_all(x), c0), c(5)),
        "mean": (lambda x: T.mse(T.mean_all(x), c0), c(5)),
        "mse": (lambda x: T.mse(x, c23), c(2, 3)),
        "linear": (lambda x: T.mse(T.linear(x, c43, c4), c24), c(2, 3)),
        "silu": (lambda x: T.mse(T.silu(x), c4), c(4)),
        "softplus": (lambda x: T.mse(T.softplus(x), c4), c(4)),
        "relu": (lambda x: T.mse(T.relu(x), c4), relu_x),
        "conv2d": (lambda x: T.mse(T.conv2d(v4, x, stride=1, pad=1), c2244), c(2, 3, 3, 3)),
        "conv1d_frames": (lambda x: T.mse(T.conv1d_frames(v4, x, pad=1), c2244), c(2, 3, 3)),
        "group_norm": (lambda x: T.mse(T.group_norm(v4, x, g3, groups=1), c2344), c(3)),
        "upsample_nearest2x": (lambda x: T.mse(T.upsample_nearest2x(x), c2388), c(2, 3, 4, 4)),
        "attention_spatial": (lambda x: T.mse(
            T.attention_spatial(v4, x, k, v, o), c2344), c(3, 3)),
        "attention_temporal": (lambda x: T.mse(
            T.attention_temporal(v4, x, k, v, o), c2344), c(3, 3)),
    }
    cases = {name: [case] for name, case in cases.items()}
    c2 = c(2)
    cases["mul_scalar"].append((lambda x: T.mse(T.mul_scalar(x, [-2.3, 0.7]), c43), c(4, 3)))
    cases["bias_add"].append((lambda x: T.mse(T.bias_add(v4, x), c2344), c(2, 3)))
    cases["mean"].append((lambda x: T.mse(T.mean_all(x, videos=2), c2), c(4, 3)))
    cases["linear"].append((lambda x: T.mse(T.linear(v4, x, c2, axis=1), c2244), c(2, 3)))
    return cases


def test_criterion_1_gradient_oracle_ops_and_losses():
    start = time.time()
    points = 0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        cases = _op_cases(rng)
        assert set(cases) == set(T.op_kinds())
        for name, variants in cases.items():
            for f, x in variants:
                report = finite_difference_check(f, x)
                assert report.max_rel_err <= TOL, f"{name} (seed {seed}): {report}"
                points += 1

    # full losses, differentiated through a real model parameter
    graph = ng.make_unet_graph(ng.ORIGIN_LAYER_COUNTS, SMALL_WIDTHS, emb_dim=8)
    model = ng.build(graph, 1)
    # perturb the zero-initialized residual outputs so the graph is non-trivial
    prng = np.random.default_rng(99)
    model.params = {n: Tensor(p.data + 0.05 * prng.standard_normal(p.shape),
                              requires_grad=True)
                    for n, p in model.params.items()}
    schedule = configured(df.NoiseSchedule, "schedule", n_levels=4)
    batch = sd.gen_dataset(2, 3, frames=2).tensors()  # two videos, each at its own sigma
    leaf_name = "D.0.R.0.S.conv1.b"

    def with_param(m, name, leaf):
        params = dict(m.params)
        params[name] = leaf
        return ng.Model(m.graph, params)

    for seed in range(2):
        def denoise_f(leaf):
            m = with_param(model, leaf_name, leaf)
            return df.denoising_loss(m, batch, schedule,
                                     np.random.default_rng(seed))
        rep = finite_difference_check(denoise_f, model.params[leaf_name], eps=1e-4)
        assert rep.max_rel_err <= TOL, f"denoising_loss: {rep}"
        points += 1

        rng = np.random.default_rng(seed + 10)

        def icd_f(leaf):
            m = with_param(model, leaf_name, leaf)
            x = Tensor(batch[0].data)
            fs, ft = {}, {}
            m.forward(x, 0.2, features=fs)
            model.forward(x, 0.2, features=ft)
            return icmd.icd_loss({k: v.detach() for k, v in ft.items()}, fs)
        rep = finite_difference_check(icd_f, model.params[leaf_name], eps=1e-4)
        assert rep.max_rel_err <= TOL, f"icd_loss: {rep}"
        points += 1

        disc = icmd.Discriminator(seed=seed)
        dp = np.random.default_rng(seed)
        disc.params = {n: Tensor(p.data + 0.1 * dp.standard_normal(p.shape),
                                 requires_grad=True)
                       for n, p in disc.params.items()}
        vid = Tensor(dp.standard_normal((2, 1, 16, 16)))

        def gen_f(leaf):
            return icmd.mca_gen_loss(disc.forward(leaf, sigma=1.3))
        rep = finite_difference_check(gen_f, vid, eps=1e-4)
        assert rep.max_rel_err <= TOL, f"mca_gen_loss: {rep}"
        points += 1

        dleaf = "spatio.conv1.b"

        def disc_f(leaf):
            old = disc.params[dleaf]
            disc.params[dleaf] = leaf
            try:  # a fake and a real video, stacked in one forward
                both = Tensor(np.concatenate([vid.data, vid.data + 1.0]))
                return icmd.mca_disc_loss(disc.forward(both, sigma=[0.8, 0.8]))
            finally:
                disc.params[dleaf] = old
        rep = finite_difference_check(disc_f, disc.params[dleaf], eps=1e-4)
        assert rep.max_rel_err <= TOL, f"mca_disc_loss: {rep}"
        points += 1

    assert points >= 100
    assert time.time() - start <= 120.0


# ---------------------------------------------------------------------------
# 2. plan reproduction against the golden file
# ---------------------------------------------------------------------------

def test_criterion_2_plan_matches_golden():
    plan = pr.plan_vdmini(ng.toy_teacher_graph())
    golden = json.loads(GOLDEN_PLAN.read_text())
    doc = plan.to_json_doc()
    assert doc.keys() == golden.keys()
    for key in golden:
        assert doc[key] == golden[key], f"plan field {key} diverges"
    assert plan.student_layer_counts == {
        "D.0": 1, "D.1": 1, "D.2": 2, "D.3": 0, "M": 0,
        "U.0": 0, "U.1": 3, "U.2": 2, "U.3": 2,
    }


# ---------------------------------------------------------------------------
# 3. parameter reduction ratio
# ---------------------------------------------------------------------------

def test_criterion_3_parameter_ratio():
    graph = ng.toy_teacher_graph()
    student = pr.student_graph(graph, pr.plan_vdmini(graph))
    _, t_total = ng.count_params(graph)
    _, s_total = ng.count_params(student)
    assert 0.55 <= s_total / t_total <= 0.65


# ---------------------------------------------------------------------------
# 4. latency direction
# ---------------------------------------------------------------------------

def test_criterion_4_pruned_model_is_faster():
    graph = ng.toy_teacher_graph()
    teacher = ng.build(graph, 0)
    student = pr.apply_plan(teacher, pr.plan_vdmini(graph))
    x = Tensor(np.random.default_rng(0).standard_normal((2, 1, 16, 16)))
    # single forwards interleaved, so that a change in host load between
    # two blocks of timings cannot decide the ratio
    times = {teacher: [], student: []}
    for rep in range(32):
        for model, samples in times.items():
            t0 = time.perf_counter()
            model.forward(x, 0.0)
            if rep >= 2:  # warm-up
                samples.append(time.perf_counter() - t0)
    # the fastest of each model's forwards: host load can only lengthen a time
    t_ms, s_ms = (1e3 * min(v) for v in times.values())
    assert s_ms <= 0.8 * t_ms, (s_ms, t_ms)


# ---------------------------------------------------------------------------
# 5. Frechet closed forms
# ---------------------------------------------------------------------------

def test_criterion_5_frechet_closed_forms():
    d = 2
    eye = np.eye(d)
    a = ek.GaussianStats(np.zeros(d), eye)
    assert ek.frechet_distance(a, a) == pytest.approx(0.0, abs=1e-6)
    b = ek.GaussianStats(np.array([3.0, 4.0]), eye)
    assert ek.frechet_distance(a, b) == pytest.approx(25.0, abs=1e-6)
    c = ek.GaussianStats(np.zeros(d), 4.0 * eye)
    assert ek.frechet_distance(a, c) == pytest.approx(2.0, abs=1e-6)


# ---------------------------------------------------------------------------
# 7. loss unit values and the objective identity
# ---------------------------------------------------------------------------

def test_criterion_7_loss_unit_values():
    assert icmd.mca_disc_loss(Tensor([0.0, 0.0])).item() == 2.0
    assert abs(icmd.mca_gen_loss(Tensor(0.0)).item() - math.log(2.0)) <= 1e-12
    feats = {"a": Tensor(np.ones((2, 2))), "b": Tensor(np.zeros(3))}
    assert icmd.icd_loss(feats, dict(feats)).item() == 0.0

    graph = ng.make_unet_graph(ng.ORIGIN_LAYER_COUNTS, SMALL_WIDTHS, emb_dim=8)
    teacher = ng.build(graph, 1)
    student = pr.apply_plan(teacher, pr.plan_vdmini(graph))
    state = icmd.DistillState(student, teacher, icmd.Discriminator(seed=2),
                              configured(icmd.LossWeights, "distill"),
                              configured(df.NoiseSchedule, "schedule"), Adam(1e-4), Adam(1e-5))
    batch = sd.gen_dataset(2, 4, frames=2).tensors()
    out = icmd.distill_step(state, batch, np.random.default_rng(0))
    expect = out["task"] + 0.1 * out["icd"] + 1.0 * (out["mca_gen"] + out["mca_disc"])
    assert out["total"] == expect


# ---------------------------------------------------------------------------
# shared training infrastructure for the ordering criteria (8-10)
# ---------------------------------------------------------------------------

TEACHER_STEPS = 250
N_EVAL = 24
SCHEDULE = configured(df.NoiseSchedule, "schedule")


def _train_teacher(steps=TEACHER_STEPS):
    graph = ng.toy_teacher_graph()
    model = ng.build(graph, 0)
    train = sd.gen_dataset(16, 0, frames=8).tensors()
    opt = Adam(lr=2e-4)
    rng = np.random.default_rng(1)
    for _ in range(steps):
        batch = [train[rng.integers(len(train))] for _ in range(2)]
        bc = [sd.first_frame_condition(v) for v in batch]
        cli.train_step(model, opt, batch, bc, SCHEDULE, rng)
    return model


@pytest.fixture(scope="session")
def trained_teacher():
    return _train_teacher()


@pytest.fixture(scope="session")
def eval_corpus():
    videos = sd.gen_dataset(N_EVAL, 100, split="eval", frames=8).tensors()
    conds = [sd.first_frame_condition(v) for v in videos]
    return videos, conds


# ---------------------------------------------------------------------------
# 8. ablation importance signal: null block vs contributing block
# ---------------------------------------------------------------------------

def test_criterion_8_null_vs_contributing_block(trained_teacher, eval_corpus):
    evalv, conds = eval_corpus
    extractor = ek.FeatureExtractor()
    gen_seeds = (0, 1, 2)

    # a block whose residual branch is forced to zero is exactly removable
    null_id = "D.0.R.1.S"
    params = {n: Tensor(p.data.copy(), requires_grad=True)
              for n, p in trained_teacher.params.items()}
    for n in list(params):
        if n.startswith(null_id + ".conv2."):
            params[n] = Tensor(np.zeros_like(params[n].data), requires_grad=True)
    null_teacher = ng.Model(trained_teacher.graph, params)

    # contributing block: paired deltas against the same generation seeds,
    # scored by the profiling that the `profile` stage runs
    contrib_id = "U.1.R.0.S"

    def paired_deltas(teacher_model, block_id):
        return [pr.profile_importance(teacher_model, evalv, [block_id], extractor, SCHEDULE,
                                      conds=conds, seed=s, steps=1,
                                      latency_reps=0).rows[0].delta_fvd
                for s in gen_seeds]

    contrib = paired_deltas(trained_teacher, contrib_id)
    # metric noise: seed-to-seed repeatability of the paired delta statistic
    noise = float(np.std(contrib))
    null = paired_deltas(null_teacher, null_id)

    assert abs(float(np.median(null))) <= 2.0 * noise
    assert float(np.median(contrib)) > 2.0 * noise


# ---------------------------------------------------------------------------
# 11. pipeline byte determinism
# ---------------------------------------------------------------------------

FAST_PIPELINE = {
    "data": {"n_train": 4, "n_eval": 4, "frames": 2},
    "model": {"widths": [4, 6, 8], "emb_dim": 8},
    "schedule": {"n_levels": 4},
    "train_teacher": {"steps": 2, "batch": 2},
    "profile": {"sample_steps": 1, "latency_reps": 0},
    "distill": {"steps": 2, "batch": 2},
    "eval": {"sample_steps": 1, "latency_reps": 0},
}

STAGES = ("gen-data", "train-teacher", "profile", "plan", "distill",
          "eval", "report")


def test_criterion_11_pipeline_byte_determinism(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(FAST_PIPELINE))
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        for stage in STAGES:
            rc = cli.main([stage, "--config", str(cfg_path),
                           "--out", str(out), "--seed", "5"])
            assert rc == 0, f"{stage} failed in run {run}"
        outputs.append({p.name: p.read_bytes()
                        for p in sorted(out.iterdir()) if p.is_file()})
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"


def test_graph_files_describe_their_checkpoints(tmp_path):
    # a graph file read back enumerates exactly its checkpoint's tensors
    # (besides the "_meta." ones), so a model can be rebuilt from the two
    # files alone
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(FAST_PIPELINE))
    for stage in ("gen-data", "train-teacher", "plan", "distill"):
        assert cli.main([stage, "--config", str(cfg_path), "--out", str(tmp_path),
                         "--seed", "5"]) == 0, stage
    for role in ("teacher", "student"):
        doc = json.loads((tmp_path / f"{role}_graph.json").read_text())
        graph = ng.graph_from_json(json.dumps(doc["graph"]))
        tensors = ck.load_checkpoint(tmp_path / f"{role}.vdmk")
        assert ({s.name: s.shape for s in ng.enumerate_params(graph)}
                == {name: t.shape for name, t in tensors.items()
                    if not name.startswith("_meta.")}), role


# ---------------------------------------------------------------------------
# 12. on-disk round-trips and corruption detection
# ---------------------------------------------------------------------------

def test_criterion_12_round_trips_and_corruption(tmp_path):
    rng = np.random.default_rng(0)
    params = {"a.w": Tensor(rng.standard_normal((3, 4))),
              "b.b": Tensor(rng.standard_normal(7))}
    ckpt = tmp_path / "model.vdmk"
    ck.save_checkpoint(params, ckpt)
    loaded = ck.load_checkpoint(ckpt)
    assert loaded.keys() == params.keys()
    for name, p in params.items():
        assert np.array_equal(loaded[name].data, p.data)

    ds = sd.gen_dataset(3, 1, frames=4)
    dpath = tmp_path / "data.vdds"
    sd.save_dataset(ds, dpath)
    back = sd.load_dataset(dpath)
    assert np.array_equal(back.videos, ds.videos)
    assert back.provenance == ds.provenance

    for path, loader in ((ckpt, ck.load_checkpoint), (dpath, sd.load_dataset)):
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        bad = tmp_path / ("corrupt" + path.suffix)
        bad.write_bytes(bytes(blob))
        with pytest.raises(VdminiError):
            loader(bad)
