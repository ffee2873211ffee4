import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from vdmini import diffusion as df
from vdmini import evalkit as ek
from vdmini import netgraph as ng
from vdmini import pruner as pr
from vdmini import synthdata as sd
from vdmini.errors import PlanError, UnknownBlockError
from vdmini.tensor import Tensor

from ablated import ablated_model
from defaults import configured

GOLDEN = Path(__file__).parent / "golden" / "plan.json"
SMALL_WIDTHS = (4, 6, 8)


def _small_graph():
    return ng.make_unet_graph(ng.ORIGIN_LAYER_COUNTS, SMALL_WIDTHS, emb_dim=8)


def _eval_videos(n=4, frames=2, seed=9):
    return sd.gen_dataset(n, seed, frames=frames).tensors()


# ---------------------------------------------------------------------------
# the structured pruning plan
# ---------------------------------------------------------------------------

def test_plan_layer_count_transformation():
    plan = pr.plan_vdmini(ng.toy_teacher_graph())
    assert plan.student_layer_counts == {
        "D.0": 1, "D.1": 1, "D.2": 2, "D.3": 0, "M": 0,
        "U.0": 0, "U.1": 3, "U.2": 2, "U.3": 2,
    }
    assert set(plan.emptied_stages) == {"D.3", "M", "U.0"}
    # the second layer (index 1) is the one removed from shrunk stages
    for bid in ("D.0.R.1.S", "D.1.A.1.T", "U.2.R.1.S", "U.3.A.1.S"):
        assert bid in plan.removed_block_ids
    # the stages kept whole are untouched
    for bid in plan.removed_block_ids:
        assert not bid.startswith(("D.2", "U.1"))


def test_plan_golden_file():
    plan = pr.plan_vdmini(ng.toy_teacher_graph())
    assert plan.to_json_doc() == json.loads(GOLDEN.read_text())


def test_plan_counts_independent_of_widths():
    big = pr.plan_vdmini(ng.toy_teacher_graph())
    small = pr.plan_vdmini(_small_graph())
    assert big.student_layer_counts == small.student_layer_counts
    assert big.removed_block_ids == small.removed_block_ids


def test_plan_rejects_its_own_output():
    teacher = ng.toy_teacher_graph()
    plan = pr.plan_vdmini(teacher)
    student = pr.student_graph(teacher, plan)
    with pytest.raises(PlanError, match="non-conforming stage layout"):
        pr.plan_vdmini(student)


def test_plan_inheritance_is_injective_and_renumbers():
    plan = pr.plan_vdmini(ng.toy_teacher_graph())
    targets = list(plan.inheritance.values())
    assert len(targets) == len(set(targets))
    # kept-whole stages map each block to itself
    assert plan.inheritance["D.2.R.1.S"] == "D.2.R.1.S"
    assert plan.inheritance["U.1.A.2.T"] == "U.1.A.2.T"
    # stages losing their middle layer renumber the surviving last layer
    assert plan.inheritance["U.2.R.1.S"] == "U.2.R.2.S"
    assert plan.inheritance["U.3.A.1.T"] == "U.3.A.2.T"
    # removed blocks never appear as inheritance sources
    assert not set(plan.removed_block_ids) & set(targets)


# sha256 over (name, shape, init, owner) of every enumerate_params entry, in
# order, for the toy teacher and its plan student; pinned so the checkpoint
# layout cannot move unnoticed
PARAM_LAYOUT_SHA256 = {
    "teacher": "dcea386e59738c7a60f580535ce9c8d5b73adf95ad524949fda452246d021705",
    "student": "222e15902b9df68f35f590031bfd37aa9837b07da979b93946c9f1cd2f81683c",
}


def test_param_layout_is_pinned():
    teacher = ng.toy_teacher_graph()
    graphs = {"teacher": teacher,
              "student": pr.student_graph(teacher, pr.plan_vdmini(teacher))}
    for key, graph in graphs.items():
        h = hashlib.sha256()
        for s in ng.enumerate_params(graph):
            h.update(repr((s.name, tuple(s.shape), s.init, s.owner)).encode())
        assert h.hexdigest() == PARAM_LAYOUT_SHA256[key], key


def test_plan_json_doc_round_trips_and_rejects_malformed_docs():
    plan = pr.plan_vdmini(ng.toy_teacher_graph())
    doc = {"config_hash": "0123456789abcdef", **plan.to_json_doc()}
    assert pr.PruningPlan.from_json_doc(doc) == plan
    missing = {k: v for k, v in doc.items() if k != "inheritance"}
    with pytest.raises(PlanError, match="missing key 'inheritance'"):
        pr.PruningPlan.from_json_doc(missing)
    for key, bad in (("removed_block_ids", "D.0.R.1.S"), ("emptied_stages", [3]),
                     ("inheritance", ["D.0.R.0.S"]), ("inheritance", {"D.0.R.0.S": 1}),
                     ("student_layer_counts", {"D.0": -1}),
                     ("student_layer_counts", {"D.0": 1.0}),
                     ("student_layer_counts", {"D.0": True})):
        with pytest.raises(PlanError, match=key):
            pr.PruningPlan.from_json_doc({**doc, key: bad})
    with pytest.raises(PlanError, match="JSON object"):
        pr.PruningPlan.from_json_doc([doc])


def test_plan_json_doc_must_count_exactly_the_origin_stages():
    doc = pr.plan_vdmini(ng.toy_teacher_graph()).to_json_doc()
    counts = doc["student_layer_counts"]
    without_u3 = {k: v for k, v in counts.items() if k != "U.3"}
    for bad, named in (({"D.0": 1, "TYPO": 3}, "'TYPO'"), ({**counts, "TYPO": 3}, "'TYPO'"),
                       (without_u3, "missing ['U.3']")):
        with pytest.raises(PlanError, match="student_layer_counts") as err:
            pr.PruningPlan.from_json_doc({**doc, "student_layer_counts": bad})
        assert named in str(err.value)


# ---------------------------------------------------------------------------
# applying the plan
# ---------------------------------------------------------------------------

def test_apply_plan_parameter_ratio():
    graph = ng.toy_teacher_graph()
    teacher = ng.build(graph, 0)
    student = pr.apply_plan(teacher, pr.plan_vdmini(graph))
    _, t_total = ng.count_params(graph)
    _, s_total = ng.count_params(student.graph)
    assert 0.55 <= s_total / t_total <= 0.65


def test_apply_plan_empty_plan_is_bitwise_identity():
    graph = _small_graph()
    teacher = ng.build(graph, 3)
    ident = pr.PruningPlan(
        removed_block_ids=(), emptied_stages=(),
        inheritance={bid: bid for bid in graph.block_ids()},
        student_layer_counts=dict(ng.ORIGIN_LAYER_COUNTS))
    student = pr.apply_plan(teacher, ident)
    assert student.params.keys() == teacher.params.keys()
    for name, p in teacher.params.items():
        assert np.array_equal(student.params[name].data, p.data)


def test_apply_plan_rejects_missing_teacher_block():
    graph = _small_graph()
    teacher = ng.build(graph, 0)
    plan = pr.plan_vdmini(graph)
    bad = pr.PruningPlan(plan.removed_block_ids, plan.emptied_stages,
                         {**plan.inheritance, "D.0.R.0.S": "D.9.R.0.S"},
                         plan.student_layer_counts)
    with pytest.raises(PlanError, match="missing teacher block"):
        pr.apply_plan(teacher, bad)


@pytest.mark.parametrize("edit,message", [
    # a fifth U.3 layer, which no teacher block gives
    (lambda p: {**p, "student_layer_counts": {**p["student_layer_counts"], "U.3": 5}},
     "student block U.3.R.2.S inherits no teacher block"),
    # a D.0 block for U.3's first, whose input also takes D.0's skip
    (lambda p: {**p, "inheritance": {**p["inheritance"], "U.3.R.0.S": "D.0.R.0.S"}},
     "student tensor U.3.R.0.S.gn1.g"),
], ids=["extra-layer", "wrong-shape"])
def test_apply_plan_rejects_a_plan_that_does_not_prune_the_teacher(edit, message):
    teacher = ng.build(_small_graph(), 0)
    doc = edit(pr.plan_vdmini(teacher.graph).to_json_doc())
    with pytest.raises(PlanError, match=message):
        pr.apply_plan(teacher, pr.PruningPlan.from_json_doc(doc))


def test_apply_plan_retained_block_matches_teacher_activations():
    graph = _small_graph()
    teacher = ng.build(graph, 7)
    student = pr.apply_plan(teacher, pr.plan_vdmini(graph))
    bid = "D.2.R.0.S"
    spec_t = teacher.graph.find_block(bid)
    spec_s = student.graph.find_block(bid)
    assert spec_t.in_channels == spec_s.in_channels
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, spec_t.in_channels, 4, 4)))
    emb = ng.Embedding(Tensor(rng.standard_normal(graph.emb_dim)))
    out_t = teacher._res_block(x, spec_t, emb)
    out_s = student._res_block(x, spec_s, emb)
    assert np.array_equal(out_t.data, out_s.data)


# ---------------------------------------------------------------------------
# importance profiling by ablation
# ---------------------------------------------------------------------------

def _profile_setup():
    graph = _small_graph()
    teacher = ng.build(graph, 1)
    schedule = configured(df.NoiseSchedule, "schedule", n_levels=4)
    eval_set = _eval_videos()
    return teacher, schedule, eval_set


def test_profile_zero_blocks_reference_only():
    teacher, schedule, eval_set = _profile_setup()
    report = pr.profile_importance(teacher, eval_set, [], ek.FeatureExtractor(),
                                   schedule, seed=1)
    assert report.rows == []
    assert math.isfinite(report.reference_fvd)


def test_profile_null_block_has_zero_delta():
    # freshly initialized residual branches end in zero convolutions, so the
    # block is exactly the identity and ablating it cannot move the metric
    teacher, schedule, eval_set = _profile_setup()
    report = pr.profile_importance(teacher, eval_set, ["D.0.R.0.S"],
                                   ek.FeatureExtractor(), schedule, seed=1)
    (row,) = report.rows
    assert row.error is None
    assert row.delta_fvd == pytest.approx(0.0, abs=1e-9)


def test_profile_deterministic_and_order_independent():
    teacher, schedule, eval_set = _profile_setup()
    ex = ek.FeatureExtractor()
    blocks = ["D.0.R.0.S", "D.1.A.0.S", "M.R.0.S"]
    a = pr.profile_importance(teacher, eval_set, blocks, ex, schedule,
                              seed=5, latency_reps=3)
    b = pr.profile_importance(teacher, eval_set, blocks[::-1], ex, schedule,
                              seed=5, latency_reps=3)
    assert a.reference_fvd == b.reference_fvd
    rows_a = {(r.block_id, r.fvd_after_ablation, r.delta_fvd, r.params) for r in a.rows}
    rows_b = {(r.block_id, r.fvd_after_ablation, r.delta_fvd, r.params) for r in b.rows}
    assert rows_a == rows_b


def test_profile_report_rows_cover_requested_blocks():
    teacher, schedule, eval_set = _profile_setup()
    blocks = ["D.0.R.0.S", "U.3.R.0.T"]
    report = pr.profile_importance(teacher, eval_set, blocks,
                                   ek.FeatureExtractor(), schedule, seed=2)
    assert sorted(r.block_id for r in report.rows) == sorted(blocks)


def _init_then_overwrite(teacher, specs, rename=None):
    """The parameters built by initialising every ParamSpec of `specs`,
    then copying every teacher tensor whose name and shape survive;
    `rename` maps a block id to the teacher block whose tensors it takes."""
    rename = rename or {}
    params = {s.name: Tensor(ng._init_param(s, 0), requires_grad=True) for s in specs}
    for name in params:
        owner = next((b for b in rename if name.startswith(b + ".")), None)
        src_name = rename[owner] + name[len(owner):] if owner else name
        src = teacher.params.get(src_name)
        if src is not None and src.shape == params[name].shape:
            params[name] = Tensor(src.data, requires_grad=True)
    return params


def _perturbed_teacher(seed=1):
    # every residual branch of a fresh model ends in a zero conv; noise on
    # every weight makes each block, and so each ablation, count
    graph = _small_graph()
    rng = np.random.default_rng(seed)
    return ng.Model(graph, {n: Tensor(p.data + 0.3 * rng.standard_normal(p.shape))
                            for n, p in ng.build(graph, seed).params.items()})


def test_inherit_ablated_matches_init_then_overwrite():
    teacher = _perturbed_teacher()
    plan = pr.plan_vdmini(teacher.graph)
    cases = []
    for block_id in ("D.1.A.0.S", "U.1.R.0.S"):  # identity, shortcut conv
        spec = ng.ablate(teacher.graph, block_id)
        extra = ng.shortcut_params(spec) if spec.replacement == ng.SHORTCUT_CONV else []
        cases.append((pr._group(teacher, [block_id])[0], _init_then_overwrite(
            teacher, ng.enumerate_params(teacher.graph) + extra)))
    cases.append((pr.apply_plan(teacher, plan), _init_then_overwrite(
        teacher, ng.enumerate_params(pr.student_graph(teacher.graph, plan)), plan.inheritance)))
    for model, want in cases:
        got = model.params
        assert list(got) == list(want)
        for name, p in want.items():
            assert got[name].shape == p.shape
            assert np.array_equal(got[name].data, p.data), name
    # the student's tensors are its own to train; the renamed stages really
    # take the teacher's later layer, not their own
    student = cases[-1][0]
    assert all(p.requires_grad for p in student.params.values())
    assert np.array_equal(student.params["U.2.R.1.S.conv1.w"].data,
                          teacher.params["U.2.R.2.S.conv1.w"].data)


@pytest.mark.parametrize("steps", [1, 2])
def test_profile_resumed_rows_equal_whole_sampling(steps):
    teacher = _perturbed_teacher()
    schedule = configured(df.NoiseSchedule, "schedule", n_levels=4)
    eval_set = _eval_videos(n=2)
    conds = [sd.first_frame_condition(v) for v in eval_set]
    ex = ek.FeatureExtractor()
    blocks = ["D.0.R.0.S", "D.1.A.0.T", "M.R.1.T", "U.1.R.0.S", "U.3.A.2.S"]
    report = pr.profile_importance(teacher, eval_set, blocks, ex, schedule, conds=conds,
                                   seed=3, steps=steps, latency_reps=0)

    def whole_fvd(model):
        # each video sampled alone, not through the batched sample_set
        samples = [df.sample(model, schedule, steps, cond,
                             np.random.Generator(np.random.PCG64(np.random.SeedSequence([3, i]))),
                             eval_set[0].shape)
                   for i, cond in enumerate(conds)]
        return ek.fvd(samples, eval_set, ex)

    ref_fvd = whole_fvd(teacher)
    assert report.reference_fvd == ref_fvd
    assert len(report.rows) == len(blocks)
    for row in report.rows:
        fvd = whole_fvd(ablated_model(teacher, row.block_id))
        assert row.error is None
        assert row.fvd_after_ablation == fvd, row.block_id
        assert row.delta_fvd == fvd - ref_fvd, row.block_id


def test_ablated_shares_the_teachers_tensors_and_matches_inherit():
    teacher = _perturbed_teacher()
    blocks = ["D.1.A.0.S", "M.R.1.T", "U.1.R.0.S"]  # U.1.R.0.S: shortcut conv
    model, ablated = pr._group(teacher, blocks)
    assert model.graph == teacher.graph
    assert [b.block_id for b in ablated] == blocks
    for block_id, spec in zip(blocks, ablated):
        want = ablated_model(teacher, block_id)
        assert spec == want.spec
        for name, p in want.params.items():
            assert np.array_equal(model.params[name].data, p.data), name
            if name in teacher.params:
                assert model.params[name] is teacher.params[name], name
    assert set(model.params) - set(teacher.params) == {"U.1.R.0.S.ablate.w", "U.1.R.0.S.ablate.b"}


def test_prefix_cache_runs_whole_when_the_first_input_differs():
    teacher = _perturbed_teacher()
    model, ablated = pr._group(teacher, ["D.2.R.0.T", "U.1.R.0.S"])
    x = Tensor(np.random.default_rng(0).standard_normal((4, 1, 16, 16)))  # 2 videos
    ref = pr._FirstStep(teacher)
    ref.forward(x, 0.5, videos=2)
    stacked = Tensor(np.concatenate([x.data] * 2))  # once per model
    assert np.array_equal(pr._FirstStep(model, ref, ablated).forward(stacked, 0.5, videos=4).data,
                          model.forward(stacked, 0.5, videos=4, ablated=ablated).data)
    # one flipped bit in one model's input, another noise level or another
    # video count: resuming would return the recorded teacher prefix's
    # answer; the first step must run the whole group instead
    bumped = stacked.data.copy()
    bumped.view(np.uint64)[4, 0, 0, 0] ^= 1
    recorded = model.resume(ref.states, ablated).data
    for args, videos in (((Tensor(bumped), 0.5), 4), ((stacked, 0.25), 4), ((stacked, 0.5), 2)):
        out = pr._FirstStep(model, ref, ablated).forward(*args, videos=videos)
        assert np.array_equal(out.data, model.forward(*args, videos=videos, ablated=ablated).data)
        assert not np.array_equal(out.data, recorded)


def test_grouped_walk_matches_each_ablated_model_whole():
    # RB-S, RB-T, TB-S, TB-T, the shortcut conv U.1.R.0.S, and blocks that
    # join after the D.0, D.1 and D.2 skips were stored
    teacher = _perturbed_teacher()
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((4, 1, 16, 16)))  # 2 videos of 2 frames
    cond = Tensor(rng.standard_normal((2, 1, 16, 16)))
    states = {}
    teacher.forward(x, 0.5, cond, states=states, videos=2)
    groups = (["D.0.R.0.T", "D.1.A.0.S", "D.2.R.1.S", "M.A.0.T", "U.1.R.0.S", "U.3.A.2.S"],
              ["U.1.R.0.S"], ["D.2.A.0.T", "U.2.R.1.T"])
    for blocks in groups:
        model, ablated = pr._group(teacher, blocks)
        n = len(blocks)
        resumed = model.resume(states, ablated).data
        whole = model.forward(Tensor(np.concatenate([x.data] * n)), 0.5,
                              Tensor(np.concatenate([cond.data] * n)), videos=2 * n,
                              ablated=ablated).data
        for i, block_id in enumerate(blocks):
            want = ablated_model(teacher, block_id).forward(x, 0.5, cond, videos=2).data
            assert np.array_equal(resumed[4 * i:4 * (i + 1)], want), block_id
            assert np.array_equal(whole[4 * i:4 * (i + 1)], want), block_id
    model, ablated = pr._group(teacher, ["D.1.A.0.S", "D.0.R.0.T"])
    with pytest.raises(UnknownBlockError, match="walk order"):
        model.resume(states, ablated)
    with pytest.raises(UnknownBlockError):
        pr._group(teacher, ["D.0.R.0.T", "D.9.R.0.S"])
    with pytest.raises(UnknownBlockError):
        pr.profile_importance(teacher, _eval_videos(n=2), ["D.9.R.0.S"], ek.FeatureExtractor(),
                              configured(df.NoiseSchedule, "schedule", n_levels=4), latency_reps=0)


@pytest.mark.parametrize("steps", [1, 2])
def test_profile_report_does_not_depend_on_the_group_size(steps, monkeypatch):
    teacher = _perturbed_teacher()
    eval_set = _eval_videos(n=2)
    conds = [sd.first_frame_condition(v) for v in eval_set]
    blocks = ["D.0.R.0.S", "D.1.A.0.T", "D.2.R.1.S", "M.R.1.T", "U.0.R.0.S", "U.1.R.0.S",
              "U.2.A.1.S", "U.3.A.2.T"]
    resume = ng.Model.resume
    reports, walks = [], []
    monkeypatch.setattr(ng.Model, "resume", lambda *a: walks.append(1) or resume(*a))
    for budget in (1, 1 << 40):  # one model per group, then all in one
        monkeypatch.setattr(pr, "_GROUP_BYTES", budget)
        report = pr.profile_importance(teacher, eval_set, blocks, ek.FeatureExtractor(),
                                       configured(df.NoiseSchedule, "schedule", n_levels=4),
                                       conds=conds, seed=3, steps=steps, latency_reps=0)
        reports.append(repr(report))
    assert len(walks) == len(blocks) + 1
    assert reports[0] == reports[1]


def test_profile_memory_is_bounded_by_the_group_budget(traced_peak):
    # criterion 11's FAST_PIPELINE shapes: 4 eval videos of 2 frames, widths 4/6/8
    teacher = _perturbed_teacher()
    eval_set = _eval_videos(n=4)
    conds = [sd.first_frame_condition(v) for v in eval_set]
    report, peak = traced_peak(lambda: pr.profile_importance(
        teacher, eval_set, teacher.graph.block_ids(), ek.FeatureExtractor(),
        configured(df.NoiseSchedule, "schedule", n_levels=4), conds=conds, seed=5, latency_reps=0))
    assert len(report.rows) == 76
    assert peak < 3 * pr._GROUP_BYTES, peak
