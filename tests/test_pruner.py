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
from vdmini.errors import PlanError, PruneError, VdminiError
from vdmini.tensor import Tensor

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


def test_plan_rejects_ablated_graph():
    graph, _ = ng.ablate(ng.toy_teacher_graph(), "D.0.R.0.S")
    with pytest.raises(PlanError, match="non-conforming stage layout"):
        pr.plan_vdmini(graph)


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
    emb = Tensor(rng.standard_normal(graph.emb_dim))
    out_t = teacher._res_block(x, spec_t, emb)
    out_s = student._res_block(x, spec_s, emb)
    assert np.array_equal(out_t.data, out_s.data)


# ---------------------------------------------------------------------------
# importance profiling by ablation
# ---------------------------------------------------------------------------

def _profile_setup():
    graph = _small_graph()
    teacher = ng.build(graph, 1)
    schedule = df.NoiseSchedule(n_levels=4)
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


def test_profile_report_rows_cover_requested_blocks_and_csv():
    teacher, schedule, eval_set = _profile_setup()
    blocks = ["D.0.R.0.S", "U.3.R.0.T"]
    report = pr.profile_importance(teacher, eval_set, blocks,
                                   ek.FeatureExtractor(), schedule, seed=2)
    assert sorted(r.block_id for r in report.rows) == sorted(blocks)
    csv = report.to_csv()
    header, *lines = csv.strip().split("\n")
    assert header.startswith("block_id,")
    assert len(lines) == len(blocks)


def _init_then_overwrite(teacher, graph):
    """The ablated model as built by initialising the whole graph, then
    copying every teacher tensor whose name and shape survive."""
    params = ng.init_params(graph, 0)
    for name in params:
        src = teacher.params.get(name)
        if src is not None and src.shape == params[name].shape:
            params[name] = Tensor(src.data, requires_grad=True)
    return ng.Model(graph, params)


def _perturbed_teacher(seed=1):
    # every residual branch of a fresh model ends in a zero conv; noise on
    # every weight makes each block, and so each ablation, count
    graph = _small_graph()
    rng = np.random.default_rng(seed)
    return ng.Model(graph, {n: Tensor(p.data + 0.3 * rng.standard_normal(p.shape))
                            for n, p in ng.build(graph, seed).params.items()})


def test_inherit_ablated_matches_init_then_overwrite():
    teacher = _perturbed_teacher()
    for block_id in ("D.1.A.0.S", "U.1.R.0.S"):  # identity, shortcut conv
        graph, _ = ng.ablate(teacher.graph, block_id)
        got = pr._inherit_ablated(teacher, graph).params
        want = _init_then_overwrite(teacher, graph).params
        assert list(got) == list(want)
        for name, p in want.items():
            assert got[name].shape == p.shape
            assert np.array_equal(got[name].data, p.data), name
            assert got[name].requires_grad


@pytest.mark.parametrize("steps", [1, 2])
def test_profile_resumed_rows_equal_whole_sampling(steps):
    teacher = _perturbed_teacher()
    schedule = df.NoiseSchedule(n_levels=4)
    eval_set = _eval_videos(n=2)
    conds = [sd.first_frame_condition(v) for v in eval_set]
    ex = ek.FeatureExtractor()
    blocks = ["D.0.R.0.S", "D.1.A.0.T", "M.R.1.T", "U.1.R.0.S", "U.3.A.2.S"]
    report = pr.profile_importance(teacher, eval_set, blocks, ex, schedule, conds=conds,
                                   seed=3, steps=steps, latency_reps=0)

    def whole_fvd(model):
        shape = eval_set[0].shape
        return ek.fvd(pr._generate_set(model, schedule, conds, 3, shape, steps), eval_set, ex)

    ref_fvd = whole_fvd(teacher)
    assert report.reference_fvd == ref_fvd
    assert len(report.rows) == len(blocks)
    for row in report.rows:
        graph, _ = ng.ablate(teacher.graph, row.block_id)
        fvd = whole_fvd(_init_then_overwrite(teacher, graph))
        assert row.error is None
        assert row.fvd_after_ablation == fvd, row.block_id
        assert row.delta_fvd == fvd - ref_fvd, row.block_id


def test_prefix_cache_runs_whole_when_the_first_input_differs():
    teacher = _perturbed_teacher()
    graph, _ = ng.ablate(teacher.graph, "D.2.R.0.T")
    model = pr._inherit_ablated(teacher, graph)
    x = Tensor(np.random.default_rng(0).standard_normal((2, 1, 16, 16)))
    prefixes = []
    pr._PrefixCache(teacher, 1, prefixes).forward(x, 0.5)
    resumed = pr._PrefixCache(model, 1, prefixes, start="D.2.R.0.T")
    assert np.array_equal(resumed.forward(x, 0.5).data, model.forward(x, 0.5).data)
    # one flipped bit in the input: resuming would return the recorded
    # teacher prefix's answer; the cache must run the whole model instead
    bumped = x.data.copy()
    bumped.view(np.uint64)[0, 0, 0, 0] ^= 1
    resumed = pr._PrefixCache(model, 1, prefixes, start="D.2.R.0.T")
    out = resumed.forward(Tensor(bumped), 0.5)
    assert np.array_equal(out.data, model.forward(Tensor(bumped), 0.5).data)
    assert not np.array_equal(out.data, model.resume(prefixes[0].states["D.2.R.0.T"],
                                                     "D.2.R.0.T").data)


# ---------------------------------------------------------------------------
# channel-group importance scores
# ---------------------------------------------------------------------------

def _toy_group():
    params = {"w": Tensor(np.array([2.0, -3.0]))}
    group = pr.ChannelGroup("e", 0, (("w", 0, 0), ("w", 0, 1)))
    return group, params


def test_l2_score_hand_value():
    group, params = _toy_group()
    assert pr.score_magnitude_l2(group, params) == pytest.approx(math.sqrt(13.0))


def test_l2_score_zero_and_scale_equivariance():
    group, params = _toy_group()
    zero = {"w": Tensor(np.zeros(2))}
    assert pr.score_magnitude_l2(group, zero) == 0.0
    doubled = {"w": Tensor(params["w"].data * 2.0)}
    assert pr.score_magnitude_l2(group, doubled) == pytest.approx(
        2.0 * pr.score_magnitude_l2(group, params))


def test_taylor_score_hand_value():
    group, params = _toy_group()
    grads = {"w": Tensor(np.array([0.5, 1.0]))}
    assert pr.score_taylor(group, params, grads) == pytest.approx(2.0)


def test_taylor_score_zero_grads_and_sign_flip():
    group, params = _toy_group()
    zeros = {"w": Tensor(np.zeros(2))}
    assert pr.score_taylor(group, params, zeros) == 0.0
    grads = {"w": Tensor(np.array([0.5, 1.0]))}
    flipped = {"w": Tensor(-grads["w"].data)}
    assert pr.score_taylor(group, params, grads) == pr.score_taylor(group, params, flipped)


def test_taylor_score_missing_grad_errors():
    group, params = _toy_group()
    with pytest.raises(VdminiError, match="missing gradient"):
        pr.score_taylor(group, params, {})


def test_calibration_grads_cover_reachable_params():
    graph = _small_graph()
    model = ng.build(graph, 2)
    batch = _eval_videos(n=2)
    schedule = df.NoiseSchedule(n_levels=4)
    grads = pr.calibration_grads(model, batch, schedule, seed=0)
    assert grads
    assert set(grads) <= set(model.params)
    groups = pr.build_channel_groups(graph)
    grads_full = {n: grads.get(n, Tensor(np.zeros(p.shape)))
                  for n, p in model.params.items()}
    score = pr.score_taylor(groups[0], model.params, grads_full)
    assert math.isfinite(score)


# ---------------------------------------------------------------------------
# dependency-grouped channel pruning
# ---------------------------------------------------------------------------

def _randomized(graph, seed=11):
    rng = np.random.default_rng(seed)
    params = ng.init_params(graph, 0)
    return {n: Tensor(rng.standard_normal(p.shape), requires_grad=True)
            for n, p in params.items()}


def test_channel_prune_rejects_bad_ratio():
    graph = _small_graph()
    params = _randomized(graph)
    for ratio in (0.0, 1.0, -0.5):
        with pytest.raises(PruneError, match="ratio"):
            pr.channel_prune(graph, params, ratio, lambda g: 0.0)


def test_channel_prune_ratio_too_small_is_identity():
    graph = _small_graph()
    params = _randomized(graph)
    scorer = lambda g: pr.score_magnitude_l2(g, params)
    new_graph, new_params = pr.channel_prune(graph, params, 1e-9, scorer)
    assert new_graph is graph
    assert new_params.keys() == params.keys()


def test_channel_prune_single_group_traces_through_coupled_layers():
    graph = _small_graph()
    params = _randomized(graph)
    groups = pr.build_channel_groups(graph)
    scorer = lambda g: pr.score_magnitude_l2(g, params)
    victim = min(groups, key=lambda g: (scorer(g), g.entity, g.channel))
    new_graph, new_params = pr.channel_prune(graph, params, 1.0 / len(groups), scorer)
    ng.check(new_graph)
    lay = ng.layout(graph)
    hit_stages = set(lay.entity_stages[victim.entity])
    for stage in graph.stages:
        expected = stage.width - (1 if stage.stage_id in hit_stages else 0)
        assert new_graph.stage(stage.stage_id).width == expected
    # every parameter touching the victim entity lost exactly its slice
    for name, _, _ in victim.entries:
        assert new_params[name].data.size < params[name].data.size


def test_channel_prune_copies_surviving_weights():
    graph = _small_graph()
    params = _randomized(graph)
    scorer = lambda g: pr.score_magnitude_l2(g, params)
    _, new_params = pr.channel_prune(graph, params, 0.04, scorer)
    for name, p in new_params.items():
        old = params[name].data
        # every surviving value existed at the same relative position
        assert np.isin(p.data.ravel(), old.ravel()).all()


def test_channel_prune_shrinks_params_and_still_runs():
    graph = _small_graph()
    params = _randomized(graph)
    scorer = lambda g: pr.score_magnitude_l2(g, params)
    new_graph, new_params = pr.channel_prune(graph, params, 0.04, scorer)
    _, before = ng.count_params(graph)
    _, after = ng.count_params(new_graph)
    assert after < before
    model = ng.Model(new_graph, new_params)
    out = model.forward(Tensor(np.zeros((2, 1, 16, 16))), c_noise=0.1)
    assert out.shape == (2, 1, 16, 16)


def test_channel_prune_emptying_a_stage_errors():
    graph = _small_graph()
    params = _randomized(graph)
    scorer = lambda g: pr.score_magnitude_l2(g, params)
    with pytest.raises(PruneError, match="empty stage"):
        pr.channel_prune(graph, params, 0.95, scorer)
