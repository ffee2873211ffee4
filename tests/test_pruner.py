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
from vdmini.errors import PlanError
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
    graph = ng.ablate(ng.toy_teacher_graph(), "D.0.R.0.S")
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


# sha256 over (name, shape, init, owner) of every enumerate_params entry, in
# order, for the toy teacher, its plan student and the U.1.R.0.S ablation
# (a shortcut conv); pinned so the checkpoint layout cannot move unnoticed
PARAM_LAYOUT_SHA256 = {
    "teacher": "dcea386e59738c7a60f580535ce9c8d5b73adf95ad524949fda452246d021705",
    "student": "222e15902b9df68f35f590031bfd37aa9837b07da979b93946c9f1cd2f81683c",
    "U.1.R.0.S": "ed3aaa99e5ac4296f9cf8505f5492abb8dc2d5a6c7f6acf428250268f9aef80e",
}


def test_param_layout_is_pinned():
    teacher = ng.toy_teacher_graph()
    graphs = {"teacher": teacher,
              "student": pr.student_graph(teacher, pr.plan_vdmini(teacher)),
              "U.1.R.0.S": ng.ablate(teacher, "U.1.R.0.S")}
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


def _init_then_overwrite(teacher, graph, rename=None):
    """The model as built by initialising the whole graph, then copying
    every teacher tensor whose name and shape survive; `rename` maps a
    block id to the teacher block whose tensors it takes."""
    rename = rename or {}
    params = ng.init_params(graph, 0)
    for name in params:
        owner = next((b for b in rename if name.startswith(b + ".")), None)
        src_name = rename[owner] + name[len(owner):] if owner else name
        src = teacher.params.get(src_name)
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
    plan = pr.plan_vdmini(teacher.graph)
    ablated = [ng.ablate(teacher.graph, block_id)
               for block_id in ("D.1.A.0.S", "U.1.R.0.S")]  # identity, shortcut conv
    cases = [(pr._inherit(teacher, g), _init_then_overwrite(teacher, g)) for g in ablated]
    cases.append((pr.apply_plan(teacher, plan),
                  _init_then_overwrite(teacher, pr.student_graph(teacher.graph, plan),
                                       plan.inheritance)))
    for model, expected in cases:
        got, want = model.params, expected.params
        assert list(got) == list(want)
        for name, p in want.items():
            assert got[name].shape == p.shape
            assert np.array_equal(got[name].data, p.data), name
            assert got[name].requires_grad
    # the renamed stages really take the teacher's later layer, not its own
    student = cases[-1][0]
    assert np.array_equal(student.params["U.2.R.1.S.conv1.w"].data,
                          teacher.params["U.2.R.2.S.conv1.w"].data)


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
        return ek.fvd(df.sample_set(model, schedule, conds, 3, shape, steps), eval_set, ex)

    ref_fvd = whole_fvd(teacher)
    assert report.reference_fvd == ref_fvd
    assert len(report.rows) == len(blocks)
    for row in report.rows:
        graph = ng.ablate(teacher.graph, row.block_id)
        fvd = whole_fvd(_init_then_overwrite(teacher, graph))
        assert row.error is None
        assert row.fvd_after_ablation == fvd, row.block_id
        assert row.delta_fvd == fvd - ref_fvd, row.block_id


def test_prefix_cache_runs_whole_when_the_first_input_differs():
    teacher = _perturbed_teacher()
    graph = ng.ablate(teacher.graph, "D.2.R.0.T")
    model = pr._inherit(teacher, graph)
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
