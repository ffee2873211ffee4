from dataclasses import replace

import numpy as np
import pytest

from vdmini import netgraph as ng
from vdmini.errors import GraphError, UnknownBlockError
from vdmini.tensor import Tensor

SMALL_WIDTHS = (4, 6, 8)


def small_graph():
    return ng.make_unet_graph(ng.ORIGIN_LAYER_COUNTS, SMALL_WIDTHS, emb_dim=8)


def test_origin_shaped_graph_validates_and_builds():
    graph = ng.toy_teacher_graph()
    assert ng.layout(graph).errors == []
    model = ng.build(graph, 0)
    x = Tensor(np.random.default_rng(0).standard_normal((2, 1, 16, 16)))
    out = model.forward(x, 0.0)
    assert out.shape == x.shape


def test_empty_mid_stage_validates():
    counts = dict(ng.ORIGIN_LAYER_COUNTS, M=0)
    graph = ng.make_unet_graph(counts, SMALL_WIDTHS, emb_dim=8)
    assert ng.layout(graph).errors == []


def test_forced_channel_mismatch_is_reported():
    graph = small_graph()
    stages = list(graph.stages)
    bad_stage = stages[1]
    bad_blocks = tuple(replace(b, in_channels=b.in_channels * 2) if i == 0 else b
                       for i, b in enumerate(bad_stage.blocks))
    stages[1] = replace(bad_stage, blocks=bad_blocks)
    bad = ng.BlockGraph(tuple(stages), graph.latent_channels, graph.cond_channels,
                        graph.emb_dim, graph.gn_groups)
    errors = ng.layout(bad).errors
    assert errors, "mismatch must be reported"
    assert any(bad_blocks[0].block_id in e for e in errors)
    with pytest.raises(GraphError):
        ng.check(bad)


def test_ablate_channel_matched_block_becomes_identity():
    block = ng.ablate(small_graph(), "D.0.R.0.S").find_block("D.0.R.0.S")
    assert block.replacement == ng.IDENTITY
    assert block.in_channels == block.out_channels


def test_ablate_channel_mismatched_block_becomes_shortcut_conv():
    block = ng.ablate(small_graph(), "U.0.R.0.S").find_block("U.0.R.0.S")
    assert block.replacement == ng.SHORTCUT_CONV
    assert block.in_channels != block.out_channels


def test_ablate_every_block_still_validates():
    graph = small_graph()
    for block_id in graph.block_ids():
        ablated = ng.ablate(graph, block_id)
        assert ng.layout(ablated).errors == [], block_id


def test_ablate_twice_is_rejected():
    graph = ng.ablate(small_graph(), "D.1.R.0.S")
    with pytest.raises(UnknownBlockError):
        ng.ablate(graph, "D.1.R.0.S")


def test_ablate_unknown_block_is_rejected():
    with pytest.raises(UnknownBlockError):
        ng.ablate(small_graph(), "D.9.R.0.S")


def test_stem_conv_hand_count():
    # 3x3 conv, 4 input channels (1 latent + 3 condition), 8 output, bias
    graph = ng.make_unet_graph(ng.ORIGIN_LAYER_COUNTS, (8, 8, 8),
                               latent_channels=1, cond_channels=3, emb_dim=8)
    per_owner, _ = ng.count_params(graph)
    assert per_owner["stem"] == 4 * 8 * 9 + 8 == 296


def test_identity_replacement_has_zero_params():
    graph = ng.ablate(small_graph(), "D.0.R.0.S")
    assert graph.find_block("D.0.R.0.S").replacement == ng.IDENTITY
    per_owner, _ = ng.count_params(graph)
    assert per_owner.get("D.0.R.0.S", 0) == 0


def test_shortcut_conv_param_count_formula():
    graph = ng.ablate(small_graph(), "U.0.R.0.S")
    block = graph.find_block("U.0.R.0.S")
    per_owner, _ = ng.count_params(graph)
    assert per_owner["U.0.R.0.S"] == block.in_channels * block.out_channels + block.out_channels


def test_ablation_param_delta_matches_block_cost():
    graph = small_graph()
    before, total_before = ng.count_params(graph)
    for block_id in ("D.2.R.1.S", "U.1.A.0.T", "U.0.R.0.S"):
        ablated = ng.ablate(graph, block_id)
        after, total_after = ng.count_params(ablated)
        assert total_before - total_after == before[block_id] - after.get(block_id, 0)


def test_build_is_deterministic():
    graph = small_graph()
    a = ng.build(graph, 17)
    b = ng.build(graph, 17)
    assert sorted(a.params) == sorted(b.params)
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data)
    c = ng.build(graph, 18)
    assert any(not np.array_equal(a.params[n].data, c.params[n].data)
               for n in a.params)


def test_forward_broadcasts_condition_to_every_frame():
    graph = small_graph()
    model = ng.build(graph, 0)
    x = Tensor(np.random.default_rng(1).standard_normal((3, 1, 16, 16)))
    cond = Tensor(np.random.default_rng(2).standard_normal((1, 1, 16, 16)))
    out = model.forward(x, 0.25, cond)
    assert out.shape == x.shape


def test_graph_json_round_trip():
    graph = ng.ablate(small_graph(), "M.R.0.S")
    doc = ng.graph_to_json(graph)
    back = ng.graph_from_json(doc)
    assert ng.graph_to_json(back) == doc
    assert back.find_block("M.R.0.S").replacement == ng.IDENTITY


def test_resume_from_recorded_state_matches_whole_forward():
    # the teacher's state entering a block is the ablated model's too, so
    # resuming there must give the ablated model's whole forward, bit for bit
    graph = small_graph()
    rng = np.random.default_rng(4)
    teacher = ng.Model(graph, {n: Tensor(p.data + 0.3 * rng.standard_normal(p.shape))
                               for n, p in ng.build(graph, 0).params.items()})
    x = Tensor(rng.standard_normal((2, 1, 8, 8)))
    cond = Tensor(rng.standard_normal((1, 1, 8, 8)))
    states = {}
    out = teacher.forward(x, 0.3, cond, states=states)
    assert np.array_equal(out.data, teacher.forward(x, 0.3, cond).data)
    assert list(states) == graph.block_ids()
    replacements = set()
    for block_id in graph.block_ids():
        ablated_graph = ng.ablate(graph, block_id)
        model = ng.Model(ablated_graph, {n: teacher.params.get(n, p) for n, p in
                                         ng.init_params(ablated_graph, 0).items()})
        resumed = model.resume(states[block_id], block_id)
        assert np.array_equal(resumed.data, model.forward(x, 0.3, cond).data), block_id
        replacements.add(ablated_graph.find_block(block_id).replacement)
    assert replacements == {ng.IDENTITY, ng.SHORTCUT_CONV}
    with pytest.raises(UnknownBlockError):
        teacher.resume(states["D.0.R.0.S"], "D.9.R.0.S")
