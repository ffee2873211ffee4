import json
from dataclasses import replace

import numpy as np
import pytest

from vdmini import netgraph as ng
from vdmini.errors import GraphError, ShapeError, UnknownBlockError
from vdmini.tensor import Tensor

from ablated import ablated_model

SMALL_WIDTHS = (4, 6, 8)


def small_graph():
    return ng.make_unet_graph(ng.ORIGIN_LAYER_COUNTS, SMALL_WIDTHS, emb_dim=8)


def test_origin_shaped_graph_validates_and_builds():
    graph = ng.toy_teacher_graph()
    model = ng.build(graph, 0)
    x = Tensor(np.random.default_rng(0).standard_normal((2, 1, 16, 16)))
    out = model.forward(x, 0.0)
    assert out.shape == x.shape


def _runs(graph, seed=0, ablated=None):
    """Whether a model of `graph`, with block `ablated` ablated if given,
    maps a 2-frame 8x8 video with a condition to an output of the video's
    shape."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((2, 1, 8, 8)))
    cond = Tensor(rng.standard_normal((1, 1, 8, 8)))
    model = ng.build(graph, seed)
    if ablated is not None:
        model = ablated_model(model, ablated)
    return model.forward(x, 0.3, cond).shape == x.shape


def test_empty_mid_stage_validates():
    counts = dict(ng.ORIGIN_LAYER_COUNTS, M=0)
    graph = ng.make_unet_graph(counts, SMALL_WIDTHS, emb_dim=8)
    assert graph.stage("M").blocks == ()
    assert _runs(graph)


@pytest.mark.parametrize("seed", range(24))
def test_every_layer_count_table_builds_and_runs(seed):
    # the graph is derived from its layer counts, so any table of 0 to 3
    # layers per stage gives channels that agree along the whole walk
    counts = dict(zip(ng.STAGE_IDS, np.random.default_rng(seed).integers(0, 4, 9).tolist()))
    graph = ng.make_unet_graph(counts, (2, 3, 4), emb_dim=4)
    assert _runs(graph, seed)
    if seed == 0:
        for block_id in graph.block_ids():
            assert _runs(graph, ablated=block_id), block_id


def test_ablate_channel_matched_block_becomes_identity():
    block = ng.ablate(small_graph(), "D.0.R.0.S")
    assert block.replacement == ng.IDENTITY
    assert block.in_channels == block.out_channels


def test_ablate_channel_mismatched_block_becomes_shortcut_conv():
    block = ng.ablate(small_graph(), "U.0.R.0.S")
    assert block.replacement == ng.SHORTCUT_CONV
    assert block.in_channels != block.out_channels


def test_ablate_every_block_still_validates():
    # an ablation is its block with a replacement, and nothing else changes
    graph = small_graph()
    for b in (b for s in graph.stages for b in s.blocks):
        spec = ng.ablate(graph, b.block_id)
        assert spec.replacement in (ng.IDENTITY, ng.SHORTCUT_CONV)
        assert replace(spec, replacement=None) == b, b.block_id


def test_ablate_unknown_block_is_rejected():
    with pytest.raises(UnknownBlockError):
        ng.ablate(small_graph(), "D.9.R.0.S")


def test_stem_conv_hand_count():
    # 3x3 conv, 4 input channels (1 latent + 3 condition), 8 output, bias
    graph = ng.make_unet_graph(ng.ORIGIN_LAYER_COUNTS, (8, 8, 8),
                               latent_channels=1, cond_channels=3, emb_dim=8)
    per_owner, _ = ng.count_params(graph)
    assert per_owner["stem"] == 4 * 8 * 9 + 8 == 296


def test_shortcut_conv_param_count_formula():
    block = ng.ablate(small_graph(), "U.0.R.0.S")
    specs = ng.shortcut_params(block)
    assert {p.owner for p in specs} == {"U.0.R.0.S"}
    assert sum(int(np.prod(p.shape)) for p in specs) == \
        block.in_channels * block.out_channels + block.out_channels


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


def test_forward_keeps_stacked_videos_apart():
    graph = small_graph()
    rng = np.random.default_rng(5)
    model = ng.Model(graph, {n: Tensor(p.data + 0.3 * rng.standard_normal(p.shape))
                             for n, p in ng.build(graph, 0).params.items()})
    # each frame's convolution GEMMs are its own (see diffusion.sample_set)
    xs = [rng.standard_normal((2, 1, 16, 16)) for _ in range(2)]
    stacked = Tensor(np.concatenate(xs))
    for frames in (1, 2):  # a first-frame condition, or one per frame
        conds = [rng.standard_normal((frames, 1, 16, 16)) for _ in xs]
        out = model.forward(stacked, 0.4, Tensor(np.concatenate(conds)), videos=2)
        alone = [model.forward(Tensor(x), 0.4, Tensor(c)).data for x, c in zip(xs, conds)]
        assert np.array_equal(out.data, np.concatenate(alone)), frames
    out = model.forward(stacked, 0.4, videos=2)
    assert np.array_equal(out.data, np.concatenate([model.forward(Tensor(x), 0.4).data
                                                    for x in xs]))
    # one noise level per video: one embedding row each, whose (V, e) GEMMs
    # round apart from a (1, e) one's in the last bits
    levels = [0.4, -1.3]
    out = model.forward(stacked, levels, videos=2)
    alone = np.concatenate([model.forward(Tensor(x), c).data for x, c in zip(xs, levels)])
    np.testing.assert_allclose(out.data, alone, rtol=1e-12, atol=1e-12)
    assert not np.allclose(out.data, model.forward(stacked, 0.4, videos=2).data)
    with pytest.raises(ShapeError, match="videos"):
        model.forward(stacked, 0.4, videos=3)
    with pytest.raises(ShapeError, match="noise levels"):
        model.forward(stacked, [0.4, 0.4, 0.4], videos=2)
    with pytest.raises(ShapeError, match="condition"):
        model.forward(stacked, 0.4, Tensor(np.zeros((6, 1, 16, 16))), videos=2)


def test_graph_json_round_trip():
    graph = ng.make_unet_graph({**ng.ORIGIN_LAYER_COUNTS, "M": 1, "U.0": 0}, SMALL_WIDTHS,
                               cond_channels=3, emb_dim=8)
    doc = ng.graph_to_json(graph)
    back = ng.graph_from_json(doc)
    assert ng.graph_to_json(back) == doc
    assert back == graph
    # an older file's empty "replaced" map is ignored, like any other extra key
    assert ng.graph_from_json(_edited(doc, "replaced", {})) == graph


def _edited(doc: str, key: str, value) -> str:
    return json.dumps({**json.loads(doc), key: value})


@pytest.mark.parametrize("key, value, match", [
    ("layer_counts", {**ng.ORIGIN_LAYER_COUNTS, "D.4": 1}, "layer_counts"),
    ("layer_counts", {**ng.ORIGIN_LAYER_COUNTS, "D.0": -1}, "layer_counts"),
    ("layer_counts", {**ng.ORIGIN_LAYER_COUNTS, "D.0": 1.0}, "layer_counts"),
    ("layer_counts", {**ng.ORIGIN_LAYER_COUNTS, "D.0": True}, "layer_counts"),
    ("layer_counts", {"D.0": 1}, "layer_counts"),
    ("widths", [4, 6], "widths"),
    ("widths", [4, 0, 8], "widths"),
    ("widths", [4, 6, "8"], "widths"),
    ("emb_dim", 0, "channel counts"),
    ("emb_dim", 5, "emb_dim"),
    ("layer_counts", None, "layer_counts"),
    (None, None, "not a graph document"),
])
def test_graph_from_json_rejects_what_no_graph_gives(key, value, match):
    doc = ng.graph_to_json(small_graph())
    text = "[]" if key is None else _edited(doc, key, value)
    with pytest.raises(GraphError, match=match):
        ng.graph_from_json(text)


def test_resume_from_recorded_state_matches_whole_forward():
    # the teacher's state entering a block is the ablated model's too, so
    # resuming there must give the ablated model's whole forward, bit for bit
    graph = small_graph()
    rng = np.random.default_rng(4)
    teacher = ng.Model(graph, {n: Tensor(p.data + 0.3 * rng.standard_normal(p.shape))
                               for n, p in ng.build(graph, 0).params.items()})
    x = Tensor(rng.standard_normal((2, 1, 8, 8)))
    cond = Tensor(rng.standard_normal((1, 1, 8, 8)))
    states, features = {}, {}
    out = teacher.forward(x, 0.3, cond, features=features, states=states)
    assert np.array_equal(out.data, teacher.forward(x, 0.3, cond).data)
    assert list(states) == graph.block_ids()
    assert list(features) == [f"{k}.{i}" for k in "DU" for i in range(4)]
    replacements = set()
    for block_id in graph.block_ids():
        ablated = ablated_model(teacher, block_id)
        spec = ng.ablate(graph, block_id)
        resumed = ng.Model(graph, ablated.params).resume(states, [spec])
        whole = ablated.forward(x, 0.3, cond)
        assert np.array_equal(resumed.data, whole.data), block_id
        replacements.add(spec.replacement)
    assert replacements == {ng.IDENTITY, ng.SHORTCUT_CONV}
    unknown = replace(graph.find_block("D.0.R.0.S"), block_id="D.9.R.0.S",
                      replacement=ng.IDENTITY)
    with pytest.raises(UnknownBlockError):
        teacher.resume(states, [unknown])
