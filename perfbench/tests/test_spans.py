"""Self-time arithmetic, per-unit metrics, instrumentation, BENCHMARK.json."""

import json
from pathlib import Path

import numpy as np

import spans
from vdmini import tensor as T

ROOT = Path(__file__).resolve().parent.parent.parent


def _tree():
    # key, start, end, parent, phase, tag
    return [["root", 0.0, 10.0, -1, "loop", None],
            ["a", 1.0, 4.0, 0, "loop", None],
            ["a.child", 2.0, 3.0, 1, "loop", None],
            ["b", 3.0, 6.0, 0, "loop", None],     # overlaps a: union 1..6
            ["c", 9.0, 12.0, 0, "loop", None]]    # clipped to the parent's end


def test_self_time_subtracts_the_union_of_children():
    tree = _tree()
    kids = spans.children_index(tree)
    assert [spans.self_time(tree, kids, i) for i in range(len(tree))] == [
        10.0 - 5.0 - 1.0, 2.0, 1.0, 3.0, 3.0]


def test_reference_time_is_taken_out_of_enclosing_spans():
    tracer = spans.Tracer()
    tracer.spans = [["cli.profile_s", 0.0, 10.0, -1, "loop", None],
                    ["pruner.profile_importance_s", 1.0, 9.0, 0, "loop", None],
                    [spans.REFERENCE, 2.0, 2.5, 1, "loop", None],
                    [spans.REFERENCE, 9.5, 10.0, 0, "loop", None]]
    m = spans.layer_metrics(tracer, units=1)
    assert m["cli.profile_s"]["value"] == 9.0
    assert m["pruner.profile_importance_s"]["value"] == 7.5


def test_layer_metrics_per_unit_and_per_setup():
    tracer = spans.Tracer()
    tracer.spans = [["pruner.apply_plan_ms", 0.0, 0.030, -1, "setup", None],
                    ["diffusion.sample_ms", 1.0, 1.5, -1, "loop", None],
                    ["tensor.conv2d.fwd_ms", 1.1, 1.2, 1, "loop", None],
                    ["diffusion.sample_ms", 2.0, 2.5, -1, "loop", None]]
    tracer.counters[("loop", "evalkit.videos_embedded")] = 6.0
    m = spans.layer_metrics(tracer, units=2)
    assert np.isclose(m["diffusion.sample_ms"]["value"], 500.0)
    assert np.isclose(m["tensor.conv2d.fwd_ms"]["value"], 50.0)
    assert m["pruner.apply_plan_ms"]["value"] == 0.0
    assert np.isclose(m["setup.pruner.apply_plan_ms"]["value"], 30.0)
    assert m["evalkit.videos_embedded"]["value"] == 3.0
    assert m["icmd.distill_step_ms"]["value"] == 0.0


def test_instrument_records_forward_and_vjp_then_restores():
    orig_conv, orig_backward = T.conv2d, T.backward
    tracer = spans.Tracer()
    patcher = spans.instrument(tracer)
    try:
        x = T.Tensor(np.ones((1, 2, 4, 4)), requires_grad=True)
        w = T.Tensor(np.ones((3, 2, 3, 3)), requires_grad=True)
        with T.Tape() as tape:
            loss = T.sum_all(T.conv2d(x, w, pad=1))
        grads = T.backward(tape, loss)
    finally:
        patcher.restore()
    assert T.conv2d is orig_conv and T.backward is orig_backward
    keys = [s[0] for s in tracer.spans]
    assert keys.count("tensor.conv2d.fwd_ms") == 1
    assert keys.count("tensor.conv2d.vjp_ms") == 1
    vjp = keys.index("tensor.conv2d.vjp_ms")
    assert tracer.spans[tracer.spans[vjp][3]][0] == "tensor.backward_ms"
    assert tracer.counters[("setup", "tensor.tape_nodes")] == 2
    tracer.flush_grads()  # no optimizer consumed these
    unused = tracer.counters[("setup", "tensor.grads_unused_mb")]
    assert np.isclose(unused, sum(g.data.nbytes for g in grads.values()) / 2 ** 20)


def test_benchmark_json_names_every_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == spans.PER_LAYER
    assert [m["name"] for m in doc["end_to_end"]] == ["setup_s", "peak_rss_mb", "unit_vs_ref"]
