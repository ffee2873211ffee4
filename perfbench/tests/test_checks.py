"""Each output check passes on the program's answer and fails on a wrong one."""

import json
import types

import numpy as np
import pytest

import checks
import workloads
from vdmini import cli, evalkit, netgraph, synthdata
from vdmini import tensor as T


@pytest.fixture(scope="module")
def small_model(tmp_path_factory):
    d = tmp_path_factory.mktemp("small")
    cfg = cli.load_config(None, 0, str(d), environ={})
    cfg["model"] = {"widths": [4, 6, 8], "emb_dim": 8}
    graph = workloads.teacher_graph(cfg)
    ds = synthdata.gen_dataset(2, 0, frames=2)
    synthdata.save_dataset(ds, d / "train.vdds")
    model = netgraph.Model(graph, workloads.perturbed_teacher(graph, 0))
    return model, d / "train.vdds", cfg


def test_gradient_check_rejects_scaled_gradient(small_model):
    model, data, cfg = small_model
    analytic, numeric = workloads.directional_derivatives(model, data, cfg, seed=3)
    assert checks.check_directional_derivative(analytic, numeric) == []
    assert checks.check_directional_derivative(analytic * (1 + 1e-3), numeric)


def test_op_checks_pass_on_the_program():
    assert checks.check_ops(T, (3, 4, 6, 6), seed=1) == []


def test_op_checks_reject_flipped_conv_kernel():
    def flipped(x, w, b=None, stride=1, pad=0):
        return T.conv2d(x, T.Tensor(w.data[:, :, ::-1, ::-1]), b, stride=stride, pad=pad)
    fake = types.SimpleNamespace(**{**vars(T), "conv2d": flipped})
    problems = checks.check_ops(fake, (3, 4, 6, 6), seed=1)
    assert problems and all(p.startswith("conv2d") for p in problems)


def test_fvd_check_rejects_relative_error():
    rng = np.random.default_rng(0)
    fa, fb = rng.standard_normal((8, 64)), 0.5 + rng.standard_normal((8, 64))
    value = evalkit.frechet_distance(evalkit.fit_gaussian(fa), evalkit.fit_gaussian(fb))
    assert checks.check_fvd(value, fa, fb, evalkit._SHRINKAGE) == []
    assert checks.check_fvd(value * (1 + 1e-4), fa, fb, evalkit._SHRINKAGE)


def test_motion_reference_matches_program():
    video = np.random.default_rng(1).standard_normal((4, 1, 5, 5))
    assert checks.close("motion", evalkit.motion_dynamics_proxy(T.Tensor(video)),
                        checks.motion_ref(video), 1e-12) == []


def test_identical_artifacts_reject_one_flipped_byte(tmp_path):
    (tmp_path / "a.json").write_text(json.dumps({"x": 1}))
    (tmp_path / "b.vdmk").write_bytes(bytes(range(64)))
    reference = checks.digests(tmp_path)
    assert checks.check_identical(reference, tmp_path) == []
    blob = bytearray((tmp_path / "b.vdmk").read_bytes())
    blob[17] ^= 0x01
    (tmp_path / "b.vdmk").write_bytes(bytes(blob))
    assert checks.check_identical(reference, tmp_path) == [
        f"{tmp_path.name}/b.vdmk: bytes differ from the first round"]


def _distill_log(path, rows):
    lines = ["# config_hash=0123456789abcdef", "step,task,icd,mca_gen,mca_disc,total"]
    path.write_text("\n".join(lines + [",".join(r) for r in rows]) + "\n")


def test_distill_log_identity_and_initial_critic_loss(tmp_path):
    path = tmp_path / "distill_log.csv"
    good = [["0", "1.23457", "0.5", "0.693147", "2", "3.97772"],
            ["1", "0.9", "0.25", "0.7", "1.9", "3.525"]]
    _distill_log(path, good)
    assert checks.check_distill_log(path, 0.1, 1.0) == []
    _distill_log(path, [good[0], good[1][:5] + ["3.526"]])
    assert checks.check_distill_log(path, 0.1, 1.0)
    _distill_log(path, [["0", "1", "0", "0.693147", "1.5", "3.19315"]])
    assert checks.check_distill_log(path, 0.1, 1.0)
