import math
import threading
import time

import numpy as np
import pytest

from vdmini import diffusion as df
from vdmini import icmd
from vdmini import netgraph as ng
from vdmini import pruner as pr
from vdmini import synthdata as sd
from vdmini.diffusion import NoiseSchedule
from vdmini import tensor as T
from vdmini.errors import NonFiniteError, ShapeError, VdminiError
from vdmini.optim import Adam, named_grads
from vdmini.tensor import Tape, Tensor, backward

from defaults import configured
from gradcheck import backward_matching_reference

SMALL_WIDTHS = (4, 6, 8)


def _models():
    graph = ng.make_unet_graph(ng.ORIGIN_LAYER_COUNTS, SMALL_WIDTHS, emb_dim=8)
    teacher = ng.build(graph, 1)
    student = pr.apply_plan(teacher, pr.plan_vdmini(graph))
    return teacher, student


def _batch(n=2, frames=2):
    return sd.gen_dataset(n, 4, frames=frames).tensors()


class _FixedNormal:
    """Stub rng whose standard_normal always returns a fixed value."""

    def __init__(self, value=0.0):
        self.value = value

    def standard_normal(self, *shape):
        return self.value if not shape else np.full(shape[0], self.value)


# ---------------------------------------------------------------------------
# feature alignment and the distillation loss
# ---------------------------------------------------------------------------

def test_icd_identical_features_is_zero():
    f = {"a": Tensor(np.ones((2, 3))), "b": Tensor(np.zeros(4))}
    assert icmd.icd_loss(f, dict(f)).item() == 0.0


def test_icd_constant_one_difference_two_layers():
    t = {"a": Tensor(np.zeros((2, 3))), "b": Tensor(np.zeros(5))}
    s = {"a": Tensor(np.ones((2, 3))), "b": Tensor(np.ones(5))}
    assert icmd.icd_loss(t, s).item() == pytest.approx(2.0)


def test_icd_is_quadratic_per_layer():
    t = {"a": Tensor(np.zeros(4)), "b": Tensor(np.zeros(4))}
    s1 = {"a": Tensor(np.ones(4)), "b": Tensor(np.zeros(4))}
    s2 = {"a": Tensor(2.0 * np.ones(4)), "b": Tensor(np.zeros(4))}
    l1 = icmd.icd_loss(t, s1).item()
    l2 = icmd.icd_loss(t, s2).item()
    assert l2 == pytest.approx(4.0 * l1)


def test_icd_no_shared_layers_errors():
    with pytest.raises(VdminiError, match="no aligned feature layers"):
        icmd.icd_loss({"a": Tensor(np.zeros(2))}, {"b": Tensor(np.zeros(2))})


def test_align_shape_mismatch_names_the_layer():
    t = {"D.2": Tensor(np.zeros((2, 3)))}
    s = {"D.2": Tensor(np.zeros((2, 4)))}
    with pytest.raises(ShapeError, match="D.2"):
        icmd.align_features(t, s)


def test_align_unpruned_models_share_all_boundaries():
    graph = ng.make_unet_graph(ng.ORIGIN_LAYER_COUNTS, SMALL_WIDTHS, emb_dim=8)
    teacher = ng.build(graph, 1)
    clone = ng.Model(graph, dict(teacher.params))
    x = Tensor(np.zeros((2, 1, 16, 16)))
    ft, fs = {}, {}
    teacher.forward(x, 0.1, features=ft)
    clone.forward(x, 0.1, features=fs)
    pairs = icmd.align_features(ft, fs)
    assert len(pairs) == len(ft)
    for _, t, s in pairs:
        assert np.array_equal(t.data, s.data)


def test_align_pruned_student_keeps_eight_boundaries():
    teacher, student = _models()
    x = Tensor(np.zeros((2, 1, 16, 16)))
    ft, fs = {}, {}
    teacher.forward(x, 0.1, features=ft)
    student.forward(x, 0.1, features=fs)
    pairs = icmd.align_features(ft, fs)
    assert len(pairs) == 8
    assert [k for k, _, _ in pairs] == ["D.0", "D.1", "D.2", "D.3",
                                        "U.0", "U.1", "U.2", "U.3"]
    for _, t, s in pairs:
        assert t.shape == s.shape


# ---------------------------------------------------------------------------
# instance noise
# ---------------------------------------------------------------------------

def test_instance_noise_at_the_mean():
    sigma = icmd.sample_instance_noise(_FixedNormal(0.0))
    assert sigma == pytest.approx(math.exp(0.7), rel=1e-9)
    assert sigma == pytest.approx(2.013753, abs=1e-6)
    assert len(icmd._INST_BINS) == 999
    assert sigma == icmd._INST_BINS[499]  # the exact middle of 999 log-spaced bins


def test_instance_noise_range_and_log_mean():
    rng = np.random.default_rng(0)
    sigmas = [icmd.sample_instance_noise(rng) for _ in range(10 ** 5)]
    assert set(sigmas) <= set(icmd._INST_BINS.tolist())  # every level is one of the bins
    assert abs(np.mean(np.log(sigmas)) - 0.7) < 0.02


# ---------------------------------------------------------------------------
# adversarial losses
# ---------------------------------------------------------------------------

def test_gen_loss_values():
    assert icmd.mca_gen_loss(Tensor(0.0)).item() == pytest.approx(math.log(2.0))
    assert icmd.mca_gen_loss(Tensor(30.0)).item() < 1e-12
    big = icmd.mca_gen_loss(Tensor(-30.0)).item()
    assert big == pytest.approx(30.0, abs=1e-9)


def test_disc_loss_values():
    def loss(fake, real):
        return icmd.mca_disc_loss(Tensor([fake, real])).item()
    assert loss(-1.0, 1.0) == 0.0
    assert loss(0.0, 0.0) == pytest.approx(2.0)
    assert loss(2.0, -2.0) == pytest.approx(6.0)
    assert loss(-5.0, 7.0) == 0.0
    # two pairs, fakes first: the mean of the pairs' losses
    assert icmd.mca_disc_loss(Tensor([0.0, 2.0, 0.0, -2.0])).item() == pytest.approx(4.0)
    assert icmd.mca_gen_loss(Tensor([0.0, 30.0])).item() == pytest.approx(math.log(2.0) / 2)


# ---------------------------------------------------------------------------
# the discriminator
# ---------------------------------------------------------------------------

def test_discriminator_initial_logit_is_zero():
    disc = icmd.Discriminator(seed=3)
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((3, 1, 16, 16)))
    assert disc.forward(x, sigma=1.0).item() == 0.0


def test_discriminator_rejects_bad_shape():
    disc = icmd.Discriminator()
    with pytest.raises(ShapeError):
        disc.forward(Tensor(np.zeros((2, 3, 16, 16))), sigma=1.0)


def _trained_disc():
    # nudge the zero-initialized output layers so logits are informative
    disc = icmd.Discriminator(seed=3)
    rng = np.random.default_rng(1)
    for name in ("spatio.out.w", "temporal.out.w"):
        disc.params[name] = Tensor(rng.standard_normal(disc.params[name].shape) * 0.1,
                                   requires_grad=True)
    return disc


def test_discriminator_temporal_head_sees_frame_order():
    disc = _trained_disc()
    video = sd.gen_dataset(1, 2, frames=6, speeds=(3,)).tensors()[0]
    shuffled = Tensor(video.data[[3, 1, 5, 0, 2, 4]])
    a = disc.forward(video, sigma=1.0).item()
    b = disc.forward(shuffled, sigma=1.0).item()
    assert a != b


def test_discriminator_static_video_is_order_invariant():
    disc = _trained_disc()
    frame = np.random.default_rng(2).standard_normal((1, 1, 16, 16))
    static = Tensor(np.repeat(frame, 6, axis=0))
    rolled = Tensor(np.roll(static.data, 2, axis=0))
    assert disc.forward(static, 1.0).item() == disc.forward(rolled, 1.0).item()


def test_discriminator_conditions_on_sigma():
    disc = _trained_disc()
    x = Tensor(np.random.default_rng(3).standard_normal((2, 1, 16, 16)))
    assert disc.forward(x, 0.1).item() != disc.forward(x, 10.0).item()


def test_discriminator_scores_stacked_videos_apart():
    disc = _trained_disc()
    videos = [sd.gen_dataset(1, seed, frames=4, speeds=(3,)).tensors()[0] for seed in (1, 2, 3)]
    sigmas = [0.1, 10.0, 1.0]
    logits = disc.forward(Tensor(np.concatenate([v.data for v in videos])), sigmas)
    assert logits.shape == (3,)
    alone = [disc.forward(v, s).item() for v, s in zip(videos, sigmas)]
    np.testing.assert_allclose(logits.data, alone, rtol=1e-12, atol=1e-15)
    with pytest.raises(ShapeError):
        disc.forward(Tensor(np.zeros((4, 1, 16, 16))), sigmas)


# ---------------------------------------------------------------------------
# the alternating distillation step
# ---------------------------------------------------------------------------

def _state(weights=configured(icmd.LossWeights, "distill")):
    teacher, student = _models()
    return icmd.DistillState(student, teacher, icmd.Discriminator(seed=2), weights,
                             configured(NoiseSchedule, "schedule"), Adam(1e-4), Adam(1e-5))


def test_distill_step_zero_weights_total_equals_task():
    state = _state(weights=configured(icmd.LossWeights, "distill", lambda_icd=0.0, lambda_mca=0.0))
    out = icmd.distill_step(state, _batch(), np.random.default_rng(0))
    assert out["total"] == out["task"]
    assert out["step"] == 1


def test_distill_step_warmup_gates_adversarial_terms():
    state = _state(weights=configured(icmd.LossWeights, "distill", mca_warmup_steps=3))
    disc_before = {n: p.data.copy() for n, p in state.disc.params.items()}
    out = icmd.distill_step(state, _batch(), np.random.default_rng(0))
    assert out["mca_gen"] == 0.0 and out["mca_disc"] == 0.0
    for n, p in state.disc.params.items():
        assert np.array_equal(p.data, disc_before[n])


def test_distill_step_past_warmup_engages_adversary():
    state = _state(weights=configured(icmd.LossWeights, "distill", mca_warmup_steps=0))
    out = icmd.distill_step(state, _batch(), np.random.default_rng(0))
    # the hinge is scored against the zero-initialized critic, exactly 2;
    # the generator term follows one tiny critic update, so it is near ln 2
    assert out["mca_disc"] == pytest.approx(2.0, abs=1e-12)
    assert out["mca_gen"] == pytest.approx(math.log(2.0), abs=1e-3)


def test_distill_step_breakdown_identity():
    state = _state()
    out = icmd.distill_step(state, _batch(), np.random.default_rng(1))
    expect = out["task"] + 0.1 * out["icd"] + 1.0 * (out["mca_gen"] + out["mca_disc"])
    assert out["total"] == pytest.approx(expect, rel=0.0, abs=0.0)


def test_distill_step_teacher_frozen():
    state = _state()
    before = state.teacher.param_checksum()
    for i in range(2):
        icmd.distill_step(state, _batch(), np.random.default_rng(i))
    assert state.teacher.param_checksum() == before


def test_distill_step_moves_student_and_disc():
    state = _state()
    s_before = state.student.param_checksum()
    d_before = {n: p.data.copy() for n, p in state.disc.params.items()}
    icmd.distill_step(state, _batch(), np.random.default_rng(0))
    assert state.student.param_checksum() != s_before
    assert any(not np.array_equal(p.data, d_before[n])
               for n, p in state.disc.params.items())


def test_distill_step_nonfinite_names_term():
    state = _state(weights=configured(icmd.LossWeights, "distill", mca_warmup_steps=10))
    name = next(iter(state.student.params))
    bad = state.student.params[name].data.copy()
    bad.flat[0] = np.nan
    state.student.params[name] = Tensor(bad, requires_grad=True)
    with pytest.raises(NonFiniteError, match="task|icd"):
        icmd.distill_step(state, _batch(), np.random.default_rng(0))


def test_distill_step_rejects_mutated_teacher():
    state = _state()
    name = next(iter(state.teacher.params))
    state.teacher.params[name] = Tensor(state.teacher.params[name].data + 1.0,
                                        requires_grad=True)
    with pytest.raises(VdminiError, match="teacher parameters changed"):
        icmd.distill_step(state, _batch(), np.random.default_rng(0))


def test_distill_step_rejects_a_teacher_array_replaced_in_place():
    state = _state()
    icmd.distill_step(state, _batch(), np.random.default_rng(0))
    p = next(iter(state.teacher.params.values()))
    p.data = p.data.copy()  # the same values in another array
    with pytest.raises(VdminiError, match="teacher parameters changed"):
        icmd.distill_step(state, _batch(), np.random.default_rng(1))


def test_distill_step_empty_batch():
    state = _state()
    with pytest.raises(VdminiError, match="empty batch"):
        icmd.distill_step(state, [], np.random.default_rng(0))


def _per_video_step(state, batch, rng):
    """The distill step one video at a time, in its earlier order: an
    untaped student forward per video for the critic's fakes, the critic
    update over each pair's logits, then a second, taped student forward
    per video, with the task loss weighted video by video."""
    sigma_data = state.schedule.sigma_data
    sigmas = [df.sample_sigma(state.schedule, rng) for _ in batch]
    epss = [rng.standard_normal(x0.shape) for x0 in batch]
    inst = [icmd.sample_instance_noise(rng) for _ in batch]
    inst_eps = [rng.standard_normal(x0.shape) for x0 in batch]
    x_ts = [Tensor(x0.data + s * e) for x0, s, e in zip(batch, sigmas, epss)]
    fakes = [df.denoise(state.student, x_t, s, None, sigma_data).data
             for x_t, s in zip(x_ts, sigmas)]
    with Tape() as tape:
        loss_d = None
        for x0, fake, s_i, e_i in zip(batch, fakes, inst, inst_eps):
            term = icmd.mca_disc_loss(T.concat([
                state.disc.forward(Tensor(fake + s_i * e_i), s_i),
                state.disc.forward(Tensor(x0.data + s_i * e_i), s_i)]))
            loss_d = term if loss_d is None else T.add(loss_d, term)
        loss_d = T.mul_scalar(loss_d, 1.0 / len(batch))
    state.disc.params = state.opt_disc.step(
        state.disc.params, named_grads(state.disc.params, backward(tape, loss_d)))
    with Tape() as tape:
        task = icd = gen = None
        for x0, s, x_t, s_i, e_i in zip(batch, sigmas, x_ts, inst, inst_eps):
            feats_t = icmd._teacher_features(state.teacher, x_t, [s], None, sigma_data)
            feats_s = {}
            d_s = df.denoise(state.student, x_t, s, None, sigma_data, features=feats_s)
            weight = (s ** 2 + sigma_data ** 2) / (s * sigma_data) ** 2
            t_term = T.mul_scalar(T.mse(d_s, x0), weight * x0.size)
            i_term = icmd.icd_loss(feats_t, feats_s)
            g_term = icmd.mca_gen_loss(state.disc.forward(T.add(d_s, Tensor(s_i * e_i)), s_i))
            task = t_term if task is None else T.add(task, t_term)
            icd = i_term if icd is None else T.add(icd, i_term)
            gen = g_term if gen is None else T.add(gen, g_term)
        task, icd, gen = (T.mul_scalar(v, 1.0 / len(batch)) for v in (task, icd, gen))
        total = T.add(T.add(task, T.mul_scalar(icd, state.weights.lambda_icd)),
                      T.mul_scalar(gen, state.weights.lambda_mca))
    state.student.params = state.opt_student.step(
        state.student.params, named_grads(state.student.params, backward(tape, total)))
    state.step += 1
    return {"task": task.item(), "icd": icd.item(), "mca_gen": gen.item(),
            "mca_disc": loss_d.item()}


@pytest.mark.parametrize("n_parts", [1, 2])
def test_distill_step_runs_each_network_once_per_part_and_matches_per_video_forwards(
        monkeypatch, n_parts):
    if n_parts == 2:  # the tiny shapes run as two parts
        monkeypatch.setattr(df, "_PART_BYTES", 0)
    state, ref = _state(), _state()
    calls = []

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls.append((name, T.Tape.current() is not None, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapped

    state.student.forward = counted("student", state.student.forward)
    state.disc.forward = counted("critic", state.disc.forward)
    monkeypatch.setattr(icmd, "_teacher_features",
                        counted("teacher", icmd._teacher_features))
    monkeypatch.setattr(icmd, "icd_loss", counted("icd", icmd.icd_loss))
    check_teacher_frozen = icmd.check_teacher_frozen

    def frozen(st):
        calls.append(("frozen", rng.bit_generator.state))
        check_teacher_frozen(st)

    monkeypatch.setattr(icmd, "check_teacher_frozen", frozen)
    main, threads = threading.get_ident(), threading.active_count()
    for step in range(2):
        batch = _batch(n=3)
        calls.clear()
        rng = np.random.default_rng(step)
        fresh = rng.bit_generator.state
        out = icmd.distill_step(state, batch, rng)
        assert threading.active_count() == threads  # no part thread outlives the step
        # the teacher check comes before any draw
        assert calls[0] == ("frozen", fresh)
        # per part, on its own thread (part 0 on the main thread): the
        # teacher untaped, then the student and the feature term on the
        # part's tape; then on the main thread the critic's update on its own
        # tape, and one generator term per part, on that part's tape
        forwards = [c for c in calls[1:] if c[0] != "critic"]
        per_thread = {}
        for name, taped, ident in forwards:
            per_thread.setdefault(ident, []).append((name, taped))
        assert len(per_thread) == n_parts and main in per_thread
        assert all(seq == [("teacher", False), ("student", True), ("icd", True)]
                   for seq in per_thread.values())
        names = [c[0] for c in calls]  # every feature term is recorded before the critic steps
        assert max(i for i, name in enumerate(names) if name == "icd") < names.index("critic")
        assert [c for c in calls if c[0] == "critic"] == [("critic", True, main)] * (1 + n_parts)
        want = _per_video_step(ref, batch, np.random.default_rng(step))
        for key, value in want.items():
            assert out[key] == pytest.approx(value, rel=1e-9), key
        for model_params, ref_params in ((state.student.params, ref.student.params),
                                         (state.disc.params, ref.disc.params)):
            assert model_params.keys() == ref_params.keys()
            for name in model_params:
                np.testing.assert_allclose(model_params[name].data, ref_params[name].data,
                                           rtol=1e-9, atol=1e-12, err_msg=name)


def _run_steps(n_steps):
    state, batch = _state(), _batch()
    outs = [icmd.distill_step(state, batch, np.random.default_rng(step))
            for step in range(n_steps)]
    return outs, state


def _on_a_part_thread() -> bool:
    return threading.current_thread() is not threading.main_thread()


def test_a_teacher_that_finishes_last_changes_no_bit_of_the_steps(monkeypatch):
    monkeypatch.setattr(df, "_PART_BYTES", 0)  # two parts at the tiny shapes
    ref_outs, ref = _run_steps(3)
    teacher_features = icmd._teacher_features

    def slow(*args):
        if _on_a_part_thread():
            time.sleep(0.05)  # outlasts part 0's teacher and student forwards
        return teacher_features(*args)

    monkeypatch.setattr(icmd, "_teacher_features", slow)
    outs, state = _run_steps(3)
    assert all(out["mca_disc"] > 0.0 for out in outs)  # the critic trains each step
    assert outs == ref_outs
    for model_params, ref_params in ((state.student.params, ref.student.params),
                                     (state.disc.params, ref.disc.params)):
        assert model_params.keys() == ref_params.keys()
        for name in model_params:
            assert np.array_equal(model_params[name].data, ref_params[name].data), name


def test_distill_steps_backward_matches_the_serial_reference_bitwise(monkeypatch):
    state, batch = _state(), _batch()
    reached = []  # per backward: (every student parameter, every critic parameter)

    def checked(tape, root):
        grads = backward_matching_reference(tape, root)
        reached.append(tuple(all(p in grads for p in params.values())
                             for params in (state.student.params, state.disc.params)))
        return grads

    monkeypatch.setattr(icmd, "backward", checked)
    outs = [icmd.distill_step(state, batch, np.random.default_rng(step)) for step in range(2)]
    monkeypatch.setattr(df, "_PART_BYTES", 0)  # then two parts, walked side by side
    outs += [icmd.distill_step(state, batch, np.random.default_rng(step)) for step in range(2)]
    assert all(out["mca_disc"] > 0.0 for out in outs)  # MCA is on in every step
    # each step: the critic's own update, then the student's, which reaches the critic too
    assert reached == [(False, True), (True, True)] * 4


def test_a_teacher_error_is_raised_once_both_threads_have_stopped(monkeypatch):
    monkeypatch.setattr(df, "_PART_BYTES", 0)  # two parts at the tiny shapes
    teacher_features = icmd._teacher_features

    def broken(*args):
        if _on_a_part_thread():
            raise ShapeError("teacher input")
        return teacher_features(*args)

    monkeypatch.setattr(icmd, "_teacher_features", broken)
    state = _state()
    student_params, disc_params = dict(state.student.params), dict(state.disc.params)
    threads = threading.active_count()
    with pytest.raises(ShapeError, match="teacher input"):
        icmd.distill_step(state, _batch(), np.random.default_rng(0))
    assert threading.active_count() == threads
    assert state.step == 0
    # neither the critic nor the student has stepped
    for params, before in ((state.student.params, student_params),
                           (state.disc.params, disc_params)):
        assert params.keys() == before.keys()
        assert all(params[n] is p for n, p in before.items())


def test_a_two_part_distill_step_keeps_the_draws_losses_and_gradients_of_the_stacked_step(
        monkeypatch):
    graph = ng.toy_teacher_graph()  # the default widths, with 8-frame videos
    teacher = ng.build(graph, 1)
    prng = np.random.default_rng(9)  # residual branches start at zero: open them
    teacher.params = {n: Tensor(p.data + 0.05 * prng.standard_normal(p.shape), requires_grad=True)
                      for n, p in teacher.params.items()}
    batch = _batch(n=2, frames=8)
    conds = [sd.first_frame_condition(v) for v in batch]
    seen = []  # per backward: the grads, by parameter name

    def state():
        student = pr.apply_plan(teacher, pr.plan_vdmini(graph))
        st = icmd.DistillState(student, teacher, icmd.Discriminator(seed=2),
                               configured(icmd.LossWeights, "distill"),
                               configured(NoiseSchedule, "schedule"), Adam(1e-4), Adam(1e-5))

        def kept(tape, root):
            params = st.disc.params if len(seen) % 2 == 0 else st.student.params
            seen.append(named_grads(params, backward(tape, root)))
            return {}  # leave both models as they were: only the first step counts

        return st, kept

    stacked, kept = state()
    assert len(df.video_parts(stacked.student, batch)) == 2
    monkeypatch.setattr(icmd, "backward", kept)
    monkeypatch.setattr(df, "_PART_BYTES", 1 << 62)  # the whole batch as one part
    want = icmd.distill_step(stacked, batch, np.random.default_rng(6), conds)
    monkeypatch.undo()
    parted, kept = state()
    monkeypatch.setattr(icmd, "backward", kept)
    rng = np.random.default_rng(6)
    got = icmd.distill_step(parted, batch, rng, conds)
    replay = np.random.default_rng(6)
    for _ in batch:  # each video's sigma, then each one's noise, then the critic's
        df.sample_sigma(parted.schedule, replay)
    for x in batch:
        replay.standard_normal(x.shape)
    for _ in batch:
        icmd.sample_instance_noise(replay)
    for x in batch:
        replay.standard_normal(x.shape)
    assert rng.bit_generator.state == replay.bit_generator.state
    assert got["mca_disc"] > 0.0 and got.keys() == want.keys()
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-12), key
    assert len(seen) == 4  # the critic's backward, then the student's, per step
    for got_grads, want_grads in ((seen[2], seen[0]), (seen[3], seen[1])):
        assert got_grads.keys() == want_grads.keys()
        for name, g in want_grads.items():
            scale = float(np.abs(g.data).max())
            assert float(np.abs(got_grads[name].data - g.data).max()) <= 1e-12 * scale, name


def test_a_distill_step_runs_every_op_kind_but_sum(monkeypatch):
    # `sum` stays for callers outside the pipeline; any other op kind that
    # one distill step does not run is dead code
    seen = set()
    record = T._record

    def recording(op, *args):
        seen.add(op)
        return record(op, *args)

    monkeypatch.setattr(T, "_record", recording)
    batch = sd.gen_dataset(2, 4, height=8, width=8, frames=2).tensors()
    icmd.distill_step(_state(), batch, np.random.default_rng(0))
    assert seen == set(T.op_kinds()) - {"sum"}
