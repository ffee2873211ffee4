"""Post-pruning distillation: feature matching plus a multi-frame adversary.

The student minimizes a denoising task loss, an intermediate-feature
distillation term against the frozen teacher, and a generator term from a
two-head video discriminator trained alternately with a hinge objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import diffusion, netgraph, tensor as T
from .diffusion import NoiseSchedule, Preconditioner
from .errors import NonFiniteError, ShapeError, VdminiError
from .netgraph import Model
from .optim import Adam, named_grads
from .tensor import Tape, Tensor, backward

STUDENT_LR = 1e-4
DISC_LR = 1e-5


@dataclass(frozen=True)
class LossWeights:
    lambda_icd: float = 0.1
    lambda_mca: float = 1.0
    mca_warmup_steps: int = 0


# ---------------------------------------------------------------------------
# instance noise on discriminator inputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InstanceNoiseParams:
    """Discretized lognormal noise injected into both discriminator branches."""
    p_mean: float = 0.7
    p_std: float = 1.6
    n_bins: int = 999

    def bins(self) -> np.ndarray:
        lo = math.exp(self.p_mean - 3.0 * self.p_std)
        hi = math.exp(self.p_mean + 3.0 * self.p_std)
        return np.geomspace(lo, hi, self.n_bins)


def sample_instance_noise(params: InstanceNoiseParams,
                          rng: np.random.Generator) -> tuple:
    """Draw a lognormal level and snap it to the nearest geometric bin.

    Returns (t, sigma) with t in [1, n_bins].
    """
    raw = math.exp(params.p_mean + params.p_std * rng.standard_normal())
    bins = params.bins()
    raw = min(max(raw, bins[0]), bins[-1])
    t = int(np.argmin(np.abs(np.log(bins) - math.log(raw)))) + 1
    return t, float(bins[t - 1])


# ---------------------------------------------------------------------------
# feature alignment and distillation loss
# ---------------------------------------------------------------------------

def align_features(teacher_feats: dict, student_feats: dict) -> list:
    """Stage-boundary activations present in both models with equal shapes.

    Returns [(layer key, teacher tensor, student tensor)]. A shared key with
    mismatched shapes is an error naming the layer.
    """
    pairs = []
    for key in sorted(set(teacher_feats) & set(student_feats)):
        t, s = teacher_feats[key], student_feats[key]
        if t.shape != s.shape:
            raise ShapeError(f"feature alignment at {key}: teacher {t.shape} vs "
                             f"student {s.shape}")
        pairs.append((key, t, s))
    return pairs


def icd_loss(teacher_feats: dict, student_feats: dict) -> Tensor:
    """Sum of per-layer MSE between aligned features; teacher side detached."""
    pairs = align_features(teacher_feats, student_feats)
    if not pairs:
        raise VdminiError("icd_loss: no aligned feature layers")
    total = None
    for _, t, s in pairs:
        term = T.mse(s, t.detach())
        total = term if total is None else T.add(total, term)
    return total


# ---------------------------------------------------------------------------
# two-head video discriminator
# ---------------------------------------------------------------------------

class Discriminator:
    """Noise-conditioned real/fake critic over short videos.

    A spatial head scores each frame with strided 2D convolutions; a temporal
    head pools frames spatially and scores motion with 1D convolutions along
    the frame axis. Both final layers start at zero so the initial logit is
    exactly 0 for any input.
    """

    def __init__(self, in_channels: int = 1, width: int = 16, seed: int = 0):
        self.in_channels = in_channels
        w, w2, ci = width, 2 * width, in_channels + 1
        shapes = {
            "spatio.conv1.w": (w, ci, 3, 3), "spatio.conv1.b": (w,),
            "spatio.conv2.w": (w2, w, 3, 3), "spatio.conv2.b": (w2,),
            "spatio.out.w": (1, w2, 3, 3), "spatio.out.b": (1,),
            "temporal.reduce.w": (w, ci, 3, 3), "temporal.reduce.b": (w,),
            "temporal.conv1.w": (w2, w, 3), "temporal.conv1.b": (w2,),
            "temporal.out.w": (1, w2, 3), "temporal.out.b": (1,),
        }
        self.params = {}
        for name in sorted(shapes):
            shape = shapes[name]
            if name.endswith(".b") or ".out." in name:
                data = np.zeros(shape)
            else:
                ss = np.random.SeedSequence([seed, int.from_bytes(
                    name.encode(), "little") % (2 ** 31)])
                fan_in = int(np.prod(shape[1:]))
                data = np.random.Generator(np.random.PCG64(ss)).standard_normal(
                    shape) / math.sqrt(fan_in)
            self.params[name] = Tensor(data, requires_grad=True)

    def _p(self, name: str) -> Tensor:
        return self.params[name]

    def forward(self, x: Tensor, sigma: float) -> Tensor:
        """Scalar logit: spatial-head mean plus temporal-head mean."""
        if x.data.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(f"discriminator input shape {x.shape}")
        c_noise = math.log(max(sigma, 1e-20)) / 4.0
        f, _, hgt, wid = x.shape
        cond = Tensor(np.full((f, 1, hgt, wid), c_noise))
        h = T.concat([x, cond], axis=1)
        s = T.silu(T.conv2d(h, self._p("spatio.conv1.w"), self._p("spatio.conv1.b"),
                            stride=2, pad=1))
        s = T.silu(T.conv2d(s, self._p("spatio.conv2.w"), self._p("spatio.conv2.b"),
                            stride=2, pad=1))
        s = T.conv2d(s, self._p("spatio.out.w"), self._p("spatio.out.b"), pad=1)
        t = T.silu(T.conv2d(h, self._p("temporal.reduce.w"),
                            self._p("temporal.reduce.b"), stride=2, pad=1))
        t = T.silu(T.conv1d_frames(t, self._p("temporal.conv1.w"),
                                   self._p("temporal.conv1.b"), pad=1))
        t = T.conv1d_frames(t, self._p("temporal.out.w"), self._p("temporal.out.b"),
                            pad=1)
        return T.add(T.mean_all(s), T.mean_all(t))


def mca_gen_loss(logit: Tensor) -> Tensor:
    """Non-saturating generator loss softplus(-D(fake)); ln 2 at logit 0."""
    return T.softplus(T.mul_scalar(logit, -1.0))


def mca_disc_loss(logit_fake: Tensor, logit_real: Tensor) -> Tensor:
    """Hinge critic loss max(0, 1 + D(fake)) + max(0, 1 - D(real))."""
    fake_term = T.relu(T.add_scalar(logit_fake, 1.0))
    real_term = T.relu(T.add_scalar(T.mul_scalar(logit_real, -1.0), 1.0))
    return T.add(fake_term, real_term)


# ---------------------------------------------------------------------------
# the combined training step
# ---------------------------------------------------------------------------

@dataclass
class DistillState:
    student: Model
    teacher: Model
    disc: Discriminator
    weights: LossWeights = field(default_factory=LossWeights)
    noise: InstanceNoiseParams = field(default_factory=InstanceNoiseParams)
    schedule: NoiseSchedule = field(default_factory=NoiseSchedule)
    opt_student: Adam = field(default_factory=lambda: Adam(lr=STUDENT_LR))
    opt_disc: Adam = field(default_factory=lambda: Adam(lr=DISC_LR))
    step: int = 0
    teacher_checksum: str = ""
    teacher_arrays: list = field(init=False, repr=False)

    def __post_init__(self):
        if not self.teacher_checksum:
            self.teacher_checksum = self.teacher.param_checksum()
        self.teacher_arrays = [(n, p, p.data) for n, p in self.teacher.params.items()]


def check_teacher_frozen(state: DistillState, full: bool = False) -> None:
    """Raise unless the teacher still holds the parameter Tensors and arrays
    it held when `state` was made; with `full`, also compare their checksum.

    The identity check is cheap enough for every step; tensor arrays are
    read-only, so only a write that first unlocks one needs the checksum.
    """
    params = state.teacher.params
    same = len(params) == len(state.teacher_arrays) and all(
        params.get(n) is p and p.data is d for n, p, d in state.teacher_arrays)
    if not same or (full and state.teacher.param_checksum() != state.teacher_checksum):
        raise VdminiError("teacher parameters changed during distillation")


def _check_finite(value: float, term: str) -> float:
    if not math.isfinite(value):
        raise NonFiniteError(f"non-finite loss term {term}: {value}")
    return value


def _teacher_features(teacher: Model, x_t: Tensor, sigma: float, cond,
                      p: Preconditioner) -> dict:
    """Teacher stage features at the same noised input, outside any tape."""
    _, c1, c2, c3 = diffusion.precondition_coeffs(sigma, p)
    _, feats = teacher.forward(
        Tensor(c2 * x_t.data), c3, cond.detach() if cond is not None else None,
        collect_features=True)
    return {k: v.detach() for k, v in feats.items()}


def _student_terms(state: DistillState, x0: Tensor, cond, sigma: float,
                   x_t: Tensor, feats_t: dict, p: Preconditioner):
    """Denoiser output, task loss, and distillation loss on one noised video."""
    c0, c1, c2, c3 = diffusion.precondition_coeffs(sigma, p)
    f_s, feats_s = state.student.forward(T.mul_scalar(x_t, c2), c3, cond,
                                         collect_features=True)
    d_s = T.add(T.mul_scalar(x_t, c0), T.mul_scalar(f_s, c1))
    sd = p.sigma_data
    weight = (sigma ** 2 + sd ** 2) / (sigma * sd) ** 2
    task = T.mul_scalar(T.mse(d_s, x0.detach()), weight * x0.size)
    icd = icd_loss(feats_t, feats_s)
    return d_s, task, icd


def _critic_update(state: DistillState, batch: list, fakes: list, inst: list,
                   inst_eps: list) -> float:
    """One hinge-loss step of the critic on detached fakes; returns its loss."""
    with Tape() as tape:
        loss_d = None
        for x0, fake, (_, s_i), e_i in zip(batch, fakes, inst, inst_eps):
            lf = state.disc.forward(Tensor(fake + s_i * e_i), s_i)
            lr_ = state.disc.forward(Tensor(x0.data + s_i * e_i), s_i)
            term = mca_disc_loss(lf, lr_)
            loss_d = term if loss_d is None else T.add(loss_d, term)
        loss_d = T.mul_scalar(loss_d, 1.0 / len(batch))
    value = _check_finite(loss_d.item(), "mca_disc")
    grads = named_grads(state.disc.params, backward(tape, loss_d))
    state.disc.params = state.opt_disc.step(state.disc.params, grads)
    return value


def distill_step(state: DistillState, batch: list, rng: np.random.Generator,
                 conds: Optional[list] = None) -> dict:
    """One alternating update: critic first, then the student.

    The student runs once per sample, on a tape. The critic trains on the
    detached outputs of that forward; the critic step leaves the student
    untouched, so these are the fakes a separate forward would give. The
    generator term, scored by the updated critic, then joins the same tape,
    and one backward updates the student.

    Returns the loss breakdown {task, icd, mca_gen, mca_disc, total} where
    total = task + lambda_icd * icd + lambda_mca * (mca_gen + mca_disc).
    Adversarial terms are zero while step < mca_warmup_steps.
    """
    if not batch:
        raise VdminiError("distill_step: empty batch")
    check_teacher_frozen(state)
    if conds is None:
        conds = [None] * len(batch)
    p = Preconditioner("EDM", state.schedule.sigma_data)
    mca_on = state.step >= state.weights.mca_warmup_steps
    sigmas = [diffusion.sample_sigma(state.schedule, rng) for _ in batch]
    epss = [rng.standard_normal(x0.shape) for x0 in batch]
    inst = [sample_instance_noise(state.noise, rng) for _ in batch]
    inst_eps = [rng.standard_normal(x0.shape) for x0 in batch]

    x_ts = [Tensor(x0.data + sigma * eps)
            for x0, sigma, eps in zip(batch, sigmas, epss)]
    teach_feats = [_teacher_features(state.teacher, x_t, sigma, cond, p)
                   for x_t, sigma, cond in zip(x_ts, sigmas, conds)]
    tape = Tape()
    with tape:
        task = icd = None
        outs = []
        for x0, cond, sigma, x_t, f_t in zip(batch, conds, sigmas, x_ts, teach_feats):
            d_s, t_term, i_term = _student_terms(state, x0, cond, sigma, x_t, f_t, p)
            outs.append(d_s)
            task = t_term if task is None else T.add(task, t_term)
            icd = i_term if icd is None else T.add(icd, i_term)

    mca_disc_val = (_critic_update(state, batch, [d.data for d in outs], inst, inst_eps)
                    if mca_on else 0.0)
    with tape:
        gen = None
        if mca_on:
            for d_s, (_, s_i), e_i in zip(outs, inst, inst_eps):
                noisy = T.add(d_s, Tensor(s_i * e_i))
                g_term = mca_gen_loss(state.disc.forward(noisy, s_i))
                gen = g_term if gen is None else T.add(gen, g_term)
        inv = 1.0 / len(batch)
        task = T.mul_scalar(task, inv)
        icd = T.mul_scalar(icd, inv)
        total = T.add(task, T.mul_scalar(icd, state.weights.lambda_icd))
        if gen is not None:
            gen = T.mul_scalar(gen, inv)
            total = T.add(total, T.mul_scalar(gen, state.weights.lambda_mca))
    task_val = _check_finite(task.item(), "task")
    icd_val = _check_finite(icd.item(), "icd")
    gen_val = _check_finite(gen.item(), "mca_gen") if gen is not None else 0.0
    grads = named_grads(state.student.params, backward(tape, total))
    state.student.params = state.opt_student.step(state.student.params, grads)
    state.step += 1
    return {
        "task": task_val,
        "icd": icd_val,
        "mca_gen": gen_val,
        "mca_disc": mca_disc_val,
        "total": task_val + state.weights.lambda_icd * icd_val
                 + state.weights.lambda_mca * (gen_val + mca_disc_val),
        "step": state.step,
    }
