"""Post-pruning distillation: feature matching plus a multi-frame adversary.

The student minimizes a denoising task loss, an intermediate-feature
distillation term against the frozen teacher, and a generator term from a
two-head video discriminator trained alternately with a hinge objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from . import diffusion, tensor as T
from .diffusion import NoiseSchedule
from .errors import NonFiniteError, ShapeError, VdminiError
from .netgraph import Model
from .optim import Adam, named_grads
from .tensor import Tape, Tensor, backward, join_parts, run_parts


@dataclass(frozen=True)
class LossWeights:
    """The loss weights of the config's `distill` section (`cli.DEFAULT_CONFIG`
    holds their defaults)."""
    lambda_icd: float
    lambda_mca: float
    mca_warmup_steps: int


# ---------------------------------------------------------------------------
# instance noise on discriminator inputs
# ---------------------------------------------------------------------------

# the noise injected into both discriminator branches: a lognormal level,
# log-mean 0.7 and log-std 1.6, snapped to the nearest of 999 geometric bins
# that span three log-stds either side of the mean
_INST_P_MEAN, _INST_P_STD = 0.7, 1.6
_INST_BINS = np.geomspace(math.exp(_INST_P_MEAN - 3.0 * _INST_P_STD),
                          math.exp(_INST_P_MEAN + 3.0 * _INST_P_STD), 999)
_INST_LOG_BINS = np.log(_INST_BINS)


def sample_instance_noise(rng: np.random.Generator) -> float:
    """Draw a lognormal level and return the geometric bin nearest to it."""
    raw = math.exp(_INST_P_MEAN + _INST_P_STD * rng.standard_normal())
    raw = min(max(raw, _INST_BINS[0]), _INST_BINS[-1])
    return float(_INST_BINS[np.argmin(np.abs(_INST_LOG_BINS - math.log(raw)))])


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
    the frame axis; each head widens to 16, then 32 channels. Both final
    layers start at zero so the initial logit is exactly 0 for any input.
    """

    def __init__(self, in_channels: int = 1, seed: int = 0):
        self.in_channels = in_channels
        w, w2, ci = 16, 32, in_channels + 1
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

    def forward(self, x: Tensor, sigma) -> Tensor:
        """One logit per noise level in `sigma` (a float: one video), each the
        spatial-head mean plus the temporal-head mean of its run of frames."""
        if x.data.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(f"discriminator input shape {x.shape}")
        levels = [math.log(max(s, 1e-20)) / 4.0 for s in np.ravel(sigma)]
        v = len(levels)
        cond = T.mul_scalar(Tensor(np.ones((x.shape[0], 1) + x.shape[2:])), levels)
        h = T.concat([x, cond], axis=1)
        s = T.silu(T.conv2d(h, self._p("spatio.conv1.w"), self._p("spatio.conv1.b"),
                            stride=2, pad=1))
        s = T.silu(T.conv2d(s, self._p("spatio.conv2.w"), self._p("spatio.conv2.b"),
                            stride=2, pad=1))
        s = T.conv2d(s, self._p("spatio.out.w"), self._p("spatio.out.b"), pad=1)
        t = T.silu(T.conv2d(h, self._p("temporal.reduce.w"),
                            self._p("temporal.reduce.b"), stride=2, pad=1))
        t = T.silu(T.conv1d_frames(t, self._p("temporal.conv1.w"),
                                   self._p("temporal.conv1.b"), pad=1, videos=v))
        t = T.conv1d_frames(t, self._p("temporal.out.w"), self._p("temporal.out.b"),
                            pad=1, videos=v)
        return T.add(T.mean_all(s, v), T.mean_all(t, v))


def mca_gen_loss(logits: Tensor) -> Tensor:
    """Non-saturating generator loss softplus(-D(fake)), averaged over the
    fakes' logits; ln 2 at logit 0."""
    return T.mean_all(T.softplus(T.mul_scalar(logits, -1.0)))


def mca_disc_loss(logits: Tensor) -> Tensor:
    """Hinge critic loss max(0, 1 + D(fake)) + max(0, 1 - D(real)), averaged
    over pairs; `logits` stacks V fakes' logits, then V reals'."""
    v = logits.shape[0] // 2
    hinge = T.relu(T.add_scalar(T.mul_scalar(logits, [1.0] * v + [-1.0] * v), 1.0))
    return T.mul_scalar(T.mean_all(hinge), 2.0)


# ---------------------------------------------------------------------------
# the combined training step
# ---------------------------------------------------------------------------

@dataclass
class DistillState:
    student: Model
    teacher: Model
    disc: Discriminator
    weights: LossWeights
    schedule: NoiseSchedule
    opt_student: Adam
    opt_disc: Adam
    step: int = field(default=0, init=False)
    teacher_checksum: str = field(init=False)
    teacher_arrays: list = field(init=False, repr=False)

    def __post_init__(self):
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


def _check_finite(value: float, term: str, step: int) -> float:
    if not math.isfinite(value):
        raise NonFiniteError(f"non-finite loss term {term} at step {step}: {value}")
    return value


def _teacher_features(teacher: Model, x_t: Tensor, sigmas: list, cond,
                      sigma_data: float) -> dict:
    """The teacher's stage features in `diffusion.denoise` of the videos
    stacked in x_t, one noise level per video, as the student denoises them."""
    feats: dict = {}
    diffusion.denoise(teacher, x_t, sigmas, cond, sigma_data, videos=len(sigmas),
                      features=feats)
    return feats


def distill_step(state: DistillState, batch: list, rng: np.random.Generator,
                 conds: Optional[list] = None) -> dict:
    """One alternating update: critic first, then the student.

    Each video gets its own noise level, all drawn first, and the batch runs
    as `diffusion.video_parts`. Each part, on a thread of its own (part 0 on
    the calling thread), computes the teacher's features outside any tape,
    then, on the part's own tape, the student's `diffusion.denoise` of the
    same noised videos, its task term and its feature term (which does not
    read the critic). After the join, the critic takes one hinge step on the
    detached outputs of every part's forward and the real videos; the
    critic step leaves the student untouched, so these are the fakes a
    separate forward would give. Each part's generator term, scored by the
    updated critic, joins that part's tape; the root weights each part's
    total by its share of the batch, and one backward updates the student.
    An error on a part's thread is raised once every part has stopped,
    before the critic steps.

    Returns the loss breakdown {task, icd, mca_gen, mca_disc, total} where
    total = task + lambda_icd * icd + lambda_mca * (mca_gen + mca_disc), each
    term the batch mean. Adversarial terms are zero while step <
    mca_warmup_steps.
    """
    if not batch:
        raise VdminiError("distill_step: empty batch")
    check_teacher_frozen(state)
    sigma_data = state.schedule.sigma_data
    mca_on = state.step >= state.weights.mca_warmup_steps
    # each video's sigma, then each one's noise, then the critic's noise
    sigmas = [diffusion.sample_sigma(state.schedule, rng) for _ in batch]
    x_t = [diffusion.add_noise(x, s, rng) for x, s in zip(batch, sigmas)]
    inst = [sample_instance_noise(rng) for _ in batch]
    noise = [s * rng.standard_normal(x0.shape) for x0, s in zip(batch, inst)]
    parts = diffusion.video_parts(state.student, batch)
    tapes = [Tape() for _ in parts]

    def forward(tape: Tape, s: slice) -> tuple:
        xs = diffusion.stack_videos(x_t[s])
        cond = diffusion.stack_videos(conds[s]) if conds else None
        feats_t = _teacher_features(state.teacher, xs, sigmas[s], cond, sigma_data)
        feats_s: dict = {}
        with tape:
            d_s = diffusion.denoise(state.student, xs, sigmas[s], cond, sigma_data,
                                    videos=len(x_t[s]), features=feats_s)
            task = diffusion.weighted_error(d_s, diffusion.stack_videos(batch[s]), sigmas[s],
                                            sigma_data)
            return d_s, task, icd_loss(feats_t, feats_s)

    outs = run_parts([partial(forward, t, s) for t, s in zip(tapes, parts)])
    mca_disc_val = 0.0
    if mca_on:  # one hinge step of the critic on the V fakes, then the V reals
        noises = np.concatenate(noise)
        fakes = np.concatenate([d_s.data for d_s, _, _ in outs])
        reals = diffusion.stack_videos(batch).data
        with Tape() as critic_tape:
            loss_d = mca_disc_loss(state.disc.forward(
                Tensor(np.concatenate([fakes + noises, reals + noises])), inst + inst))
        mca_disc_val = _check_finite(loss_d.item(), "mca_disc", state.step)
        grads = named_grads(state.disc.params, backward(critic_tape, loss_d))
        state.disc.params = state.opt_disc.step(state.disc.params, grads)
    gens, totals = [], []  # per part
    for tape, s, (d_s, task, icd) in zip(tapes, parts, outs):
        with tape:
            total = T.add(task, T.mul_scalar(icd, state.weights.lambda_icd))
            if mca_on:
                gens.append(mca_gen_loss(state.disc.forward(
                    T.add(d_s, Tensor(np.concatenate(noise[s]))), inst[s])))
                total = T.add(total, T.mul_scalar(gens[-1], state.weights.lambda_mca))
        totals.append(total)
    shares = [len(batch[s]) / len(batch) for s in parts]

    def batch_mean(terms: list, name: str) -> float:
        return _check_finite(sum(w * t.item() for w, t in zip(shares, terms)), name,
                             state.step)

    _, tasks, icds = zip(*outs)
    task_val, icd_val = batch_mean(tasks, "task"), batch_mean(icds, "icd")
    gen_val = batch_mean(gens, "mca_gen") if mca_on else 0.0
    tape, total = join_parts(tapes, totals, shares)
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
