"""EDM-style forward/reverse processes, preconditioning, and task losses."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .errors import ShapeError, VdminiError
from .netgraph import Model
from .tensor import Tensor


@dataclass(frozen=True)
class NoiseSchedule:
    """The `schedule` section of the config (`cli.DEFAULT_CONFIG` holds its
    defaults)."""
    sigma_min: float
    sigma_max: float
    sigma_data: float
    n_levels: int
    rho: float

    def sigmas(self, n: Optional[int] = None) -> np.ndarray:
        """Strictly decreasing sigma levels from sigma_max to sigma_min."""
        n = n or self.n_levels
        if n == 1:
            return np.array([self.sigma_max])
        i = np.arange(n) / (n - 1)
        inv_rho = 1.0 / self.rho
        s = (self.sigma_max**inv_rho + i * (self.sigma_min**inv_rho - self.sigma_max**inv_rho)) ** self.rho
        return s


def precondition_coeffs(sigma, sigma_data: float) -> tuple:
    """(c0, c1, c2, c3) of the EDM-preconditioned denoiser (Karras forms) at
    noise level sigma > 0; for a sequence of levels, one array of each, an
    entry per level."""
    if np.ndim(sigma):
        return tuple(np.array(c) for c in zip(*(precondition_coeffs(s, sigma_data)
                                                for s in sigma)))
    if not sigma > 0:
        raise VdminiError(f"sigma must be > 0, got {sigma}")
    sd = sigma_data
    denom = sigma * sigma + sd * sd
    c0 = sd * sd / denom
    c1 = sigma * sd / math.sqrt(denom)
    c2 = 1.0 / math.sqrt(denom)
    c3 = math.log(sigma) / 4.0
    return c0, c1, c2, c3


def add_noise(x0: Tensor, sigma: float, rng: np.random.Generator) -> Tensor:
    """x0 + sigma * eps with eps standard normal, at sigma > 0."""
    if not sigma > 0:
        raise VdminiError(f"sigma must be > 0, got {sigma}")
    eps = rng.standard_normal(x0.shape)
    return Tensor(x0.data + sigma * eps)


def denoise(model: Model, x_t: Tensor, sigma, cond: Optional[Tensor],
            sigma_data: float, videos: int = 1, features: Optional[dict] = None) -> Tensor:
    """D(x_t; sigma) = c0 x_t + c1 f(c2 x_t, c3) at sigma > 0; x_t may stack
    `videos` videos on axis 0, as `Model.forward` takes them, and sigma is
    one level for all of them or a sequence of one per video. A `features`
    dict is filled with f's stage-boundary activations (`Model.forward`)."""
    c0, c1, c2, c3 = precondition_coeffs(sigma, sigma_data)
    inner = model.forward(T.mul_scalar(x_t, c2), c3, cond, features=features, videos=videos)
    if inner.shape != x_t.shape:
        raise ShapeError(f"denoise: network output {inner.shape} vs input {x_t.shape}")
    return T.add(T.mul_scalar(x_t, c0), T.mul_scalar(inner, c1))


def sample(model: Model, schedule: NoiseSchedule, steps: int, cond: Optional[Tensor],
           rng, shape: tuple) -> Tensor:
    """Euler sampler along the schedule; steps=1 is one-step generation.

    `rng` is a generator, or a list of them, one per video: each draws its
    video's noise of `shape`, the noises are stacked on axis 0, and `cond`
    stacks the videos' conditions likewise. Each Euler step is then one
    network call for all the videos."""
    if steps < 1:
        raise VdminiError(f"steps must be >= 1, got {steps}")
    rngs = rng if isinstance(rng, list) else [rng]
    x = Tensor(np.concatenate([schedule.sigma_max * r.standard_normal(shape) for r in rngs]))
    sigmas = list(schedule.sigmas(steps)) + [0.0]
    for s_cur, s_next in zip(sigmas[:-1], sigmas[1:]):
        d = denoise(model, x, s_cur, cond, schedule.sigma_data, videos=len(rngs)).detach()
        # Euler step on dx/dsigma = (x - D) / sigma
        x = Tensor(x.data + (s_next - s_cur) * (x.data - d.data) / s_cur)
    return x


def sample_set(model: Model, schedule: NoiseSchedule, conds: list, seed: int,
               shape: tuple, steps: int = 1, runs: int = 1) -> list:
    """One sample of `shape` per condition, all in one `sample` chain: each
    Euler step is one network call for the whole set.

    Sample i draws its noise from a generator seeded with
    SeedSequence([seed, i]). The network never mixes two videos, and each
    Euler step gives them one noise level, one embedding row that they
    share, so each sample is what sampling it alone gives, bit for bit:
    independent of the others and of the set's size. The conditions must be
    all None or all of one shape. With `runs` > 1 the chain stacks the set
    that many times, each run with the same noise, and returns
    `runs * len(conds)` samples, run after run (one model per run, as
    `Model.forward` with `ablated` runs them)."""
    if not conds:
        return []
    cond = stack_videos(conds * runs)
    rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, i])))
            for _ in range(runs) for i in range(len(conds))]
    x = sample(model, schedule, steps, cond, rngs, shape)
    return [Tensor(v) for v in np.split(x.data, len(rngs))]


# EDM's training-noise lognormal, log-mean P_mean and log-std P_std
# (Karras et al., arXiv 2206.00364)
_P_MEAN, _P_STD = -1.2, 1.2


def sample_sigma(schedule: NoiseSchedule, rng: np.random.Generator) -> float:
    """Training-noise draw covering the whole schedule.

    Mixes a lognormal draw (emphasizing the mid/low-sigma denoising regime)
    with a uniform draw over the discrete schedule levels, so the endpoints
    the sampler actually visits -- in particular sigma_max, where one-step
    generation starts -- receive training signal as well.
    """
    if rng.random() < 0.5:
        levels = schedule.sigmas()
        return float(levels[rng.integers(len(levels))])
    s = math.exp(_P_MEAN + _P_STD * rng.standard_normal())
    return min(max(s, schedule.sigma_min), schedule.sigma_max)


def stack_videos(videos: list) -> Optional[Tensor]:
    """Videos (or conditions), all None (giving None) or all of one shape, on axis 0."""
    if all(v is None for v in videos):
        return None
    if any(v is None or v.shape != videos[0].shape for v in videos):
        raise ShapeError("cannot stack: the videos must be all None or all of one shape")
    return Tensor(np.concatenate([v.data for v in videos]))


def weighted_error(d: Tensor, x0: Tensor, sigmas: list, sigma_data: float) -> Tensor:
    """Mean over the videos stacked in d and x0 of each one's summed squared
    error times its EDM weight (sigma^2 + sigma_data^2) / (sigma sigma_data)^2:
    one mean squared error of the videos scaled by the weights' roots."""
    root = [math.sqrt(s * s + sigma_data * sigma_data) / (s * sigma_data) for s in sigmas]
    err = T.mse(T.mul_scalar(d, root), T.mul_scalar(x0, root))
    return T.mul_scalar(err, x0.size // len(sigmas))


def draw_noise(batch: list, schedule: NoiseSchedule, rng: np.random.Generator) -> tuple:
    """(sigmas, noised): each video's training noise level, then its noised
    copy, drawn video by video, as `denoising_loss` draws them."""
    sigmas, noised = [], []
    for x0 in batch:
        sigmas.append(sample_sigma(schedule, rng))
        noised.append(add_noise(x0, sigmas[-1], rng))
    return sigmas, noised


def denoising_error(model: Model, batch: list, noised: list, sigmas: list,
                    conds: Optional[list], sigma_data: float) -> Tensor:
    """EDM-weighted error of denoising each video of `batch` from `noised`
    at its level in `sigmas`, averaged over the batch: one network call for
    them all."""
    d = denoise(model, stack_videos(noised), sigmas, stack_videos(conds) if conds else None,
                sigma_data, videos=len(batch))
    return weighted_error(d, stack_videos(batch), sigmas, sigma_data)


def denoising_loss(model: Model, batch: list, schedule: NoiseSchedule,
                   rng: np.random.Generator, conds: Optional[list] = None) -> Tensor:
    """EDM-weighted denoising error, averaged over the batch: a noise level
    per video, and one network call for them all."""
    if not batch:
        raise VdminiError("denoising_loss: empty batch")
    sigmas, noised = draw_noise(batch, schedule, rng)
    return denoising_error(model, batch, noised, sigmas, conds, schedule.sigma_data)


# One video's stem activation (widths[0] x F x H x W float64s) from which a
# training step runs its batch as two parts, each on a thread of its own.
# Below it the parts' Python dispatch, serialised by the GIL, outweighs what
# the second core gains (crossover measured between 128 and 256 KiB).
_PART_BYTES = 192 << 10


def video_parts(model: Model, batch: list) -> list:
    """The slices of `batch` that a training or distill step runs as parts,
    each forward on a thread and tape of its own: two halves (the first the
    larger) when the batch holds at least two videos and one video's stem
    activation in `model` takes at least _PART_BYTES, else the whole batch.
    The split depends only on the shapes, so a config's bits never depend on
    timing or on the host."""
    f, _, h, w = batch[0].shape
    stem = 8 * model.params["stem.conv.w"].shape[0] * f * h * w
    if len(batch) < 2 or stem < _PART_BYTES:
        return [slice(0, len(batch))]
    half = (len(batch) + 1) // 2
    return [slice(0, half), slice(half, len(batch))]

