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

# log-sigma floor standing in for c3 at sigma exactly 0
_LOG_SIGMA_FLOOR = 1e-20


@dataclass(frozen=True)
class NoiseSchedule:
    sigma_min: float = 0.02
    sigma_max: float = 80.0
    sigma_data: float = 0.5
    n_levels: int = 40
    rho: float = 7.0

    def sigmas(self, n: Optional[int] = None) -> np.ndarray:
        """Strictly decreasing sigma levels from sigma_max to sigma_min."""
        n = n or self.n_levels
        if n == 1:
            return np.array([self.sigma_max])
        i = np.arange(n) / (n - 1)
        inv_rho = 1.0 / self.rho
        s = (self.sigma_max**inv_rho + i * (self.sigma_min**inv_rho - self.sigma_max**inv_rho)) ** self.rho
        return s


@dataclass(frozen=True)
class Preconditioner:
    mode: str = "EDM"  # "EDM" or "CM"
    sigma_data: float = 0.5


@dataclass(frozen=True)
class ConsistencyConfig:
    cfg_weight: float = 1.0  # omega
    skip_interval: int = 1  # k
    ema_decay: float = 0.95

    def __post_init__(self):
        if self.skip_interval < 1:
            raise VdminiError(f"skip interval must be >= 1, got {self.skip_interval}")
        if not (0.0 <= self.ema_decay < 1.0):
            raise VdminiError(f"EMA decay must be in [0,1), got {self.ema_decay}")


def precondition_coeffs(sigma: float, p: Preconditioner) -> tuple:
    """(c0, c1, c2, c3) of the preconditioned denoiser at noise level sigma.

    Karras forms; the CM boundary c0(0)=1, c1(0)=0 holds exactly because
    the forms evaluate to exactly (1, 0) at sigma=0 in float64.
    """
    if sigma < 0:
        raise VdminiError(f"sigma must be >= 0, got {sigma}")
    if p.mode not in ("EDM", "CM"):
        raise VdminiError(f"unknown preconditioner mode {p.mode!r}")
    sd = p.sigma_data
    denom = sigma * sigma + sd * sd
    c0 = sd * sd / denom
    c1 = sigma * sd / math.sqrt(denom)
    c2 = 1.0 / math.sqrt(denom)
    c3 = math.log(max(sigma, _LOG_SIGMA_FLOOR)) / 4.0
    return c0, c1, c2, c3


def add_noise(x0: Tensor, sigma: float, rng: np.random.Generator) -> Tensor:
    """x0 + sigma * eps with eps standard normal; sigma=0 returns x0 as-is."""
    if sigma < 0:
        raise VdminiError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        return x0
    eps = rng.standard_normal(x0.shape)
    return Tensor(x0.data + sigma * eps)


def denoise(model: Model, x_t: Tensor, sigma: float, cond: Optional[Tensor],
            p: Preconditioner) -> Tensor:
    """D(x_t; sigma) = c0 x_t + c1 f(c2 x_t, c3)."""
    c0, c1, c2, c3 = precondition_coeffs(sigma, p)
    if c1 == 0.0:
        # boundary: no network contribution, return the (scaled) input bitwise
        return x_t if c0 == 1.0 else T.mul_scalar(x_t, c0)
    inner = model.forward(T.mul_scalar(x_t, c2), c3, cond)
    if inner.shape != x_t.shape:
        raise ShapeError(f"denoise: network output {inner.shape} vs input {x_t.shape}")
    return T.add(T.mul_scalar(x_t, c0), T.mul_scalar(inner, c1))


def sample(model: Model, schedule: NoiseSchedule, steps: int, cond: Optional[Tensor],
           rng: np.random.Generator, shape: tuple,
           p: Optional[Preconditioner] = None) -> Tensor:
    """Euler sampler along the schedule; steps=1 is one-step generation."""
    if steps < 1:
        raise VdminiError(f"steps must be >= 1, got {steps}")
    p = p or Preconditioner(sigma_data=schedule.sigma_data)
    x = Tensor(schedule.sigma_max * rng.standard_normal(shape))
    sigmas = list(schedule.sigmas(steps)) + [0.0]
    for s_cur, s_next in zip(sigmas[:-1], sigmas[1:]):
        d = denoise(model, x, s_cur, cond, p).detach()
        # Euler step on dx/dsigma = (x - D) / sigma
        x = Tensor(x.data + (s_next - s_cur) * (x.data - d.data) / s_cur)
    return x


def sample_set(model: Model, schedule: NoiseSchedule, conds: list, seed: int,
               shape: tuple, steps: int = 1) -> list:
    """One sample per condition; sample i draws its noise from a generator
    seeded with SeedSequence([seed, i]), so each sample is independent of
    the others and of the set's length."""
    return [sample(model, schedule, steps, cond,
                   np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, i]))),
                   shape)
            for i, cond in enumerate(conds)]


def sample_sigma(schedule: NoiseSchedule, rng: np.random.Generator,
                 p_mean: float = -1.2, p_std: float = 1.2) -> float:
    """Training-noise draw covering the whole schedule.

    Mixes a lognormal draw (emphasizing the mid/low-sigma denoising regime)
    with a uniform draw over the discrete schedule levels, so the endpoints
    the sampler actually visits -- in particular sigma_max, where one-step
    generation starts -- receive training signal as well.
    """
    if rng.random() < 0.5:
        levels = schedule.sigmas()
        return float(levels[rng.integers(len(levels))])
    s = math.exp(p_mean + p_std * rng.standard_normal())
    return min(max(s, schedule.sigma_min), schedule.sigma_max)


def denoising_loss(model: Model, batch: list, schedule: NoiseSchedule,
                   rng: np.random.Generator, conds: Optional[list] = None,
                   p: Optional[Preconditioner] = None) -> Tensor:
    """EDM-weighted denoising error, averaged over the batch."""
    if not batch:
        raise VdminiError("denoising_loss: empty batch")
    p = p or Preconditioner(sigma_data=schedule.sigma_data)
    sd = schedule.sigma_data
    total = None
    for i, x0 in enumerate(batch):
        sigma = sample_sigma(schedule, rng)
        x_t = add_noise(x0, sigma, rng)
        d = denoise(model, x_t, sigma, conds[i] if conds else None, p)
        weight = (sigma * sigma + sd * sd) / (sigma * sd) ** 2
        term = T.mul_scalar(T.mse(d, x0), weight * x0.size)
        total = term if total is None else T.add(total, term)
    return T.mul_scalar(total, 1.0 / len(batch))


def _cfg_denoise(teacher: Model, x: Tensor, sigma: float, cond: Optional[Tensor],
                 omega: float, p: Preconditioner) -> Tensor:
    """Classifier-free-guided denoiser: D_u + omega (D_c - D_u)."""
    d_cond = denoise(teacher, x, sigma, cond, p)
    if omega == 1.0:
        return d_cond
    d_uncond = denoise(teacher, x, sigma, None, p)
    return Tensor(d_uncond.data + omega * (d_cond.data - d_uncond.data))


def consistency_loss(student: Model, ema_target: Model, teacher: Model,
                     cfg: ConsistencyConfig, batch: list, schedule: NoiseSchedule,
                     rng: np.random.Generator, conds: Optional[list] = None) -> Tensor:
    """Consistency distillation: match student at t_{n+k} to the EMA target
    at t_n, where t_n is reached by Euler-solving the frozen teacher with CFG.
    Gradients flow only into the student."""
    k = cfg.skip_interval
    sigmas = schedule.sigmas()
    if k >= len(sigmas):
        raise VdminiError(f"skip interval {k} out of schedule range {len(sigmas)}")
    p_cm = Preconditioner("CM", schedule.sigma_data)
    p_edm = Preconditioner("EDM", schedule.sigma_data)
    total = None
    for i, x0 in enumerate(batch):
        cond = conds[i] if conds else None
        # sigma index n+k is the noisier end; solve toward n
        n = int(rng.integers(0, len(sigmas) - k))
        s_hi = float(sigmas[n])
        s_lo = float(sigmas[n + k])
        x_hi = add_noise(x0, s_hi, rng)
        x_lo = x_hi.data
        sub = sigmas[n : n + k + 1]
        for s_cur, s_next in zip(sub[:-1], sub[1:]):
            d = _cfg_denoise(teacher, Tensor(x_lo), s_cur, cond, cfg.cfg_weight, p_edm)
            x_lo = x_lo + (s_next - s_cur) * (x_lo - d.data) / s_cur
        out_student = denoise(student, x_hi, s_hi, cond, p_cm)
        out_target = denoise(ema_target.detached(), Tensor(x_lo), s_lo, cond, p_cm).detach()
        term = T.mse(out_student, out_target)
        total = term if total is None else T.add(total, term)
    return T.mul_scalar(total, 1.0 / len(batch))


def ema_update(target_params: dict, source_params: dict, decay: float) -> dict:
    """target <- decay * target + (1-decay) * source, detached."""
    out = {}
    for name, tp in target_params.items():
        sp = source_params[name]
        out[name] = Tensor(decay * tp.data + (1.0 - decay) * sp.data, requires_grad=True)
    return out
