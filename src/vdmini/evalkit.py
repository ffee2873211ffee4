"""Quantitative evaluation: FVD proxy, motion proxy, latency."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import MetricError, NonFiniteError, ShapeError
from .netgraph import Model
from .tensor import Tensor

_EXTRACTOR_SEED = 1234
_FEATURE_DIM = 64
_SHRINKAGE = 0.05
_EIG_FLOOR = 1e-12


class FeatureExtractor:
    """Fixed, seeded conv embedding of (F, C, H, W) videos.

    Three stages, each a strided 2-D spatial conv (content path) plus a
    zero-mean 1-D temporal conv over frames (motion path), so the embedding
    is sensitive both to per-frame content and to frame ordering. The
    temporal kernels are high-pass (zero mean along the frame axis) and
    rectified, so their pooled response scales with inter-frame change and
    is not washed out by static content under global average pooling.
    Activations are rescaled by fixed per-stage gains calibrated so typical
    real videos drive the nonlinearities away from their linear regime;
    the gains are constants rather than per-video statistics so the
    embedding keeps absolute amplitude information (a near-empty video maps
    near the feature-space origin instead of being amplified into plausible
    statistics). Parameters are drawn from one fixed seed, so every
    extractor of a channel count is the same embedding.
    """

    INPUT_GAIN = 4.0
    STAGE_GAIN = 2.0

    def __init__(self, in_channels: int = 1):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([_EXTRACTOR_SEED])))
        dim = _FEATURE_DIM
        widths = [in_channels, 16, 32, dim]
        self.layers = []
        for cin, cout in zip(widths[:-1], widths[1:]):
            w2 = rng.standard_normal((cout, cin, 3, 3)) / math.sqrt(9 * cin)
            w1 = rng.standard_normal((cout, cout, 3)) / math.sqrt(3 * cout)
            w1 = w1 - w1.mean(axis=2, keepdims=True)
            self.layers.append((Tensor(w2), Tensor(w1)))
        self.proj = Tensor(rng.standard_normal((dim, dim)) / math.sqrt(dim))

    def embed(self, video: Tensor) -> np.ndarray:
        h = Tensor(video.data * self.INPUT_GAIN)
        for w2, w1 in self.layers:
            s = T.conv2d(h, w2, stride=2, pad=1)
            s = Tensor(s.data * self.STAGE_GAIN)
            t = T.conv1d_frames(s, w1, pad=1)
            h = Tensor(T.silu(s).data + T.relu(t).data)
        pooled = h.data.mean(axis=(0, 2, 3))
        return pooled @ self.proj.data.T


def extract_features(videos: list, extractor: FeatureExtractor) -> np.ndarray:
    """(n, D) feature matrix; row i depends only on video i.

    A video holding NaN or Inf, such as a sample from a sampler that
    overflowed, is a NonFiniteError naming the first one, raised before any
    video is embedded."""
    shape = videos[0].shape
    for i, v in enumerate(videos):
        if v.shape != shape:
            raise ShapeError(f"extract_features: shapes {shape} vs {v.shape}")
        if not np.isfinite(v.data).all():
            raise NonFiniteError(f"extract_features: video {i} of {len(videos)} "
                                 f"holds NaN or Inf")
    return np.stack([extractor.embed(v) for v in videos])


@dataclass(frozen=True)
class GaussianStats:
    mu: np.ndarray
    sigma: np.ndarray


def fit_gaussian(features: np.ndarray) -> GaussianStats:
    """Mean/covariance fit with trace shrinkage for small sample counts.

    The rows are put in a canonical (lexicographic) order before any
    reduction. Floating-point addition is not associative, so summing them
    in the order given would let a permutation of the rows change mu and
    sigma in their last bits; sorted, the result depends only on the
    multiset of rows, bit for bit.
    """
    n, d = features.shape
    features = features[np.lexsort(features.T[::-1])]
    mu = features.mean(axis=0)
    centered = features - mu
    cov = centered.T @ centered / max(n - 1, 1)
    cov = 0.5 * (cov + cov.T)
    if n < 4 * d:
        cov = (1.0 - _SHRINKAGE) * cov + _SHRINKAGE * (np.trace(cov) / d) * np.eye(d)
    return GaussianStats(mu, cov)


def _sqrtm_psd(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (m + m.T))
    floor = _EIG_FLOOR * max(float(vals[-1]), 0.0)
    vals = np.where(vals < floor, 0.0, vals)
    return (vecs * np.sqrt(vals)) @ vecs.T


def frechet_distance(a: GaussianStats, b: GaussianStats) -> float:
    """||mu_a - mu_b||^2 + Tr(S_a + S_b - 2 (S_a S_b)^{1/2})."""
    if a.mu.shape != b.mu.shape:
        raise MetricError(f"dimension mismatch {a.mu.shape} vs {b.mu.shape}")
    for s in (a.sigma, b.sigma):
        if not np.allclose(s, s.T, atol=1e-9):
            raise MetricError("covariance not symmetric")
    diff = a.mu - b.mu
    sa_half = _sqrtm_psd(a.sigma)
    cross = _sqrtm_psd(sa_half @ b.sigma @ sa_half)
    val = float(diff @ diff + np.trace(a.sigma) + np.trace(b.sigma) - 2.0 * np.trace(cross))
    if not math.isfinite(val):
        raise MetricError("Frechet distance non-finite")
    return max(val, 0.0)


def fvd(generated: list, reference: list, extractor: FeatureExtractor) -> float:
    """Frechet distance between Gaussian fits of video embeddings.

    FVD compares two sets of videos: the result depends only on the
    multiset of each list, bit for bit, because fit_gaussian puts the
    feature rows in a canonical order before any reduction.
    """
    if not generated or not reference:
        raise MetricError("fvd: empty video set")
    fg = extract_features(generated, extractor)
    fr = extract_features(reference, extractor)
    return frechet_distance(fit_gaussian(fg), fit_gaussian(fr))


def motion_dynamics_proxy(video: Tensor) -> float:
    """Mean absolute inter-frame difference (per pixel, per frame pair)."""
    if video.shape[0] < 2:
        raise ShapeError(f"motion proxy needs >= 2 frames, got {video.shape}")
    diff = np.abs(np.diff(video.data, axis=0))
    return float(diff.mean())


@dataclass
class LatencyReport:
    per_block_ms: dict = field(default_factory=dict)
    total_ms: float = 0.0
    reps: int = 0


def measure_latency(model: Model, input_shape: tuple, warmup: int = 2,
                    reps: int = 5) -> LatencyReport:
    """Median latency of each block, keyed by block id, and of the whole
    forward, timed apart. Each block runs alone (`Model._block`) on the
    state that one forward recorded entering it."""
    if reps < 3:
        raise MetricError(f"need reps >= 3, got {reps}")
    rng = np.random.Generator(np.random.PCG64(0))
    x = Tensor(rng.standard_normal(input_shape))
    states: dict = {}
    for _ in range(warmup + 1):  # the last forward's states are kept
        model.forward(x, 0.0, states=states)
    blocks = [b for s in model.graph.stages for b in s.blocks]
    samples: dict = {b.block_id: [] for b in blocks}
    for _ in range(reps):
        for b in blocks:
            state = states[b.block_id]
            t0 = time.perf_counter()
            model._block(state.h, b, state.emb)
            samples[b.block_id].append((time.perf_counter() - t0) * 1e3)
    totals = []
    for _ in range(reps):
        t0 = time.perf_counter()
        model.forward(x, 0.0)
        totals.append((time.perf_counter() - t0) * 1e3)
    per_block = {k: float(np.median(v)) for k, v in sorted(samples.items())}
    return LatencyReport(per_block, float(np.median(totals)), reps)
