"""Output checks, each against a computation made apart from the program or
against a property the method must have.

Every check returns a list of problems; an empty list means it passed.
The reference implementations here are written with plain NumPy loops and
formulas, independent of the program's sliding-window einsums.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np


def close(name: str, got, want, rtol: float, atol: float = 0.0) -> list:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} vs reference {want.shape}"]
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    if not err <= atol + rtol * scale:
        return [f"{name}: max error {err:.3e} exceeds {atol:.1e} + {rtol:.1e} * {scale:.3e}"]
    return []


# ---------------------------------------------------------------------------
# reference ops
# ---------------------------------------------------------------------------

def conv2d_ref(x, w, b=None, stride: int = 1, pad: int = 0) -> np.ndarray:
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho, wo = (h + 2 * pad - kh) // stride + 1, (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, o, ho, wo))
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
            for oc in range(o):
                for ic in range(c):
                    out[:, oc] += w[oc, ic, i, j] * patch[:, ic]
    if b is not None:
        for oc in range(o):
            out[:, oc] += b[oc]
    return out


def conv1d_frames_ref(x, w, b=None, pad: int = 0) -> np.ndarray:
    f, c, h, wd = x.shape
    o, _, k = w.shape
    xp = np.pad(x, ((pad, pad), (0, 0), (0, 0), (0, 0)))
    fo = f + 2 * pad - k + 1
    out = np.zeros((fo, o, h, wd))
    for t in range(fo):
        for oc in range(o):
            for ic in range(c):
                for i in range(k):
                    out[t, oc] += w[oc, ic, i] * xp[t + i, ic]
            if b is not None:
                out[t, oc] += b[oc]
    return out


def group_norm_ref(x, gamma, beta, groups: int, eps: float = 1e-5) -> np.ndarray:
    n, c = x.shape[:2]
    per = c // groups
    out = np.empty_like(x)
    for s in range(n):
        for g in range(groups):
            chunk = x[s, g * per:(g + 1) * per]
            mu = chunk.sum() / chunk.size
            var = ((chunk - mu) ** 2).sum() / chunk.size
            out[s, g * per:(g + 1) * per] = (chunk - mu) / math.sqrt(var + eps)
    for ch in range(c):
        out[:, ch] = out[:, ch] * gamma[ch] + beta[ch]
    return out


def linear_ref(x, w, b=None) -> np.ndarray:
    out = np.empty(x.shape[:-1] + (w.shape[0],))
    for o in range(w.shape[0]):
        out[..., o] = (x * w[o]).sum(axis=-1) + (b[o] if b is not None else 0.0)
    return out


def _attend(tokens, wq, wk, wv, wo) -> np.ndarray:
    """softmax(Q K^T / sqrt(d)) V Wo^T for one (T, C) token set."""
    q, k, v = tokens @ wq.T, tokens @ wk.T, tokens @ wv.T
    scores = q @ k.T / math.sqrt(tokens.shape[1])
    out = np.empty_like(v)
    for r in range(scores.shape[0]):
        e = np.exp(scores[r] - scores[r].max())
        out[r] = (e / e.sum()) @ v
    return out @ wo.T


def attention_spatial_ref(x, wq, wk, wv, wo) -> np.ndarray:
    f, c, h, w = x.shape
    out = np.empty_like(x)
    for t in range(f):
        out[t] = _attend(x[t].reshape(c, h * w).T, wq, wk, wv, wo).T.reshape(c, h, w)
    return out


def attention_temporal_ref(x, wq, wk, wv, wo) -> np.ndarray:
    f, c, h, w = x.shape
    out = np.empty_like(x)
    for i in range(h):
        for j in range(w):
            out[:, :, i, j] = _attend(x[:, :, i, j], wq, wk, wv, wo)
    return out


def check_ops(T, shape: tuple, seed: int) -> list:
    """Compare the program's ops with the references on (F, C, H, W) inputs."""
    f, c, h, w = shape
    rng = np.random.default_rng([seed, 17])
    x = rng.standard_normal(shape)
    t = T.Tensor
    w2, w1 = rng.standard_normal((c, c, 3, 3)) / 3.0, rng.standard_normal((c, c, 3)) / 2.0
    bias, gamma, beta = rng.standard_normal(c), rng.standard_normal(c), rng.standard_normal(c)
    wl, bl = rng.standard_normal((4 * c, c)), rng.standard_normal(4 * c)
    wq, wk, wv, wo = (rng.standard_normal((c, c)) / math.sqrt(c) for _ in range(4))
    tokens = x.transpose(0, 2, 3, 1)
    problems = []
    problems += close("conv2d", T.conv2d(t(x), t(w2), t(bias), pad=1).data,
                      conv2d_ref(x, w2, bias, pad=1), 1e-10)
    problems += close("conv2d stride 2", T.conv2d(t(x), t(w2), t(bias), stride=2, pad=1).data,
                      conv2d_ref(x, w2, bias, stride=2, pad=1), 1e-10)
    problems += close("conv1d_frames", T.conv1d_frames(t(x), t(w1), t(bias), pad=1).data,
                      conv1d_frames_ref(x, w1, bias, pad=1), 1e-10)
    problems += close("group_norm", T.group_norm(t(x), t(gamma), t(beta), groups=1).data,
                      group_norm_ref(x, gamma, beta, 1), 1e-10)
    problems += close("linear", T.linear(t(tokens), t(wl), t(bl)).data,
                      linear_ref(tokens, wl, bl), 1e-10)
    for name, ref in (("attention_spatial", attention_spatial_ref),
                      ("attention_temporal", attention_temporal_ref)):
        got = getattr(T, name)(t(x), t(wq), t(wk), t(wv), t(wo)).data
        problems += close(name, got, ref(x, wq, wk, wv, wo), 1e-10)
    return problems


# ---------------------------------------------------------------------------
# FVD and motion
# ---------------------------------------------------------------------------

def frechet_ref(fa: np.ndarray, fb: np.ndarray, shrinkage: float) -> float:
    """Fréchet distance of shrunk Gaussian fits, with scipy's matrix sqrt."""
    from scipy import linalg

    def fit(f):
        n, d = f.shape
        mu = f.sum(axis=0) / n
        cov = np.cov(f, rowvar=False, ddof=1) if n > 1 else np.zeros((d, d))
        if n < 4 * d:
            cov = (1.0 - shrinkage) * cov + shrinkage * (np.trace(cov) / d) * np.eye(d)
        return mu, cov

    (ma, sa), (mb, sb) = fit(fa), fit(fb)
    covmean = linalg.sqrtm(sa @ sb)
    return float(((ma - mb) ** 2).sum() + np.trace(sa) + np.trace(sb)
                 - 2.0 * np.trace(covmean).real)


def check_fvd(value: float, fa: np.ndarray, fb: np.ndarray, shrinkage: float) -> list:
    return close("fvd", value, frechet_ref(fa, fb, shrinkage), 1e-7)


def motion_ref(video: np.ndarray) -> float:
    total = 0.0
    for t in range(video.shape[0] - 1):
        total += np.abs(video[t + 1] - video[t]).sum()
    return total / (video[0].size * (video.shape[0] - 1))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def check_directional_derivative(analytic: float, numeric: float) -> list:
    """The backward gradient along a direction against a central difference."""
    return close("directional derivative", analytic, numeric, 1e-5)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def digests(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(directory).iterdir()) if p.is_file()}


def check_identical(reference: dict, directory: Path) -> list:
    got = digests(directory)
    if got.keys() != reference.keys():
        return [f"{directory.name}: files {sorted(got)} vs {sorted(reference)}"]
    return [f"{directory.name}/{name}: bytes differ from the first round"
            for name in sorted(got) if got[name] != reference[name]]


def printed_tolerance(text: str) -> float:
    """Half a unit in the last place of a number printed with 6 significant digits."""
    x = abs(float(text))
    return 0.5 * 10.0 ** (math.floor(math.log10(x)) - 5) if x else 0.0


def check_distill_log(path: Path, lambda_icd: float, lambda_mca: float) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[1] != ["step", "task", "icd", "mca_gen", "mca_disc", "total"]:
        return [f"{path.name}: unexpected header {rows[1]}"]
    problems = []
    for row in rows[2:]:
        step, task, icd, gen, disc, total = row
        want = (float(task) + lambda_icd * float(icd)
                + lambda_mca * (float(gen) + float(disc)))
        tol = (printed_tolerance(total) + printed_tolerance(task)
               + lambda_icd * printed_tolerance(icd)
               + lambda_mca * (printed_tolerance(gen) + printed_tolerance(disc)))
        if not abs(float(total) - want) <= tol * (1 + 1e-9):
            problems.append(f"{path.name} step {step}: total {total} vs {want!r}")
        if not all(math.isfinite(float(v)) for v in row[1:]):
            problems.append(f"{path.name} step {step}: non-finite loss")
    if rows[2][0] != "0" or float(rows[2][4]) != 2.0:
        problems.append(f"{path.name}: step 0 mca_disc is {rows[2][4]}, not 2")
    return problems


def _fmt6(value) -> str:
    return str(int(value)) if isinstance(value, int) else format(float(value), ".6g")


def check_summary(out: Path, chash: str) -> list:
    """summary.csv lists every numeric field of every JSON artifact, and no other."""
    want = []
    for path in sorted(out.glob("*.json")):
        doc = json.loads(path.read_text())
        for key, value in sorted(doc.items()):
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                want.append([path.name, chash, key, _fmt6(value)])
    with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != [f"# config_hash={chash}"] or rows[1] != ["artifact", "config_hash", "key", "value"]:
        return ["summary.csv: unexpected header"]
    if rows[2:] != want:
        return [f"summary.csv: {len(rows) - 2} rows do not match the {len(want)} JSON fields"]
    return []
