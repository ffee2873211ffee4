"""Procedurally generated moving-shape video datasets and VDDS files."""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import DatasetError
from .tensor import Tensor


@dataclass(frozen=True)
class ShapeSpec:
    kind: str  # "rectangle" or "disc"
    size: int
    intensity: float
    position: tuple  # (row, col) at frame 0
    velocity: tuple  # (rows/frame, cols/frame)
    bounce: bool = True


@dataclass(frozen=True)
class SceneConfig:
    height: int = 16
    width: int = 16
    frames: int = 8
    shapes: tuple = ()
    background: float = 0.0
    seed: int = 0


@dataclass
class VideoDataset:
    videos: np.ndarray  # (n, F, C, H, W) float32 in [0, 1]
    scenes: list = field(default_factory=list)
    split: str = "train"
    provenance: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.videos)

    def tensors(self) -> list:
        return [Tensor(v.astype(np.float64)) for v in self.videos]


def _reflect(pos: float, lo: float, hi: float) -> float:
    """Reflect a coordinate into [lo, hi] (bouncing at walls)."""
    span = hi - lo
    if span <= 0:
        return lo
    p = (pos - lo) % (2 * span)
    return lo + (span - abs(p - span))


def render_scene(cfg: SceneConfig) -> np.ndarray:
    """Render one (F, 1, H, W) video; intensities clipped to [0, 1]."""
    h, w, f = cfg.height, cfg.width, cfg.frames
    video = np.full((f, 1, h, w), cfg.background, dtype=np.float64)
    for shape in cfg.shapes:
        s = shape.size
        if s > min(h, w):
            raise DatasetError(f"shape size {s} exceeds canvas {h}x{w}")
        for t in range(f):
            r = shape.position[0] + shape.velocity[0] * t
            c = shape.position[1] + shape.velocity[1] * t
            if shape.bounce:
                r = _reflect(r, 0, h - s)
                c = _reflect(c, 0, w - s)
            else:
                r %= h
                c %= w
            r, c = int(round(r)), int(round(c))
            if shape.kind == "rectangle":
                rows = np.arange(r, r + s) % h
                cols = np.arange(c, c + s) % w
                video[t, 0, rows[:, None], cols[None, :]] = shape.intensity
            elif shape.kind == "disc":
                rad = s / 2.0
                yy, xx = np.mgrid[0:h, 0:w]
                mask = (yy - (r + rad - 0.5)) ** 2 + (xx - (c + rad - 0.5)) ** 2 <= rad * rad
                video[t, 0, mask] = shape.intensity
            else:
                raise DatasetError(f"unknown shape kind {shape.kind!r}")
    return np.clip(video, 0.0, 1.0).astype(np.float32)


def random_scene(rng: np.random.Generator, speed: float, seed: int,
                 height: int = 16, width: int = 16, frames: int = 8) -> SceneConfig:
    """One shape with a random start and a velocity of the given speed."""
    kind = "rectangle" if rng.integers(2) == 0 else "disc"
    size = int(rng.integers(3, 7))
    pos = (int(rng.integers(0, height - size + 1)), int(rng.integers(0, width - size + 1)))
    angle = rng.uniform(0, 2 * np.pi)
    vel = (round(speed * np.sin(angle)), round(speed * np.cos(angle)))
    if speed > 0 and vel == (0, 0):
        vel = (0, max(1, round(speed)))
    intensity = float(rng.uniform(0.5, 1.0))
    return SceneConfig(height, width, frames, (ShapeSpec(kind, size, intensity, pos, vel),),
                       background=float(rng.uniform(0.0, 0.2)), seed=seed)


def gen_dataset(n: int, seed: int, split: str = "train", speeds: tuple = (1, 3),
                height: int = 16, width: int = 16, frames: int = 8) -> VideoDataset:
    """Deterministic corpus; per-video seeds derive from (seed, index)."""
    if n < 1:
        raise DatasetError(f"need n >= 1 videos, got {n}")
    videos = []
    scenes = []
    for i in range(n):
        sub = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, i])))
        speed = speeds[i % len(speeds)]
        cfg = random_scene(sub, speed, seed=i, height=height, width=width, frames=frames)
        videos.append(render_scene(cfg))
        scenes.append(cfg)
    provenance = {"seed": seed, "n": n, "split": split, "speeds": list(speeds)}
    return VideoDataset(np.stack(videos), scenes, split, provenance)


def first_frame_condition(video: Tensor) -> Tensor:
    """I2V conditioning: frame 0, shaped (1, C, H, W)."""
    return Tensor(video.data[:1])


# ---------------------------------------------------------------------------
# VDDS files: magic, version, counts, provenance JSON, f32 payload, CRC32
# ---------------------------------------------------------------------------

MAGIC = b"VDDS"
VERSION = 1


def _scene_to_doc(cfg: SceneConfig) -> dict:
    doc = asdict(cfg)
    doc["shapes"] = [asdict(s) for s in cfg.shapes]
    return doc


def _scene_from_doc(doc: dict) -> SceneConfig:
    shapes = tuple(ShapeSpec(s["kind"], s["size"], s["intensity"], tuple(s["position"]),
                             tuple(s["velocity"]), s["bounce"]) for s in doc["shapes"])
    return SceneConfig(doc["height"], doc["width"], doc["frames"], shapes,
                       doc["background"], doc["seed"])


def save_dataset(ds: VideoDataset, path) -> None:
    meta = {
        "split": ds.split,
        "shape": list(ds.videos.shape),
        "provenance": ds.provenance,
        "scenes": [_scene_to_doc(c) for c in ds.scenes],
    }
    meta_raw = json.dumps(meta, sort_keys=True).encode("utf-8")
    payload = np.ascontiguousarray(ds.videos, dtype="<f4").tobytes()
    body = MAGIC + struct.pack("<IQQ", VERSION, len(meta_raw), len(payload)) + meta_raw + payload
    blob = body + struct.pack("<I", zlib.crc32(body))
    tmp = Path(str(path) + ".tmp")
    tmp.write_bytes(blob)
    tmp.replace(path)


def load_dataset(path) -> VideoDataset:
    blob = Path(path).read_bytes()
    if len(blob) < 28:
        raise DatasetError(f"{path}: truncated file")
    body, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) != crc:
        raise DatasetError(f"{path}: checksum mismatch")
    if body[:4] != MAGIC:
        raise DatasetError(f"{path}: bad magic {body[:4]!r}")
    version, meta_len, payload_len = struct.unpack_from("<IQQ", body, 4)
    if version != VERSION:
        raise DatasetError(f"{path}: unsupported version {version}")
    pos = 4 + 4 + 16
    if pos + meta_len + payload_len != len(body):
        raise DatasetError(f"{path}: length mismatch")
    try:  # not UTF-8 is a UnicodeDecodeError, not JSON a JSONDecodeError
        meta = json.loads(body[pos : pos + meta_len].decode("utf-8"))
    except ValueError as exc:
        raise DatasetError(f"{path}: unparseable metadata: {exc}") from None
    if not isinstance(meta, dict):
        raise DatasetError(f"{path}: metadata must be a JSON object")
    for key, ok, want in (
            ("shape", lambda v: isinstance(v, list) and len(v) == 5
             and all(type(d) is int and d >= 0 for d in v), "a list of 5 non-negative integers"),
            ("split", lambda v: isinstance(v, str), "a string"),
            ("scenes", lambda v: isinstance(v, list), "a list"),
            ("provenance", lambda v: isinstance(v, dict), "an object")):
        if not ok(meta.get(key, {})):  # only provenance may be missing
            raise DatasetError(f"{path}: metadata {key!r} must be {want}, "
                               f"got {meta.get(key)!r}")
    shape = tuple(meta["shape"])
    if 4 * math.prod(shape) != payload_len:
        raise DatasetError(f"{path}: shape {shape} does not match the payload of "
                           f"{payload_len} bytes")
    try:
        scenes = [_scene_from_doc(d) for d in meta["scenes"]]
    except (KeyError, TypeError) as exc:
        raise DatasetError(f"{path}: malformed scene: {exc!r}") from None
    videos = np.frombuffer(body[pos + meta_len :], dtype="<f4").reshape(shape).copy()
    return VideoDataset(videos, scenes, meta["split"], meta.get("provenance", {}))
