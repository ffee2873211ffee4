import json
import struct
import zlib

import numpy as np
import pytest

from vdmini import evalkit, synthdata as sd
from vdmini.errors import DatasetError


def test_linear_motion_without_bounce():
    shape = sd.ShapeSpec("rectangle", 2, 1.0, (2, 3), (1, 0), bounce=False)
    cfg = sd.SceneConfig(16, 16, 5, (shape,))
    video = sd.render_scene(cfg)
    # at frame 4 the top-left corner has moved to row 6, column 3
    assert video[4, 0, 6, 3] == 1.0
    assert video[4, 0, 2, 3] == 0.0


def test_two_value_histogram_for_binary_scene():
    shape = sd.ShapeSpec("rectangle", 3, 1.0, (1, 1), (0, 1), bounce=False)
    video = sd.render_scene(sd.SceneConfig(16, 16, 4, (shape,), background=0.0))
    assert set(np.unique(video)) == {0.0, 1.0}


def test_gen_dataset_is_bitwise_deterministic():
    a = sd.gen_dataset(6, 123)
    b = sd.gen_dataset(6, 123)
    assert np.array_equal(a.videos, b.videos)
    assert a.scenes == b.scenes


def test_per_video_seeds_make_subsets_stable():
    small = sd.gen_dataset(3, 9)
    big = sd.gen_dataset(6, 9)
    assert np.array_equal(big.videos[:3], small.videos)


def test_oversized_shape_is_rejected():
    shape = sd.ShapeSpec("rectangle", 40, 1.0, (0, 0), (0, 0), bounce=False)
    with pytest.raises(DatasetError):
        sd.render_scene(sd.SceneConfig(16, 16, 2, (shape,)))


def test_pixels_stay_in_unit_range():
    ds = sd.gen_dataset(8, 5)
    assert ds.videos.min() >= 0.0 and ds.videos.max() <= 1.0


def test_first_frame_condition_contract():
    ds = sd.gen_dataset(1, 0)
    video = ds.tensors()[0]
    cond = sd.first_frame_condition(video)
    assert cond.shape == (1,) + video.shape[1:]
    assert np.array_equal(cond.data[0], video.data[0])


def test_motion_proxy_monotone_in_speed():
    base = sd.ShapeSpec("rectangle", 4, 1.0, (6, 2), (0, 0), bounce=True)
    proxies = []
    for speed in (0, 1, 2, 3):
        shape = sd.ShapeSpec("rectangle", 4, 1.0, (6, 2), (0, speed), bounce=True)
        video = sd.render_scene(sd.SceneConfig(16, 16, 8, (shape,)))
        t = sd.VideoDataset(video[None]).tensors()[0]
        proxies.append(evalkit.motion_dynamics_proxy(t))
    assert proxies[0] == 0.0
    assert all(a <= b for a, b in zip(proxies, proxies[1:]))
    assert proxies[-1] > proxies[0]


def test_round_trip_is_bitwise(tmp_path):
    ds = sd.gen_dataset(4, 2, split="eval")
    path = tmp_path / "clip.vdds"
    sd.save_dataset(ds, path)
    back = sd.load_dataset(path)
    assert np.array_equal(back.videos, ds.videos)
    assert back.scenes == ds.scenes
    assert back.split == "eval"
    assert back.provenance == ds.provenance


def test_empty_dataset_round_trips(tmp_path):
    ds = sd.VideoDataset(np.zeros((0, 4, 1, 8, 8), dtype=np.float32))
    path = tmp_path / "empty.vdds"
    sd.save_dataset(ds, path)
    back = sd.load_dataset(path)
    assert back.videos.shape == (0, 4, 1, 8, 8)


def test_payload_corruption_is_detected(tmp_path):
    ds = sd.gen_dataset(4, 2)
    path = tmp_path / "clip.vdds"
    sd.save_dataset(ds, path)
    blob = bytearray(path.read_bytes())
    blob[-20] ^= 0x01  # a payload byte, not the trailing checksum
    bad = tmp_path / "bad.vdds"
    bad.write_bytes(bytes(blob))
    with pytest.raises(DatasetError):
        sd.load_dataset(bad)


def test_disjoint_seed_ranges_share_no_video():
    train = sd.gen_dataset(8, 100, split="train")
    evals = sd.gen_dataset(8, 200, split="eval")
    assert train.provenance["seed"] != evals.provenance["seed"]
    for video in evals.videos:
        assert not any(np.array_equal(video, tv) for tv in train.videos)


def write_vdds(path, meta: bytes, payload: bytes) -> None:
    """A VDDS file with a valid CRC around the given metadata and payload."""
    body = sd.MAGIC + struct.pack("<IQQ", sd.VERSION, len(meta), len(payload)) + meta + payload
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


GOOD_META = {"split": "train", "shape": [1, 2, 1, 4, 4], "provenance": {}, "scenes": []}
GOOD_PAYLOAD = bytes(4 * 2 * 4 * 4)


def _meta(**changes) -> bytes:
    doc = {k: v for k, v in {**GOOD_META, **changes}.items() if v is not None}
    return json.dumps(doc).encode()


@pytest.mark.parametrize("meta,payload,message", [
    (b"\xff\xfe{}", GOOD_PAYLOAD, "unparseable metadata"),
    (b"{not json", GOOD_PAYLOAD, "unparseable metadata"),
    (b"[1, 2]", GOOD_PAYLOAD, "must be a JSON object"),
    (_meta(shape=None), GOOD_PAYLOAD, "'shape'"),
    (_meta(shape="1x2"), GOOD_PAYLOAD, "'shape'"),
    (_meta(shape=[2, 1, 4, 4]), GOOD_PAYLOAD, "'shape'"),
    (_meta(shape=[1, 2, 1, 4, 4.0]), GOOD_PAYLOAD, "'shape'"),
    (_meta(shape=[1, 2, 1, 4, -4]), GOOD_PAYLOAD, "'shape'"),
    (_meta(shape=[1, 2, 1, 4, True]), GOOD_PAYLOAD, "'shape'"),
    (_meta(split=None), GOOD_PAYLOAD, "'split'"),
    (_meta(split=3), GOOD_PAYLOAD, "'split'"),
    (_meta(scenes=None), GOOD_PAYLOAD, "'scenes'"),
    (_meta(scenes={"a": 1}), GOOD_PAYLOAD, "'scenes'"),
    (_meta(scenes=[{"height": 4}]), GOOD_PAYLOAD, "malformed scene"),
    (_meta(scenes=["x"]), GOOD_PAYLOAD, "malformed scene"),
    (_meta(provenance=[]), GOOD_PAYLOAD, "'provenance'"),
    (_meta(shape=[1, 2, 1, 4, 5]), GOOD_PAYLOAD, "does not match the payload"),
    (_meta(shape=[1, 2, 1, 4, 4]), GOOD_PAYLOAD[:-4], "does not match the payload"),
], ids=["not-utf8", "not-json", "not-object", "no-shape", "shape-str", "shape-4d",
        "shape-float", "shape-negative", "shape-bool", "no-split", "split-int", "no-scenes",
        "scenes-object", "scene-missing-keys", "scene-str", "provenance-list",
        "count-mismatch", "short-payload"])
def test_crc_valid_file_with_bad_metadata_is_a_dataset_error(tmp_path, meta, payload, message):
    path = tmp_path / "bad.vdds"
    write_vdds(path, meta, payload)
    with pytest.raises(DatasetError, match=message):
        sd.load_dataset(path)


def test_crafted_file_with_good_metadata_loads(tmp_path):
    path = tmp_path / "good.vdds"
    write_vdds(path, _meta(), GOOD_PAYLOAD)
    ds = sd.load_dataset(path)
    assert ds.videos.shape == (1, 2, 1, 4, 4) and ds.split == "train" and ds.scenes == []
