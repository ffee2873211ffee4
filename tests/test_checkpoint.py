import struct
import zlib

import numpy as np
import pytest

from vdmini.checkpoint import load_checkpoint, save_checkpoint
from vdmini.errors import CheckpointError
from vdmini.tensor import Tensor


def _params(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "a.w": Tensor(rng.standard_normal((3, 4))),
        "a.b": Tensor(rng.standard_normal(3)),
        "deep.block.conv.w": Tensor(rng.standard_normal((2, 3, 3, 3))),
        "scalarish": Tensor(rng.standard_normal(1)),
    }


def test_round_trip_is_bitwise(tmp_path):
    params = _params()
    path = tmp_path / "model.vdmk"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert sorted(loaded) == sorted(params)
    for name in params:
        assert np.array_equal(loaded[name].data, params[name].data)
        assert loaded[name].requires_grad


def test_round_trip_keeps_a_0d_tensor_0d(tmp_path):
    path = tmp_path / "model.vdmk"
    save_checkpoint({"s": Tensor(np.array(0.5)), "v": Tensor(np.array([0.25]))}, path)
    loaded = load_checkpoint(path)
    assert loaded["s"].shape == () and loaded["s"].item() == 0.5
    assert loaded["v"].shape == (1,) and loaded["v"].item() == 0.25


def test_single_byte_corruption_is_detected(tmp_path):
    path = tmp_path / "model.vdmk"
    save_checkpoint(_params(), path)
    blob = bytearray(path.read_bytes())
    for offset in (5, len(blob) // 2, len(blob) - 10):
        mutated = bytearray(blob)
        mutated[offset] ^= 0xFF
        bad = tmp_path / f"bad{offset}.vdmk"
        bad.write_bytes(bytes(mutated))
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)


def test_truncation_is_detected(tmp_path):
    path = tmp_path / "model.vdmk"
    save_checkpoint(_params(), path)
    blob = path.read_bytes()
    bad = tmp_path / "short.vdmk"
    bad.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)


def test_no_partial_file_left_behind(tmp_path):
    path = tmp_path / "model.vdmk"
    save_checkpoint(_params(), path)
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_empty_checkpoint_round_trips(tmp_path):
    path = tmp_path / "empty.vdmk"
    save_checkpoint({}, path)
    assert load_checkpoint(path) == {}


def _reference_encoding(params) -> bytes:
    """The whole file built in memory, as the format defines it."""
    names = sorted(params)
    directory, payload = bytearray(), bytearray()
    for name in names:
        data = np.ascontiguousarray(params[name].data, dtype="<f8")
        raw = name.encode("utf-8")
        directory += struct.pack("<I", len(raw)) + raw
        directory += struct.pack("<Q", data.ndim)
        directory += struct.pack(f"<{data.ndim}Q", *data.shape) if data.ndim else b""
        directory += struct.pack("<Q", len(payload))
        payload += data.tobytes()
    body = b"VDMK" + struct.pack("<II", 1, len(names)) + bytes(directory) + bytes(payload)
    return body + struct.pack("<I", zlib.crc32(body))


@pytest.mark.parametrize("params", [_params(), {}], ids=["params", "empty"])
def test_saved_bytes_equal_the_reference_encoding(tmp_path, params):
    path = tmp_path / "model.vdmk"
    save_checkpoint(params, path)
    assert path.read_bytes() == _reference_encoding(params)


def _crc_valid(path, entries, payload=b""):
    """A file with a valid CRC whose directory lists `entries` of
    (raw name bytes, dims, offset)."""
    body = b"VDMK" + struct.pack("<II", 1, len(entries))
    for raw, dims, offset in entries:
        body += struct.pack(f"<I{len(raw)}sQ{len(dims)}QQ", len(raw), raw, len(dims), *dims, offset)
    body += payload
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    return path


@pytest.mark.parametrize("entries,message", [
    ([(b"w", (1 << 62, 4), 0)], "out of bounds"),  # 2**64 elements: 0 in int64
    ([(b"w", (1,), 4)], "not 8-byte aligned"),
    ([(b"\xff\xfe", (1,), 0)], "not UTF-8"),
    ([(b"w", (0, 1 << 63), 0)], "unusable shape"),
    ([(b"w", (1,) * 65, 0)], "unusable shape"),
    ([(b"w.a", (1,), 0), (b"w.b", (1,), 8), (b"w.a", (1,), 8)], "'w.a' is named twice"),
], ids=["int64-overflow", "misaligned", "name-not-utf8", "zero-size-huge-dim", "rank-65",
        "duplicate-name"])
def test_crc_valid_file_with_a_bad_directory_is_a_checkpoint_error(tmp_path, entries, message):
    path = _crc_valid(tmp_path / "bad.vdmk", entries, payload=np.arange(2.0).tobytes())
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_directory_longer_than_the_file_is_a_checkpoint_error(tmp_path):
    body = b"VDMK" + struct.pack("<IIIsQ", 1, 1, 1, b"w", 1 << 60)  # rank 2**60
    path = tmp_path / "bad.vdmk"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(CheckpointError, match="truncated directory"):
        load_checkpoint(path)


def test_save_and_load_hold_no_whole_file_copy(tmp_path, traced_peak):
    rng = np.random.default_rng(3)
    params = {f"layer{i}.w": Tensor(rng.standard_normal((128, 1024))) for i in range(4)}
    params["layer4.b"] = Tensor(rng.standard_normal(7))
    payload = sum(t.data.nbytes for t in params.values())  # about 4 MB
    path = tmp_path / "big.vdmk"
    _, save_peak = traced_peak(lambda: save_checkpoint(params, path))
    loaded, load_peak = traced_peak(lambda: load_checkpoint(path))
    assert save_peak < 1.25 * payload, save_peak / payload
    assert load_peak < 1.25 * payload, load_peak / payload
    # read-only, 64-byte-aligned arrays, each cut from a buffer of its own,
    # so none keeps another alive
    buffers = []
    for t in loaded.values():
        assert t.data.ctypes.data % 64 == 0
        a = t.data
        while isinstance(a.base, np.ndarray):
            a = a.base
        buffers.append(id(a))
    assert len(set(buffers)) == len(loaded)
    assert not any(t.data.flags.writeable for t in loaded.values())
    assert all(np.array_equal(loaded[n].data, params[n].data) for n in params)
