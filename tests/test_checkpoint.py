"""Checkpoint container: round trips, CRC, version gating, malformed
records."""

import struct
import zlib
from importlib import resources

import numpy as np
import pytest

from aoi_uav import cli
from aoi_uav.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointError,
    dump_tensors,
    load,
    load_tensors,
    save,
)
from aoi_uav.config import TrainConfig, tiny_scenario
from aoi_uav.config_io import load_config
from aoi_uav.trainer import build_bundle, bundle_from_tensors, bundle_to_tensors


def sample_tensors():
    rng = np.random.default_rng(3)
    return {
        "actor0/w": rng.normal(size=(4, 3)),
        "actor0/b": rng.normal(size=4),
        "critic/scalar": np.array(2.5),
    }


class TestContainer:
    def test_round_trip_values(self):
        tensors = sample_tensors()
        loaded = load_tensors(dump_tensors(tensors))
        assert list(loaded) == list(tensors)
        for k in tensors:
            np.testing.assert_array_equal(loaded[k], tensors[k])

    def test_save_load_save_identical_bytes(self):
        blob = dump_tensors(sample_tensors())
        again = dump_tensors(load_tensors(blob))
        assert blob == again

    @pytest.mark.parametrize("shape", [(), (0,), (2, 0, 3)], ids=str)
    def test_round_trip_keeps_rank_and_empty_dims(self, shape):
        tensors = {"t": np.full(shape, 3.0), "after": np.arange(2.0)}
        blob = dump_tensors(tensors)
        loaded = load_tensors(blob)
        assert loaded["t"].shape == shape
        np.testing.assert_array_equal(loaded["t"], tensors["t"])
        np.testing.assert_array_equal(loaded["after"], tensors["after"])
        assert dump_tensors(loaded) == blob

    def test_loaded_arrays_are_owned_copies(self):
        blob = dump_tensors(sample_tensors())
        raw = np.frombuffer(blob, dtype=np.uint8)
        for array in load_tensors(blob).values():
            assert array.dtype == np.float64
            assert array.flags.c_contiguous and array.flags.writeable
            assert array.flags.owndata and not np.shares_memory(array, raw)

    def test_dump_reads_non_contiguous_and_non_float_input(self):
        rng = np.random.default_rng(1)
        grid = rng.normal(size=(3, 4))
        blob = dump_tensors({"t": grid.T, "i": np.arange(3)})
        assert blob == dump_tensors({"t": grid.T.copy(), "i": np.arange(3.0)})
        assert load_tensors(blob)["t"].shape == (4, 3)

    def test_save_writes_the_dump_bytes(self, tmp_path):
        tensors = sample_tensors()
        path = tmp_path / "t.ckpt"
        save(str(path), tensors)
        assert path.read_bytes() == dump_tensors(tensors)
        assert dump_tensors(load(str(path))) == dump_tensors(tensors)

    def test_magic_prefix(self):
        assert dump_tensors({})[:8] == MAGIC == b"AOIUAV1\x00"

    def test_single_byte_corruption_detected(self):
        blob = bytearray(dump_tensors(sample_tensors()))
        for pos in (5, 12, len(blob) // 2, len(blob) - 6):
            bad = bytearray(blob)
            bad[pos] ^= 0x01
            with pytest.raises(CheckpointError):
                load_tensors(bytes(bad))

    def test_unknown_version_rejected(self):
        import zlib
        body = MAGIC + struct.pack("<I", 99)
        blob = body + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(CheckpointError, match="version"):
            load_tensors(blob)

    def test_truncated_rejected(self):
        with pytest.raises(CheckpointError):
            load_tensors(b"AOI")


def with_crc(records: bytes) -> bytes:
    """A container of raw ``records`` whose header and CRC are right."""
    body = MAGIC + struct.pack("<I", FORMAT_VERSION) + records
    return body + struct.pack("<I", zlib.crc32(body))


# One well-formed record: name length 1, "w", rank 1, dim 4, 32 payload bytes.
W = dump_tensors({"w": np.arange(4.0)})[12:-4]
MALFORMED = {
    "name-past-end": struct.pack("<I", 99) + b"w",
    "rank-without-dims": struct.pack("<I", 1) + b"w" + struct.pack("<I", 2),
    "short-payload": W[:-8],
    "name-not-utf8": struct.pack("<I", 2) + b"\xff\xfe" + W[5:],
    "repeated-name": W + W,
    "dims-overflow": struct.pack("<I", 1) + b"w" + struct.pack("<4I", 3, *[2**32 - 1] * 3),
}


@pytest.mark.parametrize("records", MALFORMED.values(), ids=MALFORMED)
class TestMalformedRecords:
    # Each container passes the CRC check, so only the record parser sees
    # what is wrong with it.
    def test_load_raises_checkpoint_error(self, records):
        assert load_tensors(with_crc(W)).keys() == {"w"}
        with pytest.raises(CheckpointError, match="malformed record"):
            load_tensors(with_crc(records))

    def test_eval_exits_4(self, records, tmp_path, capsys):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(with_crc(records))
        assert cli.main(["eval", "--config", "tiny", "--policy", "learned",
                         "--checkpoint", str(path)]) == 4
        assert capsys.readouterr().err.startswith("checkpoint error: malformed record")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=str)
def test_non_finite_weight_behind_valid_crc_exit_4(value, tmp_path, capsys):
    # The CRC guards the bytes, not the values: the loader rejects the
    # tensor, so eval does not play a policy whose logits are NaN.
    preset = str(resources.files("aoi_uav").joinpath("presets", "tiny.cfg"))
    scenario, tconf, _ = load_config(preset)
    tensors = bundle_to_tensors(build_bundle(scenario, tconf, seed=0))
    path = tmp_path / "ep_0.ckpt"
    save(str(path), tensors)
    assert dump_tensors(load(str(path))) == path.read_bytes()
    tensors["actor0/w_out"][0, 0] = value
    save(str(path), tensors)
    with pytest.raises(CheckpointError, match="'actor0/w_out' holds a non-finite"):
        load(str(path))
    assert cli.main(["eval", "--config", "tiny", "--policy", "learned",
                     "--episodes", "2", "--checkpoint", str(path)]) == 4
    assert "'actor0/w_out' holds a non-finite" in capsys.readouterr().err


class TestBundleSerialization:
    def test_bundle_round_trip(self):
        scen = tiny_scenario()
        tconf = TrainConfig(hidden_size=8, head_hidden=8,
                            critic_hidden1=8, critic_hidden2=8)
        bundle = build_bundle(scen, tconf, seed=5)
        tensors = bundle_to_tensors(bundle)
        blob = dump_tensors(tensors)
        restored = bundle_from_tensors(load_tensors(blob), scen, tconf)
        for name, t in bundle.parameters().items():
            np.testing.assert_array_equal(restored.parameters()[name].data, t.data)

    def test_bundle_adopts_the_arrays_it_is_given(self):
        scen = tiny_scenario()
        tconf = TrainConfig(hidden_size=8, head_hidden=8,
                            critic_hidden1=8, critic_hidden2=8)
        tensors = load_tensors(dump_tensors(
            bundle_to_tensors(build_bundle(scen, tconf, seed=5))))
        restored = bundle_from_tensors(tensors, scen, tconf)
        for name, t in restored.parameters().items():
            assert t.data is tensors[name]

    def test_architecture_mismatch_rejected(self):
        scen = tiny_scenario()
        small = TrainConfig(hidden_size=8, head_hidden=8,
                            critic_hidden1=8, critic_hidden2=8)
        big = TrainConfig(hidden_size=16, head_hidden=8,
                          critic_hidden1=8, critic_hidden2=8)
        tensors = bundle_to_tensors(build_bundle(scen, small, seed=0))
        with pytest.raises(ValueError):
            bundle_from_tensors(tensors, scen, big)
