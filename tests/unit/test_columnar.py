"""Unit tests: the binary columnar container and the codec planes."""

import gc
import os
import weakref

import numpy as np
import pytest

from repro.api.codec import (
    CODEC_VERSION,
    LEGACY_CODEC_VERSION,
    active_codec_version,
    decode_payload,
    encode_payload,
    legacy_codec_forced,
    payload_from_jsonable,
    payload_nbytes,
    payload_to_jsonable,
)
from repro.exec.columnar import MAGIC, read_payload_file, write_payload_atomic
from repro.exec.request import StudyRequest
from repro.exec.stagestore import StageStore
from repro.exec.store import StudyStore, cache_version
from repro.experiments.config import ExperimentConfig

PAYLOAD = {
    "observations": [
        {
            "bbv": np.arange(24, dtype=np.float64).reshape(4, 6),
            "ldv": np.zeros((4, 3)),
            "weights": np.array([1.5, 2.5, 3.5, 4.5]),
            "run_index": 0,
        }
    ],
    "failures": {"ARMv8": "mismatch"},
    "scalar": np.array(2.75),
    "empty": np.empty((0, 28)),
}


def _assert_payload_equal(left, right):
    assert left["failures"] == right["failures"]
    obs_l, obs_r = left["observations"][0], right["observations"][0]
    for key in ("bbv", "ldv", "weights"):
        assert obs_l[key].dtype == obs_r[key].dtype
        assert obs_l[key].shape == obs_r[key].shape
        assert np.array_equal(obs_l[key], obs_r[key])
    assert obs_l["run_index"] == obs_r["run_index"]
    assert left["scalar"].shape == () and left["scalar"] == right["scalar"]
    assert left["empty"].shape == right["empty"].shape


class TestEncodePayload:
    def test_splits_arrays_from_metadata(self):
        meta, arrays = encode_payload(PAYLOAD)
        assert len(arrays) == 5
        assert meta["observations"][0]["bbv"] == {"__ndarray__": 0}
        assert meta["failures"] == {"ARMv8": "mismatch"}

    def test_decode_is_inverse(self):
        meta, arrays = encode_payload(PAYLOAD)
        _assert_payload_equal(decode_payload(meta, arrays), PAYLOAD)

    def test_payload_nbytes_counts_array_mass(self):
        assert payload_nbytes(PAYLOAD) == sum(
            a.nbytes for a in encode_payload(PAYLOAD)[1]
        )
        assert payload_nbytes({"just": "json", "k": [1, 2]}) == 0

    def test_encoding_leaves_no_reference_cycle(self):
        # Encoded arrays must be freed by reference counting once the
        # caller drops them, not kept until the cyclic collector runs.
        array = np.arange(8.0)
        ref = weakref.ref(array)
        gc.disable()
        try:
            meta, arrays = encode_payload({"x": array})
            del array, meta, arrays
            assert ref() is None
        finally:
            gc.enable()

    def test_legacy_plane_is_inverse_too(self):
        jsonable = payload_to_jsonable(PAYLOAD)
        assert jsonable["observations"][0]["bbv"]["dtype"] == "<f8"
        _assert_payload_equal(payload_from_jsonable(jsonable), PAYLOAD)


class TestContainer:
    def test_roundtrip_and_reported_size(self, tmp_path):
        path = tmp_path / "payload.rpb"
        nbytes = write_payload_atomic(path, PAYLOAD)
        payload, size = read_payload_file(path)
        assert size == nbytes == path.stat().st_size
        _assert_payload_equal(payload, PAYLOAD)

    def test_reads_are_zero_copy_and_read_only(self, tmp_path):
        path = tmp_path / "payload.rpb"
        write_payload_atomic(path, PAYLOAD)
        payload, _ = read_payload_file(path)
        bbv = payload["observations"][0]["bbv"]
        assert not bbv.flags.owndata  # a view into the mapping
        assert not bbv.flags.writeable
        with pytest.raises(ValueError):
            bbv[0, 0] = 1.0

    def test_segments_are_aligned(self, tmp_path):
        path = tmp_path / "payload.rpb"
        write_payload_atomic(path, PAYLOAD)
        import json as _json
        import struct

        blob = path.read_bytes()
        assert blob[:4] == MAGIC
        (header_len,) = struct.unpack("<I", blob[4:8])
        header = _json.loads(blob[8 : 8 + header_len])
        for descriptor in header["arrays"]:
            assert descriptor["offset"] % 64 == 0

    def test_missing_file_is_none(self, tmp_path):
        assert read_payload_file(tmp_path / "absent.rpb") is None

    @pytest.mark.parametrize(
        "blob",
        [
            b"",
            b"RPB",
            b"JUNKJUNKJUNK",
            MAGIC + b"\xff\xff\xff\xff",
            MAGIC + b"\x05\x00\x00\x00{tor",
        ],
    )
    def test_corrupt_container_is_deleted_miss(self, tmp_path, blob):
        path = tmp_path / "torn.rpb"
        path.write_bytes(blob)
        assert read_payload_file(path) is None
        assert not path.exists()

    def test_out_of_range_array_index_is_deleted_miss(self, tmp_path):
        # A bit-flipped "__ndarray__" index in an otherwise-valid header
        # must self-heal as a miss, not crash the load.
        import json as _json
        import struct

        path = tmp_path / "payload.rpb"
        write_payload_atomic(path, {"x": np.arange(4)})
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<I", blob[4:8])
        header = _json.loads(blob[8 : 8 + header_len])
        header["meta"]["x"]["__ndarray__"] = 7  # table has one entry
        raw = _json.dumps(header, sort_keys=True).encode()
        raw += b" " * (header_len - len(raw))  # keep offsets valid
        path.write_bytes(blob[:8] + raw + blob[8 + header_len :])
        assert read_payload_file(path) is None
        assert not path.exists()

    def test_truncated_segment_is_deleted_miss(self, tmp_path):
        path = tmp_path / "payload.rpb"
        write_payload_atomic(path, PAYLOAD)
        path.write_bytes(path.read_bytes()[:-64])
        assert read_payload_file(path) is None
        assert not path.exists()

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "payload.rpb"
        write_payload_atomic(path, PAYLOAD)
        write_payload_atomic(path, PAYLOAD)  # overwrite in place
        assert not list(tmp_path.glob("*.tmp"))
        assert len(list(tmp_path.glob("*"))) == 1


class TestCodecSelection:
    def test_binary_codec_is_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FORCE_LEGACY_CODEC", raising=False)
        assert not legacy_codec_forced()
        assert active_codec_version() == CODEC_VERSION
        assert cache_version().endswith(f".{CODEC_VERSION}")

    def test_forcing_legacy_flips_version_and_addresses(self, monkeypatch):
        monkeypatch.delenv("REPRO_FORCE_LEGACY_CODEC", raising=False)
        binary_version = cache_version()
        monkeypatch.setenv("REPRO_FORCE_LEGACY_CODEC", "1")
        assert legacy_codec_forced()
        assert active_codec_version() == LEGACY_CODEC_VERSION
        assert cache_version() != binary_version

    def test_zero_means_not_forced(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_LEGACY_CODEC", "0")
        assert not legacy_codec_forced()


class TestStageStoreCodecs:
    def test_binary_entries_are_containers(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_FORCE_LEGACY_CODEC", raising=False)
        store = StageStore(tmp_path)
        store.store("d" * 64, "profile", PAYLOAD)
        (entry,) = (tmp_path / "stages").rglob("*.*")
        assert entry.suffix == ".rpb"
        _assert_payload_equal(store.load("d" * 64, "profile"), PAYLOAD)
        assert store.stats.bytes_encoded["profile"] > 0
        assert store.stats.bytes_decoded["profile"] > 0

    def test_legacy_entries_are_json(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_LEGACY_CODEC", "1")
        store = StageStore(tmp_path)
        store.store("d" * 64, "profile", PAYLOAD)
        (entry,) = (tmp_path / "stages").rglob("*.*")
        assert entry.suffix == ".json"
        _assert_payload_equal(store.load("d" * 64, "profile"), PAYLOAD)

    def test_codec_flip_relocates_instead_of_raising(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_FORCE_LEGACY_CODEC", raising=False)
        store = StageStore(tmp_path)
        store.store("d" * 64, "profile", PAYLOAD)
        monkeypatch.setenv("REPRO_FORCE_LEGACY_CODEC", "1")
        assert store.load("d" * 64, "profile") is None  # clean miss


class TestStudyStoreArrays:
    REQUEST = StudyRequest("scaling", "MCB", 4)

    def _config(self):
        return ExperimentConfig(discovery_runs=2, repetitions=3, cache_dir="")

    def test_array_payloads_roundtrip_binary(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_FORCE_LEGACY_CODEC", raising=False)
        store = StudyStore(tmp_path, self._config())
        store.store(self.REQUEST, PAYLOAD)
        assert not list(tmp_path.rglob("*.json"))  # routed to a container
        _assert_payload_equal(store.load(self.REQUEST), PAYLOAD)

    def test_array_payloads_roundtrip_legacy(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_LEGACY_CODEC", "1")
        store = StudyStore(tmp_path, self._config())
        store.store(self.REQUEST, PAYLOAD)
        assert not list(tmp_path.rglob("*.rpb"))
        _assert_payload_equal(store.load(self.REQUEST), PAYLOAD)

    def test_all_empty_arrays_still_route_to_a_container(self, tmp_path):
        # payload_nbytes is 0 but a plain-JSON write would choke on the
        # ndarray leaves: presence, not byte mass, picks the format.
        store = StudyStore(tmp_path, self._config())
        payload = {"x": np.array([]), "n": 1}
        store.store(self.REQUEST, payload)
        loaded = store.load(self.REQUEST)
        assert loaded["n"] == 1
        assert isinstance(loaded["x"], np.ndarray) and loaded["x"].size == 0

    def test_spill_reclaim_roundtrip_and_cleanup(self, tmp_path):
        store = StudyStore(tmp_path, self._config())
        ref = store.spill(self.REQUEST, PAYLOAD)
        assert ref is not None and os.path.exists(ref)
        _assert_payload_equal(store.reclaim(ref), PAYLOAD)
        assert not os.path.exists(ref)

    def test_reclaim_of_torn_spill_raises(self, tmp_path):
        store = StudyStore(tmp_path, self._config())
        ref = store.spill(self.REQUEST, PAYLOAD)
        with open(ref, "wb") as handle:
            handle.write(b"torn")
        with pytest.raises(RuntimeError):
            store.reclaim(ref)

    def test_spill_disabled_store(self):
        store = StudyStore("", self._config())
        assert store.spill(self.REQUEST, PAYLOAD) is None
