"""Tests for the binary population cache and its CSV export."""

import csv
import struct

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import vlcsim as v


@pytest.fixture()
def small_pop():
    return v.sample_papr_population(16, v.Constellation.QAM16, 40, seed=77, oversample_factor=2)


class TestBinaryRoundTrip:
    def test_save_load_is_bit_exact(self, tmp_path, small_pop):
        path = tmp_path / "pop.bin"
        v.save_population(path, small_pop)
        loaded = v.load_population(path)
        assert_array_equal(loaded.upapr, small_pop.upapr)
        assert_array_equal(loaded.lpapr, small_pop.lpapr)
        assert loaded.n_subcarriers == 16
        assert loaded.constellation is v.Constellation.QAM16
        assert loaded.seed == 77
        assert loaded.oversample_factor == 2

    def test_record_layout_is_little_endian_pairs(self, tmp_path, small_pop):
        path = tmp_path / "pop.bin"
        v.save_population(path, small_pop)
        raw = path.read_bytes()
        body = np.frombuffer(raw[84:], dtype="<f8").reshape(-1, 2)
        assert_array_equal(body[:, 0], small_pop.upapr)
        assert_array_equal(body[:, 1], small_pop.lpapr)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"definitely not a cache file, far too short?" + b"\x00" * 64)
        with pytest.raises(ValueError):
            v.load_population(path)

    def test_rejects_truncated_file(self, tmp_path, small_pop):
        path = tmp_path / "pop.bin"
        v.save_population(path, small_pop)
        path.write_bytes(path.read_bytes()[:80])
        with pytest.raises(ValueError):
            v.load_population(path)


class TestAtomicSave:
    def test_leaves_no_temporary_file(self, tmp_path, small_pop):
        v.save_population(tmp_path / "pop.bin", small_pop)
        assert [p.name for p in tmp_path.iterdir()] == ["pop.bin"]

    def test_failed_write_keeps_previous_file(self, tmp_path, small_pop, monkeypatch):
        path = tmp_path / "pop.bin"
        v.save_population(path, small_pop)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(v.cache.os, "replace", fail)
        other = v.sample_papr_population(16, v.Constellation.QAM16, 40, seed=78,
                                         oversample_factor=2)
        with pytest.raises(OSError):
            v.save_population(path, other)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["pop.bin"]


class TestLoadOrBuild:
    def test_builds_then_reuses(self, tmp_path):
        pop, cached = v.load_or_build(tmp_path, 16, v.Constellation.QPSK, 20, seed=5,
                                      oversample_factor=2)
        assert not cached
        again, cached = v.load_or_build(tmp_path, 16, v.Constellation.QPSK, 20, seed=5,
                                        oversample_factor=2)
        assert cached
        assert_array_equal(pop.upapr, again.upapr)

    def test_seed_beyond_u64_is_rejected_before_anything_is_cached(self, tmp_path):
        """The header's seed field is a uint64, so such a seed never reaches it."""
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            v.load_or_build(tmp_path, 16, v.Constellation.QPSK, 5, seed=2 ** 64)
        assert not any(tmp_path.iterdir())

    def test_mismatched_header_triggers_rebuild(self, tmp_path):
        path = v.population_cache_path(tmp_path, 16, v.Constellation.QPSK, 20, 5, 2)
        stale = v.sample_papr_population(16, v.Constellation.QPSK, 20, seed=999,
                                         oversample_factor=2)
        v.save_population(path, stale)
        pop, cached = v.load_or_build(tmp_path, 16, v.Constellation.QPSK, 20, seed=5,
                                      oversample_factor=2)
        assert not cached
        assert pop.seed == 5
        assert v.load_population(path).seed == 5  # rebuilt file replaced the stale one

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_impossible_record_triggers_rebuild(self, tmp_path, bad):
        """A NaN, infinite or negative record fails the load and is rebuilt with one notice."""
        path = v.population_cache_path(tmp_path, 16, v.Constellation.QPSK, 20, 5, 2)
        fresh, _ = v.load_or_build(tmp_path, 16, v.Constellation.QPSK, 20, seed=5,
                                   oversample_factor=2)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<d", raw, len(raw) - 8, bad)  # the last lpapr
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="finite and non-negative"):
            v.load_population(path)
        notes = []
        pop, cached = v.load_or_build(tmp_path, 16, v.Constellation.QPSK, 20, seed=5,
                                      oversample_factor=2, notice=notes.append)
        assert not cached
        assert len(notes) == 1 and "finite and non-negative" in notes[0]
        assert_array_equal(pop.upapr, fresh.upapr)
        assert_array_equal(pop.lpapr, fresh.lpapr)

    @pytest.mark.parametrize("delta", [-3, -16, 16],
                             ids=["partial-record", "missing-record", "extra-record"])
    def test_body_of_another_record_count_triggers_rebuild(self, tmp_path, delta):
        """A body that is not the header's 20 whole records fails the load with the path
        and the expected count, before frombuffer can raise without them."""
        path = v.population_cache_path(tmp_path, 16, v.Constellation.QPSK, 20, 5, 2)
        fresh, _ = v.load_or_build(tmp_path, 16, v.Constellation.QPSK, 20, seed=5,
                                   oversample_factor=2)
        raw = path.read_bytes()
        path.write_bytes(raw[:delta] if delta < 0 else raw + raw[-delta:])
        with pytest.raises(ValueError, match="expected 20 records") as info:
            v.load_population(path)
        assert str(info.value).startswith(f"{path}: ")
        notes = []
        pop, cached = v.load_or_build(tmp_path, 16, v.Constellation.QPSK, 20, seed=5,
                                      oversample_factor=2, notice=notes.append)
        assert not cached
        assert len(notes) == 1 and notes[0].startswith(f"discarding {path}: expected 20 records")
        assert_array_equal(pop.upapr, fresh.upapr)
        assert path.read_bytes() == raw

    def test_corrupt_file_triggers_rebuild(self, tmp_path):
        path = v.population_cache_path(tmp_path, 16, v.Constellation.QPSK, 20, 5, 2)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"garbage")
        pop, cached = v.load_or_build(tmp_path, 16, v.Constellation.QPSK, 20, seed=5,
                                      oversample_factor=2)
        assert not cached
        assert len(pop) == 20


class TestCacheDirResolution:
    def test_env_var_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(v.CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
        assert v.resolve_cache_dir("out") == tmp_path / "elsewhere"

    def test_defaults_under_output_dir(self, monkeypatch):
        monkeypatch.delenv(v.CACHE_DIR_ENV, raising=False)
        assert v.resolve_cache_dir("out").parts[-2:] == ("out", "papr_cache")


class TestPopulationCsv:
    def test_layout(self, tmp_path, small_pop):
        path = tmp_path / "pop.csv"
        v.write_population_csv(path, small_pop)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "upapr", "lpapr"]
        assert len(rows) == len(small_pop) + 1
        assert float(rows[1][1]) == small_pop.upapr[0]
        assert float(rows[-1][2]) == small_pop.lpapr[-1]


class TestFormatVersion2:
    V1_HEADER = struct.Struct("<8sIII16sQQ")

    def build(self, tmp_path, notes):
        return v.load_or_build(tmp_path, 16, v.Constellation.QPSK, 20, seed=5,
                               oversample_factor=2, notice=notes.append)

    def test_header_records_the_numpy_version(self, tmp_path, small_pop):
        path = tmp_path / "pop.bin"
        v.save_population(path, small_pop)
        raw = path.read_bytes()
        assert struct.unpack_from("<I", raw, 8)[0] == 2
        assert raw[52:84].rstrip(b"\x00").decode("ascii") == np.__version__

    def test_version_1_file_is_rebuilt_with_a_notice(self, tmp_path):
        pop = v.sample_papr_population(16, v.Constellation.QPSK, 20, seed=5,
                                       oversample_factor=2)
        path = v.population_cache_path(tmp_path, 16, v.Constellation.QPSK, 20, 5, 2)
        path.parent.mkdir(parents=True, exist_ok=True)
        records = np.column_stack([pop.upapr, pop.lpapr]).astype("<f8").tobytes()
        path.write_bytes(self.V1_HEADER.pack(b"VLCPAPR1", 1, 16, 2, b"qpsk", 5, 20) + records)
        notes = []
        rebuilt, cached = self.build(tmp_path, notes)
        assert not cached
        assert len(notes) == 1 and "version 1" in notes[0] and str(path) in notes[0]
        assert_array_equal(rebuilt.upapr, pop.upapr)
        assert struct.unpack_from("<I", path.read_bytes(), 8)[0] == 2

    def test_other_numpy_version_is_rebuilt_with_a_notice(self, tmp_path):
        notes = []
        pop, _ = self.build(tmp_path, notes)
        path = v.population_cache_path(tmp_path, 16, v.Constellation.QPSK, 20, 5, 2)
        raw = bytearray(path.read_bytes())
        raw[52:84] = b"1.26.4".ljust(32, b"\x00")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="NumPy 1.26.4"):
            v.load_population(path)
        rebuilt, cached = self.build(tmp_path, notes)
        assert not cached
        assert len(notes) == 1
        assert "1.26.4" in notes[0] and np.__version__ in notes[0]
        assert_array_equal(rebuilt.lpapr, pop.lpapr)
        assert path.read_bytes()[52:84].rstrip(b"\x00").decode("ascii") == np.__version__
        assert self.build(tmp_path, notes)[1] and len(notes) == 1  # a hit says nothing

    def test_load_population_rejects_version_1(self, tmp_path):
        path = tmp_path / "old.bin"
        path.write_bytes(self.V1_HEADER.pack(b"VLCPAPR1", 1, 16, 2, b"qpsk", 5, 0))
        with pytest.raises(ValueError, match="version 1"):
            v.load_population(path)
