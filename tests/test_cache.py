"""Tests for the binary population cache and its CSV export."""

import csv

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
        body = np.frombuffer(raw[52:], dtype="<f8").reshape(-1, 2)
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
