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


V1_HEADER = struct.Struct("<8sIII16sQQ")


def cache_file(tmp_path, notes=None):
    """The 20-symbol N = 16, F = 2 QPSK population of seed 5, through the cache."""
    return v.load_or_build(tmp_path, 16, v.Constellation.QPSK, 20, seed=5, oversample_factor=2,
                           notice=None if notes is None else notes.append)


def other_population(raw):
    """The cache file of seed 999 at the path of seed 5."""
    pop = v.sample_papr_population(16, v.Constellation.QPSK, 20, seed=999, oversample_factor=2)
    return (v.cache._HEADER.pack(b"VLCPAPR1", 2, 16, 2, b"qpsk", 999, 20, v.cache._NUMPY_VERSION)
            + np.column_stack([pop.upapr, pop.lpapr]).astype("<f8").tobytes())


# name -> (the file's new bytes from its old ones, what the discard notice says, and
# whether load_population raises it)
STALE = {
    **{f"{name}-record": (lambda raw, bad=bad: raw[:-8] + struct.pack("<d", bad),
                          "records must be finite and non-negative", True)
       for name, bad in [("nan", np.nan), ("inf", np.inf), ("negative", -1.0)]},
    **{name: (lambda raw, delta=delta: raw[:delta] if delta < 0 else raw + raw[-delta:],
              "expected 20 records, 320 bytes", True)
       for name, delta in [("partial-record", -3), ("missing-record", -16), ("extra-record", 16)]},
    "garbage": (lambda raw: b"garbage", "truncated population cache", True),
    "truncated-header": (lambda raw: raw[:80], "truncated population cache", True),
    "foreign": (lambda raw: b"definitely not a cache file, far too short?" + b"\x00" * 64,
                "not a population cache", True),
    "version-1": (lambda raw: V1_HEADER.pack(b"VLCPAPR1", 1, 16, 2, b"qpsk", 5, 20) + raw[84:],
                  "cache format version 1, this vlcsim reads version 2", True),
    "version-1-header": (lambda raw: V1_HEADER.pack(b"VLCPAPR1", 1, 16, 2, b"qpsk", 5, 0),
                         "cache format version 1", True),
    "other-numpy": (lambda raw: raw[:52] + b"1.26.4".ljust(32, b"\x00") + raw[84:],
                    f"sampled under NumPy 1.26.4, running NumPy {np.__version__}", True),
    "other-population": (other_population, "header does not match the requested population",
                         False),
}


@pytest.mark.parametrize("name", STALE)
def test_stale_file_is_rebuilt_with_one_notice(tmp_path, name):
    """A file that cannot be read, from another format or NumPy, with a record the sampler
    cannot write or another header fails the load naming its path, and is rebuilt once."""
    corrupt, reason, unreadable = STALE[name]
    notes = []
    fresh, _ = cache_file(tmp_path, notes)
    path = v.population_cache_path(tmp_path, 16, v.Constellation.QPSK, 20, 5, 2)
    raw = path.read_bytes()
    path.write_bytes(corrupt(raw))
    if unreadable:
        with pytest.raises(ValueError, match=reason) as info:
            v.load_population(path)
        assert str(info.value).startswith(f"{path}: ")
    pop, cached = cache_file(tmp_path, notes)
    assert not cached and len(notes) == 1
    assert notes[0].startswith(f"discarding {path}: ") and reason in notes[0]
    assert pop.upapr.tobytes() == fresh.upapr.tobytes()
    assert pop.lpapr.tobytes() == fresh.lpapr.tobytes()
    assert path.read_bytes() == raw  # the rebuilt file replaced the stale one
    assert cache_file(tmp_path, notes)[1] and len(notes) == 1  # a hit says nothing


def test_header_records_the_numpy_version(tmp_path, small_pop):
    path = tmp_path / "pop.bin"
    v.save_population(path, small_pop)
    raw = path.read_bytes()
    assert struct.unpack_from("<I", raw, 8)[0] == 2
    assert raw[52:84].rstrip(b"\x00").decode("ascii") == np.__version__
