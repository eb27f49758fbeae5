"""Tests for the command-line front end: exit codes, outputs, reproducibility."""

import numpy as np
import pytest

import vlcsim as v
from vlcsim.cli import _SUBCOMMANDS, main


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(v.CACHE_DIR_ENV, str(tmp_path / "shared_cache"))


def write_cfg(tmp_path, **overrides):
    base = dict(n_subcarriers=16, symbol_count=60, oversample_factor=2, seed=11,
                lambdas="0.2", gammas="0.3", dnr_db_start=0, dnr_db_stop=20,
                dnr_db_step=10, zeta_step=0.05, gamma_step=0.05)
    base.update(overrides)
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {val}\n" for k, val in base.items()))
    return path


class TestExitCodes:
    def test_selftest_passes(self, tmp_path):
        assert run("selftest", "--n", 16, "--symbols", 50, "--oversample", 2,
                   "--out", tmp_path / "out") == 0

    def test_selftest_checks_the_sampler_against_numpy_seeding(self, tmp_path, monkeypatch,
                                                               capsys):
        """States corrupted past each chunk's first row escape the canary, not selftest."""
        seed_states = v.ofdm._seed_states

        def corrupted(seed, start, stop):
            states = seed_states(seed, start, stop)
            states[1:, 2] ^= np.uint64(1)
            return states

        monkeypatch.setattr(v.ofdm, "_seed_states", corrupted)
        assert run("selftest", "--n", 16, "--oversample", 2, "--out", tmp_path / "out") == 3
        assert "[selftest] FAIL block sampler " in capsys.readouterr().out

    def test_invalid_config_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("symbol_count = 0\n")
        assert run("papr-sample", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "symbol_count" in capsys.readouterr().err

    def test_unknown_key_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wavelength = 450\n")
        assert run("papr-sample", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "wavelength" in capsys.readouterr().err

    def test_malformed_dnr_range(self, tmp_path):
        assert run("rate-sweep", "--dnr-db", "0:60", "--out", tmp_path / "out") == 2

    @pytest.mark.parametrize("dnr_db", ["0:inf:2", "nan:10:2"])
    def test_non_finite_dnr_range_is_a_config_error(self, tmp_path, capsys, dnr_db):
        assert run("rate-sweep", "--dnr-db", dnr_db, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "config error: dnr_db_st" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("subcommand,flags,config,key", [
        ("rate-sweep", ["--dnr-db", "0:60:1e-9"], "", "dnr_db_step"),
        ("rate-sweep", ["--dnr-db", "0:4000:1000"], "", "dnr_db_stop"),
        ("optimize-gamma", [], "gamma_step = 1e-12", "gamma_step"),
        ("rate-sweep", ["--gamma", "auto"], "gamma_step = 1e-12", "gamma_step"),
        ("rate-sweep", ["--lambda", "0.1,0.2", "--gamma", "0.3,0.4"], "dnr_db_step = 0.0002",
         "dnr_db_step"),
        ("variance-sweep", [], "zeta_step = 1e-12", "zeta_step"),
    ])
    def test_oversized_grid_is_a_config_error(self, tmp_path, capsys, subcommand, flags,
                                              config, key):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(config + "\n")
        assert run(subcommand, "--config", cfg, *flags, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"config error: {key}" in err
        assert "Traceback" not in err
        # rejected before a population is sampled or a table written
        assert not (tmp_path / "shared_cache").exists()
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("subcommand,flags,overrides", [
        ("papr-sample", ["--dnr-db=0:60:0.00001"], {}),
        ("waveform-demo", ["--dnr-db=0:60:0.00001"], {}),
        ("selftest", ["--dnr-db=0:60:0.00001"], {}),
        ("papr-sample", [], {"zeta_step": 1e-12}),
        ("waveform-demo", [], {"zeta_step": 1e-12}),
        ("selftest", [], {"zeta_step": 1e-12}),
        ("rate-sweep", [], {"zeta_step": 1e-12}),
        ("optimize-gamma", [], {"zeta_step": 1e-12}),
        ("variance-sweep", ["--dnr-db=0:4000:1000"], {}),
    ])
    def test_runs_bound_only_the_grids_they_build(self, tmp_path, capsys, subcommand, flags,
                                                   overrides):
        cfg = write_cfg(tmp_path, **overrides)
        assert run(subcommand, "--config", cfg, *flags, "--out", tmp_path / "out") == 0
        assert "config error" not in capsys.readouterr().err

    def test_repeated_n_list_entry_is_a_config_error(self, tmp_path, capsys):
        assert run("variance-sweep", "--n-list", "16,32,16", "--symbols", 5,
                   "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "config error: n_list: entries must not repeat" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand", ["rate-sweep", "papr-sample"])
    def test_search_budget_spares_runs_without_a_search(self, tmp_path, subcommand):
        cfg = write_cfg(tmp_path, gamma_step=1e-12)
        assert run(subcommand, "--config", cfg, "--out", tmp_path / "out") == 0

    def test_waveform_demo_rejects_auto_gamma(self, tmp_path, capsys):
        assert run("waveform-demo", "--n", 16, "--symbols", 3, "--oversample", 2,
                   "--lambda", "0.25", "--gamma", "auto", "--out", tmp_path / "out") == 2
        assert "gammas" in capsys.readouterr().err

    def test_waveform_demo_rejects_an_empty_ratio_list(self, tmp_path, capsys):
        assert run("waveform-demo", "--gamma", ",", "--symbols", 5,
                   "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "config error: gammas" in err
        assert "Traceback" not in err

    def test_unreachable_ratio_fails_before_sampling(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the population was sampled")

        monkeypatch.setattr(v.cache, "sample_papr_population", refuse)
        assert run("rate-sweep", "--lambda", "0.1,0.3", "--gamma", "0.3,0.2",
                   "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "forward ratio 0.2 < effective brightness 0.3" in err
        assert "Traceback" not in err
        assert not (tmp_path / "shared_cache").exists()

    @pytest.mark.parametrize("subcommand", ["rate-sweep", "waveform-demo"])
    def test_unreachable_ratio_names_its_key(self, tmp_path, capsys, subcommand):
        assert run(subcommand, "--n", 16, "--symbols", 5, "--lambda", "0.3", "--gamma", "0.2",
                   "--out", tmp_path / "out") == 2
        assert ("vlcsim: config error: gammas: forward ratio 0.2 < effective brightness 0.3"
                in capsys.readouterr().err)

    def test_ratio_below_a_tiny_brightness_is_a_config_error(self, tmp_path, capsys):
        assert run("rate-sweep", "--lambda", "2e-16", "--gamma", "1e-16", "--symbols", 5,
                   "--n", 16, "--dnr-db", "0:0:1", "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "vlcsim: config error: gammas: forward ratio 1e-16 < effective brightness 2e-16" in err
        assert "Traceback" not in err

    def test_seed_beyond_u64_is_a_config_error(self, tmp_path, capsys):
        assert run("papr-sample", "--n", 16, "--symbols", 5, "--seed", 2 ** 64,
                   "--out", tmp_path / "out") == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unreadable_config_file_is_a_config_error(self, tmp_path, capsys):
        assert run("papr-sample", "--config", tmp_path / "missing.cfg",
                   "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "config error: config: cannot read" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("n_list", ["", ",,"])
    def test_empty_n_list_is_a_config_error(self, tmp_path, capsys, n_list):
        assert run("variance-sweep", "--n-list", n_list, "--symbols", 5,
                   "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "config error: n_list" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags,key", [
        (["--out", "run#1"], "output_dir"),
        (["--out", "a\nb"], "output_dir"),
        (["--out", "a\r\nb"], "output_dir"),
        (["--out", "a\u2028b"], "output_dir"),
        (["--out", "run\n"], "output_dir"),
        (["--lambda", "0.1#0.3", "--gamma", "0.2"], "lambdas"),
        (["--lambda", "0.1,\n0.3", "--gamma", "0.4"], "lambdas"),
        (["--gamma", "0.2#0.4"], "gammas"),
        (["--gamma", "auto\n"], "gammas"),
        (["--n-list", "16#32"], "n_list"),
        (["--dnr-db", "0:0:1#2"], "dnr_db_step"),
        (["--dnr-db", "0\n:0:1"], "dnr_db_start"),
    ])
    def test_flag_value_with_a_comment_or_line_break_names_its_key(self, tmp_path, monkeypatch,
                                                                   capsys, flags, key):
        """'#' starts a comment and a line break ends a key = value line: neither is cut."""
        monkeypatch.chdir(tmp_path)
        argv = ["--n", 16, "--symbols", 5, "--lambda", "0.2", "--dnr-db", "0:0:1", "--out", "out"]
        assert run("rate-sweep", *argv, *flags) == 2
        err = capsys.readouterr().err
        assert f"vlcsim: config error: {key}: cannot contain '#' or a line break, got " in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []  # no output directory, no cache

    def test_output_under_regular_file_is_an_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        assert run("papr-sample", "--n", 16, "--symbols", 5,
                   "--out", blocker / "out") == 4
        assert "I/O error" in capsys.readouterr().err

    def test_out_of_memory_is_exit_5(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 16.0 TiB")

        monkeypatch.setattr(v.cache, "sample_papr_population", exhausted)
        assert run("papr-sample", "--n", 16, "--symbols", 5, "--out", tmp_path / "out") == 5
        err = capsys.readouterr().err
        assert "out of memory" in err and "symbol_count" in err and "gamma_step" in err
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if line.startswith("vlcsim:")]) == 1


class TestPaprSample:
    def test_cache_from_another_numpy_is_rebuilt_with_a_notice(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert run("papr-sample", "--config", cfg, "--out", out) == 0
        first = (out / "papr_population.csv").read_bytes()
        [cache_file] = (tmp_path / "shared_cache").iterdir()
        raw = bytearray(cache_file.read_bytes())
        raw[52:84] = b"1.26.4".ljust(32, b"\x00")
        cache_file.write_bytes(bytes(raw))
        capsys.readouterr()
        assert run("papr-sample", "--config", cfg, "--out", out) == 0
        err = capsys.readouterr().err
        assert "[vlcsim] discarding" in err and "NumPy 1.26.4" in err and "cache miss" in err
        assert (out / "papr_population.csv").read_bytes() == first

    def test_writes_csv_cache_and_manifest(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert run("papr-sample", "--config", cfg, "--out", out) == 0
        assert (out / "papr_population.csv").exists()
        assert (out / "papr-sample.manifest.txt").exists()
        assert "cache miss" in capsys.readouterr().err
        # second run reuses the cache
        assert run("papr-sample", "--config", cfg, "--out", out) == 0
        assert "cached population" in capsys.readouterr().err

    def test_quick_caps_symbol_count(self, tmp_path):
        cfg = write_cfg(tmp_path, symbol_count=5000)
        out = tmp_path / "out"
        assert run("papr-sample", "--config", cfg, "--out", out, "--quick") == 0
        manifest = (out / "papr-sample.manifest.txt").read_text()
        assert "symbol_count = 1000" in manifest


class TestManifestReproducibility:
    SUBCOMMANDS = {
        "papr-sample": ["papr_population.csv"],
        "variance-sweep": ["variance_profile.csv", "variance_peaks.csv"],
        "rate-sweep": ["rates.csv"],
        "optimize-gamma": ["gamma_search.csv"],
        "waveform-demo": ["waveform_biasing.csv", "waveform_pwm.csv"],
    }

    @pytest.mark.parametrize("subcommand", sorted(SUBCOMMANDS))
    def test_rerun_from_manifest_is_byte_identical(self, tmp_path, subcommand):
        cfg = write_cfg(tmp_path, n_list="16, 32")
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert run(subcommand, "--config", cfg, "--out", first) == 0
        manifest = first / f"{subcommand}.manifest.txt"
        assert manifest.exists()
        assert run(subcommand, "--config", manifest, "--out", second,
                   "--workers", 3) == 0
        for name in self.SUBCOMMANDS[subcommand]:
            assert (first / name).read_bytes() == (second / name).read_bytes()


class TestOutputs:
    def test_variance_sweep_covers_all_requested_sizes(self, tmp_path):
        cfg = write_cfg(tmp_path, n_list="16, 32")
        out = tmp_path / "out"
        assert run("variance-sweep", "--config", cfg, "--out", out) == 0
        text = (out / "variance_profile.csv").read_text().splitlines()
        assert text[0] == "n_subcarriers,zeta,mean_sigma_y2"
        sizes = {line.split(",")[0] for line in text[1:]}
        assert sizes == {"16", "32"}
        peaks = (out / "variance_peaks.csv").read_text().splitlines()
        assert len(peaks) == 3
        for line in text[1:] + peaks[1:]:
            for field in line.split(","):
                float(field)  # plain parseable numbers, no numpy reprs

    def test_variance_sweep_step_just_above_a_divisor_of_half(self, tmp_path):
        """k * step rounds past 0.5; the grid holds 0.5 once, in order."""
        cfg = write_cfg(tmp_path, zeta_step=0.10000000000010001)
        out = tmp_path / "out"
        assert run("variance-sweep", "--config", cfg, "--n", 16, "--symbols", 50, "--out", out) == 0
        rows = (out / "variance_profile.csv").read_text().splitlines()[1:]
        zetas = [float(line.split(",")[1]) for line in rows]
        assert zetas == sorted(zetas) and zetas.count(0.5) == 1 and len(zetas) == 9
        (peak,) = (out / "variance_peaks.csv").read_text().splitlines()[1:]
        assert float(peak.split(",")[1]) in zetas[:5]

    def test_rate_sweep_row_count(self, tmp_path):
        cfg = write_cfg(tmp_path, lambdas="0.2, 0.3", gammas="0.3, 0.4")
        out = tmp_path / "out"
        assert run("rate-sweep", "--config", cfg, "--out", out) == 0
        lines = (out / "rates.csv").read_text().splitlines()
        # 2 lambdas x 3 DNR points x (biasing + 2 ratios)
        assert len(lines) == 1 + 2 * 3 * 3

    def test_optimize_gamma_emits_starred_rows(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert run("optimize-gamma", "--config", cfg, "--out", out) == 0
        lines = (out / "gamma_search.csv").read_text().splitlines()
        stars = [line for line in lines if line.endswith(",*")]
        assert len(stars) == 3  # one per DNR point

    def test_waveform_demo_writes_both_schemes(self, tmp_path):
        out = tmp_path / "out"
        assert run("waveform-demo", "--n", 16, "--symbols", 4, "--oversample", 2,
                   "--lambda", "0.25", "--gamma", "0.4", "--seed", 3,
                   "--out", out) == 0
        biasing = (out / "waveform_biasing.csv").read_text().splitlines()
        pwm = (out / "waveform_pwm.csv").read_text().splitlines()
        assert biasing[0] == "sample_index,current,optical"
        assert len(biasing) == 1 + 4 * 32
        assert len(pwm) > len(biasing)  # off gaps make the PWM waveform longer

    def test_waveform_demo_names_the_values_it_ignores(self, tmp_path, capsys):
        argv = ["--n", 16, "--symbols", 3, "--oversample", 2, "--lambda", "0.1,0.2",
                "--gamma", "0.3,0.4"]
        assert run("waveform-demo", *argv, "--out", tmp_path / "two") == 0
        notices = [line for line in capsys.readouterr().err.splitlines() if "ignoring" in line]
        assert notices == ["[vlcsim] waveform-demo uses the first lambda and gamma; "
                           "ignoring lambda 0.2 and gamma 0.4"]
        assert run("waveform-demo", *argv[:6], "--lambda", "0.1", "--gamma", "0.3",
                   "--out", tmp_path / "one") == 0
        assert "ignoring" not in capsys.readouterr().err
        for name in ("waveform_biasing.csv", "waveform_pwm.csv"):
            assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()

    def test_waveform_demo_seeds_no_symbol_one_at_a_time(self, tmp_path, monkeypatch):
        argv = ["waveform-demo", "--n", 16, "--symbols", 600, "--oversample", 2,
                "--lambda", "0.25", "--gamma", "0.4", "--seed", 3]
        assert run(*argv, "--out", tmp_path / "ref") == 0

        def refuse(*args, **kwargs):
            raise AssertionError("waveform-demo seeded a symbol one at a time")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(v.ofdm, "symbol_rng", refuse)
        assert run(*argv, "--out", tmp_path / "out") == 0
        for name in ("waveform_biasing.csv", "waveform_pwm.csv"):
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()

    def test_decimal_complement_of_a_mirrored_brightness_runs(self, tmp_path):
        """gamma 0.3 reaches lambda 0.7, whose mirror 1.0 - 0.7 rounds above 0.3."""
        argv = ["--lambda", "0.7", "--gamma", "0.3", "--symbols", 5, "--n", 16]
        out = tmp_path / "out"
        assert run("rate-sweep", *argv, "--out", out) == 0
        rows = (out / "rates.csv").read_text().splitlines()[1:]
        rates = {line.split(",")[0]: float(line.split(",")[4]) for line in rows[:2]}
        assert rates["pwm"] == pytest.approx(rates["biasing"], rel=0, abs=1e-12)
        assert run("waveform-demo", *argv, "--out", out) == 0
        biasing = (out / "waveform_biasing.csv").read_text().splitlines()
        assert len((out / "waveform_pwm.csv").read_text().splitlines()) == len(biasing)

    @pytest.mark.parametrize("subcommand", list(_SUBCOMMANDS))
    def test_runs_that_ignore_n_list_say_so(self, tmp_path, capsys, subcommand):
        argv = [subcommand, "--n-list", "16,32", "--symbols", 5, "--gamma", "0.4",
                "--dnr-db", "0:20:10"]
        assert run(*argv, "--out", tmp_path / "out") == 0
        err = capsys.readouterr().err
        notices = [line for line in err.splitlines() if "ignoring n_list" in line]
        assert notices == ([] if subcommand == "variance-sweep" else
                           [f"[vlcsim] {subcommand} uses n_subcarriers 64; ignoring n_list 16, 32"])

    def test_ignored_n_list_leaves_the_csv_unchanged(self, tmp_path):
        argv = ["papr-sample", "--symbols", 5]
        assert run(*argv, "--n-list", "16,32", "--out", tmp_path / "list") == 0
        assert run(*argv, "--out", tmp_path / "plain") == 0
        assert ((tmp_path / "list" / "papr_population.csv").read_bytes()
                == (tmp_path / "plain" / "papr_population.csv").read_bytes())

    def test_flag_overrides_beat_config_file(self, tmp_path):
        cfg = write_cfg(tmp_path, seed=11)
        out = tmp_path / "out"
        assert run("papr-sample", "--config", cfg, "--seed", 99, "--out", out) == 0
        assert "seed = 99" in (out / "papr-sample.manifest.txt").read_text()
