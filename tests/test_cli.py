"""Tests for the command-line front end: exit codes, outputs, reproducibility."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import vlcsim as v
from vlcsim import cli
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


RATE = ["rate-sweep", "--n", 16, "--symbols", 5, "--lambda", "0.2", "--dnr-db", "0:0:1"]
WAVE = ["waveform-demo", "--n", 4, "--oversample", 1, "--symbols", 1, "--gamma", 0.4]
# (id, subcommand and flags, config file text or None, whether the run makes its output
# directory, a regular expression its stderr matches)
REJECTED = [
    ("bad-value", ["papr-sample"], "symbol_count = 0\n", False, "config error: symbol_count"),
    ("unknown-key", ["papr-sample"], "wavelength = 450\n", False, "config error: wavelength"),
    ("unreadable-config", ["papr-sample", "--config", "missing.cfg"], None, False,
     "config error: config: cannot read"),
    ("dnr-two-parts", ["rate-sweep", "--dnr-db", "0:60"], None, False, "config error: dnr-db"),
    *((f"dnr-{span}", ["rate-sweep", "--dnr-db", span], None, False, "config error: dnr_db_st")
      for span in ("0:inf:2", "nan:10:2")),
    # grids over the budget: checked by the runs that build them, before sampling
    *((f"grid-{key}-{i}", argv, config, True, f"config error: {key}")
      for i, (argv, config, key) in enumerate([
          (["rate-sweep", "--dnr-db", "0:60:1e-9"], "", "dnr_db_step"),
          (["rate-sweep", "--dnr-db", "0:4000:1000"], "", "dnr_db_stop"),
          (["optimize-gamma"], "gamma_step = 1e-12\n", "gamma_step"),
          (["rate-sweep", "--gamma", "auto"], "gamma_step = 1e-12\n", "gamma_step"),
          (["rate-sweep", "--lambda", "0.1,0.2", "--gamma", "0.3,0.4"],
           "dnr_db_step = 0.0002\n", "dnr_db_step"),
          (["variance-sweep"], "zeta_step = 1e-12\n", "zeta_step")])),
    # the PWM off interval grows as 1/lambda: over the budget, not an allocation failure
    *((f"tiny-lambda-{lam}", [*WAVE, "--lambda", lam], None, True,
       "vlcsim: config error: lambdas: .*PWM off interval.*gammas")
      for lam in ("1e-300", "5e-324", "1e-12")),
    ("repeated-n-list", ["variance-sweep", "--n-list", "16,32,16", "--symbols", 5], None, False,
     "config error: n_list: entries must not repeat"),
    *((f"empty-n-list-{i}", ["variance-sweep", "--n-list", text, "--symbols", 5], None, False,
       "config error: n_list") for i, text in enumerate(["", ",,"])),
    ("auto-waveform", ["waveform-demo", "--n", 16, "--symbols", 3, "--oversample", 2,
                       "--lambda", "0.25", "--gamma", "auto"], None, True, "config error: gammas"),
    *((f"empty-ratios-{sub}-{i}", [sub, "--quick", "--gamma", gammas], None, False,
       "config error: gammas: must list at least one forward ratio or be 'auto'")
      for sub in ("rate-sweep", "optimize-gamma", "waveform-demo")
      for i, gammas in enumerate(["", ","])),
    ("unreachable-ratio-list", ["rate-sweep", "--lambda", "0.1,0.3", "--gamma", "0.3,0.2"], None,
     True, "forward ratio 0.2 < effective brightness 0.3"),
    *((f"unreachable-ratio-{sub}", [sub, "--n", 16, "--symbols", 5, "--lambda", "0.3",
                                     "--gamma", "0.2"], None, True,
       "vlcsim: config error: gammas: forward ratio 0.2 < effective brightness 0.3")
      for sub in ("rate-sweep", "waveform-demo")),
    ("unreachable-ratio-config", [*RATE, "--lambda", "0.1,0.3", "--gamma", "0.2"], "", True,
     "vlcsim: config error: gammas: forward ratio 0.2 < effective brightness 0.3"),
    ("ratio-below-tiny-lambda", [*RATE, "--lambda", "2e-16", "--gamma", "1e-16"], None, True,
     "vlcsim: config error: gammas: forward ratio 1e-16 < effective brightness 2e-16"),
    ("mirrored-pwm-i-low", ["waveform-demo", "--n", 16, "--symbols", 5, "--lambda", "0.8",
                            "--gamma", "0.3"], "i_low = 0.1\n", True,
     "vlcsim: error: mirrored PWM requires i_low == 0"),
    ("seed-beyond-u64", ["papr-sample", "--n", 16, "--symbols", 5, "--seed", 2 ** 64], None,
     False, "config error: seed"),
    # 0 A is the off state, so a range below it would write off-state rows inside it
    ("led-below-zero", ["waveform-demo", "--n", 4, "--oversample", 2, "--symbols", 50],
     "i_low = -1.0\ni_high = 1.0\nlambdas = 0.5\ngammas = 0.5\n", False,
     "vlcsim: config error: i_low: must be >= 0, got -1.0"),
    # a subnormal range: the waveform's rounding dust fell outside the rails after the
    # biasing CSV was written, and the PWM CSV then failed with exit 2
    ("led-subnormal-range", ["waveform-demo", "--n", 8, "--oversample", 1, "--symbols", 10],
     "i_high = 1e-320\nlambdas = 0.2\ngammas = 0.3\n", False,
     "vlcsim: config error: i_high: must exceed i_low by at least 2.2250738585072014e-308"),
    # the PWM bias rounds onto i_high; it failed after the biasing CSV was written
    ("pwm-bias-on-the-rail", ["waveform-demo", "--n", 16, "--symbols", 5, "--lambda", "0.2",
                              "--gamma", "0.96"], "i_low = 1.0\ni_high = 1.0000000000000009\n",
     True, "vlcsim: error: bias 1.0000000000000009 outside open range"),
    # '#' starts a comment and a line break ends a key = value line: neither is cut
    *((f"comment-or-break-{key}-{i}", [*RATE, *flags], None, False,
       f"vlcsim: config error: {key}: cannot contain '#' or a line break, got ")
      for i, (flags, key) in enumerate([
          (["--out", "run#1"], "output_dir"), (["--out", "a\nb"], "output_dir"),
          (["--out", "a\r\nb"], "output_dir"), (["--out", "a\u2028b"], "output_dir"),
          (["--out", "run\n"], "output_dir"),
          (["--lambda", "0.1#0.3", "--gamma", "0.2"], "lambdas"),
          (["--lambda", "0.1,\n0.3", "--gamma", "0.4"], "lambdas"),
          (["--gamma", "0.2#0.4"], "gammas"),
          (["--gamma", "auto\n"], "gammas"), (["--n-list", "16#32"], "n_list"),
          (["--dnr-db", "0:0:1#2"], "dnr_db_step"), (["--dnr-db", "0\n:0:1"], "dnr_db_start")])),
    # a config line is read back stripped, so the value would not be the flag's
    *((f"whitespace-{key}-{i}", [*RATE, *flags], None, False,
       f"vlcsim: config error: {key}: cannot start or end with whitespace, got ")
      for i, (flags, key) in enumerate([(["--out", " out"], "output_dir"),
                                        (["--out", "out\t"], "output_dir"),
                                        (["--lambda", "0.2 ", "--gamma", "0.3"], "lambdas")])),
]


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
        ("rate-sweep", [], {"gamma_step": 1e-12}),  # explicit ratios: no search
        ("papr-sample", [], {"gamma_step": 1e-12}),
    ])
    def test_runs_bound_only_the_grids_they_build(self, tmp_path, capsys, subcommand, flags,
                                                   overrides):
        cfg = write_cfg(tmp_path, **overrides)
        assert run(subcommand, "--config", cfg, *flags, "--out", tmp_path / "out") == 0
        assert "config error" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv, config, made, message", [case[1:] for case in REJECTED],
                             ids=[case[0] for case in REJECTED])
    def test_rejected_run_samples_and_writes_nothing(self, tmp_path, monkeypatch, capsys, argv,
                                                     config, made, message):
        """Exit 2, one typed error and no traceback. A manifest reruns its config, so a
        rejected run writes none, nor a CSV or a cache; what validate() rejects leaves even
        the output directory unmade."""
        def refuse(*args, **kwargs):
            raise AssertionError("the population was sampled")

        monkeypatch.setattr(v.cache, "sample_papr_population", refuse)
        monkeypatch.setattr(cli, "sample_papr_population", refuse)
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            argv = [*argv, "--config", "run.cfg"]
        assert run(argv[0], "--out", "out", *argv[1:]) == 2
        err = capsys.readouterr().err
        assert re.search(message, err) and "Traceback" not in err, err
        left = sorted(path.name for path in tmp_path.rglob("*"))
        assert left == ["out"] * made + ["run.cfg"] * (config is not None)

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

    def test_optimize_gamma_names_the_gammas_it_ignores(self, tmp_path, capsys):
        argv = ["optimize-gamma", "--config", write_cfg(tmp_path)]
        assert run(*argv, "--gamma", "0.3,0.4", "--out", tmp_path / "list") == 0
        notices = [line for line in capsys.readouterr().err.splitlines() if "ignoring" in line]
        assert notices == ["[vlcsim] optimize-gamma searches every forward ratio; "
                           "ignoring gammas 0.3, 0.4"]
        assert run(*argv, "--gamma", "auto", "--out", tmp_path / "auto") == 0
        assert "ignoring" not in capsys.readouterr().err
        assert ((tmp_path / "list" / "gamma_search.csv").read_bytes()
                == (tmp_path / "auto" / "gamma_search.csv").read_bytes())

    def test_auto_rate_sweep_rows_are_the_search_grid_rows(self, tmp_path):
        """rate-sweep --gamma auto and optimize-gamma read one search: cell by cell, the PWM
        row has the starred row's lambda, gamma and rate and the biasing row the grid's first
        rate, with shared (0.05, 0.2, 0.35) and mirrored (0.7) brightness grids."""
        argv = ["--quick", "--lambda", "0.05,0.2,0.35,0.7", "--out", tmp_path]
        assert run("rate-sweep", "--gamma", "auto", *argv) == 0
        assert run("optimize-gamma", *argv) == 0
        rates = [line.split(",") for line in (tmp_path / "rates.csv").read_text().splitlines()[1:]]
        cells, grid = [], []
        for line in (tmp_path / "gamma_search.csv").read_text().splitlines()[1:]:
            lam, dnr_db, gamma, rate, star = line.split(",")
            grid.append((lam, dnr_db, gamma, rate))
            if star:
                cells.append((grid[0], grid[-1]))
                grid = []
        assert len(cells) == 4 * 31 and len(rates) == 2 * len(cells)
        respelled = 0
        for (biasing, pwm), (first, starred) in zip(zip(rates[::2], rates[1::2]), cells):
            assert (biasing[0], pwm[0]) == ("biasing", "pwm")
            assert biasing[1] == pwm[1] == first[0] == starred[0]
            assert biasing[4] == first[3]
            assert (pwm[2], pwm[4]) == starred[2:]
            # cells match by position: rates.csv prints 10 log10 of the linear DNR, so
            # the 2 dB grid point reads 2.0000000000000004 there and 2.0 in the search
            assert biasing[3] == pwm[3] and first[1] == starred[1]
            assert float(biasing[3]) == pytest.approx(float(first[1]), rel=1e-15, abs=0)
            respelled += biasing[3] != first[1]
        assert 0 < respelled < len(cells)

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
        """symbol_rng seeds only the sampler canary's reference, at each chunk's first index."""
        argv = ["waveform-demo", "--n", 16, "--symbols", 600, "--oversample", 2,
                "--lambda", "0.25", "--gamma", "0.4", "--seed", 3]
        assert run(*argv, "--out", tmp_path / "ref") == 0
        default_rng = np.random.default_rng
        seeded = []

        def chunk_starts_only(seed, index):
            seeded.append(index)
            return default_rng([seed, index])

        def refuse(*args, **kwargs):
            raise AssertionError("waveform-demo seeded a symbol one at a time")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(v.ofdm, "symbol_rng", chunk_starts_only)
        assert run(*argv, "--out", tmp_path / "out") == 0
        assert seeded == [0, v.ofdm._SEED_CHUNK]
        for name in ("waveform_biasing.csv", "waveform_pwm.csv"):
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()

    def test_waveform_demo_holds_its_symbols_in_one_row_array(self, tmp_path, monkeypatch):
        """1000 N = 64, F = 4 symbols peak below 1.25x their 2.05 MB row array;
        a symbol list stacked into rows peaks above 2x."""
        written = []

        def consume(path, blocks, led):  # one block at a time, as the CSV writer does
            total = 0
            for block in blocks:
                total += len(block)
            written.append((total, block[-256:].copy()))

        monkeypatch.setattr(cli, "write_waveform_csv", consume)
        cfg = v.ExperimentConfig(lambdas=(0.25,), gammas=(0.4,), output_dir=str(tmp_path))
        cli._cmd_waveform_demo(replace(cfg, symbol_count=2))  # warm lazily built caches
        written.clear()
        tracemalloc.start()
        try:
            cli._cmd_waveform_demo(replace(cfg, symbol_count=1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 1000 * 256 * 8
        # the waveforms come from rows of all 1000 symbols
        assert [total for total, _ in written] == [256_000, 410_000]
        last = v.to_time_domain(v.generate_freq_symbol(64, cfg.constellation,
                                                       v.symbol_rng(cfg.seed, 999)), 4)
        spec = v.DimmingSpec(0.25)
        assert written[0][1].tobytes() == v.assemble_waveform(last[None, :], spec,
                                                               cfg.led()).tobytes()

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
