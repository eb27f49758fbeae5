"""Tests for the flat key = value experiment configuration."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import vlcsim as v
from vlcsim.errors import ConfigError


class TestRoundTrip:
    @pytest.mark.parametrize("cfg", [
        v.ExperimentConfig(),
        v.ExperimentConfig(i_low=0.1, i_high=1.0 / 3.0 + 1.0, lambdas=(0.1, 1.0 / 7.0),
                           zeta_step=0.01),
        v.ExperimentConfig(gammas=(0.2, 0.3, 0.4), n_list=(64, 256, 1024)),
        v.ExperimentConfig(gammas=v.AUTO),
        *(v.ExperimentConfig(output_dir=output_dir) for output_dir in
          ["runs/a b", "", "a=b", "caf\u00e9"])],
        ids=["defaults", "awkward-floats", "explicit-lists", "auto", "dir-space", "dir-empty",
             "dir-equals", "dir-non-ascii"])
    def test_text_parses_back_to_the_config(self, cfg):
        """Floats are written with repr, so every value parses back bit for bit."""
        assert v.parse_config(cfg.validate().to_text()) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = v.ExperimentConfig(seed=31337, symbol_count=123)
        path = tmp_path / "run.cfg"
        path.write_text(cfg.to_text())
        assert v.load_config(path) == cfg

    @pytest.mark.parametrize("output_dir", ["run#1", "a\nb", "a\r\nb", "a\x0bb", "a\u2028b",
                                            "run\n", " x ", "x\t", " runs/a"])
    def test_output_dir_no_manifest_can_hold_is_rejected(self, output_dir):
        """'#' would start a comment, a line break would end the line, and
        surrounding whitespace would be stripped when the line is read back."""
        cfg = v.ExperimentConfig(output_dir=output_dir)
        for call in (cfg.validate, cfg.to_text):
            with pytest.raises(ConfigError) as err:
                call()
            assert err.value.key == "output_dir"


class TestParsing:
    def test_comments_and_blank_lines_ignored(self):
        cfg = v.parse_config("# a comment\n\nseed = 9  # trailing\n")
        assert cfg.seed == 9

    @pytest.mark.parametrize("text, key", [
        ("frobnicate = 3", "frobnicate"), ("symbol_count = lots", "symbol_count"),
        ("just some words", "line 1")])
    def test_unparsable_line_is_named(self, text, key):
        with pytest.raises(ConfigError) as err:
            v.parse_config(text)
        assert err.value.key == key

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            v.load_config(tmp_path / "nope.cfg")

    def test_overrides_layer_on_base(self):
        base = v.ExperimentConfig(seed=1, symbol_count=50)
        cfg = v.parse_config("seed = 2", base)
        assert cfg.seed == 2 and cfg.symbol_count == 50


# every user of the DNR grid checks its budget and its last point's overflow
DNR_USERS = ["dnr_db_grid", "check_rate_table_budget", "check_search_budget"]


class TestValidation:
    @pytest.mark.parametrize("text,key", [
        ("n_subcarriers = 63", "n_subcarriers"),
        ("symbol_count = 0", "symbol_count"),
        ("oversample_factor = 0", "oversample_factor"),
        ("seed = -1", "seed"),
        ("seed = 18446744073709551616", "seed"),
        ("i_low = 2.0", "i_high"),
        ("i_low = -1.0", "i_low"),
        ("o_high = 0.0", "o_high"),
        ("lambdas = 1.5", "lambdas"),
        ("gammas = 0.2, 1.2", "gammas"),
        ("lambdas = 0.2, 0.2", "lambdas"),
        ("gammas = 0.3, 0.4, 0.3", "gammas"),
        ("gammas = ", "gammas"),
        ("gammas = ,,", "gammas"),
        ("lambdas = ", "lambdas"),
        ("lambdas = ,,", "lambdas"),
        ("dnr_db_step = 0", "dnr_db_step"),
        ("dnr_db_stop = -10", "dnr_db_stop"),
        ("zeta_step = 0.7", "zeta_step"),
        ("gamma_step = 0", "gamma_step"),
        ("n_list = 63", "n_list"),
        ("n_list = ", "n_list"),
        ("n_list = ,,", "n_list"),
        ("n_list = 16, 16", "n_list"),
        # N*F samples per symbol over config.COUNT_MAX at the default F = 4
        ("n_subcarriers = 268435456", "n_subcarriers"),
        ("n_list = 64, 268435456", "n_list"),
        ("dnr_db_start = nan", "dnr_db_start"),
        ("dnr_db_stop = inf", "dnr_db_stop"),
        ("dnr_db_step = inf", "dnr_db_step"),
        ("i_low = -inf", "i_low"),
        ("i_high = nan", "i_high"),
        ("o_high = inf", "o_high"),
        ("zeta_step = nan", "zeta_step"),
        ("gamma_step = inf", "gamma_step"),
        ("lambdas = 0.2, nan", "lambdas"),
        ("gammas = inf", "gammas"),
        # the parser reads no string but auto, so only the API passes another
        pytest.param(v.ExperimentConfig(gammas="foo"), "gammas", id="gammas=foo"),
        pytest.param(v.ExperimentConfig(gammas="AUTO"), "gammas", id="gammas=AUTO"),
    ])
    def test_each_violation_names_its_key(self, text, key):
        with pytest.raises(ConfigError) as err:
            (v.parse_config(text) if isinstance(text, str) else text).validate()
        assert err.value.key == key

    def test_defaults_are_valid(self):
        v.ExperimentConfig().validate()

    def test_largest_u64_seed_is_valid(self):
        v.ExperimentConfig(seed=2 ** 64 - 1).validate()

    @pytest.mark.parametrize("text, checks, key, message", [
        ("dnr_db_step = 1e-9", DNR_USERS, "dnr_db_step", "budget"),
        ("dnr_db_start = -1e308\ndnr_db_stop = 1e308\ndnr_db_step = 1",
         ["check_rate_table_budget"], "dnr_db_step", "budget"),
        ("dnr_db_stop = 4000\ndnr_db_step = 1000", DNR_USERS, "dnr_db_stop", "overflows"),
        ("zeta_step = 1e-12", ["check_profile_budget"], "zeta_step", "budget"),
        ("zeta_step = 2e-6\nn_list = 64, 256, 1024", ["check_profile_budget"], "zeta_step",
         "budget"),
        ("zeta_step = 5e-324", ["check_profile_budget"], "zeta_step", "budget"),
        *((text, ["check_search_budget"], "gamma_step", "budget") for text in [
            "gamma_step = 1e-12", "gamma_step = 5e-324", "dnr_db_step = 0.001\ngamma_step = 0.001",
            "lambdas = 0.05, 0.2\ndnr_db_step = 0.002"]),
        # 300001 DNR points, under the budget, times 2 brightness factors x 3 rows
        ("lambdas = 0.1, 0.2\ngammas = 0.3, 0.4\ndnr_db_step = 0.0002",
         ["check_rate_table_budget"], "dnr_db_step", "1,800,006 rows in the rate table")])
    def test_oversized_grid_names_its_key(self, text, checks, key, message):
        """validate() bounds no grid; each run's check bounds the grids it builds."""
        cfg = v.parse_config(text)
        assert cfg.validate() is cfg
        for check in checks:
            with pytest.raises(ConfigError, match=message) as err:
                getattr(cfg, check)()
            assert err.value.key == key

    def test_profile_at_the_budget_is_valid(self):
        cfg = v.ExperimentConfig(zeta_step=1.0 / v.config.GRID_POINTS_MAX)
        cfg.check_profile_budget()
        with pytest.raises(ConfigError, match="variance profile"):
            replace(cfg, n_list=(64, 256)).check_profile_budget()

    def test_profile_counts_half_once(self):
        # three 333,333-point grids are 999,999 rows; counting 0.5 twice made 1,000,002
        cfg = v.ExperimentConfig(zeta_step=0.5 / 166667, n_list=(64, 256, 1024)).validate()
        assert len(v.zeta_grid(cfg.zeta_step)) == 333_333
        cfg.check_profile_budget()

    def test_search_budget_does_not_bound_runs_without_a_search(self):
        # 30001 DNR points x 152 ratio points would exceed the search budget,
        # but a rate sweep over explicit ratios runs no search
        cfg = v.ExperimentConfig(lambdas=(0.05, 0.2), gammas=(0.3,), dnr_db_step=0.002,
                                 gamma_step=0.005).validate()
        cfg.check_rate_table_budget()
        assert len(cfg.dnr_db_grid()) == 30001

    def test_rate_table_at_the_budget_is_valid(self):
        half = v.config.GRID_POINTS_MAX // 2
        cfg = v.ExperimentConfig(lambdas=(0.2,), gammas=(0.3,), dnr_db_stop=(half - 1) / 1000,
                                 dnr_db_step=1e-3).validate()
        cfg.check_rate_table_budget()
        assert len(cfg.dnr_db_grid()) == half
        with pytest.raises(ConfigError):
            replace(cfg, dnr_db_stop=half / 1000).check_rate_table_budget()

    def test_search_at_the_budget_is_valid(self):
        budget = v.config.GRID_POINTS_MAX
        cfg = v.ExperimentConfig(lambdas=(0.5,), dnr_db_stop=(budget - 1) / 1000,
                                 dnr_db_step=1e-3, gamma_step=0.5).validate()
        cfg.check_search_budget()
        assert len(cfg.dnr_db_grid()) == budget

    def test_off_interval_at_the_budget_is_valid(self):
        """4 samples at duty 4 / (4 + budget) leave exactly budget off samples."""
        budget = v.config.GRID_POINTS_MAX
        gamma = 0.5
        lam = gamma * 4 / (4 + budget)
        cfg = v.ExperimentConfig(n_subcarriers=4, oversample_factor=1, lambdas=(lam,),
                                 gammas=(gamma,)).validate()
        assert v.dimming.off_interval(4, lam, gamma) == budget
        assert v.dimming.off_interval(4, lam) == 0  # biasing adjustment: no gap
        cfg.check_frame_budget()
        with pytest.raises(ConfigError, match="2,000,000 samples in one PWM off interval") as err:
            replace(cfg, oversample_factor=2).check_frame_budget()
        assert err.value.key == "lambdas"

    def test_grids_at_the_budget_are_valid(self):
        budget = v.config.GRID_POINTS_MAX
        cfg = v.ExperimentConfig(dnr_db_stop=(budget - 1) / 1000, dnr_db_step=1e-3,
                                 gammas=(0.3,), gamma_step=0.5, lambdas=(0.5,)).validate()
        assert len(cfg.dnr_db_grid()) == budget
        v.ExperimentConfig(zeta_step=1.0 / budget).validate()


class TestDerivedValues:
    def test_dnr_grid_includes_both_ends(self):
        cfg = v.ExperimentConfig(dnr_db_start=0.0, dnr_db_stop=60.0, dnr_db_step=2.0)
        grid = cfg.dnr_db_grid()
        assert len(grid) == 31
        assert_allclose([grid[0], grid[-1]], [0.0, 60.0])

    def test_led_built_from_fields(self):
        led = v.ExperimentConfig(i_low=0.2, i_high=1.4, o_high=3.0).led()
        assert led == v.LedModel(0.2, 1.4, 3.0)

    def test_subcarrier_counts_fall_back_to_single_n(self):
        assert v.ExperimentConfig(n_subcarriers=128).subcarrier_counts() == (128,)
        assert v.ExperimentConfig(n_list=(64, 256)).subcarrier_counts() == (64, 256)
