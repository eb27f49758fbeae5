"""Tests for the flat key = value experiment configuration."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import vlcsim as v
from vlcsim.errors import ConfigError


class TestRoundTrip:
    def test_defaults_survive_serialization(self):
        cfg = v.ExperimentConfig()
        assert v.parse_config(cfg.to_text()) == cfg

    def test_awkward_floats_round_trip_losslessly(self):
        cfg = v.ExperimentConfig(i_low=0.1, i_high=1.0 / 3.0 + 1.0,
                                 lambdas=(0.1, 1.0 / 7.0), zeta_step=0.01)
        again = v.parse_config(cfg.to_text())
        assert again.i_high == cfg.i_high
        assert again.lambdas == cfg.lambdas

    def test_explicit_gammas_and_n_list(self):
        cfg = v.ExperimentConfig(gammas=(0.2, 0.3, 0.4), n_list=(64, 256, 1024))
        again = v.parse_config(cfg.to_text())
        assert again.gammas == (0.2, 0.3, 0.4)
        assert again.n_list == (64, 256, 1024)

    def test_auto_gammas_round_trip(self):
        again = v.parse_config(v.ExperimentConfig(gammas=v.AUTO).to_text())
        assert again.gammas == v.AUTO

    def test_file_round_trip(self, tmp_path):
        cfg = v.ExperimentConfig(seed=31337, symbol_count=123)
        path = tmp_path / "run.cfg"
        path.write_text(cfg.to_text())
        assert v.load_config(path) == cfg

    @pytest.mark.parametrize("output_dir", ["runs/a b", "", "a=b", "caf\u00e9"])
    def test_output_dir_round_trips(self, output_dir):
        cfg = v.ExperimentConfig(output_dir=output_dir).validate()
        assert v.parse_config(cfg.to_text()) == cfg

    @pytest.mark.parametrize("output_dir", ["run#1", "a\nb", "a\r\nb", "a\x0bb", "a\u2028b",
                                            "run\n"])
    def test_output_dir_no_manifest_can_hold_is_rejected(self, output_dir):
        """'#' would start a comment and a line break would end the line."""
        cfg = v.ExperimentConfig(output_dir=output_dir)
        for call in (cfg.validate, cfg.to_text):
            with pytest.raises(ConfigError) as err:
                call()
            assert err.value.key == "output_dir"


class TestParsing:
    def test_comments_and_blank_lines_ignored(self):
        cfg = v.parse_config("# a comment\n\nseed = 9  # trailing\n")
        assert cfg.seed == 9

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError) as err:
            v.parse_config("frobnicate = 3")
        assert err.value.key == "frobnicate"

    def test_bad_value_is_named(self):
        with pytest.raises(ConfigError) as err:
            v.parse_config("symbol_count = lots")
        assert err.value.key == "symbol_count"

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError):
            v.parse_config("just some words")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            v.load_config(tmp_path / "nope.cfg")

    def test_overrides_layer_on_base(self):
        base = v.ExperimentConfig(seed=1, symbol_count=50)
        cfg = v.parse_config("seed = 2", base)
        assert cfg.seed == 2 and cfg.symbol_count == 50


class TestValidation:
    @pytest.mark.parametrize("text,key", [
        ("n_subcarriers = 63", "n_subcarriers"),
        ("symbol_count = 0", "symbol_count"),
        ("oversample_factor = 0", "oversample_factor"),
        ("seed = -1", "seed"),
        ("seed = 18446744073709551616", "seed"),
        ("i_low = 2.0", "i_high"),
        ("o_high = 0.0", "o_high"),
        ("lambdas = 1.5", "lambdas"),
        ("gammas = 0.2, 1.2", "gammas"),
        ("dnr_db_step = 0", "dnr_db_step"),
        ("dnr_db_stop = -10", "dnr_db_stop"),
        ("zeta_step = 0.7", "zeta_step"),
        ("gamma_step = 0", "gamma_step"),
        ("n_list = 63", "n_list"),
        ("n_list = ", "n_list"),
        ("n_list = ,,", "n_list"),
        ("n_list = 16, 16", "n_list"),
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
    ])
    def test_each_violation_names_its_key(self, text, key):
        with pytest.raises(ConfigError) as err:
            v.parse_config(text).validate()
        assert err.value.key == key

    def test_defaults_are_valid(self):
        v.ExperimentConfig().validate()

    def test_largest_u64_seed_is_valid(self):
        v.ExperimentConfig(seed=2 ** 64 - 1).validate()

    OVERSIZED_GRIDS = [
        ("dnr_db_step = 1e-9", "dnr_db_step"),
        ("dnr_db_start = -1e308\ndnr_db_stop = 1e308\ndnr_db_step = 1", "dnr_db_step"),
        ("dnr_db_stop = 4000\ndnr_db_step = 1000", "dnr_db_stop"),
        ("zeta_step = 1e-12", "zeta_step"),
        ("zeta_step = 2e-6\nn_list = 64, 256, 1024", "zeta_step"),
        ("zeta_step = 5e-324", "zeta_step"),
    ]

    @pytest.mark.parametrize("text,key", OVERSIZED_GRIDS)
    def test_oversized_grid_names_its_key(self, text, key):
        cfg = v.parse_config(text).validate()
        with pytest.raises(ConfigError) as err:
            if key == "zeta_step":
                cfg.check_profile_budget()
            else:
                cfg.check_rate_table_budget()
        assert err.value.key == key
        assert "budget" in str(err.value) or "overflows" in str(err.value)

    @pytest.mark.parametrize("text,key", OVERSIZED_GRIDS)
    def test_validate_bounds_no_grid(self, text, key):
        cfg = v.parse_config(text)
        assert cfg.validate() is cfg

    @pytest.mark.parametrize("text,key", [
        ("dnr_db_step = 1e-9", "dnr_db_step"),
        ("dnr_db_stop = 4000\ndnr_db_step = 1000", "dnr_db_stop"),
    ])
    def test_every_dnr_grid_user_checks_the_dnr_grid(self, text, key):
        cfg = v.parse_config(text).validate()
        for check in (cfg.dnr_db_grid, cfg.check_rate_table_budget, cfg.check_search_budget):
            with pytest.raises(ConfigError) as err:
                check()
            assert err.value.key == key

    def test_profile_at_the_budget_is_valid(self):
        cfg = v.ExperimentConfig(zeta_step=1.0 / v.config.GRID_POINTS_MAX)
        cfg.check_profile_budget()
        with pytest.raises(ConfigError, match="variance profile"):
            replace(cfg, n_list=(64, 256)).check_profile_budget()

    @pytest.mark.parametrize("text", [
        "gamma_step = 1e-12",
        "gamma_step = 5e-324",
        "dnr_db_step = 0.001\ngamma_step = 0.001",
        "lambdas = 0.05, 0.2\ndnr_db_step = 0.002",
    ])
    def test_oversized_search_names_gamma_step(self, text):
        cfg = v.parse_config(text).validate()
        with pytest.raises(ConfigError) as err:
            cfg.check_search_budget()
        assert err.value.key == "gamma_step"
        assert "budget" in str(err.value)

    def test_search_budget_does_not_bound_runs_without_a_search(self):
        # 30001 DNR points x 152 ratio points would exceed the search budget,
        # but a rate sweep over explicit ratios runs no search
        cfg = v.ExperimentConfig(lambdas=(0.05, 0.2), gammas=(0.3,), dnr_db_step=0.002,
                                 gamma_step=0.005).validate()
        cfg.check_rate_table_budget()
        assert len(cfg.dnr_db_grid()) == 30001

    def test_oversized_rate_table_names_dnr_db_step(self):
        # 300001 DNR points, under the budget, times 2 brightness factors x 3 rows
        cfg = v.parse_config("lambdas = 0.1, 0.2\ngammas = 0.3, 0.4\n"
                             "dnr_db_step = 0.0002").validate()
        with pytest.raises(ConfigError) as err:
            cfg.check_rate_table_budget()
        assert err.value.key == "dnr_db_step"
        assert "1,800,006 rows in the rate table" in str(err.value)

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
