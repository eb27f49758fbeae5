"""Tests for ergodic-rate estimation, forward-ratio search, and variance profiles."""

import csv
import dataclasses

import numpy as np
import pytest

import vlcsim as v


def single_sample_pop(upapr, lpapr):
    return v.PaprPopulation(upapr=np.array([upapr]), lpapr=np.array([lpapr]),
                            n_subcarriers=64, constellation=v.Constellation.QPSK,
                            seed=0, oversample_factor=4)


def biasing_spec(lam, dnr):
    return v.DimmingSpec(brightness=lam, scheme=v.Scheme.BIASING_ADJUSTMENT, dnr=dnr)


def pwm_spec(lam, gamma, dnr):
    return v.DimmingSpec(brightness=lam, scheme=v.Scheme.PWM, dnr=dnr, forward_ratio=gamma)


class TestEstimateRate:
    def test_zero_budget_means_zero_rate(self, pop64):
        est = v.estimate_rate(biasing_spec(0.3, 0.0), pop64)
        assert est.rate == 0.0
        assert est.dnr_db == -np.inf

    def test_single_sample_biasing(self):
        """U=L=4, DNR=16 at half brightness: SNR 1, rate 1/2."""
        est = v.estimate_rate(biasing_spec(0.5, 16.0), single_sample_pop(4.0, 4.0))
        assert est.rate == pytest.approx(0.5, rel=1e-12)
        assert est.avg_snr_db == pytest.approx(0.0, abs=1e-9)

    def test_single_sample_pwm_pays_duty_cycle(self):
        """Same SNR at gamma=0.5 but only 0.25/0.5 of the time on air."""
        est = v.estimate_rate(pwm_spec(0.25, 0.5, 16.0), single_sample_pop(4.0, 4.0))
        assert est.rate == pytest.approx(0.25, rel=1e-12)

    def test_rejects_empty_population(self):
        empty = v.PaprPopulation(upapr=np.array([]), lpapr=np.array([]),
                                 n_subcarriers=64, constellation=v.Constellation.QPSK,
                                 seed=0, oversample_factor=4)
        with pytest.raises(ValueError):
            v.estimate_rate(biasing_spec(0.3, 1.0), empty)

    def test_strictly_increasing_in_dnr(self, pop64):
        rates = [v.estimate_rate(biasing_spec(0.2, 10.0 ** (db / 10)), pop64).rate
                 for db in (0, 10, 20, 30)]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_mirror_brightness_biasing_is_exact(self, pop64):
        for lam in (0.1, 0.25, 0.3, 0.45):
            a = v.estimate_rate(biasing_spec(lam, 100.0), pop64)
            b = v.estimate_rate(biasing_spec(1.0 - lam, 100.0), pop64)
            assert a.rate == b.rate
            assert a.avg_snr_db == b.avg_snr_db

    def test_mirror_brightness_pwm(self, pop64):
        # dyadic brightness mirrors exactly; otherwise the duty factor
        # carries one rounding step from 1 - lam
        a = v.estimate_rate(pwm_spec(0.25, 0.5, 100.0), pop64)
        b = v.estimate_rate(pwm_spec(0.75, 0.5, 100.0), pop64)
        assert a.rate == b.rate
        c = v.estimate_rate(pwm_spec(0.3, 0.5, 100.0), pop64)
        d = v.estimate_rate(pwm_spec(0.7, 0.5, 100.0), pop64)
        assert c.rate == pytest.approx(d.rate, rel=1e-12)

    def test_reports_population_size_and_scheme(self, pop64):
        est = v.estimate_rate(pwm_spec(0.2, 0.4, 10.0), pop64)
        assert est.n_samples == len(pop64)
        assert est.scheme is v.Scheme.PWM
        assert est.gamma == 0.4


class TestGammaGrid:
    def test_first_point_is_exactly_the_brightness(self):
        grid = v.gamma_grid(0.2, 0.005)
        assert grid[0] == 0.2
        assert grid[-1] <= 0.5

    def test_single_point_at_half(self):
        grid = v.gamma_grid(0.5, 0.005)
        assert list(grid) == [0.5]

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            v.gamma_grid(0.2, 0.0)


class TestOptimizeGamma:
    def test_never_loses_to_biasing(self, pop64):
        for db in (0.0, 14.0, 30.0):
            dnr = 10.0 ** (db / 10)
            search = v.optimize_gamma(0.2, dnr, pop64)
            baseline = v.estimate_rate(biasing_spec(0.2, dnr), pop64)
            assert search.rate_at_star >= baseline.rate

    def test_high_budget_drives_ratio_to_brightness(self, pop64):
        search = v.optimize_gamma(0.2, 10.0 ** 6, pop64, 0.005)
        assert abs(search.gamma_star - 0.2) <= 0.005 + 1e-12

    def test_half_brightness_degenerate_grid(self, pop64):
        search = v.optimize_gamma(0.5, 100.0, pop64)
        assert search.gamma_star == 0.5
        assert search.grid.shape == (1, 2)

    def test_ties_resolve_to_smallest_gamma(self, pop64):
        # zero budget makes every rate 0, so the first grid point wins
        search = v.optimize_gamma(0.3, 0.0, pop64)
        assert search.gamma_star == 0.3

    def test_requires_effective_brightness(self, pop64):
        with pytest.raises(ValueError):
            v.optimize_gamma(0.7, 100.0, pop64)

    @pytest.mark.parametrize("dnr", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_dnr(self, pop64, dnr):
        with pytest.raises(ValueError, match="dnr"):
            v.optimize_gamma(0.2, dnr, pop64)

    def test_sweep_rejects_a_dnr_db_that_overflows(self, pop64):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="dnr_db"):
            v.sweep_gamma_search([0.2], np.array([0.0, 4000.0]), pop64)
        # plain floats overflow with OverflowError rather than to inf
        with pytest.raises(ValueError, match="dnr_db"):
            v.sweep_gamma_search([0.2], [4000.0], pop64)
        with pytest.raises(ValueError, match="dnr_db"):
            v.sweep_rates([0.2], [0.0, 4000.0], [0.3], pop64)

    def test_sweep_matches_one_search_per_cell(self, pop64):
        cells = v.sweep_gamma_search([0.2, 0.7], [0.0, 14.0, 30.0], pop64, 0.01)
        assert [(lam, db) for lam, db, _ in cells] == [
            (lam, db) for lam in (0.2, 0.7) for db in (0.0, 14.0, 30.0)]
        for lam, db, result in cells:
            alone = v.optimize_gamma(v.effective_brightness(lam)[0], 10.0 ** (db / 10.0),
                                     pop64, 0.01)
            assert result.gamma_star == alone.gamma_star
            assert result.rate_at_star == alone.rate_at_star
            np.testing.assert_array_equal(result.grid, alone.grid)

    def test_grid_matches_rate_estimates(self, pop64):
        search = v.optimize_gamma(0.35, 50.0, pop64, 0.01)
        for gamma, rate in search.grid[:5]:
            est = v.estimate_rate(pwm_spec(0.35, float(gamma), 50.0), pop64)
            assert rate == est.rate


class TestVarianceProfile:
    def test_profile_is_exactly_symmetric(self, pop64):
        prof = v.variance_profile(pop64, 0.01)
        zetas, means = prof.grid[:, 0], prof.grid[:, 1]
        for i in range(len(zetas)):
            j = int(np.argmin(np.abs(zetas - (1.0 - zetas[i]))))
            assert means[i] == means[j]

    def test_peak_sits_in_lower_half_and_beats_midpoint(self, pop64):
        prof = v.variance_profile(pop64, 0.01)
        assert prof.zeta_dagger <= 0.5
        midpoint = prof.grid[prof.grid[:, 0] == 0.5][0, 1]
        peak = prof.grid[prof.grid[:, 0] == prof.zeta_dagger][0, 1]
        assert peak >= midpoint

    def test_more_subcarriers_flatten_the_profile(self, pop64, pop1024):
        at64 = v.variance_profile(pop64, 0.1)
        at1024 = v.variance_profile(pop1024, 0.1)
        mid64 = at64.grid[at64.grid[:, 0] == 0.5][0, 1]
        mid1024 = at1024.grid[at1024.grid[:, 0] == 0.5][0, 1]
        assert mid64 > mid1024

    def test_rejects_bad_step(self, pop64):
        with pytest.raises(ValueError):
            v.variance_profile(pop64, 0.0)

    def test_zeta_grid_contains_computed_mirrors(self):
        """Each lower-half point's floating-point mirror 1-z is a grid point."""
        grid = v.zeta_grid(0.01)
        assert len(grid) == 99
        assert grid[0] == pytest.approx(0.01)
        for z in grid[grid < 0.5]:
            assert np.any(grid == 1.0 - z)


class TestSweepRates:
    def test_single_cell_matches_direct_estimate(self, pop64):
        rows = v.sweep_rates([0.2], [20.0], [0.4], pop64)
        assert len(rows) == 2
        direct_b = v.estimate_rate(biasing_spec(0.2, 100.0), pop64)
        direct_p = v.estimate_rate(pwm_spec(0.2, 0.4, 100.0), pop64)
        assert rows[0].rate == direct_b.rate
        assert rows[1].rate == direct_p.rate

    def test_row_order_and_count(self, pop64):
        rows = v.sweep_rates([0.1, 0.2], [0.0, 10.0], [0.3, 0.4], pop64)
        assert len(rows) == 2 * 2 * 3
        assert [r.scheme for r in rows[:3]] == [v.Scheme.BIASING_ADJUSTMENT,
                                                v.Scheme.PWM, v.Scheme.PWM]
        assert rows[0].brightness == 0.1 and rows[-1].brightness == 0.2

    def test_auto_uses_optimized_ratio(self, pop64):
        rows = v.sweep_rates([0.2], [20.0], v.AUTO, pop64, gamma_step=0.01)
        search = v.optimize_gamma(0.2, 100.0, pop64, 0.01)
        assert rows[1].gamma == search.gamma_star
        assert rows[1].rate == search.rate_at_star

    def test_rejects_unknown_gamma_keyword(self, pop64):
        with pytest.raises(ValueError):
            v.sweep_rates([0.2], [20.0], "best", pop64)

    def test_rejects_empty_grids(self, pop64):
        with pytest.raises(ValueError):
            v.sweep_rates([], [20.0], v.AUTO, pop64)


class TestCsvWriters:
    def test_rates_csv_layout(self, tmp_path, pop64):
        rows = v.sweep_rates([0.2], [0.0, 20.0], [0.4], pop64)
        path = tmp_path / "rates.csv"
        v.write_rates_csv(path, rows, seed=2024)
        with open(path) as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["scheme", "lambda", "gamma", "dnr_db", "rate_bits",
                             "avg_snr_db", "n_samples", "seed"]
        assert len(parsed) == len(rows) + 1
        assert parsed[1][0] == "biasing" and parsed[1][2] == ""
        assert parsed[2][0] == "pwm" and float(parsed[2][2]) == 0.4
        assert float(parsed[1][4]) == rows[0].rate

    def test_gamma_search_csv_has_starred_summary(self, tmp_path, pop64):
        search = v.optimize_gamma(0.3, 100.0, pop64, 0.05)
        path = tmp_path / "gamma.csv"
        v.write_gamma_search_csv(path, [(0.3, 20.0, search)])
        with open(path) as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["lambda", "dnr_db", "gamma", "rate_bits", "star"]
        assert len(parsed) == len(search.grid) + 2
        assert parsed[-1][4] == "*"
        assert float(parsed[-1][2]) == search.gamma_star

    def test_writers_read_a_one_shot_iterable_once(self, tmp_path, pop64):
        rows = v.sweep_rates([0.2, 0.3], [0.0, 10.0, 20.0], [0.4, 0.45], pop64)
        cells = v.sweep_gamma_search([0.2, 0.3], [0.0, 20.0], pop64, 0.05)
        for write, table, extra in [(v.write_rates_csv, rows, (7,)),
                                    (v.write_gamma_search_csv, cells, ())]:
            write(tmp_path / "list.csv", table, *extra)
            write(tmp_path / "gen.csv", (item for item in table), *extra)
            assert (tmp_path / "gen.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()


class TestSweepRatesGrid:
    LAMBDAS = [0.1, 0.3, 0.7]
    DNRS_DB = [0.0, 7.5, 20.0, 45.0]
    GAMMAS = [0.35, 0.4, 0.45]

    def count_variance_factor_calls(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[0])
            return v.led.variance_factor(*args)

        monkeypatch.setattr(v.rates, "variance_factor", counted)
        return calls

    def test_one_variance_factor_row_per_brightness_and_ratio(self, pop64, monkeypatch):
        calls = self.count_variance_factor_calls(monkeypatch)
        rows = v.sweep_rates(self.LAMBDAS, self.DNRS_DB, self.GAMMAS, pop64)
        lam, dnr, gam = len(self.LAMBDAS), len(self.DNRS_DB), len(self.GAMMAS)
        assert len(rows) == lam * dnr * (1 + gam)
        assert len(calls) == lam * (1 + gam)

    @pytest.mark.parametrize("gammas", [GAMMAS, v.AUTO])
    def test_rows_equal_per_row_estimates_bit_for_bit(self, pop64, gammas):
        rows = v.sweep_rates(self.LAMBDAS, self.DNRS_DB, gammas, pop64, gamma_step=0.05)
        expected = []
        for lam in self.LAMBDAS:
            for dnr_db in self.DNRS_DB:
                dnr = float(10.0 ** (dnr_db / 10.0))
                expected.append(v.estimate_rate(biasing_spec(lam, dnr), pop64))
                ratios = gammas if gammas != v.AUTO else [
                    v.optimize_gamma(v.effective_brightness(lam)[0], dnr, pop64, 0.05).gamma_star]
                expected.extend(v.estimate_rate(pwm_spec(lam, gamma, dnr), pop64)
                                for gamma in ratios)
        assert [repr(dataclasses.astuple(row)) for row in rows] == \
               [repr(dataclasses.astuple(row)) for row in expected]

    def test_no_ratios_leaves_the_biasing_rows(self, pop64):
        rows = v.sweep_rates([0.2], [0.0, 10.0], [], pop64)
        assert [row.scheme for row in rows] == [v.Scheme.BIASING_ADJUSTMENT] * 2

    def test_infeasible_ratio_is_rejected(self, pop64):
        with pytest.raises(v.DutyCycleError):
            v.sweep_rates([0.3], [10.0], [0.2], pop64)


def bits(x):
    return np.float64(x).tobytes()


class TestBiasingIsPwmAtDutyOne:
    """Biasing adjustment is PWM at forward ratio lambda_eff, duty cycle exactly 1."""

    @pytest.mark.parametrize("lam", [0.05, 0.2, 0.35, 0.5, 0.65, 0.95])
    @pytest.mark.parametrize("dnr", [0.0, 1.0, 10.0 ** 2.35, 1e6])
    def test_estimate_rate_bit_for_bit(self, pop64, lam, dnr):
        biasing = v.estimate_rate(biasing_spec(lam, dnr), pop64)
        pwm = v.estimate_rate(pwm_spec(lam, v.effective_brightness(lam)[0], dnr), pop64)
        assert bits(biasing.rate) == bits(pwm.rate)
        assert bits(biasing.avg_snr_db) == bits(pwm.avg_snr_db)
        assert (biasing.scheme, biasing.gamma) == (v.Scheme.BIASING_ADJUSTMENT, None)
        assert pwm.scheme is v.Scheme.PWM

    def test_auto_sweep_counts_variance_factor_rows(self, pop64, monkeypatch):
        """Per brightness: the search grid, one biasing row, one PWM row per DNR."""
        calls = []

        def counted(*args):
            calls.append(args[0])
            return v.led.variance_factor(*args)

        monkeypatch.setattr(v.rates, "variance_factor", counted)
        lambdas, dnrs_db, step = [0.1, 0.3, 0.7, 0.5], [0.0, 7.5, 20.0], 0.05
        rows = v.sweep_rates(lambdas, dnrs_db, v.AUTO, pop64, gamma_step=step)
        assert len(rows) == 2 * len(lambdas) * len(dnrs_db)
        assert len(calls) == sum(len(v.gamma_grid(v.effective_brightness(lam)[0], step))
                                 + 1 + len(dnrs_db) for lam in lambdas)


class TestGridPointCounts:
    @pytest.mark.parametrize("lam", [0.05, 0.2, 1.0 / 7.0, 0.35, 0.5])
    @pytest.mark.parametrize("step", [0.005, 0.01, 0.05, 0.3, 0.5, 1.0])
    def test_gamma_points_match_the_grid(self, lam, step):
        count = v.rates.gamma_grid_points(lam, step)
        assert isinstance(count, float)
        assert count == len(v.gamma_grid(lam, step))

    # steps just above 0.5 / k, whose k-th point rounded past 0.5 before the cap
    JUST_ABOVE = [0.10000000000010001, *(0.5 / k * (1 + 1e-12) for k in (2, 3, 7, 50, 999))]
    ZETA_STEPS = [0.5, 0.3, 0.1, 0.07, 0.01, 0.005, *JUST_ABOVE]

    @pytest.mark.parametrize("step", ZETA_STEPS)
    def test_zeta_half_counts_the_lower_half(self, step):
        half = v.rates.zeta_grid_half(step)
        assert isinstance(half, float)
        assert half == np.count_nonzero(v.zeta_grid(step) <= 0.5)

    @pytest.mark.parametrize("step", ZETA_STEPS)
    def test_zeta_grid_is_sorted_with_mirror_pairs(self, step):
        """Strictly increasing, so 0.5 appears at most once; the upper half mirrors the lower."""
        grid = v.zeta_grid(step)
        assert np.all(np.diff(grid) > 0)
        lower = grid[grid < 0.5]
        assert np.array_equal(grid[grid > 0.5], (1.0 - lower)[::-1])
        if step in self.JUST_ABOVE:
            assert 0.5 in grid

    def test_overflowing_counts_read_as_inf(self):
        assert v.rates.gamma_grid_points(0.1, 5e-324) == np.inf
        assert v.rates.zeta_grid_half(5e-324) == np.inf
