"""Tests for ergodic-rate estimation, forward-ratio search, and variance profiles."""

import csv
import dataclasses
import warnings

import numpy as np
import pytest

import vlcsim as v


def single_sample_pop(upapr, lpapr):
    return v.PaprPopulation(upapr=np.array([upapr]), lpapr=np.array([lpapr]),
                            n_subcarriers=64, constellation=v.Constellation.QPSK,
                            seed=0, oversample_factor=4)


def biasing_row(rows):
    """The biasing row of a one-cell, one-ratio sweep_rates table."""
    assert [row.scheme for row in rows] == [v.Scheme.BIASING_ADJUSTMENT, v.Scheme.PWM]
    return rows[0]


def empty_pop():
    return v.PaprPopulation(upapr=np.array([]), lpapr=np.array([]),
                            n_subcarriers=64, constellation=v.Constellation.QPSK,
                            seed=0, oversample_factor=4)


class TestRatePerCell:
    @pytest.mark.parametrize("dnr_db", [-np.inf, -10 ** 400], ids=["-inf", "int"])
    def test_zero_budget_means_zero_rate(self, pop64, dnr_db):
        """-inf dB, or an int below every double, is a zero budget: every rate 0 and every
        average SNR -inf dB."""
        assert v.rates.dnr_linear(dnr_db) == 0.0
        rows = v.sweep_rates([0.3], [dnr_db], [0.4], pop64)
        assert [row.rate for row in rows] == [0.0, 0.0]
        assert [row.dnr_db for row in rows] == [-np.inf, -np.inf]
        assert [row.avg_snr_db for row in rows] == [-np.inf, -np.inf]

    @pytest.mark.parametrize("dnr_db, dnr", [(-np.inf, 0.0), (0.0, 1.0), (23.5, 10.0 ** 2.35),
                                             (60.0, 1e6)])
    def test_dnr_is_linear(self, dnr_db, dnr):
        assert v.rates.dnr_linear(dnr_db) == dnr

    @pytest.mark.parametrize("lam, row, rate", [(0.5, 0, 0.5), (0.25, 1, 0.25)],
                             ids=["biasing", "pwm"])
    def test_single_sample(self, lam, row, rate):
        """U=L=2.5, DNR=10: f = 0.25/2.5 at ratio 0.5, SNR 1, rate 1/2 times the duty,
        0.25/0.5 of the time on air for PWM."""
        rows = v.sweep_rates([lam], [10.0], [0.5], single_sample_pop(2.5, 2.5))
        assert rows[row].rate == pytest.approx(rate, rel=1e-12)
        assert rows[row].avg_snr_db == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("run", [lambda pop: v.sweep_rates([0.3], [0.0], [0.4], pop),
                                     lambda pop: v.sweep_rates([0.3], [0.0], v.AUTO, pop),
                                     lambda pop: v.sweep_gamma_search([0.3], [0.0], pop),
                                     v.variance_profile],
                             ids=["explicit", "auto", "search", "profile"])
    def test_rejects_empty_population(self, run):
        with pytest.raises(ValueError, match="population is empty"):
            run(empty_pop())

    def test_strictly_increasing_in_dnr(self, pop64):
        rows = v.sweep_rates([0.2], [0.0, 10.0, 20.0, 30.0], [0.3], pop64)
        for scheme_rows in (rows[::2], rows[1::2]):
            rates = [row.rate for row in scheme_rows]
            assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_mirror_brightness_biasing_is_exact(self, pop64):
        for lam in (0.1, 0.25, 0.3, 0.45):
            a = biasing_row(v.sweep_rates([lam], [20.0], [0.5], pop64))
            b = biasing_row(v.sweep_rates([1.0 - lam], [20.0], [0.5], pop64))
            assert a.rate == b.rate
            assert a.avg_snr_db == b.avg_snr_db

    def test_mirror_brightness_pwm(self, pop64):
        # dyadic brightness mirrors exactly; otherwise the duty factor
        # carries one rounding step from 1 - lam
        a, b, c, d = (v.sweep_rates([lam], [20.0], [0.5], pop64)[1]
                      for lam in (0.25, 0.75, 0.3, 0.7))
        assert a.rate == b.rate
        assert c.rate == pytest.approx(d.rate, rel=1e-12)

    def test_scheme_follows_from_the_ratio(self, pop64):
        """The scheme is read off the ratio: None is biasing adjustment."""
        biasing, pwm = v.sweep_rates([0.2], [10.0], [0.4], pop64)
        assert (biasing.gamma, biasing.scheme) == (None, v.Scheme.BIASING_ADJUSTMENT)
        assert (pwm.gamma, pwm.scheme) == (0.4, v.Scheme.PWM)


# (brightness, step): steps just above (0.5 - lam) / k, whose k-th point rounds past 0.5
# before the cap; 0.2 + 3 * 0.3 / (3 - 5e-10) is 0.50000000005
GAMMA_JUST_ABOVE = [(0.2, 0.3 / (3 - 5e-10)),
                    *((lam, (0.5 - lam) / k * (1 + 1e-12))
                      for lam in (0.05, 0.2, 1.0 / 7.0, 0.35) for k in (1, 3, 50))]


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

    @pytest.mark.parametrize("lam, step", GAMMA_JUST_ABOVE)
    def test_last_point_is_capped_at_exactly_half(self, lam, step):
        """The uncapped last point lam + k step lies past 0.5; the cap makes it 0.5."""
        grid = v.gamma_grid(lam, step)
        k = len(grid) - 1
        assert lam + k * step > 0.5 and grid[-1] == 0.5
        assert np.all(np.diff(grid) > 0)


def search(lam, dnr_db, pop, step=0.005):
    """The forward-ratio search of one (brightness, DNR) cell."""
    [(_, _, result)] = v.sweep_gamma_search([lam], [dnr_db], pop, step)
    return result


class TestGammaSearch:
    def test_never_loses_to_biasing(self, pop64):
        dnrs_db = [0.0, 10.0, 30.0]
        baseline = v.sweep_rates([0.2], dnrs_db, [0.5], pop64)[::2]
        cells = v.sweep_gamma_search([0.2], dnrs_db, pop64)
        for (_, _, result), row in zip(cells, baseline):
            assert row.scheme is v.Scheme.BIASING_ADJUSTMENT
            assert result.rate_at_star >= row.rate

    def test_high_budget_drives_ratio_to_brightness(self, pop64):
        assert abs(search(0.2, 60.0, pop64).gamma_star - 0.2) <= 0.005 + 1e-12

    def test_half_brightness_degenerate_grid(self, pop64):
        result = search(0.5, 20.0, pop64)
        assert result.gamma_star == 0.5
        assert result.grid.shape == (1, 2)

    def test_ties_resolve_to_smallest_gamma(self, pop64):
        # zero budget (-inf dB) makes every rate 0, so the first grid point wins
        result = search(0.3, -np.inf, pop64)
        assert not np.any(result.grid[:, 1])
        assert result.gamma_star == 0.3

    def test_mirrored_brightness_searches_the_effective_grid(self, pop64):
        """0.7 searches the grid of its effective brightness 1.0 - 0.7, not of 0.7."""
        result = search(0.7, 20.0, pop64)
        grid = v.gamma_grid(v.effective_brightness(0.7)[0], 0.005)
        assert result.grid[:, 0].tobytes() == grid.tobytes()
        assert grid[0] == 1.0 - 0.7 and grid[-1] == 0.5

    @pytest.mark.parametrize("dnr_db", [np.inf, np.nan])
    def test_rejects_non_finite_dnr(self, pop64, dnr_db):
        with pytest.raises(ValueError, match=f"dnr_db {dnr_db!r} gives a non-finite"):
            search(0.2, dnr_db, pop64)

    @pytest.mark.parametrize("dnrs_db, shown", [
        ([0.0, 4000.0], 4000.0), (np.array([0.0, 4000.0]), 4000.0),
        ([0.0, np.float64(4000.0)], 4000.0), ([0.0, 10 ** 400], np.inf)],
        ids=["list", "ndarray", "float64", "int"])
    def test_sweeps_reject_a_dnr_db_that_overflows_without_a_warning(self, pop64, dnrs_db,
                                                                     shown):
        """Every input type gets the same ValueError, with no overflow warning first;
        an int beyond every double reads as inf dB."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sweep in (lambda: v.sweep_gamma_search([0.2], dnrs_db, pop64),
                          lambda: v.sweep_rates([0.2], dnrs_db, v.AUTO, pop64),
                          lambda: v.sweep_rates([0.2], dnrs_db, [0.3], pop64)):
                with pytest.raises(ValueError, match=f"dnr_db {shown!r} gives a non-finite"):
                    sweep()

    def test_sweep_matches_one_search_per_cell(self, pop64):
        cells = v.sweep_gamma_search([0.2, 0.7], [0.0, 10.0, 30.0], pop64, 0.01)
        assert [(lam, db) for lam, db, _ in cells] == [
            (lam, db) for lam in (0.2, 0.7) for db in (0.0, 10.0, 30.0)]
        for lam, db, result in cells:
            alone = search(lam, db, pop64, 0.01)
            assert result.gamma_star == alone.gamma_star
            assert result.rate_at_star == alone.rate_at_star
            np.testing.assert_array_equal(result.grid, alone.grid)

    def test_grid_matches_rate_rows(self, pop64):
        result = search(0.35, 20.0, pop64, 0.01)
        gammas = [float(gamma) for gamma in result.grid[:5, 0]]
        rows = v.sweep_rates([0.35], [20.0], gammas, pop64)
        assert [row.gamma for row in rows[1:]] == gammas
        assert [row.rate for row in rows[1:]] == list(result.grid[:5, 1])


class TestVarianceProfile:
    @pytest.mark.parametrize("step", [
        0.01, 0.05, 0.001, 0.003, 0.07, 0.1, 0.25, 0.5, 0.10000000000010001,
        *(0.5 / k * (1 + 1e-12) for k in (2, 3, 7, 50, 999))])
    def test_profile_is_exactly_symmetric(self, pop64, step):
        """The mirrored means are the bits of a per-zeta evaluation on the whole grid."""
        prof = v.variance_profile(pop64, step)
        zetas, means = prof.grid[:, 0], prof.grid[:, 1]
        for i in range(len(zetas)):
            j = int(np.argmin(np.abs(zetas - (1.0 - zetas[i]))))
            assert means[i] == means[j]
        per_zeta = np.array([np.mean(v.variance_factor(z, pop64.upapr, pop64.lpapr))
                             for z in zetas])
        np.testing.assert_array_equal(means.view(np.uint64), per_zeta.view(np.uint64))
        lower = zetas <= 0.5
        # the grid is sorted, so the lower half's first maximum is the row of zeta_dagger
        peak = int(np.argmax(per_zeta[lower]))
        assert (prof.zeta_dagger, bits(prof.peak_mean)) == (zetas[peak], bits(means[peak]))

    def test_rejects_bad_step(self, pop64):
        with pytest.raises(ValueError):
            v.variance_profile(pop64, 0.0)

class TestSweepRates:
    def test_infeasible_ratio_is_rejected(self, pop64):
        with pytest.raises(v.DutyCycleError):
            v.sweep_rates([0.3], [10.0], [0.2], pop64)

    def test_row_order_and_count(self, pop64):
        rows = v.sweep_rates([0.1, 0.2], [0.0, 10.0], [0.3, 0.4], pop64)
        assert len(rows) == 2 * 2 * 3
        assert [r.scheme for r in rows[:3]] == [v.Scheme.BIASING_ADJUSTMENT,
                                                v.Scheme.PWM, v.Scheme.PWM]
        assert rows[0].brightness == 0.1 and rows[-1].brightness == 0.2

    def test_auto_uses_optimized_ratio(self, pop64):
        rows = v.sweep_rates([0.2], [20.0], v.AUTO, pop64, gamma_step=0.01)
        result = search(0.2, 20.0, pop64, 0.01)
        assert rows[1].gamma == result.gamma_star
        assert rows[1].rate == result.rate_at_star

    def test_rejects_unknown_gamma_keyword(self, pop64):
        with pytest.raises(ValueError):
            v.sweep_rates([0.2], [20.0], "best", pop64)

    @pytest.mark.parametrize("sweep, args, name", [
        (v.sweep_rates, ([], [20.0], v.AUTO), "lambdas"),
        (v.sweep_rates, ([0.2], [], v.AUTO), "dnrs_db"),
        (v.sweep_rates, ([0.2], [0.0, 10.0], []), "gammas"),
        (v.sweep_rates, ([0.2], [0.0, 10.0], np.array([])), "gammas"),
        (v.sweep_gamma_search, ([], [20.0]), "lambdas"),
        (v.sweep_gamma_search, ([0.2], []), "dnrs_db")],
        ids=["rates-lambdas", "rates-dnrs", "rates-gammas", "rates-gammas-array",
             "search-lambdas", "search-dnrs"])
    def test_rejects_empty_grids(self, pop64, sweep, args, name):
        """Both sweeps share one entry check. An empty ratio list would leave only the
        biasing rows, not a row per scheme, and an empty search would return no cell."""
        with pytest.raises(ValueError, match=f"^{name} must be non-empty$"):
            sweep(*args, pop64)

    def test_auto_rows_build_no_search_result(self, pop64, monkeypatch):
        """The auto table reads each brightness's search table, not per-cell results."""
        args = ([0.05, 0.2, 0.7], [0.0, 10.0, 30.0], v.AUTO, pop64, 0.01)
        expected = v.sweep_rates(*args)

        def refuse(*_, **__):
            raise AssertionError("sweep_rates built a GammaSearchResult")

        monkeypatch.setattr(v.rates, "GammaSearchResult", refuse)
        assert v.sweep_rates(*args) == expected


class TestCsvWriters:
    def test_rates_csv_layout(self, tmp_path, pop64):
        rows = v.sweep_rates([0.2], [0.0, 20.0], [0.4], pop64)
        path = tmp_path / "rates.csv"
        v.write_rates_csv(path, rows, pop64)
        with open(path) as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["scheme", "lambda", "gamma", "dnr_db", "rate_bits",
                             "avg_snr_db", "n_samples", "seed"]
        assert len(parsed) == len(rows) + 1
        # the population's size and seed, on every row
        assert {tuple(row[6:]) for row in parsed[1:]} == {(str(len(pop64)), str(pop64.seed))}
        assert parsed[1][0] == "biasing" and parsed[1][2] == ""
        assert parsed[2][0] == "pwm" and float(parsed[2][2]) == 0.4
        assert float(parsed[1][4]) == rows[0].rate

    def test_gamma_search_csv_has_starred_summary(self, tmp_path, pop64):
        result = search(0.3, 20.0, pop64, 0.05)
        path = tmp_path / "gamma.csv"
        v.write_gamma_search_csv(path, [(0.3, 20.0, result)])
        with open(path) as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["lambda", "dnr_db", "gamma", "rate_bits", "star"]
        assert len(parsed) == len(result.grid) + 2
        assert parsed[-1][4] == "*"
        assert float(parsed[-1][2]) == result.gamma_star

    def test_writers_read_a_one_shot_iterable_once(self, tmp_path, pop64):
        rows = v.sweep_rates([0.2, 0.3], [0.0, 10.0, 20.0], [0.4, 0.45], pop64)
        cells = v.sweep_gamma_search([0.2, 0.3], [0.0, 20.0], pop64, 0.05)
        for write, table, extra in [(v.write_rates_csv, rows, (pop64,)),
                                    (v.write_gamma_search_csv, cells, ())]:
            write(tmp_path / "list.csv", table, *extra)
            write(tmp_path / "gen.csv", (item for item in table), *extra)
            assert (tmp_path / "gen.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()


def count_factor_calls(monkeypatch):
    """Count rates.variance_factor's calls. The returned function gives the ratios called
    so far, after asserting that each call's factor went through one DNR-block pass, the
    pass that gives both a ratio's log2 row and its SNR row, so no factor is an SNR's alone."""
    calls, passed = [], []

    def counted(*args):
        calls.append((args[0], v.led.variance_factor(*args)))
        return calls[-1][1]

    def counted_pass(factor, dnrs):
        passed.append(factor)
        return dnr_means(factor, dnrs)

    def ratios():
        assert len(passed) == len(calls)
        assert all(factor is fed for (_, factor), fed in zip(calls, passed))
        return [ratio for ratio, _ in calls]

    dnr_means = v.rates._dnr_means
    monkeypatch.setattr(v.rates, "variance_factor", counted)
    monkeypatch.setattr(v.rates, "_dnr_means", counted_pass)
    return ratios


def bits(x):
    return np.float64(x).tobytes()


def paper_rate(duty, dnr, gamma, pop):
    """The paper's PWM rate (1/2) d E[log2(1 + DNR f(gamma))], one mean per cell."""
    return 0.5 * duty * float(np.mean(np.log2(1.0 + dnr * v.variance_factor(gamma, pop.upapr,
                                                                              pop.lpapr))))


def paper_snr_db(dnr, gamma, pop):
    """The paper's average SNR DNR E[f(gamma)] in dB, one mean per cell."""
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(np.mean(dnr * v.variance_factor(gamma, pop.upapr, pop.lpapr)))


def paper_row(lam, gamma, dnr_db, pop):
    """The rate row of one (brightness, ratio, DNR) cell from the paper's formulas;
    gamma None is biasing adjustment."""
    lam_eff = v.effective_brightness(lam)[0]
    ratio = lam_eff if gamma is None else gamma
    dnr = 10.0 ** (float(dnr_db) / 10.0)
    with np.errstate(divide="ignore"):
        shown_db = float(10.0 * np.log10(dnr))
    return v.RateEstimate(
        brightness=lam, gamma=gamma, dnr_db=shown_db,
        rate=float(paper_rate(v.dimming.duty_cycle(lam_eff, ratio), dnr, ratio, pop)),
        avg_snr_db=float(paper_snr_db(dnr, ratio, pop)))


def first_symbols(pop, n):
    return dataclasses.replace(pop, upapr=pop.upapr[:n], lpapr=pop.lpapr[:n])


def grid_bits(cells):
    return [(lam, db, bits(result.gamma_star), bits(result.rate_at_star),
             result.grid.tobytes()) for lam, db, result in cells]


def paper_rows(lambdas, dnrs_db, gammas, pop, step):
    """sweep_rates' rows from the paper's formulas, cell by cell; under AUTO each cell's
    PWM ratio is its search's optimum."""
    return [paper_row(lam, gamma, dnr_db, pop) for lam in lambdas for dnr_db in dnrs_db
            for gamma in [None, *(gammas if gammas != v.AUTO else
                                  [search(lam, dnr_db, pop, step).gamma_star])]]


def rows_text(rows):
    return [repr(dataclasses.astuple(row)) for row in rows]


# (lambdas, DNRs in dB, ratios, gamma_step): shared grid points, 0.7 mirrored to 0.3 + ulp,
# a zero budget, and biasing as PWM at ratio lambda_eff, duty exactly 1
ROW_TABLES = [
    ([0.05, 0.2, 0.35, 0.7], [0.0, 10.0, 26.0], v.AUTO, 0.01),
    ([0.05, 0.2, 0.7], [0.0, 10.0, 26.0], [0.3, 0.4, 0.5], 0.005),
    *(([lam], [-np.inf, 0.0, 23.5, 60.0], [gamma], 0.005)
      for lam, gamma in [(0.05, 0.05), (0.2, 0.31), (0.7, 0.45), (0.95, 0.5)]),
    *(([0.1, 0.3, 0.7], [0.0, 7.5, 20.0, 45.0], gammas, 0.05) for gammas in [[0.35, 0.4, 0.45],
                                                                             v.AUTO]),
    ([0.2], [20.0], [0.4], 0.005),
    *(([lam], [dnr_db], [v.effective_brightness(lam)[0]], 0.005)
      for lam in [0.05, 0.2, 0.35, 0.5, 0.65, 0.95] for dnr_db in [-np.inf, 0.0, 23.5, 60.0]),
]

BLOCK_CASES = [(symbols, dnr_count, gammas) for symbols in [1, 7, 10000]
               for gammas, counts in [(None, [1, 3, 4, 5, 8, 31]), ([0.3, 0.4], [1, 4, 5, 8]),
                                      (v.AUTO, [1, 4, 5, 8])] for dnr_count in counts]


class TestLog2RowTable:
    """Each distinct ratio's log2 and SNR rows are evaluated once per sweep, in DNR blocks,
    with the bits of the paper's formulas evaluated cell by cell."""

    LAMBDAS = [0.05, 0.2, 0.35, 0.7]  # shared grid points, and 0.7 mirrored to 0.3 + ulp

    def assert_grids_are_the_formula(self, cells, pop):
        for lam, dnr_db, result in cells:
            lam_eff = v.effective_brightness(lam)[0]
            dnr = float(10.0 ** (dnr_db / 10.0))
            expected = [paper_rate(v.dimming.duty_cycle(lam_eff, gamma), dnr, gamma, pop)
                        for gamma in map(float, result.grid[:, 0])]
            assert result.grid[:, 1].tobytes() == np.array(expected).tobytes(), (lam, dnr_db)

    @pytest.mark.parametrize("lambdas, dnrs_db, gammas, step", ROW_TABLES)
    def test_rows_are_the_formula(self, pop64, lambdas, dnrs_db, gammas, step):
        rows = v.sweep_rates(lambdas, dnrs_db, gammas, pop64, gamma_step=step)
        assert rows_text(rows) == rows_text(paper_rows(lambdas, dnrs_db, gammas, pop64, step))

    @pytest.mark.parametrize("symbols, dnr_count, gammas", BLOCK_CASES)
    def test_block_edges_keep_the_formulas(self, pop64, monkeypatch, symbols, dnr_count,
                                           gammas):
        """4 DNRs per block at every population size: the last block is short or full. Each
        rate row's SNR comes from its ratio's block pass too, beside the log2 mean."""
        monkeypatch.setattr(v.rates, "_LOG2_BLOCK_BYTES", 4 * 8 * symbols)
        pop = first_symbols(pop64, symbols)
        dnrs_db = 2.0 * np.arange(dnr_count)
        if gammas is None:
            cells = v.sweep_gamma_search([0.2, 0.7], dnrs_db, pop, 0.05)
            self.assert_grids_are_the_formula(cells, pop)
        else:
            rows = v.sweep_rates([0.2, 0.7], dnrs_db, gammas, pop, gamma_step=0.05)
            assert rows_text(rows) == rows_text(paper_rows([0.2, 0.7], dnrs_db, gammas, pop, 0.05))

    @pytest.mark.parametrize("lambdas, dnrs_db, gammas, step, ratios, optima", [
        # the biasing ratios 0.1, 0.3 and 0.7's 0.30000000000000004 and the three PWM ratios
        ([0.1, 0.3, 0.7], [0.0, 7.5, 20.0, 45.0], [0.35, 0.4, 0.45], 0.005,
         [0.1, 0.3, 0.30000000000000004, 0.35, 0.4, 0.45], [0.35, 0.4, 0.45]),
        # 0.7's grid starts at 0.30000000000000004, a point of 0.1's grid, and 0.5's grid is
        # the 0.5 the other three share: 20 grid points, 12 ratios. The reported ratios, the
        # biasing rows' lambda_eff and 12 optima, 4 distinct, are grid ratios
        ([0.1, 0.3, 0.7, 0.5], [0.0, 7.5, 20.0], v.AUTO, 0.05,
         [0.1, 0.15000000000000002, 0.2, 0.25, 0.3, 0.30000000000000004, 0.35,
          0.35000000000000003, 0.4, 0.45, 0.45000000000000007, 0.5],
         [0.4, 0.45, 0.45000000000000007, 0.5])], ids=["explicit", "auto"])
    def test_one_factor_per_distinct_ratio(self, pop64, monkeypatch, lambdas, dnrs_db, gammas,
                                           step, ratios, optima):
        """Each distinct ratio needs one factor, for its log2 and SNR rows."""
        called = count_factor_calls(monkeypatch)
        rows = v.sweep_rates(lambdas, dnrs_db, gammas, pop64, gamma_step=step)
        pwm_rows = 1 if gammas == v.AUTO else len(gammas)
        assert len(rows) == len(lambdas) * len(dnrs_db) * (1 + pwm_rows)
        assert sorted(called()) == ratios
        assert sorted({row.gamma for row in rows if row.scheme is v.Scheme.PWM}) == optima

    def test_default_blocks_match_the_formula(self, pop64):
        cells = v.sweep_gamma_search(self.LAMBDAS, 2.0 * np.arange(31), pop64, 0.01)
        self.assert_grids_are_the_formula(cells, pop64)

    def test_shared_ratios_match_one_sweep_per_brightness(self, pop64):
        dnrs_db = [0.0, 2.0, 14.0, 30.0, 60.0]
        together = v.sweep_gamma_search(self.LAMBDAS, dnrs_db, pop64, 0.005)
        alone = [cell for lam in self.LAMBDAS
                 for cell in v.sweep_gamma_search([lam], dnrs_db, pop64, 0.005)]
        assert grid_bits(together) == grid_bits(alone)
        for gammas in (v.AUTO, [0.35, 0.4, 0.5]):
            rows = v.sweep_rates(self.LAMBDAS, dnrs_db, gammas, pop64)
            alone = [row for lam in self.LAMBDAS
                     for row in v.sweep_rates([lam], dnrs_db, gammas, pop64)]
            assert rows_text(rows) == rows_text(alone)

    def test_two_populations_in_one_process(self, pop64, pop256):
        """No row outlives its sweep: each population reads only its own rows."""
        dnrs_db = [0.0, 20.0, 40.0]
        first = v.sweep_gamma_search(self.LAMBDAS, dnrs_db, pop64, 0.05)
        other = v.sweep_gamma_search(self.LAMBDAS, dnrs_db, pop256, 0.05)
        self.assert_grids_are_the_formula(first, pop64)
        self.assert_grids_are_the_formula(other, pop256)
        assert grid_bits(v.sweep_gamma_search(self.LAMBDAS, dnrs_db, pop64, 0.05)) == \
               grid_bits(first)
        assert ([row.rate for row in v.sweep_rates(self.LAMBDAS, dnrs_db, v.AUTO, pop256)]
                != [row.rate for row in v.sweep_rates(self.LAMBDAS, dnrs_db, v.AUTO, pop64)])


# steps just above 0.5 / k, whose k-th point rounded past 0.5 before the cap
JUST_ABOVE = [0.10000000000010001, *(0.5 / k * (1 + 1e-12) for k in (2, 3, 7, 50, 999))]
ZETA_STEPS = [0.5, 0.3, 0.1, 0.07, 0.01, 0.005, *JUST_ABOVE]


# each case gives (a budget check, the config key it counts under, the grid it bounds)
def dnr_case(start, stop, step):
    cfg = v.ExperimentConfig(dnr_db_start=start, dnr_db_stop=stop, dnr_db_step=step)
    return cfg.check_rate_table_budget, "dnr_db_step", cfg.dnr_db_grid


def gamma_case(lam, step):
    # one brightness over a one-point DNR grid: the search's cells are the ratio grid's points
    cfg = v.ExperimentConfig(lambdas=(lam,), dnr_db_stop=0.0, gamma_step=step)
    return cfg.check_search_budget, "gamma_step", lambda: v.gamma_grid(lam, step)


def zeta_case(step):
    cfg = v.ExperimentConfig(zeta_step=step)
    return cfg.check_profile_budget, "zeta_step", lambda: v.zeta_grid(step)


# (start, stop, step): a negative start, and steps just above a divisor of the span
DNR_GRIDS = [(0.0, 60.0, 2.0), (0.0, 60.0, 0.1), (-10.0, 60.0, 0.5), (-10.0, 60.0, 0.3),
             (5.0, 5.0, 1.0), (0.0, 60.0, 60.0 / 7 * (1 + 1e-12)),
             (-3.5, 7.25, 10.75 / 3 * (1 + 1e-12)), (-40.0, -0.1, 39.9 / 3 * (1 + 1e-12))]
GRID_CASES = [*((dnr_case, args) for args in DNR_GRIDS),
              *((gamma_case, (lam, step)) for lam in (0.05, 0.2, 1.0 / 7.0, 0.35, 0.5)
                for step in (0.005, 0.01, 0.05, 0.3, 0.5, 1.0)),
              *((gamma_case, args) for args in GAMMA_JUST_ABOVE),
              *((zeta_case, (step,)) for step in ZETA_STEPS)]


class TestGridPointCounts:
    @pytest.mark.parametrize("case, args", GRID_CASES,
                             ids=[f"{case.__name__[:-5]}{args}" for case, args in GRID_CASES])
    def test_budget_counts_the_built_grid(self, monkeypatch, case, args):
        """The count each budget check bounds is a float equal to the built grid's length."""
        check, key, build = case(*args)
        counts = {}  # the first count per key; the DNR grid's comes before the table's
        monkeypatch.setattr(v.config, "_check_budget",
                            lambda budget_key, count, *_: counts.setdefault(budget_key, count))
        check()
        assert isinstance(counts[key], float)
        assert counts[key] == len(build())

    @pytest.mark.parametrize("step", ZETA_STEPS)
    def test_zeta_grid_is_sorted_with_mirror_pairs(self, step):
        """Strictly increasing, so 0.5 appears at most once; the upper half mirrors the lower."""
        grid = v.zeta_grid(step)
        assert np.all(np.diff(grid) > 0)
        lower = grid[grid < 0.5]
        assert np.array_equal(grid[grid > 0.5], (1.0 - lower)[::-1])
        if step in JUST_ABOVE:
            assert 0.5 in grid

    def test_overflowing_counts_read_as_inf_and_build_nothing(self):
        assert v.rates.grid_points(0.1, 0.5, 5e-324) == np.inf
        assert v.rates.grid_points(0.0, 0.5, 5e-324) == np.inf
        for build in (lambda: v.gamma_grid(0.1, 5e-324), lambda: v.zeta_grid(5e-324)):
            with pytest.raises(ValueError, match="grid step 5e-324 gives inf points"):
                build()


# relative margin that a rate bound must clear before a test relies on it: it covers
# the rounding of the Monte Carlo means, about 1e-13 relative or less on these grids
BOUND_MARGIN = 1e-9


def factor_rows(pop, grid):
    """variance_factor at every forward ratio of the grid, one row per ratio."""
    return np.array([v.variance_factor(gamma, pop.upapr, pop.lpapr) for gamma in grid])


class TestLowDnrOptimum:
    """At low DNR log2(1 + x) -> x / ln 2, so the PWM rate (1/2)(lambda/gamma) E[log2(1 + DNR f)]
    peaks at gamma_0 = argmax E[f(gamma)] / gamma over the brightness's grid.

    x - x^2/2 <= ln(1 + x) <= x bounds each ratio's rate: with m = E[f] and s = E[f^2],
    gamma_0 still wins while D (m_0 - D s_0 / 2) / gamma_0 exceeds every other D m / gamma,
    that is up to D- = 2 gamma_0 (m_0 / gamma_0 - max m / gamma) / s_0.
    """

    @pytest.mark.parametrize("population", ["pop64", "pop64_qam16", "pop256"])
    @pytest.mark.parametrize("lam", [0.05, 0.2, 0.35, 0.45])
    def test_search_finds_the_low_dnr_optimum_below_the_variance_peak(self, request,
                                                                      population, lam):
        pop = request.getfixturevalue(population)
        grid = v.gamma_grid(lam, 0.005)
        f = factor_rows(pop, grid)
        mean_f, mean_f2 = f.mean(axis=1), np.mean(f * f, axis=1)
        # exact: beyond argmax E[f], E[f] is no larger and gamma is larger
        best = np.argmax(mean_f / grid)
        assert grid[best] <= grid[np.argmax(mean_f)]
        lead = mean_f[best] / grid[best]
        runner_up = np.max(np.delete(mean_f / grid, best))
        d_minus = 2 * grid[best] * (lead * (1 - BOUND_MARGIN) - runner_up) / mean_f2[best]
        d_minus_db = 10 * np.log10(d_minus)
        assert d_minus_db > -20.0  # -14.5 dB and above on these populations
        for _, dnr_db, result in v.sweep_gamma_search(
                [lam], d_minus_db - np.array([20.0, 3.0, 0.01]), pop, 0.005):
            assert result.gamma_star == grid[best], dnr_db


class TestHighDnrOptimum:
    """At high DNR the log2 D term dominates, and it carries the duty factor lambda/gamma.

    log2(D f) <= log2(1 + D f) <= log2(D f) + 1 / (D f ln 2), so with a = E[log2 f] and
    b = E[1/f] / ln 2 the rate at gamma is at most (lambda/2)(log2 D + a + b/D)/gamma and
    biasing adjustment's at least (lambda/2)(log2 D + a_lambda)/lambda. Where every gamma >
    lambda's bound is below biasing's, the search returns gamma* = lambda.
    """

    DNRS_DB = np.arange(0.0, 80.5, 0.5)

    @pytest.mark.parametrize("lam", [0.05, 0.2, 0.35])
    def test_search_returns_biasing_above_the_bound(self, pop64, lam):
        grid = v.gamma_grid(lam, 0.005)
        f = factor_rows(pop64, grid)
        a = np.mean(np.log2(f), axis=1)
        b = np.mean(1.0 / f, axis=1) / np.log(2.0)
        dnr = 10.0 ** (self.DNRS_DB / 10.0)
        pwm = (np.log2(dnr) + a[1:, None] + b[1:, None] / dnr) / grid[1:, None]
        biasing = (np.log2(dnr) + a[0]) / grid[0]
        holds = np.all(pwm <= biasing - BOUND_MARGIN * np.abs(biasing), axis=0)
        # D+ = 45.0, 37.0 and 33.0 dB on this grid (44.7, 36.1 and 32.7 dB on a 0.1 dB one)
        assert holds.any() and self.DNRS_DB[holds].min() <= 60.0
        for _, dnr_db, result in v.sweep_gamma_search([lam], self.DNRS_DB[holds], pop64, 0.005):
            assert result.gamma_star == lam, dnr_db
