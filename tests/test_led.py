"""Tests for the LED range model, maximal scaling, and the closed-form variance."""

import numpy as np
import pytest

import vlcsim as v
from vlcsim.errors import CurrentRangeError, DegenerateSymbolError, InvalidBiasError


def brute_force_alpha(max_x, min_x, bias, led, steps=2_000_001):
    """Grid-scan oracle: the largest-|alpha| keeping both extremes in range."""
    limit = 2.0 * led.dynamic_range / min(max_x, -min_x)
    alphas = np.linspace(-limit, limit, steps)
    lows = np.minimum(alphas * max_x, alphas * min_x) + bias
    highs = np.maximum(alphas * max_x, alphas * min_x) + bias
    feasible = (lows >= led.i_low - 1e-12) & (highs <= led.i_high + 1e-12)
    candidates = alphas[feasible]
    top = np.max(np.abs(candidates))
    # among near-ties in magnitude, prefer the positive sign like compute_alpha
    return float(np.max(candidates[np.abs(candidates) >= top - 1e-9]))


class TestLedModel:
    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            v.LedModel(i_low=1.0, i_high=1.0)

    def test_rejects_nonpositive_output(self):
        with pytest.raises(ValueError):
            v.LedModel(o_high=0.0)

    def test_dynamic_range(self):
        assert v.LedModel(0.2, 1.0, 1.0).dynamic_range == pytest.approx(0.8)


class TestComputeAlpha:
    def test_symmetric_case_tie_goes_positive(self):
        d = v.compute_alpha(1.0, -1.0, 0.5, v.LedModel())
        assert d.alpha_pos == pytest.approx(0.5)
        assert d.alpha_neg == pytest.approx(-0.5)
        assert d.alpha == d.alpha_pos > 0

    def test_positive_branch_wins(self):
        led = v.LedModel(0.0, 10.0, 1.0)
        d = v.compute_alpha(4.0, -2.0, 2.0, led)
        assert d.alpha_pos == pytest.approx(1.0)
        assert d.alpha_neg == pytest.approx(-0.5)
        assert d.alpha == pytest.approx(1.0)

    def test_sign_flip_chosen_when_negative_is_larger(self):
        led = v.LedModel(0.0, 10.0, 1.0)
        d = v.compute_alpha(2.0, -4.0, 2.0, led)
        assert d.alpha_pos == pytest.approx(0.5)
        assert d.alpha_neg == pytest.approx(-1.0)
        assert d.alpha == pytest.approx(-1.0)

    def test_matches_grid_scan_oracle(self):
        led = v.LedModel(0.0, 10.0, 1.0)
        rng = np.random.default_rng(6)
        for _ in range(25):
            max_x = rng.uniform(0.5, 5.0)
            min_x = -rng.uniform(0.5, 5.0)
            bias = rng.uniform(0.5, 9.5)
            got = v.compute_alpha(max_x, min_x, bias, led).alpha
            want = brute_force_alpha(max_x, min_x, bias, led)
            assert got == pytest.approx(want, abs=1e-4)

    def test_scaling_is_feasible_and_tight(self):
        led = v.LedModel(0.0, 1.0, 1.0)
        rng = np.random.default_rng(21)
        for _ in range(50):
            max_x = rng.uniform(0.5, 4.0)
            min_x = -rng.uniform(0.5, 4.0)
            bias = rng.uniform(0.05, 0.95)
            d = v.compute_alpha(max_x, min_x, bias, led)
            ys = d.alpha * np.array([min_x, max_x]) + bias
            slack = 1e-9 * led.dynamic_range
            assert np.all(ys >= led.i_low - slack) and np.all(ys <= led.i_high + slack)
            # one extreme lands on a boundary
            assert min(abs(ys - led.i_low).min(), abs(ys - led.i_high).min()) < slack

    def test_sign_magnitudes(self):
        d = v.compute_alpha(3.0, -2.0, 0.2, v.LedModel(), sigma_x2=2.0)
        assert d.alpha_pos > 0 > d.alpha_neg
        assert abs(d.alpha) == max(abs(d.alpha_pos), abs(d.alpha_neg))
        assert d.sigma_y2 == d.alpha * d.alpha * 2.0

    def test_rejects_one_sided_extremes(self):
        with pytest.raises(DegenerateSymbolError):
            v.compute_alpha(-0.1, -1.0, 0.5, v.LedModel())
        with pytest.raises(DegenerateSymbolError):
            v.compute_alpha(1.0, 0.2, 0.5, v.LedModel())

    def test_rejects_bias_outside_open_range(self):
        for bias in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(InvalidBiasError):
                v.compute_alpha(1.0, -1.0, bias, v.LedModel())


def four_term_variance_factor(zeta, upapr, lpapr):
    """The paper's form, max{min((1-z)^2/U, z^2/L), min((1-z)^2/L, z^2/U)}."""
    zeta = np.asarray(zeta, dtype=np.float64)
    hi = np.maximum(zeta, 1.0 - zeta)
    lo = 1.0 - hi
    a, b = hi * hi, lo * lo
    return np.maximum(np.minimum(a / upapr, b / lpapr), np.minimum(a / lpapr, b / upapr))


EDGE_ZETAS = [*(np.arange(1, 1000) * 0.001), 1e-300, 0.5, 1.0 - 1e-16]


class TestVarianceClosedForm:
    def test_symmetric_papr(self):
        assert v.variance_closed_form(0.5, v.PaprSample(4.0, 4.0), v.LedModel()) == 0.0625

    def test_asymmetric_papr(self):
        got = v.variance_closed_form(0.2, v.PaprSample(9.0, 4.0), v.LedModel())
        assert got == pytest.approx(0.01, rel=1e-12)

    def test_cross_checks_against_maximal_scaling(self):
        """Synthetic symbol max=3, min=-2, var=1 reproduces the 0.2-bias value."""
        d = v.compute_alpha(3.0, -2.0, 0.2, v.LedModel(), sigma_x2=1.0)
        assert d.sigma_y2 == pytest.approx(0.01, rel=1e-12)

    def test_rejects_ratio_outside_open_interval(self):
        with pytest.raises(ValueError):
            v.variance_closed_form(0.0, v.PaprSample(4.0, 4.0), v.LedModel())
        with pytest.raises(ValueError):
            v.variance_closed_form(1.0, v.PaprSample(4.0, 4.0), v.LedModel())

    def test_mirror_symmetry_is_exact(self):
        rng = np.random.default_rng(14)
        papr = v.PaprSample(7.3, 2.9)
        for zeta in rng.uniform(0.01, 0.99, size=200):
            a = v.variance_closed_form(zeta, papr, v.LedModel())
            b = v.variance_closed_form(1.0 - zeta, papr, v.LedModel())
            assert a == b

    def test_papr_swap_symmetry_is_exact(self):
        rng = np.random.default_rng(15)
        for zeta in rng.uniform(0.01, 0.99, size=200):
            a = v.variance_closed_form(zeta, v.PaprSample(7.3, 2.9), v.LedModel())
            b = v.variance_closed_form(zeta, v.PaprSample(2.9, 7.3), v.LedModel())
            assert a == b

    @pytest.mark.parametrize("population", ["pop64", "pop64_qam16", "gaussian4"])
    def test_two_term_kernel_equals_the_four_term_form_bit_for_bit(self, request, population):
        if population == "gaussian4":
            # one data bin: every symbol's U equals its L, the tie P == Q
            pop = v.sample_papr_population(4, v.Constellation.COMPLEX_GAUSSIAN, 2000, seed=3)
        else:
            pop = request.getfixturevalue(population)
        for zeta in EDGE_ZETAS:
            want = four_term_variance_factor(zeta, pop.upapr, pop.lpapr).view(np.uint64)
            got = v.variance_factor(zeta, pop.upapr, pop.lpapr)
            assert np.array_equal(got.view(np.uint64), want), zeta
            swapped = v.variance_factor(zeta, pop.lpapr, pop.upapr)
            assert np.array_equal(swapped.view(np.uint64), want), zeta

    def test_scales_with_squared_dynamic_range(self):
        papr = v.PaprSample(6.0, 5.0)
        unit = v.variance_closed_form(0.3, papr, v.LedModel())
        wide = v.variance_closed_form(0.3, papr, v.LedModel(0.0, 3.0, 1.0))
        assert wide == pytest.approx(9.0 * unit, rel=1e-12)


class TestClosedFormMatchesScaling:
    """The closed form and the per-symbol maximal scaling agree everywhere."""

    ZETAS = np.arange(1, 20) * 0.05

    def test_identity_on_generated_symbols(self, symbols64):
        led = v.LedModel()
        for sym in symbols64[:200]:
            papr = v.papr_of(sym)
            hi = float(np.max(sym.samples))
            lo = float(np.min(sym.samples))
            for zeta in self.ZETAS:
                d = v.compute_alpha(hi, lo, led.i_low + zeta * led.dynamic_range, led,
                                    sym.sigma_x2)
                closed = v.variance_closed_form(zeta, papr, led)
                assert closed == pytest.approx(d.sigma_y2, rel=1e-12)

    def test_scaled_symbols_cannot_grow(self, symbols64):
        """Adding 1e-6 headroom to |alpha| leaves the dynamic range."""
        led = v.LedModel()
        slack = 1e-9 * led.dynamic_range
        for sym in symbols64[:100]:
            hi = float(np.max(sym.samples))
            lo = float(np.min(sym.samples))
            for zeta in (0.1, 0.3, 0.5):
                bias = led.i_low + zeta * led.dynamic_range
                d = v.compute_alpha(hi, lo, bias, led)
                y = d.alpha * sym.samples + bias
                assert np.all(y >= led.i_low - slack) and np.all(y <= led.i_high + slack)
                y_over = d.alpha * (1 + 1e-6) * sym.samples + bias
                assert np.any(y_over < led.i_low - slack) or np.any(y_over > led.i_high + slack)

    def test_population_variance_drops_with_subcarriers(self, pop64, pop1024):
        mid64 = float(np.mean(v.variance_factor(0.5, pop64.upapr, pop64.lpapr)))
        mid1024 = float(np.mean(v.variance_factor(0.5, pop1024.upapr, pop1024.lpapr)))
        assert mid64 > mid1024


class TestOpticalOutput:
    def test_endpoints(self):
        led = v.LedModel(0.2, 1.0, 5.0)
        assert v.optical_output(led.i_high, led) == pytest.approx(5.0)
        assert v.optical_output(led.i_low, led) == 0.0

    def test_off_state_emits_nothing(self):
        assert v.optical_output(0.0, v.LedModel(0.2, 1.0, 5.0)) == 0.0

    def test_linear_in_brightness(self):
        led = v.LedModel()
        i_avg = led.i_low + 0.25 * led.dynamic_range
        assert v.optical_output(i_avg, led) == pytest.approx(0.25 * led.o_high)

    def test_vectorized(self):
        led = v.LedModel()
        out = v.optical_output(np.array([0.0, 0.5, 1.0]), led)
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0])

    def test_rejects_unreachable_currents(self):
        led = v.LedModel(0.2, 1.0, 1.0)
        for current in (0.1, 1.2, -0.3):
            with pytest.raises(CurrentRangeError):
                v.optical_output(current, led)
        with pytest.raises(CurrentRangeError):
            v.optical_output(np.array([0.5, 1.1]), led)


class TestOpticalOutputArray:
    @pytest.mark.parametrize("led", [v.LedModel(), v.LedModel(0.2, 1.5, 3.0),
                                     v.LedModel(0.0, 0.7, 0.3)])
    def test_matches_the_closed_form_bit_for_bit(self, led):
        currents = np.random.default_rng(4).uniform(led.i_low, led.i_high, 500)
        currents[::7] = 0.0
        currents[1] = led.i_low
        currents[2] = led.i_high
        expected = np.where(currents == 0.0, 0.0,
                            led.o_high * (currents - led.i_low) / led.dynamic_range)
        assert v.optical_output(currents, led).tobytes() == expected.tobytes()

    def test_leaves_its_input_unchanged(self):
        led = v.LedModel(0.2, 1.5, 3.0)
        currents = np.array([0.0, 0.2, 0.9, 1.5, 0.0, 1.1])
        before = currents.copy()
        out = v.optical_output(currents, led)
        assert currents.tobytes() == before.tobytes()
        assert out is not currents
