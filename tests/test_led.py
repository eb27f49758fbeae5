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


def candidates(max_x, min_x, bias, led):
    """The tightest positive and the tightest negative scaling factor."""
    headroom, footroom = led.i_high - bias, led.i_low - bias
    return (np.minimum(headroom / max_x, footroom / min_x),
            np.maximum(headroom / min_x, footroom / max_x))


class TestLedModel:
    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            v.LedModel(i_low=1.0, i_high=1.0)

    @pytest.mark.parametrize("i_high", [5e-324, 1e-320, np.nextafter(v.led.RANGE_MIN, 0)])
    def test_rejects_a_subnormal_range(self, i_high):
        """Scaled into a subnormal range, a waveform's rounding fell outside the rails."""
        with pytest.raises(ValueError, match="i_high >= i_low \\+ RANGE_MIN"):
            v.LedModel(i_low=0.0, i_high=i_high)
        assert v.LedModel(i_low=0.0, i_high=v.led.RANGE_MIN).dynamic_range == v.led.RANGE_MIN

    @pytest.mark.parametrize("i_low", [-1.0, -1e-300])
    def test_rejects_a_range_below_zero(self, i_low):
        """0 A is the off state, so a range reaching below it would hold the off state."""
        with pytest.raises(ValueError, match="i_low must be >= 0"):
            v.LedModel(i_low=i_low, i_high=1.0)

    def test_rejects_nonpositive_output(self):
        with pytest.raises(ValueError):
            v.LedModel(o_high=0.0)

    @pytest.mark.parametrize("bound", ["i_high", "o_high"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_rejects_a_non_finite_bound(self, bound, value):
        """An infinite range or output would make optical_output infinite or NaN."""
        with pytest.raises(ValueError, match=f"finite.*, got .*{value}"):
            v.LedModel(**{bound: value})

    def test_dynamic_range(self):
        assert v.LedModel(0.2, 1.0, 1.0).dynamic_range == pytest.approx(0.8)


class TestComputeAlpha:
    @pytest.mark.parametrize("max_x, min_x, bias, led, pos, neg, sign", [
        (1.0, -1.0, 0.5, v.LedModel(), 0.5, -0.5, 1),  # a tie goes positive
        (4.0, -2.0, 2.0, v.LedModel(0.0, 10.0, 1.0), 1.0, -0.5, 1),
        (2.0, -4.0, 2.0, v.LedModel(0.0, 10.0, 1.0), 0.5, -1.0, -1),  # the sign flips
        (3.0, -2.0, 0.2, v.LedModel(), 0.1, -0.2 / 3.0, 1)])
    def test_larger_candidate_wins(self, max_x, min_x, bias, led, pos, neg, sign):
        """Of the tightest positive and negative factors, the larger magnitude wins."""
        alpha_pos, alpha_neg = candidates(max_x, min_x, bias, led)
        assert (alpha_pos, alpha_neg) == (pytest.approx(pos), pytest.approx(neg))
        assert v.compute_alpha(max_x, min_x, bias, led) == (alpha_pos if sign > 0 else alpha_neg)

    def test_matches_grid_scan_oracle(self):
        led = v.LedModel(0.0, 10.0, 1.0)
        rng = np.random.default_rng(6)
        for _ in range(25):
            max_x = rng.uniform(0.5, 5.0)
            min_x = -rng.uniform(0.5, 5.0)
            bias = rng.uniform(0.5, 9.5)
            got = v.compute_alpha(max_x, min_x, bias, led)
            want = brute_force_alpha(max_x, min_x, bias, led)
            assert got == pytest.approx(want, abs=1e-4)

    def test_scaling_is_feasible_and_tight(self):
        led = v.LedModel(0.0, 1.0, 1.0)
        rng = np.random.default_rng(21)
        for _ in range(50):
            max_x = rng.uniform(0.5, 4.0)
            min_x = -rng.uniform(0.5, 4.0)
            bias = rng.uniform(0.05, 0.95)
            alpha = v.compute_alpha(max_x, min_x, bias, led)
            ys = alpha * np.array([min_x, max_x]) + bias
            slack = 1e-9 * led.dynamic_range
            assert np.all(ys >= led.i_low - slack) and np.all(ys <= led.i_high + slack)
            # one extreme lands on a boundary
            assert min(abs(ys - led.i_low).min(), abs(ys - led.i_high).min()) < slack

    @pytest.mark.parametrize("hi, lo", [(-0.1, -1.0), (1.0, 0.2), (np.inf, -1.0),
                                        (1.0, -np.inf), (np.nan, -1.0), (1.0, np.nan)])
    def test_rejects_one_sided_extremes(self, hi, lo):
        """One-sided or non-finite extremes: an infinite one gave alpha 0.0, so NaN samples."""
        with pytest.raises(DegenerateSymbolError,
                           match=f"^need finite max_x > 0 > min_x, got max_x={hi}, min_x={lo}$"):
            v.compute_alpha(hi, lo, 0.5, v.LedModel())

    def test_rejects_bias_outside_open_range(self):
        for bias in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(InvalidBiasError):
                v.compute_alpha(1.0, -1.0, bias, v.LedModel())


class TestComputeAlphaOnArrays:
    """One call over rows of extremes equals one scalar call per row, bit for bit."""

    @staticmethod
    def extremes():
        rng = np.random.default_rng(17)
        hi = rng.uniform(0.1, 5.0, 300)
        lo = -rng.uniform(0.1, 5.0, 300)
        lo[:20] = -hi[:20]  # symmetric rows: |alpha_pos| == |alpha_neg| at any bias
        return hi, lo

    @pytest.mark.parametrize("bias", [0.5, 0.2, 0.85])
    def test_matches_scalar_calls(self, bias):
        led = v.LedModel()
        hi, lo = self.extremes()
        alpha = v.compute_alpha(hi, lo, bias, led)
        want = [v.compute_alpha(float(h), float(l), bias, led) for h, l in zip(hi, lo)]
        assert np.array_equal(alpha.view(np.uint64), np.array(want).view(np.uint64))
        alpha_pos, alpha_neg = candidates(hi, lo, bias, led)
        assert np.all(abs(alpha_pos[:20]) == abs(alpha_neg[:20]))
        assert np.all(alpha[:20] == alpha_pos[:20])  # ties go positive
        # off mid-range the negative sign wins for some rows
        assert np.any(alpha < 0) == (bias != 0.5) and np.any(alpha > 0)

    def test_scalars_give_scalars(self):
        alpha = v.compute_alpha(3.0, -2.0, 0.2, v.LedModel())
        assert isinstance(alpha, float) and np.ndim(alpha) == 0

    @pytest.mark.parametrize("row, hi, lo", [(2, 0.0, -1.0), (3, 1.0, 0.0), (4, -1.0, 2.0),
                                             (0, np.inf, -1.0), (1, 1.0, -np.inf),
                                             (2, np.nan, -1.0), (3, 1.0, np.nan)])
    def test_degenerate_row_is_named(self, row, hi, lo):
        his = np.ones(6)
        los = -np.ones(6)
        his[row], los[row] = hi, lo
        his[5] = -1.0  # a later degenerate row is not the one named
        with pytest.raises(DegenerateSymbolError, match=f"^need finite max_x > 0 > min_x, "
                                                        f"got max_x={hi}, min_x={lo} in row {row}$"):
            v.compute_alpha(his, los, 0.5, v.LedModel())


def four_term_variance_factor(zeta, upapr, lpapr):
    """The paper's form, max{min((1-z)^2/U, z^2/L), min((1-z)^2/L, z^2/U)}."""
    zeta = np.asarray(zeta, dtype=np.float64)
    hi = np.maximum(zeta, 1.0 - zeta)
    lo = 1.0 - hi
    a, b = hi * hi, lo * lo
    return np.maximum(np.minimum(a / upapr, b / lpapr), np.minimum(a / lpapr, b / upapr))


EDGE_ZETAS = [*(np.arange(1, 1000) * 0.001), 1e-300, 0.5, 1.0 - 1e-16]


class TestVarianceClosedForm:
    @pytest.mark.parametrize("zeta, upapr, lpapr, variance, rel", [
        (0.5, 4.0, 4.0, 0.0625, 0.0), (0.2, 9.0, 4.0, 0.01, 1e-12)])
    def test_hand_evaluated_values(self, zeta, upapr, lpapr, variance, rel):
        assert v.variance_closed_form(zeta, upapr, lpapr, v.LedModel()) == \
               pytest.approx(variance, rel=rel, abs=0.0)

    def test_cross_checks_against_maximal_scaling(self):
        """Synthetic symbol max=3, min=-2, var=1 reproduces the 0.2-bias value."""
        alpha = v.compute_alpha(3.0, -2.0, 0.2, v.LedModel())
        assert alpha * alpha * 1.0 == pytest.approx(0.01, rel=1e-12)

    @pytest.mark.parametrize("upapr, lpapr", [(np.nan, 2.0), (np.inf, 2.0), (2.0, -np.inf),
                                              (np.array([2.0, np.nan]), 3.0), (-1.0, 1.0),
                                              (0.0, 0.0), (0.0, 1.0), (np.array([2.0, 0.0]), 3.0)])
    def test_rejects_non_finite_papr(self, upapr, lpapr):
        """A NaN PAPR gave a NaN variance and an infinite one 0.0; a negative one a negative
        variance, and a zero one inf or a wrong value, with a divide-by-zero warning."""
        with pytest.raises(ValueError, match="^PAPRs must be positive and finite$"):
            v.variance_closed_form(0.3, upapr, lpapr, v.LedModel())

    def test_rejects_ratio_outside_open_interval(self):
        with pytest.raises(ValueError):
            v.variance_closed_form(0.0, 4.0, 4.0, v.LedModel())
        with pytest.raises(ValueError):
            v.variance_closed_form(1.0, 4.0, 4.0, v.LedModel())

    @pytest.mark.parametrize("seed, other", [
        (14, lambda zeta: (1.0 - zeta, 7.3, 2.9)), (15, lambda zeta: (zeta, 2.9, 7.3))],
        ids=["mirror", "swap"])
    def test_symmetry_is_exact(self, seed, other):
        """zeta <-> 1 - zeta and U <-> L leave the variance's bits unchanged."""
        for zeta in np.random.default_rng(seed).uniform(0.01, 0.99, size=200):
            assert v.variance_closed_form(zeta, 7.3, 2.9, v.LedModel()) == \
                   v.variance_closed_form(*other(zeta), v.LedModel())

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

    def test_population_gives_the_per_symbol_values(self, pop64):
        led = v.LedModel(0.2, 1.5, 2.0)
        for zeta in (0.05, 0.3, 0.5, 0.9):
            got = v.variance_closed_form(zeta, pop64.upapr, pop64.lpapr, led)
            want = [v.variance_closed_form(zeta, float(u), float(l), led)
                    for u, l in zip(pop64.upapr[:500], pop64.lpapr[:500])]
            assert np.array_equal(got[:500], want) and got.shape == pop64.upapr.shape
        zetas = np.array([0.05, 0.3, 0.5, 0.9])
        assert np.array_equal(v.variance_closed_form(zetas, 7.3, 2.9, led),
                              [v.variance_closed_form(z, 7.3, 2.9, led) for z in zetas])
        assert type(v.variance_closed_form(0.3, 7.3, 2.9, led)) is np.float64
        with pytest.raises(ValueError):
            v.variance_closed_form(np.array([0.5, 1.0]), 7.3, 2.9, led)

    def test_scales_with_squared_dynamic_range(self):
        unit = v.variance_closed_form(0.3, 6.0, 5.0, v.LedModel())
        wide = v.variance_closed_form(0.3, 6.0, 5.0, v.LedModel(0.0, 3.0, 1.0))
        assert wide == pytest.approx(9.0 * unit, rel=1e-12)


class TestClosedFormMatchesScaling:
    """The closed form and the per-symbol maximal scaling agree everywhere."""

    ZETAS = np.arange(1, 20) * 0.05

    def test_identity_on_generated_symbols(self, symbols64):
        led = v.LedModel()
        for x in symbols64[:200]:
            upapr, lpapr = v.papr_of(x)
            hi = float(np.max(x))
            lo = float(np.min(x))
            for zeta in self.ZETAS:
                alpha = v.compute_alpha(hi, lo, led.i_low + zeta * led.dynamic_range, led)
                closed = v.variance_closed_form(zeta, upapr, lpapr, led)
                assert closed == pytest.approx(alpha * alpha * np.mean(np.square(x)), rel=1e-12)

    def test_scaled_symbols_cannot_grow(self, symbols64):
        """Adding 1e-6 headroom to |alpha| leaves the dynamic range."""
        led = v.LedModel()
        slack = 1e-9 * led.dynamic_range
        for x in symbols64[:100]:
            hi = float(np.max(x))
            lo = float(np.min(x))
            for zeta in (0.1, 0.3, 0.5):
                bias = led.i_low + zeta * led.dynamic_range
                alpha = v.compute_alpha(hi, lo, bias, led)
                y = alpha * x + bias
                assert np.all(y >= led.i_low - slack) and np.all(y <= led.i_high + slack)
                y_over = alpha * (1 + 1e-6) * x + bias
                assert np.any(y_over < led.i_low - slack) or np.any(y_over > led.i_high + slack)

class TestOpticalOutput:
    @pytest.mark.parametrize("current, led, light", [
        (1.0, v.LedModel(0.2, 1.0, 5.0), 5.0), (0.2, v.LedModel(0.2, 1.0, 5.0), 0.0),
        (0.0, v.LedModel(0.2, 1.0, 5.0), 0.0),  # the off state emits nothing
        (0.25, v.LedModel(), 0.25), (np.array([0.0, 0.5, 1.0]), v.LedModel(), [0.0, 0.5, 1.0])])
    def test_linear_between_the_ends(self, current, led, light):
        np.testing.assert_allclose(v.optical_output(current, led), light)

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
