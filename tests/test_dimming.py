"""Tests for brightness folding, duty cycling, and waveform assembly."""

import csv

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import vlcsim as v
from vlcsim.errors import CurrentRangeError, DutyCycleError

LED = v.LedModel()


def make_symbols(count, n=64, oversample=4, seed=1):
    return [v.to_time_domain(
                v.generate_freq_symbol(n, v.Constellation.QPSK, v.symbol_rng(seed, i)),
                oversample)
            for i in range(count)]


class TestEffectiveBrightness:
    def test_low_target_passes_through(self):
        assert v.effective_brightness(0.25) == (0.25, False)

    def test_high_target_mirrors(self):
        lam_eff, mirrored = v.effective_brightness(0.7)
        assert mirrored
        assert lam_eff == pytest.approx(0.3)

    def test_midpoint_not_mirrored(self):
        assert v.effective_brightness(0.5) == (0.5, False)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            v.effective_brightness(bad)


class TestDutyCycle:
    def test_example_operating_point(self):
        assert v.duty_cycle(0.25, 0.4) == pytest.approx(0.625)

    def test_equal_ratio_means_always_on(self):
        assert v.duty_cycle(0.3, 0.3) == 1.0

    def test_half(self):
        assert v.duty_cycle(0.1, 0.2) == pytest.approx(0.5)

    def test_ratio_below_brightness_is_infeasible(self):
        with pytest.raises(DutyCycleError):
            v.duty_cycle(0.3, 0.2)

    def test_ratio_must_stay_below_one(self):
        with pytest.raises(ValueError):
            v.duty_cycle(0.3, 1.0)

    def test_decimal_complement_of_a_mirrored_brightness_is_always_on(self):
        """gamma = 1 - lambda, written in decimal, gives duty 1 for every
        three-decimal lambda in (0.5, 1), though 1.0 - lambda is rounded."""
        duties = [v.duty_cycle(v.effective_brightness(k / 1000)[0], (1000 - k) / 1000)
                  for k in range(501, 1000)]
        assert len(duties) == 499 and set(duties) == {1.0}
        v.DimmingSpec(0.7, v.Scheme.PWM, dnr=1.0, forward_ratio=0.3)

    def test_rounding_slack_admits_no_decimal_below_the_target(self):
        with pytest.raises(DutyCycleError):
            v.duty_cycle(0.3, 0.299)

    def test_slack_is_at_most_a_fixed_fraction_of_the_target(self):
        """Below 2**-13 the ulp(0.5) window shrinks to 2**-40 of the target."""
        assert v.duty_cycle(1e-16, 2e-16) == 0.5
        with pytest.raises(DutyCycleError):
            v.duty_cycle(2e-16, 1e-16)
        assert v.duty_cycle(v.effective_brightness(0.7)[0], 0.3) == 1.0
        assert v.duty_cycle(2.0 ** -13, 2.0 ** -13 + 2.0 ** -53) == 1.0
        lam, gamma = 2.0 ** -14, 2.0 ** -14 + 2.0 ** -53
        assert v.duty_cycle(lam, gamma) == lam / gamma < 1.0

    def test_ratios_beyond_the_slack_keep_the_plain_quotient(self):
        for lam in (0.05, 0.2, 0.3, 0.35, 0.5):
            for gamma in np.linspace(lam, 0.99, 50):
                assert v.duty_cycle(lam, float(gamma)) == lam / float(gamma)


class TestDimmingSpec:
    def test_pwm_requires_forward_ratio(self):
        with pytest.raises(ValueError):
            v.DimmingSpec(brightness=0.2, scheme=v.Scheme.PWM, dnr=1.0)

    def test_biasing_rejects_forward_ratio(self):
        with pytest.raises(ValueError):
            v.DimmingSpec(brightness=0.2, scheme=v.Scheme.BIASING_ADJUSTMENT, dnr=1.0,
                          forward_ratio=0.4)

    def test_pwm_ratio_checked_against_effective_brightness(self):
        # brightness 0.7 mirrors to 0.3, so 0.4 is feasible
        v.DimmingSpec(brightness=0.7, scheme=v.Scheme.PWM, dnr=1.0, forward_ratio=0.4)
        with pytest.raises(DutyCycleError):
            v.DimmingSpec(brightness=0.45, scheme=v.Scheme.PWM, dnr=1.0, forward_ratio=0.4)

    def test_rejects_negative_dnr(self):
        with pytest.raises(ValueError):
            v.DimmingSpec(brightness=0.2, scheme=v.Scheme.BIASING_ADJUSTMENT, dnr=-1.0)

    @pytest.mark.parametrize("dnr", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_dnr(self, dnr):
        with pytest.raises(ValueError, match="dnr"):
            v.DimmingSpec(brightness=0.2, scheme=v.Scheme.PWM, dnr=dnr, forward_ratio=0.3)


class TestAssembleWaveform:
    def test_five_symbol_demo_layout(self):
        """Five N=256 symbols at brightness 0.25, ratio 0.4: biased blocks and gaps."""
        symbols = make_symbols(5, n=256)
        spec = v.DimmingSpec(brightness=0.25, scheme=v.Scheme.PWM, dnr=1.0, forward_ratio=0.4)
        wave = v.assemble_waveform(symbols, spec, LED)
        on_len = 256 * 4
        off_len = round(on_len * (1 - 0.625) / 0.625)
        assert len(wave) == 5 * (on_len + off_len)
        frame = on_len + off_len
        for k in range(5):
            block = wave[k * frame: k * frame + on_len]
            gap = wave[k * frame + on_len: (k + 1) * frame]
            assert abs(float(np.mean(block)) - 0.4) < 1e-9
            assert np.all(block >= LED.i_low - 1e-9) and np.all(block <= LED.i_high + 1e-9)
            assert_array_equal(gap, np.zeros(off_len))
        optical = v.optical_output(wave, LED)
        assert float(np.mean(optical)) == pytest.approx(0.25 * LED.o_high, rel=0.02)

    def test_biasing_waveform_mean_is_the_bias(self):
        symbols = make_symbols(1)
        spec = v.DimmingSpec(brightness=0.5, scheme=v.Scheme.BIASING_ADJUSTMENT, dnr=1.0)
        wave = v.assemble_waveform(symbols, spec, LED)
        assert abs(float(np.mean(wave)) - 0.5) < 1e-9

    def test_pwm_at_gamma_equal_brightness_is_biasing(self):
        symbols = make_symbols(4)
        biasing = v.assemble_waveform(
            symbols, v.DimmingSpec(brightness=0.25, scheme=v.Scheme.BIASING_ADJUSTMENT, dnr=1.0),
            LED)
        pwm = v.assemble_waveform(
            symbols, v.DimmingSpec(brightness=0.25, scheme=v.Scheme.PWM, dnr=1.0,
                                   forward_ratio=0.25), LED)
        assert_array_equal(biasing, pwm)

    @pytest.mark.parametrize("scheme,gamma", [(v.Scheme.BIASING_ADJUSTMENT, None),
                                              (v.Scheme.PWM, 0.4)])
    def test_mirrored_target_meets_requested_brightness(self, scheme, gamma):
        """Brightness 0.7 waveforms average 0.7 of peak output."""
        symbols = make_symbols(300, seed=4)
        spec = v.DimmingSpec(brightness=0.7, scheme=scheme, dnr=1.0, forward_ratio=gamma)
        wave = v.assemble_waveform(symbols, spec, LED)
        optical = v.optical_output(wave, LED)
        assert float(np.mean(optical)) == pytest.approx(0.7 * LED.o_high, rel=0.01)

    def test_mirrored_pwm_needs_grounded_range(self):
        symbols = make_symbols(2)
        led = v.LedModel(0.1, 1.0, 1.0)
        spec = v.DimmingSpec(brightness=0.7, scheme=v.Scheme.PWM, dnr=1.0, forward_ratio=0.4)
        with pytest.raises(CurrentRangeError):
            v.assemble_waveform(symbols, spec, led)
        # biasing has no off state, so mirroring works on any range
        v.assemble_waveform(
            symbols, v.DimmingSpec(brightness=0.7, scheme=v.Scheme.BIASING_ADJUSTMENT, dnr=1.0),
            led)

    def test_mirrored_pwm_at_duty_one_still_needs_grounded_range(self):
        """PWM at gamma = lambda_eff equals biasing, but keeps PWM's off-state rule."""
        symbols = make_symbols(2)
        led = v.LedModel(0.1, 1.0, 1.0)
        spec = v.DimmingSpec(brightness=0.7, scheme=v.Scheme.PWM, dnr=1.0,
                             forward_ratio=v.effective_brightness(0.7)[0])
        with pytest.raises(CurrentRangeError):
            v.assemble_waveform(symbols, spec, led)

    def test_on_samples_in_range_off_samples_zero(self):
        symbols = make_symbols(10, seed=9)
        spec = v.DimmingSpec(brightness=0.1, scheme=v.Scheme.PWM, dnr=1.0, forward_ratio=0.3)
        wave = v.assemble_waveform(symbols, spec, LED)
        d = 0.1 / 0.3
        on_len = 256
        off_len = round(on_len * (1 - d) / d)
        assert len(wave) == 10 * (on_len + off_len)
        for k in range(10):
            start = k * (on_len + off_len)
            block = wave[start: start + on_len]
            gap = wave[start + on_len: start + on_len + off_len]
            assert np.all(block >= LED.i_low - 1e-9) and np.all(block <= LED.i_high + 1e-9)
            assert_array_equal(gap, np.zeros(off_len))


class TestWaveformCsv:
    def test_writes_current_and_optical_columns(self, tmp_path):
        symbols = make_symbols(2)
        spec = v.DimmingSpec(brightness=0.25, scheme=v.Scheme.BIASING_ADJUSTMENT, dnr=1.0)
        wave = v.assemble_waveform(symbols, spec, LED)
        path = tmp_path / "wave.csv"
        v.write_waveform_csv(path, wave, LED)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sample_index", "current", "optical"]
        assert len(rows) == len(wave) + 1
        assert float(rows[1][1]) == wave[0]
        assert float(rows[1][2]) == v.optical_output(wave[0], LED)


def concatenated_waveform(symbols, spec, led):
    """Reference assembly: scale each symbol into its own block, then concatenate."""
    lam_eff, mirrored = v.effective_brightness(spec.brightness)
    ratio = lam_eff if spec.scheme is v.Scheme.BIASING_ADJUSTMENT else spec.forward_ratio
    d = v.duty_cycle(lam_eff, ratio)
    bias = led.i_low + ratio * led.dynamic_range
    blocks = []
    for sym in symbols:
        alpha = v.compute_alpha(float(np.max(sym.samples)), float(np.min(sym.samples)),
                                bias, led, sym.sigma_x2).alpha
        on = alpha * sym.samples + bias
        blocks.append(on)
        off_count = int(round(len(on) * (1.0 - d) / d))
        if off_count:
            blocks.append(np.zeros(off_count))
    wave = np.concatenate(blocks)
    if mirrored:
        wave = (led.i_high + led.i_low) - wave
    slack = 1e-9 * led.dynamic_range
    wave = np.where((wave > led.i_low - slack) & (wave < led.i_low), led.i_low, wave)
    return np.where((wave < led.i_high + slack) & (wave > led.i_high), led.i_high, wave)


class TestInPlaceAssembly:
    @pytest.mark.parametrize("led", [LED, v.LedModel(0.2, 1.5, 2.0)], ids=["unit", "i_low"])
    @pytest.mark.parametrize("brightness, gamma", [(0.25, None), (0.25, 0.4), (0.1, 0.1),
                                                   (0.7, None), (0.5, None), (0.3, 0.45)])
    def test_matches_concatenated_blocks_bit_for_bit(self, led, brightness, gamma):
        symbols = make_symbols(12, n=16, oversample=2, seed=5)
        scheme = v.Scheme.BIASING_ADJUSTMENT if gamma is None else v.Scheme.PWM
        spec = v.DimmingSpec(brightness=brightness, scheme=scheme, dnr=1.0, forward_ratio=gamma)
        wave = v.assemble_waveform(symbols, spec, led)
        expected = concatenated_waveform(symbols, spec, led)
        assert wave.dtype == expected.dtype and wave.tobytes() == expected.tobytes()

    def test_mirrored_pwm_matches_concatenated_blocks(self):
        symbols = make_symbols(12, n=16, oversample=2, seed=6)
        spec = v.DimmingSpec(brightness=0.7, scheme=v.Scheme.PWM, dnr=1.0, forward_ratio=0.4)
        wave = v.assemble_waveform(symbols, spec, LED)
        assert wave.tobytes() == concatenated_waveform(symbols, spec, LED).tobytes()
        assert np.any(wave == LED.i_high)  # the mirrored off intervals

    def test_leaves_symbols_unchanged(self):
        symbols = make_symbols(3, n=16, oversample=2, seed=7)
        before = [sym.samples.copy() for sym in symbols]
        v.assemble_waveform(symbols, v.DimmingSpec(brightness=0.8, scheme=v.Scheme.PWM,
                                                   dnr=1.0, forward_ratio=0.3), LED)
        for sym, samples in zip(symbols, before):
            assert sym.samples.tobytes() == samples.tobytes()
