"""Tests for brightness folding, duty cycling, and waveform assembly."""

import csv
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import vlcsim as v
from vlcsim.cli import _symbol_blocks
from vlcsim.errors import CurrentRangeError, DutyCycleError

LED = v.LedModel()
LED_I_LOW = v.LedModel(0.2, 1.5, 2.0)


def make_symbols(count, n=64, oversample=4, seed=1):
    """count seeded time-domain symbols, one per row."""
    return np.stack([v.to_time_domain(
                         v.generate_freq_symbol(n, v.Constellation.QPSK, v.symbol_rng(seed, i)),
                         oversample)
                     for i in range(count)])


class TestEffectiveBrightness:
    @pytest.mark.parametrize("brightness, folded", [
        (0.25, (0.25, False)), (0.7, (pytest.approx(0.3), True)), (0.5, (0.5, False))],
        ids=["low", "high-mirrors", "midpoint"])
    def test_folds_into_the_lower_half(self, brightness, folded):
        assert v.effective_brightness(brightness) == folded

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            v.effective_brightness(bad)


class TestDutyCycle:
    @pytest.mark.parametrize("lam, gamma, duty", [
        (0.25, 0.4, 0.625), (0.3, 0.3, 1.0), (0.1, 0.2, 0.5),
        (1e-16, 2e-16, 0.5), (0.7, 0.3, 1.0), (2.0 ** -13, 2.0 ** -13 + 2.0 ** -53, 1.0)],
        ids=["example", "always-on", "half", "tiny", "decimal-mirror", "window-edge"])
    def test_operating_points(self, lam, gamma, duty):
        """Within the window min(ulp(0.5), 2**-40 lambda) of the target the duty is 1: a
        mirrored 1.0 - 0.7 lies within it of 0.3, and below 2**-13 the window shrinks."""
        assert v.duty_cycle(v.effective_brightness(lam)[0], gamma) == duty

    @pytest.mark.parametrize("lam, gamma, error, match", [
        (0.3, 0.2, DutyCycleError, "duty cycle would exceed 1"),
        (0.3, 0.299, DutyCycleError, "duty cycle would exceed 1"),  # no decimal below
        (2e-16, 1e-16, DutyCycleError, "duty cycle would exceed 1"),
        (0.3, 1.0, ValueError, "forward ratio must be < 1"),
        (0.0, 0.5, ValueError, "effective brightness must be in"),
        (1.0, 0.5, ValueError, "effective brightness must be in")])
    def test_rejects_unreachable_operating_points(self, lam, gamma, error, match):
        with pytest.raises(error, match=match):
            v.duty_cycle(lam, gamma)

    def test_decimal_complement_of_a_mirrored_brightness_is_always_on(self):
        """gamma = 1 - lambda, written in decimal, gives duty 1 for every
        three-decimal lambda in (0.5, 1), though 1.0 - lambda is rounded."""
        duties = [v.duty_cycle(v.effective_brightness(k / 1000)[0], (1000 - k) / 1000)
                  for k in range(501, 1000)]
        assert len(duties) == 499 and set(duties) == {1.0}
        v.DimmingSpec(0.7, 0.3)

    def test_ratios_beyond_the_slack_keep_the_plain_quotient(self):
        """Just past the window below 2**-13 too."""
        lam, gamma = 2.0 ** -14, 2.0 ** -14 + 2.0 ** -53
        assert v.duty_cycle(lam, gamma) == lam / gamma < 1.0
        for lam in (0.05, 0.2, 0.3, 0.35, 0.5):
            for gamma in np.linspace(lam, 0.99, 50):
                assert v.duty_cycle(lam, float(gamma)) == lam / float(gamma)


class TestDimmingSpec:
    def test_scheme_follows_the_forward_ratio(self):
        assert v.DimmingSpec(0.2).scheme is v.Scheme.BIASING_ADJUSTMENT
        assert v.DimmingSpec(0.2, 0.4).scheme is v.Scheme.PWM
        with pytest.raises(AttributeError):
            v.DimmingSpec(0.2).scheme = v.Scheme.PWM

    def test_pwm_ratio_checked_against_effective_brightness(self):
        # brightness 0.7 mirrors to 0.3, so 0.4 is feasible
        v.DimmingSpec(brightness=0.7, forward_ratio=0.4)
        with pytest.raises(DutyCycleError):
            v.DimmingSpec(brightness=0.45, forward_ratio=0.4)

    @pytest.mark.parametrize("brightness, gamma", [(0.0, None), (1.2, None), (0.2, 1.0),
                                                   (0.25, 0.0), (0.25, -0.0)])
    def test_rejects_brightness_or_ratio_outside_the_unit_interval(self, brightness, gamma):
        """The frame rule too: a zero ratio is no ratio to pulse at, not biasing's no gap."""
        with pytest.raises(ValueError):
            v.DimmingSpec(brightness, gamma)
        with pytest.raises(ValueError):
            v.dimming.off_interval(64, brightness, gamma)


class TestAssembleWaveform:
    def test_infinite_sample_is_a_degenerate_row(self):
        """Its alpha was 0.0, so the drive sample was NaN, with an invalid-value warning."""
        with pytest.raises(v.DegenerateSymbolError, match="max_x=inf, min_x=-1.0 in row 0$"):
            v.assemble_waveform(np.array([[np.inf, -1.0, 0.5]]), v.DimmingSpec(0.25), LED)

    @pytest.mark.parametrize("count, n, seed, brightness, gamma, optical", [
        (5, 256, 1, 0.25, 0.4, True), (10, 64, 9, 0.1, 0.3, False)])
    def test_frames_are_biased_symbols_then_gaps(self, count, n, seed, brightness, gamma,
                                                 optical):
        """Each frame is a symbol's samples inside the range, then off_interval zeros."""
        symbols = make_symbols(count, n=n, seed=seed)
        wave = v.assemble_waveform(symbols, v.DimmingSpec(brightness, gamma), LED)
        on_len = n * 4
        d = brightness / gamma
        off_len = round(on_len * (1 - d) / d)
        assert len(wave) == count * (on_len + off_len)
        for k in range(count):
            start = k * (on_len + off_len)
            block = wave[start: start + on_len]
            assert np.all(block >= LED.i_low - 1e-9) and np.all(block <= LED.i_high + 1e-9)
            assert_array_equal(wave[start + on_len: start + on_len + off_len], np.zeros(off_len))
            if optical:
                assert abs(float(np.mean(block)) - gamma) < 1e-9
        if optical:
            mean = float(np.mean(v.optical_output(wave, LED)))
            assert mean == pytest.approx(brightness * LED.o_high, rel=0.02)

    def test_biasing_waveform_mean_is_the_bias(self):
        symbols = make_symbols(1)
        spec = v.DimmingSpec(0.5)
        wave = v.assemble_waveform(symbols, spec, LED)
        assert abs(float(np.mean(wave)) - 0.5) < 1e-9

    def test_pwm_at_gamma_equal_brightness_is_biasing(self):
        symbols = make_symbols(4)
        biasing = v.assemble_waveform(symbols, v.DimmingSpec(0.25), LED)
        pwm = v.assemble_waveform(symbols, v.DimmingSpec(0.25, 0.25), LED)
        assert_array_equal(biasing, pwm)

    @pytest.mark.parametrize("scheme,gamma", [(v.Scheme.BIASING_ADJUSTMENT, None),
                                              (v.Scheme.PWM, 0.4)])
    def test_mirrored_target_meets_requested_brightness(self, scheme, gamma):
        """Brightness 0.7 waveforms average 0.7 of peak output."""
        symbols = make_symbols(300, seed=4)
        spec = v.DimmingSpec(0.7, gamma)
        assert spec.scheme is scheme
        wave = v.assemble_waveform(symbols, spec, LED)
        optical = v.optical_output(wave, LED)
        assert float(np.mean(optical)) == pytest.approx(0.7 * LED.o_high, rel=0.01)

    @pytest.mark.parametrize("gamma", [0.4, v.effective_brightness(0.7)[0]],
                             ids=["pwm", "duty-one"])
    def test_mirrored_pwm_needs_grounded_range(self, gamma):
        """PWM at gamma = lambda_eff equals biasing, but keeps PWM's off-state rule."""
        symbols = make_symbols(2)
        led = v.LedModel(0.1, 1.0, 1.0)
        with pytest.raises(CurrentRangeError):
            v.assemble_waveform(symbols, v.DimmingSpec(0.7, gamma), led)
        # biasing has no off state, so mirroring works on any range
        v.assemble_waveform(symbols, v.DimmingSpec(0.7), led)


class TestWaveformCsv:
    def test_writes_current_and_optical_columns(self, tmp_path):
        symbols = make_symbols(2)
        spec = v.DimmingSpec(0.25)
        wave = v.assemble_waveform(symbols, spec, LED)
        path = tmp_path / "wave.csv"
        v.write_waveform_csv(path, [wave], LED)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sample_index", "current", "optical"]
        assert len(rows) == len(wave) + 1
        assert float(rows[1][1]) == wave[0]
        assert float(rows[1][2]) == v.optical_output(wave[0], LED)

    @pytest.mark.parametrize("brightness, gamma, led", [
        (0.25, 0.4, LED), (0.7, None, LED), (0.7, 0.4, LED), (0.3, None, LED_I_LOW)],
        ids=["pwm", "mirrored-biasing", "mirrored-pwm", "i_low-biasing"])
    @pytest.mark.parametrize("count", ["one", "block-1", "block+1"])
    def test_blocks_write_the_bytes_of_the_whole_array(self, tmp_path, brightness, gamma, led,
                                                       count):
        spec = v.DimmingSpec(brightness, gamma)
        probe = make_symbols(64)
        rows = len(_symbol_blocks(probe, spec)[0])  # symbols per block
        assert 1 < rows < len(probe)
        symbols = probe[:{"one": 1, "block-1": rows - 1, "block+1": rows + 1}[count]]
        runs = _symbol_blocks(symbols, spec)
        assert len(runs) == (2 if count == "block+1" else 1)
        whole = v.assemble_waveform(symbols, spec, led)
        blocks = [v.assemble_waveform(run, spec, led) for run in runs]
        assert np.concatenate(blocks).tobytes() == whole.tobytes()
        v.write_waveform_csv(tmp_path / "array.csv", [whole], led)
        v.write_waveform_csv(tmp_path / "list.csv", blocks, led)
        v.write_waveform_csv(tmp_path / "generator.csv",
                             (v.assemble_waveform(run, spec, led) for run in runs), led)
        expected = (tmp_path / "array.csv").read_bytes()
        assert expected.count(b"\n") == len(whole) + 1
        for name in ("list.csv", "generator.csv"):
            assert (tmp_path / name).read_bytes() == expected

    @pytest.mark.parametrize("brightness, gamma, led", [
        (0.3, None, LED_I_LOW), (0.7, None, LED), (0.25, 0.4, LED)],
        ids=["i_low-biasing", "mirrored-biasing", "pwm"])
    def test_bytes_equal_a_row_by_row_reference(self, tmp_path, brightness, gamma, led):
        spec = v.DimmingSpec(brightness, gamma)
        symbols = make_symbols(40)
        wave = v.assemble_waveform(symbols, spec, led)
        optical = v.optical_output(wave, led)
        # the optical column equals current only under the default LED
        assert np.array_equal(optical, wave) == (led is LED)
        v.write_waveform_csv(tmp_path / "wave.csv", (v.assemble_waveform(run, spec, led)
                                                     for run in _symbol_blocks(symbols, spec)), led)
        expected = "sample_index,current,optical\n" + "".join(
            f"{i},{current!r},{light!r}\n" for i, (current, light)
            in enumerate(zip(wave.tolist(), optical.tolist())))
        assert (tmp_path / "wave.csv").read_bytes() == expected.encode()
        if gamma is not None:
            assert expected.count(",0.0,0.0\n") > len(wave) // 3  # the off intervals

    def test_streamed_write_holds_one_block(self, tmp_path):
        """2000 N = 64 PWM symbols: the whole waveform's write peaks at about 14 MB traced."""
        symbols = make_symbols(2000)
        spec = v.DimmingSpec(0.25, 0.4)
        blocks = (v.assemble_waveform(run, spec, LED) for run in _symbol_blocks(symbols, spec))
        tracemalloc.start()
        try:
            v.write_waveform_csv(tmp_path / "wave.csv", blocks, LED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20
        with open(tmp_path / "wave.csv", "rb") as fh:
            assert sum(1 for _ in fh) == 2000 * 410 + 1

    @pytest.mark.parametrize("blocks", ["array", "second block"])
    def test_an_unreachable_current_leaves_no_file(self, tmp_path, blocks):
        wave = np.array([0.0, 0.5, 1.0, 1.5])
        currents = [wave] if blocks == "array" else iter([wave[:2], wave[2:]])
        path = tmp_path / "wave.csv"
        with pytest.raises(CurrentRangeError, match="current 1.5 outside"):
            v.write_waveform_csv(path, currents, LED)
        assert not path.exists()


def concatenated_waveform(symbols, spec, led):
    """Reference assembly: scale each symbol into its own block, then concatenate."""
    lam_eff, mirrored = v.effective_brightness(spec.brightness)
    ratio = lam_eff if spec.scheme is v.Scheme.BIASING_ADJUSTMENT else spec.forward_ratio
    d = v.duty_cycle(lam_eff, ratio)
    bias = led.i_low + ratio * led.dynamic_range
    blocks = []
    for sym in symbols:
        alpha = v.compute_alpha(float(np.max(sym)), float(np.min(sym)), bias, led)
        on = alpha * sym + bias
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
        spec = v.DimmingSpec(brightness, gamma)
        wave = v.assemble_waveform(symbols, spec, led)
        expected = concatenated_waveform(symbols, spec, led)
        assert wave.dtype == expected.dtype and wave.tobytes() == expected.tobytes()

    def test_mirrored_pwm_matches_concatenated_blocks(self):
        symbols = make_symbols(12, n=16, oversample=2, seed=6)
        spec = v.DimmingSpec(0.7, 0.4)
        wave = v.assemble_waveform(symbols, spec, LED)
        assert wave.tobytes() == concatenated_waveform(symbols, spec, LED).tobytes()
        assert np.any(wave == LED.i_high)  # the mirrored off intervals

    @pytest.mark.parametrize("shape", [(0,), (64,), (0, 64), (3, 0)])
    def test_rejects_anything_but_nonempty_rows(self, shape):
        spec = v.DimmingSpec(0.25, 0.4)
        with pytest.raises(ValueError, match="2-D array of symbol rows"):
            v.assemble_waveform(np.ones(shape), spec, LED)

    def test_leaves_symbols_unchanged(self):
        symbols = make_symbols(3, n=16, oversample=2, seed=7)
        before = symbols.copy()
        v.assemble_waveform(symbols, v.DimmingSpec(0.8, 0.3), LED)
        assert symbols.tobytes() == before.tobytes()
