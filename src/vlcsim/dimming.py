"""Brightness control for DCO-OFDM: bias placement vs. pulse-width modulation.

Both schemes target an average optical output of brightness * o_high.
Biasing adjustment places every symbol at the average current; PWM raises
the bias to a forward ratio gamma and compensates with off intervals of
duty cycle brightness/gamma. Targets above half brightness are produced by
mirroring the complementary waveform across the dynamic range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .csvio import write_csv
from .errors import CurrentRangeError, DutyCycleError
from .led import LedModel, compute_alpha, optical_output
from .ofdm import TimeSymbol


class Scheme(str, Enum):
    BIASING_ADJUSTMENT = "biasing"
    PWM = "pwm"


def effective_brightness(brightness: float) -> tuple[float, bool]:
    """Fold a brightness target into [0, 0.5]; the flag marks mirrored output."""
    if not 0.0 < brightness < 1.0:
        raise ValueError(f"brightness must be in (0, 1), got {brightness}")
    if brightness <= 0.5:
        return brightness, False
    return 1.0 - brightness, True


def duty_cycle(lambda_effective: float, gamma: float) -> float:
    """PWM on-fraction brightness/gamma; gamma below the target is infeasible."""
    # a mirrored target's 1.0 - brightness is rounded; its decimal complement misses it
    # by up to ulp(0.5) / 2, so within min(ulp(0.5), 2**-40 * target) the duty is 1
    if not 0.0 < lambda_effective < 1.0:
        raise ValueError(f"effective brightness must be in (0, 1), got {lambda_effective}")
    if not gamma < 1.0:
        raise ValueError(f"forward ratio must be < 1, got {gamma}")
    window = min(math.ulp(0.5), 2.0 ** -40 * lambda_effective)
    if gamma < lambda_effective - window:
        raise DutyCycleError(
            f"forward ratio {gamma} < effective brightness {lambda_effective}: duty cycle would exceed 1")
    return 1.0 if gamma <= lambda_effective + window else lambda_effective / gamma


def check_dnr(dnr: float):
    """Raise ValueError unless the linear DNR is finite and >= 0."""
    if not (dnr >= 0.0 and math.isfinite(dnr)):
        raise ValueError(f"dnr must be finite and >= 0, got {dnr}")


@dataclass(frozen=True)
class DimmingSpec:
    """Brightness target, scheme selection, and the link's DNR budget.

    dnr is the linear dynamic-range-to-noise power ratio G^2 D^2 / sigma_N^2;
    channel gain and noise variance only ever appear through it.
    """

    brightness: float
    scheme: Scheme
    dnr: float
    forward_ratio: float | None = None

    def __post_init__(self):
        lam_eff, _ = effective_brightness(self.brightness)
        check_dnr(self.dnr)
        if self.scheme is Scheme.PWM:
            if self.forward_ratio is None:
                raise ValueError("PWM requires a forward_ratio")
            duty_cycle(lam_eff, self.forward_ratio)
        elif self.forward_ratio is not None:
            raise ValueError("forward_ratio only applies to the PWM scheme")


def _alpha(sym: TimeSymbol, bias: float, led: LedModel) -> float:
    return compute_alpha(float(np.max(sym.samples)), float(np.min(sym.samples)),
                         bias, led, sym.sigma_x2).alpha


def _snap_to_range(wave: np.ndarray, led: LedModel):
    # scaling and mirroring leave at most 1e-9 * range of rounding dust
    # outside the rails; snap it back without touching exact off-state zeros
    slack = 1e-9 * led.dynamic_range
    np.copyto(wave, led.i_low, where=(wave > led.i_low - slack) & (wave < led.i_low))
    np.copyto(wave, led.i_high, where=(wave < led.i_high + slack) & (wave > led.i_high))


def assemble_waveform(symbols, spec: DimmingSpec, led: LedModel) -> np.ndarray:
    """Concatenate maximally scaled symbols into the LED drive waveform.

    PWM biases every symbol at i_low + gamma * range and appends zero-current
    gaps of round(n_samples * (1-d)/d) samples per symbol, d = brightness/gamma.
    Biasing adjustment is PWM at gamma = brightness, d = 1: no gaps.
    Mirroring for brightness above 0.5 is applied to the finished waveform.
    """
    symbols = list(symbols)
    if not symbols:
        raise ValueError("no symbols to assemble")
    lam_eff, mirrored = effective_brightness(spec.brightness)
    gamma = lam_eff if spec.scheme is Scheme.BIASING_ADJUSTMENT else spec.forward_ratio
    if spec.scheme is Scheme.PWM and mirrored and led.i_low != 0.0:
        # the mirrored off state sits at i_high + i_low, above the range
        raise CurrentRangeError(
            "mirrored PWM requires i_low == 0; the off interval cannot be mirrored "
            f"into [{led.i_low}, {led.i_high}]")
    d = duty_cycle(lam_eff, gamma)
    bias = led.i_low + gamma * led.dynamic_range
    gaps = [int(round(len(sym.samples) * (1.0 - d) / d)) for sym in symbols]
    # the zeros left between the symbols are the PWM off intervals
    wave = np.zeros(sum(len(sym.samples) for sym in symbols) + sum(gaps))
    start = 0
    for sym, gap in zip(symbols, gaps):
        on = wave[start:start + len(sym.samples)]
        np.multiply(_alpha(sym, bias, led), sym.samples, out=on)
        on += bias
        start += len(on) + gap
    if mirrored:
        np.subtract(led.i_high + led.i_low, wave, out=wave)
    _snap_to_range(wave, led)
    return wave


def write_waveform_csv(path, currents: np.ndarray, led: LedModel):
    """Dump a drive waveform as sample_index,current,optical rows."""
    write_csv(path, ["sample_index", "current", "optical"],
              [range(len(currents)), currents, optical_output(currents, led)])
