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

from .csvio import write_blocks
from .errors import CurrentRangeError, DutyCycleError
from .led import LedModel, compute_alpha, optical_output


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


@dataclass(frozen=True)
class DimmingSpec:
    """Brightness target and, for PWM, the forward ratio; without one, biasing adjustment."""

    brightness: float
    forward_ratio: float | None = None

    def __post_init__(self):
        lam_eff, _ = effective_brightness(self.brightness)
        if self.forward_ratio is not None:
            duty_cycle(lam_eff, self.forward_ratio)

    @property
    def scheme(self) -> Scheme:
        return Scheme.BIASING_ADJUSTMENT if self.forward_ratio is None else Scheme.PWM


def off_interval(n_samples: int, brightness: float, forward_ratio=None) -> float:
    """round(n_samples * (1-d)/d) PWM off samples after a symbol, d the duty cycle (1 without
    a forward ratio: no gap); a float, so an uncountable gap reads as inf."""
    lam_eff = effective_brightness(brightness)[0]
    d = duty_cycle(lam_eff, lam_eff if forward_ratio is None else forward_ratio)
    return round(n_samples * (1.0 - d) / d, 0)


def check_waveform(spec: DimmingSpec, led: LedModel) -> float:
    """Raise unless led can drive spec's waveform; returns the symbols' bias.

    A mirrored PWM off state sits at i_high + i_low, above the range, so it
    needs i_low == 0 (else CurrentRangeError). The bias i_low + gamma * range
    must round into the open range (else InvalidBiasError).
    """
    lam_eff, mirrored = effective_brightness(spec.brightness)
    if spec.scheme is Scheme.PWM and mirrored and led.i_low != 0.0:
        raise CurrentRangeError(
            "mirrored PWM requires i_low == 0; the off interval cannot be mirrored "
            f"into [{led.i_low}, {led.i_high}]")
    gamma = lam_eff if spec.forward_ratio is None else spec.forward_ratio
    bias = led.i_low + gamma * led.dynamic_range
    led.check_bias(bias)
    return bias


def assemble_waveform(symbols, spec: DimmingSpec, led: LedModel) -> np.ndarray:
    """Maximally scaled symbols, frame after frame, as the LED drive waveform.

    symbols is a 2-D array, one time-domain symbol per row. PWM biases every
    row at i_low + gamma * range and follows it with off_interval's
    zero-current samples; biasing adjustment is PWM at gamma = brightness: no
    gaps. Mirroring for brightness above 0.5 is applied to the finished
    waveform.
    """
    symbols = np.asarray(symbols, dtype=np.float64)
    if symbols.ndim != 2 or symbols.size == 0:
        raise ValueError(f"need a non-empty 2-D array of symbol rows, got shape {symbols.shape}")
    bias = check_waveform(spec, led)
    mirrored = effective_brightness(spec.brightness)[1]
    alpha = compute_alpha(symbols.max(axis=1), symbols.min(axis=1), bias, led)
    # one row per frame; the zeros after each symbol are the PWM off intervals
    n = symbols.shape[1]
    frames = np.zeros((len(symbols), n + int(off_interval(n, spec.brightness, spec.forward_ratio))))
    frames[:, :n] = alpha[:, None] * symbols + bias
    wave = frames.reshape(-1)
    if mirrored:
        np.subtract(led.i_high + led.i_low, wave, out=wave)
    # scaling and mirroring leave at most 1e-9 * range of rounding dust
    # outside the rails; snap it back without touching exact off-state zeros
    slack = 1e-9 * led.dynamic_range
    np.copyto(wave, led.i_low, where=(wave > led.i_low - slack) & (wave < led.i_low))
    np.copyto(wave, led.i_high, where=(wave < led.i_high + slack) & (wave > led.i_high))
    return wave


def write_waveform_csv(path, blocks, led: LedModel):
    """Dump a drive waveform as sample_index,current,optical rows.

    blocks is an iterable of the waveform's consecutive blocks
    (assemble_waveform over consecutive runs of symbol rows, say), read once
    while the file is written; the optical column is computed block by
    block, so only one block is held at a time.
    """
    def rows():
        start = 0
        for block in blocks:
            yield [range(start, start + len(block)), block, optical_output(block, led)]
            start += len(block)

    write_blocks(path, ["sample_index", "current", "optical"], rows())
