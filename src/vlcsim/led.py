"""Linear LED dynamic-range model, maximal scaling/biasing, closed-form variance.

The device is a predistorted LED that is linear over [i_low, i_high] and
emits o_high at full drive. A zero-mean OFDM symbol is scaled by the
largest-magnitude factor that keeps it inside the dynamic range for a given
bias, which fixes the transmitted variance in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CurrentRangeError, DegenerateSymbolError, InvalidBiasError
from .ofdm import PaprSample


@dataclass(frozen=True)
class LedModel:
    """Usable current interval [i_low, i_high] and peak optical output o_high."""

    i_low: float = 0.0
    i_high: float = 1.0
    o_high: float = 1.0

    def __post_init__(self):
        if not self.i_high > self.i_low:
            raise ValueError(f"need i_high > i_low, got [{self.i_low}, {self.i_high}]")
        if not self.o_high > 0:
            raise ValueError(f"o_high must be positive, got {self.o_high}")

    @property
    def dynamic_range(self) -> float:
        return self.i_high - self.i_low


@dataclass(frozen=True)
class ScalingDecision:
    """Chosen per-symbol scaling factor and the variance it yields."""

    alpha_pos: float
    alpha_neg: float
    alpha: float
    sigma_y2: float


def compute_alpha(max_x: float, min_x: float, bias: float, led: LedModel,
                  sigma_x2: float = 1.0) -> ScalingDecision:
    """Largest-magnitude scaling factor keeping alpha*x + bias inside the range.

    alpha_pos is the tightest positive candidate, alpha_neg the tightest
    negative one; the winner is the one with the larger magnitude, ties going
    to the positive sign. One signal extreme always lands on a range boundary.
    """
    if not (max_x > 0.0 > min_x):
        raise DegenerateSymbolError(
            f"need max_x > 0 > min_x, got max_x={max_x}, min_x={min_x}")
    if not led.i_low < bias < led.i_high:
        raise InvalidBiasError(
            f"bias {bias} outside open range ({led.i_low}, {led.i_high})")
    headroom = led.i_high - bias
    footroom = led.i_low - bias
    alpha_pos = min(headroom / max_x, footroom / min_x)
    alpha_neg = max(headroom / min_x, footroom / max_x)
    alpha = alpha_pos if abs(alpha_pos) >= abs(alpha_neg) else alpha_neg
    return ScalingDecision(alpha_pos=alpha_pos, alpha_neg=alpha_neg, alpha=alpha,
                           sigma_y2=alpha * alpha * sigma_x2)


def variance_factor(zeta, upapr, lpapr):
    """Normalized scaled-signal variance sigma_y^2 / D^2.

    The paper's max{min((1-z)^2/U, z^2/L), min((1-z)^2/L, z^2/U)} is
    min(a/P, b/Q), with a >= b the squares of max(z, 1-z) and min(z, 1-z) and
    P >= Q the larger and smaller of U and L: the other min term, b/P, is below
    both, so the two forms pick the same quotient bit for bit. Symmetric under
    z <-> 1-z and under swapping U and L by construction. Broadcasts over arrays.
    """
    zeta = np.asarray(zeta, dtype=np.float64)
    hi = np.maximum(zeta, 1.0 - zeta)
    lo = 1.0 - hi
    return np.minimum(hi * hi / np.maximum(upapr, lpapr), lo * lo / np.minimum(upapr, lpapr))


def variance_closed_form(zeta, papr: PaprSample, led: LedModel) -> float:
    """Variance of the maximally scaled symbol at biasing ratio zeta in (0, 1)."""
    zeta = float(zeta)
    if not 0.0 < zeta < 1.0:
        raise ValueError(f"biasing ratio must be in (0, 1), got {zeta}")
    d = led.dynamic_range
    return float(d * d * variance_factor(zeta, papr.upapr, papr.lpapr))


def optical_output(current, led: LedModel):
    """Emitted intensity for a drive current; 0 A is the device-off state.

    Accepts an array of currents, or a scalar, which gives a float. Anything
    other than 0 or a value inside [i_low, i_high] is unreachable under
    maximal scaling and is rejected.
    """
    i = np.atleast_1d(np.asarray(current, dtype=np.float64))
    off = i == 0.0
    in_range = (i >= led.i_low) & (i <= led.i_high)
    if not np.all(off | in_range):
        bad = i[~(off | in_range)].flat[0]
        raise CurrentRangeError(
            f"current {bad} outside [{led.i_low}, {led.i_high}] and not the off state")
    # one output array; o_high * x equals x * o_high in IEEE arithmetic
    out = i - led.i_low
    out *= led.o_high
    out /= led.dynamic_range
    out[off] = 0.0
    return float(out[0]) if np.ndim(current) == 0 else out
