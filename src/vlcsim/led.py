"""Linear LED dynamic-range model, maximal scaling/biasing, closed-form variance.

The device is a predistorted LED that is linear over [i_low, i_high] and
emits o_high at full drive. A zero-mean OFDM symbol is scaled by the
largest-magnitude factor that keeps it inside the dynamic range for a given
bias, which fixes the transmitted variance in closed form. The range and
the output are finite, and so must be the extremes compute_alpha takes and
the PAPRs variance_closed_form takes, also positive; variance_factor checks none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CurrentRangeError, DegenerateSymbolError, InvalidBiasError

# the narrowest dynamic range, the smallest normal double: below it the rounding of the
# scaled waveform, a few subnormal steps, is wider than the rails' 1e-9 * range snap
RANGE_MIN = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class LedModel:
    """Usable current interval [i_low, i_high] and peak optical output o_high, all finite."""

    i_low: float = 0.0
    i_high: float = 1.0
    o_high: float = 1.0

    def __post_init__(self):
        if not self.i_low >= 0:  # 0 A is the off state, which must not lie inside the range
            raise ValueError(f"i_low must be >= 0, got {self.i_low}")
        if not (self.i_high < np.inf and self.i_high - self.i_low >= RANGE_MIN):
            raise ValueError(f"need finite i_high >= i_low + RANGE_MIN, "
                             f"got [{self.i_low}, {self.i_high}]")
        if not 0 < self.o_high < np.inf:
            raise ValueError(f"o_high must be positive and finite, got {self.o_high}")

    @property
    def dynamic_range(self) -> float:
        return self.i_high - self.i_low

    def check_bias(self, bias: float):
        """Raise InvalidBiasError unless bias lies inside the open range (i_low, i_high)."""
        if not self.i_low < bias < self.i_high:
            raise InvalidBiasError(f"bias {bias} outside open range ({self.i_low}, {self.i_high})")


def compute_alpha(max_x, min_x, bias: float, led: LedModel):
    """Largest-magnitude scaling factor alpha keeping alpha*x + bias inside the range.

    Of the tightest positive candidate and the tightest negative one, alpha is
    the one with the larger magnitude, ties going to the positive sign. One
    signal extreme always lands on a range boundary. Elementwise over arrays
    of per-symbol extremes, which must be finite; scalars give a scalar.
    """
    max_x, min_x = np.broadcast_arrays(max_x, min_x)
    bad = np.flatnonzero(~((0.0 < max_x) & (max_x < np.inf) & (-np.inf < min_x) & (min_x < 0.0)))
    if bad.size:
        raise DegenerateSymbolError(f"need finite max_x > 0 > min_x, got "
                                    f"max_x={max_x.flat[bad[0]]}, min_x={min_x.flat[bad[0]]}"
                                    + (f" in row {bad[0]}" if max_x.ndim else ""))
    led.check_bias(bias)
    headroom = led.i_high - bias
    footroom = led.i_low - bias
    alpha_pos = np.minimum(headroom / max_x, footroom / min_x)
    alpha_neg = np.maximum(headroom / min_x, footroom / max_x)
    return np.where(abs(alpha_pos) >= abs(alpha_neg), alpha_pos, alpha_neg)[()]


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


def variance_closed_form(zeta, upapr, lpapr, led: LedModel):
    """D^2 times variance_factor: the variance of the maximally scaled symbol at biasing ratio
    zeta in (0, 1), over zeta and positive finite per-symbol PAPRs (scalars give a scalar)."""
    zeta = np.asarray(zeta, dtype=np.float64)
    if not np.all((zeta > 0.0) & (zeta < 1.0)):
        raise ValueError(f"biasing ratio must be in (0, 1), got {zeta}")
    if not all(np.all((p > 0.0) & (p < np.inf)) for p in map(np.asarray, (upapr, lpapr))):
        raise ValueError("PAPRs must be positive and finite")
    d = led.dynamic_range
    return (d * d * variance_factor(zeta, upapr, lpapr))[()]


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
