"""Monte Carlo achievable ergodic rates, forward-ratio optimization, variance profiles.

Every comparison in this module reuses one PAPR population (common random
numbers), which turns scheme orderings into deterministic facts instead of
noisy estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvio import write_rows
from .dimming import Scheme, duty_cycle, effective_brightness
from .led import variance_factor
from .ofdm import PaprPopulation

#: sentinel for "search for the best forward ratio in every cell"
AUTO = "auto"

# byte budget of one DNR block: max(1, _LOG2_BLOCK_BYTES // (8 * len(pop))) DNRs
# at a time, 4 at 10k symbols; small so the buffer stays cache-resident
_LOG2_BLOCK_BYTES = 320 * 1024


@dataclass(frozen=True)
class RateEstimate:
    """Ergodic rate and average SNR of one (brightness, gamma, DNR) cell; gamma None is biasing."""

    brightness: float
    gamma: float | None
    dnr_db: float
    rate: float
    avg_snr_db: float

    @property
    def scheme(self) -> Scheme:
        return Scheme.BIASING_ADJUSTMENT if self.gamma is None else Scheme.PWM


@dataclass(frozen=True, eq=False)
class GammaSearchResult:
    """Best forward ratio for one (brightness, DNR) cell plus the full grid."""

    gamma_star: float
    rate_at_star: float
    grid: np.ndarray  # rows of (gamma, rate)


@dataclass(frozen=True, eq=False)
class VarianceProfile:
    """Mean normalized variance over a biasing-ratio grid, its peak location and peak mean."""

    grid: np.ndarray  # rows of (zeta, mean sigma_y^2 / D^2)
    zeta_dagger: float
    peak_mean: float  # the grid's mean at zeta_dagger


def _db(linear: float) -> float:
    with np.errstate(divide="ignore"):
        return float(10.0 * np.log10(linear))


def _dnr_means(factor: np.ndarray, dnrs) -> tuple[np.ndarray, np.ndarray]:
    """E[log2(1 + dnr * factor)] and E[dnr * factor] over the population for each DNR.

    The DNRs go through one (DNRs, population) buffer of about _LOG2_BLOCK_BYTES
    at a time, one pass per block: the SNR sum is taken on the products, the
    log2 sum after log2(1 + product) overwrites them. Each block row's sum over
    the contiguous last axis is the pairwise sum np.mean takes, and mean is
    that sum divided by n, so every entry has the bits of
    np.mean(np.log2(1.0 + dnr * factor)) or np.mean(dnr * factor).
    """
    n = len(factor)
    column = np.asarray(dnrs, dtype=np.float64)[:, None]
    per_block = max(1, _LOG2_BLOCK_BYTES // (8 * n))
    buffer = np.empty((min(per_block, len(column)), n))
    log2, snr = np.empty(len(column)), np.empty(len(column))
    for start in range(0, len(column), per_block):
        part = column[start:start + per_block]
        rows = slice(start, start + len(part))
        block = buffer[:len(part)]
        np.multiply(part, factor, out=block)
        snr[rows] = np.add.reduce(block, axis=1) / n
        block += 1.0
        np.log2(block, out=block)
        log2[rows] = np.add.reduce(block, axis=1) / n
    return log2, snr


class _Rows:
    """One sweep call's means per distinct forward ratio: means[ratio] is its row of
    E[log2(1 + dnr * f)] and its row of E[dnr * f] over the DNRs, from one pass over
    the ratio's DNR blocks. Neither depends on the brightness; a ratio's rows are
    computed when its rates are first read.
    """

    def __init__(self, pop: PaprPopulation, dnrs):
        if len(pop) == 0:
            raise ValueError("population is empty")
        self.pop, self.dnrs, self.means = pop, dnrs, {}

    def rates(self, lambda_effective: float, ratios) -> np.ndarray:
        """Rates (ratios x DNRs): each ratio's log2 row times 0.5 * duty, duty 1 at lambda."""
        rates = np.empty((len(ratios), len(self.dnrs)))
        for k, ratio in enumerate(map(float, ratios)):
            duty = duty_cycle(lambda_effective, ratio)
            if ratio not in self.means:
                factor = variance_factor(ratio, self.pop.upapr, self.pop.lpapr)
                self.means[ratio] = _dnr_means(factor, self.dnrs)
            rates[k] = 0.5 * duty * self.means[ratio][0]
        return rates


def dnr_linear(dnr_db) -> float:
    """10 ** (dnr_db / 10) on a Python float, a ValueError unless finite: NumPy floats
    warn on overflow, and the vectorized 10 ** (grid / 10) differs in the last bit.
    -inf dB, a zero budget, gives 0.0. The library's one check of a DNR."""
    try:
        dnr_db = float(dnr_db)
    except OverflowError:  # an int beyond every double
        dnr_db = math.inf if dnr_db > 0 else -math.inf
    try:
        dnr = 10.0 ** (dnr_db / 10.0)
    except OverflowError:
        dnr = math.inf
    if not math.isfinite(dnr):
        raise ValueError(f"dnr_db {dnr_db!r} gives a non-finite linear DNR")
    return dnr


def _table(pop: PaprPopulation, lambdas, dnrs_db, gammas=AUTO) -> _Rows:
    """A sweep call's table of rows, after the entry checks both sweeps share."""
    for name, values in (("lambdas", lambdas), ("dnrs_db", dnrs_db), ("gammas", gammas)):
        if not len(values):
            raise ValueError(f"{name} must be non-empty")
    if isinstance(gammas, str) and gammas != AUTO:
        raise ValueError(f"gammas must be a sequence of ratios or {AUTO!r}")
    return _Rows(pop, [dnr_linear(dnr_db) for dnr_db in dnrs_db])


def grid_points(start: float, stop: float, step: float) -> float:
    """grid(start, stop, step)'s point count as a float, so an overflowing count reads as inf."""
    return np.floor((stop - start) / step + 1e-9) + 1


def grid(start: float, stop: float, step: float) -> np.ndarray:
    """{start, start + step, ...} up to stop, which the count's 1e-9 slack can pass."""
    if not step > 0.0:
        raise ValueError(f"grid step must be positive, got {step}")
    count = grid_points(start, stop, step)
    if not count < np.iinfo(np.intp).max:
        raise ValueError(f"grid step {step!r} gives {count:.3g} points, too many to count")
    return start + step * np.arange(int(count))


def gamma_grid(lambda_effective: float, grid_step: float) -> np.ndarray:
    """Forward-ratio candidates {lam, lam + step, ...} capped at 0.5.

    The search stops at 0.5 because the SNR is symmetric about it while the
    duty-cycle factor only degrades beyond; the first grid point is exactly
    the effective brightness.
    """
    return np.minimum(grid(lambda_effective, 0.5, grid_step), 0.5)


def _search(lambda_effective: float, grid_step: float, table: _Rows):
    """A brightness's search table: its forward ratios, their rates (ratios x DNRs) and
    each DNR's first best row, so ties resolve to the smallest ratio."""
    gammas = gamma_grid(lambda_effective, grid_step)
    rates = table.rates(lambda_effective, gammas)
    return gammas, rates, np.argmax(rates, axis=0)


def sweep_gamma_search(lambdas, dnrs_db, pop: PaprPopulation, gamma_step: float = 0.005
                       ) -> list[tuple[float, float, GammaSearchResult]]:
    """Exhaustive forward-ratio search: (brightness, dnr_db, result) per cell, brightness
    outermost; one grid per brightness.

    Ties resolve to the smallest gamma. Because each grid starts at gamma =
    brightness, the winner never loses to biasing adjustment. The grids share
    one table of rows, so a ratio on several brightnesses' grids is evaluated once.
    """
    table = _table(pop, lambdas, dnrs_db)
    cells = []
    for lam in lambdas:
        gammas, rates, best = _search(effective_brightness(lam)[0], gamma_step, table)
        for j, (dnr_db, k) in enumerate(zip(dnrs_db, best)):
            cells.append((lam, float(dnr_db), GammaSearchResult(
                float(gammas[k]), float(rates[k, j]), np.column_stack([gammas, rates[:, j]]))))
    return cells


def zeta_grid(grid_step: float) -> np.ndarray:
    """Biasing-ratio grid built as exact floating-point mirror pairs."""
    if not 0.0 < grid_step <= 0.5:
        raise ValueError(f"grid_step must be in (0, 0.5], got {grid_step}")
    # capped at 0.5, which the count's slack can pass; 0.5 is its own mirror, kept once
    lower = np.minimum(grid(0.0, 0.5, grid_step)[1:], 0.5)
    return np.concatenate([lower, (1.0 - lower[lower < 0.5])[::-1]])


def zeta_grid_points(grid_step: float) -> float:
    """zeta_grid(grid_step)'s point count as a float, counted without building it."""
    half = grid_points(0.0, 0.5, grid_step) - 1  # the points past 0, capped at 0.5,
    return 2 * half - (grid_step * half >= 0.5)  # and the mirrors of those below it


def variance_profile(pop: PaprPopulation, grid_step: float = 0.01) -> VarianceProfile:
    """Population mean of the normalized variance across biasing ratios.

    The means are computed on the lower half of the grid and mirrored: at a
    grid point 1 - z, variance_factor takes the same max(z, 1 - z) as at z,
    so the upper half has the same bits. zeta_dagger is the peak location in
    the lower half.
    """
    if len(pop) == 0:
        raise ValueError("population is empty")
    zetas = zeta_grid(grid_step)
    lower = np.array([float(np.mean(variance_factor(z, pop.upapr, pop.lpapr)))
                      for z in zetas[:(len(zetas) + 1) // 2]])
    means = np.concatenate([lower, lower[:len(zetas) // 2][::-1]])
    peak = int(np.argmax(lower))
    return VarianceProfile(grid=np.column_stack([zetas, means]),
                           zeta_dagger=float(zetas[peak]), peak_mean=float(lower[peak]))


def sweep_rates(lambdas, dnrs_db, gammas, pop: PaprPopulation,
                gamma_step: float = 0.005) -> list[RateEstimate]:
    """Cross-product rate table: biasing adjustment plus PWM per cell.

    A rate is (1/2) d E[log2(1 + SNR)] bits per channel use, the SNR taken at
    the forward ratio gamma and d = brightness/gamma the PWM duty cycle;
    biasing adjustment is gamma = brightness, d = 1. The 1/2 is the
    Hermitian-symmetry overhead of real-valued OFDM.

    gammas is a sequence of forward ratios or AUTO, in which case each
    (brightness, DNR) cell gets its own optimized ratio, searched once per
    brightness: the PWM row is the search table's best row and the biasing row
    its first, ratio = brightness. With explicit ratios, a brightness's biasing
    and PWM rows come from one rate grid over all DNRs. Every rate and SNR
    comes from one table per call, one DNR-block pass per distinct ratio.
    Row order: brightness outermost, then DNR, then schemes.
    """
    table = _table(pop, lambdas, dnrs_db, gammas)
    rows: list[RateEstimate] = []
    for lam in lambdas:
        lam_eff, _ = effective_brightness(lam)
        # each DNR's reported rows of the brightness's rate grid, biasing (row 0) first
        if isinstance(gammas, str):
            ratios, rates, best = _search(lam_eff, gamma_step, table)
            reported = [(0, k) for k in best]
        else:
            ratios = [lam_eff, *map(float, gammas)]
            rates = table.rates(lam_eff, ratios)
            reported = [range(len(ratios))] * len(table.dnrs)
        for j, (dnr, picks) in enumerate(zip(table.dnrs, reported)):
            for i, k in enumerate(picks):
                ratio = float(ratios[k])
                rows.append(RateEstimate(lam, ratio if i else None, _db(dnr), float(rates[k, j]),
                                         _db(table.means[ratio][1][j])))
    return rows


def write_rates_csv(path, estimates, pop: PaprPopulation):
    """Rate table rows: scheme,lambda,gamma,dnr_db,rate_bits,avg_snr_db,n_samples,seed,
    the last two those of the population the rates were estimated from."""
    write_rows(path, ["scheme", "lambda", "gamma", "dnr_db", "rate_bits", "avg_snr_db",
                      "n_samples", "seed"],
               ((est.scheme.value, est.brightness, est.gamma, est.dnr_db, est.rate,
                 est.avg_snr_db, len(pop), pop.seed) for est in estimates))


def write_gamma_search_csv(path, cells):
    """Search grids as lambda,dnr_db,gamma,rate_bits,star rows.

    cells is an iterable of (brightness, dnr_db, GammaSearchResult); each
    cell's grid rows are followed by one starred row for the optimum.
    """
    def rows():
        for lam, dnr_db, result in cells:
            lam, dnr_db = float(lam), float(dnr_db)  # integer inputs print as floats too
            for gamma, rate in result.grid:
                yield lam, dnr_db, gamma, rate, ""
            yield lam, dnr_db, result.gamma_star, result.rate_at_star, "*"

    write_rows(path, ["lambda", "dnr_db", "gamma", "rate_bits", "star"], rows())
