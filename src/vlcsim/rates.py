"""Monte Carlo achievable ergodic rates, forward-ratio optimization, variance profiles.

Every comparison in this module reuses one PAPR population (common random
numbers), which turns scheme orderings into deterministic facts instead of
noisy estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .csvio import write_rows
from .dimming import DimmingSpec, Scheme, check_dnr, duty_cycle, effective_brightness
from .led import variance_factor
from .ofdm import PaprPopulation

#: sentinel for "search for the best forward ratio in every cell"
AUTO = "auto"

# byte budget of one log2 block: max(1, _LOG2_BLOCK_BYTES // (8 * len(pop))) DNRs
# at a time, 4 at 10k symbols; small so the buffer stays cache-resident
_LOG2_BLOCK_BYTES = 320 * 1024


@dataclass(frozen=True)
class RateEstimate:
    """Ergodic rate and average SNR of one (scheme, brightness, DNR) cell."""

    rate: float
    avg_snr_db: float
    n_samples: int
    scheme: Scheme
    brightness: float
    gamma: float | None
    dnr_db: float


@dataclass(frozen=True, eq=False)
class GammaSearchResult:
    """Best forward ratio for one (brightness, DNR) cell plus the full grid."""

    gamma_star: float
    rate_at_star: float
    grid: np.ndarray  # rows of (gamma, rate)


@dataclass(frozen=True, eq=False)
class VarianceProfile:
    """Mean normalized variance over a biasing-ratio grid and its peak location."""

    grid: np.ndarray  # rows of (zeta, mean sigma_y^2 / D^2)
    zeta_dagger: float


def _db(linear: float) -> float:
    with np.errstate(divide="ignore"):
        return float(10.0 * np.log10(linear))


def _log2_means(factor: np.ndarray, dnrs) -> np.ndarray:
    """E[log2(1 + dnr * factor)] over the population for each DNR.

    The DNRs go through one (DNRs, population) buffer of about _LOG2_BLOCK_BYTES
    at a time. Each block row's sum over the contiguous last axis is the
    pairwise sum np.mean takes, and mean is that sum divided by n, so every
    entry has the bits of np.mean(np.log2(1.0 + dnr * factor)).
    """
    n = len(factor)
    column = np.asarray(dnrs, dtype=np.float64)[:, None]
    per_block = max(1, _LOG2_BLOCK_BYTES // (8 * n))
    buffer = np.empty((min(per_block, len(column)), n))
    means = np.empty(len(column))
    for start in range(0, len(column), per_block):
        part = column[start:start + per_block]
        block = buffer[:len(part)]
        np.multiply(part, factor, out=block)
        block += 1.0
        np.log2(block, out=block)
        means[start:start + len(part)] = np.add.reduce(block, axis=1) / n
    return means


def _rate_grid(lambda_effective: float, ratios, dnrs, pop: PaprPopulation, log2_rows: dict,
               with_snr: bool = False):
    """Rates (ratios x DNRs) at one effective brightness, plus mean SNRs if with_snr.

    Row k is PWM at forward ratio ratios[k], duty lambda/ratios[k]; at ratio
    lambda the duty is exactly 1, which is biasing adjustment. E[log2(1 + dnr * f)]
    depends on the ratio and the DNR, not on the brightness: log2_rows maps a
    ratio to its _log2_means over dnrs, belongs to one sweep over dnrs and pop,
    and gets a ratio's row the first time the ratio is seen. Each brightness
    scales that row by 0.5 * duty, the scalar product done elementwise.
    """
    if len(pop) == 0:
        raise ValueError("population is empty")
    rates, snrs = np.empty((2, len(ratios), len(dnrs)))
    for k, ratio in enumerate(map(float, ratios)):
        duty = duty_cycle(lambda_effective, ratio)
        if with_snr or ratio not in log2_rows:
            factor = variance_factor(ratio, pop.upapr, pop.lpapr)
            if ratio not in log2_rows:
                log2_rows[ratio] = _log2_means(factor, dnrs)
            if with_snr:
                snrs[k] = [np.mean(dnr * factor) for dnr in dnrs]
        rates[k] = 0.5 * duty * log2_rows[ratio]
    return (rates, snrs) if with_snr else rates


def _linear(dnrs_db) -> list[float]:
    # scalar powers: the vectorized 10 ** (grid / 10) differs in the last bit
    dnrs = []
    for dnr_db in dnrs_db:
        try:
            dnr = float(10.0 ** (dnr_db / 10.0))
        except OverflowError:  # plain floats raise where NumPy floats give inf
            dnr = math.inf
        if not math.isfinite(dnr):
            raise ValueError(f"dnr_db {float(dnr_db)!r} gives a non-finite linear DNR")
        dnrs.append(dnr)
    return dnrs


def _estimates(brightness: float, gammas, dnrs, pop: PaprPopulation,
               log2_rows: dict) -> list[list[RateEstimate]]:
    """Estimates per (gamma, DNR) from one rate grid; gamma None is biasing, PWM at duty 1."""
    lam_eff, _ = effective_brightness(brightness)
    rates, snrs = _rate_grid(lam_eff, [lam_eff if g is None else g for g in gammas], dnrs, pop,
                             log2_rows, with_snr=True)
    return [[RateEstimate(rate=float(rates[k, j]),
                          avg_snr_db=_db(float(snrs[k, j])),
                          n_samples=len(pop),
                          scheme=Scheme.BIASING_ADJUSTMENT if gamma is None else Scheme.PWM,
                          brightness=brightness,
                          gamma=gamma,
                          dnr_db=_db(dnr))
             for j, dnr in enumerate(dnrs)]
            for k, gamma in enumerate(gammas)]


def estimate_rate(spec: DimmingSpec, pop: PaprPopulation) -> RateEstimate:
    """Monte Carlo ergodic rate (1/2) d E[log2(1 + SNR)] in bits per channel use.

    The SNR is taken at the forward ratio gamma and d = brightness/gamma is the
    PWM duty cycle; biasing adjustment is gamma = brightness, d = 1. The 1/2 is
    the Hermitian-symmetry overhead of real-valued OFDM.
    """
    return _estimates(spec.brightness, [spec.forward_ratio], [spec.dnr], pop, {})[0][0]


def gamma_grid_points(lambda_effective: float, grid_step: float) -> float:
    """gamma_grid's point count as a float, so an overflowing count reads as inf."""
    return np.floor((0.5 - lambda_effective) / grid_step + 1e-9) + 1


def gamma_grid(lambda_effective: float, grid_step: float) -> np.ndarray:
    """Forward-ratio candidates {lam, lam + step, ...} capped at 0.5.

    The search stops at 0.5 because the SNR is symmetric about it while the
    duty-cycle factor only degrades beyond; the first grid point is exactly
    the effective brightness.
    """
    if not grid_step > 0.0:
        raise ValueError(f"grid_step must be positive, got {grid_step}")
    count = int(gamma_grid_points(lambda_effective, grid_step))
    return np.minimum(lambda_effective + grid_step * np.arange(count), 0.5)


def _search(lambda_effective: float, dnrs, pop: PaprPopulation, grid_step: float,
            log2_rows: dict) -> list[GammaSearchResult]:
    """One forward-ratio search per DNR, all read from one shared rate grid."""
    if not 0.0 < lambda_effective <= 0.5:
        raise ValueError(
            f"effective brightness must be in (0, 0.5]; mirror first (got {lambda_effective})")
    gammas = gamma_grid(lambda_effective, grid_step)
    rates = _rate_grid(lambda_effective, gammas, dnrs, pop, log2_rows)
    return [GammaSearchResult(gamma_star=float(gammas[best]),
                              rate_at_star=float(rates[best, j]),
                              grid=np.column_stack([gammas, rates[:, j]]))
            for j, best in enumerate(np.argmax(rates, axis=0))]


def optimize_gamma(lambda_effective: float, dnr: float, pop: PaprPopulation,
                   grid_step: float = 0.005) -> GammaSearchResult:
    """Exhaustive forward-ratio search on a shared population.

    Ties resolve to the smallest gamma. Because the grid contains
    gamma = brightness, the winner never loses to biasing adjustment.
    """
    check_dnr(dnr)
    return _search(lambda_effective, [dnr], pop, grid_step, {})[0]


def sweep_gamma_search(lambdas, dnrs_db, pop: PaprPopulation, gamma_step: float = 0.005
                       ) -> list[tuple[float, float, GammaSearchResult]]:
    """(brightness, dnr_db, result) per cell, brightness outermost; one grid per brightness.

    The grids share one table of log2 rows, so a ratio on several
    brightnesses' grids is evaluated once.
    """
    dnrs = _linear(dnrs_db)
    log2_rows: dict = {}
    cells = []
    for lam in lambdas:
        results = _search(effective_brightness(lam)[0], dnrs, pop, gamma_step, log2_rows)
        cells.extend((lam, float(dnr_db), result) for dnr_db, result in zip(dnrs_db, results))
    return cells


def zeta_grid_half(grid_step: float) -> float:
    """zeta_grid's points up to 0.5 as a float, so an overflowing count reads as inf."""
    return np.floor(0.5 / grid_step + 1e-9)


def zeta_grid(grid_step: float) -> np.ndarray:
    """Biasing-ratio grid built as exact floating-point mirror pairs."""
    if not 0.0 < grid_step <= 0.5:
        raise ValueError(f"grid_step must be in (0, 0.5], got {grid_step}")
    # capped at 0.5, which the count's slack can pass; 0.5 is its own mirror, kept once
    lower = np.minimum(grid_step * np.arange(1, int(zeta_grid_half(grid_step)) + 1), 0.5)
    mirrored = (1.0 - lower)[::-1]
    return np.concatenate([lower, mirrored[1:] if lower[-1] == mirrored[0] else mirrored])


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
    return VarianceProfile(grid=np.column_stack([zetas, means]),
                           zeta_dagger=float(zetas[int(np.argmax(lower))]))


def sweep_rates(lambdas, dnrs_db, gammas, pop: PaprPopulation,
                gamma_step: float = 0.005) -> list[RateEstimate]:
    """Cross-product rate table: biasing adjustment plus PWM per cell.

    gammas is a sequence of forward ratios or AUTO, in which case each
    (brightness, DNR) cell gets its own optimized ratio, searched once per
    brightness: the PWM row's rate is the search's rate at the optimum and
    the biasing row is the grid's first point, ratio = brightness. With
    explicit ratios, a brightness's biasing and PWM rows come from one rate
    grid over all DNRs. Every grid reads one table of log2 rows per call.
    Row order: brightness outermost, then DNR, then schemes.
    """
    if not len(lambdas) or not len(dnrs_db):
        raise ValueError("lambdas and dnrs_db must be non-empty")
    if isinstance(gammas, str) and gammas != AUTO:
        raise ValueError(f"gammas must be a sequence of ratios or {AUTO!r}")
    dnrs = _linear(dnrs_db)
    log2_rows: dict = {}
    rows: list[RateEstimate] = []
    for lam in lambdas:
        # cells[j]: the rows of DNR column j, biasing first
        if isinstance(gammas, str):
            biasing = _estimates(lam, [None], dnrs, pop, log2_rows)[0]
            searches = _search(effective_brightness(lam)[0], dnrs, pop, gamma_step, log2_rows)
            cells = []
            for row, dnr, search in zip(biasing, dnrs, searches):
                snr = np.mean(dnr * variance_factor(search.gamma_star, pop.upapr, pop.lpapr))
                cells.append([row, replace(row, rate=search.rate_at_star, scheme=Scheme.PWM,
                                           gamma=search.gamma_star, avg_snr_db=_db(float(snr)))])
        else:
            cells = zip(*_estimates(lam, [None, *map(float, gammas)], dnrs, pop, log2_rows))
        rows.extend(row for cell in cells for row in cell)
    return rows


def write_rates_csv(path, estimates, seed: int):
    """Rate table rows: scheme,lambda,gamma,dnr_db,rate_bits,avg_snr_db,n_samples,seed."""
    write_rows(path, ["scheme", "lambda", "gamma", "dnr_db", "rate_bits", "avg_snr_db",
                      "n_samples", "seed"],
               ((est.scheme.value, est.brightness, est.gamma, est.dnr_db, est.rate,
                 est.avg_snr_db, est.n_samples, seed) for est in estimates))


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
