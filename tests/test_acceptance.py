"""Acceptance suite: one test per exit criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Everything is seeded; the populations come from the session fixtures
in conftest.py (10000 symbols each).
"""

import numpy as np
import pytest
from scipy.stats import ks_2samp

import golden
import vlcsim as v
from vlcsim.cli import main as cli_main

LED = v.LedModel()
ZETAS = np.arange(1, 20) * 0.05
DNR_DB_GRID = np.arange(0, 61, 2.0)
SWEEP_LAMBDAS = (0.05, 0.2, 0.35)


def report(number: int, ok: bool, text: str):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


@pytest.fixture(scope="module")
def extremes(symbols64):
    """Per-symbol (max, min, variance) triples for the 1000-symbol set."""
    return [(float(np.max(x)), float(np.min(x)), float(np.mean(np.square(x))))
            for x in symbols64]


@pytest.fixture(scope="module")
def gamma_search_table(pop64):
    """Optimized forward ratio per (brightness, DNR) cell, shared population."""
    table = {lam: [] for lam in SWEEP_LAMBDAS}
    for lam, _, search in v.sweep_gamma_search(SWEEP_LAMBDAS, DNR_DB_GRID, pop64, 0.005):
        table[lam].append(search)
    return table


@pytest.fixture(scope="module")
def biasing_rates(pop64):
    """Biasing-adjustment rate per (brightness, DNR) cell, shared population."""
    return {lam: [row.rate for row in v.sweep_rates([lam], DNR_DB_GRID, [0.5], pop64)[::2]]
            for lam in SWEEP_LAMBDAS}


def test_criterion_1_closed_form_variance_identity(symbols64, extremes):
    """Closed form equals alpha^2 * sigma_x^2 from the scaling rule, 1e-12 relative."""
    worst = 0.0
    for x, (hi, lo, var) in zip(symbols64, extremes):
        upapr, lpapr = v.papr_of(x)
        for zeta in ZETAS:
            alpha = v.compute_alpha(hi, lo, LED.i_low + zeta * LED.dynamic_range, LED)
            sigma_y2 = alpha * alpha * var
            closed = v.variance_closed_form(zeta, upapr, lpapr, LED)
            worst = max(worst, abs(closed - sigma_y2) / sigma_y2)
    report(1, worst < 1e-12,
           f"variance identity over 1000 symbols x 19 ratios, worst rel err {worst:.2e}")


def test_criterion_2_scaling_feasible_and_maximal(symbols64, extremes):
    """Scaled symbols fill the range, cannot grow by 1e-6, ties pick positive."""
    samples = symbols64
    slack = 1e-9 * LED.dynamic_range
    feasible = True
    maximal = True
    for zeta in ZETAS:
        bias = LED.i_low + zeta * LED.dynamic_range
        alphas = np.array([v.compute_alpha(hi, lo, bias, LED) for hi, lo, _ in extremes])
        y = alphas[:, None] * samples + bias
        feasible &= bool(np.all(y >= LED.i_low - slack) and np.all(y <= LED.i_high + slack))
        y_over = (alphas * (1.0 + 1e-6))[:, None] * samples + bias
        outside = (y_over < LED.i_low - slack) | (y_over > LED.i_high + slack)
        maximal &= bool(np.all(np.any(outside, axis=1)))
    tie_ok = bool(v.compute_alpha(1.0, -1.0, 0.5, LED) > 0)
    report(2, feasible and maximal and tie_ok,
           f"feasible={feasible}, maximal={maximal}, symmetric tie -> positive={tie_ok}")


def test_criterion_3_variance_profile_shape(pop64, pop256, pop1024):
    """Profiles are exactly symmetric, ordered in N, and peak at or before 0.5."""
    profiles = {64: v.variance_profile(pop64, 0.01),
                256: v.variance_profile(pop256, 0.01),
                1024: v.variance_profile(pop1024, 0.01)}
    symmetric = True
    for prof in profiles.values():
        zeta, mean = prof.grid[:, 0], prof.grid[:, 1]
        for i in range(len(zeta)):
            j = int(np.argmin(np.abs(zeta - (1.0 - zeta[i]))))
            symmetric &= mean[i] == mean[j]

    def midpoint(prof):
        return float(prof.grid[prof.grid[:, 0] == 0.5][0, 1])

    ordered = midpoint(profiles[64]) > midpoint(profiles[256]) > midpoint(profiles[1024])
    peaked = True
    for prof in profiles.values():
        peaked &= prof.zeta_dagger <= 0.5 and prof.peak_mean >= midpoint(prof)
    report(3, symmetric and ordered and peaked,
           f"symmetry exact={symmetric}, N-ordering at 0.5={ordered}, "
           f"peak location ok={peaked} "
           f"(zeta_dagger n64={profiles[64].zeta_dagger:.2f})")


def test_criterion_4_average_snr_ordering(pop64):
    """At brightness 0.1 the average SNR grows strictly with the forward ratio."""
    ok = True
    rows = v.sweep_rates([0.1], DNR_DB_GRID, [0.2, 0.3, 0.4], pop64)
    for k in range(0, len(rows), 4):  # biasing, then the three ratios, per DNR
        snrs = [row.avg_snr_db for row in rows[k:k + 4]]
        ok &= all(a < b for a, b in zip(snrs, snrs[1:]))
    report(4, ok, "avg SNR strictly increasing over {biasing, 0.2, 0.3, 0.4} "
                  "at every DNR grid point")


def test_criterion_5_optimum_ratio_trend(gamma_search_table):
    """gamma* never increases with DNR and lands on the brightness at 60 dB."""
    monotone = True
    converged = True
    for lam, searches in gamma_search_table.items():
        stars = np.array([s.gamma_star for s in searches])
        monotone &= bool(np.all(np.diff(stars) <= 0))
        converged &= abs(stars[-1] - lam) <= 0.005 + 1e-12
    report(5, monotone and converged,
           f"gamma*(DNR) non-increasing={monotone}, |gamma*(60dB) - lambda| <= step={converged}")


def test_criterion_6_optimized_pwm_dominates(gamma_search_table, biasing_rates):
    """Optimized PWM never loses to biasing; the margin fades as brightness grows."""
    dominated = True
    for lam, searches in gamma_search_table.items():
        for search, baseline in zip(searches, biasing_rates[lam]):
            dominated &= search.rate_at_star >= baseline
    at30 = int(np.flatnonzero(DNR_DB_GRID == 30.0)[0])
    gaps = [gamma_search_table[lam][at30].rate_at_star - biasing_rates[lam][at30]
            for lam in SWEEP_LAMBDAS]
    shrinking = all(a >= b for a, b in zip(gaps, gaps[1:])) and gaps[0] > gaps[-1]
    report(6, dominated and shrinking,
           f"dominance exact in every cell={dominated}, gap at 30 dB shrinks "
           f"{gaps[0]:.4f} -> {gaps[-1]:.4f} ({shrinking})")


def test_criterion_7_optical_average_law(symbols64):
    """Assembled waveforms emit brightness * o_high on average, within 1%."""
    rows = symbols64
    ok = True
    details = []
    for lam in (0.1, 0.25, 0.5, 0.7):
        gamma = max(0.4, v.effective_brightness(lam)[0])
        for scheme, ratio in ((v.Scheme.BIASING_ADJUSTMENT, None), (v.Scheme.PWM, gamma)):
            spec = v.DimmingSpec(lam, ratio)
            assert spec.scheme is scheme
            wave = v.assemble_waveform(rows, spec, LED)
            mean_optical = float(np.mean(v.optical_output(wave, LED)))
            rel = abs(mean_optical - lam * LED.o_high) / (lam * LED.o_high)
            ok &= rel <= 0.01
            details.append(f"{scheme.value}@{lam}:{rel:.4%}")
    report(7, ok, "optical average within 1% of target (" + ", ".join(details) + ")")


def test_criterion_8_constellation_independent_papr(pop64, pop64_qam16):
    """QPSK and 16-QAM UPAPR distributions agree (two-sample KS <= 0.05)."""
    stat = float(ks_2samp(pop64.upapr, pop64_qam16.upapr).statistic)
    report(8, stat <= 0.05, f"KS distance {stat:.4f} <= 0.05")


def test_criterion_9_cli_manifest_determinism(tmp_path, monkeypatch):
    """Re-running any subcommand from its manifest reproduces the CSVs byte for byte."""
    monkeypatch.setenv(v.CACHE_DIR_ENV, str(tmp_path / "cache"))
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(golden.CSV_CONFIG)
    outputs = {
        "papr-sample": ["papr_population.csv"],
        "variance-sweep": ["variance_profile.csv", "variance_peaks.csv"],
        "rate-sweep": ["rates.csv"],
        "optimize-gamma": ["gamma_search.csv"],
        "waveform-demo": ["waveform_biasing.csv", "waveform_pwm.csv"],
    }
    ok = True
    for subcommand, files in outputs.items():
        first = tmp_path / subcommand / "first"
        second = tmp_path / subcommand / "second"
        assert cli_main([subcommand, "--config", str(cfg_path), "--out", str(first)]) == 0
        manifest = first / f"{subcommand}.manifest.txt"
        assert cli_main([subcommand, "--config", str(manifest), "--out", str(second),
                         "--workers", "4"]) == 0
        for name in files:
            ok &= (first / name).read_bytes() == (second / name).read_bytes()
    report(9, ok, "all five CSV-writing subcommands byte-identical across "
                  "manifest reruns and worker counts")
