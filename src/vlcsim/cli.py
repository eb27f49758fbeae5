"""Command-line front end: seeded, manifest-reproducible experiment runs.

Every subcommand writes its CSV outputs plus a manifest that echoes the
effective configuration; re-running a subcommand from its manifest
reproduces the outputs byte for byte.

Exit codes: 0 success, 2 configuration error (an unreadable --config file
too, under the key config), 3 self-test failure, 4 I/O error (an output or
cache path cannot be read or written), 5 out of memory (usually
symbol_count or a grid size is too large).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .cache import load_or_build, population_cache_path, resolve_cache_dir, write_population_csv
from .config import ExperimentConfig, config_line, load_config, parse_config
from .csvio import write_rows
from .dimming import (DimmingSpec, assemble_waveform, check_waveform, duty_cycle,
                      effective_brightness, off_interval, write_waveform_csv)
from .errors import ConfigError, DutyCycleError, VlcsimError
from .led import LedModel, compute_alpha, variance_closed_form, variance_factor
from .ofdm import (Constellation, generate_freq_symbol, papr_of,
                   sample_papr_population, symbol_rng, to_time_domain)
from .rates import (AUTO, sweep_gamma_search, sweep_rates, variance_profile,
                    write_gamma_search_csv, write_rates_csv)

# working memory of one waveform block that waveform-demo assembles and writes:
# about 32 bytes per sample (currents, optical copy and masks) over whole frames,
# a symbol's samples plus its dimming.off_interval, and at least one frame
_WAVE_BLOCK_BYTES = 256 * 1024

# flags whose argparse dest is the config key they set, in the order they are parsed
_FLAG_KEYS = ("seed", "n_subcarriers", "n_list", "symbol_count", "oversample_factor",
              "constellation", "lambdas", "gammas", "output_dir")


def _notice(message: str):
    print(f"[vlcsim] {message}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="config or manifest file")
    common.add_argument("--seed", type=int, metavar="U64")
    common.add_argument("--n", type=int, metavar="INT", dest="n_subcarriers",
                        help="number of subcarriers")
    common.add_argument("--n-list", metavar="LIST", dest="n_list",
                        help="comma-separated subcarrier counts (variance-sweep)")
    common.add_argument("--symbols", type=int, metavar="INT", dest="symbol_count")
    common.add_argument("--oversample", type=int, metavar="INT", dest="oversample_factor")
    common.add_argument("--constellation", metavar="NAME",
                        choices=[c.value for c in Constellation])
    common.add_argument("--lambda", metavar="LIST", dest="lambdas",
                        help="comma-separated brightness factors")
    common.add_argument("--gamma", metavar="LIST|auto", dest="gammas",
                        help="comma-separated PWM forward ratios, or 'auto'")
    common.add_argument("--dnr-db", metavar="START:STOP:STEP", dest="dnr_db")
    common.add_argument("--out", metavar="DIR", dest="output_dir")
    common.add_argument("--quick", action="store_true",
                        help="cap the population at 1000 symbols")
    common.add_argument("--workers", type=int, default=1, metavar="INT",
                        help="accepted for compatibility; has no effect "
                             "(sampling runs on one thread)")

    parser = argparse.ArgumentParser(
        prog="vlcsim",
        description="Brightness-controlled DCO-OFDM link simulator for "
                    "dynamic-range-limited LEDs")
    parser.add_argument("--version", action="version", version=f"vlcsim {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, text) in _SUBCOMMANDS.items():
        sub.add_parser(name, parents=[common], help=text)
    return parser


def _effective_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config:
        cfg = load_config(args.config, cfg)
    lines = [config_line(key, str(getattr(args, key))) for key in _FLAG_KEYS
             if getattr(args, key) is not None]
    if args.dnr_db is not None:
        parts = args.dnr_db.split(":")
        if len(parts) != 3:
            raise ConfigError("dnr-db", f"expected START:STOP:STEP, got {args.dnr_db!r}")
        lines += [config_line(f"dnr_db_{end}", part) for end, part in zip(("start", "stop", "step"), parts)]
    cfg = parse_config("\n".join(lines), cfg)
    if args.quick and cfg.symbol_count > 1000:
        cfg = replace(cfg, symbol_count=1000)
    return cfg.validate()


def _write_manifest(cfg: ExperimentConfig, subcommand: str):
    path = Path(cfg.output_dir) / f"{subcommand}.manifest.txt"
    header = (f"# vlcsim {__version__} run manifest\n"
              f"# subcommand: {subcommand}\n"
              f"# rerun with: vlcsim {subcommand} --config {path.name}\n")
    path.write_text(header + cfg.to_text())


def _population(cfg: ExperimentConfig, n_subcarriers: int):
    cache_dir = resolve_cache_dir(cfg.output_dir)
    key = (n_subcarriers, cfg.constellation, cfg.symbol_count, cfg.seed, cfg.oversample_factor)
    path = population_cache_path(cache_dir, *key)
    pop, cached = load_or_build(cache_dir, *key, notice=_notice)
    _notice(f"using cached population {path}" if cached else
            f"cache miss, built population of {cfg.symbol_count} symbols (n={n_subcarriers}) at {path}")
    return pop


def _symbol_blocks(rows: np.ndarray, spec: DimmingSpec):
    """Consecutive runs of symbol rows whose waveform takes about _WAVE_BLOCK_BYTES."""
    frame = rows.shape[1] + off_interval(rows.shape[1], spec.brightness, spec.forward_ratio)
    per_block = max(1, int(_WAVE_BLOCK_BYTES // (32 * frame)))
    return [rows[i:i + per_block] for i in range(0, len(rows), per_block)]


def _cmd_papr_sample(cfg: ExperimentConfig) -> int:
    pop = _population(cfg, cfg.n_subcarriers)
    csv_path = Path(cfg.output_dir) / "papr_population.csv"
    write_population_csv(csv_path, pop)
    _notice(f"wrote {csv_path}")
    return 0


def _cmd_variance_sweep(cfg: ExperimentConfig) -> int:
    cfg.check_profile_budget()
    out = Path(cfg.output_dir)
    profile_path = out / "variance_profile.csv"
    peaks_path = out / "variance_peaks.csv"
    profile_rows, peak_rows = [], []
    for n in cfg.subcarrier_counts():
        profile = variance_profile(_population(cfg, n), cfg.zeta_step)
        profile_rows.extend((n, zeta, mean) for zeta, mean in profile.grid)
        peak_rows.append((n, profile.zeta_dagger, profile.peak_mean))
    write_rows(profile_path, ["n_subcarriers", "zeta", "mean_sigma_y2"], profile_rows)
    write_rows(peaks_path, ["n_subcarriers", "zeta_dagger", "peak_mean_sigma_y2"], peak_rows)
    _notice(f"wrote {profile_path} and {peaks_path}")
    return 0


def _cmd_rate_sweep(cfg: ExperimentConfig) -> int:
    cfg.check_rate_table_budget()
    if cfg.gammas == AUTO:
        cfg.check_search_budget()
    else:  # an unreachable brightness fails before the population is built
        for lam in cfg.lambdas:
            for gamma in cfg.gammas:
                duty_cycle(effective_brightness(lam)[0], gamma)
    pop = _population(cfg, cfg.n_subcarriers)
    rows = sweep_rates(cfg.lambdas, cfg.dnr_db_grid(), cfg.gammas, pop, cfg.gamma_step)
    csv_path = Path(cfg.output_dir) / "rates.csv"
    write_rates_csv(csv_path, rows, pop)
    _notice(f"wrote {csv_path} ({len(rows)} rows)")
    return 0


def _cmd_optimize_gamma(cfg: ExperimentConfig) -> int:
    if cfg.gammas != AUTO:
        _notice(f"optimize-gamma searches every forward ratio; "
                f"ignoring gammas {', '.join(map(str, cfg.gammas))}")
    cfg.check_search_budget()
    pop = _population(cfg, cfg.n_subcarriers)
    cells = sweep_gamma_search(cfg.lambdas, cfg.dnr_db_grid(), pop, cfg.gamma_step)
    csv_path = Path(cfg.output_dir) / "gamma_search.csv"
    write_gamma_search_csv(csv_path, cells)
    _notice(f"wrote {csv_path} ({len(cells)} cells)")
    return 0


def _cmd_waveform_demo(cfg: ExperimentConfig) -> int:
    if cfg.gammas == AUTO:
        raise ConfigError("gammas", f"waveform-demo needs a forward ratio, got {cfg.gammas!r}")
    lam = cfg.lambdas[0]
    ignored = [f"{key} {', '.join(map(str, values[1:]))}"
               for key, values in (("lambda", cfg.lambdas), ("gamma", cfg.gammas)) if values[1:]]
    if ignored:
        _notice(f"waveform-demo uses the first lambda and gamma; ignoring {' and '.join(ignored)}")
    led = cfg.led()
    specs = [DimmingSpec(lam), DimmingSpec(lam, cfg.gammas[0])]
    for spec in specs:  # a rejected spec or frame fails before a symbol is drawn
        check_waveform(spec, led)
    cfg.check_frame_budget()
    # the sampler writes each symbol's time-domain samples into its row; the
    # population it returns is not needed here
    rows = np.empty((cfg.symbol_count, cfg.n_subcarriers * cfg.oversample_factor))
    sample_papr_population(cfg.n_subcarriers, cfg.constellation, cfg.symbol_count, cfg.seed,
                           cfg.oversample_factor, samples=rows)
    paths = [Path(cfg.output_dir) / f"waveform_{spec.scheme.value}.csv" for spec in specs]
    for spec, path in zip(specs, paths):
        # gaps are per frame and mirroring and snapping per sample, so the
        # blocks concatenate to the whole waveform's assembly bit for bit
        write_waveform_csv(path, (assemble_waveform(block, spec, led)
                                  for block in _symbol_blocks(rows, spec)), led)
    _notice(f"wrote {paths[0]} and {paths[1]}")
    return 0


def _cmd_selftest(cfg: ExperimentConfig) -> int:
    led = LedModel()
    checks: list[tuple[str, bool]] = []

    # the reference is NumPy's own per-symbol seeding, not the sampler's batched one
    n, factor = cfg.n_subcarriers, cfg.oversample_factor

    def bins(i):
        return generate_freq_symbol(n, cfg.constellation, symbol_rng(cfg.seed, i))

    rows = np.empty((200, n * factor))
    upapr, lpapr = np.empty(200), np.empty(200)
    for i in range(200):
        rows[i] = to_time_domain(bins(i), factor)
        upapr[i], lpapr[i] = papr_of(rows[i])
    sigma_x2 = np.square(rows).mean(axis=1)
    sampled = np.empty_like(rows)
    pop = sample_papr_population(n, cfg.constellation, 200, cfg.seed, factor, samples=sampled)
    checks.append(("block sampler rows and PAPRs equal symbol_rng draws' one-row synthesis",
                   np.array_equal(sampled.view(np.uint64), rows.view(np.uint64))
                   and np.array_equal(pop.upapr, upapr) and np.array_equal(pop.lpapr, lpapr)))

    # an oracle that is not the kernel: (1/sqrt(N)) sum_k X_k exp(j 2 pi k t / (N F)) at a
    # few instants t of 3 symbols, bins above N/2 as negative frequencies, phases reduced
    # exactly mod N F; its rounding is about 1e-16 * sqrt(N) of the RMS
    instants = np.unique(np.linspace(0, n * factor - 1, 9).astype(int))
    k = np.arange(n)
    freqs = np.where(k <= n // 2, k, k - n)
    phases = np.exp(2j * np.pi * (np.outer(instants, freqs) % (n * factor)) / (n * factor))
    err = max(float(np.max(np.abs(phases @ bins(i) / np.sqrt(n) - rows[i, instants])))
              / np.sqrt(sigma_x2[i]) for i in range(3))
    checks.append((f"one-row synthesis equals the direct sum at {len(instants)} instants of "
                   "3 symbols (err < 1e-9 x RMS)", err < 1e-9))

    # alpha * x + bias is monotone in x, rounding included: a row's extremes bound it
    extremes = np.stack([rows.max(axis=1), rows.min(axis=1)], axis=1)
    low, high = led.i_low - 1e-9 * led.dynamic_range, led.i_high + 1e-9 * led.dynamic_range
    worst, feasible, maximal = 0.0, True, True
    for zeta in np.arange(0.05, 0.951, 0.05):
        bias = led.i_low + zeta * led.dynamic_range
        alpha = compute_alpha(extremes[:, 0], extremes[:, 1], bias, led)
        sigma_y2 = alpha * alpha * sigma_x2
        closed = variance_closed_form(zeta, upapr, lpapr, led)
        worst = max(worst, float(np.max(np.abs(closed - sigma_y2) / sigma_y2)))
        y = alpha[:, None] * extremes + bias
        feasible &= bool(np.all((y >= low) & (y <= high)))
        y_over = alpha[:, None] * (1 + 1e-6) * extremes + bias
        maximal &= bool(np.all(np.any((y_over < low) | (y_over > high), axis=1)))
    checks.append(("closed-form variance matches maximal scaling (rel err < 1e-12)",
                   worst < 1e-12))
    checks.append(("scaled waveforms stay inside the dynamic range", feasible))
    checks.append(("scaling is maximal (1e-6 headroom violates the range)", maximal))

    rng = np.random.default_rng(cfg.seed)
    zetas = rng.uniform(0.01, 0.99, size=200)
    sym_ok = True
    for zeta in zetas:
        f = variance_factor(zeta, pop.upapr, pop.lpapr)
        sym_ok &= bool(np.array_equal(f, variance_factor(1.0 - zeta, pop.upapr, pop.lpapr)))
        sym_ok &= bool(np.array_equal(f, variance_factor(zeta, pop.lpapr, pop.upapr)))
    checks.append(("variance factor exactly symmetric (mirror and swap)", sym_ok))

    checks.append(("PWM at gamma = brightness degenerates to biasing adjustment",
                   np.array_equal(assemble_waveform(rows[:5], DimmingSpec(0.25), led),
                                  assemble_waveform(rows[:5], DimmingSpec(0.25, 0.25), led))))

    failed = False
    for name, ok in checks:
        print(f"[selftest] {'ok  ' if ok else 'FAIL'} {name}")
        failed |= not ok
    return 3 if failed else 0


# subcommand -> (handler, help text)
_SUBCOMMANDS = {
    "papr-sample": (_cmd_papr_sample, "build (and cache) a PAPR population, export it as CSV"),
    "variance-sweep": (_cmd_variance_sweep, "mean scaled-signal variance vs. biasing ratio"),
    "rate-sweep": (_cmd_rate_sweep, "ergodic rates over brightness x DNR cells"),
    "optimize-gamma": (_cmd_optimize_gamma, "search the best PWM forward ratio per cell"),
    "waveform-demo": (_cmd_waveform_demo, "assemble example drive waveforms for both schemes"),
    "selftest": (_cmd_selftest, "run the built-in invariant checks"),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _effective_config(args)
        Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
        if cfg.n_list and args.subcommand != "variance-sweep":
            _notice(f"{args.subcommand} uses n_subcarriers {cfg.n_subcarriers}; "
                    f"ignoring n_list {', '.join(map(str, cfg.n_list))}")
        code = _SUBCOMMANDS[args.subcommand][0](cfg)
        # written once the run has succeeded, so a manifest never reruns a rejected config
        if args.subcommand != "selftest":
            _write_manifest(cfg, args.subcommand)
        return code
    except ConfigError as exc:
        print(f"vlcsim: config error: {exc}", file=sys.stderr)
        return 2
    except DutyCycleError as exc:  # every duty cycle a run checks has a configured gamma
        print(f"vlcsim: config error: gammas: {exc}", file=sys.stderr)
        return 2
    except VlcsimError as exc:
        print(f"vlcsim: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"vlcsim: I/O error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("vlcsim: out of memory; reduce symbol_count or the grid sizes "
              "(dnr_db_step, zeta_step, gamma_step, lambdas, gammas)", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
