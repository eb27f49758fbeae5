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
from .dimming import (DimmingSpec, Scheme, assemble_waveform, duty_cycle, effective_brightness,
                      write_waveform_csv)
from .errors import ConfigError, DutyCycleError, VlcsimError
from .led import LedModel, compute_alpha, variance_closed_form, variance_factor
from .ofdm import (Constellation, generate_freq_symbol, papr_of,
                   sample_papr_population, symbol_rng, symbol_rngs, to_time_domain)
from .rates import (AUTO, sweep_gamma_search, sweep_rates, variance_profile,
                    write_gamma_search_csv, write_rates_csv)

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


def _time_symbols(cfg: ExperimentConfig, rngs):
    """The configuration's time-domain symbols, one drawn from each generator."""
    return [to_time_domain(generate_freq_symbol(cfg.n_subcarriers, cfg.constellation, rng),
                           cfg.oversample_factor)
            for rng in rngs]


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
    profile_rows = []
    peak_rows = []
    for n in cfg.subcarrier_counts():
        profile = variance_profile(_population(cfg, n), cfg.zeta_step)
        profile_rows.extend((n, zeta, mean) for zeta, mean in profile.grid)
        peak = profile.grid[profile.grid[:, 0] == profile.zeta_dagger][0, 1]
        peak_rows.append((n, profile.zeta_dagger, peak))
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
    write_rates_csv(csv_path, rows, cfg.seed)
    _notice(f"wrote {csv_path} ({len(rows)} rows)")
    return 0


def _cmd_optimize_gamma(cfg: ExperimentConfig) -> int:
    cfg.check_search_budget()
    pop = _population(cfg, cfg.n_subcarriers)
    cells = sweep_gamma_search(cfg.lambdas, cfg.dnr_db_grid(), pop, cfg.gamma_step)
    csv_path = Path(cfg.output_dir) / "gamma_search.csv"
    write_gamma_search_csv(csv_path, cells)
    _notice(f"wrote {csv_path} ({len(cells)} cells)")
    return 0


def _cmd_waveform_demo(cfg: ExperimentConfig) -> int:
    if isinstance(cfg.gammas, str) or not cfg.gammas:
        raise ConfigError("gammas", f"waveform-demo needs a forward ratio, got {cfg.gammas!r}")
    lam = cfg.lambdas[0]
    ignored = [f"{key} {', '.join(map(str, values[1:]))}"
               for key, values in (("lambda", cfg.lambdas), ("gamma", cfg.gammas)) if values[1:]]
    if ignored:
        _notice(f"waveform-demo uses the first lambda and gamma; ignoring {' and '.join(ignored)}")
    led = cfg.led()
    # waveforms are noise-free; any valid DNR budget works
    specs = [DimmingSpec(brightness=lam, scheme=Scheme.BIASING_ADJUSTMENT, dnr=1.0),
             DimmingSpec(brightness=lam, scheme=Scheme.PWM, dnr=1.0, forward_ratio=cfg.gammas[0])]
    symbols = _time_symbols(cfg, symbol_rngs(cfg.seed, cfg.symbol_count))
    paths = [Path(cfg.output_dir) / f"waveform_{spec.scheme.value}.csv" for spec in specs]
    for spec, path in zip(specs, paths):
        write_waveform_csv(path, assemble_waveform(symbols, spec, led), led)
    _notice(f"wrote {paths[0]} and {paths[1]}")
    return 0


def _cmd_selftest(cfg: ExperimentConfig) -> int:
    led = LedModel()
    checks: list[tuple[str, bool]] = []

    # the reference is NumPy's own per-symbol seeding, not the sampler's batched one
    symbols = _time_symbols(cfg, (symbol_rng(cfg.seed, i) for i in range(200)))
    pop = sample_papr_population(cfg.n_subcarriers, cfg.constellation, 200, cfg.seed,
                                 cfg.oversample_factor)
    reference = [papr_of(sym) for sym in symbols]
    checks.append(("block sampler equals symbol_rng draws and one-row synthesis",
                   np.array_equal(pop.upapr, [s.upapr for s in reference])
                   and np.array_equal(pop.lpapr, [s.lpapr for s in reference])))

    worst = 0.0
    feasible = True
    maximal = True
    for sym, papr in zip(symbols, reference):
        hi = float(np.max(sym.samples))
        lo = float(np.min(sym.samples))
        for zeta in np.arange(0.05, 0.951, 0.05):
            bias = led.i_low + zeta * led.dynamic_range
            decision = compute_alpha(hi, lo, bias, led, sym.sigma_x2)
            closed = variance_closed_form(zeta, papr, led)
            worst = max(worst, abs(closed - decision.sigma_y2) / decision.sigma_y2)
            y = decision.alpha * sym.samples + bias
            slack = 1e-9 * led.dynamic_range
            feasible &= bool(np.all(y >= led.i_low - slack) and np.all(y <= led.i_high + slack))
            y_over = decision.alpha * (1 + 1e-6) * sym.samples + bias
            maximal &= bool(np.any(y_over < led.i_low - slack) or np.any(y_over > led.i_high + slack))
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

    spec_b = DimmingSpec(brightness=0.25, scheme=Scheme.BIASING_ADJUSTMENT, dnr=1.0)
    spec_p = DimmingSpec(brightness=0.25, scheme=Scheme.PWM, dnr=1.0, forward_ratio=0.25)
    checks.append(("PWM at gamma = brightness degenerates to biasing adjustment",
                   np.array_equal(assemble_waveform(symbols[:5], spec_b, led),
                                  assemble_waveform(symbols[:5], spec_p, led))))

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
        if args.subcommand != "selftest":
            _write_manifest(cfg, args.subcommand)
        if cfg.n_list and args.subcommand != "variance-sweep":
            _notice(f"{args.subcommand} uses n_subcarriers {cfg.n_subcarriers}; "
                    f"ignoring n_list {', '.join(map(str, cfg.n_list))}")
        return _SUBCOMMANDS[args.subcommand][0](cfg)
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
