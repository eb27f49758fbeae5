"""Brightness-controlled DCO-OFDM simulation for dynamic-range-limited LEDs.

The library models an intensity-modulated optical link whose LED is linear
only over [i_low, i_high]. OFDM symbols are maximally scaled and biased
into that range; brightness is controlled either by moving the bias or by
pulse-width modulation, and achievable ergodic rates are estimated by
seeded Monte Carlo over per-symbol peak statistics.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, CurrentRangeError, DegenerateSymbolError,
                     DutyCycleError, HermitianSymmetryError, InvalidBiasError,
                     VlcsimError)
from .ofdm import (Constellation, PaprPopulation, generate_freq_symbol, papr_of,
                   sample_papr_population, symbol_rng, to_time_domain)
from .led import (LedModel, compute_alpha, optical_output, variance_closed_form,
                  variance_factor)
from .dimming import (DimmingSpec, Scheme, assemble_waveform, duty_cycle,
                      effective_brightness, write_waveform_csv)
from .rates import (AUTO, GammaSearchResult, RateEstimate, VarianceProfile, gamma_grid,
                    sweep_gamma_search, sweep_rates, variance_profile,
                    write_gamma_search_csv, write_rates_csv, zeta_grid)
from .cache import (CACHE_DIR_ENV, load_or_build, load_population,
                    population_cache_path, resolve_cache_dir, save_population,
                    write_population_csv)
from .config import ExperimentConfig, load_config, parse_config

__all__ = [
    "__version__",
    # errors
    "VlcsimError", "ConfigError", "CurrentRangeError", "DegenerateSymbolError",
    "DutyCycleError", "HermitianSymmetryError", "InvalidBiasError",
    # ofdm
    "Constellation", "PaprPopulation",
    "generate_freq_symbol", "to_time_domain", "papr_of", "sample_papr_population",
    "symbol_rng",
    # led
    "LedModel", "compute_alpha", "variance_factor",
    "variance_closed_form", "optical_output",
    # dimming
    "Scheme", "DimmingSpec", "effective_brightness", "duty_cycle",
    "assemble_waveform", "write_waveform_csv",
    # rates
    "AUTO", "RateEstimate", "GammaSearchResult", "VarianceProfile",
    "variance_profile", "sweep_rates",
    "sweep_gamma_search", "gamma_grid", "zeta_grid", "write_rates_csv",
    "write_gamma_search_csv",
    # cache
    "CACHE_DIR_ENV", "save_population", "load_population", "load_or_build",
    "population_cache_path", "resolve_cache_dir", "write_population_csv",
    # config
    "ExperimentConfig", "parse_config", "load_config",
]
