"""Tests for the public API surface: vlcsim.__all__ and the names it no longer has."""

import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vlcsim as v
from vlcsim import config, dimming, led, ofdm, rates

# (owner, name) pairs removed in favour of one spelling per model quantity; the
# per-symbol functions take and return arrays, so their wrapper types are gone
REMOVED = [
    (v, "BiasingRatio"), (led, "BiasingRatio"), (led, "_as_zeta"),
    (v.PaprPopulation, "count"), (v.PaprPopulation, "__getitem__"),
    (v.PaprPopulation, "__iter__"), (config.ExperimentConfig, "save"),
    (v, "PwmFrame"), (dimming, "PwmFrame"), (v, "pwm_frame"), (dimming, "pwm_frame"),
    (v, "snr_sample"), (dimming, "snr_sample"),
    (dimming, "_alpha"), (dimming, "TimeSymbol"), (led, "PaprSample"),
    (ofdm, "symbol_rngs"), (rates, "gamma_grid_points"), (rates, "zeta_grid_half"),
    (v, "estimate_rate"), (rates, "estimate_rate"), (v, "optimize_gamma"),
    (rates, "optimize_gamma"), (v, "ScalingDecision"), (led, "ScalingDecision"),
    (v, "check_dnr"), (dimming, "check_dnr"),
    (v, "FreqSymbol"), (ofdm, "FreqSymbol"), (v, "TimeSymbol"), (ofdm, "TimeSymbol"),
    (v, "PaprSample"), (ofdm, "PaprSample"),
]


def test_every_exported_name_resolves_once():
    assert len(set(v.__all__)) == len(v.__all__)
    for name in v.__all__:
        assert hasattr(v, name), name


def test_star_import_is_warning_free():
    src = Path(v.__file__).resolve().parents[1]
    code = "from vlcsim import *; import vlcsim; assert set(vlcsim.__all__) <= set(dir())"
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], cwd=src,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("owner, name", REMOVED,
                         ids=[f"{getattr(o, '__name__', o)}.{n}" for o, n in REMOVED])
def test_removed_names_are_gone(owner, name):
    assert not hasattr(owner, name)
    assert name not in v.__all__


def test_dimming_spec_has_the_paper_parameters_only():
    """A scheme is the brightness and, for PWM, the forward ratio; the DNR belongs to the link."""
    assert tuple(f.name for f in dataclasses.fields(v.DimmingSpec)) == (
        "brightness", "forward_ratio")


def test_rate_row_has_the_cell_and_its_results_only():
    """n_samples and seed belong to the population and the scheme follows from gamma."""
    assert tuple(f.name for f in dataclasses.fields(v.RateEstimate)) == (
        "brightness", "gamma", "dnr_db", "rate", "avg_snr_db")


def test_dnr_check_is_one_helper_outside_the_public_list():
    assert "dnr_linear" not in v.__all__
    pop = v.sample_papr_population(16, v.Constellation.QPSK, 5, seed=1)
    for call in (lambda: v.sweep_rates([0.2], [np.nan], v.AUTO, pop),
                 lambda: v.sweep_gamma_search([0.2], [np.nan], pop),
                 lambda: rates.dnr_linear(np.nan)):
        with pytest.raises(ValueError, match="dnr_db nan gives a non-finite linear DNR"):
            call()


def test_readme_library_example_runs():
    """The README's Library code block runs as written, with warnings as errors."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("\n## Library\n"):]
    start = section.index("```python\n") + len("```python\n")
    code = section[start:section.index("\n```", start)]
    src = Path(v.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], cwd=src,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
