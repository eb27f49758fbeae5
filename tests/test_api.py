"""Tests for the public API surface: vlcsim.__all__ and the names it no longer has."""

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

import vlcsim as v
from vlcsim import config, dimming, led, ofdm

# (owner, name) pairs removed in favour of one spelling per model quantity
REMOVED = [
    (v, "BiasingRatio"), (led, "BiasingRatio"), (led, "_as_zeta"),
    (v.PaprPopulation, "count"), (v.PaprPopulation, "__getitem__"),
    (v.PaprPopulation, "__iter__"), (ofdm.FreqSymbol, "validate"),
    (ofdm.TimeSymbol, "is_degenerate"), (config.ExperimentConfig, "save"),
    (v, "PwmFrame"), (dimming, "PwmFrame"), (v, "pwm_frame"), (dimming, "pwm_frame"),
    (v, "snr_sample"), (dimming, "snr_sample"),
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


def test_scaling_decision_does_not_echo_the_bias():
    assert "bias" not in {f.name for f in dataclasses.fields(v.ScalingDecision)}


def test_dnr_check_is_one_helper_outside_the_public_list():
    assert "check_dnr" not in v.__all__
    for call in (lambda: v.DimmingSpec(0.2, v.Scheme.BIASING_ADJUSTMENT, dnr=-1.0),
                 lambda: v.optimize_gamma(0.2, -1.0, v.sample_papr_population(
                     16, v.Constellation.QPSK, 5, seed=1)),
                 lambda: dimming.check_dnr(-1.0)):
        with pytest.raises(ValueError, match="dnr must be finite and >= 0, got -1.0"):
            call()
