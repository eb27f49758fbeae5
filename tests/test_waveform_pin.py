"""A drive-waveform pin that runs under every NumPy, not only the recorded one.

test_golden.py pins the waveform CSVs' exact bytes and skips off the NumPy it
was recorded with. This pin runs waveform-demo at seed 12345 (N = 16, F = 4,
20 symbols, brightness 0.25, forward ratio 0.4: frames of 64 on and 38 off
samples) and checks a few rows of waveform_pwm.csv within a relative 1e-12,
as test_population_pin.py does for populations. The QPSK draws are PCG64 raw
words, stable across releases (NEP 19), so only the FFT's rounding may differ
between versions; a changed draw or scaling rule moves a value by O(1). The
off samples are exactly 0.0 on any NumPy.
"""

import csv

from numpy.testing import assert_allclose

import vlcsim as v
from vlcsim.cli import main as cli_main

ARGV = ["waveform-demo", "--seed", "12345", "--n", "16", "--symbols", "20",
        "--lambda", "0.25", "--gamma", "0.4"]
ROWS = 20 * (64 + 38)

# sample_index -> current (equal to optical under the default LED)
PINNED = {
    0: 0.32074390798821156,  # first sample of the first symbol
    64: 0.0,  # first off sample
    101: 0.0,  # last off sample of the first frame
    102: 0.3258954490224901,  # first sample of the second symbol
    1037: 0.386614310672272,
    2001: 0.2437624026703054,  # last sample of the last symbol
    2039: 0.0,  # last off sample
}


def test_pwm_waveform_matches_recorded_values_on_any_numpy(tmp_path, monkeypatch):
    monkeypatch.setenv(v.CACHE_DIR_ENV, str(tmp_path / "cache"))
    assert cli_main([*ARGV, "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "waveform_pwm.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sample_index", "current", "optical"] and len(rows) == ROWS + 1
    picked = [rows[1 + i] for i in PINNED]
    assert [int(row[0]) for row in picked] == list(PINNED)
    for column in (1, 2):
        got = [float(row[column]) for row in picked]
        assert_allclose(got, list(PINNED.values()), rtol=1e-12, atol=0)
    for i, value in PINNED.items():
        if value == 0.0:
            assert rows[1 + i][1:] == ["0.0", "0.0"], i
