"""Golden pins: every case of tests/golden.json, observed as golden.py recorded it.

Exact bits and digests are compared only under the NumPy the store was
recorded with; the QPSK and 16-QAM population values and the PWM waveform
rows are compared within the store's relative tolerance under any NumPy (see
golden.py for why).
"""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import golden

STORE = json.loads(golden.STORE.read_text())
RECORDED = np.__version__ == STORE["numpy"]
OFF_VERSION = f"byte pins recorded under NumPy {STORE['numpy']}, running {np.__version__}"


@pytest.mark.parametrize("case", golden.POPULATIONS)
def test_population_matches_golden(case):
    pinned = STORE["populations"][case]
    if not RECORDED and golden.POPULATIONS[case][0] == "complex_gaussian":
        pytest.skip(f"{OFF_VERSION}; Generator.standard_normal is not version-stable")
    got = golden.population(*golden.POPULATIONS[case])
    if RECORDED:
        assert got == pinned
    for key in ("upapr", "lpapr"):
        assert_allclose([float.fromhex(h) for h in got[key]],
                        [float.fromhex(h) for h in pinned[key]], rtol=STORE["rtol"], atol=0)


@pytest.mark.skipif(not RECORDED, reason=OFF_VERSION)
@pytest.mark.parametrize("case", golden.CSV_RUNS)
def test_cli_csv_matches_golden(tmp_path, case):
    assert golden.csv_digests(tmp_path, *golden.CSV_RUNS[case]) == STORE["csv"][case]


def test_pwm_waveform_matches_recorded_values_on_any_numpy(tmp_path):
    got, pinned = golden.waveform_rows(tmp_path), STORE["waveform_pwm"]
    assert (got["header"], got["rows"], list(got["picked"])) == (
        pinned["header"], pinned["rows"], list(pinned["picked"]))
    values, recorded = (np.array(list(rows["picked"].values())) for rows in (got, pinned))
    assert_allclose(values, recorded, rtol=STORE["rtol"], atol=0)
    assert (np.signbit(values) == np.signbit(recorded)).all()  # an off sample is 0.0, not -0.0
