"""A population pin that runs under every NumPy, not only the recorded one.

test_golden.py pins exact bits and skips off the NumPy it was recorded with.
This pin checks the first, middle and last (UPAPR, LPAPR) of its QPSK and
16-QAM cases within a relative 1e-12, about 4,500 ulp. Those draws are PCG64
raw words seeded by SeedSequence, and NumPy keeps both streams stable across
releases (NEP 19), so only the FFT's rounding may differ between versions; a
changed draw moves a value by O(1). Complex Gaussian is left out, because
Generator.standard_normal is not version-stable.
"""

import pytest
from numpy.testing import assert_allclose

import vlcsim as v
from test_golden import COUNT, GOLDEN, SEED

INDEXED = [case for case in GOLDEN if case[0] != "complex_gaussian"]


@pytest.mark.parametrize("constellation,n,factor,upapr_hex,lpapr_hex",
                         [case[:5] for case in INDEXED],
                         ids=[f"{c}-n{n}-f{f}" for c, n, f, *_ in INDEXED])
def test_population_values_match_golden_on_any_numpy(constellation, n, factor, upapr_hex,
                                                      lpapr_hex):
    pop = v.sample_papr_population(n, v.Constellation(constellation), COUNT, seed=SEED,
                                   oversample_factor=factor)
    picks = [0, COUNT // 2, COUNT - 1]
    for values, recorded in ((pop.upapr, upapr_hex), (pop.lpapr, lpapr_hex)):
        assert_allclose(values[picks], [float.fromhex(h) for h in recorded], rtol=1e-12, atol=0)
