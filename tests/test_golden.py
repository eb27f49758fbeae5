"""Golden pins for PAPR populations: exact bits of seeded sampler output.

Each case pins float.hex of the first, middle and last (UPAPR, LPAPR) entry
plus a SHA-256 over the little-endian float64 bytes of the whole upapr array
followed by the whole lpapr array. The count, 301, is not a multiple of any
sampler block size used by these (N, F) pairs, so a short final block is
covered. NumPy does not promise stable Generator streams across versions
(NEP 19), so the pins only run under the NumPy version they were recorded
with.
"""

import hashlib

import numpy as np
import pytest

import vlcsim as v

RECORDED_NUMPY = "2.4.6"
SEED = 20240601
COUNT = 301

pytestmark = pytest.mark.skipif(
    np.__version__ != RECORDED_NUMPY,
    reason=f"golden pins recorded under NumPy {RECORDED_NUMPY}, running {np.__version__}")

# (constellation, N, F, upapr hex at (0, mid, last), lpapr hex at (0, mid, last), sha256)
GOLDEN = [
    ("qpsk", 64, 1, ('0x1.43751f6fab97dp+3', '0x1.1bd614a434fd8p+2', '0x1.7ed030eae3aeep+1'),
     ('0x1.07a2b08f5d3ebp+2', '0x1.8eefd33483ea4p+2', '0x1.ef0ef6eb9498ap+2'),
     "f3e5ac7d52b9446331880802d2ef5d812b9dea9fc4ec888cc90236f5c272c07b"),
    ("qpsk", 64, 4, ('0x1.43751f6fab97dp+3', '0x1.546d057b4562bp+2', '0x1.833452bb3175ap+2'),
     ('0x1.bf653fb5d90ccp+2', '0x1.d6836394e732ap+2', '0x1.2e09d3281a326p+3'),
     "d6bcd0287051336d5db18f15cf2845fe1e98a70f441cde479513b1f3b800cf20"),
    ("qpsk", 1024, 1, ('0x1.43a277dc9b8b3p+3', '0x1.a76c31139dd87p+3', '0x1.12c2ad1b61553p+3'),
     ('0x1.b0716e56d1b3cp+3', '0x1.13c36cc3e277dp+3', '0x1.87bb03ee48135p+3'),
     "da148824fe974e4e1c8b1c2f6a41251e1ab1966a0ca00c2a3f4308bc43ee3bf1"),
    ("qpsk", 1024, 4, ('0x1.43a277dc9b8b4p+3', '0x1.03b354871970bp+4', '0x1.707d55105cddap+3'),
     ('0x1.b0716e56d1b3dp+3', '0x1.181f548e435fep+3', '0x1.87bb03ee48137p+3'),
     "05bfe38d13b4b2f95e71681e85052450a8868f25f6ba7a7f53a9ea3de2b043f4"),
    ("qam16", 64, 1, ('0x1.ff712c7d41341p+1', '0x1.52840670b453ep+2', '0x1.25e60c2f0765bp+2'),
     ('0x1.a47d0b299d3cfp+2', '0x1.b1fc5800691d5p+1', '0x1.2e4c6d32d3cfdp+2'),
     "215e7e5f02db4eafcb24f0c4a38fbbd2fb143a9d77a791b78eb25593eba5de50"),
    ("qam16", 64, 4, ('0x1.cd83de882be2bp+2', '0x1.adec20c215b6fp+2', '0x1.69aa4b004a5e5p+2'),
     ('0x1.a51e3403356b7p+2', '0x1.0b86a187db1bep+2', '0x1.34e7b794421d2p+2'),
     "278114aeb995a0c79bbf4737f8da99d5f690a8d255633a96a15f258b92c7e6f4"),
    ("qam16", 1024, 1, ('0x1.c4d35ad25c6f8p+3', '0x1.29d667a4e871cp+3', '0x1.4067dab473689p+3'),
     ('0x1.5c8e7b475161ep+3', '0x1.4b2e261df6f27p+3', '0x1.1e1e5cbd432edp+3'),
     "2b0eb55539510bb17835e31061acb7bcb2363981bc05a80333ad41235e800e43"),
    ("qam16", 1024, 4, ('0x1.c4d35ad25c6f8p+3', '0x1.29d667a4e871ap+3', '0x1.a21ebe8015fe2p+3'),
     ('0x1.ac9d2c52ef4c2p+3', '0x1.75a6898df82dep+3', '0x1.6ec4efba13d8dp+3'),
     "67a80c46b7516fc3ca42e719a51613fb83f0df8fb059d8eb63d457793187e3f3"),
    ("complex_gaussian", 64, 1, ('0x1.db80f3dee0200p+2', '0x1.d26d05f9a50e3p+2', '0x1.7f65e37f1af29p+2'),
     ('0x1.92dbf6c0fb024p+2', '0x1.3a195b1e0da82p+2', '0x1.3080c71606af3p+3'),
     "f54b97035ea4845b434b990a822578ea09f9110d0e838760613b5600680cdbe3"),
    ("complex_gaussian", 64, 4, ('0x1.db80f3dee0200p+2', '0x1.d26d05f9a50e3p+2', '0x1.7f65e37f1af28p+2'),
     ('0x1.92dbf6c0fb024p+2', '0x1.b2129a133b296p+2', '0x1.62948c8710257p+3'),
     "5b5d2d458fcd95219cc7088882e9ee7a6389113bf769537cb397264c6b4dc9a2"),
    ("complex_gaussian", 1024, 1, ('0x1.5b91d3ed7a8bdp+3', '0x1.3ad50c1700873p+3', '0x1.226f5b236de07p+3'),
     ('0x1.23f321e741db8p+3', '0x1.0525f07852c57p+3', '0x1.42ba0359989eap+3'),
     "427c10e02f8214a19ded6bb2af7aecce55b91f666875245171f0801724defead"),
    ("complex_gaussian", 1024, 4, ('0x1.5b91d3ed7a8bcp+3', '0x1.591e3cfb3526dp+3', '0x1.9ce59a05173acp+3'),
     ('0x1.3e3987498287cp+3', '0x1.66ad04a393e1fp+3', '0x1.778957f0d86e8p+3'),
     "620e4809eee4857de2a4934dc5007fa4ed453d32ee0eca0238817c3ee31c2d39"),
]


def _digest(pop) -> str:
    h = hashlib.sha256()
    h.update(pop.upapr.astype("<f8").tobytes())
    h.update(pop.lpapr.astype("<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("constellation,n,factor,upapr_hex,lpapr_hex,digest", GOLDEN,
                         ids=[f"{c}-n{n}-f{f}" for c, n, f, *_ in GOLDEN])
def test_population_matches_golden(constellation, n, factor, upapr_hex, lpapr_hex, digest):
    pop = v.sample_papr_population(n, v.Constellation(constellation), COUNT, seed=SEED,
                                   oversample_factor=factor)
    picks = (0, COUNT // 2, COUNT - 1)
    assert tuple(float(pop.upapr[i]).hex() for i in picks) == upapr_hex
    assert tuple(float(pop.lpapr[i]).hex() for i in picks) == lpapr_hex
    assert _digest(pop) == digest
