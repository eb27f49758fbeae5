"""Shared seeded populations and symbol sets (built once per session)."""

import numpy as np
import pytest

import vlcsim as v

POP_SEED = 2024
QAM_SEED = 2025
SYMBOL_SEED = 42
POP_COUNT = 10000


@pytest.fixture(scope="session")
def pop64():
    return v.sample_papr_population(64, v.Constellation.QPSK, POP_COUNT, seed=POP_SEED)


@pytest.fixture(scope="session")
def pop256():
    return v.sample_papr_population(256, v.Constellation.QPSK, POP_COUNT, seed=POP_SEED)


@pytest.fixture(scope="session")
def pop1024():
    return v.sample_papr_population(1024, v.Constellation.QPSK, POP_COUNT, seed=POP_SEED)


@pytest.fixture(scope="session")
def pop64_qam16():
    return v.sample_papr_population(64, v.Constellation.QAM16, POP_COUNT, seed=QAM_SEED)


@pytest.fixture(scope="session")
def symbols64():
    """1000 seeded N=64, F=4 time-domain symbols, one per row."""
    return np.array([v.to_time_domain(
                         v.generate_freq_symbol(64, v.Constellation.QPSK,
                                                v.symbol_rng(SYMBOL_SEED, i)), 4)
                     for i in range(1000)])
