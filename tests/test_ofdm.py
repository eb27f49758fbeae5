"""Tests for frequency-domain construction, time-domain synthesis, and PAPR stats."""

import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.stats import ks_2samp

import vlcsim as v
from vlcsim.errors import DegenerateSymbolError, HermitianSymmetryError


class TestFreqSymbol:
    def test_smallest_hermitian_symbol(self):
        """N=4 with one data bin mirrors into [0, 1+j, 0, 1-j]."""
        sym = v.FreqSymbol(4, [0, 1 + 1j, 0, 1 - 1j])
        assert_array_equal(sym.bins, np.array([0, 1 + 1j, 0, 1 - 1j]))

    def test_rejects_odd_or_tiny_n(self):
        with pytest.raises(ValueError):
            v.generate_freq_symbol(5, v.Constellation.QPSK, np.random.default_rng(0))
        with pytest.raises(ValueError):
            v.generate_freq_symbol(2, v.Constellation.QPSK, np.random.default_rng(0))

    def test_rejects_nonzero_dc_or_nyquist(self):
        with pytest.raises(HermitianSymmetryError):
            v.FreqSymbol(4, [1, 1 + 1j, 0, 1 - 1j])
        with pytest.raises(HermitianSymmetryError):
            v.FreqSymbol(4, [0, 1 + 1j, 1, 1 - 1j])

    def test_rejects_broken_mirror(self):
        with pytest.raises(HermitianSymmetryError):
            v.FreqSymbol(4, [0, 1 + 1j, 0, 1 + 1j])

    def test_generation_is_deterministic(self):
        a = v.generate_freq_symbol(8, v.Constellation.QPSK, v.symbol_rng(3, 0))
        b = v.generate_freq_symbol(8, v.Constellation.QPSK, v.symbol_rng(3, 0))
        assert_array_equal(a.bins, b.bins)

    @pytest.mark.parametrize("constellation", list(v.Constellation))
    def test_generated_symbols_are_valid(self, constellation):
        for i in range(20):
            sym = v.generate_freq_symbol(64, constellation, v.symbol_rng(9, i))
            v.FreqSymbol(64, sym.bins)

    def test_gaussian_bins_have_unit_average_power(self):
        """Per-bin mean power over 10000 draws stays within 5% of 1."""
        n = 64
        acc = np.zeros(n)
        for i in range(10000):
            sym = v.generate_freq_symbol(n, v.Constellation.COMPLEX_GAUSSIAN, v.symbol_rng(17, i))
            acc += np.abs(sym.bins) ** 2
        mean_power = acc / 10000
        data_bins = np.r_[np.arange(1, n // 2), np.arange(n // 2 + 1, n)]
        assert np.all(np.abs(mean_power[data_bins] - 1.0) < 0.05)


class TestToTimeDomain:
    def test_hand_evaluated_idft(self):
        """bins [0, 1+j, 0, 1-j] at F=1 give [1, -1, -1, 1]."""
        sym = v.FreqSymbol(4, [0, 1 + 1j, 0, 1 - 1j])
        t = v.to_time_domain(sym, 1)
        assert_allclose(t.samples, [1.0, -1.0, -1.0, 1.0], atol=1e-12)
        assert t.sigma_x2 == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("oversample", [1, 4])
    def test_matches_direct_sum_evaluation(self, oversample):
        """Zero-padded IDFT equals the complex-exponential sum on the fine grid.

        Between the original sample instants the upper-half bins act as
        negative frequencies; that is the only continuation that keeps the
        signal real.
        """
        n = 8
        sym = v.generate_freq_symbol(n, v.Constellation.COMPLEX_GAUSSIAN, v.symbol_rng(5, 1))
        t = v.to_time_domain(sym, oversample)
        m = n * oversample
        k = np.arange(n)
        freqs = np.where(k <= n // 2, k, k - n)
        direct = np.array([np.sum(sym.bins * np.exp(2j * np.pi * freqs * idx / m)) / np.sqrt(n)
                           for idx in range(m)])
        assert np.max(np.abs(direct.imag)) < 1e-12
        assert_allclose(t.samples, direct.real, atol=1e-12)

    def test_all_zero_bins_flagged_degenerate(self):
        sym = v.FreqSymbol(8, np.zeros(8, dtype=complex))
        t = v.to_time_domain(sym, 2)
        assert t.sigma_x2 == 0.0
        assert_array_equal(t.samples, np.zeros(16))

    def test_rejects_invalid_oversample(self):
        sym = v.FreqSymbol(4, [0, 1 + 1j, 0, 1 - 1j])
        with pytest.raises(ValueError):
            v.to_time_domain(sym, 0)

    def test_rejects_mutated_bins(self):
        sym = v.generate_freq_symbol(16, v.Constellation.QPSK, v.symbol_rng(1, 1))
        sym.bins[3] = 5.0  # break the mirror behind the constructor's back
        with pytest.raises(HermitianSymmetryError):
            v.to_time_domain(sym, 4)

    def test_peak_estimate_converges_with_oversampling(self):
        """Peaks at F=4 sit close to the F=16 reference over 100 symbols."""
        diffs = []
        for i in range(100):
            sym = v.generate_freq_symbol(64, v.Constellation.QPSK, v.symbol_rng(7, i))
            p4 = np.max(np.abs(v.to_time_domain(sym, 4).samples))
            p16 = np.max(np.abs(v.to_time_domain(sym, 16).samples))
            diffs.append(abs(p4 - p16) / p16)
        diffs = np.array(diffs)
        assert diffs.mean() < 0.02
        assert diffs.max() < 0.05

    @pytest.mark.parametrize("n", [64, 256, 1024, 4096])
    def test_zero_mean_and_parseval(self, n):
        """Time samples are zero mean and carry the spectrum's power."""
        sym = v.generate_freq_symbol(n, v.Constellation.QPSK, v.symbol_rng(11, n))
        t = v.to_time_domain(sym, 4)
        assert abs(float(np.mean(t.samples))) < 1e-9
        freq_power = float(np.sum(np.abs(sym.bins) ** 2) / n)
        assert t.sigma_x2 == pytest.approx(freq_power, rel=1e-9)
        assert np.max(t.samples) > 0 > np.min(t.samples)

    def test_sigma_is_mean_square(self):
        sym = v.generate_freq_symbol(32, v.Constellation.QAM16, v.symbol_rng(2, 2))
        t = v.to_time_domain(sym, 4)
        assert t.sigma_x2 == pytest.approx(float(np.mean(t.samples ** 2)), rel=1e-12)


def _per_symbol_formula(sym, factor):
    """The stand-alone per-symbol synthesis: zero-padded 1-D IFFT, then scale."""
    n = sym.n_subcarriers
    half = n // 2
    m = n * factor
    padded = np.zeros(m, dtype=np.complex128)
    padded[:half] = sym.bins[:half]
    padded[m - half + 1:] = sym.bins[half + 1:]
    samples = np.ascontiguousarray((np.fft.ifft(padded) * (m / np.sqrt(n))).real)
    return samples, float(np.mean(samples ** 2))


class TestOneSynthesisKernel:
    @pytest.mark.parametrize("n,factor", [(4, 1), (6, 3), (64, 4), (1024, 1)])
    @pytest.mark.parametrize("constellation", list(v.Constellation))
    def test_to_time_domain_keeps_the_per_symbol_bits(self, n, factor, constellation):
        """The one-row kernel equals the per-symbol formula bit for bit, signed zeros too."""
        for i in range(8):
            sym = v.generate_freq_symbol(n, constellation, v.symbol_rng(12345, i))
            samples, sigma_x2 = _per_symbol_formula(sym, factor)
            t = v.to_time_domain(sym, factor)
            assert t.samples.tobytes() == samples.tobytes()
            assert np.float64(t.sigma_x2).tobytes() == np.float64(sigma_x2).tobytes()
            assert type(t.sigma_x2) is float and t.samples.flags.c_contiguous

    @pytest.mark.parametrize("factor", [1, 4])
    @pytest.mark.parametrize("index", [0, 8])
    def test_to_time_domain_rejects_a_mutated_dc_or_nyquist_bin(self, factor, index):
        sym = v.generate_freq_symbol(16, v.Constellation.QPSK, v.symbol_rng(1, 1))
        sym.bins[index] = 1.0  # behind the constructor's back
        with pytest.raises(HermitianSymmetryError, match="DC and Nyquist"):
            v.to_time_domain(sym, factor)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_kernel_rejects_an_imaginary_residual_of_either_sign(self, monkeypatch, sign):
        """A constant imaginary part of either sign, past the Hermitian check, is caught."""
        monkeypatch.setattr(v.ofdm, "_check_hermitian", lambda rows, half: None)
        blk = np.array([[sign * 1e-3j, 1, 0, 1]])
        with pytest.raises(HermitianSymmetryError, match="imaginary residual 5.000e-04 "):
            v.ofdm._synthesize(blk, 4, np.empty((1, 4)))

    def test_sampler_message_for_a_broken_block_names_the_mirror(self, monkeypatch):
        """A NaN data bin fails the kernel's Hermitian check, as in FreqSymbol.validate."""
        monkeypatch.setattr(v.ofdm, "_draw_rows",
                            lambda constellation, states, out: out.fill(np.nan))
        monkeypatch.setattr(v.ofdm, "_check_reference", lambda *args: None)
        with pytest.raises(HermitianSymmetryError, match="not Hermitian symmetric"):
            v.sample_papr_population(16, v.Constellation.QPSK, 3, seed=1)


class TestPaprOf:
    def test_two_level_signal(self):
        t = v.TimeSymbol(samples=np.array([1.0, -1.0, -1.0, 1.0]), oversample_factor=1,
                         sigma_x2=1.0)
        p = v.papr_of(t)
        assert p.upapr == pytest.approx(1.0)
        assert p.lpapr == pytest.approx(1.0)

    def test_asymmetric_signal(self):
        """samples [3,-1,-1,-1]: var 3, UPAPR 3, LPAPR 1/3."""
        samples = np.array([3.0, -1.0, -1.0, -1.0])
        t = v.TimeSymbol(samples=samples, oversample_factor=1,
                         sigma_x2=float(np.mean(samples ** 2)))
        p = v.papr_of(t)
        assert p.upapr == pytest.approx(3.0, rel=1e-12)
        assert p.lpapr == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_degenerate_symbol_rejected(self):
        t = v.TimeSymbol(samples=np.zeros(8), oversample_factor=1, sigma_x2=0.0)
        with pytest.raises(DegenerateSymbolError):
            v.papr_of(t)

    def test_mean_upapr_grows_with_subcarriers(self, pop64, pop1024):
        assert pop64.upapr.mean() < pop1024.upapr.mean()


class TestSamplePaprPopulation:
    def test_single_sample_equals_composition(self):
        pop = v.sample_papr_population(64, v.Constellation.QPSK, 1, seed=31)
        sym = v.generate_freq_symbol(64, v.Constellation.QPSK, v.symbol_rng(31, 0))
        direct = v.papr_of(v.to_time_domain(sym, 4))
        assert pop.upapr[0] == direct.upapr
        assert pop.lpapr[0] == direct.lpapr

    def test_population_is_bit_reproducible(self):
        a = v.sample_papr_population(64, v.Constellation.QAM16, 50, seed=8)
        b = v.sample_papr_population(64, v.Constellation.QAM16, 50, seed=8)
        assert_array_equal(a.upapr, b.upapr)
        assert_array_equal(a.lpapr, b.lpapr)

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            v.sample_papr_population(64, v.Constellation.QPSK, 0, seed=1)

    def test_indexing_and_iteration(self):
        pop = v.sample_papr_population(16, v.Constellation.QPSK, 5, seed=2)
        assert len(pop) == 5

    def test_upapr_distribution_ignores_constellation(self, pop64, pop64_qam16):
        """QPSK and 16-QAM populations agree in distribution (KS <= 0.05)."""
        stat = ks_2samp(pop64.upapr, pop64_qam16.upapr).statistic
        assert stat <= 0.05


def _reference_population(n, constellation, count, seed, factor):
    samples = [v.papr_of(v.to_time_domain(
                   v.generate_freq_symbol(n, constellation, v.symbol_rng(seed, i)), factor))
               for i in range(count)]
    return np.array([s.upapr for s in samples]), np.array([s.lpapr for s in samples])


class TestBatchedSampler:
    @pytest.mark.parametrize("n,factor", [(4, 1), (6, 3), (64, 4), (1024, 1)])
    @pytest.mark.parametrize("constellation", list(v.Constellation))
    def test_matches_per_symbol_reference_around_block_edges(self, n, factor, constellation):
        """Counts block-1, block and block+1 equal the per-symbol path bit for bit."""
        block = max(1, v.ofdm._BLOCK_BYTES // (16 * n * factor))
        ref_u, ref_l = _reference_population(n, constellation, block + 1, 31, factor)
        for count in (block - 1, block, block + 1):
            if count < 1:
                continue
            pop = v.sample_papr_population(n, constellation, count, seed=31,
                                           oversample_factor=factor)
            assert_array_equal(pop.upapr, ref_u[:count])
            assert_array_equal(pop.lpapr, ref_l[:count])

    def test_zero_symbol_raises_degenerate(self, monkeypatch):
        monkeypatch.setattr(v.ofdm, "_draw_rows",
                            lambda constellation, states, out: out.fill(0))
        monkeypatch.setattr(v.ofdm, "_check_reference", lambda *args: None)
        with pytest.raises(DegenerateSymbolError):
            v.sample_papr_population(64, v.Constellation.QPSK, 3, seed=1)

    def test_workers_start_no_threads(self, monkeypatch):
        def refuse(self):
            raise AssertionError("sampler started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        pop = v.sample_papr_population(64, v.Constellation.QPSK, 20, seed=13)
        assert len(pop) == 20

    @pytest.mark.parametrize("kwargs", [dict(n_subcarriers=5), dict(n_subcarriers=2),
                                        dict(oversample_factor=0)])
    def test_rejects_bad_geometry(self, kwargs):
        args = dict(n_subcarriers=64, constellation=v.Constellation.QPSK, count=3, seed=1,
                    oversample_factor=4)
        args.update(kwargs)
        with pytest.raises(ValueError):
            v.sample_papr_population(**args)


def _numpy_seed_states(seed, start, stop):
    return np.array([np.random.SeedSequence([seed, i]).generate_state(4, np.uint64)
                     for i in range(start, stop)])


class TestBatchedSeeding:
    @pytest.mark.parametrize("seed", [0, 1, 12345, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 70])
    @pytest.mark.parametrize("start,stop", [(0, 5), (2 ** 32 - 3, 2 ** 32 + 3),
                                            (2 ** 64 - 3, 2 ** 64)])
    def test_states_equal_seed_sequence(self, seed, start, stop):
        """One row per index, bit-equal to SeedSequence([seed, i]), across word-count edges."""
        states = v.ofdm._seed_states(seed, start, stop)
        assert states.dtype == np.uint64
        assert_array_equal(states, _numpy_seed_states(seed, start, stop))

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError):
            v.ofdm._seed_states(-1, 0, 3)
        with pytest.raises(ValueError):
            v.sample_papr_population(16, v.Constellation.QPSK, 3, seed=-1)

    @pytest.mark.parametrize("n,factor", [(6, 3), (64, 4)])
    @pytest.mark.parametrize("constellation", list(v.Constellation))
    def test_matches_per_symbol_reference_around_chunk_edges(self, n, factor, constellation):
        """Counts chunk-1, chunk and chunk+1 equal the per-symbol path bit for bit."""
        chunk = v.ofdm._SEED_CHUNK
        ref_u, ref_l = _reference_population(n, constellation, chunk + 1, 2 ** 40 + 7, factor)
        for count in (chunk - 1, chunk, chunk + 1):
            pop = v.sample_papr_population(n, constellation, count, seed=2 ** 40 + 7,
                                           oversample_factor=factor)
            assert_array_equal(pop.upapr, ref_u[:count])
            assert_array_equal(pop.lpapr, ref_l[:count])

    def test_sampler_builds_no_per_symbol_seed_sequence(self, monkeypatch):
        """symbol_rng seeds only the canary's reference, at each chunk's first index."""
        count = v.ofdm._SEED_CHUNK + 3
        ref_u, ref_l = _reference_population(16, v.Constellation.QAM16, count, 5, 2)
        default_rng = np.random.default_rng
        seeded = []

        def chunk_starts_only(seed, index):
            seeded.append(index)
            return default_rng([seed, index])

        def refuse(*args, **kwargs):
            raise AssertionError("sampler seeded a symbol one at a time")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(v.ofdm, "symbol_rng", chunk_starts_only)
        pop = v.sample_papr_population(16, v.Constellation.QAM16, count, seed=5,
                                       oversample_factor=2)
        assert_array_equal(pop.upapr, ref_u)
        assert_array_equal(pop.lpapr, ref_l)
        assert seeded == [0, v.ofdm._SEED_CHUNK]

    @pytest.mark.parametrize("constellation", list(v.Constellation))
    def test_canary_rejects_a_corrupted_state_row(self, monkeypatch, constellation):
        seed_states = v.ofdm._seed_states

        def corrupted(seed, start, stop):
            states = seed_states(seed, start, stop)
            states[0, 2] ^= np.uint64(1)
            return states

        monkeypatch.setattr(v.ofdm, "_seed_states", corrupted)
        with pytest.raises(RuntimeError, match="SeedSequence"):
            v.sample_papr_population(16, constellation, 3, seed=1)

    def test_precomputed_seed_serves_only_pcg64(self):
        state = v.ofdm._seed_states(3, 0, 1)[0]
        seed_seq = v.ofdm._seed_state_type()(state)
        assert seed_seq.generate_state(4, np.uint64) is state
        with pytest.raises(ValueError):
            seed_seq.generate_state(8, np.uint32)


INDEXED = [v.Constellation.QPSK, v.Constellation.QAM16]


def _reference_draws(constellation, size, seed, count):
    return np.array([v.ofdm._draw_constellation(constellation, size, v.symbol_rng(seed, i))
                     for i in range(count)])


class TestRawWordDraws:
    """QPSK and 16-QAM points from PCG64.random_raw equal Generator.integers' draws."""

    @pytest.mark.parametrize("constellation", INDEXED)
    @pytest.mark.parametrize("seed", [0, 12345, 2 ** 64 - 1])
    @pytest.mark.parametrize("size", [1, 2, 31, 511])
    def test_block_and_one_row_draws_equal_the_reference(self, constellation, seed, size):
        """Whole-chunk, odd-sized and one-row blocks, counts around the chunk edge."""
        chunk = v.ofdm._SEED_CHUNK
        ref = _reference_draws(constellation, size, seed, chunk + 1)
        for count in (chunk - 1, chunk, chunk + 1):
            for rows in (chunk, 7, 1):
                out = np.empty((count, size), dtype=np.complex128)
                for start, states in v.ofdm._state_blocks(seed, count, rows):
                    v.ofdm._draw_rows(constellation, states, out[start:start + len(states)])
                assert_array_equal(out, ref[:count])

    @pytest.mark.parametrize("constellation", INDEXED)
    @pytest.mark.parametrize("seed", [0, 12345, 2 ** 64 - 1])
    @pytest.mark.parametrize("n", [4, 6, 64, 1024])
    def test_sampler_draws_equal_the_reference(self, monkeypatch, constellation, seed, n):
        count = v.ofdm._SEED_CHUNK + 1
        drawn = []
        draw_rows = v.ofdm._draw_rows

        def record(constellation, states, out):
            draw_rows(constellation, states, out)
            drawn.append(out.copy())  # blocks arrive in index order

        monkeypatch.setattr(v.ofdm, "_draw_rows", record)
        v.sample_papr_population(n, constellation, count, seed, oversample_factor=1)
        assert_array_equal(np.concatenate(drawn),
                           _reference_draws(constellation, n // 2 - 1, seed, count))

    @pytest.mark.parametrize("constellation", INDEXED)
    @pytest.mark.parametrize("chunk_index", [0, 1])
    def test_canary_checks_the_first_row_of_every_chunk(self, monkeypatch, constellation,
                                                        chunk_index):
        """A reference that differs for one chunk's first row raises, naming its index."""
        draw_constellation = v.ofdm._draw_constellation
        calls = []

        def one_call_differs(constellation, size, rng):
            calls.append(size)
            points = draw_constellation(constellation, size, rng)
            return -points if len(calls) == chunk_index + 1 else points

        monkeypatch.setattr(v.ofdm, "_draw_constellation", one_call_differs)
        chunk = v.ofdm._SEED_CHUNK
        with pytest.raises(RuntimeError,
                           match=f"numpy.random.Generator at index {chunk_index * chunk} "):
            v.sample_papr_population(16, constellation, chunk + 1, seed=1)
        assert calls == [7] * (chunk_index + 1)

    @pytest.mark.parametrize("constellation", list(v.Constellation))
    def test_canary_checks_every_constellation(self, monkeypatch, constellation):
        """The one canary gets the first drawn row of every chunk, whatever the constellation."""
        checked = []
        monkeypatch.setattr(v.ofdm, "_check_reference",
                            lambda constellation, seed, start, row: checked.append(start))
        v.sample_papr_population(16, constellation, v.ofdm._SEED_CHUNK + 1, seed=1)
        assert checked == [0, v.ofdm._SEED_CHUNK]


class TestSizeChecks:
    """Every entry point rejects a bad N or F with the same type and message."""

    N_MESSAGE = "n_subcarriers must be even and >= 4, got {}"
    F_MESSAGE = "oversample_factor must be >= 1, got {}"

    @pytest.mark.parametrize("n", [2, 5, -4])
    def test_subcarrier_count(self, n):
        rng = v.symbol_rng(1, 0)
        calls = [lambda: v.FreqSymbol(n, np.zeros(max(n, 0), dtype=complex)),
                 lambda: v.generate_freq_symbol(n, v.Constellation.QPSK, rng),
                 lambda: v.sample_papr_population(n, v.Constellation.QPSK, 3, seed=1)]
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == self.N_MESSAGE.format(n)

    @pytest.mark.parametrize("factor", [0, -1])
    def test_oversample_factor(self, factor):
        sym = v.FreqSymbol(4, [0, 1 + 1j, 0, 1 - 1j])
        for call in (lambda: v.to_time_domain(sym, factor),
                     lambda: v.sample_papr_population(64, v.Constellation.QPSK, 3, seed=1,
                                                      oversample_factor=factor)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == self.F_MESSAGE.format(factor)

    def test_sampler_checks_the_factor_before_the_count_of_subcarriers(self):
        with pytest.raises(ValueError, match="oversample_factor"):
            v.sample_papr_population(5, v.Constellation.QPSK, 3, seed=1, oversample_factor=0)
