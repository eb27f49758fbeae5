"""Tests for frequency-domain construction, time-domain synthesis, and PAPR stats."""

import threading
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.stats import binom

import vlcsim as v
from vlcsim.errors import DegenerateSymbolError, HermitianSymmetryError


SMALLEST = [0, 1 + 1j, 0, 1 - 1j]  # N = 4 with one data bin and its mirror


class TestFreqSymbol:
    """generate_freq_symbol's bins; to_time_domain's kernel is their one check."""

    def test_smallest_hermitian_symbol(self):
        """N=4 has one data bin, mirrored into [0, b, 0, conj(b)]."""
        bins = v.generate_freq_symbol(4, v.Constellation.QPSK, v.symbol_rng(3, 0))
        assert_array_equal(bins, [0, bins[1], 0, np.conj(bins[1])])
        assert abs(bins[1]) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("constellation", list(v.Constellation))
    def test_generated_symbols_are_valid(self, constellation):
        """N complex bins: DC and Nyquist zero, bins above N/2 the mirror of those below."""
        for n in (4, 64):
            for i in range(20):
                bins = v.generate_freq_symbol(n, constellation, v.symbol_rng(9, i))
                assert bins.dtype == np.complex128 and bins.shape == (n,)
                assert bins[0] == 0 and bins[n // 2] == 0
                assert_array_equal(bins[n // 2 + 1:], np.conj(bins[n // 2 - 1:0:-1]))

    def test_gaussian_bins_have_unit_average_power(self):
        """Per-bin mean power over 10000 draws stays within 5% of 1."""
        n = 64
        acc = np.zeros(n)
        for i in range(10000):
            bins = v.generate_freq_symbol(n, v.Constellation.COMPLEX_GAUSSIAN, v.symbol_rng(17, i))
            acc += np.abs(bins) ** 2
        mean_power = acc / 10000
        data_bins = np.r_[np.arange(1, n // 2), np.arange(n // 2 + 1, n)]
        assert np.all(np.abs(mean_power[data_bins] - 1.0) < 0.05)


class TestToTimeDomain:
    def test_hand_evaluated_idft(self):
        """bins [0, 1+j, 0, 1-j] at F=1 give [1, -1, -1, 1]."""
        x = v.to_time_domain(SMALLEST, 1)
        assert_allclose(x, [1.0, -1.0, -1.0, 1.0], atol=1e-12)
        assert np.mean(np.square(x)) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("oversample", [1, 4])
    def test_matches_direct_sum_evaluation(self, oversample):
        """Zero-padded IDFT equals the complex-exponential sum on the fine grid.

        Between the original sample instants the upper-half bins act as
        negative frequencies; that is the only continuation that keeps the
        signal real.
        """
        n = 8
        bins = v.generate_freq_symbol(n, v.Constellation.COMPLEX_GAUSSIAN, v.symbol_rng(5, 1))
        x = v.to_time_domain(bins, oversample)
        m = n * oversample
        k = np.arange(n)
        freqs = np.where(k <= n // 2, k, k - n)
        direct = np.array([np.sum(bins * np.exp(2j * np.pi * freqs * idx / m)) / np.sqrt(n)
                           for idx in range(m)])
        assert np.max(np.abs(direct.imag)) < 1e-12
        assert_allclose(x, direct.real, atol=1e-12)

    def test_all_zero_bins_flagged_degenerate(self):
        x = v.to_time_domain(np.zeros(8, dtype=complex), 2)
        assert_array_equal(x, np.zeros(16))
        with pytest.raises(DegenerateSymbolError):
            v.papr_of(x)

    def test_peak_estimate_converges_with_oversampling(self):
        """Peaks at F=4 sit close to the F=16 reference over 100 symbols."""
        diffs = []
        for i in range(100):
            bins = v.generate_freq_symbol(64, v.Constellation.QPSK, v.symbol_rng(7, i))
            p4 = np.max(np.abs(v.to_time_domain(bins, 4)))
            p16 = np.max(np.abs(v.to_time_domain(bins, 16)))
            diffs.append(abs(p4 - p16) / p16)
        diffs = np.array(diffs)
        assert diffs.mean() < 0.02
        assert diffs.max() < 0.05

    @pytest.mark.parametrize("n", [64, 256, 1024, 4096])
    def test_zero_mean_and_parseval(self, n):
        """Time samples are zero mean and carry the spectrum's power."""
        bins = v.generate_freq_symbol(n, v.Constellation.QPSK, v.symbol_rng(11, n))
        x = v.to_time_domain(bins, 4)
        assert abs(float(np.mean(x))) < 1e-9
        freq_power = float(np.sum(np.abs(bins) ** 2) / n)
        assert np.mean(np.square(x)) == pytest.approx(freq_power, rel=1e-9)
        assert np.max(x) > 0 > np.min(x)

    def test_sigma_is_mean_square(self):
        """The real N*F samples, any sequence of bins; papr_of divides by their mean square."""
        bins = v.generate_freq_symbol(32, v.Constellation.QAM16, v.symbol_rng(2, 2))
        x = v.to_time_domain(list(bins), 4)
        assert x.dtype == np.float64 and x.shape == (128,) and x.flags.c_contiguous
        assert_array_equal(x, v.to_time_domain(bins, 4))
        sigma_x2 = np.mean(np.square(x))
        assert v.papr_of(x) == (x.max() ** 2 / sigma_x2, x.min() ** 2 / sigma_x2)


def _per_symbol_formula(bins, factor):
    """The stand-alone per-symbol synthesis: zero-padded 1-D IFFT, then scale."""
    n = len(bins)
    half = n // 2
    m = n * factor
    padded = np.zeros(m, dtype=np.complex128)
    padded[:half] = bins[:half]
    padded[m - half + 1:] = bins[half + 1:]
    samples = np.ascontiguousarray((np.fft.ifft(padded) * (m / np.sqrt(n))).real)
    return samples, float(np.mean(samples ** 2))


def mutated(index, value):
    """Seeded N = 16 QPSK bins with one bin overwritten."""
    bins = v.generate_freq_symbol(16, v.Constellation.QPSK, v.symbol_rng(1, 1))
    bins[index] = value
    return bins


class TestOneSynthesisKernel:
    # sizes whose QPSK and 16-QAM symbols below hold samples that are exactly 0.0
    WITH_ZEROS = [(4, 2), (6, 2)]

    @pytest.mark.parametrize("n,factor", [(4, 1), (6, 3), (64, 4), (1024, 1), *WITH_ZEROS])
    @pytest.mark.parametrize("constellation", list(v.Constellation))
    def test_to_time_domain_keeps_the_per_symbol_bits(self, n, factor, constellation):
        """The one-row kernel equals the per-symbol formula bit for bit, signed zeros too,
        and papr_of reduces it over the formula's mean square."""
        zeros = 0
        for i in range(8):
            bins = v.generate_freq_symbol(n, constellation, v.symbol_rng(12345, i))
            samples, sigma_x2 = _per_symbol_formula(bins, factor)
            x = v.to_time_domain(bins, factor)
            assert x.tobytes() == samples.tobytes() and x.flags.c_contiguous
            upapr, lpapr = v.papr_of(x)
            assert type(upapr) is float and type(lpapr) is float
            assert (upapr, lpapr) == (samples.max() ** 2 / sigma_x2, samples.min() ** 2 / sigma_x2)
            zeros += np.count_nonzero(x == 0.0)
        if (n, factor) in self.WITH_ZEROS and constellation is not v.Constellation.COMPLEX_GAUSSIAN:
            assert zeros > 0  # so the comparison covers the sign of a zero

    @pytest.mark.parametrize("factor", [1, 4])
    @pytest.mark.parametrize("bins, message", [
        ([1, 1 + 1j, 0, 1 - 1j], "DC and Nyquist"), ([0, 1 + 1j, 1, 1 - 1j], "DC and Nyquist"),
        ([0, 1 + 1j, 0, 1 + 1j], "not Hermitian symmetric"),
        # an infinite bin equals its own conjugate mirror, and its NaN residual compares False
        ([0, np.inf, 0, np.inf], "bins must be finite"),
        ([0, complex(np.inf, 1), 0, complex(np.inf, -1)], "bins must be finite"),
        ([0, np.nan, 0, np.nan], "bins must be finite"),
        (mutated(0, 1.0), "DC and Nyquist"), (mutated(8, 1.0), "DC and Nyquist"),
        (mutated(3, 5.0), "not Hermitian symmetric")],
        ids=["dc", "nyquist", "mirror", "inf", "inf-real-part", "nan", "dc-n16", "nyquist-n16",
             "mirror-n16"])
    def test_to_time_domain_rejects_bins_the_kernel_cannot_synthesize(self, factor, bins,
                                                                      message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before the IFFT, so without a warning
            with pytest.raises(HermitianSymmetryError, match=message):
                v.to_time_domain(bins, factor)

    @pytest.mark.parametrize("factor", [1, 4])
    @pytest.mark.parametrize("k", [-990, 990])
    def test_to_time_domain_commutes_with_a_power_of_two(self, k, factor):
        """Scaled bins give the scaled samples bit for bit: at 2**-990 the old imaginary-residual
        check rejected them, and at 2**990 a mean square overflowed with a warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for constellation in v.Constellation:
                bins = v.generate_freq_symbol(16, constellation, v.symbol_rng(1, 1))
                x = v.to_time_domain(bins * 2.0 ** k, factor)
                assert x.tobytes() == (v.to_time_domain(bins, factor) * 2.0 ** k).tobytes()

    def test_sampler_message_for_a_broken_block_names_the_mirror(self, monkeypatch):
        """A NaN data bin fails the kernel's Hermitian check: the sampler checks no finiteness."""
        monkeypatch.setattr(v.ofdm, "_draw_rows",
                            lambda constellation, states, out: out.fill(np.nan))
        monkeypatch.setattr(v.ofdm, "_check_reference", lambda *args: None)
        with pytest.raises(HermitianSymmetryError, match="not Hermitian symmetric"):
            v.sample_papr_population(16, v.Constellation.QPSK, 3, seed=1)


class TestPaprOf:
    @pytest.mark.parametrize("samples, pair", [
        ([1.0, -1.0, -1.0, 1.0], (1.0, 1.0)), ([3.0, -1.0, -1.0, -1.0], (3.0, 1.0 / 3.0))])
    def test_hand_evaluated_pairs(self, samples, pair):
        """[3, -1, -1, -1] has mean square 3: UPAPR 9/3 and LPAPR 1/3."""
        assert v.papr_of(np.array(samples)) == pair

    @pytest.mark.parametrize("samples, error, message", [
        (np.zeros(8), DegenerateSymbolError, "all-zero symbol has no PAPR"),
        # a NaN sample gave NaN PAPRs and an infinite one NaN and 0.0, with a warning
        *((samples, ValueError, "samples must be finite")
          for samples in ([np.nan, 1.0, -1.0], [np.inf, -1.0], [1.0, -np.inf]))])
    def test_rejects_a_symbol_without_a_papr(self, samples, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            v.papr_of(samples)

    @pytest.mark.parametrize("k", [-600, -520, 520, 600])
    @pytest.mark.parametrize("constellation", list(v.Constellation))
    def test_pair_does_not_depend_on_scale(self, constellation, k):
        """Samples scaled by 2**k give the same pair bit for bit: squared unscaled, they
        overflowed to NaN PAPRs, underflowed to an all-zero symbol or lost their last bits."""
        for i in range(4):
            x = v.to_time_domain(v.generate_freq_symbol(16, constellation, v.symbol_rng(1, i)), 4)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert v.papr_of(np.ldexp(x, k)) == v.papr_of(x)

    def test_mean_upapr_grows_with_subcarriers(self, pop64, pop1024):
        assert pop64.upapr.mean() < pop1024.upapr.mean()


class TestExchangeability:
    """Negating a symbol keeps its law and swaps its UPAPR and LPAPR, so among the symbols
    with U != L the count of U > L is Binomial(n, 1/2): a fact of every NumPy's stream."""

    ALPHA = 1e-3  # two-sided; four populations

    @pytest.mark.parametrize("population", ["pop64", "pop64_qam16", "pop1024", "gaussian64"])
    def test_upapr_exceeds_lpapr_half_the_time(self, request, population):
        if population == "gaussian64":
            pop = v.sample_papr_population(64, v.Constellation.COMPLEX_GAUSSIAN, 10000, seed=7)
        else:
            pop = request.getfixturevalue(population)
        n = int(np.count_nonzero(pop.upapr != pop.lpapr))
        above = int(np.count_nonzero(pop.upapr > pop.lpapr))
        assert n >= 9900
        low, high = binom.ppf(self.ALPHA / 2, n, 0.5), binom.isf(self.ALPHA / 2, n, 0.5)
        assert low <= above <= high, (above, n)


class TestSamplePaprPopulation:
    @pytest.mark.parametrize("constellation", list(v.Constellation))
    def test_a_name_draws_as_its_member(self, constellation):
        """A plain string is converted before any draw: the population carries the member."""
        by_name = v.sample_papr_population(16, constellation.value, 600, seed=1)
        member = v.sample_papr_population(16, constellation, 600, seed=1)
        assert by_name.constellation is constellation
        assert by_name.upapr.tobytes() == member.upapr.tobytes()
        assert by_name.lpapr.tobytes() == member.lpapr.tobytes()
        assert_array_equal(v.generate_freq_symbol(16, constellation.value, v.symbol_rng(1, 0)),
                           v.generate_freq_symbol(16, constellation, v.symbol_rng(1, 0)))
        with pytest.raises(ValueError, match="'bpsk' is not a valid Constellation"):
            v.sample_papr_population(16, "bpsk", 3, seed=1)


def _reference_population(n, constellation, count, seed, factor):
    pairs = [v.papr_of(v.to_time_domain(
                 v.generate_freq_symbol(n, constellation, v.symbol_rng(seed, i)), factor))
             for i in range(count)]
    return tuple(np.array(pairs).T)


# (edge, N, F, constellation, seed): counts edge - 1, edge and edge + 1 around one symbol,
# a sampler block and a seed chunk, the chunks' under a seed of three 32-bit words
EDGES = [("one", 64, 4, v.Constellation.QPSK, 31),
         *(("block", n, factor, constellation, 31)
           for n, factor in [(4, 1), (6, 3), (64, 4), (1024, 1)]
           for constellation in v.Constellation),
         *(("chunk", n, factor, constellation, 2 ** 40 + 7) for n, factor in [(6, 3), (64, 4)]
           for constellation in v.Constellation)]


class TestBatchedSampler:
    @pytest.mark.parametrize("edge, n, factor, constellation, seed", EDGES)
    def test_matches_per_symbol_reference_around_edges(self, edge, n, factor, constellation,
                                                       seed):
        """The pair at index i is papr_of(to_time_domain(generate_freq_symbol(...)))."""
        size = {"one": 1, "block": max(1, v.ofdm._BLOCK_BYTES // (16 * n * factor)),
                "chunk": v.ofdm._SEED_CHUNK}[edge]
        ref_u, ref_l = _reference_population(n, constellation, size + 1, seed, factor)
        for count in sorted({max(size - 1, 1), size, size + 1}):
            pop = v.sample_papr_population(n, constellation, count, seed=seed,
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

class TestSampledRows:
    """The sampler's samples= rows are the one-row synthesis of symbol_rng's draws."""

    @pytest.mark.parametrize("n,factor", [(4, 1), (64, 4)])
    @pytest.mark.parametrize("constellation", list(v.Constellation))
    def test_rows_equal_one_row_synthesis(self, n, factor, constellation):
        count = v.ofdm._SEED_CHUNK + 1  # crosses a seed chunk
        rows = np.empty((count, n * factor))
        v.sample_papr_population(n, constellation, count, 7, factor, samples=rows)
        ref = np.array([v.to_time_domain(v.generate_freq_symbol(n, constellation,
                                                                v.symbol_rng(7, i)), factor)
                        for i in range(count)])
        assert_array_equal(rows.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("constellation", list(v.Constellation))
    def test_population_is_the_same_with_rows(self, constellation):
        count = v.ofdm._SEED_CHUNK + 1
        plain = v.sample_papr_population(16, constellation, count, 3, 2)
        with_rows = v.sample_papr_population(16, constellation, count, 3, 2,
                                             samples=np.empty((count, 32)))
        assert_array_equal(with_rows.upapr.view(np.uint64), plain.upapr.view(np.uint64))
        assert_array_equal(with_rows.lpapr.view(np.uint64), plain.lpapr.view(np.uint64))

    @pytest.mark.parametrize("samples", [
        np.empty((5, 32)), np.empty((4, 16)), np.empty((4, 32), dtype=np.float32),
        np.empty((4, 32), dtype=np.complex128), np.empty((4, 64))[:, ::2],
        np.empty((32, 4)).T, np.empty((4, 32)).tolist()],
        ids=["rows", "columns", "float32", "complex", "strided", "fortran", "list"])
    def test_rejects_bad_rows_before_any_draw(self, monkeypatch, samples):
        def refuse(*args, **kwargs):
            raise AssertionError("sampler drew before checking samples")

        monkeypatch.setattr(v.ofdm, "symbol_rng", refuse)
        monkeypatch.setattr(v.ofdm, "_draw_rows", refuse)
        with pytest.raises(ValueError, match=r"samples must be .* of shape \(4, 32\)"):
            v.sample_papr_population(16, v.Constellation.QPSK, 4, 1, 2, samples=samples)

    def test_rejects_read_only_rows(self):
        rows = np.empty((4, 32))
        rows.setflags(write=False)
        with pytest.raises(ValueError):
            v.sample_papr_population(16, v.Constellation.QPSK, 4, 1, 2, samples=rows)


def _numpy_seed_states(seed, start, stop):
    return np.array([np.random.SeedSequence([seed, i]).generate_state(4, np.uint64)
                     for i in range(start, stop)])


class TestBatchedSeeding:
    @pytest.mark.parametrize("seed", [0, 1, 12345, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1])
    @pytest.mark.parametrize("start,stop", [(0, 5), (2 ** 32 - 3, 2 ** 32 + 3),
                                            (2 ** 64 - 3, 2 ** 64)])
    def test_states_equal_seed_sequence(self, seed, start, stop):
        """One row per index, bit-equal to SeedSequence([seed, i]), across word-count edges."""
        states = v.ofdm._seed_states(seed, start, stop)
        assert states.dtype == np.uint64
        assert_array_equal(states, _numpy_seed_states(seed, start, stop))

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 70])
    def test_seed_outside_u64_raises_before_any_draw(self, monkeypatch, seed):
        """SeedSequence would take three words from a seed of 2**64 or more, more than its
        pool fits beside an index's two; the sampler rejects it before its first draw."""
        def refuse(*args):
            raise AssertionError("a rejected seed drew symbols")

        monkeypatch.setattr(v.ofdm, "_draw_rows", refuse)
        for sample in (lambda: v.ofdm._seed_states(seed, 0, 3),
                       lambda: v.sample_papr_population(16, v.Constellation.QPSK, 3, seed)):
            with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
                sample()

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


N_MESSAGE = "n_subcarriers must be even and >= 4, got {}"
F_MESSAGE = "oversample_factor must be >= 1, got {}"
QPSK = v.Constellation.QPSK
# every entry point rejects a bad N or F with the same type and message, the sampler the
# factor first; the per-symbol functions take one symbol, rows are the sampler's
SIZE_ERRORS = {
    **{f"freq-n{n}": (lambda n=n: v.generate_freq_symbol(n, QPSK, v.symbol_rng(1, 0)),
                      N_MESSAGE.format(n)) for n in (2, 5, -4)},
    **{f"sampler-n{n}": (lambda n=n: v.sample_papr_population(n, QPSK, 3, seed=1),
                         N_MESSAGE.format(n)) for n in (2, 5, -4)},
    **{f"time-n{n}": (lambda n=n: v.to_time_domain(np.zeros(n, dtype=complex), 1),
                      N_MESSAGE.format(n)) for n in (2, 5)},
    **{f"time-f{f}": (lambda f=f: v.to_time_domain(SMALLEST, f), F_MESSAGE.format(f))
       for f in (0, -1)},
    **{f"sampler-f{f}": (lambda f=f: v.sample_papr_population(64, QPSK, 3, seed=1,
                                                              oversample_factor=f),
                         F_MESSAGE.format(f)) for f in (0, -1)},
    "sampler-f-before-n": (lambda: v.sample_papr_population(5, QPSK, 3, 1, oversample_factor=0),
                           F_MESSAGE.format(0)),
    "sampler-count": (lambda: v.sample_papr_population(64, QPSK, 0, seed=1),
                      "count must be >= 1, got 0"),
    "time-rows": (lambda: v.to_time_domain(np.zeros((2, 4), dtype=complex), 1),
                  "bins must be one-dimensional, got shape (2, 4)"),
    "papr-rows": (lambda: v.papr_of(np.ones((2, 4))),
                  "samples must be one-dimensional, got shape (2, 4)"),
}


@pytest.mark.parametrize("name", SIZE_ERRORS)
def test_bad_size_is_rejected(name):
    call, message = SIZE_ERRORS[name]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
