"""DCO-OFDM symbol synthesis and peak-to-average power statistics.

Symbols are built in the frequency domain with null DC/Nyquist bins and
Hermitian symmetry, transformed to a real oversampled time-domain signal,
and reduced to per-symbol (UPAPR, LPAPR) pairs. One synthesis kernel does
the Hermitian check, the inverse FFT and the residual check for a block of
symbols: the population sampler runs it on fixed-size blocks, and
to_time_domain on a one-row block. Symbols are seeded per index, so results
never depend on block size; symbol_rngs seeds them in chunks with one
vectorized SeedSequence pass each. The sampler draws a block's QPSK and
16-QAM points from PCG64.random_raw words, the very indices
Generator.integers would draw. symbol_rng(seed, i), NumPy's own
default_rng([seed, i]), is the one reference: a canary compares the first
drawn row of every seed chunk, for every constellation, with its draw.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateSymbolError, HermitianSymmetryError

# max tolerated |imag| after the inverse transform, relative to the signal RMS
_IMAG_RESIDUAL_TOL = 1e-9

# byte budget of one sampler block: rows = max(1, _BLOCK_BYTES // (16 * N * F))
# complex128 rows; small so the reused block buffers stay cache-resident
_BLOCK_BYTES = 256 * 1024

# symbol indices seeded per pass, independent of the block: 16 KiB of uint64
# states plus a few uint32 columns of the same length
_SEED_CHUNK = 512

# numpy.random.SeedSequence's constants: pool of four 32-bit words, the
# entropy-mixing hash (A), the output hash (B) and the pool mixer
_SS_POOL = 4
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_U32 = 0xFFFFFFFF

_QPSK_POINTS = np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j]) / np.sqrt(2.0)

# 16-QAM, levels {-3,-1,1,3} on each rail, unit average power
_QAM16_LEVELS = np.array([-3.0, -1.0, 1.0, 3.0])
_QAM16_POINTS = (_QAM16_LEVELS[None, :] + 1j * _QAM16_LEVELS[:, None]).ravel() / np.sqrt(10.0)


def _check_sizes(n_subcarriers: int | None = None, oversample_factor: int = 1):
    """Raise ValueError unless oversample_factor >= 1 and n_subcarriers is even and >= 4."""
    if oversample_factor < 1:
        raise ValueError(f"oversample_factor must be >= 1, got {oversample_factor}")
    if n_subcarriers is not None and (n_subcarriers % 2 != 0 or n_subcarriers < 4):
        raise ValueError(f"n_subcarriers must be even and >= 4, got {n_subcarriers}")


def _mirror(rows: np.ndarray, half: int):
    """Write the conjugate mirror of columns 1..half-1 into each row's last half-1 columns."""
    np.conjugate(rows[:, half - 1:0:-1], out=rows[:, rows.shape[1] - half + 1:])


def _check_hermitian(rows: np.ndarray, half: int):
    """Raise unless each row is its own _mirror with null DC (column 0) and Nyquist (column half)."""
    if rows[:, 0].any() or rows[:, half].any():
        raise HermitianSymmetryError("DC and Nyquist bins must be zero")
    if not np.array_equal(rows[:, rows.shape[1] - half + 1:], np.conj(rows[:, half - 1:0:-1])):
        raise HermitianSymmetryError("bins are not Hermitian symmetric")


def _synthesize(blk: np.ndarray, n_subcarriers: int, re: np.ndarray,
                sq: np.ndarray | None = None) -> np.ndarray:
    """Turn rows of N*F zero-padded bins (0..N/2 first, N/2+1..N-1 last) into time-domain
    symbols in place: Hermitian check, inverse DFT scaled by N*F/sqrt(N).

    Writes the real parts into re as contiguous rows and returns each row's
    mean square; sq, if given, is scratch of the same shape.
    """
    _check_hermitian(blk, n_subcarriers // 2)
    np.fft.ifft(blk, axis=1, out=blk)
    blk *= blk.shape[1] / np.sqrt(n_subcarriers)
    re[...] = blk.real
    max_imag = np.abs(blk.imag, out=sq).max(axis=1)
    var = np.square(re, out=sq).mean(axis=1)
    if np.any(max_imag > np.sqrt(var) * _IMAG_RESIDUAL_TOL):
        raise HermitianSymmetryError(
            f"imaginary residual {max_imag.max():.3e} exceeds {_IMAG_RESIDUAL_TOL:.0e} x RMS")
    return var


class Constellation(str, Enum):
    """Unit-average-power constellations for the data-carrying bins."""

    QPSK = "qpsk"
    QAM16 = "qam16"
    COMPLEX_GAUSSIAN = "complex_gaussian"


@dataclass(frozen=True, eq=False)
class FreqSymbol:
    """One frequency-domain OFDM symbol (bins X_0 .. X_{N-1})."""

    n_subcarriers: int
    bins: np.ndarray

    def __post_init__(self):
        _check_sizes(self.n_subcarriers)
        bins = np.asarray(self.bins, dtype=np.complex128)
        if bins.shape != (self.n_subcarriers,):
            raise ValueError(f"expected {self.n_subcarriers} bins, got shape {bins.shape}")
        object.__setattr__(self, "bins", bins)
        _check_hermitian(bins[None, :], self.n_subcarriers // 2)


@dataclass(frozen=True, eq=False)
class TimeSymbol:
    """Real time-domain samples of one OFDM symbol plus its sample variance."""

    samples: np.ndarray
    oversample_factor: int
    sigma_x2: float


@dataclass(frozen=True)
class PaprSample:
    """Per-symbol upper/lower peak-to-average power ratio pair."""

    upapr: float
    lpapr: float

    def __post_init__(self):
        if not (self.upapr >= 0.0 and self.lpapr >= 0.0):
            raise ValueError("UPAPR and LPAPR must be non-negative")


@dataclass(frozen=True, eq=False)
class PaprPopulation:
    """Seeded Monte Carlo collection of (UPAPR, LPAPR) pairs."""

    upapr: np.ndarray
    lpapr: np.ndarray
    n_subcarriers: int
    constellation: Constellation
    seed: int
    oversample_factor: int

    def __len__(self) -> int:
        return len(self.upapr)


def symbol_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for the symbol at `index`; depends only on (seed, index)."""
    return np.random.default_rng([seed, index])


def _u32_words(value) -> list[int]:
    """The 32-bit words SeedSequence takes from one integer, least significant first."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"seed words must be non-negative, got {value}")
    words = [value & _U32]
    while value := value >> 32:
        words.append(value & _U32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's running uint32 hash; each call advances the multiplier."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _U32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _SS_MIX_L * x - _SS_MIX_R * y
    return r ^ (r >> np.uint32(16))


def _seed_states(seed: int, start: int, stop: int) -> np.ndarray:
    """Rows SeedSequence([seed, i]).generate_state(4, np.uint64), i in [start, stop).

    Follows SeedSequence step for step on uint32 columns, one row per index:
    the entropy is seed's words then i's, hashed into the pool (zero-padded
    to its size), the pool cross-mixed, and words beyond the pool mixed in
    last. Indices must lie in [0, 2**64).
    """
    index = np.arange(start, stop, dtype=np.uint64)
    high = (index >> np.uint64(32)).astype(np.uint32)
    words = [np.full(len(index), w, dtype=np.uint32) for w in _u32_words(seed)]
    words += [index.astype(np.uint32), high]
    # an index below 2**32 has one word: its high word is absent, which is
    # zero padding inside the pool and no mixing step beyond it
    present = [True] * (len(words) - 1) + [high != 0]
    hashmix = _hasher(_SS_INIT_A, _SS_MULT_A)
    zero = np.zeros(len(index), dtype=np.uint32)
    pool = [hashmix(words[k] if k < len(words) else zero) for k in range(_SS_POOL)]
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for k in range(_SS_POOL, len(words)):
        for dst in range(_SS_POOL):
            pool[dst] = np.where(present[k], _mix(pool[dst], hashmix(words[k])), pool[dst])
    hashmix = _hasher(_SS_INIT_B, _SS_MULT_B)
    state = np.empty((len(index), 8), dtype="<u4")
    for k in range(8):
        state[:, k] = hashmix(pool[k % _SS_POOL])
    return state.view("<u8").astype(np.uint64, copy=False)


def _check_reference(constellation: Constellation, seed: int, start: int, row: np.ndarray):
    """Canary: a seed chunk's first drawn row must equal symbol_rng's, NumPy's own draw."""
    if not np.array_equal(row, _draw_constellation(constellation, len(row),
                                                   symbol_rng(seed, start))):
        raise RuntimeError(
            f"batched draws differ from numpy.random.Generator at index {start} "
            f"seeded by numpy.random.SeedSequence([seed, {start}]) (NumPy {np.__version__})")


@functools.cache
def _seed_state_type() -> type:
    """The ISeedSequence that hands PCG64 one precomputed state row.

    Defined on first use, as numpy.random is: importing it along with vlcsim
    raised the peak RSS of a three-size variance-sweep by about 0.3 MB.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedState(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self._state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("only PCG64's generate_state(4, np.uint64) is precomputed")
            return self._state

    return SeedState


def _pcg64(state: np.ndarray) -> np.random.PCG64:
    """NumPy's PCG64 started from one precomputed SeedSequence state row."""
    return np.random.PCG64(_seed_state_type()(state))


def _state_blocks(seed: int, count: int, rows: int = _SEED_CHUNK):
    """(start, states) for symbols start, start+1, ... in blocks of at most `rows`;
    states are computed _SEED_CHUNK indices at a time, and no block crosses a chunk."""
    for chunk in range(0, count, _SEED_CHUNK):
        states = _seed_states(seed, chunk, min(chunk + _SEED_CHUNK, count))
        for first in range(0, len(states), rows):
            yield chunk + first, states[first:first + rows]


def symbol_rngs(seed: int, count: int):
    """symbol_rng(seed, i) for i = 0..count-1, seeded _SEED_CHUNK indices at a time."""
    for _, states in _state_blocks(seed, count):
        yield from (np.random.Generator(_pcg64(state)) for state in states)


def _draw_rows(constellation: Constellation, states: np.ndarray, out: np.ndarray):
    """out[r] = _draw_constellation(constellation, out.shape[1], Generator(_pcg64(states[r]))).

    Generator.integers(0, k) is Lemire's (u * k) >> 32 on PCG64's 32-bit halves, low
    half first, and never rejects for k a power of two: QPSK and 16-QAM indices are
    the top log2(k) bits of the halves of random_raw's words.
    """
    size = out.shape[1]
    points = (_QPSK_POINTS if constellation is Constellation.QPSK else
              _QAM16_POINTS if constellation is Constellation.QAM16 else None)
    if points is None:
        out[...] = [_draw_constellation(constellation, size, np.random.Generator(_pcg64(state)))
                    for state in states]
    else:
        words = np.array([_pcg64(state).random_raw((size + 1) // 2) for state in states])
        halves = words.astype("<u8", copy=False).view("<u4")[:, :size]  # low first on any host
        log2k = (len(points) - 1).bit_length()
        # indices are < k, so "clip" only lets take write straight into out
        np.take(points, halves >> np.uint32(32 - log2k), out=out, mode="clip")


def _draw_constellation(constellation: Constellation, size: int, rng: np.random.Generator) -> np.ndarray:
    if constellation is Constellation.QPSK:
        return _QPSK_POINTS[rng.integers(0, 4, size=size)]
    if constellation is Constellation.QAM16:
        return _QAM16_POINTS[rng.integers(0, 16, size=size)]
    if constellation is Constellation.COMPLEX_GAUSSIAN:
        re = rng.standard_normal(size)
        im = rng.standard_normal(size)
        return (re + 1j * im) / np.sqrt(2.0)
    raise ValueError(f"unknown constellation: {constellation!r}")


def generate_freq_symbol(n_subcarriers: int, constellation: Constellation,
                         rng: np.random.Generator) -> FreqSymbol:
    """Draw a Hermitian-symmetric frequency-domain symbol.

    Bins 1..N/2-1 are i.i.d. unit-average-power constellation points; the
    upper half is their conjugate mirror; DC and Nyquist bins stay zero.
    """
    _check_sizes(n_subcarriers)
    half = n_subcarriers // 2
    bins = np.zeros(n_subcarriers, dtype=np.complex128)
    bins[1:half] = _draw_constellation(constellation, half - 1, rng)
    _mirror(bins[None, :], half)
    return FreqSymbol(n_subcarriers=n_subcarriers, bins=bins)


def to_time_domain(sym: FreqSymbol, oversample_factor: int = 4) -> TimeSymbol:
    """Synthesize the real time-domain signal on an oversampled grid.

    Evaluates x(t) = (1/sqrt(N)) sum_k X_k exp(j 2 pi k t / T) at the N*F
    points t = n T / (N F): the one-row case of the sampler's kernel.
    """
    _check_sizes(oversample_factor=oversample_factor)
    half = sym.n_subcarriers // 2
    blk = np.zeros((1, sym.n_subcarriers * oversample_factor), dtype=np.complex128)
    blk[0, :half + 1] = sym.bins[:half + 1]  # Nyquist at column N/2, where the check looks
    blk[0, blk.shape[1] - half + 1:] = sym.bins[half + 1:]
    samples = np.empty(blk.shape[1])  # the kernel writes it through a one-row view
    var = _synthesize(blk, sym.n_subcarriers, samples[None, :])
    return TimeSymbol(samples=samples, oversample_factor=oversample_factor, sigma_x2=float(var[0]))


def papr_of(sym: TimeSymbol) -> PaprSample:
    """UPAPR = max(x)^2 / var, LPAPR = min(x)^2 / var for one symbol."""
    if sym.sigma_x2 == 0.0:
        raise DegenerateSymbolError("all-zero symbol has no PAPR")
    hi = float(np.max(sym.samples))
    lo = float(np.min(sym.samples))
    return PaprSample(upapr=hi * hi / sym.sigma_x2, lpapr=lo * lo / sym.sigma_x2)


def sample_papr_population(n_subcarriers: int, constellation: Constellation, count: int,
                           seed: int, oversample_factor: int = 4) -> PaprPopulation:
    """Monte Carlo (UPAPR, LPAPR) population, bit-reproducible from the seed.

    The pair at index i depends only on (seed, i) and equals
    papr_of(to_time_domain(generate_freq_symbol(..., symbol_rng(seed, i)), F)).
    Symbols are processed in blocks of rows sharing one in-place 2-D inverse
    FFT; the block buffers are allocated once per call and bounded by
    _BLOCK_BYTES, and no block crosses a seed chunk, whose first row the
    _check_reference canary compares with symbol_rng's draw. Sampling runs on
    the calling thread and starts no threads.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    _check_sizes(n_subcarriers, oversample_factor)
    half = n_subcarriers // 2
    m = n_subcarriers * oversample_factor
    rows = max(1, _BLOCK_BYTES // (16 * m))
    buf = np.empty((rows, m), dtype=np.complex128)
    re, sq = np.empty((2, rows, m))
    upapr = np.empty(count)
    lpapr = np.empty(count)

    for start, states in _state_blocks(seed, count, rows):
        stop = start + len(states)
        blk, x = buf[:len(states)], re[:len(states)]
        blk.fill(0)
        _draw_rows(constellation, states, blk[:, 1:half])
        if start % _SEED_CHUNK == 0:
            _check_reference(constellation, seed, start, blk[0, 1:half])
        _mirror(blk, half)
        var = _synthesize(blk, n_subcarriers, x, sq[:len(states)])
        if not var.all():
            raise DegenerateSymbolError("all-zero symbol has no PAPR")
        upapr[start:stop] = np.square(x.max(axis=1)) / var
        lpapr[start:stop] = np.square(x.min(axis=1)) / var

    if not (np.all(upapr >= 0.0) and np.all(lpapr >= 0.0)):
        raise ValueError("UPAPR and LPAPR must be non-negative")
    return PaprPopulation(upapr=upapr, lpapr=lpapr, n_subcarriers=n_subcarriers,
                          constellation=constellation, seed=seed,
                          oversample_factor=oversample_factor)
