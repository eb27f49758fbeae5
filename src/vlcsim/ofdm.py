"""DCO-OFDM symbol synthesis and peak-to-average power statistics.

Symbols are built in the frequency domain with null DC/Nyquist bins and
Hermitian symmetry, transformed to a real oversampled time-domain signal,
and reduced to per-symbol (UPAPR, LPAPR) pairs. One synthesis kernel does
the Hermitian check, the inverse FFT and the scaling for a block of symbols:
to_time_domain runs it on a one-row block, and the population sampler on
fixed-size blocks, whose time-domain rows it can also write into a caller's
array; the sampler then takes each row's mean square. The per-symbol path
passes plain arrays: the N complex bins of generate_freq_symbol, the N*F
real samples of to_time_domain and the (UPAPR, LPAPR) pair of papr_of; the
last two reject non-finite input.
Symbols are seeded per index, so results never depend on block size; the
sampler seeds them in chunks with one vectorized SeedSequence pass each and
draws a block's QPSK and 16-QAM points, from the one table of constellation
points, with PCG64.random_raw words, the very indices Generator.integers
would draw.
symbol_rng(seed, i), NumPy's own default_rng([seed, i]), is the one
reference: a canary compares the first drawn row of every seed chunk, for
every constellation, with its draw.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateSymbolError, HermitianSymmetryError

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


def _check_sizes(n_subcarriers: int, oversample_factor: int = 1):
    """Raise ValueError unless oversample_factor >= 1 and n_subcarriers is even and >= 4."""
    if oversample_factor < 1:
        raise ValueError(f"oversample_factor must be >= 1, got {oversample_factor}")
    if n_subcarriers % 2 != 0 or n_subcarriers < 4:
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


def _synthesize(blk: np.ndarray, n_subcarriers: int, x: np.ndarray):
    """Turn rows of N*F zero-padded bins (0..N/2 first, N/2+1..N-1 last) into time-domain
    symbols: Hermitian check, inverse DFT in place, real parts scaled by N*F/sqrt(N).

    Writes the samples into x as contiguous rows; blk's memory is then dead.
    """
    _check_hermitian(blk, n_subcarriers // 2)
    np.fft.ifft(blk, axis=1, out=blk)
    np.multiply(blk.real, blk.shape[1] / np.sqrt(n_subcarriers), out=x)


class Constellation(str, Enum):
    """Unit-average-power constellations for the data-carrying bins."""

    QPSK = "qpsk"
    QAM16 = "qam16"
    COMPLEX_GAUSSIAN = "complex_gaussian"


# the finite constellations' unit-average-power points; 16-QAM has levels {-3,-1,1,3} on each rail
_LEVELS = np.array([-3.0, -1.0, 1.0, 3.0])
_POINTS = {Constellation.QPSK: np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j]) / np.sqrt(2.0),
           Constellation.QAM16: (_LEVELS[None, :] + 1j * _LEVELS[:, None]).ravel() / np.sqrt(10.0)}


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
    seed's 32-bit words then i's, least significant first, are hashed into the
    zero-padded four-word pool, which is then cross-mixed. Seeds in [0, 2**64)
    and indices take two words at most, so all fit; other seeds raise ValueError.
    An index below 2**32 has one word: its zero high word is that padding.
    """
    if not 0 <= operator.index(seed) < 2 ** 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    index = np.arange(start, stop, dtype=np.uint64)
    seed_words = [seed] if seed <= _U32 else [seed & _U32, seed >> 32]
    words = [np.full(len(index), w, dtype=np.uint32) for w in seed_words]
    words += [index.astype(np.uint32), (index >> np.uint64(32)).astype(np.uint32)]
    hashmix = _hasher(_SS_INIT_A, _SS_MULT_A)
    zero = np.zeros(len(index), dtype=np.uint32)
    pool = [hashmix(words[k] if k < len(words) else zero) for k in range(_SS_POOL)]
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
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


def _draw_rows(constellation: Constellation, states: np.ndarray, out: np.ndarray):
    """out[r] = _draw_constellation(constellation, out.shape[1], Generator(_pcg64(states[r]))).

    Generator.integers(0, k) is Lemire's (u * k) >> 32 on PCG64's 32-bit halves, low
    half first, and never rejects for k a power of two: QPSK and 16-QAM indices are
    the top log2(k) bits of the halves of random_raw's words.
    """
    size = out.shape[1]
    points = _POINTS.get(constellation)
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
    points = _POINTS.get(constellation)
    if points is not None:
        return points[rng.integers(0, len(points), size=size)]
    re = rng.standard_normal(size)  # the complex Gaussian, the one member without points
    im = rng.standard_normal(size)
    return (re + 1j * im) / np.sqrt(2.0)


def generate_freq_symbol(n_subcarriers: int, constellation: Constellation,
                         rng: np.random.Generator) -> np.ndarray:
    """Draw the N complex bins of a Hermitian-symmetric frequency-domain symbol.

    Bins 1..N/2-1 are i.i.d. unit-average-power constellation points; the
    upper half is their conjugate mirror; DC and Nyquist bins stay zero. The
    constellation is a Constellation or its name; another name is a ValueError.
    """
    constellation = Constellation(constellation)
    _check_sizes(n_subcarriers)
    half = n_subcarriers // 2
    bins = np.zeros(n_subcarriers, dtype=np.complex128)
    bins[1:half] = _draw_constellation(constellation, half - 1, rng)
    _mirror(bins[None, :], half)
    return bins


def _one_row(values, dtype, name: str) -> np.ndarray:
    """values as a (1, len) array; ValueError unless they are one-dimensional."""
    row = np.asarray(values, dtype=dtype)
    if row.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {row.shape}")
    return row[None, :]


def to_time_domain(bins, oversample_factor: int = 4) -> np.ndarray:
    """The real N*F time-domain samples of one symbol's N bins.

    Evaluates x(t) = (1/sqrt(N)) sum_k X_k exp(j 2 pi k t / T) at the N*F
    points t = n T / (N F), bins above N/2 acting as negative frequencies:
    the one-row case of the sampler's kernel, whose Hermitian check is the
    check on the bins. Non-finite bins are rejected first: an infinite bin
    equals its own conjugate mirror.
    """
    bins = _one_row(bins, np.complex128, "bins")
    n = bins.shape[1]
    _check_sizes(n, oversample_factor)
    if not np.isfinite(bins).all():
        raise HermitianSymmetryError("bins must be finite")
    half = n // 2
    blk = np.zeros((1, n * oversample_factor), dtype=np.complex128)
    blk[:, :half + 1] = bins[:, :half + 1]  # Nyquist at column N/2, where the check looks
    blk[:, blk.shape[1] - half + 1:] = bins[:, half + 1:]
    samples = np.empty(blk.shape[1])  # the kernel writes it through a one-row view
    _synthesize(blk, n, samples[None, :])
    return samples


def _papr_rows(x: np.ndarray, sq: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Each row's max(x)^2 / var and min(x)^2 / var, var its mean square; squares go to sq."""
    var = np.square(x, out=sq).mean(axis=1)
    if not var.all():
        raise DegenerateSymbolError("all-zero symbol has no PAPR")
    return np.square(x.max(axis=1)) / var, np.square(x.min(axis=1)) / var


def papr_of(samples) -> tuple[float, float]:
    """(UPAPR, LPAPR) of one symbol's finite real samples: the sampler's reduction on one row,
    after an exact power-of-two scaling into [0.5, 1), so no square overflows or underflows."""
    x = _one_row(samples, np.float64, "samples")
    if not np.isfinite(x).all():
        raise ValueError("samples must be finite")
    x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
    upapr, lpapr = _papr_rows(x)
    return float(upapr[0]), float(lpapr[0])


def sample_papr_population(n_subcarriers: int, constellation: Constellation, count: int,
                           seed: int, oversample_factor: int = 4,
                           samples: np.ndarray | None = None) -> PaprPopulation:
    """Monte Carlo (UPAPR, LPAPR) population, bit-reproducible from the seed.

    The pair at index i depends only on (seed, i) and equals
    papr_of(to_time_domain(generate_freq_symbol(..., symbol_rng(seed, i)), F)).
    Symbols are processed in blocks of rows sharing one in-place 2-D inverse
    FFT; the block buffers are allocated once per call and bounded by
    _BLOCK_BYTES, and no block crosses a seed chunk, whose first row the
    _check_reference canary compares with symbol_rng's draw. Sampling runs on
    the calling thread and starts no threads.

    samples, if given, is a writeable C-contiguous float64 array of shape
    (count, N*F); the kernel writes symbol i's time-domain samples, those of
    to_time_domain, straight into row i. It is checked before any draw, and so
    are the seed, which must lie in [0, 2**64), and the constellation, which is
    a Constellation or its name: the population always carries the member.
    """
    constellation = Constellation(constellation)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    _check_sizes(n_subcarriers, oversample_factor)
    half = n_subcarriers // 2
    m = n_subcarriers * oversample_factor
    if samples is not None and not (
            isinstance(samples, np.ndarray) and samples.dtype == np.float64
            and samples.shape == (count, m) and samples.flags.c_contiguous
            and samples.flags.writeable):
        raise ValueError(f"samples must be a writeable C-contiguous float64 array of shape "
                         f"({count}, {m})")
    rows = max(1, _BLOCK_BYTES // (16 * m))
    buf = np.empty((rows, m), dtype=np.complex128)
    re = np.empty((rows, m)) if samples is None else None  # real rows, unless samples holds them
    upapr = np.empty(count)
    lpapr = np.empty(count)

    for start, states in _state_blocks(seed, count, rows):
        stop = start + len(states)
        blk = buf[:len(states)]
        x = re[:len(states)] if samples is None else samples[start:stop]
        blk.fill(0)
        _draw_rows(constellation, states, blk[:, 1:half])
        if start % _SEED_CHUNK == 0:
            _check_reference(constellation, seed, start, blk[0, 1:half])
        _mirror(blk, half)
        _synthesize(blk, n_subcarriers, x)
        # x's shape over blk's first x.size doubles, dead since the synthesis: one flat pass
        sq = blk.view(np.float64).reshape(-1)[:x.size].reshape(x.shape)
        upapr[start:stop], lpapr[start:stop] = _papr_rows(x, sq)
    return PaprPopulation(upapr=upapr, lpapr=lpapr, n_subcarriers=n_subcarriers,
                          constellation=constellation, seed=seed,
                          oversample_factor=oversample_factor)
