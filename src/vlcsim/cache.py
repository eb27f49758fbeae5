"""Binary caching and CSV export of PAPR populations.

Cache layout (format 2): a fixed 84-byte header (magic, format version,
subcarrier count, oversample factor, constellation id, seed, count, the
NumPy version that sampled the population) followed by `count`
little-endian float64 (upapr, lpapr) records. NumPy does not promise the
same Generator streams across versions (NEP 19), so load_or_build rebuilds
a population that another NumPy version sampled.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .csvio import write_blocks
from .ofdm import Constellation, PaprPopulation, sample_papr_population

_MAGIC = b"VLCPAPR1"
_FORMAT_VERSION = 2
# magic, version, n, F, constellation, seed, count, NumPy version
_HEADER = struct.Struct("<8sIII16sQQ32s")
_PREFIX = struct.Struct("<8sI")  # magic, version: the part every format shares
# the NumPy version as the header stores it, cut to its 32-byte field
_NUMPY_VERSION = np.__version__.encode("ascii")[:32]

#: environment variable overriding the population cache directory
CACHE_DIR_ENV = "VLCSIM_CACHE_DIR"


def save_population(path, pop: PaprPopulation):
    """Write a population cache file (header + float64 pair records).

    The file is written under a temporary name in the target directory and
    renamed into place, so a concurrent reader sees either no file or a
    complete one.
    """
    const = pop.constellation.value.encode("ascii")
    header = _HEADER.pack(_MAGIC, _FORMAT_VERSION, pop.n_subcarriers,
                          pop.oversample_factor, const, pop.seed, len(pop), _NUMPY_VERSION)
    records = np.column_stack([pop.upapr, pop.lpapr]).astype("<f8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(header)
            fh.write(records.tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_population(path) -> PaprPopulation:
    """Read a population cache file.

    Raises ValueError on a foreign format, on a population that another
    NumPy version sampled, and on a record that is NaN, infinite or negative,
    which the sampler never writes.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _PREFIX.size:
        raise ValueError(f"{path}: truncated population cache")
    magic, version = _PREFIX.unpack_from(raw)
    if magic != _MAGIC:
        raise ValueError(f"{path}: not a population cache")
    if version != _FORMAT_VERSION:
        raise ValueError(f"{path}: cache format version {version}, "
                         f"this vlcsim reads version {_FORMAT_VERSION}")
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated population cache")
    _, _, n, factor, const, seed, count, numpy_version = _HEADER.unpack_from(raw)
    numpy_version = numpy_version.rstrip(b"\x00")
    if numpy_version != _NUMPY_VERSION:
        raise ValueError(f"{path}: sampled under NumPy {numpy_version.decode('ascii', 'replace')}, "
                         f"running NumPy {np.__version__}")
    size = len(raw) - _HEADER.size  # checked first: frombuffer raises without the path
    if size != 16 * count:  # 16-byte (upapr, lpapr) records
        raise ValueError(f"{path}: expected {count} records, {16 * count} bytes; found {size}")
    body = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    if not np.all((body >= 0.0) & (body < np.inf)):  # NaN fails both
        raise ValueError(f"{path}: records must be finite and non-negative")
    records = body.reshape(count, 2)
    return PaprPopulation(upapr=records[:, 0].copy(), lpapr=records[:, 1].copy(),
                          n_subcarriers=n,
                          constellation=Constellation(const.rstrip(b"\x00").decode("ascii")),
                          seed=seed, oversample_factor=factor)


def population_cache_path(cache_dir, n_subcarriers: int, constellation: Constellation,
                          count: int, seed: int, oversample_factor: int) -> Path:
    name = (f"papr_n{n_subcarriers}_{Constellation(constellation).value}_f{oversample_factor}"
            f"_seed{seed}_c{count}.bin")
    return Path(cache_dir) / name


def resolve_cache_dir(output_dir) -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    return Path(env) if env else Path(output_dir) / "papr_cache"


def load_or_build(cache_dir, n_subcarriers: int, constellation: Constellation,
                  count: int, seed: int, oversample_factor: int = 4,
                  notice=None) -> tuple[PaprPopulation, bool]:
    """Return (population, came_from_cache).

    A cache file that cannot be read, was written in another cache format or
    under another NumPy version, holds a record the sampler cannot write, or
    whose header disagrees with the request is discarded and rebuilt;
    notice, if given, is called with one line saying why. The freshly built
    population is written back. constellation may be a member or its name.
    """
    constellation = Constellation(constellation)
    path = population_cache_path(cache_dir, n_subcarriers, constellation, count,
                                 seed, oversample_factor)
    if path.exists():
        try:
            pop = load_population(path)
        except ValueError as exc:
            reason = str(exc)
        else:
            if (pop.n_subcarriers == n_subcarriers
                    and pop.constellation is constellation
                    and pop.seed == seed
                    and pop.oversample_factor == oversample_factor
                    and len(pop) == count):
                return pop, True
            reason = f"{path}: header does not match the requested population"
        if notice is not None:
            notice(f"discarding {reason}; rebuilding")
    pop = sample_papr_population(n_subcarriers, constellation, count, seed,
                                 oversample_factor)
    save_population(path, pop)
    return pop, False


def write_population_csv(path, pop: PaprPopulation):
    """Export a population as index,upapr,lpapr rows."""
    write_blocks(path, ["index", "upapr", "lpapr"], [[range(len(pop)), pop.upapr, pop.lpapr]])
