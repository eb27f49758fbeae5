"""Binary caching and CSV export of PAPR populations.

Cache layout: a fixed 52-byte header (magic, format version, subcarrier
count, oversample factor, constellation id, seed, count) followed by
`count` little-endian float64 (upapr, lpapr) records.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .csvio import write_csv
from .ofdm import Constellation, PaprPopulation, sample_papr_population

_MAGIC = b"VLCPAPR1"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sIII16sQQ")  # magic, version, n, F, constellation, seed, count

#: environment variable overriding the population cache directory
CACHE_DIR_ENV = "VLCSIM_CACHE_DIR"


def save_population(path, pop: PaprPopulation):
    """Write a population cache file (header + float64 pair records).

    The file is written under a temporary name in the target directory and
    renamed into place, so a concurrent reader sees either no file or a
    complete one.
    """
    const = pop.constellation.value.encode("ascii")
    if len(const) > 16:
        raise ValueError(f"constellation id too long for header: {pop.constellation}")
    header = _HEADER.pack(_MAGIC, _FORMAT_VERSION, pop.n_subcarriers,
                          pop.oversample_factor, const, pop.seed, len(pop))
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
    """Read a population cache file; raises ValueError on a foreign format."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated population cache")
    magic, version, n, factor, const, seed, count = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise ValueError(f"{path}: not a population cache")
    if version != _FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported cache format version {version}")
    body = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    if body.size != 2 * count:
        raise ValueError(f"{path}: expected {count} records, found {body.size // 2}")
    records = body.reshape(count, 2)
    return PaprPopulation(upapr=records[:, 0].copy(), lpapr=records[:, 1].copy(),
                          n_subcarriers=n,
                          constellation=Constellation(const.rstrip(b"\x00").decode("ascii")),
                          seed=seed, oversample_factor=factor)


def population_cache_path(cache_dir, n_subcarriers: int, constellation: Constellation,
                          count: int, seed: int, oversample_factor: int) -> Path:
    name = (f"papr_n{n_subcarriers}_{constellation.value}_f{oversample_factor}"
            f"_seed{seed}_c{count}.bin")
    return Path(cache_dir) / name


def resolve_cache_dir(output_dir) -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    return Path(env) if env else Path(output_dir) / "papr_cache"


def load_or_build(cache_dir, n_subcarriers: int, constellation: Constellation,
                  count: int, seed: int,
                  oversample_factor: int = 4) -> tuple[PaprPopulation, bool]:
    """Return (population, came_from_cache).

    A cache file whose header disagrees with the request is discarded and
    rebuilt; the freshly built population is written back.
    """
    path = population_cache_path(cache_dir, n_subcarriers, constellation, count,
                                 seed, oversample_factor)
    if path.exists():
        try:
            pop = load_population(path)
        except ValueError:
            pop = None
        if (pop is not None
                and pop.n_subcarriers == n_subcarriers
                and pop.constellation is constellation
                and pop.seed == seed
                and pop.oversample_factor == oversample_factor
                and len(pop) == count):
            return pop, True
    pop = sample_papr_population(n_subcarriers, constellation, count, seed,
                                 oversample_factor)
    save_population(path, pop)
    return pop, False


def write_population_csv(path, pop: PaprPopulation):
    """Export a population as index,upapr,lpapr rows."""
    write_csv(path, ["index", "upapr", "lpapr"], [range(len(pop)), pop.upapr, pop.lpapr])
