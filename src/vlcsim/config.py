"""Experiment configuration: a flat key = value text format that round-trips.

Floats are serialized with repr so a written file parses back to bit-equal
values; a manifest produced by the CLI is itself a valid config file.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .dimming import effective_brightness, off_interval
from .errors import ConfigError
from .led import RANGE_MIN, LedModel
from .ofdm import Constellation
from .rates import AUTO, dnr_linear, grid, grid_points, zeta_grid_points

#: most points a grid may have, checked before building it by each run that builds
#: it: the DNR grid, rate table, forward-ratio search and variance profile, counted
#: by rates.grid_points() and rates.zeta_grid_points(), and a waveform frame's off
#: interval, in the check_*_budget() methods. Runs at the budget with --quick (1000
#: symbols, N = 64) and one brightness, measured on 2 cores with Python 3.11 and
#: NumPy 2.4 (a bare run peaks at 36 MB RSS):
#:   rate-sweep, 1e6 rows (500k DNR points)    63 s, 336 MB peak RSS
#:   optimize-gamma, 1e6 search cells           23 s,  64 MB
#:   rate-sweep --gamma auto, 1e6 search cells  14 s,  64 MB
#:   variance-sweep, 1e6 profile rows           27 s, 182 MB
#: Time grows with symbol_count. The paper's grids are far smaller: 0-60 dB in
#: 0.1 dB steps at the default brightness factors is 110k search cells.
GRID_POINTS_MAX = 1_000_000

#: most symbols, subcarriers or samples per symbol (N*F, for each subcarrier count) a
#: config may ask for, checked by validate() before anything is allocated. The largest
#: array a run allocates, waveform-demo's symbol_count x N*F float64 rows, then holds at
#: most 2**61 bytes, below np.intp's maximum, so NumPy cannot reject its shape with a
#: ValueError; a run that large ends in MemoryError (exit 5) instead.
COUNT_MAX = 2 ** 29


def _check_budget(key: str, count: float, what: str, hint: str = ""):
    if not count <= GRID_POINTS_MAX:
        shown = f"{count:,.0f}" if count < 1e15 else f"{count:.3g}"  # no 300-digit counts
        raise ConfigError(key, f"{shown} {what}, over the budget of {GRID_POINTS_MAX:,}"
                               + (f"; {hint}" if hint else ""))


def _check_count(key: str, count: int, unit: str = ""):
    if count > COUNT_MAX:
        raise ConfigError(key, f"must be at most {COUNT_MAX:,}{unit}, got {count}")


def _check_distinct(key: str, entries: tuple):
    # a repeated entry would only repeat its rows or runs
    if len(set(entries)) < len(entries):
        raise ConfigError(key, f"entries must not repeat, got {entries}")


def config_line(key: str, value: str) -> str:
    """One key = value line that parse_config reads back as value."""
    if "#" in value or "".join(value.splitlines()) != value:
        raise ConfigError(key, f"cannot contain '#' or a line break, got {value!r}")
    if value != value.strip():  # parse_config strips it
        raise ConfigError(key, f"cannot start or end with whitespace, got {value!r}")
    return f"{key} = {value}"


def _parse_list(kind, text: str) -> tuple:
    return tuple(kind(part) for part in text.split(",") if part.strip())


@dataclass(frozen=True)
class ExperimentConfig:
    """Every knob a simulation run needs, with desk-scale defaults."""

    n_subcarriers: int = 64
    constellation: Constellation = Constellation.QPSK
    symbol_count: int = 10000
    oversample_factor: int = 4
    seed: int = 12345
    i_low: float = 0.0
    i_high: float = 1.0
    o_high: float = 1.0
    lambdas: tuple[float, ...] = (0.05, 0.2, 0.35)
    gammas: tuple[float, ...] | str = AUTO
    dnr_db_start: float = 0.0
    dnr_db_stop: float = 60.0
    dnr_db_step: float = 2.0
    zeta_step: float = 0.01
    gamma_step: float = 0.005
    output_dir: str = "vlcsim-out"
    n_list: tuple[int, ...] | None = None

    def validate(self) -> "ExperimentConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if any(isinstance(x, float) and not np.isfinite(x)
                   for x in (value if isinstance(value, tuple) else (value,))):
                raise ConfigError(f.name, f"must be finite, got {value!r}")
        config_line("output_dir", self.output_dir)  # so to_text() can write it
        if self.n_subcarriers % 2 != 0 or self.n_subcarriers < 4:
            raise ConfigError("n_subcarriers", f"must be even and >= 4, got {self.n_subcarriers}")
        if self.symbol_count < 1:
            raise ConfigError("symbol_count", f"must be >= 1, got {self.symbol_count}")
        if self.oversample_factor < 1:
            raise ConfigError("oversample_factor", f"must be >= 1, got {self.oversample_factor}")
        _check_count("symbol_count", self.symbol_count)
        _check_count("oversample_factor", self.oversample_factor)
        _check_count("n_subcarriers", self.n_subcarriers * self.oversample_factor,
                     " samples per symbol (N*F)")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed", f"must be in [0, 2**64), got {self.seed}")
        if not self.i_low >= 0:  # 0 A is the LED's off state, so it cannot lie inside the range
            raise ConfigError("i_low", f"must be >= 0, got {self.i_low}")
        if not self.i_high - self.i_low >= RANGE_MIN:
            raise ConfigError("i_high", f"must exceed i_low by at least {RANGE_MIN!r}, "
                                        f"got [{self.i_low}, {self.i_high}]")
        if not self.o_high > 0:
            raise ConfigError("o_high", f"must be positive, got {self.o_high}")
        if not self.lambdas:
            raise ConfigError("lambdas", "must list at least one brightness factor")
        for lam in self.lambdas:
            if not 0.0 < lam < 1.0:
                raise ConfigError("lambdas", f"brightness factors must be in (0, 1), got {lam}")
        _check_distinct("lambdas", self.lambdas)
        if isinstance(self.gammas, str):
            if self.gammas != AUTO:
                raise ConfigError("gammas", f"must be a ratio list or '{AUTO}', got {self.gammas!r}")
        elif not self.gammas:
            raise ConfigError("gammas", f"must list at least one forward ratio or be '{AUTO}'")
        else:
            for gamma in self.gammas:
                if not 0.0 < gamma < 1.0:
                    raise ConfigError("gammas", f"forward ratios must be in (0, 1), got {gamma}")
            _check_distinct("gammas", self.gammas)
        if not self.dnr_db_step > 0:
            raise ConfigError("dnr_db_step", f"must be positive, got {self.dnr_db_step}")
        if self.dnr_db_stop < self.dnr_db_start:
            raise ConfigError("dnr_db_stop", f"must be >= dnr_db_start, got {self.dnr_db_stop}")
        if not 0.0 < self.zeta_step <= 0.5:
            raise ConfigError("zeta_step", f"must be in (0, 0.5], got {self.zeta_step}")
        if not self.gamma_step > 0:
            raise ConfigError("gamma_step", f"must be positive, got {self.gamma_step}")
        if self.n_list is not None:
            if not self.n_list:
                raise ConfigError("n_list", "must list at least one subcarrier count")
            for n in self.n_list:
                if n % 2 != 0 or n < 4:
                    raise ConfigError("n_list", f"entries must be even and >= 4, got {n}")
                _check_count("n_list", n * self.oversample_factor, " samples per symbol (N*F)")
            _check_distinct("n_list", self.n_list)
        return self

    def _dnr_points(self) -> float:
        """The DNR grid's point count, after checking the budget and its last point's overflow."""
        points = grid_points(self.dnr_db_start, self.dnr_db_stop, self.dnr_db_step)
        _check_budget("dnr_db_step", points, "points in the DNR grid")
        last_db = float(self.dnr_db_start + self.dnr_db_step * (points - 1))
        try:
            dnr_linear(last_db)
        except ValueError as exc:
            raise ConfigError("dnr_db_stop", f"the DNR grid reaches {last_db!r} dB, "
                                             "whose linear DNR overflows a double") from exc
        return points

    def check_profile_budget(self):
        """Raise ConfigError unless variance-sweep's profile fits the grid budget:
        rates.zeta_grid's points, once per subcarrier count."""
        _check_budget("zeta_step", zeta_grid_points(self.zeta_step) * len(self.subcarrier_counts()),
                      "(subcarrier count, biasing ratio) rows in the variance profile")

    def check_rate_table_budget(self):
        """Raise ConfigError unless rate-sweep's table fits the grid budget.

        Each (brightness, DNR) cell has a biasing row plus a PWM row per
        forward ratio, or one PWM row under gammas auto.
        """
        ratios = 1 if self.gammas == AUTO else len(self.gammas)
        _check_budget("dnr_db_step", len(self.lambdas) * self._dnr_points() * (1 + ratios),
                      "rows in the rate table",
                      "raise dnr_db_step or list fewer brightness factors or forward ratios")

    def check_search_budget(self):
        """Raise ConfigError unless the forward-ratio search fits the grid budget.

        For the runs that search (optimize-gamma, rate-sweep with gammas auto):
        the (brightness, ratio, DNR) cells, counted as rates.gamma_grid does.
        """
        ratios = sum(grid_points(effective_brightness(lam)[0], 0.5, self.gamma_step)
                     for lam in self.lambdas)
        _check_budget("gamma_step", self._dnr_points() * ratios,
                      "(brightness, ratio, DNR) cells in the forward-ratio search",
                      "raise gamma_step or dnr_db_step")

    def check_frame_budget(self):
        """Raise ConfigError unless waveform-demo's PWM off interval (first lambda and
        gamma) fits the grid budget: every waveform block holds at least one whole
        frame, a symbol's N*F samples (already held as a row) plus that interval."""
        _check_budget("lambdas", off_interval(self.n_subcarriers * self.oversample_factor,
                                              self.lambdas[0], self.gammas[0]),
                      "samples in one PWM off interval",
                      "move lambdas toward 0.5 or gammas toward the effective brightness")

    def led(self) -> LedModel:
        return LedModel(i_low=self.i_low, i_high=self.i_high, o_high=self.o_high)

    def dnr_db_grid(self) -> np.ndarray:
        self._dnr_points()
        return grid(self.dnr_db_start, self.dnr_db_stop, self.dnr_db_step)

    def subcarrier_counts(self) -> tuple[int, ...]:
        return self.n_list if self.n_list else (self.n_subcarriers,)

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "n_list" and value is None:
                continue
            lines.append(config_line(f.name, _format_value(value)))
        return "\n".join(lines) + "\n"


def _format_value(value) -> str:
    if isinstance(value, Constellation):
        return value.value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    return str(value)


_PARSERS = {
    "n_subcarriers": int,
    "constellation": Constellation,
    "symbol_count": int,
    "oversample_factor": int,
    "seed": int,
    "i_low": float,
    "i_high": float,
    "o_high": float,
    "lambdas": lambda text: _parse_list(float, text),
    "gammas": lambda text: AUTO if text.strip() == AUTO else _parse_list(float, text),
    "dnr_db_start": float,
    "dnr_db_stop": float,
    "dnr_db_step": float,
    "zeta_step": float,
    "gamma_step": float,
    "output_dir": str,
    "n_list": lambda text: _parse_list(int, text),
}


def parse_config(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse key = value lines ('#' starts a comment) over a base config."""
    cfg = base or ExperimentConfig()
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        parser = _PARSERS.get(key)
        if parser is None:
            raise ConfigError(key, "unknown configuration key")
        try:
            overrides[key] = parser(value)
        except (ValueError, KeyError) as exc:
            raise ConfigError(key, f"cannot parse {value!r}: {exc}") from exc
    return replace(cfg, **overrides)


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    return parse_config(text, base)
