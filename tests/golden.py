"""The golden store's cases, its observation functions and its recorder.

tests/golden.json holds every value tier-1 pins, keyed by case id, with the
NumPy version it was recorded under and a relative tolerance. Each kind of
case has one observation function, which tests/test_golden.py calls too:

- population(): float.hex of the first, middle and last (UPAPR, LPAPR) of a
  seeded population, and a SHA-256 over its little-endian float64 upapr then
  lpapr bytes. 301 symbols leave a short final block at every (N, F) here.
- csv_digests(): the SHA-256 of every CSV of one CLI run on the config of
  acceptance criterion 9: the five CSV-writing subcommands, and two more
  rate sweeps (gammas auto, and explicit ratios shared by two brightnesses),
  each with a mirrored brightness.
- waveform_rows(): rows of waveform_pwm.csv at seed 12345, N = 16, F = 4,
  20 symbols, brightness 0.25 and forward ratio 0.4 (64 on, 38 off samples).

NumPy keeps no Generator stream stable across versions (NEP 19), so bits and
digests are compared under the recorded NumPy only. QPSK and 16-QAM draw
SeedSequence-seeded PCG64 raw words, which are stable, so off that version
only the FFT's rounding moves their values and the waveform's: those are
compared within the tolerance, which a changed draw or scaling rule exceeds
by far. Generator.standard_normal is not stable, so complex Gaussian is not.

    PYTHONPATH=src python tests/golden.py

rewrites tests/golden.json from the running code. Re-recording is a
deliberate act, logged in CHANGES.md by a change that declares an output
change; it never runs in tests or CI.
"""

import csv
import hashlib
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

import vlcsim as v
from vlcsim.cli import main as cli_main

STORE = Path(__file__).with_name("golden.json")
RTOL = 1e-12

SEED = 20240601
COUNT = 301
PICKS = (0, COUNT // 2, COUNT - 1)
# case id -> (constellation, N, F)
POPULATIONS = {f"{c}-n{n}-f{f}": (c, n, f) for c in ("qpsk", "qam16", "complex_gaussian")
               for n in (64, 1024) for f in (1, 4)}

# the configuration of acceptance criterion 9
CSV_CONFIG = ("n_subcarriers = 16\nn_list = 16, 32\nsymbol_count = 80\n"
              "oversample_factor = 2\nseed = 11\nlambdas = 0.2\ngammas = 0.3\n"
              "dnr_db_start = 0\ndnr_db_stop = 20\ndnr_db_step = 10\n"
              "zeta_step = 0.05\ngamma_step = 0.05\n")
# case id -> (subcommand, extra flags)
CSV_RUNS = {"papr-sample": ("papr-sample", ()),
            "variance-sweep": ("variance-sweep", ()),
            "rate-sweep": ("rate-sweep", ()),
            "rate-sweep-auto-0.2,0.7": ("rate-sweep", ("--gamma", "auto", "--lambda", "0.2,0.7")),
            "rate-sweep-0.2,0.7-0.3,0.4": ("rate-sweep", ("--lambda", "0.2,0.7",
                                                          "--gamma", "0.3,0.4")),
            "optimize-gamma": ("optimize-gamma", ()),
            "waveform-demo": ("waveform-demo", ())}

WAVEFORM_ARGV = ("waveform-demo", "--seed", "12345", "--n", "16", "--symbols", "20",
                 "--lambda", "0.25", "--gamma", "0.4")
# the first sample and the first and last off samples of the first frame, the
# first sample of the second, one inside, and the last on and off samples
WAVEFORM_PICKS = (0, 64, 101, 102, 1037, 2001, 2039)


def _run(directory: Path, argv) -> Path:
    """Run the CLI with its population cache under directory; returns the output directory."""
    out = directory / "out"
    with mock.patch.dict(os.environ, {v.CACHE_DIR_ENV: str(directory / "cache")}):
        if cli_main([*argv, "--out", str(out)]) != 0:
            raise RuntimeError(f"vlcsim {' '.join(argv)} failed")
    return out


def population(constellation: str, n: int, factor: int) -> dict:
    pop = v.sample_papr_population(n, v.Constellation(constellation), COUNT, seed=SEED,
                                   oversample_factor=factor)
    h = hashlib.sha256()
    h.update(pop.upapr.astype("<f8").tobytes())
    h.update(pop.lpapr.astype("<f8").tobytes())
    return {"upapr": [float(pop.upapr[i]).hex() for i in PICKS],
            "lpapr": [float(pop.lpapr[i]).hex() for i in PICKS],
            "sha256": h.hexdigest()}


def csv_digests(directory: Path, subcommand: str, extra) -> dict:
    directory.mkdir(exist_ok=True)
    cfg = directory / "run.cfg"
    cfg.write_text(CSV_CONFIG)
    out = _run(directory, [subcommand, "--config", str(cfg), *extra])
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.glob("*.csv"))}


def waveform_rows(directory: Path) -> dict:
    """waveform_pwm.csv's header, row count and picked rows: sample_index -> (current, optical)."""
    with open(_run(directory, WAVEFORM_ARGV) / "waveform_pwm.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    return {"header": rows[0], "rows": len(rows) - 1,
            "picked": {rows[1 + i][0]: [float(x) for x in rows[1 + i][1:]]
                       for i in WAVEFORM_PICKS}}


def record() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        runs = Path(tmp)
        return {"numpy": np.__version__, "rtol": RTOL,
                "populations": {case: population(*args) for case, args in POPULATIONS.items()},
                "csv": {case: csv_digests(runs / case, *args) for case, args in CSV_RUNS.items()},
                "waveform_pwm": waveform_rows(runs)}


if __name__ == "__main__":
    STORE.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"recorded {STORE} under NumPy {np.__version__}")
