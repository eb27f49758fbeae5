"""The accepted-input contract of the CLI.

Every config ends in a result or a typed error with a documented exit code
(0, 2, 3, 4 or 5), never a traceback or a warning; a run that fails leaves no
CSV and no manifest, and a run that succeeds is reproduced byte for byte from
its manifest. The cases are drawn from a seeded random.Random, so the set is
the same on every run: each edge value below is paired with randomly drawn
other keys, and the grid edges with every subcommand, since each run bounds
only the grids it builds. Each adversarial literal, inside a key's domain or
not, is written as the value of every key, each on a drawn subcommand.
"""

import dataclasses
import random
import warnings

import pytest

import vlcsim as v
from vlcsim.cli import main

SUBCOMMANDS = ("papr-sample", "variance-sweep", "rate-sweep", "optimize-gamma",
               "waveform-demo", "selftest")
EXIT_CODES = {0, 2, 3, 4, 5}
# the key a grid's budget error names -> the runs that build that grid
GRID_BUILDERS = {
    "dnr_db_step": {"rate-sweep", "optimize-gamma"},
    "dnr_db_stop": {"rate-sweep", "optimize-gamma"},  # a last point that overflows
    "zeta_step": {"variance-sweep"},
    "gamma_step": {"rate-sweep", "optimize-gamma"},  # rate-sweep under gammas auto
    "lambdas": {"waveform-demo"},  # the PWM off interval of a waveform frame
}

# tiny steps, an overflowing DNR and a tiny brightness: each is a config error
# only for the runs that build that grid
GRID_EDGES = [
    {"dnr_db_start": -10.0, "dnr_db_stop": 60.0, "dnr_db_step": 1e-9},
    {"dnr_db_start": 0.0, "dnr_db_stop": 4000.0, "dnr_db_step": 1000.0},
    {"zeta_step": 1e-12},
    {"gamma_step": 1e-12},
    {"lambdas": "1e-300", "gammas": "0.4"},
]
EDGES = [
    {"seed": 0},
    {"seed": 2 ** 64 - 1},
    {"n_subcarriers": 4, "oversample_factor": 1},
    {"lambdas": "0.5"},
    {"lambdas": "0.95"},  # mirrored to 0.05
    {"lambdas": "0.2", "gammas": "0.2"},  # gamma = lambda: duty cycle 1
    {"lambdas": "0.95", "gammas": "0.95"},
    {"gamma_step": 0.5},
    {"zeta_step": 0.5},
    {"n_list": "16"},
    {"n_list": "4, 8, 32"},
    *({"constellation": c.value} for c in v.Constellation),
]
# a count of 2**64, beyond every array, on each run that reads the key: validate()
# rejects it, naming the key, before the output directory is made
HUGE = 2 ** 64
COUNT_EDGES = [(sub, {key: value}) for key, value, subs in [
    ("symbol_count", HUGE, [sub for sub in SUBCOMMANDS if sub != "selftest"]),
    ("n_subcarriers", HUGE, SUBCOMMANDS), ("oversample_factor", HUGE, SUBCOMMANDS),
    ("n_list", f"64, {HUGE}", ["variance-sweep"])] for sub in subs]
# config values as written in a file, for any key: numbers at and past every bound, parser
# edge cases and malformed lists
LITERALS = ["0", "-0.0", "-1", "5e-324", "1e-320", "1e-17", "0.5", "1", "2", "3", "1e308",
            "1e400", "inf", "-inf", "nan", str(HUGE), str(-HUGE - 1), "1_000", "0x10", "",
            "1,,2", "0.3,nan", "0.2,inf", "auto,0.3"]
# every key but output_dir, which --out sets
CONFIG_KEYS = [f.name for f in dataclasses.fields(v.ExperimentConfig) if f.name != "output_dir"]


def _draw_keys(rng: random.Random) -> dict:
    """A config within every key's domain, with grids small enough to run in milliseconds."""
    start = rng.choice([-10.0, 0.0, 5.0])
    keys = {
        "n_subcarriers": rng.choice([4, 8, 16, 64]),
        "oversample_factor": rng.choice([1, 2, 4]),
        "constellation": rng.choice(list(v.Constellation)).value,
        "symbol_count": rng.randint(1, 16),
        "seed": rng.randrange(2 ** 64),
        "i_low": rng.choice([0.0, 0.0, 0.1]),
        "lambdas": ", ".join(map(str, rng.sample([0.05, 0.2, 0.35, 0.5, 0.7, 0.95],
                                                 rng.randint(1, 3)))),
        "gammas": rng.choice(["auto", "0.4", "0.6", "0.3, 0.96"]),
        "dnr_db_start": start,
        "dnr_db_stop": start + rng.choice([0.0, 20.0, 60.0]),
        "dnr_db_step": rng.choice([2.0, 5.0, 20.0]),
        "zeta_step": rng.choice([0.01, 0.05, 0.1]),
        "gamma_step": rng.choice([0.01, 0.05, 0.1]),
    }
    if rng.random() < 0.5:
        keys["n_list"] = ", ".join(map(str, rng.sample([4, 8, 16, 32], rng.randint(1, 3))))
    return keys


def _edge_id(edge: dict) -> str:
    return "-".join(f"{key}={value}".replace(" ", "") for key, value in edge.items())


def _draw_cases(seed: int = 20240601) -> tuple[list[str], list[tuple[str, dict, bool, bool]]]:
    """Ids, and (subcommand, config keys, whether the DNR range goes through --dnr-db=...,
    whether a key holds a literal, so that the keys may lie outside their domains).

    An id names the subcommand and the edge's keys or the literal's key and
    text, not a position, so adding an edge or a literal renames no other case.
    The literals are drawn after the edges, so they change no edge's case.
    """
    rng = random.Random(seed)
    pairs = [(sub, edge) for edge in GRID_EDGES for sub in SUBCOMMANDS]
    pairs += [(sub, edge) for edge in EDGES for sub in rng.sample(SUBCOMMANDS, 3)]
    pairs += COUNT_EDGES
    ids = [f"{sub}-{_edge_id(edge)}" for sub, edge in pairs]
    cases = [(sub, {**_draw_keys(rng), **edge}, rng.random() < 0.5, False) for sub, edge in pairs]
    for literal in LITERALS:
        for key in CONFIG_KEYS:
            sub = rng.choice(SUBCOMMANDS)
            ids.append(f"{sub}-literal-{key}={literal}")
            cases.append((sub, {**_draw_keys(rng), key: literal}, rng.random() < 0.5, True))
    return ids, cases


IDS, CASES = _draw_cases()


def _run(argv, cache_dir, monkeypatch, capsys) -> tuple[int, str]:
    monkeypatch.setenv(v.CACHE_DIR_ENV, str(cache_dir))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([str(arg) for arg in argv])
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert not caught, [str(w.message) for w in caught]
    return code, err


def _csvs(directory) -> dict:
    return {path.name: path.read_bytes() for path in sorted(directory.glob("*.csv"))}


def test_cases_cover_every_edge_and_subcommand():
    assert {sub for sub, _, _, _ in CASES} == set(SUBCOMMANDS)
    edge_keys = [keys for _, keys, _, literal in CASES if not literal]
    for edge in GRID_EDGES + EDGES + [edge for _, edge in COUNT_EDGES]:
        assert any(edge.items() <= keys.items() for keys in edge_keys), edge
    assert any(flag and keys["dnr_db_start"] < 0 for _, keys, flag, _ in CASES)
    literals = {(key, value) for _, keys, _, literal in CASES if literal
                for key, value in keys.items() if value in LITERALS}
    assert {(key, value) for key in CONFIG_KEYS for value in LITERALS} <= literals


def test_case_ids_are_unique():
    assert len(set(IDS)) == len(IDS) == len(CASES)


@pytest.mark.parametrize("subcommand,keys,dnr_flag,literal", CASES, ids=IDS)
def test_accepted_input_gives_a_result_or_a_typed_error(tmp_path, monkeypatch, capsys,
                                                        subcommand, keys, dnr_flag, literal):
    config = dict(keys)
    argv = [subcommand]
    if dnr_flag:  # "--dnr-db -10:60:2" would read the range as a missing value
        span = [config.pop(f"dnr_db_{end}") for end in ("start", "stop", "step")]
        argv.append("--dnr-db=" + ":".join(map(str, span)))  # str is repr for a float
    path = tmp_path / "case.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
    first = tmp_path / "first"
    code, err = _run(argv + ["--config", path, "--out", first], tmp_path / "cache", monkeypatch,
                     capsys)
    assert code in EXIT_CODES, err
    huge = [key for key, value in keys.items() if str(HUGE) in str(value)]
    if huge and not literal:
        assert code == 2 and f"vlcsim: config error: {huge[0]}: " in err, err
        assert not first.exists()
    if code != 0:  # a self-test failure, or one line naming the typed error
        assert code == 3 or err.splitlines()[-1].startswith("vlcsim: "), err
        assert not _csvs(first) and not list(first.glob("*.manifest.txt"))
        # every edge's key is in its domain, so a config error on a grid key is a budget
        for key, builders in GRID_BUILDERS.items():
            assert literal or f"config error: {key}:" not in err or subcommand in builders, err
        return
    manifest = first / f"{subcommand}.manifest.txt"
    if subcommand == "selftest":  # writes no manifest and no CSV
        assert not manifest.exists() and not _csvs(first)
        return
    second = tmp_path / "second"
    code, err = _run([subcommand, "--config", manifest, "--out", second], tmp_path / "cache2",
                     monkeypatch, capsys)
    assert code == 0, err
    written = _csvs(first)
    assert written and written == _csvs(second)
