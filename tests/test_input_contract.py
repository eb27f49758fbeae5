"""The accepted-input contract of the CLI.

Every input that argparse and the config parser accept ends in a result or a
typed error with a documented exit code (0, 2, 3, 4 or 5), never a traceback,
and a run that succeeds is reproduced byte for byte from its manifest. The
cases are drawn from a seeded random.Random, so the set is the same on every
run: each edge value below is paired with randomly drawn other keys, and the
grid edges with every subcommand, since each run bounds only the grids it
builds.
"""

import random

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


def _draw_cases(seed: int = 20240601) -> tuple[list[str], list[tuple[str, dict, bool]]]:
    """Ids, and (subcommand, config keys, whether the DNR range goes through --dnr-db=...).

    An id names the subcommand and the edge's keys, not a position, so adding
    an edge renames no other case.
    """
    rng = random.Random(seed)
    pairs = [(sub, edge) for edge in GRID_EDGES for sub in SUBCOMMANDS]
    pairs += [(sub, edge) for edge in EDGES for sub in rng.sample(SUBCOMMANDS, 3)]
    pairs += COUNT_EDGES
    return ([f"{sub}-{_edge_id(edge)}" for sub, edge in pairs],
            [(sub, {**_draw_keys(rng), **edge}, rng.random() < 0.5) for sub, edge in pairs])


IDS, CASES = _draw_cases()


def _run(argv, cache_dir, monkeypatch, capsys) -> tuple[int, str]:
    monkeypatch.setenv(v.CACHE_DIR_ENV, str(cache_dir))
    code = main([str(arg) for arg in argv])
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    return code, err


def _csvs(directory) -> dict:
    return {path.name: path.read_bytes() for path in sorted(directory.glob("*.csv"))}


def test_cases_cover_every_edge_and_subcommand():
    assert {sub for sub, _, _ in CASES} == set(SUBCOMMANDS)
    for edge in GRID_EDGES + EDGES + [edge for _, edge in COUNT_EDGES]:
        assert any(edge.items() <= keys.items() for _, keys, _ in CASES), edge
    assert any(flag and keys["dnr_db_start"] < 0 for _, keys, flag in CASES)


def test_case_ids_are_unique():
    assert len(set(IDS)) == len(IDS) == len(CASES)


@pytest.mark.parametrize("subcommand,keys,dnr_flag", CASES, ids=IDS)
def test_accepted_input_gives_a_result_or_a_typed_error(tmp_path, monkeypatch, capsys,
                                                        subcommand, keys, dnr_flag):
    config = dict(keys)
    argv = [subcommand]
    if dnr_flag:  # "--dnr-db -10:60:2" would read the range as a missing value
        span = [config.pop(f"dnr_db_{end}") for end in ("start", "stop", "step")]
        argv.append("--dnr-db=" + ":".join(map(repr, span)))
    path = tmp_path / "case.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
    first = tmp_path / "first"
    code, err = _run(argv + ["--config", path, "--out", first], tmp_path / "cache", monkeypatch,
                     capsys)
    assert code in EXIT_CODES, err
    huge = [key for key, value in keys.items() if str(HUGE) in str(value)]
    if huge:
        assert code == 2 and f"vlcsim: config error: {huge[0]}: " in err, err
        assert not first.exists()
    if code != 0:  # a self-test failure, or one line naming the typed error
        assert code == 3 or err.splitlines()[-1].startswith("vlcsim: "), err
        # every key is in its domain, so a config error on a grid key is a budget
        for key, builders in GRID_BUILDERS.items():
            assert f"config error: {key}:" not in err or subcommand in builders, err
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
