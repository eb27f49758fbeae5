"""Workload definitions, child-process execution and output checks."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"
# the seed golden.json's digests and counts are recorded at
GOLDEN_SEED = 12345
# a child still running after this long is killed, and the run stops with
# a benchmark error
CHILD_TIMEOUT_S = 120.0
# setups per end-to-end run; the start-up and population-build times they
# measure spread more between runs than the passes do
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Invocation:
    """One vlcsim CLI call and the CSV files it writes, with their line counts."""

    argv: tuple[str, ...]
    outputs: tuple[tuple[str, int], ...] = ()

    @property
    def subcommand(self) -> str:
        return self.argv[0]


VERSION = Invocation(("--version",))


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple[Invocation, ...]
    steps: tuple[Invocation, ...]
    # warm: every pass reads the cache the setup filled; otherwise every
    # pass starts from an empty cache directory
    warm: bool = False


# Line counts include the header; they depend on the configuration, not the seed.
WORKLOADS = {w.name: w for w in (
    Workload(
        "cold-sample",
        setup=(VERSION,),
        steps=(Invocation(("variance-sweep", "--n-list", "64,256,1024", "--symbols", "10000"),
                          (("variance_profile.csv", 298), ("variance_peaks.csv", 4))),)),
    Workload(
        "warm-grid",
        setup=(Invocation(("papr-sample",), (("papr_population.csv", 10001),)),),
        warm=True,
        steps=(Invocation(("rate-sweep", "--gamma", "auto"), (("rates.csv", 187),)),
               Invocation(("optimize-gamma",), (("gamma_search.csv", 5767),)))),
    Workload(
        "waveform-csv",
        setup=(VERSION,),
        steps=(Invocation(("waveform-demo", "--n", "64", "--symbols", "1000",
                           "--lambda", "0.25", "--gamma", "0.4"),
                          (("waveform_biasing.csv", 256001), ("waveform_pwm.csv", 410001))),)),
)}


class BenchmarkError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def count_lines(path) -> int:
    lines = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            lines += block.count(b"\n")
    return lines


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def cli_argv(inv: Invocation, seed: int, out: Path) -> list[str]:
    if inv is VERSION:
        return list(inv.argv)
    return [*inv.argv, "--seed", str(seed), "--workers", "1", "--out", str(out)]


def rerun_argv(inv: Invocation, out: Path, rerun_out: Path) -> list[str]:
    manifest = out / f"{inv.subcommand}.manifest.txt"
    return [inv.subcommand, "--config", str(manifest), "--workers", "1", "--out", str(rerun_out)]


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    rss_kb: int
    ok: bool


def child_env(cache_dir: Path | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if cache_dir is not None:
        # pinned inside the checkout, whatever the caller's environment says
        env["VLCSIM_CACHE_DIR"] = str(cache_dir)
    return env


def spawn(cmd: list[str], env: dict, log: Path) -> Outcome:
    """Run one child to completion; wall time, user+sys time and peak RSS from wait4."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=fh, stderr=fh,
                                cwd=ROOT, env=env)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if wall >= CHILD_TIMEOUT_S:
        raise BenchmarkError(f"{' '.join(cmd)} ran over {CHILD_TIMEOUT_S} s and was killed")
    ok = proc.returncode == 0 and b"Traceback" not in log.read_bytes()
    return Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, ok)


def run_child(argv: list[str], cache: Path, log: Path) -> Outcome:
    """Execute one vlcsim CLI invocation as `python -m vlcsim.cli`."""
    return spawn([sys.executable, "-m", "vlcsim.cli", *argv], child_env(cache), log)


class OutputCheck:
    """Checks CSVs against line counts, golden digests and the first pass."""

    def __init__(self, workload: Workload, seed: int, golden: dict, numpy: str):
        self.golden = None
        if seed == golden["seed"] and numpy == golden["numpy"]:
            self.golden = golden["digests"][workload.name]
        self.first: dict[str, str] = {}

    def check(self, inv: Invocation, out: Path) -> bool:
        """True when every CSV of `inv` in `out` is as expected."""
        ok = True
        for name, lines in inv.outputs:
            path = out / name
            if not path.is_file() or count_lines(path) != lines:
                ok = False
                continue
            digest = sha256(path)
            if self.golden is not None and digest != self.golden[name]:
                ok = False
            if self.first.setdefault(name, digest) != digest:
                ok = False
        return ok


class Runner:
    """Runs one workload's invocations, counts operations and checks outputs.

    An operation is one CLI invocation; it fails on a non-zero exit, a
    traceback, or a CSV that does not pass the OutputCheck.
    """

    def __init__(self, workload: Workload, seed: int, check: OutputCheck):
        self.workload = workload
        self.seed = seed
        self.check = check
        self.work = fresh_dir(WORK / f"{workload.name}-{os.getpid()}")
        self.cache = self.work / "cache"
        self.attempted = 0
        self.failed = 0
        self.rss_kb = 0
        self.setup_out: Path | None = None
        self.pass_out: Path | None = None
        self._serial = 0

    def new_dir(self, stem: str) -> Path:
        self._serial += 1
        return fresh_dir(self.work / f"{stem}{self._serial}")

    def run(self, invs, out: Path, cache: Path, argv_for, execute=run_child) -> tuple[float, float]:
        """Execute `invs` in order; (summed wall s, summed cpu s)."""
        wall = cpu = 0.0
        for inv in invs:
            res = execute(argv_for(inv), cache, out / f"{inv.subcommand}.log")
            wall += res.wall_s
            cpu += res.cpu_s
            self.rss_kb = max(self.rss_kb, res.rss_kb)
            self.attempted += 1
            if not (res.ok and self.check.check(inv, out)):
                self.failed += 1
        return wall, cpu

    def setup(self) -> float:
        """Run the setup invocations once; a warm workload's cache is refilled."""
        if self.setup_out is not None:
            shutil.rmtree(self.setup_out)
        out = self.setup_out = self.new_dir("setup")
        if self.workload.warm:
            fresh_dir(self.cache)
        wall, _ = self.run(self.workload.setup, out, self.cache,
                           lambda inv: cli_argv(inv, self.seed, out))
        return wall

    def run_pass(self, execute=run_child) -> tuple[float, float, Path]:
        """One pass over the workload's steps: (wall s, cpu s, output dir).

        Only the latest pass's outputs are kept.
        """
        if self.pass_out is not None:
            shutil.rmtree(self.pass_out)
        out = self.pass_out = self.new_dir("pass")
        cache = self.cache if self.workload.warm else fresh_dir(self.work / "cache")
        wall, cpu = self.run(self.workload.steps, out, cache,
                             lambda inv: cli_argv(inv, self.seed, out), execute)
        return wall, cpu, out

    def rerun_from_manifests(self, invs, out: Path, execute=run_child):
        """Rerun `invs` from the manifests in `out` on an empty cache; CSVs must match."""
        rerun_out = self.new_dir("rerun")
        self.run(invs, rerun_out, fresh_dir(self.work / "rerun-cache"),
                 lambda inv: rerun_argv(inv, out, rerun_out), execute)
        shutil.rmtree(rerun_out)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def end_to_end(runner: Runner, setups: list[float], walls: list[float]) -> dict:
    """The end-to-end metrics as name -> (value, unit)."""
    return {
        "wall_s": (median(walls), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (runner.rss_kb / 1024.0, "MB"),
        "ok_ratio": (1.0 - runner.failed / runner.attempted, "ratio"),
    }
