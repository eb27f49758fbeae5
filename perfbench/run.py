"""vlcsim benchmark: CLI workloads timed end to end, or layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a vlcsim checkout; the package is imported from
the checkout's `src/`, nothing is installed. Every operation is one
`python -m vlcsim.cli` child process, started one at a time with
`--workers 1`. With `--trace 1` the workload's steps also run inside this
process under timed wrappers (layers.py), and the result holds the
per-layer metrics instead of the end-to-end ones.

Every CSV a workload writes is checked: line counts always; SHA-256
digests against golden.json when the seed and the NumPy version are the
recorded ones; otherwise every pass must match the first byte for byte
and a rerun from the written manifests must reproduce every CSV. A
mismatch counts the operation as failed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Standard error gets the
environment record and a table of every metric with its unit, end-to-end
and (with --trace 1) per-layer; `.perfbench/` in the checkout gets the same
as JSON plus the spans of the traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

from harness import (ROOT, SETUP_REPEATS, SRC, VERSION, WORK, WORKLOADS, BenchmarkError,
                     OutputCheck, Runner, Workload, end_to_end, load_golden, median)


def run_end_to_end(workload: Workload, seed: int, seconds: float, check: OutputCheck) -> dict:
    runner = Runner(workload, seed, check)
    try:
        setups: list[float] = []
        walls: list[float] = []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start + median(walls) <= seconds:
            # setups are spread over the run so that their median, like the
            # passes', does not hang on one moment of a shared host
            if len(setups) < SETUP_REPEATS:
                setups.append(runner.setup())
            wall, _, out = runner.run_pass()
            walls.append(wall)
        setups += [runner.setup() for _ in range(SETUP_REPEATS - len(setups))]
        if workload.setup[0] is not VERSION:
            runner.rerun_from_manifests(workload.setup, runner.setup_out)
        runner.rerun_from_manifests(workload.steps, out)
    finally:
        runner.close()
    return {"attempted": runner.attempted, "failed": runner.failed,
            "metrics": end_to_end(runner, setups, walls),
            "detail": {"passes": len(walls), "pass_wall_s": walls, "setup_wall_s": setups}}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(workload: str, seed: int, numpy: str, golden: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        # NEP 19: Generator streams may change between NumPy versions, so
        # results taken under another version than the golden digests do
        # not compare with them
        "golden_numpy": golden["numpy"],
        "comparable": numpy == golden["numpy"],
    }


def report(env: dict, result: dict, trace: int):
    def say(text):
        print(f"[perfbench] {text}", file=sys.stderr)

    say(f"{env['workload']} seed={env['seed']} trace={trace} python={env['python']} "
        f"numpy={env['numpy']} nproc={env['nproc']} cpu={env['cpu']!r} commit={env['commit']}")
    if not env["comparable"]:
        say(f"NOT COMPARABLE: NumPy {env['numpy']} differs from {env['golden_numpy']}, "
            "the version the golden digests were taken under")
    for table in ("metrics", "also"):
        for name, (value, unit) in result.get(table, {}).items():
            say(f"  {name:30s} {value:>16.6g} {unit}")
    for line in result.get("notes", ()):
        say(line)
    say(f"samples: {result['detail']['passes']} passes; attempted={result['attempted']} "
        f"failed={result['failed']}")


def save(env: dict, result: dict, trace: int):
    def as_json(table):
        return {k: {"value": v, "unit": u} for k, (v, u) in table.items()}

    record = {"environment": env, "attempted": result["attempted"], "failed": result["failed"],
              "metrics": as_json(result["metrics"]), "also": as_json(result.get("also", {})),
              "detail": result.get("detail", {})}
    WORK.mkdir(exist_ok=True)
    path = WORK / f"result-{env['workload']}-seed{env['seed']}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="vlcsim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="seed passed to vlcsim (default: the golden one)")
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vlcsim" / "cli.py").is_file():
        print(f"perfbench: no vlcsim sources in {SRC}", file=sys.stderr)
        return 2
    golden = load_golden()
    seed = golden["seed"] if args.seed is None else args.seed
    if seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2

    import numpy  # the same interpreter and NumPy the children run
    workload = WORKLOADS[args.workload]
    check = OutputCheck(workload, seed, golden, numpy.__version__)
    try:
        if args.trace:
            import layers
            result = layers.run_traced(workload, seed, args.seconds, check, golden)
        else:
            result = run_end_to_end(workload, seed, args.seconds, check)
    except BenchmarkError as exc:
        print(f"perfbench: benchmark error: {exc}", file=sys.stderr)
        return 1
    env = environment(workload.name, seed, numpy.__version__, golden)
    report(env, result, args.trace)
    save(env, result, args.trace)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
