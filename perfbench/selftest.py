"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

1. A flipped byte in one output CSV counts as a failed operation, both
   against the golden digests and against a rerun from the manifests.
2. A different seed changes the inputs (every CSV digest) but not the layer
   counts, and the counts are the ones recorded in golden.json.
3. One command prints every metric of BENCHMARK.json by name with its unit,
   and the result line holds exactly the metrics of its mode.
4. Without the vlcsim sources the benchmark exits non-zero and prints no
   result.

It takes a few minutes and writes only under .perfbench/ in the checkout.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy

import layers
from harness import ROOT, WORK, WORKLOADS, OutputCheck, Runner, fresh_dir, load_golden, run_child

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = load_golden()


def expect(ok: bool, message: str):
    if not ok:
        raise AssertionError(message)


def flipping(name: str):
    """An executor that runs the child, then flips one byte of its CSV `name`."""
    def execute(argv, cache, log):
        outcome = run_child(argv, cache, log)
        path = Path(argv[argv.index("--out") + 1]) / name
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        return outcome
    return execute


def runner_for(workload, seed) -> Runner:
    return Runner(workload, seed, OutputCheck(workload, seed, GOLDEN, numpy.__version__))


def check_flipped_byte():
    workload = WORKLOADS["waveform-csv"]
    runner = runner_for(workload, GOLDEN["seed"])
    try:
        runner.run_pass(flipping("waveform_pwm.csv"))
        expect((runner.attempted, runner.failed) == (1, 1),
               f"golden seed: {runner.failed} of {runner.attempted} operations failed")
    finally:
        runner.close()

    runner = runner_for(workload, GOLDEN["seed"] + 1)
    try:
        _, _, out = runner.run_pass()
        expect(runner.failed == 0, "other seed: the untouched pass failed")
        runner.rerun_from_manifests(workload.steps, out, flipping("waveform_biasing.csv"))
        expect((runner.attempted, runner.failed) == (2, 1),
               f"other seed: {runner.failed} of {runner.attempted} operations failed")
    finally:
        runner.close()


def traced_pass(workload, seed):
    """Layer counts and CSV digests of one traced in-process pass."""
    runner = runner_for(workload, seed)
    try:
        if workload.warm:
            runner.setup()
        tracer = layers.Tracer(workload.name)
        with layers.installed(tracer):
            runner.run_pass(layers.in_process(tracer))
        expect(runner.failed == 0, f"{workload.name} seed {seed}: an operation failed")
    finally:
        runner.close()
    metrics = layers.pass_metrics(tracer)
    counts = {name: metrics[name] for name, unit in layers.PER_LAYER.items()
              if unit in layers.EXACT_UNITS and name in metrics}
    by_step = sum((calls for calls in tracer.steps.values()), start=Counter())
    expect(by_step == tracer.calls, "per-step calls do not add up to the pass total")
    return counts, runner.check.first


def check_seed_changes_inputs_not_counts():
    layers.import_vlcsim()
    for workload in WORKLOADS.values():
        counts_a, digests_a = traced_pass(workload, GOLDEN["seed"] + 2)
        counts_b, digests_b = traced_pass(workload, GOLDEN["seed"] + 3)
        expect(counts_a == counts_b, f"{workload.name}: counts differ between seeds")
        expect(counts_a == GOLDEN["counts"][workload.name],
               f"{workload.name}: counts differ from golden.json: {counts_a}")
        same = [name for name in digests_a if digests_a[name] == digests_b[name]]
        expect(not same, f"{workload.name}: {same} did not change with the seed")


def run_bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_every_metric_printed():
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    for trace, key, workload in (("1", "per_layer", "warm-grid"),
                                 ("0", "end_to_end", "waveform-csv")):
        proc = run_bench(["--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", trace])
        expect(proc.returncode == 0, f"trace {trace} exited {proc.returncode}: {proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
        expect(result["correct"] and result["failed"] == 0, f"trace {trace}: not correct")
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in BENCH[key]}
        expect(got == want, f"trace {trace}: result metrics differ from BENCHMARK.json")
        if trace == "1":
            table = dict(re.findall(r"^\[perfbench\]\s+(\S+)\s+\S+\s+(\S+)$", proc.stderr, re.M))
            missing = {n: u for n, u in declared.items() if table.get(n) != u}
            expect(not missing, f"not printed with its unit: {missing}")


def check_fails_without_sources():
    bare = fresh_dir(WORK / "bare")
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(["--workload", "cold-sample", "--seed", "1", "--seconds", "10",
                          "--trace", "0"], cwd=bare)
        expect(proc.returncode != 0, "exited 0")
        expect('"metrics"' not in proc.stdout, "printed a result")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    failed = 0
    for check in (check_flipped_byte, check_seed_changes_inputs_not_counts,
                  check_every_metric_printed, check_fails_without_sources):
        try:
            check()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}", flush=True)
        else:
            print(f"ok   {check.__name__}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
