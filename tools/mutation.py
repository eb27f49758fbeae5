"""Run the mutation catalogue: every mutant of src/vlcsim against the tier-1 tests.

    python tools/mutation.py

Copies the checkout, without .git and caches, to a temporary directory,
checks that the unmutated copy passes, then applies each mutant in
tools/mutants.json in turn and runs tier-1 once (python -m pytest -q -W error)
to record which tests fail. The catalogue's own guard,
tests/test_mutation_catalogue.py, is left out: a mutant removes its snippet,
so the guard would fail under nearly every mutant and mask what the other
tests catch.
Prints the NumPy version and the log2 dispatch target, since the byte pins
depend on both, each mutant's kills, the survivors, the expected killers that
passed, and each test's kills. Exits 1 if a mutant survives or an expected
killer passes. Standard library only; pytest runs in child processes.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = Path(__file__).resolve().parent / "mutants.json"
PACKAGE = Path("src") / "vlcsim"
GUARD = Path("tests") / "test_mutation_catalogue.py"
TIMEOUT_S = 600  # a mutant that hangs tier-1 this long counts as killed

# a pytest plugin that appends each failed test's node id to the file named by
# the environment variable KILLS; a module that fails to import fails as a whole
RECORDER = """import os
def _record(report):
    if report.failed:
        with open(os.environ["KILLS"], "a") as fh:
            fh.write(report.nodeid + "\\n")
pytest_runtest_logreport = pytest_collectreport = _record
"""

PROBE = """import numpy, vlcsim
from numpy.lib.introspect import opt_func_info
info = opt_func_info(func_name="log2", signature="float64")
print(numpy.__version__, " ".join(s["current"] for f in info.values() for s in f.values()),
      vlcsim.__file__)
"""


def function_of(node_id: str) -> str:
    """The node id without its parameters: the test function that holds the case."""
    return re.sub(r"\[.*\]$", "", node_id)


def apply(mutant: dict, package: Path) -> tuple[Path, str]:
    """Write the mutant into package; returns the file and its original text."""
    path = package / mutant["file"]
    original = text = path.read_text()
    for find, replace in mutant["edits"]:
        if original.count(find) != 1:
            raise SystemExit(f"{mutant['id']}: snippet occurs {original.count(find)} times "
                             f"in {mutant['file']}: {find!r}")
        text = text.replace(find, replace)
    path.write_text(text)
    return path, original


def run_tier1(copy: Path, env: dict) -> tuple[set[str], float]:
    kills = copy / "kills.txt"
    kills.write_text("")
    start = time.perf_counter()
    try:
        subprocess.run([sys.executable, "-m", "pytest", "-q", "-W", "error", "-p", "recorder",
                        "-p", "no:cacheprovider", f"--ignore={GUARD}"],
                       cwd=copy, env={**env, "KILLS": str(kills)}, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
        failed = set(kills.read_text().splitlines())
    except subprocess.TimeoutExpired:
        failed = {"timeout"}
    return failed, time.perf_counter() - start


def main() -> int:
    mutants = json.loads(CATALOGUE.read_text())
    with tempfile.TemporaryDirectory(prefix="vlcsim-mutants-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".perfbench", ".benchmarks", "vlcsim-out"))
        (copy / "recorder.py").write_text(RECORDER)
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPATH": f"{copy}:{copy / 'src'}"}
        probe = subprocess.run([sys.executable, "-c", PROBE], cwd=copy, env=env,
                               capture_output=True, text=True, check=True).stdout.split()
        if not Path(probe[-1]).is_relative_to(copy):
            raise SystemExit(f"the copy imports vlcsim from {probe[-1]}")
        print(f"NumPy {probe[0]}, log2 dispatch {' '.join(probe[1:-1])}, "
              f"{len(mutants)} mutants")
        failed, seconds = run_tier1(copy, env)
        if failed:
            raise SystemExit(f"the unmutated checkout fails {sorted(failed)}")
        print(f"unmutated: tier-1 passes ({seconds:.1f} s)")

        by_test = defaultdict(set)
        survivors, missed = [], []
        total = time.perf_counter()
        for mutant in mutants:
            path, original = apply(mutant, copy / PACKAGE)
            failed, seconds = run_tier1(copy, env)
            path.write_text(original)
            functions = {function_of(node) for node in failed}
            for function in functions:
                by_test[function].add(mutant["id"])
            missed += [(mutant["id"], test) for test in mutant["kills"] if test not in functions]
            if not failed:
                survivors.append(mutant["id"])
            print(f"{mutant['id']:34} {len(failed):4} cases in {len(functions):3} tests "
                  f"({seconds:.1f} s)", flush=True)
        print(f"pass over {len(mutants)} mutants: {time.perf_counter() - total:.0f} s")
        print(f"killed {len(mutants) - len(survivors)} of {len(mutants)}; "
              f"survivors: {' '.join(survivors) or 'none'}")
        print("expected killers that passed: "
              + ("; ".join(f"{m} by {t}" for m, t in missed) or "none"))
        print("kills per test:")
        for test in sorted(by_test):
            print(f"  {test} ({len(by_test[test])}): {' '.join(sorted(by_test[test]))}")
    return 1 if survivors or missed else 0


if __name__ == "__main__":
    sys.exit(main())
