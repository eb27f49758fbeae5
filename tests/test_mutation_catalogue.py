"""The mutation catalogue, tools/mutants.json, still fits the code and the suite.

Each mutant's snippets occur once in their file, and each test it names as a
killer exists, so a change that moves mutated code or renames a killer updates
the catalogue with it. `python tools/mutation.py` runs the mutants.
"""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = json.loads((ROOT / "tools" / "mutants.json").read_text())


def defined_tests(path: Path) -> set[str]:
    """The node ids, without parameters, of one test file's test functions."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            names |= {f"{node.name}::{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef)}
        elif isinstance(node, ast.FunctionDef):
            names.add(node.name)
    return {f"tests/{path.name}::{name}" for name in names}


def test_each_snippet_occurs_once_in_its_file():
    assert len({mutant["id"] for mutant in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        text = (ROOT / "src" / "vlcsim" / mutant["file"]).read_text()
        for find, _ in mutant["edits"]:
            assert text.count(find) == 1, (mutant["id"], find)


def test_each_expected_killer_exists():
    tests = set().union(*map(defined_tests, (ROOT / "tests").glob("test_*.py")))
    for mutant in MUTANTS:
        assert mutant["kills"] and set(mutant["kills"]) <= tests, mutant["id"]
