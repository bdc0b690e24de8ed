"""The shape of tools/mutants.py's table, and the tool on a fixture tree;
the table itself is run by the tool, not here."""

import importlib.util
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_spec = importlib.util.spec_from_file_location("mutants", os.path.join(ROOT, "tools", "mutants.py"))
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_names_are_unique():
    names = [m.name for m in mutants.TABLE]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", mutants.TABLE, ids=lambda m: m.name)
def test_row_applies_to_the_source_and_names_its_tests(mutant):
    with open(os.path.join(ROOT, mutant.file)) as fh:
        assert fh.read().count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.claim
    assert mutant.select
    for arg in mutant.select:
        assert os.path.isfile(os.path.join(ROOT, arg.partition("::")[0])), arg


@pytest.mark.parametrize("name", ["criterion 1", "criterion 3", "criterion 5"])
def test_each_executable_gate_has_a_row(name):
    assert any(m.claim.startswith(name + ":") for m in mutants.TABLE)


@pytest.fixture
def tree(tmp_path):
    """A source tree with one module and one test of it."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "fixture_mod.py").write_text("def add(a, b):\n    return a + b\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_fixture.py").write_text(
        "from fixture_mod import add\n\n\ndef test_add():\n    assert add(2, 3) == 5\n")
    return str(tmp_path)


@pytest.mark.parametrize("old,new,outcome", [
    ("return a + b", "return a - b", "killed"),
    ("return a + b", "return b + a", "survived"),
    ("return a * b", "return a - b", "error"),   # old text not found
])
def test_fixture_mutant(tree, old, new, outcome):
    mutant = mutants.Mutant("fixture", "src/fixture_mod.py", old, new,
                            ("tests/test_fixture.py",), "add adds")
    result = mutants.run(tree, mutant)
    assert result["outcome"] == outcome, result
    assert (result["name"], result["file"], result["claim"]) == (
        "fixture", "src/fixture_mod.py", "add adds")
    with open(os.path.join(tree, "src", "fixture_mod.py")) as fh:
        assert fh.read() == "def add(a, b):\n    return a + b\n"   # the copy was mutated
