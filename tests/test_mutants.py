"""Self-test of tests/mutants.py on a tree of one function and one test, and
a check that every entry of the catalogue still finds its text and names
tests that exist."""
import mutants

TREE = {
    "src/tiny.py": "def add(a, b):\n    return a + b\n",
    "tests/test_tiny.py": "from tiny import add\n\n\ndef test_add():\n    assert add(2, 2) == 4\n",
}


def write_tree(root):
    for name, text in TREE.items():
        (root / name).parent.mkdir(exist_ok=True)
        (root / name).write_text(text, encoding="utf-8")


def test_every_catalogue_text_occurs_once():
    assert mutants.stale(mutants.ROOT, mutants.MUTANTS) == []


def test_every_catalogue_selection_names_a_test_that_exists(tmp_path):
    assert mutants.unresolved(mutants.ROOT, mutants.MUTANTS) == []
    write_tree(tmp_path)
    named = [("src/tiny.py", "a + b", "a - b", selection) for selection in (
        "tests/test_tiny.py::test_add[x] tests/test_tiny.py", "tests/test_tiny.py::test_sub",
        "tests/test_none.py::test_add")]
    assert mutants.unresolved(tmp_path, named) == [
        "tests/test_tiny.py::test_sub: tests/test_tiny.py defines no test_sub",
        "tests/test_none.py::test_add: no file tests/test_none.py"]


def test_a_survivor_and_a_stale_text_are_reported(tmp_path):
    write_tree(tmp_path)
    killed = ("src/tiny.py", "a + b", "a - b", "tests/test_tiny.py")
    survived = ("src/tiny.py", "a + b", "b + a", "tests/test_tiny.py::test_add")
    found = mutants.survivors(tmp_path, [killed, survived])
    assert [line.split()[0] for line in found] == ["survived"]
    assert found[0].endswith("src/tiny.py: 'a + b' -> 'b + a'")
    assert mutants.stale(tmp_path, [killed, ("src/tiny.py", "a", "b", "")]) == [
        "src/tiny.py: 'a' occurs 3 times"]
    assert {name: (tmp_path / name).read_text(encoding="utf-8") for name in TREE} == TREE
