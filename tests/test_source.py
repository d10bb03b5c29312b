"""Checks on the package source itself."""
import ast
from pathlib import Path

import pathspectra

SOURCE = Path(pathspectra.__file__).parent
BENCH = Path(__file__).parent.parent / "bench"

# Closed-form spectra of zoo families that no command or bench script reads;
# they stay in `zoo`, next to the families they describe, as the tests' oracles.
UNREAD_CLOSED_FORMS = {"simplex_spectrum", "cube_spectrum", "crosspoly_monotone",
                       "s_hypersimplex_total", "product_simplices_spectrum"}


def _parse(root):
    return {path.name: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}


def _references(trees):
    """name -> the ids of the `Name` and `Attribute` nodes that refer to it."""
    names = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                names.setdefault(node.attr, set()).add(id(node))
    return names


def _private_functions_without_a_caller(root):
    """(file, name, line) of every function or method named with one leading
    underscore (dunders excluded) that no `Name` or `Attribute` node in the
    package's code refers to, outside the function's own body."""
    trees = _parse(root)
    names = _references(trees)
    unused = []
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                inside = {id(n) for n in ast.walk(node)}
                if not names.get(node.name, set()) - inside:
                    unused.append((file, node.name, node.lineno))
    return unused


def test_every_private_function_has_a_caller_in_the_package():
    """A private helper that only tests call belongs with the tests."""
    assert _private_functions_without_a_caller(SOURCE) == []


def test_the_caller_check_sees_an_unused_helper(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    return 1\n\n\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else _used()\n\n\n"
        "class K:\n    def _method(self):\n        return self._method\n\n"
        "    def __repr__(self):\n        return ''\n")
    (tmp_path / "b.py").write_text("from a import _recursive\n\nx = _recursive  # _method\n")
    assert _private_functions_without_a_caller(tmp_path) == [("a.py", "_method", 10)]


def _public_names_without_a_reader(root, bench, exempt=frozenset()):
    """(file, name, line) of every public top-level function or class of the
    package that is not exempt, not imported by its `__init__.py`, not named
    in `bench`'s scripts, and not named by a `Name` or `Attribute` node in
    the package's code outside its own body."""
    trees = _parse(root)
    names = _references(trees)
    exported = {alias.asname or alias.name
                for node in ast.walk(trees["__init__.py"]) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    read_elsewhere = set(exempt) | exported | set(_references(_parse(bench)))
    unread = []
    for file, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in read_elsewhere):
                inside = {id(n) for n in ast.walk(node)}
                if not names.get(node.name, set()) - inside:
                    unread.append((file, node.name, node.lineno))
    return unread


def test_every_public_name_has_a_reader_outside_the_tests():
    """A public function or class that only tests read belongs with the tests."""
    assert _public_names_without_a_reader(SOURCE, BENCH, UNREAD_CLOSED_FORMS) == []


def test_the_reader_check_sees_a_name_only_tests_read(tmp_path):
    package, bench = tmp_path / "package", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "__init__.py").write_text("from .a import Exported\n")
    (package / "a.py").write_text(
        "class Exported:\n    pass\n\n\n"
        "def called():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else called()\n\n\n"
        "def benched():\n    return 2\n\n\n"
        "def exempt():\n    return 3\n\n\n"
        "def _private():\n    return 4\n")
    (package / "b.py").write_text("# recursive\n")
    (bench / "run.py").write_text("from package import a\n\na.benched()\n")
    assert _public_names_without_a_reader(package, bench, {"exempt"}) == [
        ("a.py", "recursive", 9)]
