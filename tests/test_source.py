"""Checks on the package source itself."""
import ast
from pathlib import Path

import pathspectra

SOURCE = Path(pathspectra.__file__).parent


def _private_functions_without_a_caller(root):
    """(file, name, line) of every function or method named with one leading
    underscore (dunders excluded) that no `Name` or `Attribute` node in the
    package's code refers to, outside the function's own body."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}
    names = {}  # name -> the ids of the nodes that refer to it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                names.setdefault(node.attr, set()).add(id(node))
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
