"""Rules every library module must follow, checked on its source."""

import ast
from pathlib import Path

import toricmirror


def test_no_assert_statements():
    # python -O strips assert statements, so no check may rely on one
    paths = sorted(Path(toricmirror.__file__).parent.rglob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_lattice_is_integer_only():
    # every exact linear solve goes through the integer Hermite normal form
    path = Path(toricmirror.__file__).parent / "lattice.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "fractions" not in modules


def test_public_names_resolve():
    names = toricmirror.__all__
    assert [n for n in names if not hasattr(toricmirror, n)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
