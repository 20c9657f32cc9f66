"""Every public name has a caller that is not a test.

A name in mdlab.__all__ must be read (as a Name or an Attribute) in src/
outside its own definition and mdlab/__init__.py, or anywhere in
scripts/ or perfbench/, or be named in a code span of the README, which
is where a user meets it. A function that only tests call belongs beside
the tests (tests/reference_oracles.py), not in the package.
"""

import ast
import re
from pathlib import Path

import mdlab

ROOT = Path(__file__).resolve().parent.parent


def _references(tree: ast.AST, skip: frozenset = frozenset()) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names - skip


def _defined(stmt: ast.stmt) -> frozenset:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return frozenset({stmt.name})
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return frozenset(t.id for t in targets if isinstance(t, ast.Name))
    return frozenset()


def _reached() -> set:
    reached = set()
    for path in (ROOT / "src" / "mdlab").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            # a definition's own body does not count as a caller of its name
            reached |= _references(stmt, skip=_defined(stmt))
    for folder in ("scripts", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            reached |= _references(ast.parse(path.read_text(encoding="utf-8")))
    for span in re.findall(r"`([^`]+)`", (ROOT / "README.md").read_text(encoding="utf-8")):
        reached |= set(re.findall(r"[A-Za-z_]\w*", span))
    return reached


def test_every_public_name_has_a_caller_outside_the_tests():
    unreached = set(mdlab.__all__) - _reached()
    assert not unreached, f"public names only tests reach: {sorted(unreached)}"
