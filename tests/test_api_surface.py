"""Every public name of the package has a user in the program.

A name in a module's `__all__` must be read somewhere in `src/` or
`scripts/`: as a name, an attribute or an import.  Its own `def`, `class`
or assignment, and its string in `__all__`, do not count, and neither do
reads from `tests/`: a function that only its own test calls belongs in
the test, so it fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = ("src", "scripts")


def _trees(root: Path, tops):
    for top in tops:
        for path in sorted((root / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _exported(tree) -> list:
    """The strings of a module's literal `__all__`, or none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _references(root: Path, tops) -> set:
    """Names read anywhere in the given trees (loads, attributes, imports)."""
    seen = set()
    for _, tree in _trees(root, tops):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                seen.update(alias.name for alias in node.names)
    return seen


def unread_exports(root: Path) -> dict:
    """{module path: names} of `__all__` entries under src/ that src/ and scripts/ never read."""
    used = _references(root, PROGRAM)
    unread = {}
    for path, tree in _trees(root, ("src",)):
        missing = sorted(set(_exported(tree)) - used)
        if missing:
            unread[str(path.relative_to(root))] = missing
    return unread


def test_every_exported_name_is_referenced():
    unread = unread_exports(ROOT)
    assert not unread, f"exported names that src/ and scripts/ never read: {unread}"


def test_a_name_read_only_by_its_test_is_reported(tmp_path):
    # negative control: `helper` is exported and read only from tests/
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "scripts").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        '__all__ = ["api", "helper"]\n\n\ndef api():\n    return 1\n\n\n'
        'def helper():\n    return 2\n')
    (tmp_path / "scripts" / "run.py").write_text("from pkg.mod import api\n\napi()\n")
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg import mod\n\n\ndef test_helper():\n    assert mod.helper() == 2\n")
    assert unread_exports(tmp_path) == {"src/pkg/mod.py": ["helper"]}
