"""Every public name of the package has a user.

A name in a module's `__all__` must be read somewhere in `src/`, `tests/`
or `scripts/`: as a name, an attribute or an import.  Its own `def`,
`class` or assignment, and its string in `__all__`, do not count, so a
function that nothing calls and nothing tests fails here.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import hypb

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "scripts")


def _references() -> set:
    """Names read anywhere in the scanned trees (loads, attributes, imports)."""
    seen = set()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    seen.add(node.id)
                elif isinstance(node, ast.Attribute):
                    seen.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    seen.update(alias.name for alias in node.names)
    return seen


def test_every_exported_name_is_referenced():
    names = ["hypb"] + [f"hypb.{m.name}" for m in pkgutil.iter_modules(hypb.__path__)]
    used = _references()
    unused = {}
    for name in names:
        exported = set(getattr(importlib.import_module(name), "__all__", ()))
        if exported - used:
            unused[name] = sorted(exported - used)
    assert not unused, f"exported names that nothing uses: {unused}"
