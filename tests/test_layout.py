"""Every engine module has a user outside the tests.

A module under ``src/repro`` that only tests import is dead weight the
engine still carries.  A file *uses* a module when it imports it, or
imports a name that a package ``__init__`` re-exports from it (eagerly or
through a lazy name table).  Package ``__init__`` files and files that are
themselves unused do not count, so a module only reachable from another
orphan is an orphan too.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
USER_DIRS = ("src", "bench", "benchmarks", "examples", "tools")

#: Today's orphans.  ``worlds`` (the possible-worlds oracle) loads through the package's lazy
#: name table, and ``oracle`` / ``server`` are public service entry points
#: nothing in the repo calls.
ALLOWED_ORPHANS = {
    "repro.probabilistic.worlds",
    "repro.service.oracle",
    "repro.service.server",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _exports(tree: ast.Module, modules: set[str]) -> dict[str, str]:
    """name -> defining module, for the names a package ``__init__`` re-exports."""
    out: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in modules:
            out.update({a.asname or a.name: node.module for a in node.names})
        elif isinstance(node, ast.Dict):  # a lazy {name: "module"} table
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and isinstance(value, ast.Constant):
                    if value.value in modules:
                        out[key.value] = value.value
    return out


def _used(tree: ast.Module, modules: set[str], exports: dict) -> set[str]:
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.add(node.module)
            for alias in node.names:
                out.add(f"{node.module}.{alias.name}")
                out.add(exports.get(node.module, {}).get(alias.name, ""))
    return out & modules


def orphans() -> set[str]:
    files = {
        path: ast.parse(path.read_text())
        for top in USER_DIRS
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    packages = {_module_name(p) for p in files if p.name == "__init__.py" and SRC in p.parents}
    modules = {_module_name(p) for p in files if SRC in p.parents} - packages
    exports = {
        _module_name(p): _exports(tree, modules)
        for p, tree in files.items()
        if p.name == "__init__.py" and SRC in p.parents
    }
    users = {
        (_module_name(p) if SRC in p.parents else str(p)): _used(tree, modules, exports)
        for p, tree in files.items()
        if p.name != "__init__.py"
    }
    dead: set[str] = set()
    while True:
        alive = {m for user, used in users.items() if user not in dead for m in used - {user}}
        newly = modules - alive - dead
        if not newly:
            return dead
        dead |= newly


def test_every_module_has_a_user_outside_the_tests():
    assert orphans() == ALLOWED_ORPHANS
