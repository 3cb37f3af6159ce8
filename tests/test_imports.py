"""No module imports a name it never uses.

A stdlib `ast` scan: every name an import binds must appear as a name
somewhere else in the same module.  Package `__init__.py` files are
skipped, since their imports are the public re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "scripts")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(al.asname or al.name.partition(".")[0] for al in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(al.asname or al.name for al in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_scan_flags_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c, d as e\nprint(c)\n") == ["e", "os"]
    assert unused_imports("from __future__ import annotations\nimport x.y\nx.y()\n") == []


def test_no_unused_imports():
    found = {}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            names = unused_imports(path.read_text(encoding="utf-8"))
            if names:
                found[str(path.relative_to(ROOT))] = names
    assert found == {}
