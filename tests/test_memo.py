"""Only matrix.py touches the per-matrix memo.

Every cached result goes through `matrix.memoized`, so a stdlib `ast` scan
of `src/karalcp` finds the attribute `_cache` (or the string naming it,
as getattr would take it) in `matrix.py` alone.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "karalcp"


def cache_uses(source: str) -> list[int]:
    """The line of every read or write of `_cache` in source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "_cache"
                  or isinstance(node, ast.Constant) and node.value == "_cache")


def test_scan_flags_every_touch():
    source = "a._cache['k'] = 1\nx = a._cache.get('k')\ngetattr(a, '_cache')\nb.cache = 2\n"
    assert cache_uses(source) == [1, 2, 3]


def test_only_matrix_touches_the_cache():
    found = {path.name: cache_uses(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.rglob("*.py")) if path.name != "matrix.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
