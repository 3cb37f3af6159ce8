"""One integer basis of N(A^T) for the whole package.

`matrix.left_null_rows` is the basis of N(A^T) that `subspace_bases`
gives, each vector as its primitive integer multiple; every module but
matrix.py reads N(A^T) through it, which a stdlib `ast` scan of
`src/karalcp` enforces.
"""

import ast
import random
from math import gcd
from pathlib import Path

from karalcp.matrix import (
    RationalMatrix,
    integer_row,
    inverse,
    left_null_rows,
    rank,
    subspace_bases,
)
from conftest import rand_fraction, rand_matrix

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "karalcp"


def reference(a: RationalMatrix) -> tuple:
    return tuple(tuple(integer_row(w)[0]) for w in subspace_bases(a).left_null.basis)


def _fraction_matrix(rng: random.Random, rows: int, cols: int) -> RationalMatrix:
    return RationalMatrix.from_rows([[rand_fraction(rng) for _ in range(cols)]
                                     for _ in range(rows)])


def test_left_null_rows_match_subspace_bases():
    """Seeded fractional F G products of every rank, rectangular both ways,
    the zero matrix, and invertible inputs, whose basis is empty."""
    rng = random.Random(31)
    cases = [RationalMatrix.zeros(m, p) for m in (1, 3) for p in (1, 4)]
    for _ in range(400):
        m, p = rng.randint(1, 5), rng.randint(1, 5)
        r = rng.randint(1, min(m, p))
        cases.append(_fraction_matrix(rng, m, r) @ _fraction_matrix(rng, r, p))
    invertible = [a for a in (rand_matrix(rng, rng.randint(1, 5)) for _ in range(60))
                  if inverse(a) is not None]
    for a in cases + invertible:
        got = left_null_rows(a)
        assert got == reference(a), a
        assert len(got) == a.rows - rank(a)
        for w in got:
            assert gcd(*w) == 1
            assert all(sum(a.data[i][j] * w[i] for i in range(a.rows)) == 0
                       for j in range(a.cols))
    assert invertible and all(left_null_rows(a) == () for a in invertible)
    assert left_null_rows(RationalMatrix.zeros(3, 4)) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    fractional = [a for a in cases if any(x.denominator > 1 for row in a.data for x in row)]
    assert sum(0 < rank(a) < a.rows for a in fractional) >= 100
    assert any(max(map(abs, w)) > 1 for a in fractional for w in left_null_rows(a))


def left_null_uses(source: str) -> list[int]:
    """The line of every name, import or attribute `subspace_bases`, and of
    every attribute `left_null`, in source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Name) and node.id == "subspace_bases"
                  or isinstance(node, ast.alias) and node.name == "subspace_bases"
                  or isinstance(node, ast.Attribute)
                  and node.attr in ("subspace_bases", "left_null"))


def test_scan_flags_every_use():
    source = ("from .matrix import subspace_bases\nb = subspace_bases(a)\n"
              "w = b.left_null.basis\nm.subspace_bases(a)\nleft_null_rows(a)\n")
    assert left_null_uses(source) == [1, 2, 3, 4]


def test_only_matrix_reads_the_fraction_left_null_basis():
    found = {path.name: left_null_uses(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.rglob("*.py")) if path.name != "matrix.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
