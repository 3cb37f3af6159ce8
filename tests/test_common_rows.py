"""One common denominator per matrix for the whole package.

`matrix.common_rows(m)` is (alpha, alpha m as rows of ints), alpha the lcm
of every denominator of m; the generalized inverses and the P# column test
read it, and no module but matrix.py computes an lcm, which a stdlib `ast`
scan of `src/karalcp` enforces.
"""

import ast
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

from karalcp.matrix import RationalMatrix, common_rows
from conftest import rand_fraction

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "karalcp"


def test_common_rows_match_the_fraction_entries():
    """Seeded rectangular matrices with zero rows and rows of unlike
    denominators: alpha is the lcm of all denominators, every entry is
    Fraction(t, alpha) and the result is memoized per matrix."""
    rng = random.Random(32)
    cases = [RationalMatrix.zeros(m, p) for m in (1, 3) for p in (1, 4)]
    cases.append(RationalMatrix.from_ints([[1, -2, 3], [0, 0, 0]]))
    for _ in range(300):
        m, p = rng.randint(1, 5), rng.randint(1, 5)
        den = [rng.randint(1, 7) for _ in range(m)]
        cases.append(RationalMatrix.from_rows(
            [[0] * p if rng.random() < 0.2 else [rand_fraction(rng, 6, d) for _ in range(p)]
             for d in den]))
    unlike = 0
    for a in cases:
        alpha, rows = common_rows(a)
        assert alpha == lcm(*(t.denominator for row in a.data for t in row))
        assert len(rows) == a.rows and all(len(row) == a.cols for row in rows)
        assert all(type(t) is int for row in rows for t in row)
        assert [[Fraction(t, alpha) for t in row] for row in rows] == a.data, a
        assert common_rows(a) is common_rows(a)
        dens = {lcm(*(t.denominator for t in row)) for row in a.data}
        unlike += len(dens) > 1 and any(not any(row) for row in a.data)
    assert unlike >= 20
    assert common_rows(RationalMatrix.from_rows([["1/2", 0], [0, "2/3"]])) == (6, [[3, 0], [0, 4]])


def lcm_uses(source: str) -> list[int]:
    """The line of every import of `lcm` and every attribute `.lcm`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.alias) and node.name == "lcm"
                  or isinstance(node, ast.Attribute) and node.attr == "lcm")


def test_scan_flags_every_use():
    source = ("from math import lcm\nfrom math import gcd, lcm as l\nimport math\n"
              "c = math.lcm(2, 3)\ncommon_rows(a)\n")
    assert lcm_uses(source) == [1, 2, 4]


def test_only_matrix_computes_a_common_denominator():
    found = {path.name: lcm_uses(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.rglob("*.py")) if path.name != "matrix.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert lcm_uses((PACKAGE / "matrix.py").read_text(encoding="utf-8"))
