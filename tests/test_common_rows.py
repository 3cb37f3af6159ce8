"""One common denominator per matrix for the whole package.

`matrix.common_rows(m)` is (alpha, alpha m as rows of ints), alpha the lcm
of every denominator of m, and it is the only integer form of a matrix:
the kernel, the LCP block table, the class tests and the generalized
inverses all read it.  Stdlib `ast` scans of `src/karalcp` enforce that
no module but matrix.py computes an lcm, that no module, matrix.py
included, scales a matrix's rows one by one (`integer_row` on an
expression that reads `.data`), and that no module names the retired
per-row form `integer_rows`.
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


def integer_rows_names(source: str) -> list[int]:
    """The line of every name, attribute, import or definition called
    `integer_rows`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Name) and node.id == "integer_rows"
                  or isinstance(node, ast.Attribute) and node.attr == "integer_rows"
                  or isinstance(node, ast.alias) and node.name == "integer_rows"
                  or isinstance(node, ast.FunctionDef) and node.name == "integer_rows")


def data_rows_scaled(source: str) -> list[int]:
    """The line of every call of `integer_row` with an argument that reads
    an attribute `.data`, or inside a loop or comprehension that iterates
    over an expression that reads one."""
    def reads_data(tree):
        return any(isinstance(node, ast.Attribute) and node.attr == "data" for node in ast.walk(tree))

    def row_scalings(tree):
        return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                and (isinstance(node.func, ast.Name) and node.func.id == "integer_row"
                     or isinstance(node.func, ast.Attribute) and node.func.attr == "integer_row")]

    tree = ast.parse(source)
    found = {call.lineno for call in row_scalings(tree)
             if any(reads_data(arg) for arg in [*call.args, *(k.value for k in call.keywords)])}
    for node in ast.walk(tree):
        if (isinstance(node, ast.For) and reads_data(node.iter)
                or isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp))
                and any(reads_data(gen.iter) for gen in node.generators)):
            found.update(call.lineno for call in row_scalings(node))
    return sorted(found)


def test_integer_form_scans_flag_every_use():
    source = ("from .matrix import integer_rows\nrows = matrix.integer_rows(a)\n"
              "def integer_rows(m):\n    pass\nx = integer_rows\n"
              "integer_row(a.data[0])\nmatrix.integer_row([t for t in m.data[i]])\n"
              "integer_row(q)\ninteger_row(row=a.data[1])\nfor row in a.data:\n"
              "    integer_row(row)\nb = [integer_row(r)[0]\n     for r in m.data]\n"
              "for w in null:\n    integer_row(w)\n")
    assert integer_rows_names(source) == [1, 2, 3, 5]
    assert data_rows_scaled(source) == [6, 7, 9, 11, 12]


def test_one_integer_form_per_matrix():
    """No module names `integer_rows` or scales rows of a matrix's `.data`
    with `integer_row`."""
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.rglob("*.py"))}
    assert {name: lines for name, src in sources.items() if (lines := integer_rows_names(src))} == {}
    assert {name: lines for name, src in sources.items() if (lines := data_rows_scaled(src))} == {}
