"""Determinant- and structure-based matrix classes.

P / P0 / N (with category) / adequate come from exhaustive principal-minor
scans (2^n - 1 exact determinant signs, size-capped) of the integer
matrix B = alpha A (`common_rows`): a 1x1 minor's sign is its diagonal
entry's, and each larger one is one integer elimination of its principal
block.  M-matrices are
decided by the Fiedler-Ptak characterization Z + P (nonsingular) / Z + P0
(singular), which sidesteps the spectral radius entirely, and property c
by "M-matrix and rank A = rank A^2" (zero eigenvalue of index <= 1), and
the H-matrix test by the inverse signs of the comparison matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .geninv import index_at_most_one
from .matrix import RationalMatrix, _eliminate, common_rows, inverse, memoized, nonempty_subsets


class MClass(Enum):
    NOT_M = "NotM"
    SINGULAR_M = "SingularM"
    NONSINGULAR_M = "NonsingularM"


@dataclass(frozen=True)
class StructuralFlags:
    nonnegative: bool
    positive: bool
    z_matrix: bool
    symmetric: bool
    irreducible: bool
    has_nonpositive_row: bool


@dataclass(frozen=True)
class MinorClassReport:
    is_p: bool
    is_p0: bool
    is_n: bool
    n_first_category: bool
    is_adequate: bool


@memoized("flags")
def structural_flags(a: RationalMatrix) -> StructuralFlags:
    a.require_square("structural flags")
    d = a.data
    n = a.rows
    return StructuralFlags(
        nonnegative=all(x >= 0 for row in d for x in row),
        positive=all(x > 0 for row in d for x in row),
        z_matrix=all(d[i][j] <= 0 for i in range(n) for j in range(n) if i != j),
        symmetric=all(d[i][j] == d[j][i] for i in range(n) for j in range(i + 1, n)),
        irreducible=is_irreducible(a),
        has_nonpositive_row=any(all(x <= 0 for x in row) for row in d),
    )


def is_irreducible(a: RationalMatrix) -> bool:
    """Strong connectivity of the digraph with an edge i->j iff a_ij != 0.

    The 1x1 zero matrix counts as reducible; any other 1x1 is irreducible.
    """
    a.require_square("irreducibility")
    n = a.rows
    if n == 1:
        return a.data[0][0] != 0
    adj = [[j for j in range(n) if j != i and a.data[i][j] != 0] for i in range(n)]
    radj = [[] for _ in range(n)]
    for i in range(n):
        for j in adj[i]:
            radj[j].append(i)

    def reaches_all(graph) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in graph[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == n

    return reaches_all(adj) and reaches_all(radj)


@memoized("minors")
def minor_class(a: RationalMatrix) -> MinorClassReport:
    a.require_square("minor classes", scan=True)
    # B = alpha A, alpha > 0: every minor keeps its sign and every row or
    # column block its rank
    rows = common_rows(a)[1]
    is_p = is_p0 = is_n = True
    vanished: list[tuple[int, ...]] = []
    for idx in nonempty_subsets(a.rows):
        if len(idx) == 1:
            d = rows[idx[0]][idx[0]]
        else:
            den, pivots, sign = _eliminate([[rows[i][j] for j in idx] for i in idx], len(idx),
                                           reduced=False)
            d = sign * den if len(pivots) == len(idx) else 0
        if d <= 0:
            is_p = False
        if d < 0:
            is_p0 = False
        if d >= 0:
            is_n = False
        if d == 0:
            vanished.append(idx)
        if not (is_p or is_p0 or is_n):
            break  # nothing can change anymore: adequacy needs is_p0 too
    first_cat = is_n and any(x > 0 for row in a.data for x in row)
    adequate = is_p0 and all(_rows_and_cols_dependent(rows, idx) for idx in vanished)
    return MinorClassReport(is_p, is_p0, is_n, first_cat, adequate)


def _rows_and_cols_dependent(rows: list[list[int]], idx: tuple[int, ...]) -> bool:
    k = len(idx)
    return (len(_eliminate([rows[i] for i in idx], len(rows), reduced=False)[1]) < k
            and len(_eliminate([[row[j] for j in idx] for row in rows], k, reduced=False)[1]) < k)


def is_m_matrix(a: RationalMatrix) -> MClass:
    """Z + P => nonsingular M; Z + P0 (not P) => singular M; else not M."""
    a.require_square("M-matrix test", scan=True)
    flags = structural_flags(a)
    if not flags.z_matrix:
        return MClass.NOT_M
    report = minor_class(a)
    if report.is_p:
        return MClass.NONSINGULAR_M
    if report.is_p0:
        return MClass.SINGULAR_M
    return MClass.NOT_M


def has_property_c(a: RationalMatrix) -> bool:
    """M-matrix whose zero eigenvalue (if any) has index <= 1."""
    if is_m_matrix(a) is MClass.NOT_M:
        return False
    return index_at_most_one(a)


def is_h_matrix_positive_diag(a: RationalMatrix) -> bool:
    """Positive diagonal and the comparison matrix C (|a_ii| on the
    diagonal, -|a_ij| off it) a nonsingular M-matrix.  C is a Z-matrix, and
    a Z-matrix is one iff its inverse exists and is nonnegative (Berman &
    Plemmons, Nonnegative Matrices in the Mathematical Sciences, Thm 6.2.3)."""
    a.require_square("H-matrix test")
    n = a.rows
    if any(a.data[i][i] <= 0 for i in range(n)):
        return False
    inv = inverse(RationalMatrix(n, n, [[t if i == j else -abs(t) for j, t in enumerate(row)]
                                        for i, row in enumerate(a.data)]))
    return inv is not None and all(t >= 0 for row in inv.data for t in row)
