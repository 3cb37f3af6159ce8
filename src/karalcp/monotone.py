"""The monotonicity family.

Each predicate is a closed-form inverse-sign check or LP infeasibility
(the defining implications are homogeneous, so "x_i < 0 somewhere"
scales to "x_i <= -1" exactly); almost monotonicity is lcp_classes' one
simplex-point LP.
"""

from __future__ import annotations

from .geninv import group_inverse, moore_penrose
from .lcp_classes import _left_null, _simplex_point
from .lp import LinearSystem, lp_feasible
from .matrix import RationalMatrix, integer_row, integer_rows, inverse, subspace_bases


def _matrix_nonneg(a: RationalMatrix) -> bool:
    return all(x >= 0 for row in a.data for x in row)


def is_monotone(a: RationalMatrix) -> bool:
    """Ax >= 0 implies x >= 0, i.e. A invertible with A^-1 >= 0."""
    a.require_square("monotonicity")
    inv = inverse(a)
    return inv is not None and _matrix_nonneg(inv)


def _cone_implies_nonneg(a: RationalMatrix, complement) -> bool:
    """Ax >= 0 and w . x = 0 for every w in `complement` imply x >= 0
    (exact, per coordinate); `complement` spans the orthogonal complement
    of the subspace x is confined to.  An empty complement means A is
    nonsingular and x ranges over R^n, which is plain monotonicity."""
    if not complement:
        return is_monotone(a)
    n = a.rows
    complement = [integer_row(w)[0] for w in complement]
    for i in range(n):
        system = LinearSystem(n)
        for w in complement:
            system.eq(w, 0)
        for row, _ in integer_rows(a):
            system.ge(row, 0)
        system.le([int(j == i) for j in range(n)], -1)
        if lp_feasible(system).is_feasible:
            return False
    return True


def is_range_monotone(a: RationalMatrix) -> bool:
    """Ax >= 0 with x in R(A) implies x >= 0 (R(A) is the orthogonal
    complement of N(A^T))."""
    a.require_square("range monotonicity")
    return _cone_implies_nonneg(a, subspace_bases(a).left_null.basis)


def is_row_monotone(a: RationalMatrix) -> bool:
    """Ax >= 0 with x in R(A^T) implies x >= 0 (R(A^T) is the orthogonal
    complement of N(A))."""
    a.require_square("row monotonicity")
    return _cone_implies_nonneg(a, subspace_bases(a).null.basis)


def is_group_monotone(a: RationalMatrix) -> bool:
    """Group inverse exists and is entrywise nonnegative."""
    a.require_square("group monotonicity")
    gi = group_inverse(a)
    return gi.exists and _matrix_nonneg(gi.inverse)


def is_gi_semimonotone(a: RationalMatrix) -> bool:
    """Moore-Penrose inverse entrywise nonnegative (the generalized-inverse
    'semimonotone' notion; renamed to avoid the LCP class of the same name)."""
    a.require_square("generalized-inverse semimonotonicity")
    return _matrix_nonneg(moore_penrose(a))


def is_almost_monotone(a: RationalMatrix) -> bool:
    """Ax >= 0 implies Ax = 0: R(A) meets R^n_+ only at 0, so no y >= 0
    with e^T y = 1 has W^T y = 0 for the basis W of N(A^T)."""
    a.require_square("almost monotonicity")
    return not _simplex_point(a, a.rows, _left_null(a), ())
