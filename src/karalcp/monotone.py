"""The monotonicity family.

Each predicate is an exact sign test.  Monotonicity and the group and
Moore-Penrose tests read the signs of an inverse; range and row
monotonicity read the signs of A# and A+ on the generators of the cone
K = R^n_+ intersect R(A) (conelcp.maps_K_nonneg), and almost monotonicity
asks whether K = {0}.  For invertible A, K = R^n_+ and A# = A+ = A^-1, so
none of them needs the generators of K.
"""

from __future__ import annotations

from .conelcp import cone_K, maps_K_nonneg
from .geninv import group_inverse, moore_penrose
from .matrix import RationalMatrix, inverse, left_null_rows


def _matrix_nonneg(a: RationalMatrix) -> bool:
    return all(x >= 0 for row in a.data for x in row)


def is_monotone(a: RationalMatrix) -> bool:
    """Ax >= 0 implies x >= 0, i.e. A invertible with A^-1 >= 0."""
    a.require_square("monotonicity")
    inv = inverse(a)
    return inv is not None and _matrix_nonneg(inv)


def is_range_monotone(a: RationalMatrix) -> bool:
    """Ax >= 0 with x in R(A) implies x >= 0.  Index above 1 puts some
    z != 0 in N(A) intersect R(A), and +z, -z both break it.  Otherwise A
    maps R(A) onto itself with inverse A#, so {x in R(A) : Ax >= 0} = A# K."""
    a.require_square("range monotonicity")
    gi = group_inverse(a)
    return gi.exists and maps_K_nonneg(a, gi.inverse)


def is_row_monotone(a: RationalMatrix) -> bool:
    """Ax >= 0 with x in R(A^T) implies x >= 0.  A maps R(A^T) onto R(A)
    with inverse A+, so {x in R(A^T) : Ax >= 0} = A+ K."""
    a.require_square("row monotonicity")
    return maps_K_nonneg(a, moore_penrose(a))


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
    """Ax >= 0 implies Ax = 0: R(A) meets R^n_+ only at 0, so K = {0}.  An
    invertible A has K = R^n_+."""
    a.require_square("almost monotonicity")
    return bool(left_null_rows(a)) and cone_K(a).trivial
