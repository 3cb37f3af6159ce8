"""Exact generalized inverses: Moore-Penrose and group inverse.

An invertible A has A+ = A# = A^-1, read from `matrix.inverse` and checked
by AX = I (so XA = I), which implies every Penrose and group equation.  Otherwise
both come from one full-rank factorization A = F R in integers: with
(alpha, B = alpha A) and (gamma, gamma rref(A)) from `matrix.common_rows`,
F_i the pivot columns of B and G_i the nonzero rows of gamma rref(A),
B = F_i G_i / gamma, and

    A+ = alpha G_i^T adj(P) F_i^T / det P,          P = F_i^T B G_i^T,
    A# = alpha gamma F_i adj(Q)^2 G_i / (det Q)^2,  Q = G_i F_i,

where A# exists iff Q is invertible (the rational forms G^T (F^T A G^T)^-1
F^T and F (G F)^-2 G).  Each (det, adj) is one `matrix._det_adj`
elimination.  Every result is checked against its defining equations by
integer products before its Fractions are built (`_checked`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import ZeroMatrixError
from .matrix import (
    RationalMatrix,
    RrefResult,
    _det_adj,
    _ratio,
    common_rows,
    inverse,
    left_null_rows,
    memoized,
    rref,
)


@dataclass(frozen=True)
class GroupInverseResult:
    exists: bool
    inverse: RationalMatrix | None = None


@memoized("mp")
def moore_penrose(a: RationalMatrix) -> RationalMatrix:
    """The unique X with AXA=A, XAX=X, (AX)^T=AX, (XA)^T=XA; 0 for A=0."""
    rr = rref(a)
    r = rr.rank
    if r == 0:
        return RationalMatrix.zeros(a.cols, a.rows)
    if a.is_square and r == a.rows:
        return _checked_inverse(a)
    alpha, b, f, _, g = _factors(a, rr)
    gt, ft = _transpose(g), _transpose(f)
    entry = _det_adj(_mul(_mul(ft, b), gt), range(r))
    if entry is None:  # P = (F_i^T F_i)(G_i G_i^T) / gamma is invertible
        raise ArithmeticError("Moore-Penrose self-check failed")
    det, adj = entry
    return _checked(b, _mul(_mul(gt, adj), ft), alpha, det, "Moore-Penrose", commute=False)


@memoized("gi")
def group_inverse(a: RationalMatrix) -> GroupInverseResult:
    """The unique X with AXA=A, XAX=X, AX=XA, when rank A = rank A^2."""
    a.require_square("group inverse")
    rr = rref(a)
    r = rr.rank
    if r == 0:
        return GroupInverseResult(True, RationalMatrix.zeros(a.rows, a.cols))
    if r == a.rows:
        return GroupInverseResult(True, _checked_inverse(a))
    alpha, b, f, gamma, g = _factors(a, rr)
    entry = _det_adj(_mul(g, f), range(r))
    if entry is None:
        return GroupInverseResult(False, None)
    det, adj = entry
    xi = _times(gamma, _mul(_mul(f, _mul(adj, adj)), g))
    return GroupInverseResult(True, _checked(b, xi, alpha, det * det, "group inverse",
                                             commute=True))


def _factors(a: RationalMatrix, rr: RrefResult) -> tuple:
    """(alpha, B, F_i, gamma, G_i) of the module docstring, for rr = rref(A);
    rref(A)'s zero rows leave gamma as it is."""
    alpha, b = common_rows(a)
    gamma, g = common_rows(rr.matrix)
    return alpha, b, [[row[p] for p in rr.pivots] for row in b], gamma, g[:rr.rank]


def _mul(x: list, y: list) -> list[list[int]]:
    """The product of two integer matrices given as lists of rows."""
    cols = list(zip(*y))
    return [[sum(map(mul, row, col)) for col in cols] for row in x]


def _transpose(x: list) -> list[list[int]]:
    return [list(col) for col in zip(*x)]


def _times(c: int, x: list) -> list[list[int]]:
    return [[c * t for t in row] for row in x]


def _checked(b: list[list[int]], xi: list[list[int]], alpha: int, delta: int, what: str,
             commute: bool) -> RationalMatrix:
    """X = alpha xi / delta, checked for A = B / alpha: AXA = A iff
    B xi B = delta B, XAX = X iff xi B xi = delta xi, and AX, XA are
    B xi / delta and xi B / delta, which must commute (group) or be
    symmetric (Moore-Penrose)."""
    bx, xb = _mul(b, xi), _mul(xi, b)
    if (_mul(bx, b) != _times(delta, b) or _mul(xb, xi) != _times(delta, xi)
            or (bx != xb if commute else (bx != _transpose(bx) or xb != _transpose(xb)))):
        raise ArithmeticError(f"{what} self-check failed")
    return RationalMatrix(len(xi), len(b), [[_ratio(alpha * t, delta) for t in row] for row in xi])


def _checked_inverse(a: RationalMatrix) -> RationalMatrix:
    """A^-1, checked in integers: with B = alpha A and Y = xi A^-1 integer,
    AX = I iff BY = alpha xi I, and for square A and X, AX = I implies
    XA = I."""
    x = inverse(a)
    alpha, b = common_rows(a)
    xi, y = common_rows(x)
    c = alpha * xi
    if _mul(b, y) != [[c if i == j else 0 for j in range(a.rows)] for i in range(a.rows)]:
        raise ArithmeticError("inverse self-check failed")
    return x


def index_at_most_one(a: RationalMatrix) -> bool:
    """rank A = rank A^2, i.e. the group inverse exists."""
    a.require_square("index test")
    return group_inverse(a).exists


def is_range_symmetric(a: RationalMatrix) -> bool:
    """R(A) = R(A^T), that is N(A^T) = N(A), their orthogonal complements:
    B w = 0 for B = alpha A (`common_rows`) and every w of the integer
    basis of N(A^T) suffices, as both null spaces have dimension n - rank A."""
    a.require_square("range symmetry")
    return all(sum(map(mul, ints, w)) == 0
               for w in left_null_rows(a) for ints in common_rows(a)[1])


def generalized_idempotent_scalar(a: RationalMatrix) -> Fraction | None:
    """The unique alpha with A^2 = alpha A (A nonzero), or None."""
    a.require_square("generalized idempotent test")
    if a.is_zero():
        raise ZeroMatrixError("zero matrix has no unique scalar")
    a2 = a @ a
    alpha = None
    for i in range(a.rows):
        for j in range(a.cols):
            if a.data[i][j] != 0:
                alpha = a2.data[i][j] / a.data[i][j]
                break
        if alpha is not None:
            break
    if a2 == a.scale(alpha):
        return alpha
    return None
