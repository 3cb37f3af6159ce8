"""Exact generalized inverses: Moore-Penrose and group inverse.

Both come from a full-rank factorization A = F G, which keeps everything
rational: the Moore-Penrose inverse is G^T (F^T A G^T)^-1 F^T (as
F^T A G^T = (F^T F)(G G^T)), and the group inverse exists iff G F is
invertible, in which case it equals F (G F)^-2 G.  Every computed inverse is re-verified against its defining
equations by exact multiplication before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ZeroMatrixError
from .matrix import (
    RationalMatrix,
    full_rank_factorization,
    inverse,
    subspace_bases,
)


@dataclass(frozen=True)
class GroupInverseResult:
    exists: bool
    inverse: RationalMatrix | None = None


def moore_penrose(a: RationalMatrix) -> RationalMatrix:
    """The unique X with AXA=A, XAX=X, (AX)^T=AX, (XA)^T=XA; 0 for A=0."""
    cached = a._cache.get("mp")
    if cached is not None:
        return cached
    f, g = full_rank_factorization(a)
    if f.cols == 0:
        x = RationalMatrix.zeros(a.cols, a.rows)
    else:
        ft, gt = f.transpose(), g.transpose()
        x = gt @ inverse(ft @ a @ gt) @ ft
    _verify_penrose(a, x)
    a._cache["mp"] = x
    return x


def _verify_penrose(a: RationalMatrix, x: RationalMatrix) -> None:
    ax = a @ x
    xa = x @ a
    if ax @ a != a or xa @ x != x or ax.transpose() != ax or xa.transpose() != xa:
        raise ArithmeticError("Moore-Penrose self-check failed")


def group_inverse(a: RationalMatrix) -> GroupInverseResult:
    """The unique X with AXA=A, XAX=X, AX=XA, when rank A = rank A^2."""
    a.require_square("group inverse")
    cached = a._cache.get("gi")
    if cached is not None:
        return cached
    f, g = full_rank_factorization(a)
    if f.cols == 0:
        result = GroupInverseResult(True, RationalMatrix.zeros(a.rows, a.cols))
    else:
        gf_inv = inverse(g @ f)
        if gf_inv is None:
            result = GroupInverseResult(False, None)
        else:
            x = f @ gf_inv @ gf_inv @ g
            _verify_group(a, x)
            result = GroupInverseResult(True, x)
    a._cache["gi"] = result
    return result


def _verify_group(a: RationalMatrix, x: RationalMatrix) -> None:
    ax = a @ x
    xa = x @ a
    if ax @ a != a or xa @ x != x or ax != xa:
        raise ArithmeticError("group inverse self-check failed")


def index_at_most_one(a: RationalMatrix) -> bool:
    """rank A = rank A^2, i.e. the group inverse exists."""
    a.require_square("index test")
    return group_inverse(a).exists


def is_range_symmetric(a: RationalMatrix) -> bool:
    """R(A) = R(A^T) as exact subspaces."""
    a.require_square("range symmetry")
    bases = subspace_bases(a)
    return bases.row.equals(bases.range)


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
