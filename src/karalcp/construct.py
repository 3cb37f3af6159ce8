"""Matrix builders: rank-one products, borderings, direct sums,
Householder-type and Cayley-type transforms, stochastic shifts.

Each builder validates its hypotheses exactly and re-verifies the
guaranteed property of its output where a guarantee exists (P# for the
symmetric irreducible M-bordering, the Karamardian property for the
Karamardian bordering, idempotency for I - u v^T, the resolvent identity
for the Cayley transform).  Non-symmetric or reducible M-borderings are
permitted with warnings instead of rejection; they only certify per
instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .conelcp import is_karamardian
from .errors import (
    BadInnerProductError,
    BadUError,
    NotInvertibleMError,
    NotIrreducibleError,
    NotRowStochasticError,
    NotSymmetricError,
    PreconditionFailedError,
    SingularShiftError,
    ZeroVectorError,
)
from .lcp import NO, YES
from .lcp_classes import is_p_hash
from .matrix import RationalMatrix, Vector, dot, inverse, is_zero_vec, rat, vec
from .minor_classes import MClass, has_property_c, is_m_matrix, structural_flags

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rank_one(u: Sequence, v: Sequence) -> RationalMatrix:
    """The outer product u v^T."""
    uv, vv = vec(u), vec(v)
    if is_zero_vec(uv) or is_zero_vec(vv):
        raise ZeroVectorError("rank-one factors must be nonzero")
    return RationalMatrix(len(uv), len(vv), [[a * b for b in vv] for a in uv])


def direct_sum(b: RationalMatrix, c: RationalMatrix) -> RationalMatrix:
    b.require_square("direct sum")
    c.require_square("direct sum")
    n, m = b.rows, c.rows
    data = [row[:] + [_ZERO] * m for row in b.data]
    data += [[_ZERO] * n + row[:] for row in c.data]
    return RationalMatrix(n + m, n + m, data)


def _border(a: RationalMatrix, u: Vector, alpha: Fraction) -> RationalMatrix:
    data = [row[:] + [u[i]] for i, row in enumerate(a.data)]
    data.append(list(u) + [alpha])
    return RationalMatrix(a.rows + 1, a.cols + 1, data)


@dataclass(frozen=True)
class BorderResult:
    matrix: RationalMatrix
    alpha: Fraction
    warnings: tuple[str, ...]


def border_m_matrix(a: RationalMatrix, u: Sequence) -> BorderResult:
    """Border an invertible M-matrix with a nonpositive vector and the
    Schur-complement-closing corner alpha = u^T A^-1 u.

    The result is singular by construction.  For symmetric irreducible
    inputs the P# property of the output is guaranteed and re-checked;
    non-symmetric or reducible inputs are accepted with a warning and
    certified per instance by the same check.
    """
    a.require_square("M-matrix bordering")
    if is_m_matrix(a) is not MClass.NONSINGULAR_M:
        raise NotInvertibleMError("base matrix must be an invertible M-matrix")
    uv = vec(u)
    if len(uv) != a.rows:
        raise BadUError("border vector length must match the matrix order")
    if is_zero_vec(uv) or any(x > 0 for x in uv):
        raise BadUError("border vector must be nonzero and nonpositive")
    flags = structural_flags(a)
    warnings = []
    if not flags.symmetric:
        warnings.append("base matrix is not symmetric; P# is certified per instance only")
    if not flags.irreducible:
        warnings.append("base matrix is reducible; P# is certified per instance only")
    alpha = dot(uv, inverse(a).mul_vec(uv))
    bordered = _border(a, uv, alpha)
    if not is_p_hash(bordered):
        raise ArithmeticError("bordered matrix failed its P# self-check")
    return BorderResult(bordered, alpha, tuple(warnings))


def border_karamardian(a: RationalMatrix, u: Sequence, alpha) -> RationalMatrix:
    """Border an invertible Karamardian matrix with u >= 0 and a corner
    alpha > 0, alpha != u^T A^-1 u; the result is invertible and again
    Karamardian, which `is_karamardian` re-checks (memoized, so asking
    again is free)."""
    a.require_square("Karamardian bordering")
    uv = vec(u)
    alpha = rat(alpha)
    if len(uv) != a.rows:
        raise PreconditionFailedError("border vector length must match the matrix order")
    if any(x < 0 for x in uv):
        raise PreconditionFailedError("border vector must be nonnegative")
    if alpha <= 0:
        raise PreconditionFailedError("corner entry alpha must be positive")
    inv = inverse(a)
    if inv is None:
        raise PreconditionFailedError("base matrix must be invertible")
    if alpha == dot(uv, inv.mul_vec(uv)):
        raise PreconditionFailedError("alpha must differ from u^T A^-1 u (the bordered matrix would be singular)")
    base = is_karamardian(a)
    if base.status != YES:
        raise PreconditionFailedError(f"base matrix is not certified Karamardian (verdict {base.status})")
    bordered = _border(a, uv, alpha)
    if is_karamardian(bordered).status == NO:
        raise ArithmeticError("bordered matrix failed its Karamardian self-check")
    return bordered


def householder_like(u: Sequence, v: Sequence) -> RationalMatrix:
    """I - u v^T with v^T u = 1; idempotent by construction (re-checked)."""
    uv, vv = vec(u), vec(v)
    if len(uv) != len(vv):
        raise BadInnerProductError("u and v must have the same length")
    if dot(vv, uv) != 1:
        raise BadInnerProductError("v^T u must equal 1 exactly")
    result = RationalMatrix.identity(len(uv)) - rank_one(uv, vv)
    if result @ result != result:
        raise ArithmeticError("Householder-type matrix failed its idempotency self-check")
    return result


@dataclass(frozen=True)
class CayleyShift:
    g: RationalMatrix
    i_plus_g: RationalMatrix
    i_minus_g: RationalMatrix


def cayley_g_epsilon(a: RationalMatrix, eps) -> CayleyShift:
    """G = (eps I + A)^-1 (eps I - A) with eps > 0, plus I + G and I - G.

    Verifies the resolvent identity I + G = 2 eps (A + eps I)^-1 exactly.
    """
    a.require_square("Cayley shift")
    eps = rat(eps)
    if eps <= 0:
        raise PreconditionFailedError("eps must be a positive rational")
    n = a.rows
    shift = RationalMatrix.identity(n).scale(eps)
    inv = inverse(shift + a)
    if inv is None:
        raise SingularShiftError("eps I + A is singular")
    g = inv @ (shift - a)
    i_plus = RationalMatrix.identity(n) + g
    i_minus = RationalMatrix.identity(n) - g
    if i_plus != inv.scale(2 * eps):
        raise ArithmeticError("Cayley shift failed the resolvent identity self-check")
    return CayleyShift(g, i_plus, i_minus)


def stochastic_shift(b: RationalMatrix) -> RationalMatrix:
    """I - B for a symmetric irreducible row-stochastic B; the result is an
    M-matrix with property c and a P#-matrix (both re-checked)."""
    b.require_square("stochastic shift")
    flags = structural_flags(b)
    if not flags.nonnegative or any(sum(row, _ZERO) != 1 for row in b.data):
        raise NotRowStochasticError("matrix must be nonnegative with unit row sums")
    if not flags.symmetric:
        raise NotSymmetricError("matrix must be symmetric")
    if not flags.irreducible:
        raise NotIrreducibleError("matrix must be irreducible")
    result = RationalMatrix.identity(b.rows) - b
    if not has_property_c(result) or not is_p_hash(result):
        raise ArithmeticError("stochastic shift failed its property-c / P# self-check")
    return result
