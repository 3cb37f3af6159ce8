"""LCP matrix classes decided by exact feasibility search.

"Nonzero vector" conditions are encoded by orthant/support normalization
(sum of |x_i| = 1), which an LP handles exactly; strict conditions become
slack maximization.  For invertible A, R(A) = R^n: P# is then the
sign-reversal characterisation of P-matrices (Fiedler & Ptak, 1966), so
the principal-minor test decides it, and strict range semimonotonicity
is strict semimonotonicity.  Only for singular A does the P# test run
one LP per sign orthant (halved by the x -> -x symmetry), and strict
range semimonotonicity one LP per nonempty support.

Copositivity over a polyhedral cone with generators V is the sign of the
minimum of lambda^T G lambda over the standard simplex, for the symmetric
G = V^T ((Q + Q^T)/2) V.  The minimum is taken at a KKT point, G lambda =
v e + mu with mu >= 0 and mu^T lambda = 0, whose value is v.  Scaled by
1/|v|, such a point is a nonzero solution of LCP(G, e), LCP(G, 0) or
LCP(G, -e) as v < 0, v = 0 or v > 0, and a solution x of LCP(G, e) or
LCP(G, -e) is one of value -1/e^T x or 1/e^T x; as G is symmetric, e^T x
is the same for every solution on one support.  So G is strictly
copositive iff LCP(G, e) and LCP(G, 0) have only the zero solution, and
not copositive iff LCP(G, e) has a nonzero solution (Cottle, Pang &
Stone, The Linear Complementarity Problem, 1992); lcp.py's support scans
answer both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import EmptyConeError, TooLargeError
from .matrix import (
    ENUMERATION_CAP,
    RationalMatrix,
    Vector,
    determinant,
    dot,
    integer_row,
    integer_rows,
    is_zero_vec,
    nonempty_subsets,
    subspace_bases,
)
from .lp import LinearSystem, lp_feasible
from .minor_classes import minor_class

_ZERO = Fraction(0)
_ONE = Fraction(1)


# -- semipositivity ----------------------------------------------------


def is_semipositive(a: RationalMatrix) -> bool:
    """Exists x > 0 with Ax > 0; exact by homogenizing both strict signs."""
    return _semipositive(a, tuple(range(a.rows)), tuple(range(a.cols)), True)


def is_weakly_semipositive(a: RationalMatrix) -> bool:
    """Exists 0 != x >= 0 with Ax >= 0."""
    return _semipositive(a, tuple(range(a.rows)), tuple(range(a.cols)), False)


def _semipositive(a: RationalMatrix, rows: tuple[int, ...], cols: tuple[int, ...],
                  strict: bool) -> bool:
    """(Weak) semipositivity of the submatrix A[rows, cols], memoized in
    a._cache per restricted system, as the principal scans below revisit
    it (and distinct supports can restrict alike)."""
    int_rows = integer_rows(a)
    k = len(cols)
    restricted = tuple((tuple(int_rows[i][0][j] for j in cols), int_rows[i][1] if strict else 0)
                       for i in rows)
    memo = a._cache.setdefault("semipositive", {})
    key = (k, strict, restricted)
    if key not in memo:
        system = LinearSystem(k, nonneg=True)
        if strict:
            for j in range(k):
                system.ge([int(i == j) for i in range(k)], 1)
        else:
            system.eq([1] * k, 1)
        for coeffs, rhs in restricted:
            system.ge(coeffs, rhs)
        memo[key] = lp_feasible(system).is_feasible
    return memo[key]


def _all_principal(a: RationalMatrix, strict: bool, proper: bool = False) -> bool:
    return all(_semipositive(a, idx, idx, strict) for idx in nonempty_subsets(a.rows)
               if not proper or len(idx) < a.rows)


def is_semimonotone(a: RationalMatrix) -> bool:
    """Every principal submatrix (including A) is weakly semipositive."""
    a.require_square("semimonotonicity", scan=True)
    return _all_principal(a, False)


def is_strictly_semimonotone(a: RationalMatrix) -> bool:
    """Every principal submatrix (including A) is semipositive."""
    a.require_square("strict semimonotonicity", scan=True)
    return _all_principal(a, True)


def is_almost_semimonotone(a: RationalMatrix) -> bool:
    """All proper principal submatrices semimonotone, A itself not.

    Since a submatrix of a proper submatrix is again a proper submatrix,
    the first condition is equivalent to every proper principal submatrix
    being weakly semipositive, and the second then reduces to A itself
    failing weak semipositivity.  A 1x1 matrix has no proper submatrices,
    so the quantification is vacuous there.
    """
    a.require_square("almost semimonotonicity", scan=True)
    return _all_principal(a, False, proper=True) and not is_weakly_semipositive(a)


# -- sign-reversal classes ----------------------------------------------


def is_p_hash(a: RationalMatrix) -> bool:
    """No nonzero x in R(A) with x_i (Ax)_i <= 0 for every i.

    For invertible A, R(A) = R^n and this says A is a P-matrix (Fiedler &
    Ptak; Cottle, Pang & Stone, Thm 3.3.4), decided by the principal
    minors.  For singular A, one LP per sign orthant: substituting x = s * z
    with z >= 0 makes the orthant constraints structural, range membership
    is W^T x = 0 for a left-null basis W, and sum z = 1 rules out zero.
    The pair (s, -s) describes the same problem, so only orthants with
    s_1 = +1 run.
    """
    a.require_square("P# test", scan=True)
    if determinant(a) != 0:
        return minor_class(a).is_p
    n = a.rows
    left_null = [integer_row(w)[0] for w in subspace_bases(a).left_null.basis]
    rows_a = [ints for ints, _ in integer_rows(a)]
    for signs in itertools.product((1, -1), repeat=n - 1):
        s = (1,) + signs
        system = LinearSystem(n, nonneg=True)
        for w in left_null:
            system.eq([w[j] * s[j] for j in range(n)], 0)
        system.eq([1] * n, 1)
        for i in range(n):
            system.ge([-s[i] * rows_a[i][j] * s[j] for j in range(n)], 0)
        if lp_feasible(system).is_feasible:
            return False
    return True


def is_strictly_range_semimonotone(a: RationalMatrix) -> bool:
    """No nonzero x >= 0 in R(A) with x * Ax <= 0.  For invertible A,
    R(A) = R^n and this is strict semimonotonicity; for singular A, one LP
    per support."""
    a.require_square("strict range semimonotonicity", scan=True)
    if determinant(a) != 0:
        return is_strictly_semimonotone(a)
    n = a.rows
    left_null = [integer_row(w)[0] for w in subspace_bases(a).left_null.basis]
    rows_a = [ints for ints, _ in integer_rows(a)]
    memo = a._cache.setdefault("range_semimonotone", {})
    for support in nonempty_subsets(n):
        # distinct supports can restrict to the same system: key on it
        key = (tuple(tuple(w[j] for j in support) for w in left_null),
               tuple(tuple(rows_a[i][j] for j in support) for i in support))
        if key not in memo:
            k = len(support)
            system = LinearSystem(k, nonneg=True)
            for w in key[0]:
                system.eq(w, 0)
            system.eq([1] * k, 1)
            for row in key[1]:
                system.ge([-t for t in row], 0)
            memo[key] = lp_feasible(system).is_feasible
        if memo[key]:
            return False
    return True


# -- copositivity over polyhedral cones ----------------------------------


@dataclass(frozen=True)
class ConeRep:
    """Polyhedral cone: conic hull of `generators`."""

    ambient_dim: int
    generators: tuple[Vector, ...]

    @classmethod
    def nonnegative_orthant(cls, n: int) -> "ConeRep":
        gens = tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n))
        return cls(n, gens)


class CopositivityStatus(Enum):
    STRICTLY_COPOSITIVE = "StrictlyCopositive"
    COPOSITIVE_ONLY = "CopositiveOnly"
    NOT_COPOSITIVE = "NotCopositive"


@dataclass(frozen=True)
class CopositivityResult:
    status: CopositivityStatus
    minimum: Fraction
    witness: Vector | None = None


def copositivity_on_cone(q: RationalMatrix, cone: ConeRep) -> CopositivityResult:
    """Exact sign of min x^T Q x over the cone's simplex base.

    Uses the symmetrized form (Q + Q^T)/2.  When the minimum is < 0 the
    witness is the base point of the solution of LCP(G, e) with the least
    e^T x (the first of them in sorted order); when it is 0, the base point
    of the first nonzero solution of LCP(G, 0).
    """
    from .lcp import complementary_solutions, first_nonzero_solution

    gram = _gram(q, cone)
    m = gram.rows
    below = [x for x in complementary_solutions(gram, (_ONE,) * m, ()).solutions if any(x)]
    if below:
        x = min(below, key=sum)
        return CopositivityResult(CopositivityStatus.NOT_COPOSITIVE, -1 / sum(x),
                                  _combine(cone, x))
    x = first_nonzero_solution(gram, (_ZERO,) * m, ())
    if x is not None:
        return CopositivityResult(CopositivityStatus.COPOSITIVE_ONLY, _ZERO, _combine(cone, x))
    above = complementary_solutions(gram, (-_ONE,) * m, ()).solutions
    return CopositivityResult(CopositivityStatus.STRICTLY_COPOSITIVE, 1 / max(map(sum, above)))


def is_strictly_copositive(q: RationalMatrix, cone: ConeRep) -> bool:
    """x^T Q x > 0 for every nonzero x in the cone: LCP(G, e) and LCP(G, 0)
    have only the zero solution.  Memoized in q._cache per generator set,
    as both cascades ask it of R^n_+ for an invertible matrix."""
    from .lcp import first_nonzero_solution

    memo = q._cache.setdefault("strictly_copositive", {})
    key = tuple(sorted(cone.generators))
    if key not in memo:
        gram = _gram(q, cone)
        m = gram.rows
        memo[key] = all(first_nonzero_solution(gram, rhs, ()) is None
                        for rhs in ((_ONE,) * m, (_ZERO,) * m))
    return memo[key]


def _gram(q: RationalMatrix, cone: ConeRep) -> RationalMatrix:
    """G = V^T ((Q + Q^T)/2) V for the cone's generators V."""
    q.require_square("copositivity")
    gens = cone.generators
    if not gens:
        raise EmptyConeError("cone has no generators (K = {0})")
    if len(gens) > ENUMERATION_CAP:
        raise TooLargeError(f"{len(gens)} generators exceed cap {ENUMERATION_CAP}")
    if any(is_zero_vec(g) for g in gens):
        raise EmptyConeError("zero vector is not a valid generator")
    qhat = q + q.transpose()
    qg = [qhat.mul_vec(g) for g in gens]
    return RationalMatrix(len(gens), len(gens), [[dot(g, h) / 2 for h in qg] for g in gens])


def _combine(cone: ConeRep, x: Vector) -> Vector:
    """The point sum_i lambda_i g_i of the cone for lambda = x / e^T x."""
    total = sum(x)
    return tuple(sum((w * g[i] for w, g in zip(x, cone.generators) if w), _ZERO) / total
                 for i in range(cone.ambient_dim))
