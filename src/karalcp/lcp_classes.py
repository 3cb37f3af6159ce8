"""LCP matrix classes decided by exact feasibility search.

Every semipositivity-type test asks one memoized question, _simplex_point:
is there x >= 0 with e^T x = 1, Ex = 0 and Gx >= 0?  A vertex e_j of the
simplex that solves it, a one-point simplex (k = 1) or a row of G negative
in every entry answers it with no LP, and one LP answers the rest.  Weak
semipositivity and semimonotonicity ask it for G = A and G = A_SS;
semipositivity is its absence for G = -A^T (Ville's theorem), strict
(range) semimonotonicity its absence for G = -A_SS (and E = W_S^T, W a
basis of N(A^T)) on every support S, and P# of a singular A its absence
for G = -D_s A D_s and E = (D_s W)^T on every sign orthant s.  Those
orthant questions are asked only when no column of A refutes P#: each
column lies in R(A), and one that reverses the sign of A on every
coordinate is a feasible point of its orthant's system.
For invertible A, R(A) = R^n, so P# is the P-matrix minor test (Fiedler &
Ptak, 1966), which a nonpositive diagonal entry fails at once.

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
from operator import mul

from .errors import EmptyConeError, TooLargeError
from .lcp import complementary_solutions, first_nonzero_solution
from .matrix import (
    ENUMERATION_CAP,
    RationalMatrix,
    Vector,
    _eliminate,
    common_rows,
    dot,
    is_zero_vec,
    left_null_rows,
    memoized,
    nonempty_subsets,
)
from .lp import LinearSystem, lp_feasible
from .minor_classes import minor_class

_ZERO = Fraction(0)
_ONE = Fraction(1)


# -- semipositivity ----------------------------------------------------


@memoized("simplex_point")
def _simplex_point(a: RationalMatrix, k: int, eqs: tuple, ges: tuple) -> bool:
    """Some x >= 0 in R^k with e^T x = 1 has Ex = 0 and Gx >= 0, for the
    integer rows `eqs` of E and `ges` of G.  Memoized per (k, E, G) and
    matrix: the scans revisit systems, and tests meet in one (P#'s
    all-plus orthant is strict range semimonotonicity's full support).

    Three certificates decide without an LP: a vertex e_j with E e_j = 0
    and G e_j >= 0 is a solution; for k = 1 that vertex is the whole
    simplex; and a row of G negative in every entry is negative at every
    simplex point (Cottle, Pang & Stone, section 3.1).  Otherwise one LP."""
    for j in range(k):
        if all(row[j] == 0 for row in eqs) and all(row[j] >= 0 for row in ges):
            return True
    if k == 1 or any(max(row) < 0 for row in ges):
        return False
    system = LinearSystem(k, nonneg=True)
    for row in eqs:
        system.eq(row, 0)
    system.eq([1] * k, 1)
    for row in ges:
        system.ge(row, 0)
    return lp_feasible(system).is_feasible


def _block(a: RationalMatrix, idx: tuple[int, ...], sign: int = 1) -> tuple:
    """The integer rows of sign * B[idx, idx], for B = alpha A from
    `common_rows`: a positive scale keeps every sign these tests read."""
    b = common_rows(a)[1]
    return tuple(tuple(sign * b[i][j] for j in idx) for i in idx)


def is_semipositive(a: RationalMatrix) -> bool:
    """Exists x > 0 with Ax > 0: no nonzero y >= 0 has A^T y <= 0 (Ville),
    asked of -B^T, the negated columns of B = alpha A."""
    return not _simplex_point(a, a.rows, (), tuple(
        tuple(-t for t in col) for col in zip(*common_rows(a)[1])))


def is_weakly_semipositive(a: RationalMatrix) -> bool:
    """Exists 0 != x >= 0 with Ax >= 0."""
    return _simplex_point(a, a.cols, (), tuple(map(tuple, common_rows(a)[1])))


def is_semimonotone(a: RationalMatrix) -> bool:
    """Every principal submatrix (including A) is weakly semipositive."""
    a.require_square("semimonotonicity", scan=True)
    return all(_simplex_point(a, len(s), (), _block(a, s)) for s in nonempty_subsets(a.rows))


def is_strictly_semimonotone(a: RationalMatrix) -> bool:
    """No nonzero x >= 0 has x * Ax <= 0 (every principal submatrix is semipositive)."""
    a.require_square("strict semimonotonicity", scan=True)
    return not _sign_reversed(a, ())


def is_almost_semimonotone(a: RationalMatrix) -> bool:
    """All proper principal submatrices semimonotone, A itself not.

    Since a submatrix of a proper submatrix is again a proper submatrix,
    the first condition is equivalent to every proper principal submatrix
    being weakly semipositive, and the second then reduces to A itself
    failing weak semipositivity.  A 1x1 matrix has no proper submatrices,
    so the quantification is vacuous there.
    """
    a.require_square("almost semimonotonicity", scan=True)
    return (not is_weakly_semipositive(a)
            and all(_simplex_point(a, len(s), (), _block(a, s))
                    for s in nonempty_subsets(a.rows) if len(s) < a.rows))


def _sign_reversed(a: RationalMatrix, null: tuple) -> bool:
    """Some nonzero x >= 0 with W^T x = 0 has x * Ax <= 0, for the integer
    rows `null` of W^T: on the support S of x, x_S is a simplex point with
    W_S^T x_S = 0 and -A_SS x_S >= 0, one question per S."""
    return any(_simplex_point(a, len(s), tuple(tuple(w[j] for j in s) for w in null),
                              _block(a, s, -1))
               for s in nonempty_subsets(a.rows))


# -- sign-reversal classes ----------------------------------------------


def is_p_hash(a: RationalMatrix) -> bool:
    """No nonzero x in R(A) with x_i (Ax)_i <= 0 for every i.

    For invertible A, R(A) = R^n and this says A is a P-matrix (Fiedler &
    Ptak; Cottle, Pang & Stone, Thm 3.3.4): invertibility is the pivot
    count of one integer elimination of B = alpha A, a nonpositive
    diagonal entry (a 1x1 minor) refutes it, and otherwise the principal
    minors decide.  For singular A, each column A e_j lies in R(A), and a
    nonzero one that reverses the sign of A on every coordinate refutes A
    with no LP (it is a point of its own sign orthant's system below).
    Only then one question per sign orthant s: x = D_s z with z on the
    simplex, W^T D_s z = 0 and -D_s A D_s z >= 0, each at most one LP.
    The pair (s, -s) describes the same problem, so only orthants with
    s_1 = +1 run.
    """
    a.require_square("P# test", scan=True)
    n = a.rows
    b = common_rows(a)[1]
    if len(_eliminate(b[:], n, reduced=False)[1]) == n:
        return all(b[i][i] > 0 for i in range(n)) and minor_class(a).is_p
    if _column_refutes(b):
        return False
    null, minus_a = left_null_rows(a), _block(a, tuple(range(n)), -1)
    return not any(
        _simplex_point(a, n, tuple(tuple(w[j] * s[j] for j in range(n)) for w in null),
                       tuple(tuple(s[i] * g[j] * s[j] for j in range(n))
                             for i, g in enumerate(minus_a)))
        for s in ((1,) + signs for signs in itertools.product((1, -1), repeat=n - 1)))


def _column_refutes(b: list[list[int]]) -> bool:
    """Some nonzero column x = A e_j has x_i (Ax)_i <= 0 for every i.  In
    integers: with B = alpha A from `common_rows`, the column y = B e_j is
    alpha x, and y_i (By)_i = alpha^2 x_i (Ax)_i."""
    return any(any(y) and all(yi * sum(map(mul, row, y)) <= 0 for yi, row in zip(y, b))
               for y in zip(*b))


def is_strictly_range_semimonotone(a: RationalMatrix) -> bool:
    """No nonzero x >= 0 in R(A) with x * Ax <= 0; for invertible A, R(A) =
    R^n and the questions are those of strict semimonotonicity."""
    a.require_square("strict range semimonotonicity", scan=True)
    return not _sign_reversed(a, left_null_rows(a))


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
    have only the zero solution."""
    gram = _gram(q, cone)
    m = gram.rows
    return all(first_nonzero_solution(gram, rhs, ()) is None
               for rhs in ((_ONE,) * m, (_ZERO,) * m))


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
