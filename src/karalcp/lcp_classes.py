"""LCP matrix classes decided by exact feasibility search.

"Nonzero vector" conditions are encoded by orthant/support normalization
(sum of |x_i| = 1), which an LP handles exactly; strict conditions become
slack maximization.  The P# test runs one LP per sign orthant (halved by
the x -> -x symmetry); strict range semimonotonicity runs one LP per
nonempty support.

Copositivity over a polyhedral cone with generator matrix G reduces to
the sign of min over the standard simplex of lambda^T (G^T Q G) lambda.
That minimum is found exactly by enumerating KKT supports: on the face
with support T the stationary points satisfy M_TT lambda = nu * e with
e^T lambda = 1, the quadratic is constant (= nu) on each face's
stationary set, and the global minimizer is stationary on the relative
interior of its own support face, so the minimum over all supports'
feasible stationary values is the true minimum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .errors import EmptyConeError, TooLargeError
from .matrix import (
    ENUMERATION_CAP,
    RationalMatrix,
    Vector,
    dot,
    integer_row,
    integer_rows,
    is_zero_vec,
    nonempty_subsets,
    solve_linear,
    subspace_bases,
)
from .lp import LinearSystem, lp_feasible

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
    """(Weak) semipositivity of the submatrix A[rows, cols], memoized per
    index pair in a._cache, as the principal scans below revisit them."""
    memo = a._cache.setdefault("semipositive", {})
    key = (rows, cols, strict)
    if key not in memo:
        k = len(cols)
        system = LinearSystem(k, nonneg=True)
        if strict:
            for j in range(k):
                system.ge([int(i == j) for i in range(k)], 1)
        else:
            system.eq([1] * k, 1)
        int_rows = integer_rows(a)
        for i in rows:
            ints, mult = int_rows[i]
            system.ge([ints[j] for j in cols], mult if strict else 0)
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

    One LP per sign orthant: substituting x = s * z with z >= 0 makes the
    orthant constraints structural, range membership is W^T x = 0 for a
    left-null basis W, and sum z = 1 rules out zero.  The pair (s, -s)
    describes the same problem, so only orthants with s_1 = +1 run.
    """
    a.require_square("P# test", scan=True)
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
    """No nonzero x >= 0 in R(A) with x * Ax <= 0; one LP per support."""
    a.require_square("strict range semimonotonicity", scan=True)
    n = a.rows
    left_null = [integer_row(w)[0] for w in subspace_bases(a).left_null.basis]
    rows_a = [ints for ints, _ in integer_rows(a)]
    for support in nonempty_subsets(n):
        k = len(support)
        system = LinearSystem(k, nonneg=True)
        for w in left_null:
            system.eq([w[j] for j in support], 0)
        system.eq([1] * k, 1)
        for i in support:
            system.ge([-rows_a[i][j] for j in support], 0)
        if lp_feasible(system).is_feasible:
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

    Uses the symmetrized form (Q + Q^T)/2.  The witness (when the minimum
    is <= 0) is the base point of the lexicographically first support
    attaining the minimum, mapped back to ambient coordinates.
    """
    q.require_square("copositivity")
    gens = cone.generators
    if not gens:
        raise EmptyConeError("cone has no generators (K = {0})")
    if len(gens) > ENUMERATION_CAP:
        raise TooLargeError(f"{len(gens)} generators exceed cap {ENUMERATION_CAP}")
    if any(is_zero_vec(g) for g in gens):
        raise EmptyConeError("zero vector is not a valid generator")
    qhat = q + q.transpose()  # factor 2 is sign-irrelevant and kept exact below
    m = len(gens)
    qg = [qhat.mul_vec(g) for g in gens]
    gram = [[dot(gens[i], qg[j]) / 2 for j in range(m)] for i in range(m)]

    best: Fraction | None = None
    best_lambda: tuple[int, ...] | None = None
    best_weights: Vector | None = None
    for support in nonempty_subsets(m):
        sol = _face_stationary_value(gram, support)
        if sol is None:
            continue
        value, weights = sol
        if best is None or value < best:
            best = value
            best_lambda = support
            best_weights = weights
    assert best is not None  # singleton supports always produce values
    if best > 0:
        return CopositivityResult(CopositivityStatus.STRICTLY_COPOSITIVE, best)
    witness = _combine(gens, best_lambda, best_weights, cone.ambient_dim)
    status = (CopositivityStatus.COPOSITIVE_ONLY if best == 0
              else CopositivityStatus.NOT_COPOSITIVE)
    return CopositivityResult(status, best, witness)


def _face_stationary_value(gram: list[list[Fraction]], support: tuple[int, ...]):
    """Feasible stationary value of the quadratic on one simplex face.

    Solves M_TT lambda = nu e, sum lambda = 1 with lambda >= 0; the value
    of the quadratic there is nu.  Returns (nu, lambda) or None.
    """
    k = len(support)
    if k == 1:
        i = support[0]
        return gram[i][i], (Fraction(1),)
    rows = [[gram[i][j] for j in support] + [Fraction(-1)] for i in support]
    rows.append([Fraction(1)] * k + [Fraction(0)])
    system_m = RationalMatrix(k + 1, k + 1, rows)
    rhs = [Fraction(0)] * k + [Fraction(1)]
    sol = solve_linear(system_m, rhs)
    if sol is None:
        return None
    if not sol.null_basis:
        lam = sol.particular[:k]
        if any(x < 0 for x in lam):
            return None
        return sol.particular[k], tuple(lam)
    # Degenerate face: pick any feasible stationary point by LP; the value
    # is constant on the stationary set.
    lp = LinearSystem(k + 1, nonneg=[True] * k + [False])
    for i in range(k):
        lp.eq(rows[i], 0)
    lp.eq([Fraction(1)] * k + [Fraction(0)], 1)
    out = lp_feasible(lp)
    if not out.is_feasible:
        return None
    return out.witness[k], tuple(out.witness[:k])


def _combine(gens: Sequence[Vector], support: tuple[int, ...],
             weights: Vector, n: int) -> Vector:
    out = [_ZERO] * n
    for idx, w in zip(support, weights):
        if w:
            g = gens[idx]
            for i in range(n):
                out[i] += w * g[i]
    return tuple(out)
