"""The cone K = R^n_+ intersect R(A), its dual, the cone LCP, and the
Karamardian verdict engine.

For the integer basis N of N(A^T), `matrix.left_null_rows`: x in R(A)
iff N^T x = 0, and y in K* = R^n_+ + N(A^T) iff y = u + Nw with u >= 0.
As x^T N w = 0, the complementarity x^T (Ax + q) = 0 becomes x_i u_i = 0
for every i, so the cone LCP is the mixed LCP of [[A, -N], [N^T, 0]]
with w free and is solved by the standard LCP's support scans, whose
standard case is N empty: `lcp.complementary_solutions` for every
solution, x = 0 among them from the empty support, and
`lcp.first_nonzero_solution` for whether only zero solves.  K lies in R^n_+, so it is pointed, and K* and int K* are
read on the generators of K, primitive integer rays found by a double
description.  Each ray g is a nonzero vector with nonnegative entries,
so g^T e > 0 and e lies in int K*.  With the generators as the columns
of V, the cone LCP is also the standard LCP of M = V^T A V
(`generator_lcp`).  The Karamardian decision is a cascade of sound exact
rules that ends in the LCP degree of M; the existential d of the
definition is only semi-decided, by verified candidate vectors, e always
among them, so No is never emitted from a failed search.  A candidate
counts only modulo N(A^T): x^T w = 0 and g^T w = 0 for x in K and w in
N(A^T), so d and d + w have the same cone LCP and lie in int K* together.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Sequence

from .errors import (
    DimensionMismatchError,
    NoGroupInverseError,
    Not2x2Error,
    ZeroVectorError,
)
from .geninv import group_inverse
from .lcp import (
    NO,
    UNKNOWN,
    YES,
    LcpSolutionSet,
    Verdict,
    complementary_solutions,
    first_nonzero_solution,
    lcp_degree,
)
from .lp import LinearSystem, lp_feasible
from .matrix import (
    ENUMERATION_CAP,
    RationalMatrix,
    Vector,
    common_rows,
    dot,
    full_rank_factorization,
    integer_row,
    is_unisigned,
    is_zero_vec,
    left_null_rows,
    memoized,
    ones_vec,
    vec,
    zeros_vec,
)

_ONE = Fraction(1)

RULE_K_TRIVIAL = "K_TRIVIAL"
RULE_HOMOGENEOUS_NONZERO = "HOMOGENEOUS_NONZERO"
RULE_CLASS_2X2 = "CLASS_2X2"
RULE_DEGREE_NOT_ONE = "DEGREE_NOT_ONE"
RULE_CANDIDATE_D = "CANDIDATE_D"
RULE_PERMUTATION_REDUCT = "PERMUTATION_REDUCT"


# -- the cone K and its dual ---------------------------------------------


@dataclass(frozen=True)
class ConeData:
    """K = R^n_+ intersect R(A) by its generators.  `rays` holds each
    generator as a primitive integer vector, in the order the double
    description found them."""

    rays: tuple[tuple[int, ...], ...]

    @property
    def trivial(self) -> bool:
        return not self.rays

    @property
    def nontrivial_witness(self) -> Vector | None:
        """The least generator scaled to sum 1, or None when K = {0}."""
        return min((tuple(Fraction(t, sum(r)) for t in r) for r in self.rays), default=None)


@memoized("coneK")
def cone_K(a: RationalMatrix) -> ConeData:
    """Generators are the extreme rays of K = {x >= 0 : W^T x = 0}, W the
    integer basis of N(A^T) (`left_null_rows`)."""
    a.require_square("cone K", scan=True)
    return ConeData(tuple(map(tuple, _double_description(a.rows, left_null_rows(a)))))


def maps_K_nonneg(a: RationalMatrix, x: RationalMatrix) -> bool:
    """X g >= 0 for every generator g of K, so X maps K into R^n_+, read on
    B = alpha X from `common_rows` (a positive scale keeps signs).  An
    invertible A has K = R^n_+, so this is X >= 0, read with no double
    description and at any order."""
    if not left_null_rows(a):
        return all(t >= 0 for row in x.data for t in row)
    return all(sum(map(mul, r, g)) >= 0 for g in cone_K(a).rays for r in common_rows(x)[1])


def _double_description(n: int, null: Sequence[Sequence[int]]) -> list[list[int]]:
    """Extreme rays of {x >= 0 : w^T x = 0} for the integer vectors w in null.

    From the unit vectors, each hyperplane w^T x = 0 keeps the rays on it
    and joins each adjacent pair p, r with w^T p > 0 > w^T r into
    (w^T p) r - (w^T r) p, over its gcd.  Two rays are adjacent when no
    third ray's zero set contains the meet of theirs (Motzkin, Raiffa,
    Thompson & Thrall, 1953; Fukuda & Prodon, 1996)."""
    rays = [[int(i == j) for j in range(n)] for i in range(n)]
    for w in null:
        dots = [sum(map(mul, w, ray)) for ray in rays]
        zeros = [sum(1 << i for i, t in enumerate(ray) if not t) for ray in rays]
        kept = [ray for ray, s in zip(rays, dots) if not s]
        for i, j in itertools.product(range(len(rays)), repeat=2):
            if dots[i] <= 0 or dots[j] >= 0:
                continue
            meet = zeros[i] & zeros[j]
            if any(z & meet == meet for k, z in enumerate(zeros) if k != i and k != j):
                continue
            ray = [dots[i] * t - dots[j] * u for t, u in zip(rays[j], rays[i])]
            g = gcd(*ray)
            kept.append([t // g for t in ray])
        rays = kept
    return rays


@memoized("generator_lcp")
def generator_lcp(a: RationalMatrix) -> tuple[RationalMatrix, tuple[tuple[int, ...], ...]]:
    """(M, V): the cone LCP in generator form, with the integer rays of K
    as the columns of V and M = V^T A V.  x = V lam solves the cone LCP
    (A, q) iff lam solves LCP(M, V^T q), and only zero solves one iff only
    zero solves the other.  An invertible A has V = I and M = A itself,
    which shares A's support tables; K = {0} has V = () and the 0 x 0 M,
    whose LCP, like the cone LCP, has only zero."""
    cone = cone_K(a)
    if not left_null_rows(a):
        return a, cone.rays
    vt = RationalMatrix.from_ints(cone.rays)
    return (vt @ a @ vt.transpose() if cone.rays else vt), cone.rays


def dual_membership(a: RationalMatrix, y: Sequence) -> bool:
    """y in K* = R^n_+ + N(A^T), the dual of the pointed cone K: g^T y >= 0
    for every generator g of K, read on `integer_row(y)`, a positive
    multiple of y."""
    yv = integer_row(a.square_and_vector(y, "dual membership", scan=True))[0]
    return all(sum(map(mul, g, yv)) >= 0 for g in cone_K(a).rays)


def int_dual_membership(a: RationalMatrix, d: Sequence) -> bool:
    """d in int(K*) = int(R^n_+) + N(A^T): g^T d > 0 for every generator g
    of K, as K is pointed, read on `integer_row(d)`."""
    dv = integer_row(a.square_and_vector(d, "interior dual membership", scan=True))[0]
    return all(sum(map(mul, g, dv)) > 0 for g in cone_K(a).rays)


# -- cone LCP --------------------------------------------------------------


def cone_lcp_solutions(a: RationalMatrix, q: Sequence) -> LcpSolutionSet:
    """All solutions of the cone LCP: x in K, Ax + q in K*, x^T (Ax+q) = 0."""
    qv = a.square_and_vector(q, "cone LCP", scan=True)
    return complementary_solutions(a, qv, left_null_rows(a))


def cone_lcp_only_zero(a: RationalMatrix, q: Sequence) -> bool:
    """True iff the cone LCP has no nonzero solution."""
    qv = a.square_and_vector(q, "cone LCP", scan=True)
    return first_nonzero_solution(a, qv, left_null_rows(a)) is None


# -- rank-one and 2x2 classifications --------------------------------------


@dataclass(frozen=True)
class RankOneClassification:
    p_hash: bool
    karamardian: bool


def rank_one_classification(u: Sequence, v: Sequence) -> RankOneClassification:
    """For A = u v^T: P# iff v^T u > 0; Karamardian iff u is unisigned and
    u^T v > 0."""
    uv, vv = vec(u), vec(v)
    if is_zero_vec(uv) or is_zero_vec(vv):
        raise ZeroVectorError("rank-one factors must be nonzero")
    if len(uv) != len(vv):
        raise DimensionMismatchError("u and v must have the same length")
    inner = dot(uv, vv)
    return RankOneClassification(p_hash=inner > 0,
                                 karamardian=is_unisigned(uv) and inner > 0)


def classify_2x2(a: RationalMatrix) -> Verdict:
    """Exact Karamardian decision for every 2x2 matrix, by sign pattern."""
    if a.rows != 2 or a.cols != 2:
        raise Not2x2Error(f"expected a 2x2 matrix, got {a.rows}x{a.cols}")
    e11, e12 = a.data[0][0], a.data[0][1]
    e21, e22 = a.data[1][0], a.data[1][1]
    det = e11 * e22 - e12 * e21

    def verdict(yes: bool, case: str, **extra) -> Verdict:
        witnesses = {"case": case, **extra}
        return Verdict(YES if yes else NO, rule=RULE_CLASS_2X2, witnesses=witnesses)

    if det == 0:
        if a.is_zero():
            return Verdict(NO, rule=RULE_K_TRIVIAL, witnesses={"case": "zero_matrix"})
        f, g = full_rank_factorization(a)
        u, v = f.col_vec(0), g.row_vec(0)
        if not is_unisigned(u):
            # the column space meets the nonnegative orthant only at zero
            return Verdict(NO, rule=RULE_K_TRIVIAL,
                           witnesses={"case": "singular_trivial_cone", "u": u, "v": v})
        return verdict(rank_one_classification(u, v).karamardian, "singular_rank_one", u=u, v=v)
    if e11 == 0 and e22 == 0:
        return verdict(False, "antidiagonal")
    if e11 == 0:
        return verdict(e12 > 0 and e21 < 0 and e22 > 0, "one_diagonal_zero")
    if e22 == 0:
        return verdict(e11 > 0 and e12 < 0 and e21 > 0, "one_diagonal_zero",
                       via=RULE_PERMUTATION_REDUCT)
    if e12 == 0 or e21 == 0:
        return verdict(e11 > 0 and e22 > 0, "triangular")
    negatives = sum(1 for t in (e11, e12, e21, e22) if t < 0)
    if negatives == 0:
        return verdict(True, "positive_matrix")
    if negatives == 1:
        return verdict(e11 > 0 and e22 > 0, "three_positive_one_negative")
    if negatives == 2:
        if e11 < 0 and e22 < 0:
            return verdict(False, "negative_diagonal")
        if e12 < 0 and e21 < 0:
            return verdict(det > 0, "negative_offdiagonal")
        if (e11 < 0 and e21 < 0) or (e12 < 0 and e22 < 0):
            return verdict(det > 0, "negative_column")
        return verdict(False, "nonpositive_row")
    return verdict(False, "nonpositive_row")


# -- the Karamardian cascade ------------------------------------------------


def default_candidates(a: RationalMatrix, witness: Vector | None) -> list[Vector]:
    """The candidates d tried after e: the cone witness with its zero
    entries raised to 1 and to 1/2, a positive x with Ax >= 0 (one LP), and
    Ax when nonzero.  Each is verified to lie in int(K*) before it counts,
    and the cascade skips repeats.  No shift of a candidate along N(A^T) is
    added: the cone LCP (A, d + w) is the cone LCP (A, d) for w in N(A^T)."""
    n = a.rows
    out: list[Vector] = []
    if witness is not None:
        for eps in (_ONE, Fraction(1, 2)):
            out.append(tuple(w if w > 0 else eps for w in witness))
    # A positive x with Ax >= 0 doubles as d = x, and Ax as well when nonzero.
    system = LinearSystem(n, nonneg=True)
    for j in range(n):
        system.ge([int(i == j) for i in range(n)], 1)
    # rows scaled one by one (LinearSystem.ge): the simplex's witness, a
    # candidate d, depends on how its rows are scaled
    for row in a.data:
        system.ge(row, 0)
    feas = lp_feasible(system)
    if feas.is_feasible:
        out.append(feas.witness)
        ax = a.mul_vec(feas.witness)
        if not is_zero_vec(ax):
            out.append(ax)
    return out


def is_karamardian(a: RationalMatrix, candidate_ds: Sequence[Sequence] | None = None) -> Verdict:
    """Decision cascade; the first firing rule wins.

    After the trivial-K and homogeneous rules come the hints and then e,
    which lies in int K* (every ray g of K is nonzero and nonnegative, so
    g^T e > 0).  Then the LCP degree of M = V^T A V ends the exact rules:
    deg M != 1 is a No, and `classify_2x2` decides what remains at order
    2.  Last come the `default_candidates`.  No is emitted only from those
    sound rules; an exhausted candidate search yields Unknown, never No,
    with every d it tried.  The verdict is memoized per matrix and set of
    hints.
    """
    a.require_square("Karamardian test", scan=True)
    n = a.rows
    hints = tuple(vec(d) for d in candidate_ds or ())
    for d in hints:
        if len(d) != n:
            raise DimensionMismatchError(
                f"candidate d [{', '.join(map(str, d))}] has length {len(d)},"
                f" but the matrix has order {n}")
    return _karamardian_cascade(a, hints)


@memoized("karamardian")
def _karamardian_cascade(a: RationalMatrix, hints: tuple[Vector, ...]) -> Verdict:
    n = a.rows
    cone = cone_K(a)
    if cone.trivial:
        return Verdict(NO, rule=RULE_K_TRIVIAL)
    nonzero = first_nonzero_solution(a, zeros_vec(n), left_null_rows(a))
    if nonzero is not None:
        return Verdict(NO, rule=RULE_HOMOGENEOUS_NONZERO, witnesses={"solution": nonzero})

    tried: list[Vector] = []
    for d in (*hints, ones_vec(n)):
        verdict = _try_candidate(a, d, tried)
        if verdict is not None:
            return verdict

    # M = V^T A V is R0, as the homogeneous problem has only zero.  A d in
    # int K* leaving only zero would make p = V^T d > 0 a regular q whose
    # one solution, zero, has index 1, so deg M != 1 rules every d out
    m, rays = generator_lcp(a)
    walk = lcp_degree(m) if m.rows <= ENUMERATION_CAP else None
    if walk is not None and walk["degree"] != 1:
        return Verdict(NO, rule=RULE_DEGREE_NOT_ONE, witnesses={"V": rays, **walk})
    if n == 2:
        return classify_2x2(a)

    for d in default_candidates(a, cone.nontrivial_witness):
        verdict = _try_candidate(a, d, tried)
        if verdict is not None:
            return verdict
    return Verdict(UNKNOWN, evidence={"tried": tuple(tried)})


def _try_candidate(a: RationalMatrix, d: Vector, tried: list[Vector]) -> Verdict | None:
    """A Yes certificate when d is new to `tried` (it is then appended), lies
    in int K* and leaves the cone LCP (A, d) only the zero solution."""
    if d in tried:
        return None
    tried.append(d)
    if int_dual_membership(a, d) and cone_lcp_only_zero(a, d):
        return Verdict(YES, rule=RULE_CANDIDATE_D, witnesses={"d": d})
    return None


def karamardian_of_group_inverse(a: RationalMatrix) -> Verdict:
    """The Karamardian cascade on A#, which says Yes at d = e for a range
    monotone Z-matrix A with K != {0}: A# shares K and K*, x^T (A# x + e)
    >= e^T x > 0 for nonzero x in K, and x = A u with u = A# x >= 0 and
    x_i u_i = 0 vanishes on supp u and, A being Z, is <= 0 off it."""
    a.require_square("group-inverse Karamardian test")
    gi = group_inverse(a)
    if not gi.exists:
        raise NoGroupInverseError("matrix has no group inverse (rank A != rank A^2)")
    return is_karamardian(gi.inverse)
