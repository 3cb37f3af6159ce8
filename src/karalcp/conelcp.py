"""The cone K = R^n_+ intersect R(A), its dual, the cone LCP, and the
Karamardian verdict engine.

For a basis N of N(A^T): x in R(A) iff N^T x = 0, and y in
K* = R^n_+ + N(A^T) iff y = u + Nw with u >= 0.  As x^T N w = 0, the
complementarity x^T (Ax + q) = 0 becomes x_i u_i = 0 for every i, so the
cone LCP is the mixed LCP of [[A, -N], [N^T, 0]] with w free and is
solved by the standard LCP's support scans, whose standard case is N
empty: `lcp.complementary_solutions` for every solution, x = 0 among them
from the empty support, and `lcp.first_nonzero_solution` for whether only
zero solves.  K lies in R^n_+, so it is pointed, and K* and int K* are
read on the generators of K.  Each generator sums to 1, so e lies in
int K*.  The Karamardian decision is a cascade of sound exact rules; the
existential d of the definition is only semi-decided, by verified
candidate vectors, e always among them, so No is never emitted from a
failed search.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    DimensionMismatchError,
    NoGroupInverseError,
    Not2x2Error,
    ZeroVectorError,
)
from .geninv import group_inverse
from .lcp_classes import ConeRep, is_almost_semimonotone
from .lcp import (
    NO,
    RULE_N_FIRST_CATEGORY,
    UNKNOWN,
    YES,
    LcpSolutionSet,
    Verdict,
    complementary_solutions,
    first_nonzero_solution,
    n_first_category_applies,
)
from .lp import LinearSystem, lp_feasible
from .matrix import (
    RationalMatrix,
    Vector,
    dot,
    full_rank_factorization,
    integer_rows,
    is_unisigned,
    is_zero_vec,
    ones_vec,
    rank,
    solve_linear,
    subspace_bases,
    vec,
    zeros_vec,
)
from .minor_classes import minor_class, structural_flags

_ZERO = Fraction(0)
_ONE = Fraction(1)

RULE_K_TRIVIAL = "K_TRIVIAL"
RULE_HOMOGENEOUS_NONZERO = "HOMOGENEOUS_NONZERO"
RULE_RANK_ONE = "RANK_ONE"
RULE_CLASS_2X2 = "CLASS_2X2"
RULE_ALMOST_SEMIMONOTONE = "ALMOST_SEMIMONOTONE"
RULE_Z_NOT_P = "Z_NOT_P_NONSINGULAR"
RULE_CANDIDATE_D = "CANDIDATE_D"
RULE_RANGE_MONOTONE_Z = "RANGE_MONOTONE_Z_GROUP_INVERSE"
RULE_PERMUTATION_REDUCT = "PERMUTATION_REDUCT"

# How many candidate vectors d the Karamardian search verifies by default.
CANDIDATE_BUDGET = 16


# -- the cone K and its dual ---------------------------------------------


@dataclass(frozen=True)
class ConeData:
    """K = R^n_+ intersect R(A) by its generators, with the basis of N(A^T)
    in the dual decomposition K* = R^n_+ + N(A^T)."""

    cone: ConeRep
    dual_null_basis: tuple[Vector, ...]
    nontrivial_witness: Vector | None

    @property
    def trivial(self) -> bool:
        return self.nontrivial_witness is None


def cone_K(a: RationalMatrix) -> ConeData:
    """Generators are the vertices of {x in R(A), x >= 0, sum x = 1}."""
    a.require_square("cone K", scan=True)
    cached = a._cache.get("coneK")
    if cached is not None:
        return cached
    bases = subspace_bases(a)
    vertices = _base_polytope_vertices(a, bases)
    result = ConeData(
        cone=ConeRep(a.rows, tuple(vertices)),
        dual_null_basis=bases.left_null.basis,
        nontrivial_witness=vertices[0] if vertices else None,
    )
    a._cache["coneK"] = result
    return result


def _base_polytope_vertices(a: RationalMatrix, bases) -> list[Vector]:
    """Vertex enumeration of {x = Bc >= 0, e^T x = 1} in range coordinates.

    At a vertex the active inequality rows have rank r-1 and the
    normalization row completes a basis, so solving every (r-1)-subset of
    rows against the normalization finds every vertex exactly.
    """
    n = a.rows
    basis = bases.range.basis
    r = len(basis)
    if r == 0:
        return []
    rows_b = [[basis[k][i] for k in range(r)] for i in range(n)]  # (Bc)_i coefficients
    norm = [sum(rows_b[i][k] for i in range(n)) for k in range(r)]
    seen: set[Vector] = set()
    for subset in itertools.combinations(range(n), r - 1):
        mat = RationalMatrix.from_rows([rows_b[i] for i in subset] + [norm])
        sol = solve_linear(mat, [_ZERO] * (r - 1) + [_ONE])
        if sol is None or sol.null_basis:
            continue
        c = sol.particular
        x = tuple(sum((rows_b[i][k] * c[k] for k in range(r)), _ZERO) for i in range(n))
        if all(t >= 0 for t in x):
            seen.add(x)
    return sorted(seen)


def dual_membership(a: RationalMatrix, y: Sequence) -> bool:
    """y in K* = R^n_+ + N(A^T), the dual of the pointed cone K: g^T y >= 0
    for every generator g of K."""
    yv = a.square_and_vector(y, "dual membership", scan=True)
    return all(dot(g, yv) >= 0 for g in cone_K(a).cone.generators)


def int_dual_membership(a: RationalMatrix, d: Sequence) -> bool:
    """d in int(K*) = int(R^n_+) + N(A^T): g^T d > 0 for every generator g
    of K, as K is pointed."""
    dv = a.square_and_vector(d, "interior dual membership", scan=True)
    return all(dot(g, dv) > 0 for g in cone_K(a).cone.generators)


# -- cone LCP --------------------------------------------------------------


def cone_lcp_solutions(a: RationalMatrix, q: Sequence) -> LcpSolutionSet:
    """All solutions of the cone LCP: x in K, Ax + q in K*, x^T (Ax+q) = 0."""
    qv = a.square_and_vector(q, "cone LCP", scan=True)
    return complementary_solutions(a, qv, subspace_bases(a).left_null.basis)


def cone_lcp_only_zero(a: RationalMatrix, q: Sequence) -> bool:
    """True iff the cone LCP has no nonzero solution."""
    qv = a.square_and_vector(q, "cone LCP", scan=True)
    return first_nonzero_solution(a, qv, subspace_bases(a).left_null.basis) is None


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


def _rank_one_factors(a: RationalMatrix) -> tuple[Vector, Vector]:
    f, g = full_rank_factorization(a)
    return f.col_vec(0), g.row_vec(0)


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
        u, v = _rank_one_factors(a)
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


def default_candidates(a: RationalMatrix, witness: Vector | None,
                       seed: int = 0, limit: int = 32) -> list[Vector]:
    """Deterministic candidate-d pool for the existential part of the
    Karamardian definition.  All candidates are later verified to lie in
    int(K*) before they count, so this list may overshoot freely, and it
    may repeat a candidate: the cascade skips repeats."""
    n = a.rows
    out: list[Vector] = [ones_vec(n)]
    if witness is not None:
        for eps in (_ONE, Fraction(1, 2)):
            out.append(tuple(w if w > 0 else eps for w in witness))
    # A positive x with Ax >= 0 doubles as d = x, and Ax as well when nonzero.
    system = LinearSystem(n, nonneg=True)
    for j in range(n):
        system.ge([int(i == j) for i in range(n)], 1)
    for ints, _ in integer_rows(a):
        system.ge(ints, 0)
    feas = lp_feasible(system)
    if feas.is_feasible:
        out.append(feas.witness)
        ax = a.mul_vec(feas.witness)
        if not is_zero_vec(ax):
            out.append(ax)
    null = subspace_bases(a).left_null.basis
    e = ones_vec(n)
    for w in null:
        for kcoef in (1, -1, 2, -2, 3, -3):
            out.append(tuple(e[i] + kcoef * w[i] for i in range(n)))
    if null:
        rng = random.Random(seed)
        while len(out) < limit:
            coeffs = [rng.randint(-3, 3) for _ in null]
            out.append(tuple(e[i] + sum(c * w[i] for c, w in zip(coeffs, null))
                             for i in range(n)))
    return out


def is_karamardian(a: RationalMatrix, candidate_ds: Sequence[Sequence] | None = None,
                   max_candidates: int = CANDIDATE_BUDGET, seed: int = 0,
                   force_candidate_search: bool = False) -> Verdict:
    """Decision cascade; the first firing rule wins.

    After the trivial-K and homogeneous rules come the hints and then e,
    which lies in int K* (every generator of K sums to 1), whatever
    `max_candidates` is.  No is emitted only from sound rules (trivial K,
    nonzero homogeneous solution, the exact rank-one / 2x2 /
    almost-semimonotone / Z-not-P / first-category-N rules); an exhausted
    candidate search yields Unknown, never No.  `force_candidate_search`
    skips the exact shortcut rules (used by the cross-validation tests).
    The verdict is memoized in `a._cache` per argument set.
    """
    a.require_square("Karamardian test", scan=True)
    n = a.rows
    hints = [vec(d) for d in candidate_ds or ()]
    for d in hints:
        if len(d) != n:
            raise DimensionMismatchError(
                f"candidate d [{', '.join(map(str, d))}] has length {len(d)},"
                f" but the matrix has order {n}")
    key = ("karamardian", tuple(hints), max_candidates, seed, force_candidate_search)
    cached = a._cache.get(key)
    if cached is None:
        cached = a._cache[key] = _karamardian_cascade(a, hints, max_candidates, seed,
                                                      force_candidate_search)
    return cached


def _karamardian_cascade(a: RationalMatrix, hints: list[Vector], max_candidates: int,
                         seed: int, force_candidate_search: bool) -> Verdict:
    n = a.rows
    cone = cone_K(a)
    if cone.trivial:
        return Verdict(NO, rule=RULE_K_TRIVIAL)
    nonzero = first_nonzero_solution(a, zeros_vec(n), subspace_bases(a).left_null.basis)
    if nonzero is not None:
        return Verdict(NO, rule=RULE_HOMOGENEOUS_NONZERO, witnesses={"solution": nonzero})

    # The hints, then e, whatever max_candidates is.
    tried: list[Vector] = []
    for d in hints + [ones_vec(n)]:
        verdict = _try_candidate(a, d, tried)
        if verdict is not None:
            return verdict

    if not force_candidate_search:
        if rank(a) == 1:
            # A = u v^T: K nontrivial makes u unisigned, u^T v = 0 a homogeneous
            # solution and u^T v > 0 let e certify, so u^T v < 0: not Karamardian
            u, v = _rank_one_factors(a)
            return Verdict(NO, rule=RULE_RANK_ONE, witnesses={"u": u, "v": v})
        if n == 2:
            return classify_2x2(a)
        if is_almost_semimonotone(a):
            return Verdict(NO, rule=RULE_ALMOST_SEMIMONOTONE)
        if rank(a) == n and structural_flags(a).z_matrix and not minor_class(a).is_p:
            return Verdict(NO, rule=RULE_Z_NOT_P)
        if n_first_category_applies(a):
            return Verdict(NO, rule=RULE_N_FIRST_CATEGORY)

    if len(tried) < max_candidates:
        for d in default_candidates(a, cone.nontrivial_witness, seed=seed,
                                    limit=max(2 * max_candidates, 8)):
            if len(tried) >= max_candidates:
                break
            verdict = _try_candidate(a, d, tried)
            if verdict is not None:
                return verdict
    return Verdict(UNKNOWN, evidence={"tried": tuple(tried), "seed": seed})


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
    """Verdict for A#: a range monotone Z-matrix with nontrivial K certifies
    Yes outright; otherwise the cascade runs on the computed A#."""
    from .monotone import is_range_monotone

    a.require_square("group-inverse Karamardian test")
    gi = group_inverse(a)
    if not gi.exists:
        raise NoGroupInverseError("matrix has no group inverse (rank A != rank A^2)")
    flags = structural_flags(a)
    if flags.z_matrix and not cone_K(a).trivial and is_range_monotone(a):
        return Verdict(YES, rule=RULE_RANGE_MONOTONE_Z)
    return is_karamardian(gi.inverse)
