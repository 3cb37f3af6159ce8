"""LCP(A, q) by complementary-support enumeration, for the standard and
the cone LCP, and the Q-matrix semi-decision.

One support solver serves both problems.  In the cone LCP of conelcp.py,
with N a basis of N(A^T): x in R(A) iff N^T x = 0, y in
K* = R^n_+ + N(A^T) iff y = u + Nw with u >= 0, and since x^T N w = 0 the
complementarity x^T y = 0 becomes x_i u_i = 0 for every i.  So the cone
LCP is the mixed LCP of the bordered matrix [[A, -N], [N^T, 0]] with w
free, and the standard LCP is its case N empty.  For each support S the
square block [[A_SS, -N_S], [N_S^T, 0]] (x_S, w) = (-q_S, 0) is solved
exactly; a nonsingular block, factored once per matrix in integers, gives
at most one candidate per q, a singular but consistent block gives an
affine family that is intersected with the sign constraints by one LP and
classified as empty, a point, or a positive-dimensional family in x
(flagged degenerate with one representative).  `complementary_solutions`
visits every support; `first_nonzero_solution` stops at the first nonzero
solution, which answers both yes/no questions asked here: is zero the only
solution (q >= 0), and is there any (q with a negative entry, so none is
zero)?

Q-matrix membership is only semi-decidable at desk scale, so the verdict
type carries its epistemic state: Yes and No come with re-checkable
certificates, Unknown with the sampling log.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import QNotNonnegativeError
from .lcp_classes import ConeRep, is_strictly_copositive
from .lp import UNBOUNDED, LinearSystem, lp_feasible, lp_optimize
from .matrix import (
    RationalMatrix,
    Vector,
    _eliminate,
    integer_row,
    integer_rows,
    is_zero_vec,
    nonempty_subsets,
    rank,
    solve_linear,
    zeros_vec,
)
from .minor_classes import minor_class, structural_flags

YES = "Yes"
NO = "No"
UNKNOWN = "Unknown"

Q_SAMPLES = 64
Q_SAMPLE_BOUND = 10

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Verdict:
    """Three-valued result with evidence.

    Yes/No carry a rule identifier and witness vectors that re-verify
    against the rule's defining conditions; Unknown carries the sample or
    candidate log plus the seed that produced it.
    """

    status: str
    rule: str | None = None
    witnesses: dict = field(default_factory=dict)
    evidence: dict | None = None


@dataclass(frozen=True)
class LcpSolutionSet:
    """Exact solutions plus positive-dimensional family flags.

    `solutions` holds one exact vector per isolated solution and one
    representative per degenerate family; supports whose solution set is
    positive-dimensional are listed in `degenerate_supports`.
    """

    solutions: tuple[Vector, ...]
    degenerate_supports: tuple[tuple[int, ...], ...]

    @property
    def has_degenerate(self) -> bool:
        return bool(self.degenerate_supports)


def lcp_solutions(a: RationalMatrix, q: Sequence) -> LcpSolutionSet:
    """Every exact solution of x >= 0, y = Ax + q >= 0, x^T y = 0."""
    qv = a.square_and_vector(q, "LCP", scan=True)
    return complementary_solutions(a, qv, (), zero_solves=all(t >= 0 for t in qv))


def complementary_solutions(a: RationalMatrix, q: Vector, null: Sequence[Vector],
                            zero_solves: bool) -> LcpSolutionSet:
    """Every solution of the LCP with y-side translated by span(null), one
    `support_solver` call per support; `zero_solves` says whether x = 0 does."""
    n = a.rows
    solve = support_solver(a, q, null)
    solutions: set[Vector] = {zeros_vec(n)} if zero_solves else set()
    degenerate: list[tuple[int, ...]] = []
    for support in nonempty_subsets(n):
        x, is_family = solve(support)
        if x is None:
            continue
        solutions.add(x)
        if is_family:
            degenerate.append(support)
    return LcpSolutionSet(tuple(sorted(solutions)), tuple(degenerate))


def first_nonzero_solution(a: RationalMatrix, q: Vector, null: Sequence[Vector]) -> Vector | None:
    """The nonzero solution of the first support, in (size, lexicographic)
    order, that has one, for the LCP with y-side translated by span(null);
    None when no solution is nonzero.  A positive-dimensional family holds
    a nonzero point, so no separate degeneracy check is needed."""
    solve = support_solver(a, q, null)
    for support in nonempty_subsets(a.rows):
        x, _ = solve(support)
        if x is not None and not is_zero_vec(x):
            return x
    return None


def support_solver(a: RationalMatrix, q: Vector, null: Sequence[Vector]):
    """S -> (x, is_family) for this q: x is a solution with x = 0 off S, or
    None when S has none, and is_family tells whether the solutions with
    x = 0 off S are more than one point.

    S solves the square block [[A_SS, -N_S], [N_S^T, 0]] (x_S, w) = (-q_S, 0)
    in x_S and the free w, one per vector of `null`.  A nonsingular block is
    factored once per matrix and null basis (`_block_factor`), so a q costs
    integer products and sign checks, and Fractions only for a returned
    solution.  A singular block is solved in Fractions and its affine
    family goes to `_family_solutions`.
    """
    key = ("supports", tuple(null))
    cached = a._cache.get(key)
    if cached is None:
        cached = a._cache[key] = (integer_rows(a), [integer_row(w)[0] for w in null], {})
    rows, null_ints, factors = cached
    qn, qden = integer_row(q)

    def solve(support):
        if support not in factors:
            factors[support] = _block_factor(rows, null_ints, support)
        factor = factors[support]
        if factor is None:
            return _singular_support(a, q, null, support)
        den, inv, residuals = factor
        qs = [qn[i] for i in support]
        v = [sum(map(mul, row, qs)) for row in inv]
        x_s = v[:len(support)]
        if min(x_s) < 0 or any(sum(map(mul, r, v)) + c * qn[i] < 0 for r, c, i in residuals):
            return None, False
        return _expand([Fraction(t, den * qden) for t in x_s], support, a.rows), False

    return solve


def _block_factor(rows, null_ints, support):
    """(den, inv, residuals) for S's block B_S with row i of A scaled by its
    multiplier m_i and each null vector to integers (a positive rescale of
    w, so x is unchanged), or None when B_S is singular.  One elimination of
    [B_S | I] gives den B_S^-1, kept as `inv` on the columns of the support
    rows times -m_i and with den made positive: for q = Q / qden, v = inv Q_S
    is (x_S, w) den qden, and for each (r_i, m_i den, i) in residuals, one
    per i off S, r_i . v + m_i den Q_i is (Ax - Nw + q)_i m_i den qden."""
    k, size = len(support), len(support) + len(null_ints)
    block_row = [[ints[j] for j in support] + [-mult * w[i] for w in null_ints]
                 for i, (ints, mult) in enumerate(rows)]
    aug = [block_row[i] + [int(r == c) for c in range(k)] for r, i in enumerate(support)]
    aug += [[w[i] for i in support] + [0] * size for w in null_ints]
    den, pivots, _ = _eliminate(aug, size)
    if len(pivots) < size:
        return None
    sign = 1 if den > 0 else -1
    col_scale = [-sign * rows[i][1] for i in support]
    inv = [[t * f for t, f in zip(row[size:], col_scale)] for row in aug]
    residuals = [(block_row[i], rows[i][1] * sign * den, i)
                 for i in range(len(rows)) if i not in support]
    return sign * den, inv, residuals


def _singular_support(a: RationalMatrix, q: Vector, null: Sequence[Vector], support):
    """`support_solver` on a singular block: one Fraction solve, and the
    affine family of solutions, if any, classified by `_family_solutions`."""
    k, d = len(support), len(null)
    rows = [[a.data[i][j] for j in support] + [-w[i] for w in null] for i in support]
    rows += [[w[i] for i in support] + [_ZERO] * d for w in null]
    sol = solve_linear(RationalMatrix(k + d, k + d, rows), [-q[i] for i in support] + [_ZERO] * d)
    if sol is None:
        return None, False
    comp = [i for i in range(a.rows) if i not in support]

    def off_support(i: int, v: Vector) -> Fraction:
        """(Ax - Nw)_i for the block vector v = (x_S, w)."""
        return (sum((a.data[i][j] * v[idx] for idx, j in enumerate(support)), _ZERO)
                - sum((w[i] * v[k + m] for m, w in enumerate(null)), _ZERO))

    return _family_solutions(a.rows, q, support, sol, comp, off_support)


def _expand(x_s: Sequence[Fraction], support, n: int) -> Vector:
    x = [_ZERO] * n
    for val, i in zip(x_s, support):
        x[i] = val
    return tuple(x)


def _family_solutions(n: int, q: Vector, support, sol, comp, off_support):
    """Classify an affine family of block solutions, v = particular + sum
    t_j basis_j, against the sign constraints: returns (representative |
    None, positive_dimensional), where only x_S counts towards dimension."""
    k = len(support)
    coords = [[nb[idx] for nb in sol.null_basis] for idx in range(k)]
    system = LinearSystem(len(sol.null_basis))
    for idx in range(k):
        system.ge(coords[idx], -sol.particular[idx])
    for i in comp:
        coeffs = [off_support(i, nb) for nb in sol.null_basis]
        system.ge(coeffs, -q[i] - off_support(i, sol.particular))
    out = lp_feasible(system)
    if not out.is_feasible:
        return None, False

    def to_x(t) -> Vector:
        x_s = [sol.particular[idx] + sum(nb[idx] * t[j] for j, nb in enumerate(sol.null_basis))
               for idx in range(k)]
        return _expand(x_s, support, n)

    # the family is a single point in x unless some x_i is nonconstant
    for coeffs in coords:
        lo = lp_optimize(coeffs, system, "min")
        hi = lp_optimize(coeffs, system, "max")
        if hi.status == UNBOUNDED:
            # x_i is unbounded above: pin it one unit past the minimum (the
            # last use of the system, as eq appends in place) to produce a
            # representative with x_i > 0
            return to_x(lp_feasible(system.eq(coeffs, lo.value + 1)).witness), True
        if lo.value != hi.value:
            # hi > lo >= 0, so the max witness is nonzero
            return to_x(hi.witness), True
    return to_x(out.witness), False


def lcp_unique_zero(a: RationalMatrix, q: Sequence) -> bool:
    """True iff zero is the only solution (q >= 0 so that zero solves)."""
    qv = a.square_and_vector(q, "LCP uniqueness", scan=True)
    if any(t < 0 for t in qv):
        raise QNotNonnegativeError("q must be entrywise nonnegative")
    return first_nonzero_solution(a, qv, ()) is None


# -- Q-matrix semi-decision -------------------------------------------------

RULE_NONPOSITIVE_ROW = "NONPOSITIVE_ROW"
RULE_NONNEG_ZERO_DIAG = "NONNEG_ZERO_DIAGONAL"
RULE_Z_AND_P = "Z_AND_P"
RULE_Z_NOT_P = "Z_NOT_P"
RULE_NONNEG_POS_DIAG = "NONNEG_POS_DIAG"
RULE_P_MATRIX = "P_MATRIX"
RULE_N_FIRST_CATEGORY = "N_FIRST_CATEGORY"
RULE_STRICTLY_COPOSITIVE = "STRICTLY_COPOSITIVE"
RULE_KARAMARDIAN_INVERTIBLE = "KARAMARDIAN_INVERTIBLE"
RULE_UNSOLVABLE_Q = "UNSOLVABLE_Q"


def n_first_category_applies(a: RationalMatrix) -> bool:
    """N-matrix of the first category with a positive entry in every column:
    a Q-matrix whose LCP has exactly three solutions for every q > 0, so Yes
    in the Q-matrix cascade and No in the Karamardian one."""
    if not minor_class(a).n_first_category:
        return False
    return all(any(a.data[i][j] > 0 for i in range(a.rows)) for j in range(a.cols))


def is_q_matrix(a: RationalMatrix, seed: int = 0) -> Verdict:
    """Exact Yes/No where a sound rule fires, else sampling refutation,
    else Unknown with the sample log."""
    a.require_square("Q-matrix test", scan=True)
    n = a.rows
    flags = structural_flags(a)
    if flags.has_nonpositive_row:
        row = next(i for i in range(n) if all(x <= 0 for x in a.data[i]))
        q = tuple(-_ONE if j == row else _ZERO for j in range(n))
        return Verdict(NO, rule=RULE_NONPOSITIVE_ROW, witnesses={"q": q, "row": row})
    diag_positive = all(a.data[i][i] > 0 for i in range(n))
    if flags.nonnegative and not diag_positive:
        return Verdict(NO, rule=RULE_NONNEG_ZERO_DIAG)
    minors = minor_class(a)
    if flags.z_matrix:
        if minors.is_p:
            return Verdict(YES, rule=RULE_Z_AND_P)
        return Verdict(NO, rule=RULE_Z_NOT_P)
    if flags.nonnegative and diag_positive:
        return Verdict(YES, rule=RULE_NONNEG_POS_DIAG)
    if minors.is_p:
        return Verdict(YES, rule=RULE_P_MATRIX)
    if n_first_category_applies(a):
        return Verdict(YES, rule=RULE_N_FIRST_CATEGORY)
    if is_strictly_copositive(a, ConeRep.nonnegative_orthant(n)):
        return Verdict(YES, rule=RULE_STRICTLY_COPOSITIVE)
    if rank(a) == n:
        from .conelcp import is_karamardian

        kara = is_karamardian(a, seed=seed)
        if kara.status == YES:
            return Verdict(YES, rule=RULE_KARAMARDIAN_INVERTIBLE,
                           witnesses=dict(kara.witnesses, via=kara.rule))
    tried = []
    for q in _sample_qs(n, seed):
        tried.append(q)
        # q has a negative entry, so every solution is nonzero
        if first_nonzero_solution(a, q, ()) is None:
            return Verdict(NO, rule=RULE_UNSOLVABLE_Q, witnesses={"q": q})
    return Verdict(UNKNOWN, evidence={"tried": tuple(tried), "seed": seed, "bound": Q_SAMPLE_BOUND})


def _sample_qs(n: int, seed: int):
    """-e, the -e_i, then seeded random draws, keeping only q with a
    negative entry: x = 0 solves every q >= 0, which cannot refute Q."""
    yield tuple(-_ONE for _ in range(n))
    for i in range(n):
        yield tuple(-_ONE if j == i else _ZERO for j in range(n))
    rng = random.Random(seed)
    for _ in range(Q_SAMPLES):
        q = tuple(Fraction(rng.randint(-Q_SAMPLE_BOUND, Q_SAMPLE_BOUND)) for _ in range(n))
        if min(q) < 0:
            yield q
