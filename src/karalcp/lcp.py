"""LCP(A, q) by complementary-support enumeration, for the standard and
the cone LCP, and the Q-matrix semi-decision.

One support walk serves both problems.  In the cone LCP of conelcp.py,
with N a basis of N(A^T): x in R(A) iff N^T x = 0, y in
K* = R^n_+ + N(A^T) iff y = u + Nw with u >= 0, and since x^T N w = 0 the
complementarity x^T y = 0 becomes x_i u_i = 0 for every i.  So the cone
LCP is the mixed LCP of the bordered matrix [[A, -N], [N^T, 0]] with w
free, and the standard LCP is its case N empty.  For each support S the
square block [[A_SS, -N_S], [N_S^T, 0]] (x_S, w) = (-q_S, 0) is solved
exactly.  A nonsingular block gives at most one candidate per q, from the
signed det and adj of its integer block, kept in one table per matrix and
null basis.  The table is built by a bordering walk over the scan's
(size, lex) order: each block is its parent's (S minus its last index,
visited first) bordered by one row and column, in O(|S|^2) integer
operations.  A block with |S| < dim N is singular by shape, and a block
whose parent is singular is eliminated directly.  A singular but
consistent block gives an affine family that is intersected with the
sign constraints by one LP and classified as empty, a point, or a
positive-dimensional family in x (flagged degenerate with one
representative); only the x-coordinates some family direction moves
cost a min and a max LP.  At q = 0 the family is a cone through x = 0,
so it needs no feasibility LP, and each moved x_i costs only the pinned
LP x_i = 1, up to the first that is feasible.  x = 0 is the empty
support's solution: its block is the d x d zero corner, det 1 for N
empty (x = 0 solves iff q >= 0) and else singular by shape, whose family
LP asks for a w with q - Nw >= 0 (none at q = 0).  So a nonempty S on
which R(A) holds no nonzero vector (N_S of rank |S|, only possible for
|S| <= dim N) is skipped with no solve and no LP: its only possible
solution is x = 0, and its conditions imply the empty support's.  For
u > 0, A = u v^T leaves only the empty and the full support.  One walk
over the supports (`_walk`) answers every question asked here:
`complementary_solutions` reads all of it, the empty support first;
`first_nonzero_solution` stops at the first nonzero solution of a
nonempty support, which answers both yes/no questions (is zero the only
solution for q >= 0, and is there any for q with a negative entry); and
`lcp_degree` reads each solution's index off the walk's integer residuals.

Q-matrix membership is only semi-decidable at desk scale, so the verdict
type carries its epistemic state: Yes and No come with re-checkable
certificates, Unknown with the sampling log.  No: a q with no solution,
read off a nonpositive row or a zero diagonal entry of a nonnegative A,
or sampled (-e and the -e_i first, then draws from one fixed stream, so
a verdict depends on A alone).  Yes: an R0 A (LCP(A, 0) has only the
zero solution) of nonzero degree (`lcp_degree`), which covers
Karamardian's theorem at d = e.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from .errors import QNotNonnegativeError
from .lp import UNBOUNDED, LinearSystem, lp_feasible, lp_optimize
from .matrix import (
    RationalMatrix,
    Vector,
    _det_adj,
    _eliminate,
    common_rows,
    integer_row,
    is_zero_vec,
    memoized,
    nonempty_subsets,
    solve_linear,
)
from .minor_classes import structural_flags

YES = "Yes"
NO = "No"
UNKNOWN = "Unknown"

Q_SAMPLES = 64
Q_SAMPLE_BOUND = 10
# Drawn q that the degree walk tries after e.
DEGREE_QS = 10

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Verdict:
    """Three-valued result with evidence.

    Yes/No carry a rule identifier and witness vectors that re-verify
    against the rule's defining conditions; Unknown carries the sample or
    candidate log, which depends on the matrix (and any hints) alone.
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
    return complementary_solutions(a, qv, ())


def complementary_solutions(a: RationalMatrix, q: Vector, null: Sequence[Vector]) -> LcpSolutionSet:
    """Every solution of the LCP with y-side translated by span(null), from
    one walk over every support, x = 0 from the empty one."""
    walk = list(_walk(a, q, null, itertools.chain([()], nonempty_subsets(a.rows))))
    return LcpSolutionSet(tuple(sorted({x for _, x, _, _ in walk})),
                          tuple(support for support, _, is_family, _ in walk if is_family))


def first_nonzero_solution(a: RationalMatrix, q: Vector, null: Sequence[Vector]) -> Vector | None:
    """The nonzero solution of the first support, in (size, lexicographic)
    order, that has one, for the LCP with y-side translated by span(null);
    None when no solution is nonzero.  A positive-dimensional family holds
    a nonzero point, so no separate degeneracy check is needed."""
    return next((x for _, x, _, _ in _walk(a, q, null, nonempty_subsets(a.rows)) if not is_zero_vec(x)),
                None)


def _walk(a: RationalMatrix, q: Vector, null: Sequence[Vector], supports):
    """(S, x, is_family, index) for each S of `supports`, in order, that has
    a solution x with x = 0 off S: is_family tells whether those solutions
    are more than one point, and index is sign det of a nonsingular block
    whose x is strictly complementary (x_i + y_i > 0 for every i), else 0.

    S solves the square block [[A_SS, -N_S], [N_S^T, 0]] (x_S, w) = (-q_S, 0)
    in x_S and the free w, one per vector of `null`.  The block's signed
    det and adj come from the per-matrix table (`_block_entry`), so a q
    costs integer products and sign checks, and Fractions only for a
    yielded solution: with q = Q / qden and B = alpha A,
    v = adj (-sign(det) alpha Q_S) is |det| qden (x_S, w), and for i off S
    the residual r, the bordered row i times v plus |det| alpha Q_i, is
    (Ax - Nw + q)_i alpha |det| qden, so v[:k] and r show both feasibility
    and strictness.  A singular block is solved in Fractions, and its
    affine family classified, by `_singular_support`.  S yields nothing,
    with no solve, when R(A) holds no nonzero vector supported in S, that
    is N_S^T x_S = 0 forces x_S = 0 (one elimination of the border rows
    N_S^T finds rank |S|, which needs |S| <= dim N), or when its block
    gives x_S = 0: its only solution could be x = 0, and its conditions
    imply q - Nw >= 0, so the empty support already reports it."""
    table = _block_table(a, tuple(null))
    n = a.rows
    border = table.bordered[n:]
    qn, qden = integer_row(q)
    aq = [table.alpha * t for t in qn]
    folded = ([-t for t in aq], aq)  # -sign(det) alpha Q_i for det > 0, det < 0
    for support in supports:
        k = len(support)
        if 0 < k <= len(border) and len(_eliminate([[w[i] for i in support] for w in border], k,
                                                   reduced=False)[1]) == k:
            continue
        entry = _block_entry(table, support)
        if entry is None:
            x, is_family = _singular_support(q, support, table)
            if x is not None:
                yield support, x, is_family, 0
            continue
        det, adj = entry
        qs = [folded[det < 0][i] for i in support]
        v = [sum(map(mul, row, qs)) for row in adj]
        if k and (min(v[:k]) < 0 or not any(v[:k])):
            continue
        scale = abs(det)
        block_v = _scatter(v, support, n)
        strict = all(v[:k])
        for i in range(n):
            if i not in support:
                r = sum(map(mul, table.bordered[i], block_v)) + scale * aq[i]
                if r < 0:
                    break
                strict = strict and r > 0
        else:
            x = _expand([Fraction(t, scale * qden) for t in v[:k]], support, n)
            yield support, x, False, (1 if det > 0 else -1) if strict else 0


class _BlockTable(NamedTuple):
    """The principal blocks of one matrix and null basis.

    `bordered` holds the rows of the integer matrix [[B, -alpha N], [N^T, 0]]
    of order n + d: B = alpha A from `common_rows`, and each of the d null
    vectors scaled to integers (a positive rescale of w, so x is
    unchanged).  `blocks` maps each support built so far to its block's
    (det, adj), or None when the block is singular."""

    alpha: int
    n: int
    bordered: list
    blocks: dict


@memoized("supports")
def _block_table(a: RationalMatrix, null: tuple[Vector, ...]) -> _BlockTable:
    """The block table of a and null, one per matrix and null basis."""
    alpha, b = common_rows(a)
    scaled = [integer_row(w)[0] for w in null]
    bordered = [row + [-alpha * w[i] for w in scaled] for i, row in enumerate(b)]
    bordered += [w + [0] * len(null) for w in scaled]
    # the empty support's block is the d x d zero corner, with det 1 at d = 0
    blocks = {(): None if null else (1, [])}
    return _BlockTable(alpha, a.rows, bordered, blocks)


def _block_entry(table: _BlockTable, support):
    """(det, adj) of S's block, the principal submatrix of the bordered
    matrix on S and the border, or None when it is singular.

    Built once per support by bordering the entry of its parent, S minus
    its last index, which (size, lex) order visits first (`_border`).  A
    block with fewer indices in S than null vectors is singular by shape:
    its zero corner leaves the border rows rank at most |S|.  A singular
    parent leaves one direct elimination of the block (`matrix._det_adj`)."""
    if support in table.blocks:
        return table.blocks[support]
    n, d = table.n, len(table.bordered) - table.n
    if len(support) < d:
        return None
    parent = _block_entry(table, support[:-1])
    idx = list(support) + list(range(n, n + d))
    if parent is None:
        entry = _det_adj(table.bordered, idx)
    else:
        entry = _border(table.bordered, parent, idx, len(support) - 1)
    table.blocks[support] = entry
    return entry


def _border(bordered, parent, idx, p):
    """(det, adj) of the principal block of `bordered` on idx, from the
    parent's (d_P, X = adj B_P) on idx without its position p, or None when
    det = 0.  With b, c and e the new column, row and diagonal entry,
    det = d_P e - c X b and adj = [[(det X + (Xb)(cX)) / d_P, -Xb],
    [-cX, d_P]], every division exact (Bareiss, Math. Comp. 22, 1968); the
    new row and column then move to position p."""
    d_p, x = parent
    new = idx[p]
    rest = idx[:p] + idx[p + 1:]
    b = [bordered[r][new] for r in rest]
    c = [bordered[new][r] for r in rest]
    xb = [sum(map(mul, row, b)) for row in x]
    cx = [sum(map(mul, c, col)) for col in zip(*x)]
    det = d_p * bordered[new][new] - sum(map(mul, c, xb))
    if not det:
        return None
    adj = [[(det * t + s * u) // d_p for t, u in zip(row, cx)] for row, s in zip(x, xb)]
    for row, s in zip(adj, xb):
        row.insert(p, -s)
    adj.insert(p, [-u for u in cx])
    adj[p].insert(p, d_p)
    return det, adj


def _scatter(v, support, n: int) -> list:
    """The block vector v = (x_S, w) on the bordered matrix's columns:
    x_S at S, zero elsewhere among the first n, then w."""
    out = [0] * n + v[len(support):]
    for t, i in zip(v, support):
        out[i] = t
    return out


def _singular_support(q: Vector, support, table: _BlockTable):
    """`_walk` on a singular block: one Fraction solve of S's block
    of `table.bordered`, whose rows in S are alpha A_i (right-hand side
    -alpha q_i), gives the affine family v = particular + sum t_j basis_j of
    block solutions, classified against the sign constraints: returns
    (representative | None, positive_dimensional), where only x_S counts
    towards dimension.

    At q = 0 the particular solution and every right-hand side are 0, so
    the family is a cone through x = 0: min x_i is 0 and max x_i is 0 or
    unbounded.  Each moved x_i then costs only the LP x_i = 1, and the
    family is the point x = 0 when no x_i can be pinned."""
    n, d = table.n, len(table.bordered) - table.n
    where = list(support) + list(range(n, n + d))
    block = RationalMatrix.from_ints([[table.bordered[r][c] for c in where] for r in where])
    sol = solve_linear(block, [-table.alpha * q[i] for i in support] + [_ZERO] * d)
    if sol is None:
        return None, False
    comp = [i for i in range(n) if i not in support]

    def off_support(v: Vector) -> list[Fraction]:
        """(Ax - Nw)_i for each i off S and the block vector v = (x_S, w),
        each one integer dot product with a bordered row."""
        ints, den = integer_row(v)
        block_v = _scatter(ints, support, n)
        return [Fraction(sum(map(mul, table.bordered[i], block_v)), table.alpha * den)
                for i in comp]

    k = len(support)
    coords = [[nb[idx] for nb in sol.null_basis] for idx in range(k)]
    system = LinearSystem(len(sol.null_basis))
    for idx in range(k):
        system.ge(coords[idx], -sol.particular[idx])
    columns = [off_support(nb) for nb in sol.null_basis]
    for idx, (i, fixed) in enumerate(zip(comp, off_support(sol.particular))):
        system.ge([col[idx] for col in columns], -q[i] - fixed)
    homogeneous = not any(q)
    if not homogeneous:
        out = lp_feasible(system)
        if not out.is_feasible:
            return None, False

    def to_x(t) -> Vector:
        x_s = [sol.particular[idx] + sum(nb[idx] * t[j] for j, nb in enumerate(sol.null_basis))
               for idx in range(k)]
        return _expand(x_s, support, n)

    def pinned(coeffs, value):
        """The family's LP with x_i = value as its one equality row."""
        pin = LinearSystem(system.n_vars)
        pin.inequalities_ge = system.inequalities_ge
        return lp_feasible(pin.eq(coeffs, value))

    # the family is a single point in x unless some x_i is nonconstant; an
    # x_i no null-basis vector moves is constant, so it needs no LP
    for coeffs in coords:
        if not any(coeffs):
            continue
        if homogeneous:
            ray = pinned(coeffs, _ONE)
            if ray.is_feasible:
                return to_x(ray.witness), True
            continue
        lo = lp_optimize(coeffs, system, "min")
        hi = lp_optimize(coeffs, system, "max")
        if hi.status == UNBOUNDED:
            # x_i is unbounded above: pin it one unit past the minimum to
            # produce a representative with x_i > 0
            return to_x(pinned(coeffs, lo.value + 1).witness), True
        if lo.value != hi.value:
            # hi > lo >= 0, so the max witness is nonzero
            return to_x(hi.witness), True
    return (_ZERO,) * n if homogeneous else to_x(out.witness), False


def _expand(x_s: Sequence[Fraction], support, n: int) -> Vector:
    x = [_ZERO] * n
    for val, i in zip(x_s, support):
        x[i] = val
    return tuple(x)


@memoized("degree")
def lcp_degree(a: RationalMatrix) -> dict | None:
    """deg A of an R0 matrix A (LCP(A, 0) has only the zero solution, which
    the caller establishes), as {"q", "degree", "solutions"} at the first
    regular q among e and DEGREE_QS drawn integer q in [-9, 9]; None when
    none is regular.  q is regular when every solution of LCP(A, q) lies
    on a nonsingular block and is strictly complementary (x_i + y_i > 0).
    The degree is then the sum over the solutions of the index sign det
    A_SS, with det 1 for the empty support (Howe & Stone, 1983; Cottle,
    Pang & Stone, 1992, section 6.1).  Regularity and the index are read
    off the walk (`_walk`), from the integer residuals it computes anyway:
    a q stops at its first solution of index 0.  Each solution is listed
    with its index.  Memoized per matrix."""
    n = a.rows
    for q in itertools.chain([(_ONE,) * n], _draws(n, DEGREE_QS, 9)):
        solutions = []
        for _, x, _, index in _walk(a, q, (), itertools.chain([()], nonempty_subsets(n))):
            if not index:
                break
            solutions.append((x, index))
        else:
            return {"q": q, "degree": sum(s for _, s in solutions), "solutions": tuple(solutions)}
    return None


def lcp_unique_zero(a: RationalMatrix, q: Sequence) -> bool:
    """True iff zero is the only solution (q >= 0 so that zero solves)."""
    qv = a.square_and_vector(q, "LCP uniqueness", scan=True)
    if any(t < 0 for t in qv):
        raise QNotNonnegativeError("q must be entrywise nonnegative")
    return first_nonzero_solution(a, qv, ()) is None


# -- Q-matrix semi-decision -------------------------------------------------

RULE_NONPOSITIVE_ROW = "NONPOSITIVE_ROW"
RULE_NONNEG_ZERO_DIAG = "NONNEG_ZERO_DIAGONAL"
RULE_UNSOLVABLE_Q = "UNSOLVABLE_Q"
RULE_DEGREE_NONZERO = "DEGREE_NONZERO"


def is_q_matrix(a: RationalMatrix) -> Verdict:
    """Yes or No with its certificate where a sound rule fires, else
    Unknown with the sample log.  No: a nonpositive row, a zero diagonal
    entry of a nonnegative A, or a sampled q with no solution, each with
    that q.  Yes: an R0 A (LCP(A, 0) has only zero) of nonzero degree
    (`lcp_degree`), asked once -e and the -e_i are solved.  The degree
    covers Karamardian's theorem (Math. Programming 2, 1972), and with it
    every P, strictly copositive or nonnegative A with a positive diagonal:
    LCP(A, e) too has only zero, so e is regular with the one solution 0 of
    index +1.  A Z-matrix that is not P has no x >= 0 with Ax >= e (Berman
    & Plemmons, Thm 6.2.3), so -e refutes it."""
    a.require_square("Q-matrix test", scan=True)
    n = a.rows
    flags = structural_flags(a)
    if flags.has_nonpositive_row:
        row = next(i for i in range(n) if all(x <= 0 for x in a.data[i]))
        q = tuple(-_ONE if j == row else _ZERO for j in range(n))
        return Verdict(NO, rule=RULE_NONPOSITIVE_ROW, witnesses={"q": q, "row": row})
    if flags.nonnegative and not all(a.data[i][i] for i in range(n)):
        # q = e - 2e_i: y_j = (Ax)_j + 1 > 0 forces x_j = 0 for j != i,
        # which leaves y_i = a_ii x_i - 1 = -1
        index = next(i for i in range(n) if not a.data[i][i])
        q = tuple(-_ONE if j == index else _ONE for j in range(n))
        return Verdict(NO, rule=RULE_NONNEG_ZERO_DIAG, witnesses={"q": q, "index": index})
    tried = []
    for q in _sample_qs(n):
        tried.append(q)
        # q has a negative entry, so every solution is nonzero
        if first_nonzero_solution(a, q, ()) is None:
            return Verdict(NO, rule=RULE_UNSOLVABLE_Q, witnesses={"q": q})
        # -e and the -e_i all have a solution: an R0 A of nonzero degree
        # has one for every q
        if len(tried) == n + 1 and first_nonzero_solution(a, (_ZERO,) * n, ()) is None:
            walk = lcp_degree(a)
            if walk is not None and walk["degree"] != 0:
                return Verdict(YES, rule=RULE_DEGREE_NONZERO, witnesses=walk)
    return Verdict(UNKNOWN, evidence={"tried": tuple(tried), "bound": Q_SAMPLE_BOUND})


def _sample_qs(n: int):
    """-e, the -e_i, then Q_SAMPLES draws, keeping only q with a negative
    entry: x = 0 solves every q >= 0, which cannot refute Q."""
    yield tuple(-_ONE for _ in range(n))
    for i in range(n):
        yield tuple(-_ONE if j == i else _ZERO for j in range(n))
    yield from (q for q in _draws(n, Q_SAMPLES, Q_SAMPLE_BOUND) if min(q) < 0)


def _draws(n: int, count: int, bound: int):
    """`count` integer q of order n with entries in [-bound, bound], from
    one fixed pseudo-random stream, restarted at each call, so the q's
    tried depend on n alone."""
    rng = random.Random(0)
    for _ in range(count):
        yield tuple(Fraction(rng.randint(-bound, bound)) for _ in range(n))
