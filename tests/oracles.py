"""Independent oracles: brute-force or closed-form reference computations
kept deliberately separate from the library's decision paths."""

from __future__ import annotations

import itertools
from fractions import Fraction

import sympy

from karalcp.conelcp import (
    RULE_CANDIDATE_D,
    RULE_HOMOGENEOUS_NONZERO,
    RULE_K_TRIVIAL,
    classify_2x2,
    cone_K,
    cone_lcp_only_zero,
    default_candidates,
    int_dual_membership,
    is_karamardian,
)
from karalcp.geninv import GroupInverseResult
from karalcp.lcp import (
    NO,
    UNKNOWN,
    YES,
    LcpSolutionSet,
    Verdict,
    first_nonzero_solution,
)
from karalcp.lcp_classes import (
    ConeRep,
    CopositivityResult,
    CopositivityStatus,
    is_almost_semimonotone,
    is_semimonotone,
    is_strictly_copositive,
    is_strictly_semimonotone,
)
from karalcp.lp import BOUNDED, UNBOUNDED, LinearSystem, lp_feasible, lp_optimize
from karalcp.matrix import (
    ENUMERATION_CAP,
    LinearSolution,
    RationalMatrix,
    RrefResult,
    _eliminate,
    determinant,
    dot,
    full_rank_factorization,
    inverse,
    is_zero_vec,
    nonempty_subsets,
    ones_vec,
    rank,
    rat,
    solve_linear,
    subspace_bases,
    vec,
    zeros_vec,
)
from karalcp.minor_classes import minor_class, structural_flags


def det2(m) -> Fraction:
    d = m.data
    return d[0][0] * d[1][1] - d[0][1] * d[1][0]


def det3(m) -> Fraction:
    d = m.data
    return (d[0][0] * (d[1][1] * d[2][2] - d[1][2] * d[2][1])
            - d[0][1] * (d[1][0] * d[2][2] - d[1][2] * d[2][0])
            + d[0][2] * (d[1][0] * d[2][1] - d[1][1] * d[2][0]))


def det_cofactor(m) -> Fraction:
    if m.rows == 1:
        return m.data[0][0]
    if m.rows == 2:
        return det2(m)
    if m.rows == 3:
        return det3(m)
    total = Fraction(0)
    sign = 1
    for j in range(m.cols):
        minor = m.submatrix(range(1, m.rows), [c for c in range(m.cols) if c != j])
        total += sign * m.data[0][j] * det_cofactor(minor)
        sign = -sign
    return total


# -- Fraction Gauss-Jordan: the reference for the integer kernel in matrix.py --


def rref_fraction(m: RationalMatrix) -> RrefResult:
    """Reduced row echelon form by Fraction Gauss-Jordan; pivoting on the
    first nonzero entry per column."""
    a = [row[:] for row in m.data]
    rows, cols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        pv = a[r][c]
        if pv != 1:
            inv = 1 / pv
            a[r] = [x * inv for x in a[r]]
        arow = a[r]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], arow)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return RrefResult(RationalMatrix(rows, cols, a), r, tuple(pivots))


def det_fraction(m: RationalMatrix) -> Fraction:
    """Determinant by Fraction Gaussian elimination."""
    a = [row[:] for row in m.data]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            det = -det
        pv = a[c][c]
        det *= pv
        inv = 1 / pv
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def random_integer_matrix_fraction(rng, n: int, entry_bound: int, density: Fraction) -> RationalMatrix:
    """search.random_integer_matrix as one Fraction per entry, built in the
    draw loop, with no cached integer rows: the same RNG calls in the same
    order (randint, then random(), per entry, row-major)."""
    data = []
    for _ in range(n):
        row = []
        for _ in range(n):
            v = rng.randint(-entry_bound, entry_bound)
            p, q = rng.random().as_integer_ratio()
            keep = p * density.denominator < density.numerator * q
            row.append(Fraction(v if keep else 0))
        data.append(row)
    return RationalMatrix(n, n, data)


def minor_class_fraction(m: RationalMatrix) -> tuple[bool, bool, bool, bool, bool]:
    """(is_p, is_p0, is_n, n_first_category, is_adequate) from det_fraction
    of every principal submatrix and Fraction ranks of the row and column
    blocks of each vanishing one, with no early exit."""
    n = m.rows
    minors = {idx: det_fraction(m.submatrix(idx, idx)) for idx in nonempty_subsets(n)}
    is_p = all(d > 0 for d in minors.values())
    is_p0 = all(d >= 0 for d in minors.values())
    is_n = all(d < 0 for d in minors.values())
    first_cat = is_n and any(x > 0 for row in m.data for x in row)
    adequate = is_p0 and all(
        rref_fraction(m.submatrix(idx, range(n))).rank < len(idx)
        and rref_fraction(m.submatrix(range(n), idx)).rank < len(idx)
        for idx, d in minors.items() if d == 0)
    return is_p, is_p0, is_n, first_cat, adequate


def inverse_fraction(m: RationalMatrix) -> RationalMatrix | None:
    """Inverse by Fraction Gauss-Jordan on [A | I], or None when singular."""
    n = m.rows
    one, zero = Fraction(1), Fraction(0)
    a = [row[:] + [one if i == j else zero for j in range(n)] for i, row in enumerate(m.data)]
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pr is None:
            return None
        a[c], a[pr] = a[pr], a[c]
        pv = a[c][c]
        if pv != 1:
            inv_p = 1 / pv
            a[c] = [x * inv_p for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return RationalMatrix(n, n, [row[n:] for row in a])


def solve_linear_fraction(m: RationalMatrix, b) -> LinearSolution | None:
    """All solutions of M x = b from rref([M | b]) and rref(M), or None when
    b is outside R(M)."""
    aug = RationalMatrix(m.rows, m.cols + 1, [row[:] + [rat(x)] for row, x in zip(m.data, b)])
    rr = rref_fraction(aug)
    if m.cols in rr.pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r, pc in enumerate(rr.pivots):
        x[pc] = rr.matrix.data[r][m.cols]
    rm = rref_fraction(m)
    basis = []
    for f in (j for j in range(m.cols) if j not in rm.pivots):
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, pc in enumerate(rm.pivots):
            v[pc] = -rm.matrix.data[r][f]
        basis.append(tuple(v))
    return LinearSolution(tuple(x), tuple(basis))


# -- Fraction matrix product: the reference for the integer dot products of
# -- RationalMatrix.__matmul__ ---------------------------------------------


def matmul_fraction(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """A @ B by Fraction sums, entry by entry."""
    assert a.cols == b.rows
    return RationalMatrix(a.rows, b.cols, [
        [sum((a.data[i][k] * b.data[k][j] for k in range(a.cols)), Fraction(0))
         for j in range(b.cols)] for i in range(a.rows)])


# -- Fraction witness check: the reference for the integer check of lp.py ---


def check_witness_fraction(system: LinearSystem, x) -> None:
    """ArithmeticError unless the Fraction point x satisfies every row and
    nonnegativity marker of `system`, checked in Fraction arithmetic."""
    for coeffs, rhs in system.equalities:
        if sum(c * v for c, v in zip(coeffs, x)) != rhs:
            raise ArithmeticError("simplex produced an invalid equality witness")
    for coeffs, rhs in system.inequalities_ge:
        if sum(c * v for c, v in zip(coeffs, x)) < rhs:
            raise ArithmeticError("simplex produced an invalid inequality witness")
    for j, flag in enumerate(system.nonneg):
        if flag and x[j] < 0:
            raise ArithmeticError("simplex violated a nonnegativity marker")


# -- 2-variable LP feasibility by vertex enumeration ------------------------


def lp2_feasible_bruteforce(system) -> bool:
    """Brute-force feasibility for 2-variable systems: box the region with a
    coefficient-scale-free huge bound, then test every pairwise boundary
    intersection."""
    assert system.n_vars == 2
    big = Fraction(10) ** 9
    rows = []
    for coeffs, rhs in system.equalities:
        rows.append((coeffs, rhs, True))
    for coeffs, rhs in system.inequalities_ge:
        rows.append((coeffs, rhs, False))
    for j, flag in enumerate(system.nonneg):
        if flag:
            e = [Fraction(0), Fraction(0)]
            e[j] = Fraction(1)
            rows.append((tuple(e), Fraction(0), False))
    rows.append(((Fraction(1), Fraction(0)), -big, False))
    rows.append(((Fraction(-1), Fraction(0)), -big, False))
    rows.append(((Fraction(0), Fraction(1)), -big, False))
    rows.append(((Fraction(0), Fraction(-1)), -big, False))

    def ok(point) -> bool:
        x, y = point
        for (a, b), rhs, is_eq in rows:
            v = a * x + b * y
            if is_eq and v != rhs:
                return False
            if not is_eq and v < rhs:
                return False
        return True

    for (c1, r1, _), (c2, r2, _) in itertools.combinations(rows, 2):
        det = c1[0] * c2[1] - c1[1] * c2[0]
        if det == 0:
            continue
        # rows may be stored as ints; Fraction keeps the division exact
        x = Fraction(r1 * c2[1] - r2 * c1[1]) / det
        y = Fraction(c1[0] * r2 - c2[0] * r1) / det
        if ok((x, y)):
            return True
    return False


# -- exhaustive-d Karamardian oracle for 2x2 --------------------------------


def _intervals_feasible(constraints) -> bool:
    """Feasibility of strict conditions p + q*m > 0 over m in (0, inf)."""
    lo, hi = Fraction(0), None
    for p, q in constraints:
        if q == 0:
            if p <= 0:
                return False
        elif q > 0:
            bound = -p / q
            if bound > lo:
                lo = bound
        else:
            bound = -p / q
            if hi is None or bound < hi:
                hi = bound
    return hi is None or lo < hi


def karamardian_2x2_oracle(m) -> bool:
    """Exact Karamardian decision for 2x2 matrices, independent of the
    library cascade.

    Invertible case: K = R^2_+, so the cone LCP is the standard one.  The
    homogeneous problem has a nonzero solution iff a diagonal entry is zero
    with a nonnegative off-diagonal partner in its column; the existential
    d > 0 is decided
    by normalizing d = (1, m) and intersecting the strict linear conditions
    in m that kill each support's solution.  Singular case: closed-form
    rank-one test on a direct factorization.
    """
    a11, a12 = m.data[0][0], m.data[0][1]
    a21, a22 = m.data[1][0], m.data[1][1]
    det = a11 * a22 - a12 * a21
    if det == 0:
        return _rank_one_oracle(m)
    if (a11 == 0 and a21 >= 0) or (a22 == 0 and a12 >= 0):
        return False
    base = []
    if a11 < 0:
        base.append((-a21, a11))       # kill support {1}: a21 - a11 m < 0
    if a22 < 0:
        base.append((a22, -a12))       # kill support {2}: a12 m - a22 < 0
    sign = 1 if det > 0 else -1
    branch_a = base + [(sign * a22, -sign * a12)]   # (A^-1 d)_1 > 0
    branch_b = base + [(-sign * a21, sign * a11)]   # (A^-1 d)_2 > 0
    return _intervals_feasible(branch_a) or _intervals_feasible(branch_b)


def _rank_one_oracle(m) -> bool:
    cols = [(m.data[0][j], m.data[1][j]) for j in range(2)]
    u = next((c for c in cols if c != (Fraction(0),) * 2), None)
    if u is None:
        return False
    k = 0 if u[0] != 0 else 1
    v = tuple(m.data[k][j] / u[k] for j in range(2))
    unisigned = (u[0] >= 0 and u[1] >= 0) or (u[0] <= 0 and u[1] <= 0)
    return unisigned and (u[0] * v[0] + u[1] * v[1]) > 0


# -- LCP solution counting via sympy ----------------------------------------


def lcp_solutions_sympy(a: RationalMatrix, q) -> list[tuple]:
    """Support enumeration on sympy rationals; requires every principal
    submatrix that gets solved to be invertible (true for N- and P-matrices)."""
    n = a.rows
    sa = sympy.Matrix([[sympy.Rational(x) for x in row] for row in a.data])
    sq = sympy.Matrix([sympy.Rational(x) for x in q])
    found = set()
    if all(x >= 0 for x in sq):
        found.add((sympy.Integer(0),) * n)
    for k in range(1, n + 1):
        for support in itertools.combinations(range(n), k):
            block = sa[list(support), list(support)]
            if block.det() == 0:
                continue
            xs = block.LUsolve(-sq[list(support), 0])
            x = [sympy.Integer(0)] * n
            for idx, i in enumerate(support):
                x[i] = sympy.nsimplify(xs[idx])
            if any(x[i] < 0 for i in support):
                continue
            y = sa * sympy.Matrix(x) + sq
            if all(y[i] >= 0 for i in range(n) if i not in support):
                found.add(tuple(x))
    return sorted(found)


def penrose_holds(a: RationalMatrix, x: RationalMatrix) -> bool:
    ax, xa = a @ x, x @ a
    return (ax @ a == a and xa @ x == x
            and ax.transpose() == ax and xa.transpose() == xa)


def group_equations_hold(a: RationalMatrix, x: RationalMatrix) -> bool:
    return a @ x @ a == a and x @ a @ x == x and a @ x == x @ a


# -- generalized inverses by Fraction products: the reference for
# -- geninv.moore_penrose and geninv.group_inverse, which run in integers ------


def moore_penrose_reference(a: RationalMatrix) -> RationalMatrix:
    """G^T (F^T A G^T)^-1 F^T for A = F G, self-checked in Fractions."""
    f, g = full_rank_factorization(a)
    if f.cols == 0:
        x = RationalMatrix.zeros(a.cols, a.rows)
    else:
        ft, gt = f.transpose(), g.transpose()
        x = gt @ inverse(ft @ a @ gt) @ ft
    if not penrose_holds(a, x):
        raise ArithmeticError("Moore-Penrose self-check failed")
    return x


def group_inverse_reference(a: RationalMatrix) -> GroupInverseResult:
    """F (G F)^-2 G for A = F G, when G F is invertible, self-checked in
    Fractions."""
    f, g = full_rank_factorization(a)
    if f.cols == 0:
        return GroupInverseResult(True, RationalMatrix.zeros(a.rows, a.cols))
    gf_inv = inverse(g @ f)
    if gf_inv is None:
        return GroupInverseResult(False, None)
    x = f @ gf_inv @ gf_inv @ g
    if not group_equations_hold(a, x):
        raise ArithmeticError("group inverse self-check failed")
    return GroupInverseResult(True, x)


# -- almost monotonicity, one LP per coordinate: the reference for
# -- monotone.is_almost_monotone, which asks whether K = {0} instead -----------


def is_almost_monotone_reference(a: RationalMatrix) -> bool:
    """Ax >= 0 implies Ax = 0: for no i has some x Ax >= 0 and (Ax)_i >= 1."""
    n = a.rows
    for i in range(n):
        system = LinearSystem(n)
        for r in range(n):
            system.ge(a.row_vec(r), 0)
        system.ge(a.row_vec(i), 1)
        if lp_feasible(system).is_feasible:
            return False
    return True


# -- semipositivity as x >= e, Ax >= e, and its principal scans: the
# -- references for the one simplex-point LP of lcp_classes, which asks the
# -- alternative of Ville's theorem instead -----------------------------------


def semipositive_reference(a: RationalMatrix) -> bool:
    """Some x > 0 has Ax > 0: by homogeneity, some x >= e has Ax >= e."""
    system = LinearSystem(a.cols, nonneg=True)
    for j in range(a.cols):
        system.ge([int(i == j) for i in range(a.cols)], 1)
    for r in range(a.rows):
        system.ge(a.row_vec(r), 1)
    return lp_feasible(system).is_feasible


def strictly_semimonotone_reference(a: RationalMatrix) -> bool:
    """Every principal submatrix is semipositive."""
    return all(semipositive_reference(a.submatrix(idx, idx)) for idx in nonempty_subsets(a.rows))


# -- the simplex-point LP on every system: the reference for
# -- lcp_classes._simplex_point, which a vertex of the simplex, a one-point
# -- simplex or an all-negative row of G answers first -------------------------


def simplex_point_reference(k: int, eqs, ges) -> bool:
    """Some x >= 0 in R^k with e^T x = 1 has Ex = 0 and Gx >= 0, for the
    rows `eqs` of E and `ges` of G: one LP."""
    system = LinearSystem(k, nonneg=True)
    for row in eqs:
        system.eq(row, 0)
    system.eq([1] * k, 1)
    for row in ges:
        system.ge(row, 0)
    return lp_feasible(system).is_feasible


# -- the H-matrix scaling LP: the reference for
# -- minor_classes.is_h_matrix_positive_diag, which reads the inverse signs of
# -- the comparison matrix instead --------------------------------------------


def h_matrix_positive_diag_reference(a: RationalMatrix) -> bool:
    """Positive diagonal and some d >= e with |a_ii| d_i - sum_{j != i}
    |a_ij| d_j >= 1 for every i."""
    n = a.rows
    if any(a.data[i][i] <= 0 for i in range(n)):
        return False
    system = LinearSystem(n, nonneg=True)
    for i in range(n):
        system.ge([abs(x) if j == i else -abs(x) for j, x in enumerate(a.data[i])], 1)
        system.ge([int(j == i) for j in range(n)], 1)
    return lp_feasible(system).is_feasible


# -- P# and strict range semimonotonicity by LPs on every input: the
# -- reference for lcp_classes, which decides an invertible matrix by its
# -- principal minors or principal semipositivity LPs instead ----------------


def p_hash_orthant_reference(a: RationalMatrix) -> bool:
    """No nonzero x in R(A) with x_i (Ax)_i <= 0 for every i: one LP per
    sign orthant s with s_1 = +1, over x = s * z, z >= 0, sum z = 1 and
    W^T x = 0 for a left-null basis W."""
    n = a.rows
    left_null = subspace_bases(a).left_null.basis
    for signs in itertools.product((1, -1), repeat=n - 1):
        s = (1,) + signs
        system = LinearSystem(n, nonneg=True)
        for w in left_null:
            system.eq([w[j] * s[j] for j in range(n)], 0)
        system.eq([1] * n, 1)
        for i in range(n):
            system.ge([-s[i] * a.data[i][j] * s[j] for j in range(n)], 0)
        if lp_feasible(system).is_feasible:
            return False
    return True


def strictly_range_semimonotone_reference(a: RationalMatrix) -> bool:
    """No nonzero x >= 0 in R(A) with x * Ax <= 0: one LP per support S,
    over x_S >= 0, sum x_S = 1, W_S^T x_S = 0 and (A_SS x_S) <= 0."""
    left_null = subspace_bases(a).left_null.basis
    for support in nonempty_subsets(a.rows):
        system = LinearSystem(len(support), nonneg=True)
        for w in left_null:
            system.eq([w[j] for j in support], 0)
        system.eq([1] * len(support), 1)
        for i in support:
            system.le([a.data[i][j] for j in support], 0)
        if lp_feasible(system).is_feasible:
            return False
    return True


# -- range and row monotonicity, one LP per coordinate: the reference for
# -- monotone's sign tests of A# and A+ on the generators of K, at every rank --


def cone_implies_nonneg_reference(a: RationalMatrix, complement) -> bool:
    """Ax >= 0 and w . x = 0 for every w in `complement` imply x >= 0: for
    no i has some such x the coordinate x_i <= -1."""
    n = a.rows
    for i in range(n):
        system = LinearSystem(n)
        for w in complement:
            system.eq(w, 0)
        for r in range(n):
            system.ge(a.row_vec(r), 0)
        system.le([Fraction(int(j == i)) for j in range(n)], -1)
        if lp_feasible(system).is_feasible:
            return False
    return True


# -- K* and int K* by one LP on N(A^T): the reference for the generator
# -- tests of conelcp.dual_membership and int_dual_membership -----------------


def dual_membership_lp_reference(a: RationalMatrix, y) -> bool:
    """y in K* = R^n_+ + N(A^T)."""
    yv = a.square_and_vector(y, "dual membership")
    return orthant_plus_span_lp_reference(yv, subspace_bases(a).left_null.basis)


def orthant_plus_span_lp_reference(y, null) -> bool:
    """y in R^n_+ + span(null): some w has y - Nw >= 0, by one LP."""
    if not null:
        return all(t >= 0 for t in y)
    system = LinearSystem(len(null))
    for i in range(len(y)):
        system.ge([-w[i] for w in null], -y[i])
    return lp_feasible(system).is_feasible


def int_dual_membership_lp_reference(a: RationalMatrix, d) -> bool:
    """d in int(K*) = int(R^n_+) + N(A^T): max t with d - b >= t e, A^T b = 0
    is positive (or unbounded)."""
    dv = a.square_and_vector(d, "interior dual membership")
    null = subspace_bases(a).left_null.basis
    if not null:
        return min(dv) > 0
    k = len(null)
    system = LinearSystem(k + 1)
    for i in range(a.rows):
        system.ge([-w[i] for w in null] + [-Fraction(1)], -dv[i])
    out = lp_optimize([Fraction(0)] * k + [Fraction(1)], system, "max")
    return out.status == UNBOUNDED or (out.status == BOUNDED and out.value > 0)


# -- support enumeration that rebuilds every LP: the reference for the one
# -- support solver of lcp.py, which solves each support's block once --------


def lcp_solutions_reference(a: RationalMatrix, q) -> LcpSolutionSet:
    """Every solution of the standard LCP, one fresh LP per question."""
    n = a.rows
    qv = vec(q)
    solutions = set()
    degenerate = []
    if all(t >= 0 for t in qv):
        solutions.add(zeros_vec(n))
    for support in nonempty_subsets(n):
        sol = solve_linear(a.submatrix(support, support), [-qv[i] for i in support])
        if sol is None:
            continue
        if not sol.null_basis:
            x = _expand(sol.particular, support, n)
            if all(x[i] >= 0 for i in support) and all(
                    sum(a.data[i][j] * x[j] for j in range(n)) + qv[i] >= 0
                    for i in range(n) if i not in support):
                solutions.add(x)
            continue
        found, is_family = _family_solutions_reference(
            n, qv, support, sol,
            lambda i, v: sum((a.data[i][j] * v[idx] for idx, j in enumerate(support)), Fraction(0)))
        if found is not None:
            solutions.add(found)
            if is_family:
                degenerate.append(support)
    return LcpSolutionSet(tuple(sorted(solutions)), tuple(degenerate))


def _expand(x_s, support, n: int) -> tuple:
    x = [Fraction(0)] * n
    for val, i in zip(x_s, support):
        x[i] = val
    return tuple(x)


def _family_solutions_reference(n: int, q, support, sol, off_support):
    """(representative | None, positive_dimensional) for the affine family
    of block solutions v = particular + sum t_j basis_j, with a fresh LP
    for every question and a min and a max for every x-coordinate, moved
    or not.  off_support(i, v) is the linear part (Ax - Nw)_i of row i off
    S at the block vector v = (x_S, w)."""
    k = len(support)
    comp = [i for i in range(n) if i not in set(support)]

    def build() -> LinearSystem:
        system = LinearSystem(len(sol.null_basis))
        for idx in range(k):
            system.ge([nb[idx] for nb in sol.null_basis], -sol.particular[idx])
        for i in comp:
            system.ge([off_support(i, nb) for nb in sol.null_basis],
                      -q[i] - off_support(i, sol.particular))
        return system

    out = lp_feasible(build())
    if not out.is_feasible:
        return None, False

    def to_x(t):
        x_s = [sol.particular[idx] + sum(nb[idx] * t[j] for j, nb in enumerate(sol.null_basis))
               for idx in range(k)]
        return _expand(x_s, support, n)

    for idx in range(k):
        coeffs = [nb[idx] for nb in sol.null_basis]
        lo = lp_optimize(coeffs, build(), "min")
        hi = lp_optimize(coeffs, build(), "max")
        if hi.status == UNBOUNDED:
            return to_x(lp_feasible(build().eq(coeffs, lo.value + 1)).witness), True
        if lo.value != hi.value:
            return to_x(hi.witness), True
    return to_x(out.witness), False


def cone_lcp_solutions_reference(a: RationalMatrix, q) -> LcpSolutionSet:
    """Every solution of the cone LCP, one fresh support LP per question."""
    n = a.rows
    qv = vec(q)
    solutions = set()
    degenerate = []
    if dual_membership_lp_reference(a, qv):
        solutions.add(zeros_vec(n))
    for support in nonempty_subsets(n):
        x = _cone_support_solution_reference(a, qv, support)
        if x is None:
            continue
        solutions.add(x)
        if _cone_support_is_degenerate_reference(a, qv, support):
            degenerate.append(support)
    return LcpSolutionSet(tuple(sorted(solutions)), tuple(degenerate))


def first_nonzero_cone_solution_reference(a: RationalMatrix, q):
    """The nonzero cone-LCP solution of the first support, in (size,
    lexicographic) order, that has one; None when only zero solves."""
    for support in nonempty_subsets(a.rows):
        x = _cone_support_solution_reference(a, vec(q), support)
        if x is not None:
            return x
    return None


def _cone_support_lp(a: RationalMatrix, q, support):
    n = a.rows
    bases = subspace_bases(a)
    basis, null = bases.range.basis, bases.left_null.basis
    r, dnull = len(basis), len(null)
    comp = [i for i in range(n) if i not in set(support)]
    u_pos = {i: r + k for k, i in enumerate(comp)}
    pad = [Fraction(0)] * (len(comp) + dnull)
    system = LinearSystem(r + len(comp) + dnull,
                          nonneg=[False] * r + [True] * len(comp) + [False] * dnull)
    rows_b = [[basis[k][i] for k in range(r)] for i in range(n)]
    rows_ab = [[sum((a.data[i][j] * basis[k][j] for j in range(n)), Fraction(0))
                for k in range(r)] for i in range(n)]
    for i in comp:
        system.eq(rows_b[i] + pad, 0)
    for i in support:
        system.ge(rows_b[i] + pad, 0)
    for i in range(n):
        coeffs = rows_ab[i] + pad
        if i in u_pos:
            coeffs[u_pos[i]] = Fraction(-1)
        for k in range(dnull):
            coeffs[r + len(comp) + k] = -null[k][i]
        system.eq(coeffs, -q[i])
    sigma = [sum(rows_b[i][k] for i in support) for k in range(r)] + pad

    def to_x(witness):
        return tuple(sum((rows_b[i][k] * witness[k] for k in range(r)), Fraction(0))
                     for i in range(n))

    return system, sigma, to_x, rows_b


def _cone_support_solution_reference(a: RationalMatrix, q, support):
    system, sigma, to_x, _ = _cone_support_lp(a, q, support)
    if all(t == 0 for t in q):
        out = lp_feasible(system.eq(sigma, 1))
        return to_x(out.witness) if out.is_feasible else None
    out = lp_optimize(sigma, system, "max")
    if out.status == BOUNDED and out.value > 0:
        return to_x(out.witness)
    if out.status != UNBOUNDED:
        return None
    system, sigma, to_x, _ = _cone_support_lp(a, q, support)
    low = lp_optimize(sigma, system, "min")
    if low.status == BOUNDED and low.value > 0:
        return to_x(low.witness)
    system, sigma, to_x, _ = _cone_support_lp(a, q, support)
    return to_x(lp_feasible(system.eq(sigma, 1)).witness)


def _cone_support_is_degenerate_reference(a: RationalMatrix, q, support) -> bool:
    for i in support:
        values = []
        for sense in ("min", "max"):
            system, _, _, rows_b = _cone_support_lp(a, q, support)
            coeffs = rows_b[i] + [Fraction(0)] * (system.n_vars - len(rows_b[i]))
            out = lp_optimize(coeffs, system, sense)
            if out.status == UNBOUNDED:
                return True
            values.append(out.value)
        if values[0] != values[1]:
            return True
    return False


# -- one Fraction solve per support and q: the reference for the integer
# -- block table of lcp.support_solver, built once per matrix -----------------


def support_solution_fraction(a: RationalMatrix, q, null, support):
    """(x, is_family) for one support: the block [[A_SS, -N_S], [N_S^T, 0]]
    (x_S, w) = (-q_S, 0) solved afresh in Fractions, the sign checks of a
    unique solution made in Fractions, and an affine family classified by
    _family_solutions_reference.  No support is skipped."""
    zero = Fraction(0)
    k, d = len(support), len(null)
    rows = [[a.data[i][j] for j in support] + [-w[i] for w in null] for i in support]
    rows += [[w[i] for i in support] + [zero] * d for w in null]
    sol = solve_linear(RationalMatrix(k + d, k + d, rows), [-q[i] for i in support] + [zero] * d)
    if sol is None:
        return None, False
    comp = [i for i in range(a.rows) if i not in support]

    def off_support(i, v):
        return (sum((a.data[i][j] * v[idx] for idx, j in enumerate(support)), zero)
                - sum((w[i] * v[k + m] for m, w in enumerate(null)), zero))

    if sol.null_basis:
        return _family_solutions_reference(a.rows, q, support, sol, off_support)
    v = sol.particular
    if any(t < 0 for t in v[:k]) or any(off_support(i, v) + q[i] < 0 for i in comp):
        return None, False
    return _expand(v[:k], support, a.rows), False


def complementary_solutions_fraction(a: RationalMatrix, q, null, zero_solves) -> LcpSolutionSet:
    """lcp.complementary_solutions with every support solved afresh."""
    n = a.rows
    solutions = {zeros_vec(n)} if zero_solves else set()
    degenerate = []
    for support in nonempty_subsets(n):
        x, is_family = support_solution_fraction(a, q, null, support)
        if x is None:
            continue
        solutions.add(x)
        if is_family:
            degenerate.append(support)
    return LcpSolutionSet(tuple(sorted(solutions)), tuple(degenerate))


def first_nonzero_solution_fraction(a: RationalMatrix, q, null):
    """lcp.first_nonzero_solution with every support solved afresh."""
    for support in nonempty_subsets(a.rows):
        x, _ = support_solution_fraction(a, q, null, support)
        if x is not None and not is_zero_vec(x):
            return x
    return None


# -- one elimination of [B_S | I] per support: the reference for the
# -- bordering walk of lcp._block_entry ----------------------------------------


def block_factor_reference(rows, null_ints, support):
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


# -- copositivity by KKT face enumeration: the reference for the LCP scans
# -- of lcp_classes.copositivity_on_cone and is_strictly_copositive ----------


def copositivity_kkt_reference(q: RationalMatrix, cone: ConeRep) -> CopositivityResult:
    """Exact sign of min x^T Q x over the cone's simplex base, from the
    stationary points of the symmetrized form on every face of the simplex.

    On the face with support T the stationary points satisfy M_TT lambda =
    nu * e with e^T lambda = 1, the quadratic is constant (= nu) on each
    face's stationary set, and the global minimizer is stationary on the
    relative interior of its own support face, so the minimum over all
    supports' feasible stationary values is the true minimum.  The witness
    (when the minimum is <= 0) is the base point of the lexicographically
    first support attaining the minimum, mapped back to ambient coordinates.
    """
    gens = cone.generators
    qhat = q + q.transpose()  # factor 2 is sign-irrelevant and kept exact below
    m = len(gens)
    qg = [qhat.mul_vec(g) for g in gens]
    gram = [[dot(gens[i], qg[j]) / 2 for j in range(m)] for i in range(m)]

    best: Fraction | None = None
    best_lambda: tuple[int, ...] | None = None
    best_weights = None
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
    witness = [Fraction(0)] * cone.ambient_dim
    for idx, w in zip(best_lambda, best_weights):
        for i in range(cone.ambient_dim):
            witness[i] += w * gens[idx][i]
    status = (CopositivityStatus.COPOSITIVE_ONLY if best == 0
              else CopositivityStatus.NOT_COPOSITIVE)
    return CopositivityResult(status, best, tuple(witness))


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


# -- the five Karamardian Yes rules that d = e replaced: the reference for
# -- conelcp._karamardian_cascade, which tries e right after the homogeneous
# -- problem instead ----------------------------------------------------------


def retired_karamardian_yes_rule(a: RationalMatrix) -> str | None:
    """The first of the five Yes rules, in the order the cascade once asked
    them, that holds for the square A; None when none does.  When K is
    nontrivial and the homogeneous cone LCP has only zero, each implies that
    the cone LCP (A, e) has only zero too:
    - NONNEG_POS_DIAG: x^T (Ax + e) >= sum a_ii x_i^2 + e^T x > 0;
    - P_MATRIX: K = R^n_+, and LCP(A, e) has the one solution 0;
    - STRICT_COPOSITIVE_ON_K: x^T (Ax + e) = 0 forces x^T A x < 0;
    - the two semimonotone rules: K = R^n_+, and some k has x_k > 0 and
      (Ax + e)_k >= 1.
    """
    n = a.rows
    if (all(t >= 0 for row in a.data for t in row)
            and all(a.data[i][i] > 0 for i in range(n))):
        return "NONNEG_POS_DIAG"
    if minor_class(a).is_p:
        return "P_MATRIX"
    cone = cone_K(a).cone
    if (cone.generators and len(cone.generators) <= ENUMERATION_CAP
            and is_strictly_copositive(a, cone)):
        return "STRICT_COPOSITIVE_ON_K"
    invertible = rank(a) == n
    if invertible and is_strictly_semimonotone(a):
        return "STRICTLY_SEMIMONOTONE_NONSINGULAR"
    if invertible and is_semimonotone(a):
        return "SEMIMONOTONE_NONSINGULAR"
    return None


# -- the two Q-matrix Yes rules that Karamardian's theorem at d = e replaced:
# -- the reference for lcp.is_q_matrix, which asks LCP(A, 0) and LCP(A, e)
# -- instead ------------------------------------------------------------------


def retired_q_yes_rule(a: RationalMatrix) -> str | None:
    """The first of the two Yes rules, in the order the Q-matrix cascade once
    asked them, that holds for the square A; None when neither does.  Each
    leaves LCP(A, 0) and LCP(A, e) only the zero solution:
    - P_MATRIX: LCP(A, q) has exactly one solution for every q, and x = 0
      solves q = 0 and q = e;
    - STRICTLY_COPOSITIVE: a nonzero solution x for q in {0, e} would give
      0 = x^T A x + q^T x > 0.
    """
    if minor_class(a).is_p:
        return "P_MATRIX"
    if is_strictly_copositive(a, ConeRep.nonnegative_orthant(a.rows)):
        return "STRICTLY_COPOSITIVE"
    return None


# -- the five Karamardian No rules that deg M != 1 replaced: the reference
# -- for conelcp._karamardian_cascade, which asks the degree of M = V^T A V
# -- after e instead -----------------------------------------------------------


def retired_karamardian_no_rule(a: RationalMatrix) -> str | None:
    """The retired No rule, of the five and in the order the cascade once
    asked them, that fired for the square A with the default arguments;
    None when none did.  Each asked only once K is nontrivial and the
    homogeneous cone LCP has only zero:
    - RANK_ONE: A = u v^T with u^T v < 0;
    - CLASS_2X2: a 2x2 No of `classify_2x2`.
    The other three asked only once d = e had failed too:
    - ALMOST_SEMIMONOTONE: A is almost semimonotone;
    - Z_NOT_P_NONSINGULAR: an invertible Z-matrix that is not P;
    - N_FIRST_CATEGORY: a first-category N with a positive entry in every
      column.
    """
    n = a.rows
    if cone_K(a).trivial or not cone_lcp_only_zero(a, [0] * n):
        return None
    if rank(a) == 1:
        f, g = full_rank_factorization(a)
        if dot(f.col_vec(0), g.row_vec(0)) < 0:
            return "RANK_ONE"
    if n == 2:
        return "CLASS_2X2" if classify_2x2(a).status == NO else None
    if cone_lcp_only_zero(a, [1] * n):
        return None
    if is_almost_semimonotone(a):
        return "ALMOST_SEMIMONOTONE"
    if rank(a) == n and structural_flags(a).z_matrix and not minor_class(a).is_p:
        return "Z_NOT_P_NONSINGULAR"
    if n_first_category_applies(a):
        return "N_FIRST_CATEGORY"
    return None


# -- the Karamardian candidate search with no degree or 2x2 rule: the
# -- cross-check of every No that conelcp._karamardian_cascade derives from
# -- the degree of M = V^T A V or from classify_2x2 ------------------------------


def karamardian_candidate_search_reference(a: RationalMatrix, hints=()) -> Verdict:
    """The cascade's trivial-K and homogeneous Nos, then the hints, e and
    `default_candidates` in turn: Yes with the first d in int K* that leaves
    the cone LCP (A, d) only the zero solution, else Unknown with every d
    tried.  A Yes here contradicts any No of the degree or 2x2 rules."""
    n = a.rows
    cone = cone_K(a)
    if cone.trivial:
        return Verdict(NO, rule=RULE_K_TRIVIAL)
    if not cone_lcp_only_zero(a, [0] * n):
        return Verdict(NO, rule=RULE_HOMOGENEOUS_NONZERO)
    tried = []
    for d in [vec(h) for h in hints] + [ones_vec(n)] + default_candidates(a, cone.nontrivial_witness):
        if d in tried:
            continue
        tried.append(d)
        if int_dual_membership(a, d) and cone_lcp_only_zero(a, d):
            return Verdict(YES, rule=RULE_CANDIDATE_D, witnesses={"d": d})
    return Verdict(UNKNOWN, evidence={"tried": tuple(tried)})


# -- the two Karamardian Yes rules of the Q-matrix cascade that deg A != 0
# -- replaced: the reference for lcp.is_q_matrix, which asks LCP(A, 0) and
# -- the degree of A instead ---------------------------------------------------


def retired_q_karamardian_rule(a: RationalMatrix) -> str | None:
    """The first of the two Yes rules, in the order the Q-matrix cascade
    once asked them, that holds for the square R0 A (LCP(A, 0) has only
    zero); None when neither does or A is not R0:
    - KARAMARDIAN_THEOREM: LCP(A, e) has only zero too, so d = e makes A
      Karamardian, and Karamardian's theorem makes it Q;
    - KARAMARDIAN_INVERTIBLE: A is invertible, so K = R^n_+, and the
      Karamardian cascade says Yes.
    """
    n = a.rows
    if first_nonzero_solution(a, zeros_vec(n), ()) is not None:
        return None
    if first_nonzero_solution(a, (Fraction(1),) * n, ()) is None:
        return "KARAMARDIAN_THEOREM"
    if rank(a) == n and is_karamardian(a).status == YES:
        return "KARAMARDIAN_INVERTIBLE"
    return None


# -- the four sign-pattern rules of the Q-matrix cascade that the degree
# -- and q = -e replaced: the reference for lcp.is_q_matrix, which asks the
# -- sampler's head q and the degree of A instead --------------------------------


def n_first_category_applies(a: RationalMatrix) -> bool:
    """N-matrix of the first category with a positive entry in every column:
    a Q-matrix whose LCP has exactly three solutions for every q > 0."""
    return minor_class(a).n_first_category and all(any(t > 0 for t in col) for col in zip(*a.data))


def retired_q_structural_rule(a: RationalMatrix) -> str | None:
    """The retired rule, of the four and in the order the Q-matrix cascade
    once asked them, that fired for the square A; None when none did or a
    kept rule (a nonpositive row, a zero diagonal entry of a nonnegative
    A) fires first:
    - Z_AND_P: a Z-matrix and a P-matrix, a Yes;
    - Z_NOT_P: a Z-matrix that is not P, a No;
    - NONNEG_POS_DIAG: a nonnegative A with a positive diagonal, a Yes;
    - N_FIRST_CATEGORY: `n_first_category_applies`, a Yes.
    """
    flags = structural_flags(a)
    diag_positive = all(a.data[i][i] > 0 for i in range(a.rows))
    if flags.has_nonpositive_row or (flags.nonnegative and not diag_positive):
        return None
    if flags.z_matrix:
        return "Z_AND_P" if minor_class(a).is_p else "Z_NOT_P"
    if flags.nonnegative:
        return "NONNEG_POS_DIAG"
    if n_first_category_applies(a):
        return "N_FIRST_CATEGORY"
    return None


# -- the vertex enumeration that conelcp.cone_K's double description replaced
# ------------------------------------------------------------------------------


def cone_generators_reference(a: RationalMatrix) -> list[tuple]:
    """Generators of K = R^n_+ intersect R(A) as the vertices of
    {x = Bc >= 0, e^T x = 1}, B a basis of R(A), in range coordinates,
    sorted.  At a vertex the active inequality rows have rank r - 1 and
    the normalisation row completes a basis, so solving every (r-1)-subset
    of rows against the normalisation finds every vertex exactly."""
    n = a.rows
    basis = subspace_bases(a).range.basis
    r = len(basis)
    if r == 0:
        return []
    rows_b = [[basis[k][i] for k in range(r)] for i in range(n)]  # (Bc)_i coefficients
    norm = [sum(rows_b[i][k] for i in range(n)) for k in range(r)]
    seen: set[tuple] = set()
    for subset in itertools.combinations(range(n), r - 1):
        mat = RationalMatrix.from_rows([rows_b[i] for i in subset] + [norm])
        sol = solve_linear(mat, [Fraction(0)] * (r - 1) + [Fraction(1)])
        if sol is None or sol.null_basis:
            continue
        c = sol.particular
        x = tuple(sum((rows_b[i][k] * c[k] for k in range(r)), Fraction(0)) for i in range(n))
        if all(t >= 0 for t in x):
            seen.add(x)
    return sorted(seen)


# -- re-enumeration check of an LCP degree certificate -----------------------


def check_degree_certificate(m: RationalMatrix, walk: dict) -> None:
    """Re-derive a degree certificate by enumerating LCP(M, q) with the
    reference enumeration: the solutions are the listed ones, each strictly complementary on a
    nonsingular block of the listed sign, and they sum to the degree."""
    q = walk["q"]
    listed = dict(walk["solutions"])
    fresh = RationalMatrix.from_rows(m.data)
    result = lcp_solutions_reference(fresh, q)
    assert not result.has_degenerate
    assert set(result.solutions) == set(listed)
    for x in result.solutions:
        y = tuple(t + qi for t, qi in zip(fresh.mul_vec(x), q))
        assert all(xi > 0 or yi > 0 for xi, yi in zip(x, y))
        support = [i for i in range(m.rows) if x[i] > 0]
        det = determinant(fresh.submatrix(support, support)) if support else 1
        assert det != 0 and (det > 0) == (listed[x] > 0)
    assert walk["degree"] == sum(listed.values())


# -- the witness-free Yes that d = e replaced: the reference for
# -- conelcp.karamardian_of_group_inverse, which runs the cascade on A# --------


def retired_range_monotone_z_rule(a: RationalMatrix) -> bool:
    """Whether RANGE_MONOTONE_Z_GROUP_INVERSE, a Yes with no witness, fired
    for the square A that has a group inverse: A is a Z-matrix, K is not
    {0}, and A is range monotone (Ax >= 0 with x in R(A) implies x >= 0,
    one LP per coordinate)."""
    return (structural_flags(a).z_matrix and not cone_K(a).trivial
            and cone_implies_nonneg_reference(a, subspace_bases(a).left_null.basis))
