"""The one complementary-support walk of lcp.py, run as the standard
and as the cone LCP, against references that rebuild an LP for every
question, against the same scans with every support block solved afresh
in Fractions, and its table of block determinants and adjugates against
one elimination per block (tests/oracles.py).

The standard LCP must agree exactly.  The cone LCP must agree exactly on
degenerate supports and on isolated solutions, while a family's
representative and the first nonzero solution may be another point of
the same family, so they are checked by exact substitution.  The
early-exit scan `first_nonzero_solution` must find a nonzero solution
exactly when the full enumeration holds one."""

import random
from fractions import Fraction

from hypothesis import assume, given, seed, settings, strategies as st

from karalcp import lcp, lp, matrix
from karalcp.conelcp import (
    cone_lcp_only_zero,
    cone_lcp_solutions,
    dual_membership,
    is_karamardian,
)
from karalcp.lcp import complementary_solutions, first_nonzero_solution, lcp_solutions
from karalcp.matrix import (
    RationalMatrix,
    dot,
    is_zero_vec,
    nonempty_subsets,
    rank,
    solve_linear,
    subspace_bases,
    vec,
)
from oracles import (
    block_factor_reference,
    complementary_solutions_fraction,
    cone_lcp_solutions_reference,
    det_fraction,
    first_nonzero_cone_solution_reference,
    first_nonzero_solution_fraction,
    lcp_solutions_reference,
    orthant_plus_span_lp_reference,
)

small = st.integers(-2, 2)


@st.composite
def rank_deficient(draw):
    """F G with F n x r and G r x n, r < n: singular by construction."""
    n = draw(st.integers(2, 5))
    r = draw(st.integers(1, n - 1))
    f = [[draw(small) for _ in range(r)] for _ in range(n)]
    g = [[draw(small) for _ in range(n)] for _ in range(r)]
    return RationalMatrix.from_rows(
        [[sum(f[i][k] * g[k][j] for k in range(r)) for j in range(n)] for i in range(n)])


@st.composite
def orthogonal_rank_one(draw):
    """u v^T with v . u = 0, so A u = 0; u is often nonnegative, putting u
    in K and making the homogeneous problem a ray."""
    n = draw(st.integers(2, 5))
    entry = st.integers(0, 2) if draw(st.booleans()) else small
    u = [draw(entry) for _ in range(n)]
    w = [draw(small) for _ in range(n)]
    uu = sum(t * t for t in u)
    uw = sum(s * t for s, t in zip(u, w))
    v = [uu * wi - uw * ui for ui, wi in zip(u, w)]
    return RationalMatrix.from_rows([[ui * vj for vj in v] for ui in u])


@st.composite
def instances(draw):
    """A rank-deficient matrix with q = 0 or a q of both signs."""
    a = draw(st.one_of(rank_deficient(), orthogonal_rank_one()))
    n = a.rows
    if draw(st.booleans()):
        return a, vec([0] * n)
    q = [draw(st.integers(-3, 3)) for _ in range(n)]
    pos, neg = draw(st.permutations(range(n)))[:2]
    q[pos] = draw(st.integers(1, 3))
    q[neg] = draw(st.integers(-3, -1))
    return a, vec(q)


@st.composite
def cone_families(draw):
    """A cone LCP with q != 0 whose solutions include a segment or a ray.

    A = u v^T + p r^T with v, r orthogonal to u, so u lies in N(A) and,
    once the rank check passes, in R(A); x0 = s u + s' p >= 0 lies in K;
    z lies in N(A^T).  For q = z - A x0, every x = x0 + t u >= 0 has
    Ax + q = z in K* and x^T z = 0.  Such x exist for t = 0 and t = +-1,
    so the support of x0 and u holds a family: a ray when u >= 0, often a
    segment otherwise.  Returns (A, q, that support).
    """
    n = draw(st.integers(2, 5))
    nonneg = st.integers(0, 2)
    u = [draw(nonneg if draw(st.booleans()) else small) for _ in range(n)]
    p = [draw(nonneg) for _ in range(n)]
    s, s2 = draw(nonneg), draw(nonneg)
    x0 = [s * ui + s2 * pi for ui, pi in zip(u, p)]
    assume(any(u) and min(x0) >= 0)
    assume(any(min(x + t * ui for x, ui in zip(x0, u)) >= 0 for t in (1, -1)))
    uu = sum(t * t for t in u)

    def orthogonal_to_u():
        w = [draw(small) for _ in range(n)]
        uw = sum(ui * wi for ui, wi in zip(u, w))
        return [uu * wi - uw * ui for ui, wi in zip(u, w)]

    v, r = orthogonal_to_u(), orthogonal_to_u()
    a = RationalMatrix.from_rows([[u[i] * v[j] + p[i] * r[j] for j in range(n)]
                                  for i in range(n)])
    assume(rank(a) == rank(RationalMatrix.from_columns(
        [a.col_vec(j) for j in range(n)] + [vec(u), vec(x0)])))
    null = subspace_bases(a).left_null.basis
    coeffs = [draw(small) for _ in null]
    ax0 = a.mul_vec(vec(x0))
    q = vec([sum((c * w[i] for c, w in zip(coeffs, null)), 0) - ax0[i] for i in range(n)])
    assume(not is_zero_vec(q))
    return a, q, tuple(i for i in range(n) if x0[i] or u[i])


def _inside(x, supports) -> bool:
    """x is supported inside one of `supports`."""
    return any(all(x[i] == 0 or i in s for i in range(len(x))) for s in supports)


def assert_cone_lcp_solution(a, q, x):
    """x >= 0, W^T x = 0, Ax + q in K* and x^T (Ax + q) = 0, exactly."""
    y = tuple(t + qi for t, qi in zip(a.mul_vec(x), q))
    assert all(t >= 0 for t in x)
    assert all(dot(w, x) == 0 for w in subspace_bases(a).left_null.basis)
    assert dual_membership(a, y)
    assert dot(x, y) == 0


def assert_cone_lcp_matches_reference(a, q):
    got, want = cone_lcp_solutions(a, q), cone_lcp_solutions_reference(a, q)
    families = got.degenerate_supports
    assert families == want.degenerate_supports
    isolated = [x for x in got.solutions if not _inside(x, families)]
    assert isolated == [x for x in want.solutions if not _inside(x, families)]
    for x in got.solutions:
        assert_cone_lcp_solution(a, q, x)
    for support in families:  # each family is represented by a nonzero point
        assert any(not is_zero_vec(x) and _inside(x, [support]) for x in got.solutions)
    null = subspace_bases(a).left_null.basis
    first, first_ref = first_nonzero_solution(a, q, null), first_nonzero_cone_solution_reference(a, q)
    assert (first is None) == (first_ref is None)
    if first is not None:
        assert not is_zero_vec(first)
        assert_cone_lcp_solution(a, q, first)
        assert first == first_ref or _inside(first, families)
    return got


def assert_lcp_matches_reference(a, q):
    got, want = lcp_solutions(a, q), lcp_solutions_reference(a, q)
    assert got.solutions == want.solutions
    assert got.degenerate_supports == want.degenerate_supports
    assert_first_nonzero_matches_reference(a, q, want)


def assert_first_nonzero_matches_reference(a, q, want):
    """None exactly when the reference has no nonzero solution and no
    degenerate support; otherwise a nonzero solution, by substitution."""
    first = first_nonzero_solution(a, q, ())
    only_zero = all(is_zero_vec(x) for x in want.solutions) and not want.degenerate_supports
    assert (first is None) == only_zero
    if first is not None:
        y = tuple(t + qi for t, qi in zip(a.mul_vec(first), q))
        assert not is_zero_vec(first)
        assert all(t >= 0 for t in first) and all(t >= 0 for t in y)
        assert dot(first, y) == 0


@seed(0)
@settings(max_examples=200, deadline=None)
@given(instances())
def test_cone_lcp_matches_rebuilding_reference(instance):
    assert_cone_lcp_matches_reference(*instance)


@seed(1)
@settings(max_examples=200, deadline=None)
@given(instances())
def test_lcp_matches_rebuilding_reference(instance):
    assert_lcp_matches_reference(*instance)


@seed(2)
@settings(max_examples=100, deadline=None)
@given(cone_families())
def test_families_with_nonzero_q_match_rebuilding_reference(family):
    a, q, support = family
    assert support in assert_cone_lcp_matches_reference(a, q).degenerate_supports
    assert_lcp_matches_reference(a, q)


@st.composite
def square_instances(draw):
    """Any square matrix of order 1-5, with q = 0, q >= 0 or q of any sign."""
    n = draw(st.integers(1, 5))
    a = RationalMatrix.from_rows([[draw(small) for _ in range(n)] for _ in range(n)])
    entry = draw(st.sampled_from([st.just(0), st.integers(0, 3), st.integers(-3, 3)]))
    return a, vec([draw(entry) for _ in range(n)])


@seed(3)
@settings(max_examples=300, deadline=None)
@given(square_instances())
def test_first_nonzero_solution_matches_rebuilding_reference(instance):
    a, q = instance
    assert_first_nonzero_matches_reference(a, q, lcp_solutions_reference(a, q))


FAMILY_CASES = [
    # q = 0: the solutions of support {0, 1} form a ray
    ([[1, -1, -1], [0, 0, -1], [0, 0, 0]], [0, 0, 0]),
    # unbounded support sum whose minimum is positive
    ([[-1, -2, 0], [2, -2, 0], [1, -4, 0]], [1, 0, -1]),
    # unbounded support sum whose minimum is zero
    ([[2, -2], [2, -2]], [3, -3]),
    # bounded support sum on a segment
    ([[0, -2, 6], [-2, 0, -2], [-4, 0, -4]], [0, 3, -1]),
]


def test_each_family_branch_matches_reference():
    """One fixed instance per way a cone-LCP support can hold a family."""
    for rows, q in FAMILY_CASES:
        a, qv = RationalMatrix.from_rows(rows), vec(q)
        assert assert_cone_lcp_matches_reference(a, qv).degenerate_supports
        assert_lcp_matches_reference(a, qv)


def test_no_lp_for_the_cone_lcp_of_an_invertible_p_matrix(monkeypatch):
    """Every block A_SS of an invertible P-matrix is nonsingular and N(A^T)
    is zero, so the cone LCP is solved by linear systems alone."""
    built = []

    class CountingSimplex(lp._Simplex):
        def __init__(self, system):
            built.append(system)
            super().__init__(system)

    monkeypatch.setattr(lp, "_Simplex", CountingSimplex)
    a = RationalMatrix.from_rows([[2, 1, 0], [-1, 2, 1], [0, -1, 2]])
    for q in ([1, -2, 1], [0, 0, 0], [-1, -1, -1]):
        assert len(cone_lcp_solutions(a, vec(q)).solutions) == 1
        cone_lcp_only_zero(a, vec([1, 1, 1]))
    assert is_karamardian(a).rule == "CANDIDATE_D"
    assert not built


# -- the integer block table against a Fraction solve per support and q ------

fraction = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))
nonzero_fraction = fraction.filter(bool)


@st.composite
def matrix_with_many_qs(draw):
    """A matrix of order 1-5 with p/q entries, rank-deficient half the time
    (its last row a combination of the others), a basis of N(A^T) with each
    vector scaled by a p/q of either sign, and several q's: zero, >= 0 and
    of mixed sign."""
    n = draw(st.integers(1, 5))
    rows = [[draw(fraction) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        coeffs = [draw(fraction) for _ in range(n - 1)]
        rows[-1] = [sum((c * rows[i][j] for i, c in enumerate(coeffs)), Fraction(0))
                    for j in range(n)]
    a = RationalMatrix(n, n, rows)
    null = tuple(tuple(draw(nonzero_fraction) * t for t in w)
                 for w in subspace_bases(a).left_null.basis)
    nonneg = st.builds(Fraction, st.integers(0, 3), st.sampled_from([1, 2, 3]))
    qs = [vec([0] * n)] + [tuple(draw(entry) for _ in range(n))
                           for entry in draw(st.lists(st.sampled_from([nonneg, fraction]),
                                                      min_size=3, max_size=6))]
    return a, null, qs


def assert_scans_match_fraction_solves(a, null, qs):
    """Every scan of one matrix object, standard and cone, equals the scan
    that solves each support's block afresh in Fractions, told by one LP
    whether x = 0 solves: whether q is in R^n_+ + span(N)."""
    for nb in ((), null):
        for q in qs:
            zero_solves = orthant_plus_span_lp_reference(q, nb)
            assert (complementary_solutions(a, q, nb)
                    == complementary_solutions_fraction(a, q, nb, zero_solves))
            assert first_nonzero_solution(a, q, nb) == first_nonzero_solution_fraction(a, q, nb)


@seed(4)
@settings(max_examples=200, deadline=None)
@given(matrix_with_many_qs())
def test_factored_scans_match_fraction_solves(instance):
    assert_scans_match_fraction_solves(*instance)


def _block(a, null, support):
    k, d = len(support), len(null)
    rows = [[a.data[i][j] for j in support] + [-w[i] for w in null] for i in support]
    rows += [[w[i] for i in support] + [Fraction(0)] * d for w in null]
    return RationalMatrix(k + d, k + d, rows)


def test_second_scan_factors_nothing_and_solves_only_singular_blocks(monkeypatch):
    """A rank-2 order-3 matrix with a singular block in each problem: the
    first scan builds each block's table entry, some with a negative det,
    and a second scan with a new q borders and eliminates no block and
    calls solve_linear once per singular block, standard and cone alike,
    the cone LCP's empty block among them."""
    a = RationalMatrix.from_rows([["1/2", "1/2", "1/2"], [-1, -2, 1], [0, -1, 2]])
    null = subspace_bases(a).left_null.basis
    built, kernel_calls, solves = [], [], []
    eliminate, solve_linear = matrix._eliminate, lcp.solve_linear

    def building(fn):
        def wrapped(*args):
            built.append(fn(*args))
            return built[-1]
        return wrapped

    def kernel(rows, ncols):
        kernel_calls.append(ncols)
        return eliminate(rows, ncols)

    def counting_solve(m, b):
        solves.append(m)
        return solve_linear(m, b)

    monkeypatch.setattr(lcp, "_border", building(lcp._border))
    monkeypatch.setattr(lcp, "_det_adj", building(lcp._det_adj))
    monkeypatch.setattr(matrix, "_eliminate", kernel)
    monkeypatch.setattr(lcp, "solve_linear", counting_solve)
    for nb in ((), null):
        singular = [s for s in nonempty_subsets(3) if det_fraction(_block(a, nb, s)) == 0]
        assert 0 < len(singular) < 7
        if nb:
            singular.append(())  # the d x d zero corner
        complementary_solutions(a, vec([1, -2, "1/3"]), nb)
        assert any(entry is not None and entry[0] < 0 for entry in built)
        built.clear()
        kernel_calls.clear()
        solves.clear()
        q = vec(["-1/2", 1, -1])
        got = complementary_solutions(a, q, nb)
        assert not built
        assert len(solves) == len(kernel_calls) == len(singular)
        zero_solves = orthant_plus_span_lp_reference(q, nb)
        assert got == complementary_solutions_fraction(a, q, nb, zero_solves)


def test_nonsingular_supports_at_q_zero_return_none_with_no_fraction(monkeypatch):
    """At q = 0 a nonsingular block solves to x_S = 0, a solution the empty
    support already reports: the walk over each nonempty nonsingular
    support alone yields nothing and builds no Fraction, standard and cone
    alike, and both scans still equal the scans that solve every block in
    Fractions."""
    made = []

    def counting(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(lcp, "Fraction", counting)
    rng = random.Random(33)
    cases = [RationalMatrix.from_rows([["1/2", "1/2", "1/2"], [-1, -2, 1], [0, -1, 2]])]
    cases += [_rational_matrix_of_rank(rng, n, r) for n in range(1, 5) for r in range(1, n + 1)]
    nonsingular = 0
    for a in cases:
        zero = (Fraction(0),) * a.rows
        for nb in ((), tuple(subspace_bases(a).left_null.basis)):
            table = lcp._block_table(a, nb)
            for support in nonempty_subsets(a.rows):
                before = len(made)
                got = list(lcp._walk(a, zero, nb, [support]))
                if lcp._block_entry(table, support) is not None:
                    assert got == [] and len(made) == before, (a, nb, support)
                    nonsingular += 1
            zero_solves = orthant_plus_span_lp_reference(zero, nb)
            assert (complementary_solutions(a, zero, nb)
                    == complementary_solutions_fraction(a, zero, nb, zero_solves))
            assert first_nonzero_solution(a, zero, nb) == first_nonzero_solution_fraction(a, zero, nb)
    assert nonsingular > 50


# -- the bordering walk against one elimination of [B_S | I] per support ------


def _rational_matrix_of_rank(rng, n, r):
    """F G with p/q entries, F n x r and G r x n, redrawn until its rank
    is r; the p/q entries make alpha of `common_rows` differ from 1."""
    def entry():
        return Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))

    while True:
        f = [[entry() for _ in range(r)] for _ in range(n)]
        g = [[entry() for _ in range(n)] for _ in range(r)]
        a = RationalMatrix(n, n, [[sum((f[i][k] * g[k][j] for k in range(r)), Fraction(0))
                                   for j in range(n)] for i in range(n)])
        if rank(a) == r:
            return a


def assert_table_matches_elimination(a, null):
    """Every support's table entry against block_factor_reference: the
    same singular flag, den = |det| and den B_S^-1 on the support columns
    (which the reference keeps times -alpha, every row of B = alpha A from
    `common_rows` having multiplier alpha), det equal to the exact
    determinant of the integer block, and B_S adj = det I for the whole
    adj."""
    table = lcp._block_table(a, null)
    alpha, b = matrix.common_rows(a)
    rows = [(row, alpha) for row in b]
    null_ints = [matrix.integer_row(w)[0] for w in null]
    n, d = a.rows, len(null)
    for support in nonempty_subsets(n):
        entry = lcp._block_entry(table, support)
        want = block_factor_reference(rows, null_ints, support)
        assert (entry is None) == (want is None), support
        if entry is None:
            continue
        det, adj = entry
        idx = list(support) + list(range(n, n + d))
        block = [[table.bordered[r][c] for c in idx] for r in idx]
        assert det == det_fraction(RationalMatrix.from_rows(block))
        den, inv, _ = want
        sign = 1 if det > 0 else -1
        assert den == sign * det
        assert inv == [[-sign * rows[i][1] * t for t, i in zip(row, support)] for row in adj]
        size = len(idx)
        assert [[sum(x * y for x, y in zip(row, col)) for col in zip(*adj)] for row in block] \
            == [[det * (r == c) for c in range(size)] for r in range(size)]


def test_bordering_walk_matches_elimination_per_support():
    """Rational matrices of orders 1-7 at every rank, with N empty and with
    N a basis of N(A^T)."""
    rng = random.Random(12)
    for n in range(1, 8):
        for r in range(1, n + 1):
            a = _rational_matrix_of_rank(rng, n, r)
            assert_table_matches_elimination(a, ())
            assert_table_matches_elimination(a, subspace_bases(a).left_null.basis)


def test_singular_parent_and_shape_singular_supports(monkeypatch):
    """[[0, 1], [1, 0]]: both singletons are singular, so the nonsingular
    {0, 1} is eliminated directly, with det -1.  A rank-1 order-3 matrix
    has a 2-dimensional N(A^T), so every singleton's cone block is
    singular by shape and built with no elimination, and each pair's
    block, whose parent is a singleton, is eliminated directly."""
    eliminated = []
    det_adj = lcp._det_adj
    monkeypatch.setattr(lcp, "_det_adj", lambda rows, idx: eliminated.append(len(idx))
                        or det_adj(rows, idx))
    swap = RationalMatrix.from_rows([[0, 1], [1, 0]])
    table = lcp._block_table(swap, ())
    assert lcp._block_entry(table, (0,)) is None and lcp._block_entry(table, (1,)) is None
    assert not eliminated
    assert lcp._block_entry(table, (0, 1)) == (-1, [[0, -1], [-1, 0]])
    assert eliminated == [2]
    assert lcp_solutions(swap, vec([-1, -1])).solutions == ((1, 1),)

    eliminated.clear()
    a = RationalMatrix.from_rows([[1, 2, -1], [2, 4, -2], [-1, -2, 1]])
    null = subspace_bases(a).left_null.basis
    assert len(null) == 2
    table = lcp._block_table(a, null)
    for i in range(3):
        assert lcp._block_entry(table, (i,)) is None
    assert not eliminated
    for pair in ((0, 1), (0, 2), (1, 2)):
        lcp._block_entry(table, pair)
    assert eliminated == [4, 4, 4]
    assert_table_matches_elimination(a, null)
    for q in (vec([0, 0, 0]), vec([1, -2, 1]), vec([-1, 0, 1])):
        zero_solves = orthant_plus_span_lp_reference(q, null)
        assert (complementary_solutions(a, q, null)
                == complementary_solutions_fraction(a, q, null, zero_solves))


# -- supports where R(A) holds no nonzero vector, and constant coordinates ----


def _rank_one(u, v):
    return RationalMatrix.from_rows([[ui * vj for vj in v] for ui in u])


def _orthogonal(rng, u):
    """A nonzero integer vector v with v . u = 0 (u nonzero), so A = u v^T
    has A u = 0."""
    uu = sum(t * t for t in u)
    while True:
        w = [rng.randint(-2, 2) for _ in u]
        uw = sum(s * t for s, t in zip(u, w))
        v = [uu * wi - uw * ui for ui, wi in zip(u, w)]
        if any(v):
            return v


def _rank_deficient_draws(rng):
    """Per order 2-6: F G products of a random rank below n, and rank-one
    u v^T (dim N(A^T) = n - 1) with u of any sign, or with u > 0 and
    v . u = 0."""
    for n in range(2, 7):
        for _ in range(3 if n < 6 else 2):
            r = rng.randint(1, n - 1)
            f = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)]
            g = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
            yield RationalMatrix.from_rows([[sum(f[i][k] * g[k][j] for k in range(r))
                                             for j in range(n)] for i in range(n)])
            u = [rng.randint(-2, 2) or 1 for _ in range(n)]
            yield _rank_one(u, [rng.randint(-2, 2) or -1 for _ in range(n)])
            u = [rng.randint(1, 3) for _ in range(n)]
            yield _rank_one(u, _orthogonal(rng, u))


def test_scans_match_the_unpruned_oracle_on_rank_deficient_matrices():
    """complementary_solutions and first_nonzero_solution, standard and
    cone, against the oracle that solves every support afresh and asks a
    min and a max of every family coordinate, with q = 0, a q >= 0, a q
    with a negative entry and a q in N(A^T) (for u > 0 and v . u = 0 the
    last gives the cone LCP the ray x = t u)."""
    rng = random.Random(18)
    for a in _rank_deficient_draws(rng):
        n = a.rows
        null = subspace_bases(a).left_null.basis
        combo = [rng.randint(-2, 2) for _ in null]
        qs = [vec([0] * n), vec([rng.randint(0, 3) for _ in range(n)]),
              vec([rng.randint(-3, 3) for _ in range(n - 1)] + [rng.randint(-3, -1)]),
              vec([sum(c * w[i] for c, w in zip(combo, null)) for i in range(n)])]
        for nb in ((), null):
            for q in qs:
                zero_solves = orthant_plus_span_lp_reference(q, nb)
                assert (complementary_solutions(a, q, nb)
                        == complementary_solutions_fraction(a, q, nb, zero_solves))
                assert first_nonzero_solution(a, q, nb) == first_nonzero_solution_fraction(a, q, nb)


def test_rank_one_cone_lcp_solves_only_supports_that_r_a_reaches(monkeypatch):
    """A = u v^T with u > 0 and v . u = 0: R(A) = span(u) holds no nonzero
    vector supported on a proper subset, so of the 64 supports only the
    empty one, which decides x = 0, and the full one reach the Fraction
    solve.  For q in N(A^T) the full support holds the ray x = t u."""
    u = [1, 2, 1, 3, 1, 2]
    a = _rank_one(u, _orthogonal(random.Random(6), u))
    null = subspace_bases(a).left_null.basis
    assert rank(a) == 1 and len(null) == 5
    full = tuple(range(6))
    reached, solves = [], []
    singular_support, solve_linear = lcp._singular_support, lcp.solve_linear

    def recording(q_, support, table):
        reached.append(support)
        return singular_support(q_, support, table)

    def counting_solve(m, b):
        solves.append(m.rows)
        return solve_linear(m, b)

    monkeypatch.setattr(lcp, "_singular_support", recording)
    monkeypatch.setattr(lcp, "solve_linear", counting_solve)
    ray_q = vec([sum(w[i] for w in null) - 2 * null[0][i] for i in range(6)])
    for q in (vec([0] * 6), vec([1, -2, 3, 0, -1, 2]), ray_q):
        zero_solves = orthant_plus_span_lp_reference(q, null)
        reached.clear()
        solves.clear()
        got = complementary_solutions(a, q, null)
        assert reached == [(), full] and sorted(solves) == [5, 11]
        assert got == complementary_solutions_fraction(a, q, null, zero_solves)
        reached.clear()
        solves.clear()
        assert first_nonzero_solution(a, q, null) == first_nonzero_solution_fraction(a, q, null)
        assert reached == [full] and solves == [11]
    assert complementary_solutions(a, ray_q, null).degenerate_supports == (full,)


def test_range_trivial_supports_of_a_hand_made_null_basis(monkeypatch):
    """N with columns (1, 0, 1, 0) and (0, 0, 1, 1), a basis of N(A^T) for
    A's columns (1, 0, -1, 1) and (0, 1, 0, 0), each used twice: S passes
    exactly when N_S has rank |S|, so not when it holds 1 (row 1 of N is
    zero: (0, 1, 0, 0) lies in R(A)) or has more than d = 2 indices.
    {0, 2} passes with |S| = d and a nonsingular block (det N_S^2 = 1):
    the scan skips it, yet its entry is built, by one elimination as its
    parent {0} is singular by shape, and its child {0, 2, 3} is bordered
    from it.  No other skipped support gets a table entry.  The skipped
    supports are the nonempty ones the walk never hands to `_block_entry`
    (the parents that `_block_entry` asks for itself are not counted)."""
    a = RationalMatrix.from_rows([[1, 0, 1, 0], [0, 1, 0, 1], [-1, 0, -1, 0], [1, 0, 1, 0]])
    null = (vec([1, 0, 1, 0]), vec([0, 0, 1, 1]))
    assert all(dot(w, a.col_vec(j)) == 0 for w in null for j in range(4))
    built, handed, depth = [], set(), [0]
    border, det_adj, block_entry = lcp._border, lcp._det_adj, lcp._block_entry
    monkeypatch.setattr(lcp, "_border", lambda rows, parent, idx, p: built.append(
        ("border", tuple(idx[:-2]))) or border(rows, parent, idx, p))
    monkeypatch.setattr(lcp, "_det_adj", lambda rows, idx: built.append(
        ("factor", tuple(idx[:-2]))) or det_adj(rows, idx))

    def recording(table, support):
        if not depth[0]:
            handed.add(support)
        depth[0] += 1
        try:
            return block_entry(table, support)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(lcp, "_block_entry", recording)
    q = vec([-1, 2, 1, -1])
    assert (complementary_solutions(a, q, null)
            == complementary_solutions_fraction(a, q, null, orthant_plus_span_lp_reference(q, null)))
    table = lcp._block_table(a, null)
    skipped = set(nonempty_subsets(4)) - handed
    assert skipped == {(0,), (2,), (3,), (0, 2), (0, 3), (2, 3)}
    assert table.blocks[(0, 2)][0] == 1
    assert ("factor", (0, 2)) in built and ("border", (0, 2, 3)) in built
    assert {s for s in skipped if s in table.blocks} == {(0, 2)}


def test_no_lp_for_a_family_coordinate_no_null_vector_moves(monkeypatch):
    """[[1, 0, 0], [0, 1, 1], [0, 1, 1]] with q = (-1, -1, -1): the full
    support's family is x = (1, s, 1 - s), s in [0, 1].  x_0 is constant,
    so only x_1 costs its min and max."""
    optimized = []
    lp_optimize = lcp.lp_optimize
    monkeypatch.setattr(lcp, "lp_optimize", lambda c, system, sense: optimized.append(c)
                        or lp_optimize(c, system, sense))
    a, q = RationalMatrix.from_rows([[1, 0, 0], [0, 1, 1], [0, 1, 1]]), vec([-1, -1, -1])
    got = lcp_solutions(a, q)
    assert got.degenerate_supports == ((0, 1, 2),)
    assert len(optimized) == 2 and all(any(c) for c in optimized)
    assert got == lcp_solutions_reference(a, q)


# -- homogeneous families: one pinned LP per moved coordinate ---------------


def test_homogeneous_scans_match_the_min_max_reference(monkeypatch):
    """At q = 0 every family is a cone through x = 0, so each moved
    coordinate x_i is asked only the pinned LP x_i = 1.  On integer and
    fractional F G products and on u v^T, standard and cone, the scans
    equal the oracle that asks a feasibility LP and a min and a max of
    every coordinate: the same solutions, representatives and degenerate
    supports.  A family builds one tableau per moved coordinate up to the
    first that can be pinned, where the representative is 1, or all m of
    them when none can and the family is the point x = 0."""
    built, seen = [], {}
    problem = [None]

    class CountingSimplex(lp._Simplex):
        def __init__(self, system):
            built.append(system)
            super().__init__(system)

    real = lcp._singular_support

    def recording(q, support, table):
        n, d = table.n, len(table.bordered) - table.n
        where = list(support) + list(range(n, n + d))
        block = RationalMatrix.from_ints([[table.bordered[r][c] for c in where] for r in where])
        sol = solve_linear(block, [0] * len(where))
        assert not any(q) and not any(sol.particular)
        before = len(built)
        x, is_family = real(q, support, table)
        moved = [support[idx] for idx in range(len(support))
                 if any(nb[idx] for nb in sol.null_basis)]
        if is_family:
            first = next(p for p, i in enumerate(moved) if x[i])
            assert x[moved[first]] == 1
            assert len(built) - before == first + 1
        else:
            assert is_zero_vec(x) and len(built) - before == len(moved)
        key = (problem[0], is_family, bool(moved))
        seen[key] = seen.get(key, 0) + 1
        return x, is_family

    monkeypatch.setattr(lp, "_Simplex", CountingSimplex)
    monkeypatch.setattr(lcp, "_singular_support", recording)
    rng = random.Random(41)
    matrices = list(_rank_deficient_draws(rng))
    matrices += [_rational_matrix_of_rank(rng, n, rng.randint(1, n - 1))
                 for n in (2, 3, 4, 5) for _ in range(4)]
    for a in matrices:
        zero = vec([0] * a.rows)
        null = subspace_bases(a).left_null.basis
        for nb in ((), null):
            problem[0] = "cone" if nb else "standard"
            assert (complementary_solutions(a, zero, nb)
                    == complementary_solutions_fraction(a, zero, nb, True))
            assert first_nonzero_solution(a, zero, nb) == first_nonzero_solution_fraction(a, zero, nb)
        problem[0] = "standard"
        assert lcp_solutions(a, zero) == lcp_solutions_reference(a, zero)
    # rays and points with moved coordinates, in both problems
    assert all(seen.get((p, f, True), 0) >= 10
               for p in ("standard", "cone") for f in (True, False)), seen
