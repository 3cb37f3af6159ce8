"""The support enumerations of lcp.py and conelcp.py, which build each
support's LP once, against references that rebuild it for every question
(tests/oracles.py).  Solutions, family representatives, degenerate
supports and the first nonzero cone-LCP solution must agree exactly."""

from collections import Counter

from hypothesis import assume, given, seed, settings, strategies as st

from karalcp import conelcp
from karalcp.conelcp import _first_nonzero_solution, cone_lcp_solutions
from karalcp.lcp import lcp_solutions
from karalcp.matrix import RationalMatrix, is_zero_vec, rank, subspace_bases, vec
from oracles import (
    cone_lcp_solutions_reference,
    first_nonzero_cone_solution_reference,
    lcp_solutions_reference,
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


def assert_cone_lcp_matches_reference(a, q):
    got, want = cone_lcp_solutions(a, q), cone_lcp_solutions_reference(a, q)
    assert got.solutions == want.solutions
    assert got.degenerate_supports == want.degenerate_supports
    assert _first_nonzero_solution(a, q) == first_nonzero_cone_solution_reference(a, q)
    return got


def assert_lcp_matches_reference(a, q):
    got, want = lcp_solutions(a, q), lcp_solutions_reference(a, q)
    assert got.solutions == want.solutions
    assert got.degenerate_supports == want.degenerate_supports


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
        got, want = cone_lcp_solutions(a, qv), cone_lcp_solutions_reference(a, qv)
        assert got.degenerate_supports
        assert (got.solutions, got.degenerate_supports) == \
            (want.solutions, want.degenerate_supports)
        assert _first_nonzero_solution(a, qv) == first_nonzero_cone_solution_reference(a, qv)
        std, std_ref = lcp_solutions(a, qv), lcp_solutions_reference(a, qv)
        assert (std.solutions, std.degenerate_supports) == \
            (std_ref.solutions, std_ref.degenerate_supports)


def test_one_system_per_support_and_no_isolation_lps_for_only_zero(monkeypatch):
    built, isolation = Counter(), []
    support_lp, first_nonconstant = conelcp._support_lp, conelcp.first_nonconstant

    def counting_support_lp(a, q, support):
        built[support] += 1
        return support_lp(a, q, support)

    def counting_first_nonconstant(system, objectives):
        isolation.append(len(objectives))
        return first_nonconstant(system, objectives)

    monkeypatch.setattr(conelcp, "_support_lp", counting_support_lp)
    monkeypatch.setattr(conelcp, "first_nonconstant", counting_first_nonconstant)
    rows, q = FAMILY_CASES[3]
    a = RationalMatrix.from_rows(rows)
    cone_lcp_solutions(a, vec(q))
    assert sorted(built) == sorted(conelcp.nonempty_subsets(3)) and set(built.values()) == {1}
    assert isolation  # a bounded nonzero solution needs the isolation LPs
    assert conelcp._support_parts(a) is conelcp._support_parts(a)
    isolation.clear()
    assert not conelcp.cone_lcp_only_zero(a, vec(q))
    conelcp.is_karamardian(a)
    assert not isolation
