import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from karalcp.conelcp import (
    classify_2x2,
    cone_K,
    cone_lcp_only_zero,
    cone_lcp_solutions,
    default_candidates,
    dual_membership,
    generator_lcp,
    int_dual_membership,
    is_karamardian,
    karamardian_of_group_inverse,
    rank_one_classification,
)
from karalcp.errors import (
    DimensionMismatchError,
    NoGroupInverseError,
    Not2x2Error,
    TooLargeError,
    ZeroVectorError,
)
from karalcp.geninv import group_inverse
from karalcp.corpus import corpus_entries
from karalcp.lcp import (
    NO,
    UNKNOWN,
    YES,
    first_nonzero_solution,
    is_q_matrix,
    lcp_degree,
    lcp_solutions,
)
from karalcp.matrix import RationalMatrix, determinant, dot, ones_vec, rank, vec
from conftest import (
    rand_group_invertible,
    rand_int_matrix,
    rand_matrix,
    rand_nonzero_vector,
    rand_permutation,
    rand_symmetric_z_matrix,
    rand_vector,
    rand_z_matrix,
)
from oracles import (
    check_degree_certificate,
    cone_generators_reference,
    dual_membership_lp_reference,
    int_dual_membership_lp_reference,
    karamardian_2x2_oracle,
    karamardian_candidate_search_reference,
    retired_karamardian_no_rule,
    retired_karamardian_yes_rule,
    retired_q_karamardian_rule,
    retired_range_monotone_z_rule,
)

TRIDIAGONAL = RationalMatrix.from_rows([[0, -1, 0], [-1, 0, -1], [0, -1, 0]])
BLOCK_Z = RationalMatrix.from_rows([[1, -1, 0], [-1, 1, 0], [0, 0, 1]])
# Invertible and R0 of degree 1, so no exact rule decides it; the hint
# does not certify it (d = (2, 1, 1) would)
DEGREE_ONE = RationalMatrix.from_rows([[-1, 1, 1], [-1, 1, -1], [-1, 0, 1]])
DEGREE_ONE_HINT = vec([1, 2, 1])


class TestConeK:
    def test_ray_cone(self):
        cone = cone_K(BLOCK_Z)
        assert cone.cone.generators == (vec([0, 0, 1]),)
        assert cone.nontrivial_witness == vec([0, 0, 1])

    def test_trivial_cone(self):
        cone = cone_K(RationalMatrix.from_rows([[1, -1], [-1, 1]]))
        assert cone.trivial and cone.cone.generators == ()

    def test_witness_and_generators_reverify(self):
        rng = random.Random(13)
        from karalcp.matrix import subspace_bases

        for _ in range(60):
            n = rng.randint(2, 4)
            a = rand_int_matrix(rng, n, n)
            cone = cone_K(a)
            rng_space = subspace_bases(a).range
            for g in cone.cone.generators:
                assert all(t >= 0 for t in g) and any(t > 0 for t in g)
                assert rng_space.contains(g)
            if not cone.trivial:
                w = cone.nontrivial_witness
                assert all(t >= 0 for t in w) and any(t > 0 for t in w)
                assert rng_space.contains(w)

    def test_invertible_gives_orthant(self):
        rng = random.Random(0)
        seen = 0
        while seen < 15:
            a = rand_matrix(rng, 3)
            if rank(a) < 3:
                continue
            seen += 1
            cone = cone_K(a)
            gens = set(cone.cone.generators)
            assert gens == {vec([1, 0, 0]), vec([0, 1, 0]), vec([0, 0, 1])}

    def test_cap(self):
        """cone_K refuses an order past the cap before it starts."""
        with pytest.raises(TooLargeError, match="order 13 exceeds cap 12"):
            cone_K(RationalMatrix.identity(13))


class TestDualMembership:
    def test_all_ones_vector_always_interior(self):
        rng = random.Random(1)
        for _ in range(25):
            a = rand_int_matrix(rng, 3, 3)
            assert int_dual_membership(a, vec([1, 1, 1]))

    def test_tridiagonal_hint_is_interior(self):
        assert int_dual_membership(TRIDIAGONAL, vec([3, 1, -1]))
        assert dual_membership(TRIDIAGONAL, vec([3, 1, -1]))

    def test_negated_ones_outside_for_witnessed_cones(self):
        rng = random.Random(2)
        for _ in range(40):
            a = rand_int_matrix(rng, 3, 3)
            cone = cone_K(a)
            if cone.trivial:
                continue
            w = cone.nontrivial_witness
            y = vec([-1, -1, -1])
            if dual_membership(a, y):
                assert dot(w, y) >= 0
            else:
                assert dot(w, y) < 0

    def test_membership_decomposition_reverifies(self):
        rng = random.Random(3)
        for _ in range(40):
            a = rand_int_matrix(rng, 3, 3)
            y = rand_nonzero_vector(rng, 3)
            inside = dual_membership(a, y)
            w = cone_K(a).nontrivial_witness
            if w is not None and inside:
                assert dot(w, y) >= 0

    def test_generator_tests_match_the_lp_references(self):
        """F G products of orders 1-6 at every rank 0..n, against one LP on
        N(A^T) per question, with y = 0, the unit vectors and random
        vectors of both signs.  The sample holds a trivial K, a K with
        more generators than rank A, and both answers of each predicate."""
        rng = random.Random(14)
        seen = set()
        for n in range(1, 7):
            for r in range(n + 1):
                for _ in range(3):
                    a = rand_int_matrix(rng, n, r) @ rand_int_matrix(rng, r, n)
                    gens = cone_K(a).cone.generators
                    seen.add("trivial" if not gens else
                             "non-simplicial" if len(gens) > rank(a) else "simplicial")
                    ys = [vec([0] * n)] + [vec([int(i == j) for j in range(n)]) for i in range(n)]
                    ys += [rand_vector(rng, n) for _ in range(6)]
                    for y in ys:
                        inside = dual_membership(a, y)
                        interior = int_dual_membership(a, y)
                        assert inside == dual_membership_lp_reference(a, y), (a.data, y)
                        assert interior == int_dual_membership_lp_reference(a, y), (a.data, y)
                        seen.update({("dual", inside), ("interior", interior)})
        assert seen >= {"trivial", "non-simplicial", ("dual", True), ("dual", False),
                        ("interior", True), ("interior", False)}

    def test_membership_builds_no_lp(self, monkeypatch):
        """On a rank-2 order-3 matrix both predicates read the generators of
        K and build no LP, while the cone LCP at q = 0 builds one: its
        families are cones through x = 0, so the empty support's is the
        point x = 0 with no LP, and the ray on support {1, 2} costs the
        pinned LP x_1 = 1 alone."""
        from karalcp import lp

        built = []

        class CountingSimplex(lp._Simplex):
            def __init__(self, system):
                built.append(system)
                super().__init__(system)

        monkeypatch.setattr(lp, "_Simplex", CountingSimplex)
        a = RationalMatrix.from_rows([["1/2", "1/2", "1/2"], [-1, -2, 1], [0, -1, 2]])
        zero = vec([0, 0, 0])
        assert rank(a) == 2
        assert dual_membership(a, zero) and not int_dual_membership(a, zero)
        assert not dual_membership(a, vec([1, -2, 1]))
        assert int_dual_membership(a, vec([1, 1, 1]))
        assert not built
        assert cone_lcp_solutions(a, zero).solutions == (zero, vec([0, 1, 1]))
        assert len(built) == 1


class TestConeLcp:
    def test_block_z_homogeneous_only_zero(self):
        assert cone_lcp_only_zero(BLOCK_Z, vec([0, 0, 0]))

    def test_nonneg_null_range_intersection_solves(self):
        a = RationalMatrix.from_rows([[1, -1, -1], [0, 0, -1], [0, 0, 0]])
        result = cone_lcp_solutions(a, vec([0, 0, 0]))
        assert any(x != (0, 0, 0) for x in result.solutions)
        assert not cone_lcp_only_zero(a, vec([0, 0, 0]))
        # the classical witness direction is in the solution cone
        assert result.degenerate_supports  # homogeneous ray through (1,1,0)

    def test_identity_with_positive_q(self):
        assert cone_lcp_only_zero(RationalMatrix.identity(2), vec([1, 1]))

    def test_positive_matrix_homogeneous(self):
        a = RationalMatrix.from_rows([[1, 2], [3, 1]])
        assert cone_lcp_only_zero(a, vec([0, 0]))

    def test_tridiagonal_published_hint_admits_nonzero_solution(self):
        """The K*-based cone LCP at d = (3,1,-1) has exactly one nonzero
        solution, x = (1/2, 1, 1/2) with Ax + d = (2, 0, -2) in N(A^T);
        hand-derived: on K, x = (a, b, a) >= 0 and feasibility of the dual
        decomposition forces 2a <= d2, 2b <= d1 + d3, while x^T(Ax+d) =
        a(d1+d3) + b d2 - 4ab = 0 pins a = d2/2, b = (d1+d3)/2."""
        d = vec([3, 1, -1])
        result = cone_lcp_solutions(TRIDIAGONAL, d)
        assert result.solutions == (
            vec([0, 0, 0]),
            (Fraction(1, 2), Fraction(1), Fraction(1, 2)),
        )
        assert not cone_lcp_only_zero(TRIDIAGONAL, d)

    def test_tridiagonal_fails_for_every_interior_d(self):
        rng = random.Random(4)
        for _ in range(30):
            a = [Fraction(rng.randint(1, 6)) for _ in range(3)]
            s = Fraction(rng.randint(-6, 6))
            d = (a[0] + s, a[1], a[2] - s)
            assert int_dual_membership(TRIDIAGONAL, d)
            assert not cone_lcp_only_zero(TRIDIAGONAL, d)

    def test_matches_standard_lcp_on_invertible_matrices(self):
        # for invertible A the cone is the whole orthant and the dual is
        # again the orthant, so the cone LCP and the standard LCP coincide;
        # both run the same support solver, so even the one-per-family
        # representatives agree
        from karalcp.lcp import lcp_solutions

        rng = random.Random(12)
        checked = 0
        while checked < 60:
            n = rng.randint(2, 3)
            a = rand_int_matrix(rng, n, n)
            if rank(a) < n:
                continue
            checked += 1
            q = vec([rng.randint(-3, 3) for _ in range(n)])
            cone = cone_lcp_solutions(a, q)
            std = lcp_solutions(a, q)
            assert cone.degenerate_supports == std.degenerate_supports
            assert cone.solutions == std.solutions

    def test_rank_one_closed_form_certificates(self):
        """For A = u v^T with u >= 0 nonzero: if u^T v > 0 then the shifted
        vector d = u + (1 on the zero coordinates of u) certifies only-zero;
        if u^T v < 0 then every interior dual vector admits the nonzero
        solution -(u^T a)/(u^T v |u|^2) u.  Both facts are closed-form, so
        they pin the support-LP machinery on singular matrices."""
        rng = random.Random(14)
        positive_seen = negative_seen = 0
        while positive_seen < 20 or negative_seen < 20:
            n = rng.randint(2, 4)
            u = vec([rng.randint(0, 3) for _ in range(n)])
            v = rand_nonzero_vector(rng, n)
            if all(t == 0 for t in u):
                continue
            inner = dot(u, v)
            if inner == 0:
                continue
            a = RationalMatrix(n, n, [[ui * vj for vj in v] for ui in u])
            if inner > 0 and positive_seen < 20:
                positive_seen += 1
                d = tuple(ui if ui > 0 else Fraction(1) for ui in u)
                assert int_dual_membership(a, d)
                assert cone_lcp_only_zero(a, vec([0] * n))
                assert cone_lcp_only_zero(a, d)
            elif inner < 0 and negative_seen < 20:
                negative_seen += 1
                b = rng.choice([vec([0] * n)] + list(cone_K(a).dual_null_basis))
                d = vec([rng.randint(1, 3) + b[i] for i in range(n)])
                assert int_dual_membership(a, d)
                assert not cone_lcp_only_zero(a, d)

    def test_solutions_reverify(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(2, 3)
            a = rand_int_matrix(rng, n, n)
            q = vec([rng.randint(-2, 2) for _ in range(n)])
            from karalcp.matrix import subspace_bases
            bases = subspace_bases(a)
            for x in cone_lcp_solutions(a, q).solutions:
                assert all(t >= 0 for t in x)
                assert bases.range.contains(x)
                y = vec([sum(a.data[i][j] * x[j] for j in range(n)) + q[i] for i in range(n)])
                assert dual_membership(a, y)
                assert dot(x, y) == 0


class TestNullShifts:
    """The cone LCP (A, q) cannot tell q from q + w for w in N(A^T): x^T w = 0
    for every x in K and g^T w = 0 for every generator g of K.  So a
    Karamardian candidate counts only modulo N(A^T)."""

    @staticmethod
    def _cases(per_rank: int):
        """Seeded F G products of every rank 1..n-1 at orders 2 to 6, each
        with a null vector w != 0 of A^T."""
        from karalcp.matrix import subspace_bases

        rng = random.Random(41)
        for n in range(2, 7):
            for r in range(1, n):
                for _ in range(per_rank):
                    a = rand_int_matrix(rng, n, r, 2) @ rand_int_matrix(rng, r, n, 2)
                    null = subspace_bases(a).left_null.basis
                    while True:
                        coeffs = [rng.randint(-3, 3) for _ in null]
                        w = tuple(sum(c * v[i] for c, v in zip(coeffs, null)) for i in range(n))
                        if any(w):
                            break
                    yield rng, a, w

    def test_cone_lcp_and_dual_membership_ignore_null_shifts(self):
        nontrivial = mixed = 0
        for rng, a, w in self._cases(4):
            n = a.rows
            d = vec([rng.randint(1, 4) for _ in range(n)])
            q = [rng.randint(-3, 3) for _ in range(n - 1)] + [-1]
            rng.shuffle(q)
            for v in (d, vec(q)):
                shifted = tuple(s + t for s, t in zip(v, w))
                want, got = cone_lcp_solutions(a, v), cone_lcp_solutions(a, shifted)
                assert got.solutions == want.solutions, (a.data, v, w)
                assert got.degenerate_supports == want.degenerate_supports, (a.data, v, w)
                assert cone_lcp_only_zero(a, shifted) == cone_lcp_only_zero(a, v)
                assert dual_membership(a, shifted) == dual_membership(a, v)
                assert int_dual_membership(a, shifted) == int_dual_membership(a, v)
                mixed += not dual_membership(a, v)
            nontrivial += not cone_K(a).trivial
        assert nontrivial >= 30 and mixed >= 5

    def test_the_cascade_scans_no_null_shift_of_e(self, monkeypatch):
        """The pool is the two witness shifts, x and Ax, and no candidate the
        cascade scans after e is e + w for a w != 0 in N(A^T).  A witness
        shift can land on one by itself (for a rank-one A with K = cone(e_1)
        the shift by 1/2 does), but there e or the degree rule decides A."""
        from karalcp import conelcp

        scanned = []
        real = conelcp.int_dual_membership
        monkeypatch.setattr(conelcp, "int_dual_membership",
                            lambda a, d: scanned.append(d) or real(a, d))
        pools = 0
        for _, a, _ in self._cases(24):
            scanned.clear()
            is_karamardian(a)
            e = ones_vec(a.rows)
            for d in scanned[1:]:
                diff = tuple(s - t for s, t in zip(d, e))
                assert any(a.transpose().mul_vec(diff)), (a.data, d)
            if len(scanned) > 1:
                pools += 1
                assert len(default_candidates(a, cone_K(a).nontrivial_witness)) <= 4
        assert pools >= 2


class TestRankOne:
    def test_sign_flip(self):
        cls = rank_one_classification(vec([1, -1]), vec([2, 1]))
        assert cls.p_hash and not cls.karamardian

    def test_all_ones(self):
        cls = rank_one_classification(vec([1, 1]), vec([1, 1]))
        assert cls.p_hash and cls.karamardian

    def test_negative_inner_product(self):
        cls = rank_one_classification(vec([1, 1]), vec([-1, 0]))
        assert not cls.p_hash and not cls.karamardian

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            rank_one_classification(vec([0, 0]), vec([1, 1]))

    def test_cascade_agrees_with_the_classification(self):
        """A rank-one A = u v^T is certified by d = e exactly when the
        classification calls it Karamardian; otherwise K is trivial, the
        homogeneous problem has a nonzero solution, or u^T v < 0 leaves the
        1x1 M = V^T A V negative, of degree 0 (the retired RANK_ONE No)."""
        rng = random.Random(13)
        outcomes = Counter()
        for trial in range(120):
            n = rng.randint(2, 6)
            u = rand_nonzero_vector(rng, n, 3)
            if trial % 2:
                u = tuple(map(abs, u))
            v = rand_nonzero_vector(rng, n, 3)
            a = RationalMatrix.from_rows([[s * t for t in v] for s in u])
            verdict = is_karamardian(a)
            if rank_one_classification(u, v).karamardian:
                assert verdict.rule == "CANDIDATE_D" and verdict.witnesses["d"] == ones_vec(n)
            else:
                assert verdict.status == NO, (u, v, verdict)
                assert verdict.rule in {"K_TRIVIAL", "HOMOGENEOUS_NONZERO", "DEGREE_NOT_ONE"}
            if verdict.rule == "DEGREE_NOT_ONE":
                assert dot(u, v) < 0 and verdict.witnesses["degree"] == 0
                check_degree_certificate(generator_lcp(a)[0], verdict.witnesses)
            outcomes[verdict.rule] += 1
        assert set(outcomes) == {"CANDIDATE_D", "K_TRIVIAL", "HOMOGENEOUS_NONZERO", "DEGREE_NOT_ONE"}


class TestClassify2x2:
    @pytest.mark.parametrize("rows,expected", [
        ([[1, 2], [1, 1]], YES),
        ([[-1, 2], [1, -1]], NO),
        ([[0, 1], [-1, 1]], YES),
        ([[0, 1], [1, 0]], NO),
        ([[0, 1], [0, 1]], YES),
        ([[0, -1], [0, 1]], NO),
        ([[0, 0], [0, 0]], NO),
    ])
    def test_published_cases(self, rows, expected):
        assert classify_2x2(RationalMatrix.from_rows(rows)).status == expected

    def test_requires_2x2(self):
        with pytest.raises(Not2x2Error):
            classify_2x2(RationalMatrix.identity(3))

    def test_trivial_cone_cases_carry_the_trivial_rule(self):
        assert classify_2x2(RationalMatrix.zeros(2, 2)).rule == "K_TRIVIAL"
        flipped = classify_2x2(RationalMatrix.from_rows([[2, 1], [-2, -1]]))
        assert flipped.status == NO and flipped.rule == "K_TRIVIAL"
        plain = classify_2x2(RationalMatrix.from_rows([[0, 0], [3, -2]]))
        assert plain.status == NO and plain.rule == "CLASS_2X2"

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(6)
        for _ in range(800):
            a = rand_matrix(rng, 2)
            assert (classify_2x2(a).status == YES) == karamardian_2x2_oracle(a), a


class TestKaramardianCascade:
    def test_certificates(self):
        v = is_karamardian(BLOCK_Z)
        assert v.rule == "CANDIDATE_D" and v.witnesses["d"] == ones_vec(BLOCK_Z.rows)
        # a 2x2 Yes comes from the scan of e, not from classify_2x2
        v = is_karamardian(RationalMatrix.from_rows([[1, 2], [1, 1]]))
        assert v.status == YES and v.rule == "CANDIDATE_D" and v.witnesses["d"] == ones_vec(2)
        trivial = is_karamardian(RationalMatrix.from_rows([[1, -1], [-1, 1]]))
        assert trivial.status == NO and trivial.rule == "K_TRIVIAL"
        eblock = RationalMatrix.from_rows(
            [[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]])
        v = is_karamardian(eblock)
        assert v.status == NO and v.rule == "HOMOGENEOUS_NONZERO"
        x = v.witnesses["solution"]
        assert all(t >= 0 for t in x) and any(t > 0 for t in x)

    def test_n_matrix_rule(self):
        """A first-category N with a positive entry in every column has
        three solutions for every q > 0: zero, of index +1, and two of index
        -1, as every principal minor is negative.  So its degree is -1 (the
        retired N_FIRST_CATEGORY No)."""
        qnotkar = RationalMatrix.from_rows([[-1, -2, 1], [-1, -1, 3], [2, 1, -1]])
        v = is_karamardian(qnotkar)
        assert v.status == NO and v.rule == "DEGREE_NOT_ONE"
        assert v.witnesses["degree"] == -1
        check_degree_certificate(qnotkar, v.witnesses)

    def test_candidate_rule_on_bordered_example(self):
        b = RationalMatrix.from_rows([[0, 1, 1], [-1, 1, 2], [1, 2, 1]])
        v = is_karamardian(b, candidate_ds=[vec([1, 1, 1])])
        assert v.status == YES

    def test_wrong_length_candidate_is_rejected(self):
        b = RationalMatrix.from_rows([[0, 1, 1], [-1, 1, 2], [1, 2, 1]])
        with pytest.raises(DimensionMismatchError, match=r"candidate d \[3, 1\]"):
            is_karamardian(b, candidate_ds=[vec([1, 1, 1]), vec([3, 1])])
        # rejected even when a cascade rule would settle the matrix first
        with pytest.raises(DimensionMismatchError):
            is_karamardian(BLOCK_Z, candidate_ds=[vec([1, 1, 1, 1])])

    def test_verdict_is_memoized_per_argument_set(self, monkeypatch):
        """A repeat with the same hints runs no support scan; other hints are
        a new argument set, and the argument checks still run first."""
        from karalcp import conelcp

        scans = []

        def counting_scan(*args):
            scans.append(args)
            return first_nonzero_solution(*args)

        monkeypatch.setattr(conelcp, "first_nonzero_solution", counting_scan)
        a = RationalMatrix.from_rows([[2, 1, 0], [-1, 2, 1], [0, -1, 2]])
        first = is_karamardian(a)
        assert scans
        scans.clear()
        assert is_karamardian(a) is first
        assert not scans
        hinted = is_karamardian(a, candidate_ds=[vec([1, 2, 1])])
        assert hinted.status == YES and hinted.witnesses["d"] == vec([1, 2, 1])
        assert scans
        with pytest.raises(DimensionMismatchError):
            is_karamardian(a, candidate_ds=[vec([1, 1])])
        monkeypatch.undo()
        fresh = RationalMatrix.from_rows(a.data)
        assert karamardian_candidate_search_reference(fresh) == first
        assert karamardian_candidate_search_reference(fresh, [vec([1, 2, 1])]) == hinted

    def test_never_enumerates_every_support(self, monkeypatch):
        """Whether a cone LCP has a nonzero solution is a yes/no question, so
        the cascade asks it by the early-exit scans and never lists every
        solution."""
        from karalcp import conelcp, lcp, lcp_classes

        def refuse(*args, **kwargs):
            raise AssertionError("is_karamardian enumerated every support")

        monkeypatch.setattr(lcp, "complementary_solutions", refuse)
        monkeypatch.setattr(conelcp, "complementary_solutions", refuse)
        monkeypatch.setattr(lcp_classes, "complementary_solutions", refuse)
        rng = random.Random(5)
        rules = set()
        for trial in range(60):
            n = rng.randint(3, 4)
            if trial % 2:
                a = rand_int_matrix(rng, n, n - 1) @ rand_int_matrix(rng, n - 1, n)
            else:
                a = rand_int_matrix(rng, n, n)
            rules.add(is_karamardian(a).rule)
        assert {"HOMOGENEOUS_NONZERO", "CANDIDATE_D"} <= rules

    def test_an_unknown_tried_the_hints_then_e_then_the_pool(self):
        """An Unknown lists every d it tried: the hints, e, then the pool,
        each once.  DEGREE_ONE's pool repeats e and the hint."""
        v = is_karamardian(DEGREE_ONE, candidate_ds=[DEGREE_ONE_HINT])
        assert v.status == UNKNOWN
        pool = default_candidates(DEGREE_ONE, cone_K(DEGREE_ONE).nontrivial_witness)
        assert ones_vec(3) in pool and DEGREE_ONE_HINT in pool
        expected = [DEGREE_ONE_HINT, ones_vec(3)]
        expected += [d for d in pool if d not in expected]
        assert v.evidence == {"tried": tuple(expected)}
        assert v.evidence["tried"][2:] == (vec(["1/2", "1/2", 1]), vec([2, 0, 0]))

    def test_d_equals_e_certifies_before_the_pool(self, monkeypatch):
        """Singular and not rank one: d = e certifies it, and the pool's LP
        is never built."""
        from karalcp import conelcp

        calls = []
        real = conelcp.lp_feasible
        monkeypatch.setattr(conelcp, "lp_feasible", lambda s: calls.append(s) or real(s))
        a = RationalMatrix.from_rows([[0, 2, 2], [-3, 1, -2], [0, 0, 0]])
        v = is_karamardian(a)
        assert v.status == YES and v.rule == "CANDIDATE_D"
        assert v.witnesses["d"] == ones_vec(3)
        assert not calls
        assert karamardian_candidate_search_reference(a) == v

    def test_search_never_returns_no(self):
        rng = random.Random(7)
        for _ in range(60):
            a = rand_int_matrix(rng, 3, 3)
            searched = karamardian_candidate_search_reference(a)
            full = is_karamardian(a)
            if searched.status == NO:
                assert full.status == NO and full.rule == searched.rule
            assert not (searched.status == YES and full.status == NO)

    def test_generalized_idempotent_with_cone(self):
        rng = random.Random(8)
        seen = 0
        while seen < 25:
            a = rand_group_invertible(rng, rng.randint(2, 3))
            proj = a @ group_inverse(a).inverse
            if proj.is_zero() or cone_K(proj).trivial:
                continue
            seen += 1
            assert is_karamardian(proj).status == YES

    def test_symmetric_range_monotone_z_both_karamardian(self):
        from karalcp.monotone import is_range_monotone
        from karalcp.lp import LinearSystem, lp_feasible

        rng = random.Random(9)
        seen = 0
        while seen < 20:
            z = rand_symmetric_z_matrix(rng, 3)
            if not is_range_monotone(z) or not group_inverse(z).exists:
                continue
            system = LinearSystem(3, nonneg=True)
            for j in range(3):
                e = [0, 0, 0]
                e[j] = 1
                system.ge(e, 1)
            for i in range(3):
                system.ge(z.row_vec(i), 0)
            if not lp_feasible(system).is_feasible:
                continue
            seen += 1
            assert is_karamardian(z).status == YES
            assert karamardian_of_group_inverse(z).status == YES

    def test_invertible_yes_is_q(self):
        rng = random.Random(10)
        seen = 0
        while seen < 20:
            a = rand_int_matrix(rng, 3, 3)
            if rank(a) < 3:
                continue
            if is_karamardian(a).status != YES:
                continue
            seen += 1
            assert is_q_matrix(a).status != NO

    def test_permutation_invariance_sample(self):
        rng = random.Random(11)
        for _ in range(40):
            a = rand_int_matrix(rng, 3, 3)
            p = rand_permutation(rng, 3)
            va = is_karamardian(a)
            vp = is_karamardian(p @ a @ p.transpose())
            decisive = {YES, NO}
            if va.status in decisive and vp.status in decisive:
                assert va.status == vp.status
            assert not ({va.status, vp.status} == decisive)


# One input on which each retired Yes rule was the first to hold.
RETIRED_RULE_CASES = {
    "NONNEG_POS_DIAG": [[1, 1, 0], [1, 1, 2], [0, 0, 2]],
    "P_MATRIX": [[1, 1, -1], [0, 1, 1], [1, 0, 2]],
    "STRICT_COPOSITIVE_ON_K": [[2, 0, -1], [-1, 1, 0], [1, -1, 0]],
    "STRICTLY_SEMIMONOTONE_NONSINGULAR": [[1, 2, 0], [-1, 3, 3], [-3, -2, 1]],
    "SEMIMONOTONE_NONSINGULAR": [[1, -1, 1], [3, 0, 3], [0, 1, 1]],
}


class TestRetiredYesRules:
    """The cascade once had five Yes rules of its own; each implies that
    d = e certifies A whenever K is nontrivial and the homogeneous problem
    has only zero, and the cascade tries e right after that problem."""

    @staticmethod
    def _rule_certified_by_e(a):
        rule = retired_karamardian_yes_rule(a)
        if rule is None or cone_K(a).trivial or not cone_lcp_only_zero(a, [0] * a.rows):
            return None
        v = is_karamardian(a)
        assert v.status == YES and v.rule == "CANDIDATE_D", (a, rule, v)
        assert v.witnesses["d"] == ones_vec(a.rows)
        return rule

    def test_d_equals_e_wherever_a_rule_holds(self):
        for rule, rows in RETIRED_RULE_CASES.items():
            assert self._rule_certified_by_e(RationalMatrix.from_rows(rows)) == rule
        rng = random.Random(12)
        matrices = [e.matrix for e in corpus_entries() if e.matrix.rows == e.matrix.cols]
        for trial in range(200):
            n = rng.randint(3, 5)
            if trial % 2:
                matrices.append(rand_int_matrix(rng, n, n - 1, 2) @ rand_int_matrix(rng, n - 1, n, 2))
            else:
                matrices.append(rand_int_matrix(rng, n, n))
        hits = Counter(self._rule_certified_by_e(a) for a in matrices)
        assert hits["STRICT_COPOSITIVE_ON_K"] and hits["P_MATRIX"] and hits["NONNEG_POS_DIAG"]


# One input on which each retired No rule of the Karamardian cascade, and
# each retired Karamardian Yes rule of the Q-matrix cascade, fired.
RETIRED_DEGREE_CASES = {
    "RANK_ONE": [[-1, 1, -2], [0, 0, 0], [-2, 2, -4]],
    "CLASS_2X2": [[-1, 2], [1, -1]],
    "ALMOST_SEMIMONOTONE": [[1, 1, -3], [-2, 2, 0], [1, -2, 1]],
    "Z_NOT_P_NONSINGULAR": [[-1, -2, -1], [-1, 3, -1], [-2, -1, 0]],
    "N_FIRST_CATEGORY": [[-1, -2, 1], [-1, -1, 3], [2, 1, -1]],
    "KARAMARDIAN_THEOREM": [[1, 2], [-1, 1]],
    "KARAMARDIAN_INVERTIBLE": [[-2, 3], [-1, 1]],
}


class TestRetiredDegreeRules:
    """The Karamardian cascade once had five No rules in front of deg M != 1,
    and the Q-matrix cascade two Karamardian Yes rules in front of
    deg A != 0.  Wherever one of them fired, the cascade now gives the same
    status, and a degree certificate rechecks by re-enumeration."""

    def test_degree_rules_agree_with_the_retired_rules(self):
        rng = random.Random(29)
        matrices = [RationalMatrix.from_rows(rows) for rows in RETIRED_DEGREE_CASES.values()]
        matrices += [e.matrix for e in corpus_entries() if e.matrix.rows == e.matrix.cols]
        for trial in range(450):
            n = rng.randint(2, 5)
            if trial % 3 == 2:
                u, v = rand_nonzero_vector(rng, n, 3), rand_nonzero_vector(rng, n, 3)
                matrices.append(RationalMatrix.from_rows([[s * t for t in v] for s in u]))
            elif trial % 3 == 1:
                r = rng.randint(1, n - 1)
                matrices.append(rand_int_matrix(rng, n, r, 2) @ rand_int_matrix(rng, r, n, 2))
            else:
                matrices.append(rand_int_matrix(rng, n, n))
        hits = Counter()
        for a in matrices:
            rule = retired_karamardian_no_rule(RationalMatrix.from_rows(a.data))
            if rule is not None:
                hits[rule] += 1
                v = is_karamardian(a)
                assert v.status == NO, (a.data, rule, v)
                if v.rule == "DEGREE_NOT_ONE":
                    check_degree_certificate(generator_lcp(a)[0], v.witnesses)
            rule = retired_q_karamardian_rule(RationalMatrix.from_rows(a.data))
            if rule is not None:
                hits[rule] += 1
                v = is_q_matrix(a)
                assert v.status == YES, (a.data, rule, v)
                if v.rule == "DEGREE_NONZERO":
                    check_degree_certificate(a, v.witnesses)
        assert set(hits) == set(RETIRED_DEGREE_CASES)
        assert hits["RANK_ONE"] >= 20 and hits["CLASS_2X2"] >= 20
        assert hits["KARAMARDIAN_THEOREM"] >= 20


class TestGroupInverseKaramardian:
    def test_range_monotone_z_rule(self):
        """A range monotone Z-matrix, which the retired witness-free rule
        decided: the cascade on A# certifies d = e."""
        a = RationalMatrix.from_rows([[1, -1, 0], [0, 1, -1], [0, 0, 0]])
        assert retired_range_monotone_z_rule(a)
        v = karamardian_of_group_inverse(a)
        assert v.status == YES and v.rule == "CANDIDATE_D" and v.witnesses == {"d": ones_vec(3)}
        # the computed group inverse independently classifies Yes
        gi = group_inverse(a).inverse
        assert gi == RationalMatrix.from_rows([[1, 1, -2], [0, 1, -1], [0, 0, 0]])
        assert is_karamardian(gi).status == YES

    def test_direct_sum_example(self):
        a = RationalMatrix.from_rows(
            [[0, -1, 0, 0], [0, 1, 0, 0], [0, 0, 1, -1], [0, 0, -1, 2]])
        v = karamardian_of_group_inverse(a)
        assert v.status == YES
        gi = group_inverse(a).inverse
        assert gi == RationalMatrix.from_rows(
            [[0, -1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]])
        assert is_karamardian(gi).status == YES

    def test_retired_range_monotone_z_rule_is_a_yes_at_e(self):
        """Wherever the retired rule fires, the cascade on A# says Yes at
        d = e: A# has A's K and K*, x^T (A# x + e) >= e^T x > 0 for nonzero
        x in K, and the homogeneous problem has only zero.  Seeded
        Z-matrices of orders 2 to 6, a third as drawn and the rest with
        Ae >= 0, singular when the diagonal has no slack."""
        rng = random.Random(61)
        fired = Counter()
        for trial in range(300):
            n = rng.randint(2, 6)
            a = rand_z_matrix(rng, n)
            if trial % 3:
                rows = [[t if i != j else Fraction(0) for j, t in enumerate(row)]
                        for i, row in enumerate(a.data)]
                for i, row in enumerate(rows):
                    row[i] = -sum(row) + (trial % 3 - 1) * rng.randint(0, 2)
                a = RationalMatrix(n, n, rows)
            if not group_inverse(a).exists or not retired_range_monotone_z_rule(a):
                continue
            fired[rank(a) == n] += 1
            v = karamardian_of_group_inverse(a)
            assert v.status == YES and v.rule == "CANDIDATE_D", a.data
            assert v.witnesses == {"d": ones_vec(n)}, a.data
        assert fired[True] >= 50 and fired[False] >= 50, fired

    def test_trivial_cone_direct_sum(self):
        a = RationalMatrix.from_rows(
            [[0, -1, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 0, 1]])
        v = karamardian_of_group_inverse(a)
        assert v.status == NO and v.rule == "K_TRIVIAL"

    def test_no_group_inverse_rejected(self):
        with pytest.raises(NoGroupInverseError):
            karamardian_of_group_inverse(RationalMatrix.from_rows([[0, 1], [0, 0]]))


class TestDoubleDescription:
    def test_generators_match_the_vertex_oracle(self):
        """F G products of orders 1-7 at every rank 0..n, with entries of
        several sizes, the zero matrix of each order and rational
        matrices, against the (r-1)-subset vertex enumeration."""
        rng = random.Random(21)
        matrices = [RationalMatrix.zeros(n, n) for n in range(1, 8)]
        for n in range(1, 8):
            for r in range(1, n + 1):
                for bound in (1, 2, 3):
                    matrices.append(rand_int_matrix(rng, n, r, bound) @ rand_int_matrix(rng, r, n, bound))
        matrices += [rand_matrix(rng, rng.randint(2, 4)) for _ in range(20)]
        kinds = Counter()
        for a in matrices:
            cone = cone_K(a)
            assert list(cone.cone.generators) == cone_generators_reference(
                RationalMatrix.from_rows(a.data)), a.data
            assert all(min(ray) >= 0 and math.gcd(*ray) == 1 for ray in cone.rays)
            assert sorted(tuple(Fraction(t, sum(ray)) for t in ray)
                          for ray in cone.rays) == list(cone.cone.generators)
            kinds["trivial" if cone.trivial else
                  "non-simplicial" if len(cone.rays) > rank(a) else "simplicial"] += 1
        assert set(kinds) == {"trivial", "simplicial", "non-simplicial"}

    def test_invertible_rays_are_the_unit_vectors_in_order(self):
        a = RationalMatrix.from_rows([[2, 1, 0], [-1, 2, 1], [0, -1, 2]])
        assert cone_K(a).rays == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


class TestGeneratorForm:
    def test_invertible_matrix_is_its_own_generator_form(self):
        a = RationalMatrix.from_rows([[2, 1, 0], [-1, 2, 1], [0, -1, 2]])
        m, rays = generator_lcp(a)
        assert m is a and rays == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_only_zero_agrees_with_the_cone_lcp(self):
        """cone_lcp_only_zero(A, q) iff LCP(V^T A V, V^T q) has only zero,
        over ranks 0..n and q of both signs.  K = {0} gives V = () and the
        0 x 0 M, whose LCP has only zero, as the cone LCP has."""
        rng = random.Random(22)
        matrices = [RationalMatrix.from_rows([[1, -1], [-1, 1]]), RationalMatrix.zeros(2, 2)]
        for trial in range(80):
            n = rng.randint(2, 4)
            r = rng.randint(1, n)
            matrices.append(rand_int_matrix(rng, n, r, 2) @ rand_int_matrix(rng, r, n, 2))
        for a in matrices:
            n = a.rows
            m, rays = generator_lcp(a)
            assert m == RationalMatrix.from_rows(
                [[sum(u[i] * a.data[i][j] * v[j] for i in range(n) for j in range(n))
                  for v in rays] for u in rays])
            for q in [vec([0] * n), vec([1] * n), rand_vector(rng, n, 3), rand_vector(rng, n, 3)]:
                p = tuple(sum(t * qi for t, qi in zip(ray, q)) for ray in rays)
                assert cone_lcp_only_zero(a, q) == (first_nonzero_solution(m, p, ()) is None)


def _degree_rule_cases(seed: int, count: int):
    """Seeded invertible and rank-deficient matrices of orders 3 to 5."""
    rng = random.Random(seed)
    for trial in range(count):
        n = rng.randint(3, 5)
        if trial % 2:
            yield rand_int_matrix(rng, n, n - 1, 2) @ rand_int_matrix(rng, n - 1, n, 2)
        else:
            yield rand_int_matrix(rng, n, n)


class TestDegreeNotOne:
    def test_tridiagonal_has_degree_zero(self):
        v = is_karamardian(TRIDIAGONAL, candidate_ds=[vec([3, 1, -1])])
        assert v.status == NO and v.rule == "DEGREE_NOT_ONE"
        assert v.witnesses["V"] == ((0, 1, 0), (1, 0, 1)) and v.witnesses["degree"] == 0
        check_degree_certificate(RationalMatrix.from_rows([[0, -2], [-2, 0]]), v.witnesses)

    def test_certificates_recheck_and_refute_sampled_d(self):
        """Every DEGREE_NOT_ONE No of a seeded set rechecks by
        re-enumeration at its q, and no sampled d in int K* leaves the cone
        LCP only the zero solution."""
        rng = random.Random(23)
        fired = 0
        for a in _degree_rule_cases(24, 120):
            v = is_karamardian(a)
            if v.rule != "DEGREE_NOT_ONE":
                continue
            fired += 1
            n = a.rows
            rays = v.witnesses["V"]
            assert rays == cone_K(a).rays
            m = RationalMatrix.from_rows(
                [[sum(u[i] * a.data[i][j] * w[j] for i in range(n) for j in range(n))
                  for w in rays] for u in rays])
            check_degree_certificate(m, v.witnesses)
            assert v.witnesses["degree"] != 1
            null = cone_K(a).dual_null_basis
            for _ in range(6):
                d = tuple(Fraction(rng.randint(1, 5)) + sum(rng.randint(-2, 2) * w[i] for w in null)
                          for i in range(n))
                if int_dual_membership(a, d):
                    assert not cone_lcp_only_zero(a, d), (a.data, d)
        assert fired >= 20

    def test_regular_qs_give_one_degree(self):
        """At every regular q of an R0 M the indices sum to the same degree."""
        rng = random.Random(25)
        compared = 0
        for a in _degree_rule_cases(26, 80):
            if cone_K(a).trivial or not cone_lcp_only_zero(a, [0] * a.rows):
                continue
            m, _ = generator_lcp(a)
            walk = lcp_degree(m)
            if walk is None:
                continue
            for _ in range(4):
                q = rand_vector(rng, m.rows, 7)
                result = lcp_solutions(m, q)
                indices = []
                for x in result.solutions:
                    y = tuple(t + qi for t, qi in zip(m.mul_vec(x), q))
                    support = [i for i in range(m.rows) if x[i] > 0]
                    det = determinant(m.submatrix(support, support)) if support else 1
                    if det == 0 or any(xi == 0 and yi == 0 for xi, yi in zip(x, y)):
                        break
                    indices.append(1 if det > 0 else -1)
                else:
                    if not result.has_degenerate:
                        compared += 1
                        assert sum(indices) == walk["degree"], (m.data, q)
        assert compared >= 40

    def test_no_candidate_certifies_a_degree_no(self):
        """The candidate search with no degree rule never certifies a matrix
        the degree rule calls No."""
        fired = 0
        for a in _degree_rule_cases(24, 120):
            if is_karamardian(a).rule == "DEGREE_NOT_ONE":
                fired += 1
                assert karamardian_candidate_search_reference(a).status == UNKNOWN, a.data
        assert fired >= 20
