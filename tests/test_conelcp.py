import random
from fractions import Fraction

import pytest

from karalcp.conelcp import (
    classify_2x2,
    cone_K,
    cone_lcp_only_zero,
    cone_lcp_solutions,
    dual_membership,
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
from karalcp.lcp import NO, YES, first_nonzero_solution, is_q_matrix
from karalcp.matrix import RationalMatrix, dot, rank, vec
from conftest import (
    rand_group_invertible,
    rand_int_matrix,
    rand_matrix,
    rand_nonzero_vector,
    rand_permutation,
    rand_symmetric_z_matrix,
)
from oracles import karamardian_2x2_oracle

TRIDIAGONAL = RationalMatrix.from_rows([[0, -1, 0], [-1, 0, -1], [0, -1, 0]])
BLOCK_Z = RationalMatrix.from_rows([[1, -1, 0], [-1, 1, 0], [0, 0, 1]])


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
        """The vertex scan visits C(n, r - 1) row subsets, so it refuses an
        order past the cap before it starts."""
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
        assert is_karamardian(BLOCK_Z).rule == "STRICT_COPOSITIVE_ON_K"
        trivial = is_karamardian(RationalMatrix.from_rows([[1, -1], [-1, 1]]))
        assert trivial.status == NO and trivial.rule == "K_TRIVIAL"
        eblock = RationalMatrix.from_rows(
            [[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]])
        v = is_karamardian(eblock)
        assert v.status == NO and v.rule == "HOMOGENEOUS_NONZERO"
        x = v.witnesses["solution"]
        assert all(t >= 0 for t in x) and any(t > 0 for t in x)

    def test_n_matrix_rule(self):
        qnotkar = RationalMatrix.from_rows([[-1, -2, 1], [-1, -1, 3], [2, 1, -1]])
        v = is_karamardian(qnotkar)
        assert v.status == NO and v.rule == "N_FIRST_CATEGORY"

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
        """A repeat with the same arguments builds no LP and runs no support
        scan; other hints are a new argument set, and the argument checks
        still run first."""
        from karalcp import conelcp, lp

        built, scans = [], []

        class CountingSimplex(lp._Simplex):
            def __init__(self, system):
                built.append(system)
                super().__init__(system)

        def counting_scan(*args):
            scans.append(args)
            return first_nonzero_solution(*args)

        monkeypatch.setattr(lp, "_Simplex", CountingSimplex)
        monkeypatch.setattr(conelcp, "first_nonzero_solution", counting_scan)
        a = RationalMatrix.from_rows([[2, 1, 0], [-1, 2, 1], [0, -1, 2]])
        first = is_karamardian(a, force_candidate_search=True)
        assert built and scans
        built.clear()
        scans.clear()
        assert is_karamardian(a, force_candidate_search=True) is first
        assert not built and not scans
        hinted = is_karamardian(a, candidate_ds=[vec([1, 2, 1])], force_candidate_search=True)
        assert hinted.status == YES and hinted.witnesses["d"] == vec([1, 2, 1])
        assert built and scans
        with pytest.raises(DimensionMismatchError):
            is_karamardian(a, candidate_ds=[vec([1, 1])], force_candidate_search=True)

    def test_never_enumerates_every_support(self, monkeypatch):
        """Strict copositivity on K is a yes/no question, so the cascade asks
        it by the early-exit scans and never lists every solution."""
        from karalcp import conelcp, lcp

        def refuse(*args, **kwargs):
            raise AssertionError("is_karamardian enumerated every support")

        monkeypatch.setattr(lcp, "complementary_solutions", refuse)
        monkeypatch.setattr(conelcp, "complementary_solutions", refuse)
        rng = random.Random(5)
        rules = set()
        for trial in range(60):
            n = rng.randint(3, 4)
            if trial % 2:
                a = rand_int_matrix(rng, n, n - 1) @ rand_int_matrix(rng, n - 1, n)
            else:
                a = rand_int_matrix(rng, n, n)
            rules.add(is_karamardian(a).rule)
        assert "STRICT_COPOSITIVE_ON_K" in rules

    def test_search_never_returns_no(self):
        rng = random.Random(7)
        for _ in range(60):
            a = rand_int_matrix(rng, 3, 3)
            forced = is_karamardian(a, force_candidate_search=True, max_candidates=4)
            full = is_karamardian(a)
            assert not (forced.status == YES and full.status == NO)
            assert not (forced.status == NO and full.status == YES)

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


class TestGroupInverseKaramardian:
    def test_range_monotone_z_rule(self):
        a = RationalMatrix.from_rows([[1, -1, 0], [0, 1, -1], [0, 0, 0]])
        v = karamardian_of_group_inverse(a)
        assert v.status == YES and v.rule == "RANGE_MONOTONE_Z_GROUP_INVERSE"
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

    def test_trivial_cone_direct_sum(self):
        a = RationalMatrix.from_rows(
            [[0, -1, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 0, 1]])
        v = karamardian_of_group_inverse(a)
        assert v.status == NO and v.rule == "K_TRIVIAL"

    def test_no_group_inverse_rejected(self):
        with pytest.raises(NoGroupInverseError):
            karamardian_of_group_inverse(RationalMatrix.from_rows([[0, 1], [0, 0]]))
