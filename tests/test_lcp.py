import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from karalcp import lcp, lcp_classes
from karalcp.conelcp import (
    cone_lcp_only_zero,
    cone_lcp_solutions,
    dual_membership,
    generator_lcp,
    int_dual_membership,
    is_karamardian,
)
from karalcp.corpus import corpus_entries
from karalcp.errors import (
    DimensionMismatchError,
    NonSquareError,
    QNotNonnegativeError,
    TooLargeError,
)
from karalcp.lcp import (
    DEGREE_QS,
    NO,
    UNKNOWN,
    YES,
    Q_SAMPLE_BOUND,
    Q_SAMPLES,
    _draws,
    _sample_qs,
    first_nonzero_solution,
    is_q_matrix,
    lcp_degree,
    lcp_solutions,
    lcp_unique_zero,
)
from karalcp.matrix import RationalMatrix, common_rows, inverse, nonempty_subsets, ones_vec, vec, zeros_vec
from conftest import rand_int_matrix, rand_matrix, rand_p_matrix, rand_vector, rand_z_matrix
from oracles import (
    check_degree_certificate,
    indexed_solutions_reference,
    lcp_degree_reference,
    lcp_solutions_sympy,
    n_first_category_applies,
    retired_q_structural_rule,
    retired_q_yes_rule,
)

QNOTKAR = RationalMatrix.from_rows([[-1, -2, 1], [-1, -1, 3], [2, 1, -1]])


def verify_solution(a, q, x):
    y = [sum(a.data[i][j] * x[j] for j in range(a.rows)) + q[i] for i in range(a.rows)]
    assert all(t >= 0 for t in x)
    assert all(t >= 0 for t in y)
    assert sum(xi * yi for xi, yi in zip(x, y)) == 0


class TestLcpSolutions:
    def test_identity_negative_q(self):
        result = lcp_solutions(RationalMatrix.identity(3), vec([-1, -1, -1]))
        assert result.solutions == (vec([1, 1, 1]),)
        assert not result.has_degenerate

    def test_three_solutions_for_positive_q(self):
        result = lcp_solutions(QNOTKAR, vec([1, 1, 1]))
        assert len(result.solutions) == 3
        assert result.solutions == tuple(lcp_solutions_sympy(QNOTKAR, [1, 1, 1]))

    def test_nonpositive_row_unsolvable(self):
        a = RationalMatrix.from_rows([[0, -1], [1, 1]])
        result = lcp_solutions(a, vec([-1, 0]))
        assert result.solutions == ()

    def test_every_solution_verifies(self):
        rng = random.Random(0)
        for _ in range(150):
            n = rng.randint(1, 3)
            a = rand_int_matrix(rng, n, n)
            q = rand_vector(rng, n)
            for x in lcp_solutions(a, q).solutions:
                verify_solution(a, q, x)

    def test_matches_sympy_enumeration_on_invertible_blocks(self):
        rng = random.Random(1)
        checked = 0
        while checked < 60:
            n = rng.randint(2, 3)
            a = rand_int_matrix(rng, n, n)
            from karalcp.minor_classes import minor_class
            report = minor_class(a)
            if not (report.is_p or report.is_n):  # all blocks invertible then
                continue
            checked += 1
            q = rand_vector(rng, n)
            assert lcp_solutions(a, q).solutions == tuple(lcp_solutions_sympy(a, q))

    def test_degenerate_family_flagged(self):
        a = RationalMatrix.from_rows([[0, -1], [0, 1]])
        result = lcp_solutions(a, vec([0, 0]))
        assert result.has_degenerate
        assert any(x != (0, 0) for x in result.solutions)

    def test_family_cut_to_point_not_flagged(self):
        # singular support block, but the sign constraints pin one solution
        a = RationalMatrix.from_rows([[0, 1], [0, 1]])
        result = lcp_solutions(a, vec([0, -1]))
        for x in result.solutions:
            verify_solution(a, vec([0, -1]), x)

    def test_cap(self):
        with pytest.raises(TooLargeError):
            lcp_solutions(RationalMatrix.identity(13), vec([0] * 13))


class TestLcpUniqueZero:
    def test_p_matrix_unique(self):
        rng = random.Random(2)
        for _ in range(20):
            p = rand_p_matrix(rng, rng.randint(2, 3))
            q = tuple(Fraction(rng.randint(0, 4)) for _ in range(p.rows))
            assert lcp_unique_zero(p, q)

    def test_projector_like_not_unique(self):
        assert not lcp_unique_zero(RationalMatrix.from_rows([[0, -1], [0, 1]]), vec([0, 0]))

    def test_all_ones_with_positive_q(self):
        for n in range(2, 5):
            a = RationalMatrix.from_rows([[1] * n for _ in range(n)])
            assert lcp_unique_zero(a, vec([1] * n))

    def test_rejects_negative_q(self):
        with pytest.raises(QNotNonnegativeError):
            lcp_unique_zero(RationalMatrix.identity(2), vec([-1, 0]))

    def test_rejects_wrong_q_length(self):
        with pytest.raises(DimensionMismatchError):
            lcp_unique_zero(RationalMatrix.identity(2), vec([1, 1, 1]))

    def test_cap(self):
        with pytest.raises(TooLargeError, match="order 13 exceeds cap 12"):
            lcp_unique_zero(RationalMatrix.identity(13), vec([0] * 13))

    def test_length_is_checked_before_the_sign(self):
        with pytest.raises(DimensionMismatchError):
            lcp_unique_zero(RationalMatrix.identity(2), vec([-1, 0, 0]))


@pytest.mark.parametrize("entry, scans", [
    (lcp_solutions, True), (lcp_unique_zero, True), (cone_lcp_solutions, True),
    (cone_lcp_only_zero, True), (dual_membership, True), (int_dual_membership, True)])
def test_entry_points_check_matrix_and_vector(entry, scans):
    """Every LCP and dual entry point wants a square matrix and a vector of
    its order, and the support scans an order within the enumeration cap."""
    with pytest.raises(NonSquareError):
        entry(RationalMatrix.from_rows([[1, 0, 0], [0, 1, 0]]), vec([1, 1]))
    with pytest.raises(DimensionMismatchError, match="length 3 does not match matrix order 2"):
        entry(RationalMatrix.identity(2), vec([1, 1, 1]))
    assert entry(RationalMatrix.identity(2), ["1", Fraction(1, 2)]) is not None
    if scans:
        with pytest.raises(TooLargeError):
            entry(RationalMatrix.identity(13), vec([1] * 13))


class TestQMatrix:
    def test_all_ones(self):
        for n in (2, 3):
            a = RationalMatrix.from_rows([[1] * n for _ in range(n)])
            assert is_q_matrix(a).status == YES

    def test_n_first_category(self):
        # every principal minor is negative, so A is R0, and its degree is -1
        verdict = is_q_matrix(QNOTKAR)
        assert verdict.status == YES and verdict.rule == "DEGREE_NONZERO"
        assert verdict.witnesses["degree"] == -1
        check_degree_certificate(RationalMatrix.from_rows(QNOTKAR.data), verdict.witnesses)

    def test_z_singular(self):
        a = RationalMatrix.from_rows([[1, -1, 0], [0, 1, -1], [0, 0, 0]])
        assert is_q_matrix(a).status == NO

    def test_nonneg_zero_diag(self):
        # q = e - 2e_0: y_1 = 3 x_0 + x_1 + 1 > 0 forces x_1 = 0, and then
        # y_0 = -1
        a = RationalMatrix.from_rows([[0, 2], [3, 1]])
        verdict = is_q_matrix(a)
        assert verdict.status == NO and verdict.rule == "NONNEG_ZERO_DIAGONAL"
        assert verdict.witnesses == {"q": vec([-1, 1]), "index": 0}
        assert lcp_solutions(a, verdict.witnesses["q"]).solutions == ()

    def test_nonpositive_row_certificate_reverifies(self):
        a = RationalMatrix.from_rows([[0, -1], [1, 1]])
        verdict = is_q_matrix(a)
        assert verdict.status == NO
        q = verdict.witnesses["q"]
        assert lcp_solutions(a, q).solutions == ()

    def test_strictly_copositive_rule(self):
        # x^T A x = x1^2 + x1 x2 + x2^2 > 0 leaves LCP(A, 0) and LCP(A, e)
        # only zero, so e is regular with the one solution 0 of index +1
        # and deg A = 1 (Karamardian's theorem at d = e)
        a = RationalMatrix.from_rows([[1, 2], [-1, 1]])
        verdict = is_q_matrix(a)
        assert verdict.status == YES and verdict.rule == "DEGREE_NONZERO"
        assert verdict.witnesses["q"] == ones_vec(2)
        assert verdict.witnesses["solutions"] == ((zeros_vec(2), 1),)
        check_degree_certificate(a, verdict.witnesses)

    def test_inverse_of_karamardian_invertible_never_refuted(self):
        rng = random.Random(3)
        checked = 0
        while checked < 25:
            a = rand_p_matrix(rng, rng.randint(2, 3))
            checked += 1
            inv = inverse(a)
            assert is_q_matrix(inv).status != NO

    def test_karamardian_rule_fires_and_inverse_stays_unrefuted(self):
        # Karamardian + invertible but caught by no cheaper rule: LCP(A, 0)
        # has only zero, LCP(A, e) a nonzero solution, and the 2x2
        # classification certifies A, whose cone LCP needs a d such as
        # (4, 1).  The degree, 1 at the regular q = e, certifies Q
        a = RationalMatrix.from_rows([[-2, 3], [-1, 1]])
        verdict = is_q_matrix(a)
        assert verdict.status == YES and verdict.rule == "DEGREE_NONZERO"
        assert verdict.witnesses["q"] == ones_vec(2) and verdict.witnesses["degree"] == 1
        check_degree_certificate(RationalMatrix.from_rows(a.data), verdict.witnesses)
        kara = is_karamardian(a)
        assert kara.status == YES and kara.rule == "CLASS_2X2"
        assert lcp_unique_zero(a, zeros_vec(2)) and not lcp_unique_zero(a, ones_vec(2))
        assert cone_lcp_only_zero(a, vec([4, 1]))
        assert is_q_matrix(inverse(a)).status != NO

    def test_karamardian_theorem_certifies_with_e(self):
        entry = next(e for e in corpus_entries() if e.id == "bordered_karamardian_3x3")
        a = RationalMatrix.from_rows(entry.matrix.data)
        verdict = is_q_matrix(a)
        assert verdict.status == YES and verdict.rule == "DEGREE_NONZERO"
        assert verdict.witnesses == {"q": ones_vec(3), "degree": 1,
                                     "solutions": ((zeros_vec(3), 1),)}
        check_degree_certificate(a, verdict.witnesses)
        assert lcp_solutions(a, ones_vec(3)).solutions == (zeros_vec(3),)
        assert lcp_unique_zero(a, zeros_vec(3))

    def test_karamardian_theorem_covers_the_retired_yes_rules(self):
        """Wherever A is a P-matrix or strictly copositive, LCP(A, 0) and
        LCP(A, e) have only zero, so the degree walk's first q, e, is
        regular with the one solution 0, and deg A = 1 certifies A."""
        rng = random.Random(6)
        matrices = [e.matrix for e in corpus_entries() if e.matrix.rows == e.matrix.cols]
        for trial in range(300):
            n = rng.randint(2, 5)
            if trial % 3 == 0:
                matrices.append(rand_int_matrix(rng, n, n - 1, 2) @ rand_int_matrix(rng, n - 1, n, 2))
            elif trial % 3 == 1:
                matrices.append(rand_p_matrix(rng, n))
            else:
                matrices.append(rand_int_matrix(rng, n, n))
        hits = Counter()
        for a in matrices:
            rule = retired_q_yes_rule(a)
            if rule is None:
                continue
            verdict = is_q_matrix(a)
            assert verdict.status == YES and verdict.rule == "DEGREE_NONZERO", (a, rule, verdict)
            assert verdict.witnesses["q"] == ones_vec(a.rows)
            assert verdict.witnesses["solutions"] == ((zeros_vec(a.rows), 1),)
            check_degree_certificate(RationalMatrix.from_rows(a.data), verdict.witnesses)
            hits[rule] += 1
        assert hits["P_MATRIX"] and hits["STRICTLY_COPOSITIVE"]

    def test_the_degree_and_minus_e_decide_the_retired_structural_rules(self):
        """Z and P, or nonnegative with a positive diagonal: LCP(A, 0) and
        LCP(A, e) have only zero, so deg A = 1 at q = e.  Z and not P: no
        x >= 0 has Ax >= e (Berman & Plemmons, Thm 6.2.3), so -e has no
        solution.  First-category N with a positive entry in every column:
        every principal minor is nonzero, so A is R0, and its degree was
        -1 on every seeded case."""
        rng = random.Random(29)
        matrices = [e.matrix for e in corpus_entries() if e.matrix.rows == e.matrix.cols]
        for trial in range(400):
            n = rng.randint(2, 4)
            if trial % 4 == 0:
                matrices.append(rand_int_matrix(rng, n, n))
            elif trial % 4 == 1:
                matrices.append(rand_int_matrix(rng, n, n - 1, 2) @ rand_int_matrix(rng, n - 1, n, 2))
            elif trial % 4 == 2:
                matrices.append(rand_z_matrix(rng, n))
            else:
                matrices.append(RationalMatrix.from_rows(
                    [[rng.randint(0 if i != j else 1, 3) for j in range(n)] for i in range(n)]))
        for n, wanted in ((2, 20), (3, 4)):
            found = 0
            while found < wanted:
                rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
                if all(rows[i][i] < 0 for i in range(n)):
                    a = RationalMatrix.from_rows(rows)
                    if n_first_category_applies(a):
                        matrices.append(a)
                        found += 1
        hits = Counter()
        for a in matrices:
            rule = retired_q_structural_rule(a)
            if rule is None:
                continue
            hits[rule] += 1
            n = a.rows
            verdict = is_q_matrix(RationalMatrix.from_rows(a.data))
            if rule == "Z_NOT_P":
                assert verdict.status == NO and verdict.rule == "UNSOLVABLE_Q", (a, verdict)
                assert verdict.witnesses["q"] == vec([-1] * n)
                assert lcp_solutions(a, verdict.witnesses["q"]).solutions == ()
                continue
            assert verdict.status == YES and verdict.rule == "DEGREE_NONZERO", (a, rule, verdict)
            check_degree_certificate(RationalMatrix.from_rows(a.data), verdict.witnesses)
            if rule == "N_FIRST_CATEGORY":
                assert verdict.witnesses["degree"] == -1
            else:
                assert verdict.witnesses["q"] == ones_vec(n)
                assert verdict.witnesses["solutions"] == ((zeros_vec(n), 1),)
        assert set(hits) == {"Z_AND_P", "Z_NOT_P", "NONNEG_POS_DIAG", "N_FIRST_CATEGORY"}, hits

    def test_every_decided_verdict_rechecks(self):
        """Every Yes and No carries its certificate: a Yes rechecks as a
        degree walk, and a No names a q whose LCP has no solution."""
        rng = random.Random(30)
        matrices = [e.matrix for e in corpus_entries() if e.matrix.rows == e.matrix.cols]
        for trial in range(240):
            n = rng.randint(2, 4)
            if trial % 3 == 0:
                matrices.append(rand_int_matrix(rng, n, n))
            elif trial % 3 == 1:
                matrices.append(rand_int_matrix(rng, n, n - 1, 2) @ rand_int_matrix(rng, n - 1, n, 2))
            else:
                matrices.append(RationalMatrix.from_rows(
                    [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]))
        decided = Counter()
        for a in matrices:
            verdict = is_q_matrix(RationalMatrix.from_rows(a.data))
            if verdict.status == UNKNOWN:
                continue
            decided[verdict.rule] += 1
            fresh = RationalMatrix.from_rows(a.data)
            if verdict.status == YES:
                check_degree_certificate(fresh, verdict.witnesses)
            else:
                assert lcp_solutions(fresh, verdict.witnesses["q"]).solutions == (), (a, verdict)
        assert set(decided) == {"NONPOSITIVE_ROW", "NONNEG_ZERO_DIAGONAL", "UNSOLVABLE_Q",
                                "DEGREE_NONZERO"}, decided

    def test_a_head_q_refutes_before_the_degree_walk(self):
        """-e and the -e_i run before the R0 test and the degree walk, so a
        matrix they refute never computes its degree."""
        a = RationalMatrix.from_rows([[1, -2], [-2, 1]])
        verdict = is_q_matrix(a)
        assert verdict.status == NO and verdict.rule == "UNSOLVABLE_Q"
        assert verdict.witnesses["q"] == vec([-1, -1])
        assert "degree" not in a._cache
        rng = random.Random(31)
        refuted = 0
        for _ in range(200):
            n = rng.randint(2, 4)
            a = rand_int_matrix(rng, n, n)
            verdict = is_q_matrix(a)
            if verdict.rule == "UNSOLVABLE_Q" and verdict.witnesses["q"] in list(_sample_qs(n))[:n + 1]:
                refuted += 1
                assert "degree" not in a._cache
        assert refuted

    def test_nonzero_homogeneous_solution_skips_the_karamardian_cascade(self):
        """A nonzero solution of LCP(A, 0) leaves the degree undefined, and
        the Q-matrix cascade never asks the Karamardian one."""
        a = RationalMatrix.from_rows([[-1, 1], [1, 0]])
        assert not lcp_unique_zero(a, zeros_vec(2))
        verdict = is_q_matrix(a)
        assert verdict.status == NO and verdict.rule == "UNSOLVABLE_Q"
        assert not [k for k in a._cache if isinstance(k, tuple) and k[0] == "karamardian"]

    def test_unknown_carries_sample_log(self):
        """The two Q Unknowns of the seed-1 Karamardian census: the
        evidence is the q's tried and their entry bound, with no seed, and
        every q tried has a solution."""
        for rows in ([[2, 1, 1, -2, 3], [0, -1, 3, 2, 0], [0, -1, 0, -3, 2], [3, 3, -2, -2, 1],
                      [-3, 0, 3, -3, 0]],
                     [[3, 1, 0, -7, 0], [2, 0, 3, 0, 3], [2, 4, -2, -8, 4], [4, 0, 2, -2, 2],
                      [4, 4, -10, 0, 2]]):
            a = RationalMatrix.from_rows(rows)
            verdict = is_q_matrix(a)
            assert verdict.status == UNKNOWN and verdict.rule is None
            assert set(verdict.evidence) == {"tried", "bound"}
            assert verdict.evidence["tried"] == tuple(_sample_qs(5))
            assert verdict.evidence["bound"] == Q_SAMPLE_BOUND
            assert all(lcp_solutions(a, q).solutions for q in verdict.evidence["tried"])

    def test_never_enumerates_every_support(self, monkeypatch):
        """The sampler asks only whether some solution exists, so it stops
        at the first support that holds one."""
        def refuse(*args, **kwargs):
            raise AssertionError("is_q_matrix enumerated every support")
        monkeypatch.setattr(lcp, "complementary_solutions", refuse)
        monkeypatch.setattr(lcp_classes, "complementary_solutions", refuse)
        rng = random.Random(4)
        sampled = 0
        for _ in range(30):
            verdict = is_q_matrix(rand_int_matrix(rng, 3, 3))
            sampled += verdict.status == UNKNOWN or verdict.rule == "UNSOLVABLE_Q"
        assert sampled

    def test_degree_nonzero_certifies_an_r0_matrix(self):
        """An invertible R0 A of degree 1 that no earlier rule decides: the
        degree walk is memoized on A, the certificate rechecks by
        re-enumeration at its q, and every sampled q has a solution."""
        a = RationalMatrix.from_rows([[-1, 1, 1], [-1, 1, -1], [-1, 0, 1]])
        v = is_q_matrix(a)
        assert v.status == YES and v.rule == "DEGREE_NONZERO"
        assert v.witnesses is a._cache["degree"] and v.witnesses["degree"] == 1
        check_degree_certificate(a, v.witnesses)
        rng = random.Random(27)
        for _ in range(200):
            assert lcp_solutions(a, rand_vector(rng, 3, 9)).solutions

    def test_degree_nonzero_moves_only_unknowns(self):
        """Each seeded DEGREE_NONZERO Yes has R0 A, no q the sampler would
        refute and a certificate that rechecks."""
        rng = random.Random(28)
        fired = 0
        for trial in range(300):
            n = rng.randint(3, 4)
            a = rand_int_matrix(rng, n, n)
            v = is_q_matrix(a)
            if v.rule != "DEGREE_NONZERO":
                continue
            fired += 1
            assert first_nonzero_solution(a, zeros_vec(n), ()) is None
            assert all(lcp_solutions(a, q).solutions for q in _sample_qs(n))
            check_degree_certificate(RationalMatrix.from_rows(a.data), v.witnesses)
        assert fired

    def test_sampled_qs_have_a_negative_entry(self):
        """-e first, then the -e_i, then the draws with a negative entry, in
        the order of the one fixed stream, random.Random(0)."""
        for n in range(1, 6):
            qs = list(_sample_qs(n))
            assert qs[0] == vec([-1] * n)
            assert qs[1:n + 1] == [vec([-1 if j == i else 0 for j in range(n)]) for i in range(n)]
            rng = random.Random(0)
            draws = [vec([rng.randint(-Q_SAMPLE_BOUND, Q_SAMPLE_BOUND) for _ in range(n)])
                     for _ in range(Q_SAMPLES)]
            assert qs[n + 1:] == [q for q in draws if min(q) < 0]
            assert all(min(q) < 0 for q in qs)

    def test_degree_walk_draws_from_the_same_stream(self):
        """After e, the degree walk tries DEGREE_QS draws in [-9, 9] from
        random.Random(0), restarted for each matrix."""
        for n in range(1, 6):
            rng = random.Random(0)
            assert list(_draws(n, DEGREE_QS, 9)) == [
                vec([rng.randint(-9, 9) for _ in range(n)]) for _ in range(DEGREE_QS)]

    def test_p_matrix_unique_solution_for_many_q(self):
        rng = random.Random(5)
        for _ in range(8):
            p = rand_p_matrix(rng, rng.randint(2, 4))
            for _ in range(100):
                q = rand_vector(rng, p.rows, bound=6)
                assert len(lcp_solutions(p, q).solutions) == 1


# -- the indices of the support walk against Fraction residuals ---------------


def _indexed_walk(a, q):
    """(S, x, index) for every support of LCP(A, q) with a solution, read
    off one walk over all of them."""
    supports = itertools.chain([()], nonempty_subsets(a.rows))
    return [(s, x, index) for s, x, _, index in lcp._walk(a, q, (), supports)]


class TestDegreeWalk:
    def test_fixtures_hit_each_index_zero(self):
        """A = [[-1, 0], [-1, 1]] at q = e: {0} solves with x_0 = 1 and the
        zero residual y_1 = 0 off S, and {0, 1}, a nonsingular block, gives
        the same x with the zero entry x_1 = 0; [[1, 1], [1, 1]] at -e has
        the segment x_0 + x_1 = 1 on its singular block.  Each of these
        has index 0; x = 0 on the empty support at e has index +1."""
        a = RationalMatrix.from_rows([[-1, 0], [-1, 1]])
        one_zero = vec([1, 0])
        expected = [((), zeros_vec(2), 1), ((0,), one_zero, 0), ((0, 1), one_zero, 0)]
        assert _indexed_walk(a, ones_vec(2)) == expected
        assert indexed_solutions_reference(a, ones_vec(2)) == expected
        a = RationalMatrix.from_rows([[1, 1], [1, 1]])
        got = _indexed_walk(a, vec([-1, -1]))
        assert [(s, index) for s, _, index in got] == [((0,), 0), ((1,), 0), ((0, 1), 0)]
        assert got == indexed_solutions_reference(a, vec([-1, -1]))
        assert lcp._block_entry(lcp._block_table(a, ()), (0, 1)) is None

    def test_degree_matches_the_fraction_reference(self):
        """On seeded R0 matrices of orders 1 to 5, with integer and with p/q
        entries (alpha of `common_rows` not 1), and on M of the generator
        form of rank-deficient draws: the same walk at every q the degree
        may try, and the same degree certificate or None.  A zero entry of
        a nonsingular x_S is met first at S minus that index, where y is
        zero off the support, so only the per-support lists see it."""
        rng = random.Random(35)
        cases, fractional = [], 0
        for n in range(1, 6):
            for draw in (lambda: rand_int_matrix(rng, n, n), lambda: rand_matrix(rng, n)) * 3:
                a = draw()
                while first_nonzero_solution(a, zeros_vec(n), ()) is not None:
                    a = draw()
                cases.append(a)
                fractional += common_rows(a)[0] != 1
        for n in range(2, 6):
            for _ in range(3):
                a = rand_int_matrix(rng, n, n - 1, 2) @ rand_int_matrix(rng, n - 1, n, 2)
                cases.append(generator_lcp(a)[0])
        assert fractional >= 10
        regular = 0
        for a in cases:
            for q in [ones_vec(a.rows), *_draws(a.rows, DEGREE_QS, 9)]:
                assert _indexed_walk(a, q) == indexed_solutions_reference(a, q), (a.data, q)
            walk = lcp_degree(RationalMatrix.from_rows(a.data))
            assert walk == lcp_degree_reference(RationalMatrix.from_rows(a.data)), a.data
            regular += walk is not None
        assert regular >= 30
