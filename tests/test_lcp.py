import random
from fractions import Fraction

import pytest

from karalcp import lcp
from karalcp.conelcp import (
    cone_lcp_only_zero,
    cone_lcp_solutions,
    dual_membership,
    int_dual_membership,
)
from karalcp.errors import (
    DimensionMismatchError,
    NonSquareError,
    QNotNonnegativeError,
    TooLargeError,
)
from karalcp.lcp import (
    NO,
    UNKNOWN,
    YES,
    Q_SAMPLE_BOUND,
    Q_SAMPLES,
    _sample_qs,
    is_q_matrix,
    lcp_solutions,
    lcp_unique_zero,
)
from karalcp.matrix import RationalMatrix, inverse, vec
from conftest import rand_int_matrix, rand_p_matrix, rand_vector
from oracles import lcp_solutions_sympy

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
    (cone_lcp_only_zero, True), (dual_membership, False), (int_dual_membership, False)])
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
        verdict = is_q_matrix(QNOTKAR)
        assert verdict.status == YES and verdict.rule == "N_FIRST_CATEGORY"

    def test_z_singular(self):
        a = RationalMatrix.from_rows([[1, -1, 0], [0, 1, -1], [0, 0, 0]])
        assert is_q_matrix(a).status == NO

    def test_nonneg_zero_diag(self):
        assert is_q_matrix(RationalMatrix.from_rows([[0, 2], [3, 1]])).status == NO

    def test_nonpositive_row_certificate_reverifies(self):
        a = RationalMatrix.from_rows([[0, -1], [1, 1]])
        verdict = is_q_matrix(a)
        assert verdict.status == NO
        q = verdict.witnesses["q"]
        assert lcp_solutions(a, q).solutions == ()

    def test_strictly_copositive_rule(self):
        a = RationalMatrix.from_rows([[1, 2], [-1, 1]])  # x^T A x = x1^2 + x1 x2 + x2^2
        verdict = is_q_matrix(a)
        assert verdict.status == YES

    def test_inverse_of_karamardian_invertible_never_refuted(self):
        rng = random.Random(3)
        checked = 0
        while checked < 25:
            a = rand_p_matrix(rng, rng.randint(2, 3))
            checked += 1
            inv = inverse(a)
            assert is_q_matrix(inv).status != NO

    def test_karamardian_rule_fires_and_inverse_stays_unrefuted(self):
        # Karamardian + invertible but caught by no cheaper rule: the zero
        # diagonal entry rules out P / nonneg / strict copositivity
        a = RationalMatrix.from_rows([[0, 1], [-1, 1]])
        verdict = is_q_matrix(a)
        assert verdict.status == YES and verdict.rule == "KARAMARDIAN_INVERTIBLE"
        assert is_q_matrix(inverse(a)).status != NO

    def test_unknown_carries_sample_log(self):
        # competitive sign pattern with no cheap rule; outcome may be
        # Yes (via deeper rules) or Unknown, but never an unsound No
        rng = random.Random(4)
        for _ in range(30):
            a = rand_int_matrix(rng, 3, 3)
            verdict = is_q_matrix(a)
            if verdict.status == UNKNOWN:
                assert verdict.evidence["seed"] == 0
                assert len(verdict.evidence["tried"]) > 0

    def test_never_enumerates_every_support(self, monkeypatch):
        """The sampler asks only whether some solution exists, so it stops
        at the first support that holds one."""
        def refuse(*args, **kwargs):
            raise AssertionError("is_q_matrix enumerated every support")
        monkeypatch.setattr(lcp, "complementary_solutions", refuse)
        rng = random.Random(4)
        sampled = 0
        for _ in range(30):
            verdict = is_q_matrix(rand_int_matrix(rng, 3, 3))
            sampled += verdict.status == UNKNOWN or verdict.rule == "UNSOLVABLE_Q"
        assert sampled

    def test_sampled_qs_have_a_negative_entry(self):
        """-e first, then the -e_i, then the seeded draws with a negative
        entry, in the order the seeded stream produces them."""
        for n in range(1, 6):
            for seed in (0, 3):
                qs = list(_sample_qs(n, seed))
                assert qs[0] == vec([-1] * n)
                assert qs[1:n + 1] == [vec([-1 if j == i else 0 for j in range(n)])
                                       for i in range(n)]
                rng = random.Random(seed)
                draws = [vec([rng.randint(-Q_SAMPLE_BOUND, Q_SAMPLE_BOUND) for _ in range(n)])
                         for _ in range(Q_SAMPLES)]
                assert qs[n + 1:] == [q for q in draws if min(q) < 0]
                assert all(min(q) < 0 for q in qs)

    def test_p_matrix_unique_solution_for_many_q(self):
        rng = random.Random(5)
        for _ in range(8):
            p = rand_p_matrix(rng, rng.randint(2, 4))
            for _ in range(100):
                q = rand_vector(rng, p.rows, bound=6)
                assert len(lcp_solutions(p, q).solutions) == 1
