import itertools
import random
from fractions import Fraction

import pytest

from karalcp.errors import TooLargeError
from karalcp.lcp import YES
from karalcp.lcp import is_q_matrix
from karalcp.lp import LinearSystem, lp_feasible
from karalcp.matrix import RationalMatrix, inverse, rank, vec
from karalcp.minor_classes import (
    MClass,
    has_property_c,
    is_h_matrix_positive_diag,
    is_m_matrix,
    minor_class,
    structural_flags,
)
from conftest import (
    rand_int_matrix,
    rand_p_matrix,
    rand_singular_irreducible_m,
    rand_z_matrix,
)


class TestStructuralFlags:
    def test_symmetric_z(self):
        flags = structural_flags(RationalMatrix.from_rows([[1, -1], [-1, 1]]))
        assert flags.z_matrix and flags.symmetric and flags.irreducible
        assert not flags.nonnegative

    def test_reducible_shift(self):
        flags = structural_flags(RationalMatrix.from_rows([[0, -1], [0, 0]]))
        assert flags.z_matrix and not flags.irreducible
        assert flags.has_nonpositive_row

    def test_all_ones(self):
        flags = structural_flags(RationalMatrix.from_rows([[1, 1], [1, 1]]))
        assert flags.nonnegative and flags.positive and flags.irreducible

    def test_one_by_one_zero_is_reducible(self):
        assert not structural_flags(RationalMatrix.from_rows([[0]])).irreducible
        assert structural_flags(RationalMatrix.from_rows([[2]])).irreducible


class TestMinorClass:
    def test_not_p0(self):
        report = minor_class(RationalMatrix.from_rows([[0, -1, -2], [0, 1, 2], [1, 1, 1]]))
        assert not report.is_p0 and not report.is_p

    def test_p0_not_p(self):
        report = minor_class(RationalMatrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 1, 0]]))
        assert report.is_p0 and not report.is_p

    def test_n_matrix_first_category(self):
        report = minor_class(RationalMatrix.from_rows([[-1, -2, 1], [-1, -1, 3], [2, 1, -1]]))
        assert report.is_n and report.n_first_category

    def test_negative_diagonal_rank_one(self):
        report = minor_class(RationalMatrix.from_rows([[2, 1], [-2, -1]]))
        assert not report.is_p0

    def test_implications(self):
        rng = random.Random(1)
        for _ in range(120):
            m = rand_int_matrix(rng, 3, 3)
            report = minor_class(m)
            if report.is_p:
                assert report.is_p0
            if report.is_adequate:
                assert report.is_p0

    def test_p_inverse_is_p(self):
        rng = random.Random(2)
        for _ in range(40):
            p = rand_p_matrix(rng, rng.randint(2, 4))
            assert minor_class(inverse(p)).is_p

    def test_cap(self):
        with pytest.raises(TooLargeError):
            minor_class(RationalMatrix.identity(13))


class TestAdequate:
    def test_gram_matrices_are_adequate(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(2, 4)
            r = rand_int_matrix(rng, rng.randint(1, n), n)
            gram = r.transpose() @ r
            assert minor_class(gram).is_adequate

    def test_p0_need_not_be_adequate(self):
        # vanishing trailing 2x2 minor but independent rows 1,2
        b = RationalMatrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 1, 0]])
        assert minor_class(b).is_p0
        assert not minor_class(b).is_adequate

    def test_adequate_sign_reversal_forces_ax_zero(self):
        # on each sign orthant: x * Ax <= 0 plus normalization implies Ax = 0
        rng = random.Random(4)
        checked = 0
        while checked < 25:
            n = rng.randint(2, 3)
            r = rand_int_matrix(rng, rng.randint(1, n), n)
            a = r.transpose() @ r
            if rank(a) == n:
                continue
            checked += 1
            for signs in itertools.product((1, -1), repeat=n):
                system = LinearSystem(n, nonneg=True)
                system.eq([Fraction(1)] * n, 1)
                for i in range(n):
                    system.ge([-signs[i] * a.data[i][j] * signs[j] for j in range(n)], 0)
                out = lp_feasible(system)
                if out.is_feasible:
                    x = [signs[j] * out.witness[j] for j in range(n)]
                    assert all(v == 0 for v in a.mul_vec(x))


class TestMMatrix:
    def test_nonsingular(self):
        assert is_m_matrix(RationalMatrix.from_rows([[1, -1], [-1, 2]])) is MClass.NONSINGULAR_M

    def test_singular(self):
        assert is_m_matrix(RationalMatrix.from_rows([[1, -1], [-1, 1]])) is MClass.SINGULAR_M

    def test_not_z(self):
        assert is_m_matrix(RationalMatrix.from_rows([[1, 2], [1, 1]])) is MClass.NOT_M

    def test_z_not_p0(self):
        assert is_m_matrix(RationalMatrix.from_rows([[-1, 0], [0, 1]])) is MClass.NOT_M


class TestPropertyC:
    def test_examples(self):
        assert has_property_c(RationalMatrix.from_rows([[1, -1], [-1, 1]]))
        assert not has_property_c(RationalMatrix.from_rows([[0, -1], [0, 0]]))
        assert has_property_c(RationalMatrix.from_rows([[0, -1], [0, 1]]))

    def test_nonsingular_m_always_has_it(self):
        rng = random.Random(5)
        for _ in range(30):
            m = rand_p_matrix(rng, 3)
            if structural_flags(m).z_matrix:
                assert has_property_c(m)


class TestSingularIrreducibleM:
    def test_classical_properties(self):
        rng = random.Random(6)
        for _ in range(40):
            n = rng.randint(2, 5)
            a, v = rand_singular_irreducible_m(rng, n)
            flags = structural_flags(a)
            assert flags.z_matrix and flags.irreducible
            assert is_m_matrix(a) is MClass.SINGULAR_M
            # (a) rank n-1, (b) positive null vector, (c) property c,
            # (d) proper principal submatrices nonsingular M, (e) almost monotone
            assert rank(a) == n - 1
            assert a.mul_vec(v) == vec([0] * n) and all(x > 0 for x in v)
            assert has_property_c(a)
            for k in range(1, n):
                for idx in itertools.combinations(range(n), k):
                    assert is_m_matrix(a.submatrix(idx, idx)) is MClass.NONSINGULAR_M
            from karalcp.monotone import is_almost_monotone
            assert is_almost_monotone(a)


class TestHMatrix:
    def test_identity(self):
        assert is_h_matrix_positive_diag(RationalMatrix.identity(3))

    def test_diagonally_dominant(self):
        assert is_h_matrix_positive_diag(RationalMatrix.from_rows([[2, -1], [-1, 2]]))

    def test_mutually_dominated_pair(self):
        assert not is_h_matrix_positive_diag(RationalMatrix.from_rows([[1, 2], [2, 1]]))

    def test_scaling_found_when_needed(self):
        # dominance only after scaling d = (1, 4)
        assert is_h_matrix_positive_diag(RationalMatrix.from_rows([[1, "1/3"], [1, 2]]))


class TestZQChain:
    def test_z_and_q_yes_implies_p(self):
        rng = random.Random(7)
        for _ in range(60):
            z = rand_z_matrix(rng, rng.randint(2, 3))
            verdict = is_q_matrix(z)
            if verdict.status == YES:
                assert minor_class(z).is_p
