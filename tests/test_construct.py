import random
from fractions import Fraction

import pytest

from karalcp.conelcp import is_karamardian
from karalcp.construct import (
    border_karamardian,
    border_m_matrix,
    cayley_g_epsilon,
    direct_sum,
    householder_like,
    rank_one,
    stochastic_shift,
)
from karalcp.errors import (
    BadInnerProductError,
    BadUError,
    NotInvertibleMError,
    NotIrreducibleError,
    PreconditionFailedError,
    SingularShiftError,
    ZeroVectorError,
)
from karalcp.lcp import YES
from karalcp.lcp_classes import is_p_hash
from karalcp.matrix import RationalMatrix, determinant, vec
from karalcp.minor_classes import has_property_c, minor_class
from conftest import rand_p_matrix, rand_symmetric_irreducible_invertible_m

M3 = RationalMatrix.from_rows([[0, -1, -2], [0, 1, 2], [1, 1, 1]])


class TestRankOne:
    def test_sign_flip_outer_product(self):
        assert rank_one(vec([1, -1]), vec([2, 1])) == RationalMatrix.from_rows(
            [[2, 1], [-2, -1]])

    def test_all_ones(self):
        assert rank_one(vec([1, 1]), vec([1, 1])) == RationalMatrix.from_rows(
            [[1, 1], [1, 1]])

    def test_unit_vectors(self):
        assert rank_one(vec([1, 0]), vec([0, 1])) == RationalMatrix.from_rows(
            [[0, 1], [0, 0]])

    def test_zero_rejected(self):
        with pytest.raises(ZeroVectorError):
            rank_one(vec([0, 0]), vec([1, 1]))


class TestBorderMMatrix:
    def test_symmetric_example(self):
        a = RationalMatrix.from_rows([[1, -1], [-1, 2]])
        result = border_m_matrix(a, vec([-1, -1]))
        assert result.alpha == 5
        assert result.matrix == RationalMatrix.from_rows(
            [[1, -1, -1], [-1, 2, -1], [-1, -1, 5]])
        assert result.warnings == ()
        assert determinant(result.matrix) == 0

    def test_nonsymmetric_warns(self):
        a = RationalMatrix.from_rows([[1, -1], [-2, 3]])
        result = border_m_matrix(a, vec([-1, -1]))
        assert result.alpha == 7
        assert result.matrix == RationalMatrix.from_rows(
            [[1, -1, -1], [-2, 3, -1], [-1, -1, 7]])
        assert any("symmetric" in w for w in result.warnings)

    def test_reducible_warns(self):
        a = RationalMatrix.from_rows([[1, -1], [0, 2]])
        result = border_m_matrix(a, vec([-1, -1]))
        assert result.alpha == 2
        assert result.matrix == RationalMatrix.from_rows(
            [[1, -1, -1], [0, 2, -1], [-1, -1, 2]])
        assert any("reducible" in w for w in result.warnings)

    def test_rejects_non_m(self):
        with pytest.raises(NotInvertibleMError):
            border_m_matrix(RationalMatrix.from_rows([[1, 2], [1, 1]]), vec([-1, -1]))

    def test_rejects_bad_u(self):
        a = RationalMatrix.from_rows([[1, -1], [-1, 2]])
        with pytest.raises(BadUError):
            border_m_matrix(a, vec([0, 0]))
        with pytest.raises(BadUError):
            border_m_matrix(a, vec([-1, 1]))


class TestBorderKaramardian:
    def test_forbidden_equal_alpha(self):
        # for this base and u the corner u^T A^-1 u equals 1 exactly
        a = RationalMatrix.from_rows([[0, 1], [-1, 1]])
        with pytest.raises(PreconditionFailedError):
            border_karamardian(a, vec([1, 2]), 1)

    def test_valid_bordering(self):
        a = RationalMatrix.from_rows([[0, 1], [-1, 1]])
        b = border_karamardian(a, vec([1, 2]), 2)
        assert b == RationalMatrix.from_rows([[0, 1, 1], [-1, 1, 2], [1, 2, 2]])
        assert determinant(b) != 0

    def test_identity_base(self):
        b = border_karamardian(RationalMatrix.identity(2), vec([1, 0]), 2)
        assert determinant(b) != 0
        assert is_karamardian(b).status == YES

    def test_named_hypothesis_failures(self):
        a = RationalMatrix.from_rows([[0, 1], [-1, 1]])
        with pytest.raises(PreconditionFailedError, match="nonnegative"):
            border_karamardian(a, vec([-1, 0]), 1)
        with pytest.raises(PreconditionFailedError, match="positive"):
            border_karamardian(a, vec([1, 0]), 0)
        with pytest.raises(PreconditionFailedError, match="invertible"):
            border_karamardian(RationalMatrix.from_rows([[1, 1], [1, 1]]), vec([1, 0]), 1)
        with pytest.raises(PreconditionFailedError, match="Karamardian"):
            border_karamardian(RationalMatrix.from_rows([[-1, 2], [1, -1]]), vec([1, 0]), 2)


class TestDirectSum:
    def test_block_assembly(self):
        b = RationalMatrix.from_rows([[0, -1], [0, 1]])
        c = RationalMatrix.from_rows([[1, -1], [-1, 2]])
        assert direct_sum(b, c) == RationalMatrix.from_rows(
            [[0, -1, 0, 0], [0, 1, 0, 0], [0, 0, 1, -1], [0, 0, -1, 2]])

    def test_identity_blocks(self):
        assert direct_sum(RationalMatrix.identity(2), RationalMatrix.identity(3)) == \
            RationalMatrix.identity(5)


class TestHouseholderLike:
    def test_unit_projector(self):
        assert householder_like(vec([1, 0, 0]), vec([1, 0, 0])) == \
            RationalMatrix.from_rows([[0, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_oblique_projector(self):
        h = householder_like(vec([1, 1]), vec([1, 0]))
        assert h == RationalMatrix.from_rows([[0, 0], [-1, 1]])
        assert h @ h == h
        assert is_p_hash(h)

    def test_scaled_pair(self):
        assert householder_like(vec([2, 0]), vec(["1/2", 0])) == \
            RationalMatrix.from_rows([[0, 0], [0, 1]])

    def test_inner_product_checked(self):
        with pytest.raises(BadInnerProductError):
            householder_like(vec([1, 0]), vec([2, 0]))


class TestCayley:
    def test_identity_maps_to_zero(self):
        shift = cayley_g_epsilon(RationalMatrix.identity(2), 1)
        assert shift.g == RationalMatrix.zeros(2, 2)
        assert shift.i_plus_g == RationalMatrix.identity(2)

    def test_eighth_shift_entry_sign(self):
        shift = cayley_g_epsilon(M3, Fraction(1, 8))
        assert shift.i_plus_g.data[0][0] == Fraction(-94, 81)
        assert shift.i_plus_g.data[0][0] < 0
        assert not minor_class(shift.i_plus_g).is_p
        assert not is_p_hash(shift.i_plus_g)

    def test_p_matrix_preserved(self):
        rng = random.Random(0)
        for _ in range(10):
            p = rand_p_matrix(rng, rng.randint(2, 3))
            shift = cayley_g_epsilon(p, 1)
            assert minor_class(shift.i_plus_g).is_p
            assert minor_class(shift.i_minus_g).is_p

    def test_singular_shift_detected(self):
        a = RationalMatrix.from_rows([[-1, 0], [0, -1]])
        with pytest.raises(SingularShiftError):
            cayley_g_epsilon(a, 1)


class TestStochasticShift:
    def test_uniform_matrix(self):
        third = Fraction(1, 3)
        b = RationalMatrix.from_rows([[third] * 3] * 3)
        a = stochastic_shift(b)
        expected = RationalMatrix.from_rows(
            [["2/3", "-1/3", "-1/3"], ["-1/3", "2/3", "-1/3"], ["-1/3", "-1/3", "2/3"]])
        assert a == expected
        assert has_property_c(a) and is_p_hash(a)

    def test_swap_matrix(self):
        b = RationalMatrix.from_rows([[0, 1], [1, 0]])
        assert stochastic_shift(b) == RationalMatrix.from_rows([[1, -1], [-1, 1]])

    def test_identity_rejected_as_reducible(self):
        with pytest.raises(NotIrreducibleError):
            stochastic_shift(RationalMatrix.identity(2))


class TestBorderingGuarantees:
    def test_bordered_m_matrices_are_p_hash(self):
        rng = random.Random(1)
        for _ in range(40):
            n = rng.randint(2, 3)
            a = rand_symmetric_irreducible_invertible_m(rng, n)
            u = vec([-rng.randint(0, 2) for _ in range(n - 1)] + [-rng.randint(1, 2)])
            result = border_m_matrix(a, u)
            assert is_p_hash(result.matrix)

    def test_bordered_karamardian_matrices_certify(self):
        rng = random.Random(2)
        built = 0
        while built < 40:
            n = rng.randint(2, 3)
            a = rand_p_matrix(rng, n)
            u = vec([rng.randint(0, 3) for _ in range(n)])
            alpha = Fraction(rng.randint(1, 5))
            try:
                b = border_karamardian(a, u, alpha)
            except PreconditionFailedError:
                continue
            built += 1
            assert is_karamardian(b).status == YES
