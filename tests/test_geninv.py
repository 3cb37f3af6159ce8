import random
from fractions import Fraction

import pytest

from karalcp.errors import NonSquareError, ZeroMatrixError
from karalcp.geninv import (
    generalized_idempotent_scalar,
    group_inverse,
    index_at_most_one,
    is_range_symmetric,
    moore_penrose,
)
from karalcp.matrix import RationalMatrix, rank, subspace_bases
from conftest import rand_group_invertible, rand_int_matrix, rand_matrix
from oracles import group_equations_hold, penrose_holds


def ones(n):
    return RationalMatrix.from_rows([[1] * n for _ in range(n)])


class TestMoorePenrose:
    def test_identity(self):
        assert moore_penrose(RationalMatrix.identity(3)) == RationalMatrix.identity(3)

    def test_all_ones_2x2(self):
        a = ones(2)
        mp = moore_penrose(a)
        assert mp == a.scale(Fraction(1, 4))
        assert penrose_holds(a, mp)

    def test_rank_one_is_positive_multiple_of_transpose(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(2, 5)
            u = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            v = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            if all(x == 0 for x in u) or all(x == 0 for x in v):
                continue
            a = RationalMatrix(n, n, [[ui * vj for vj in v] for ui in u])
            mp = moore_penrose(a)
            at = a.transpose()
            i, j = next((i, j) for i in range(n) for j in range(n) if at.data[i][j] != 0)
            c = mp.data[i][j] / at.data[i][j]
            assert c > 0
            assert mp == at.scale(c)

    def test_zero_matrix(self):
        assert moore_penrose(RationalMatrix.zeros(2, 3)) == RationalMatrix.zeros(3, 2)

    def test_rectangular_penrose_equations(self):
        rng = random.Random(4)
        for _ in range(60):
            a = rand_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            assert penrose_holds(a, moore_penrose(a))


class TestGroupInverse:
    def test_all_ones_scaled(self):
        for n in range(2, 7):
            gi = group_inverse(ones(n))
            assert gi.exists
            assert gi.inverse == ones(n).scale(Fraction(1, n * n))

    def test_shift_has_no_group_inverse(self):
        assert not group_inverse(RationalMatrix.from_rows([[0, 1], [0, 0]])).exists
        assert not group_inverse(RationalMatrix.from_rows([[0, -1], [0, 0]])).exists

    def test_nilpotent_plus_projector(self):
        a = RationalMatrix.from_rows([[1, 1, 1], [0, 1, 1], [0, 0, 0]])
        expected = RationalMatrix.from_rows([[1, -1, -1], [0, 1, 1], [0, 0, 0]])
        gi = group_inverse(a)
        assert gi.exists and gi.inverse == expected

    def test_symmetric_block_z(self):
        a = RationalMatrix.from_rows([[1, -1, 0], [-1, 1, 0], [0, 0, 3]])
        expected = RationalMatrix.from_rows(
            [["1/4", "-1/4", 0], ["-1/4", "1/4", 0], [0, 0, "1/3"]])
        gi = group_inverse(a)
        assert gi.exists and gi.inverse == expected

    def test_zero_matrix_group_inverse_is_zero(self):
        gi = group_inverse(RationalMatrix.zeros(3, 3))
        assert gi.exists and gi.inverse == RationalMatrix.zeros(3, 3)

    def test_involution_on_random_group_invertibles(self):
        rng = random.Random(11)
        for _ in range(1000):
            a = rand_group_invertible(rng, rng.randint(1, 5))
            gi = group_inverse(a)
            assert gi.exists
            assert group_equations_hold(a, gi.inverse)
            back = group_inverse(gi.inverse)
            assert back.exists and back.inverse == a

    def test_range_membership_via_projector(self):
        rng = random.Random(12)
        for _ in range(100):
            n = rng.randint(2, 4)
            a = rand_group_invertible(rng, n)
            gi = group_inverse(a)
            proj = a @ gi.inverse
            rng_sub = subspace_bases(a).range
            x = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
            assert (proj.mul_vec(x) == x) == rng_sub.contains(x)


class TestIndexAndRangeSymmetry:
    def test_invertible_has_index_one(self):
        rng = random.Random(5)
        for _ in range(30):
            m = rand_matrix(rng, 3)
            if rank(m) == 3:
                assert index_at_most_one(m)

    def test_shift_matrices(self):
        assert not index_at_most_one(RationalMatrix.from_rows([[0, 1], [0, 0]]))
        assert index_at_most_one(RationalMatrix.from_rows([[0, -1], [0, 1]]))

    def test_range_symmetric_cases(self):
        assert is_range_symmetric(ones(3))
        assert is_range_symmetric(RationalMatrix.from_rows([[1, -1], [-1, 1]]))
        assert not is_range_symmetric(
            RationalMatrix.from_rows([[1, 1, 1], [0, 1, 1], [0, 0, 0]]))

    def test_range_symmetric_group_equals_moore_penrose(self):
        rng = random.Random(6)
        seen = 0
        while seen < 40:
            n = rng.randint(1, 4)
            a = rand_group_invertible(rng, n)
            if not is_range_symmetric(a):
                continue
            seen += 1
            gi = group_inverse(a)
            assert gi.exists and gi.inverse == moore_penrose(a)


class TestGeneralizedIdempotent:
    def test_projector_scalar_is_one(self):
        rng = random.Random(7)
        for _ in range(40):
            a = rand_group_invertible(rng, rng.randint(1, 4))
            proj = a @ group_inverse(a).inverse
            if proj.is_zero():
                continue
            assert generalized_idempotent_scalar(proj) == 1

    def test_all_ones_scalar_is_n(self):
        for n in range(1, 6):
            assert generalized_idempotent_scalar(ones(n)) == n

    def test_unipotent_has_none(self):
        assert generalized_idempotent_scalar(
            RationalMatrix.from_rows([[1, 1], [0, 1]])) is None

    def test_zero_matrix_rejected(self):
        with pytest.raises(ZeroMatrixError):
            generalized_idempotent_scalar(RationalMatrix.zeros(2, 2))

    def test_requires_square(self):
        with pytest.raises(NonSquareError):
            generalized_idempotent_scalar(RationalMatrix.zeros(2, 3))
