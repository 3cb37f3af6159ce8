import random
from fractions import Fraction

from karalcp.conelcp import is_karamardian
from karalcp import lp
from karalcp.geninv import group_inverse, moore_penrose
from karalcp.lcp import YES
from karalcp.matrix import RationalMatrix, inverse
from karalcp.monotone import (
    is_almost_monotone,
    is_gi_semimonotone,
    is_group_monotone,
    is_monotone,
    is_range_monotone,
    is_row_monotone,
)
from conftest import rand_int_matrix, rand_nonzero_vector
from oracles import cone_implies_nonneg_reference, is_almost_monotone_reference


def ones(n):
    return RationalMatrix.from_rows([[1] * n for _ in range(n)])


class TestMonotone:
    def test_identity(self):
        assert is_monotone(RationalMatrix.identity(2))

    def test_inverse_nonnegative(self):
        assert is_monotone(RationalMatrix.from_rows([[1, -1], [-1, 2]]))

    def test_singular_is_not(self):
        assert not is_monotone(RationalMatrix.from_rows([[1, -1], [-1, 1]]))


class TestRangeMonotone:
    def test_z_shift(self):
        assert is_range_monotone(RationalMatrix.from_rows([[1, -1, 0], [0, 1, -1], [0, 0, 0]]))

    def test_tridiagonal_fails(self):
        assert not is_range_monotone(RationalMatrix.from_rows([[0, -1, 0], [-1, 0, -1], [0, -1, 0]]))

    def test_upper_triangular_z_fails(self):
        assert not is_range_monotone(RationalMatrix.from_rows([[1, -1, -1], [0, 0, -1], [0, 0, 0]]))

    def test_monotone_implies_range_monotone_implies_group_invertible(self):
        rng = random.Random(0)
        for _ in range(120):
            a = rand_int_matrix(rng, 3, 3)
            if is_monotone(a):
                assert is_range_monotone(a)
            if is_range_monotone(a):
                assert group_inverse(a).exists


class TestRowMonotone:
    def test_identity(self):
        assert is_row_monotone(RationalMatrix.identity(3))

    def test_lower_shift_vacuously(self):
        assert is_row_monotone(RationalMatrix.from_rows([[0, 0], [1, 0]]))

    def test_transpose_of_rank_one_karamardian(self):
        rng = random.Random(1)
        seen = 0
        while seen < 40:
            n = rng.randint(2, 4)
            u, v = rand_nonzero_vector(rng, n), rand_nonzero_vector(rng, n)
            unisigned = all(x >= 0 for x in u) or all(x <= 0 for x in u)
            inner = sum(a * b for a, b in zip(u, v))
            if not (unisigned and inner > 0):
                continue
            seen += 1
            a = RationalMatrix(n, n, [[ui * vj for vj in v] for ui in u])
            assert is_row_monotone(a.transpose())
            assert is_row_monotone(moore_penrose(a))

    def test_gi_semimonotone_implies_row_monotone(self):
        rng = random.Random(2)
        for _ in range(150):
            a = rand_int_matrix(rng, 3, 3)
            if is_gi_semimonotone(a):
                assert is_row_monotone(a)


def test_nonsingular_range_and_row_monotonicity_match_per_coordinate_lps(monkeypatch):
    """For a nonsingular A both properties are monotonicity, decided from the
    inverse without an LP; the per-coordinate LPs agree on seeded matrices
    of order 1-5, half of them inverses of nonnegative matrices (so Yes)."""
    built = []

    class CountingSimplex(lp._Simplex):
        def __init__(self, system):
            built.append(system)
            super().__init__(system)

    rng = random.Random(12)
    cases = []
    while len(cases) < 200:
        n = rng.randint(1, 5)
        a = rand_int_matrix(rng, n, n, 2)
        if len(cases) % 2:
            a = inverse(RationalMatrix.from_rows([[abs(x) for x in row] for row in a.data]))
        if a is not None and inverse(a) is not None:
            cases.append(a)
    monkeypatch.setattr(lp, "_Simplex", CountingSimplex)
    verdicts = []
    for a in cases:
        verdicts.append(is_range_monotone(a))
        assert is_row_monotone(a) == verdicts[-1]
    assert not built
    monkeypatch.undo()
    assert verdicts == [cone_implies_nonneg_reference(a, ()) for a in cases]
    assert any(verdicts) and not all(verdicts)


class TestGroupAndGiMonotone:
    def test_identity(self):
        eye = RationalMatrix.identity(2)
        assert is_group_monotone(eye) and is_gi_semimonotone(eye)

    def test_all_ones(self):
        a = ones(3)
        assert is_group_monotone(a) and is_gi_semimonotone(a)

    def test_signed_group_inverse(self):
        a = RationalMatrix.from_rows([[1, 1, 1], [0, 1, 1], [0, 0, 0]])
        assert not is_group_monotone(a)
        assert not is_gi_semimonotone(a)


class TestAlmostMonotone:
    def test_singular_symmetric_m(self):
        assert is_almost_monotone(RationalMatrix.from_rows([[1, -1], [-1, 1]]))

    def test_identity_is_not(self):
        assert not is_almost_monotone(RationalMatrix.identity(2))

    def test_zero_matrix(self):
        assert is_almost_monotone(RationalMatrix.zeros(2, 2))

    def test_one_lp_matches_per_coordinate_reference(self):
        """The single LP agrees with one LP per coordinate on seeded random
        matrices of order 1-5, half of them rank-deficient products F G."""
        rng = random.Random(11)
        verdicts = []
        for trial in range(300):
            n = rng.randint(1, 5)
            if trial % 2:
                r = rng.randint(1, n)
                a = rand_int_matrix(rng, n, r, 2) @ rand_int_matrix(rng, r, n, 2)
            else:
                a = rand_int_matrix(rng, n, n, 2)
            verdicts.append(is_almost_monotone(a))
            assert verdicts[-1] == is_almost_monotone_reference(a), a
        assert any(verdicts) and not all(verdicts)


class TestRankOneMonotonicity:
    def test_karamardian_rank_one_and_group_inverse_are_range_monotone(self):
        rng = random.Random(3)
        seen = 0
        while seen < 40:
            n = rng.randint(2, 4)
            u, v = rand_nonzero_vector(rng, n), rand_nonzero_vector(rng, n)
            unisigned = all(x >= 0 for x in u) or all(x <= 0 for x in u)
            inner = sum(a * b for a, b in zip(u, v))
            if not (unisigned and inner > 0):
                continue
            seen += 1
            a = RationalMatrix(n, n, [[ui * vj for vj in v] for ui in u])
            assert is_range_monotone(a)
            gi = group_inverse(a)
            assert gi.exists and is_range_monotone(gi.inverse)
            assert gi.inverse == a.scale(1 / inner ** 2)


class TestUpperTriangularZFamilies:
    """The four singular upper-triangular Z families with exactly one zero
    diagonal entry are both Karamardian and range monotone."""

    @staticmethod
    def _family(rng, form):
        def nonpos():
            return Fraction(-rng.randint(0, 3))

        def pos():
            return Fraction(rng.randint(1, 3))

        if form == 1:
            return RationalMatrix.from_rows([[0, 0, nonpos()], [0, 1, nonpos()], [0, 0, pos()]])
        if form == 2:
            return RationalMatrix.from_rows([[0, nonpos(), 0], [0, 1, 0], [0, 0, pos()]])
        if form == 3:
            return RationalMatrix.from_rows(
                [[1, nonpos(), nonpos()], [0, 0, nonpos()], [0, 0, pos()]])
        return RationalMatrix.from_rows(
            [[1, nonpos(), nonpos()], [0, pos(), nonpos()], [0, 0, 0]])

    def test_random_instances(self):
        rng = random.Random(4)
        for _ in range(60):
            form = rng.randint(1, 4)
            a = self._family(rng, form)
            assert is_range_monotone(a)
            assert is_karamardian(a).status == YES
