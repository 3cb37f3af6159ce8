import random
from fractions import Fraction

from karalcp.conelcp import cone_K, is_karamardian, maps_K_nonneg
from karalcp import lp
from karalcp.geninv import group_inverse, moore_penrose
from karalcp.lcp import YES
from karalcp.matrix import RationalMatrix, integer_row, inverse, rank, subspace_bases
from karalcp.minor_classes import is_h_matrix_positive_diag
from karalcp.monotone import (
    is_almost_monotone,
    is_gi_semimonotone,
    is_group_monotone,
    is_monotone,
    is_range_monotone,
    is_row_monotone,
)
from conftest import rand_int_matrix, rand_nonzero_vector
from oracles import (
    cone_implies_nonneg_reference,
    h_matrix_positive_diag_reference,
    is_almost_monotone_reference,
)


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


def _laplacian(rng, n):
    """diag(W e) - W for a random W >= 0 with zero diagonal: a singular Z-matrix."""
    w = [[rng.randint(0, 2) if i != j else 0 for j in range(n)] for i in range(n)]
    return RationalMatrix.from_rows([[sum(w[i]) if i == j else -w[i][j] for j in range(n)]
                                     for i in range(n)])


def _index_two(rng, n):
    """S J S^-1 with J = [[0, 1], [0, 0]] (+) B and S unimodular, so rank A^2
    < rank A and A has no group inverse."""
    lower = [[int(i == j) if i <= j else rng.randint(-1, 1) for j in range(n)] for i in range(n)]
    upper = [[int(i == j) if i >= j else rng.randint(-1, 1) for j in range(n)] for i in range(n)]
    s = RationalMatrix.from_rows(lower) @ RationalMatrix.from_rows(upper)
    b = rand_int_matrix(rng, n - 2, n - 2, 2).data
    j = [[int((i, k) == (0, 1)) if i < 2 or k < 2 else b[i - 2][k - 2] for k in range(n)]
         for i in range(n)]
    return s @ RationalMatrix.from_rows(j) @ inverse(s)


def _every_rank_cases():
    """Seeded matrices of orders 1-6: invertible ones (random, inverses of
    nonnegative matrices, and shifted Laplacians with random off-diagonal
    signs, which are H-matrices), F G products of each rank below n, index-2
    matrices and singular Z-Laplacians."""
    rng = random.Random(12)
    cases = []
    for n in range(1, 7):
        for k in range(9):
            if k % 3 == 0:
                a = rand_int_matrix(rng, n, n, 2)
            elif k % 3 == 1:
                a = inverse(RationalMatrix.from_rows(
                    [[abs(x) for x in row] for row in rand_int_matrix(rng, n, n, 2).data]))
            else:
                lap = _laplacian(rng, n).data
                a = RationalMatrix.from_rows(
                    [[x + rng.randint(1, 2) if i == j else x * rng.choice((1, -1))
                      for j, x in enumerate(row)] for i, row in enumerate(lap)])
            if a is not None and inverse(a) is not None:
                cases.append(a)
        for r in range(n):
            for _ in range(4):
                cases.append(rand_int_matrix(rng, n, r, 2) @ rand_int_matrix(rng, r, n, 2))
        for _ in range(4):
            cases.append(_laplacian(rng, n))
            if n >= 2:
                cases.append(_index_two(rng, n))
    return cases


def test_sign_tests_match_the_lp_references_at_every_rank(monkeypatch):
    """Range and row monotonicity, almost monotonicity and the H-matrix
    test read inverse signs on the generators of K and build no LP; the
    per-coordinate LPs on x in R(A) (complement N(A^T)) and x in R(A^T)
    (complement N(A)), and the LP references of the other two, agree."""
    built = []

    class CountingSimplex(lp._Simplex):
        def __init__(self, system):
            built.append(system)
            super().__init__(system)

    cases = _every_rank_cases()
    assert any(not group_inverse(a).exists for a in cases)
    assert {rank(a) for a in cases if a.rows == 6} == set(range(7))
    monkeypatch.setattr(lp, "_Simplex", CountingSimplex)
    predicates = (is_range_monotone, is_row_monotone, is_almost_monotone, is_h_matrix_positive_diag)
    verdicts = [tuple(predicate(a) for predicate in predicates) for a in cases]
    assert not built
    monkeypatch.undo()
    for a, got in zip(cases, verdicts):
        bases = subspace_bases(a)
        assert got == (cone_implies_nonneg_reference(a, bases.left_null.basis),
                       cone_implies_nonneg_reference(a, bases.null.basis),
                       is_almost_monotone_reference(a),
                       h_matrix_positive_diag_reference(a)), a.data
    assert all({got[k] for got in verdicts} == {True, False} for k in range(len(predicates)))


def test_maps_K_nonneg_matches_the_fraction_product():
    """maps_K_nonneg reads X g >= 0 on the integer rows of X, each scaled
    by its own multiplier; the Fraction product X g agrees, on A#, A+ and
    fractional X whose rows have unlike denominators."""
    rng = random.Random(27)
    compared = []
    for a in _every_rank_cases():
        if not cone_K(a).rays:
            continue
        gi = group_inverse(a)
        xs = [moore_penrose(a)] + [gi.inverse] * gi.exists
        xs.append(RationalMatrix.from_rows(
            [[Fraction(rng.randint(-1, 6), den) for _ in range(a.rows)]
             for den in rng.choices((1, 2, 3, 5, 7), k=a.rows)]))
        for x in xs:
            expected = all(t >= 0 for ray in cone_K(a).rays for t in x.mul_vec(ray))
            assert maps_K_nonneg(a, x) is expected, (a.data, x.data)
            compared.append((len({integer_row(row)[1] for row in x.data}) > 1, expected))
    assert {expected for unlike, expected in compared if unlike} == {True, False}


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
