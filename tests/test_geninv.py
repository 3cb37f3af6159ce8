import random
from fractions import Fraction

import pytest

from karalcp import geninv, matrix
from karalcp.errors import NonSquareError, ZeroMatrixError
from karalcp.geninv import (
    generalized_idempotent_scalar,
    group_inverse,
    index_at_most_one,
    is_range_symmetric,
    moore_penrose,
)
from karalcp.matrix import RationalMatrix, inverse, rank, subspace_bases
from conftest import rand_group_invertible, rand_int_matrix, rand_matrix
from oracles import (
    group_equations_hold,
    group_inverse_reference,
    moore_penrose_reference,
    penrose_holds,
)


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


def _rational(rng, rows, cols):
    return RationalMatrix(rows, cols, [[Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
                                        for _ in range(cols)] for _ in range(rows)])


def _product(rng, rows, r, cols):
    """A rational F G of rank at most r (the zero matrix for r = 0)."""
    if r == 0:
        return RationalMatrix.zeros(rows, cols)
    return _rational(rng, rows, r) @ _rational(rng, r, cols)


def _index_two(rng, n):
    """P J P^-1 for a random invertible P and J = [[N, 0], [0, C]], N the
    2x2 nilpotent Jordan block: rank A^2 < rank A, so A has no A#."""
    while True:
        p = _rational(rng, n, n)
        p_inv = inverse(p)
        if p_inv is not None:
            break
    zero = Fraction(0)
    j = [[zero, Fraction(1)] + [zero] * (n - 2), [zero] * n]
    j += [[zero, zero] + row for row in _rational(rng, n - 2, n - 2).data]
    return p @ RationalMatrix(n, n, j) @ p_inv


def _square_cases(rng):
    """Seeded square matrices of order 1-6: integer draws (mostly
    invertible), F G products of every rank below the order, and index-2
    matrices."""
    for n in range(1, 7):
        for _ in range(15):
            yield rand_int_matrix(rng, n, n)
            for r in range(n):
                yield _product(rng, n, r, n)
            if n >= 2:
                yield _index_two(rng, n)


class TestIntegerPathsAgainstFractionChains:
    def test_moore_penrose_and_group_inverse_match_the_oracles(self):
        rng = random.Random(27)
        seen = set()
        for a in _square_cases(rng):
            assert moore_penrose(a) == moore_penrose_reference(a)
            got, want = group_inverse(a), group_inverse_reference(a)
            assert got.exists == want.exists and got.inverse == want.inverse
            seen.add((a.rows, rank(a), got.exists))
        for n in range(1, 7):
            assert (n, n, True) in seen and all((n, r, True) in seen for r in range(n))
            if n >= 2:
                assert any((n, r, False) in seen for r in range(1, n))

    def test_rectangular_moore_penrose_matches_the_oracle(self):
        rng = random.Random(28)
        ranks = set()
        for rows in range(1, 6):
            for cols in range(1, 6):
                if rows == cols:
                    continue
                for r in range(min(rows, cols) + 1):
                    for _ in range(4):
                        a = _product(rng, rows, r, cols)
                        assert moore_penrose(a) == moore_penrose_reference(a)
                        ranks.add((rows, cols, rank(a)))
        assert all((rows, cols, r) in ranks for rows in range(1, 6) for cols in range(1, 6)
                   if rows != cols for r in range(min(rows, cols) + 1))

    def test_no_fraction_matrix_product(self, monkeypatch):
        rng = random.Random(29)
        squares = list(_square_cases(rng))
        rectangles = [_product(rng, rows, r, cols) for rows, cols in ((2, 5), (5, 3), (4, 1))
                      for r in range(min(rows, cols) + 1)]
        products = [0]
        real_matmul = RationalMatrix.__matmul__

        def counting_matmul(self, other):
            products[0] += 1
            return real_matmul(self, other)

        monkeypatch.setattr(RationalMatrix, "__matmul__", counting_matmul)
        for a in squares:
            moore_penrose(a)
            group_inverse(a)
        for a in rectangles:
            moore_penrose(a)
        assert products[0] == 0


def _corrupt_det_adj(real):
    """_det_adj with one entry of each adjugate off by one."""
    def corrupted(rows, idx):
        entry = real(rows, idx)
        if entry is None:
            return None
        det, adj = entry
        adj = [row[:] for row in adj]
        adj[0][0] += 1
        return det, adj
    return corrupted


INVERTIBLE = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
SINGULAR = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]  # rank 2, group invertible
RECTANGULAR = [[1, 2, 3], [2, 4, 6]]  # rank 1

# (module whose _det_adj the path calls, input, computation), per path
CHECKED_PATHS = {
    "inverse_as_moore_penrose": (matrix, INVERTIBLE, moore_penrose),
    "inverse_as_group_inverse": (matrix, INVERTIBLE, group_inverse),
    "singular_moore_penrose": (geninv, SINGULAR, moore_penrose),
    "rectangular_moore_penrose": (geninv, RECTANGULAR, moore_penrose),
    "singular_group_inverse": (geninv, SINGULAR, group_inverse),
}


# For A = diag(1, 0), whose factorization has alpha = gamma = det = 1, an
# X that breaks exactly one defining equation: (X, computation, equation)
ONE_EQUATION_BROKEN = {
    "penrose_axa": ([[0, 0], [0, 0]], moore_penrose, 0),
    "penrose_xax": ([[1, 0], [0, 1]], moore_penrose, 1),
    "penrose_ax_symmetric": ([[1, 1], [0, 0]], moore_penrose, 2),
    "penrose_xa_symmetric": ([[1, 0], [1, 0]], moore_penrose, 3),
    "group_axa": ([[0, 0], [0, 0]], group_inverse, 0),
    "group_xax": ([[1, 0], [0, 1]], group_inverse, 1),
    "group_commute": ([[1, 1], [0, 0]], group_inverse, 2),
}


def _equations(a, x, group):
    ax, xa = a @ x, x @ a
    last = [ax == xa] if group else [ax == ax.transpose(), xa == xa.transpose()]
    return [ax @ a == a, xa @ x == x] + last


class TestIntegerSelfChecksBite:
    """Each path's integer check rejects a result built from a corrupted
    adjugate or product; the same calls succeed uncorrupted."""

    @pytest.mark.parametrize("path", CHECKED_PATHS)
    def test_uncorrupted_path_passes(self, path):
        _, rows, compute = CHECKED_PATHS[path]
        a = RationalMatrix.from_rows(rows)
        result = compute(a)
        if compute is group_inverse:
            assert result.exists
            assert group_equations_hold(a, result.inverse)
        else:
            assert penrose_holds(a, result)

    @pytest.mark.parametrize("path", CHECKED_PATHS)
    def test_corrupted_adjugate_raises(self, monkeypatch, path):
        module, rows, compute = CHECKED_PATHS[path]
        monkeypatch.setattr(module, "_det_adj", _corrupt_det_adj(module._det_adj))
        with pytest.raises(ArithmeticError):
            compute(RationalMatrix.from_rows(rows))

    def test_corrupted_product_raises(self, monkeypatch):
        """A wrong integer product P = F_i^T B G_i^T, one entry off."""
        real_mul = geninv._mul
        calls = [0]

        def mul(x, y):
            out = real_mul(x, y)
            calls[0] += 1
            if calls[0] == 2:  # (F_i^T B) G_i^T
                out[0][0] += 1
            return out

        monkeypatch.setattr(geninv, "_mul", mul)
        with pytest.raises(ArithmeticError):
            moore_penrose(RationalMatrix.from_rows(SINGULAR))

    @pytest.mark.parametrize("case", ONE_EQUATION_BROKEN)
    def test_each_equation_is_checked(self, monkeypatch, case):
        """Every equation of the integer check is needed: an X that breaks
        only that one is rejected."""
        x, compute, broken = ONE_EQUATION_BROKEN[case]
        a = RationalMatrix.from_rows([[1, 0], [0, 0]])
        held = _equations(a, RationalMatrix.from_rows(x), compute is group_inverse)
        assert [i for i, ok in enumerate(held) if not ok] == [broken]
        real_checked = geninv._checked

        def checked(b, xi, alpha, delta, what, commute):
            assert (alpha, delta) == (1, 1)
            return real_checked(b, x, alpha, delta, what, commute)

        monkeypatch.setattr(geninv, "_checked", checked)
        with pytest.raises(ArithmeticError):
            compute(a)


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

    def test_range_symmetric_matches_subspace_equality_at_every_rank(self):
        """Against Subspace.equals' rank tests on the stored bases, at every
        rank r of orders 1-5: products F G (rarely range-symmetric) and
        F C F^T, whose range and row space are both R(F) when C is
        invertible."""
        rng = random.Random(19)

        def rational(rows, cols):
            return RationalMatrix(rows, cols, [[Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))
                                                for _ in range(cols)] for _ in range(rows)])

        answers = {True: set(), False: set()}
        for n in range(1, 6):
            for r in range(n + 1):
                for _ in range(10):
                    f = rational(n, r)
                    for a in (f @ rational(r, n), f @ rational(r, r) @ f.transpose()):
                        bases = subspace_bases(a)
                        want = bases.row.equals(bases.range)
                        assert is_range_symmetric(a) == want
                        answers[want].add((n, rank(a)))
        assert all((n, r) in answers[True] for n in range(1, 6) for r in range(n + 1))
        assert all((n, r) in answers[False] for n in range(2, 6) for r in range(1, n))

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
