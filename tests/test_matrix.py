import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from karalcp import matrix
from karalcp.conelcp import cone_K
from karalcp.errors import BadIndexSetError, DimensionMismatchError, NonSquareError, TooLargeError
from karalcp.matrix import (
    ENUMERATION_CAP,
    RationalMatrix,
    determinant,
    common_rows,
    full_rank_factorization,
    inverse,
    memoized,
    principal_minor,
    rank,
    rref,
    solve_linear,
    subspace_bases,
    vec,
)
from conftest import rand_matrix
from oracles import (det_cofactor, det_fraction, inverse_fraction, matmul_fraction,
                     rref_fraction, solve_linear_fraction)

fractions_st = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


def square_matrices(max_n=4):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.lists(fractions_st, min_size=n, max_size=n),
                           min_size=n, max_size=n).map(RationalMatrix.from_rows))


# Zeros often, "p/q" entries with non-unit denominators, both signs.
kernel_entries_st = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3, 4, 7])))


def _draw_matrix(draw, rows, cols):
    return RationalMatrix(rows, cols, [[draw(kernel_entries_st) for _ in range(cols)]
                                       for _ in range(rows)])


@st.composite
def kernel_matrices(draw, square=False, rows=None):
    """Any shape up to 5x5 (or with the given row count), k x 0 and 0 x k
    included; half of them rank deficient by construction (F @ G through
    an inner dimension k), some with one row or column zeroed."""
    if rows is None:
        rows = draw(st.integers(0, 5))
    cols = rows if square else draw(st.integers(0, 5))
    if draw(st.booleans()):
        k = draw(st.integers(0, min(rows, cols)))
        m = _draw_matrix(draw, rows, k) @ _draw_matrix(draw, k, cols)
    else:
        m = _draw_matrix(draw, rows, cols)
    data = [row[:] for row in m.data]
    if rows and cols and draw(st.booleans()):
        if draw(st.booleans()):
            data[draw(st.integers(0, rows - 1))] = [Fraction(0)] * cols
        else:
            j = draw(st.integers(0, cols - 1))
            for row in data:
                row[j] = Fraction(0)
    return RationalMatrix(rows, cols, data)


def assert_identical(got: RationalMatrix, want: RationalMatrix):
    """Equal, and every entry a Fraction, as the oracle's are."""
    assert got == want
    assert all(type(x) is Fraction for row in got.data for x in row)


M3 = RationalMatrix.from_rows([[0, -1, -2], [0, 1, 2], [1, 1, 1]])


class TestRref:
    def test_identity(self):
        r = rref(RationalMatrix.identity(3))
        assert r.matrix == RationalMatrix.identity(3)
        assert r.rank == 3
        assert r.pivots == (0, 1, 2)

    def test_all_ones_rank_one(self):
        assert rref(RationalMatrix.from_rows([[1, 1, 1]] * 3)).rank == 1

    def test_hand_elimination(self):
        # row-reduce [[0,-1,-2],[0,1,2],[1,1,1]] by hand: two pivots survive
        assert rref(M3).rank == 2


class TestDeterminant:
    def test_identity(self):
        for n in range(1, 5):
            assert determinant(RationalMatrix.identity(n)) == 1

    def test_2x2_cofactor(self):
        assert determinant(RationalMatrix.from_rows([[-1, 2], [1, -1]])) == -1

    def test_invertible_m_base(self):
        assert determinant(RationalMatrix.from_rows([[1, -1], [-1, 2]])) == 1

    def test_rejects_rectangular(self):
        with pytest.raises(NonSquareError):
            determinant(RationalMatrix.zeros(2, 3))

    @settings(max_examples=60, deadline=None)
    @given(square_matrices())
    def test_matches_cofactor_expansion(self, m):
        assert determinant(m) == det_cofactor(m)


class TestPrincipalMinor:
    def test_singleton(self):
        assert principal_minor(M3, [1]) == 1

    def test_trailing_2x2_is_negative(self):
        assert principal_minor(M3, [1, 2]) == -1

    def test_vanishing_block(self):
        b = RationalMatrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 1, 0]])
        assert principal_minor(b, [0, 1]) == 0

    def test_full_set_equals_determinant(self):
        assert principal_minor(M3, [0, 1, 2]) == determinant(M3)

    def test_bad_index_set(self):
        with pytest.raises(BadIndexSetError):
            principal_minor(M3, [])
        with pytest.raises(BadIndexSetError):
            principal_minor(M3, [3])


class TestSubspaces:
    def test_identity_null_empty(self):
        assert subspace_bases(RationalMatrix.identity(3)).null.dim == 0

    def test_block_z_range(self):
        a = RationalMatrix.from_rows([[1, -1, 0], [-1, 1, 0], [0, 0, 1]])
        rng = subspace_bases(a).range
        assert rng.dim == 2
        assert rng.contains(vec([1, -1, 0]))
        assert rng.contains(vec([0, 0, 1]))
        assert not rng.contains(vec([1, 0, 0]))

    def test_shift_matrix_range_equals_null(self):
        a = RationalMatrix.from_rows([[0, 1], [0, 0]])
        bases = subspace_bases(a)
        assert bases.range.basis == ((Fraction(1), Fraction(0)),)
        assert bases.null.basis == ((Fraction(1), Fraction(0)),)

    @settings(max_examples=60, deadline=None)
    @given(square_matrices())
    def test_rank_dimension_identities(self, m):
        bases = subspace_bases(m)
        r = rank(m)
        assert bases.range.dim == r == bases.row.dim
        assert bases.range.dim + bases.null.dim == m.cols
        assert bases.row.dim + bases.left_null.dim == m.rows

    @settings(max_examples=60, deadline=None)
    @given(square_matrices())
    def test_det_nonzero_iff_trivial_null(self, m):
        assert (determinant(m) != 0) == (subspace_bases(m).null.dim == 0)


class TestFullRankFactorization:
    def test_identity(self):
        f, g = full_rank_factorization(RationalMatrix.identity(3))
        assert f == RationalMatrix.identity(3) and g == RationalMatrix.identity(3)

    def test_all_ones_2x2(self):
        f, g = full_rank_factorization(RationalMatrix.from_rows([[1, 1], [1, 1]]))
        assert f.cols == 1 and g.rows == 1
        assert f @ g == RationalMatrix.from_rows([[1, 1], [1, 1]])

    def test_rank_two_reproduces(self):
        a = RationalMatrix.from_rows([[1, 1, 1], [0, 1, 1], [0, 0, 0]])
        f, g = full_rank_factorization(a)
        assert f.cols == 2
        assert f @ g == a

    def test_zero_matrix_empty_factors(self):
        a = RationalMatrix.zeros(3, 3)
        f, g = full_rank_factorization(a)
        assert f.cols == 0 and g.rows == 0
        assert f @ g == a

    def test_thousand_random_reproduce(self):
        rng = random.Random(0)
        for _ in range(1000):
            n = rng.randint(1, 6)
            m = rand_matrix(rng, n)
            f, g = full_rank_factorization(m)
            assert f @ g == m
            assert f.cols == rank(m)


class TestSolveLinear:
    def test_identity(self):
        sol = solve_linear(RationalMatrix.identity(3), vec([5, -2, 7]))
        assert sol.particular == vec([5, -2, 7]) and sol.null_basis == ()

    def test_outside_range(self):
        assert solve_linear(RationalMatrix.from_rows([[0, 1], [0, 0]]), vec([0, 1])) is None

    def test_underdetermined(self):
        sol = solve_linear(RationalMatrix.from_rows([[1, 1], [1, 1]]), vec([2, 2]))
        x = sol.particular
        assert x[0] + x[1] == 2
        assert len(sol.null_basis) == 1
        v = sol.null_basis[0]
        assert v[0] + v[1] == 0 and v != (0, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            solve_linear(RationalMatrix.identity(2), vec([1, 2, 3]))

    @settings(max_examples=60, deadline=None)
    @given(square_matrices(), st.integers(0, 10_000))
    def test_solutions_substitute_back(self, m, seed):
        rng = random.Random(seed)
        x = tuple(Fraction(rng.randint(-4, 4)) for _ in range(m.cols))
        b = m.mul_vec(x)
        sol = solve_linear(m, b)
        assert sol is not None
        assert m.mul_vec(sol.particular) == b
        for v in sol.null_basis:
            assert m.mul_vec(v) == tuple([Fraction(0)] * m.rows)


class TestInverse:
    @settings(max_examples=60, deadline=None)
    @given(square_matrices())
    def test_inverse_is_two_sided(self, m):
        inv = inverse(m)
        if determinant(m) == 0:
            assert inv is None
        else:
            eye = RationalMatrix.identity(m.rows)
            assert m @ inv == eye and inv @ m == eye


class TestMemoized:
    """The one per-matrix memo: a result, None included, is computed once
    per key, and a call that raises leaves no entry, so it raises again."""

    def test_keys_and_signature(self):
        calls = []

        @memoized("toy")
        def toy(m, *args):
            """A toy."""
            calls.append(args)
            return len(calls)

        a = RationalMatrix.identity(2)
        assert toy(a) == toy(a) == 1 and a._cache["toy"] == 1
        assert toy(a, 3, (4,)) == toy(a, 3, (4,)) == 2 and a._cache[("toy", 3, (4,))] == 2
        assert calls == [(), (3, (4,))]
        assert toy.__name__ == "toy" and toy.__doc__ == "A toy."
        assert str(inspect.signature(toy)) == "(m, *args)"

    def test_none_is_computed_once(self, monkeypatch):
        factored = []
        det_adj = matrix._det_adj
        monkeypatch.setattr(matrix, "_det_adj", lambda rows, idx: factored.append(idx)
                            or det_adj(rows, idx))
        a = RationalMatrix.from_rows([[1, 2], [2, 4]])
        assert inverse(a) is None and inverse(a) is None
        assert len(factored) == 1 and a._cache["inv"] is None

    @pytest.mark.parametrize("a, error", [(RationalMatrix.zeros(2, 3), NonSquareError),
                                          (RationalMatrix.identity(ENUMERATION_CAP + 1),
                                           TooLargeError)])
    def test_a_raising_call_caches_nothing(self, a, error):
        for _ in range(2):
            with pytest.raises(error):
                cone_K(a)
        assert "coneK" not in a._cache


class TestKernelAgainstFractionOracle:
    """The integer kernel must reproduce Fraction Gauss-Jordan exactly."""

    @seed(0)
    @settings(max_examples=200, deadline=None)
    @given(kernel_matrices())
    def test_rref(self, m):
        got, want = rref(m), rref_fraction(m)
        assert_identical(got.matrix, want.matrix)
        assert (got.rank, got.pivots) == (want.rank, want.pivots)

    @seed(1)
    @settings(max_examples=200, deadline=None)
    @given(kernel_matrices(square=True))
    def test_determinant(self, m):
        got = determinant(m)
        assert type(got) is Fraction and got == det_fraction(m)

    @seed(2)
    @settings(max_examples=200, deadline=None)
    @given(kernel_matrices(square=True))
    def test_inverse(self, m):
        got, want = inverse(m), inverse_fraction(m)
        if want is None:
            assert got is None
        else:
            assert_identical(got, want)

    @seed(4)
    @settings(max_examples=200, deadline=None)
    @given(kernel_matrices(), st.data())
    def test_matmul(self, a, data):
        b = data.draw(kernel_matrices(rows=a.cols))
        assert_identical(a @ b, matmul_fraction(a, b))

    @pytest.mark.parametrize("n, k, m", [(3, 0, 2), (1, 0, 1), (2, 0, 0), (0, 2, 3), (0, 1, 1),
                                         (0, 0, 2)])
    def test_matmul_with_an_empty_dimension(self, n, k, m):
        """n x k @ k x m with n or k zero, p/q entries elsewhere: an n x 0
        by 0 x m product is the n x m zero matrix, and a 0 x k factor gives
        0 x m, each with the product's shape."""
        rng = random.Random(33)
        a, b = (RationalMatrix(r, c, [[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                       for _ in range(c)] for _ in range(r)])
                for r, c in ((n, k), (k, m)))
        got = a @ b
        assert (got.rows, got.cols) == (n, m)
        assert_identical(got, matmul_fraction(a, b))
        assert got == RationalMatrix.zeros(n, m)

    @seed(3)
    @settings(max_examples=200, deadline=None)
    @given(kernel_matrices(), st.data())
    def test_solve_linear(self, m, data):
        if data.draw(st.booleans()):
            b = m.mul_vec([data.draw(kernel_entries_st) for _ in range(m.cols)])
        else:
            b = tuple(data.draw(kernel_entries_st) for _ in range(m.rows))
        got, want = solve_linear(m, b), solve_linear_fraction(m, b)
        if want is None:
            assert got is None
        else:
            assert got == want
            for v in (got.particular, *got.null_basis):
                assert all(type(x) is Fraction for x in v)


class TestBasisIndependence:
    @settings(max_examples=40, deadline=None)
    @given(square_matrices())
    def test_all_bases_are_linearly_independent(self, m):
        bases = subspace_bases(m)
        for space in (bases.range, bases.null, bases.row, bases.left_null):
            if space.basis:
                stacked = RationalMatrix.from_rows(space.basis)
                assert rank(stacked) == len(space.basis)


class TestFromInts:
    """from_ints against from_rows: the same entries, all Fractions, and the
    same integer rows, which from_ints caches from its input."""

    CASES = [
        [[0]],
        [[3, -2, 0], [0, 0, 7]],
        [[64, -64, 65], [-65, 10 ** 30, -(2 ** 255)], [0, 1, -1]],
        [[5], [-1000], [10 ** 30]],
        [],
    ]

    @pytest.mark.parametrize("rows", CASES)
    def test_matches_from_rows(self, rows):
        got, want = RationalMatrix.from_ints(rows), RationalMatrix.from_rows(rows)
        assert (got.rows, got.cols) == (want.rows, want.cols)
        assert got.data == want.data
        assert all(type(x) is Fraction for row in got.data for x in row)
        assert "common_rows" in got._cache
        assert common_rows(got) == common_rows(want) == (1, [list(r) for r in rows])

    def test_random_rows_match_from_rows(self):
        rng = random.Random(20)
        for _ in range(200):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            bound = rng.choice([1, 3, 100, 2 ** 70])
            rows = [[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)]
            got = RationalMatrix.from_ints(rows)
            assert got == RationalMatrix.from_rows(rows)
            assert common_rows(got) == (1, rows)
            if r == c:
                assert determinant(got) == det_fraction(RationalMatrix.from_rows(rows))

    def test_equal_values_share_one_fraction(self):
        """Also for values outside the shared small-int table; tuple rows
        are cached as lists, like common_rows'."""
        rows = [(2, 10 ** 30, 2, 0), (10 ** 30, 2, 0, -7)]
        m = RationalMatrix.from_ints(rows)
        assert m.data[0][0] is m.data[0][2] is m.data[1][1]
        assert m.data[0][1] is m.data[1][0]
        assert m.data[0][3] is m.data[1][2]
        assert common_rows(m) == (1, [[2, 10 ** 30, 2, 0], [10 ** 30, 2, 0, -7]])
        assert all(type(row) is list for row in common_rows(m)[1])


class TestExactCoercion:
    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            vec([0.5, 1])

    def test_strings_parse_exactly(self):
        assert vec(["0.125", "3/7"]) == (Fraction(1, 8), Fraction(3, 7))


class TestJsonFormat:
    def test_round_trip_with_strings(self):
        obj = {"rows": 2, "cols": 2, "entries": [[1, "1/3"], ["-0.25", 0]]}
        m = RationalMatrix.from_json(obj)
        assert m.data[0][1] == Fraction(1, 3)
        assert m.data[1][0] == Fraction(-1, 4)
        again = RationalMatrix.from_json(m.to_json())
        assert again == m

    def test_error_names_field(self):
        with pytest.raises(ValueError, match="entries"):
            RationalMatrix.from_json({"rows": 1, "cols": 2, "entries": [[1]]})
        with pytest.raises(ValueError, match="rows"):
            RationalMatrix.from_json({"cols": 2, "entries": []})
