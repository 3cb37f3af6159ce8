import itertools
import random
from fractions import Fraction

import pytest

from karalcp import matrix, minor_classes
from karalcp.errors import TooLargeError
from karalcp.lcp import YES
from karalcp.lcp import is_q_matrix
from karalcp.lcp_classes import is_p_hash
from karalcp.lp import LinearSystem, lp_feasible
from karalcp.matrix import (
    RationalMatrix,
    common_rows,
    determinant,
    integer_row,
    inverse,
    nonempty_subsets,
    rank,
    vec,
)
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
from oracles import det_cofactor, det_fraction, minor_class_fraction


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


# Positive row scalings with unlike denominators, so the rows' own
# multipliers (`integer_row`) differ from 1 and from one another.
ROW_SCALES = [Fraction(1, 2), Fraction(2, 3), Fraction(5, 4), Fraction(3, 7), Fraction(1), Fraction(7, 5)]


def _row_scaled(rng, m):
    return RationalMatrix(m.rows, m.cols, [[x * s for x in row] for row, s in
                                           zip(m.data, rng.sample(ROW_SCALES, m.rows))])


def _rational(rng, rows, cols):
    return RationalMatrix(rows, cols, [[Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
                                        for _ in range(cols)] for _ in range(rows)])


def _minor_cases(rng, n):
    """Random p/q matrices, and row-scaled P0 matrices of every rank below
    n: Gram matrices B B^T (positive semidefinite) plus, for half of them,
    a skew-symmetric part, which keeps x^T A x >= 0, and, from order 2,
    u v^T and v u^T with v > 0 and u >= 0 holding a zero and a nonzero:
    where u_i = 0, the vanishing minor {i} has a zero row and a nonzero
    column in one of them and the reverse in the other, so that each
    test alone decides adequacy."""
    for _ in range(4):
        yield _row_scaled(rng, _rational(rng, n, n))
    if n > 1:
        u = [[Fraction(rng.randint(1, 3), rng.choice([1, 3]))] for _ in range(n)]
        u[rng.randrange(n)] = [Fraction(0)]
        v = [[Fraction(rng.randint(1, 3), rng.choice([1, 2]))] for _ in range(n)]
        uv = RationalMatrix(n, 1, u) @ RationalMatrix(n, 1, v).transpose()
        yield _row_scaled(rng, uv)
        yield _row_scaled(rng, uv.transpose())
    for r in range(n):
        b = _rational(rng, n, r) if r else RationalMatrix.zeros(n, 1)
        gram = b @ b.transpose()
        yield _row_scaled(rng, gram)
        skew = _rational(rng, n, n)
        yield _row_scaled(rng, gram + skew - skew.transpose())


class TestMinorScanAgainstFractionOracle:
    def test_flags_and_determinants_match_fraction_oracles(self):
        """All five flags against Fraction determinants and ranks, and
        determinant against two Fraction oracles on every principal
        submatrix, at orders 1-6, for Fraction-built matrices and for
        matrices built from ints (which carry their integer rows from
        construction).  The scans eliminate copies of the cached
        `common_rows`, so those are unchanged after determinant,
        minor_class and is_p_hash."""
        rng = random.Random(19)
        p0_with_vanishing = adequate = 0
        for n in range(1, 7):
            int_built = [RationalMatrix.from_ints([[rng.randint(-3, 3) for _ in range(n)]
                                                   for _ in range(n)]) for _ in range(3)]
            for a in [*_minor_cases(rng, n), *int_built]:
                alpha, b = common_rows(a)
                snapshot = (alpha, [list(row) for row in b])
                got = minor_class(a)
                want = minor_class_fraction(a)
                assert (got.is_p, got.is_p0, got.is_n, got.n_first_category,
                        got.is_adequate) == want
                assert determinant(a) == det_fraction(a)
                is_p_hash(a)
                assert common_rows(a) == snapshot
                assert [[Fraction(t, alpha) for t in row] for row in b] == a.data
                for idx in nonempty_subsets(n):
                    sub = a.submatrix(idx, idx)
                    assert determinant(sub) == det_fraction(sub) == det_cofactor(sub)
                if got.is_p0 and not got.is_p:
                    p0_with_vanishing += 1
                    adequate += got.is_adequate
        assert 0 < adequate < p0_with_vanishing

    def test_scan_calls_no_determinant_and_builds_no_matrix(self, monkeypatch):
        """Order 5, fresh matrices: a row-scaled P-matrix (all 31 minors
        scanned) and a rank-3 Gram matrix (P0, so the adequacy ranks run)."""
        rng = random.Random(5)
        p = rand_p_matrix(rng, 5)
        cases = [_row_scaled(rng, RationalMatrix.from_rows(p.data))]
        b = _rational(rng, 5, 3)
        cases.append(_row_scaled(rng, b @ b.transpose()))
        built, dets = [], []
        init, det = RationalMatrix.__init__, matrix.determinant

        def counting_init(self, *args):
            built.append(args[:2])
            init(self, *args)

        def counting_det(m):
            dets.append(m.rows)
            return det(m)

        monkeypatch.setattr(RationalMatrix, "__init__", counting_init)
        monkeypatch.setattr(matrix, "determinant", counting_det)
        monkeypatch.setattr(minor_classes, "determinant", counting_det, raising=False)
        reports = [minor_class(a) for a in cases]
        assert not built and not dets
        assert reports[0].is_p
        assert reports[1].is_p0 and not reports[1].is_p and reports[1].is_adequate


class TestDiagonalMinors:
    """minor_class reads each 1x1 minor's sign off the diagonal of the
    row-scaled integer rows and eliminates only blocks of order 2 or more."""

    DIAGONAL = [Fraction(0), Fraction(-2), Fraction(-1, 3), Fraction(1, 2), Fraction(5, 7), Fraction(3)]

    def _cases(self, rng, n):
        for _ in range(12):
            m = _rational(rng, n, n)
            for i in range(n):
                m.data[i][i] = rng.choice(self.DIAGONAL)
            yield _row_scaled(rng, m)
        # strictly diagonally dominant with a fractional diagonal of either
        # sign: P when it is positive, and every 1x1 minor negative otherwise
        for sign in (1, -1):
            m = _rational(rng, n, n)
            for i in range(n):
                m.data[i][i] = sign * (n + Fraction(rng.randint(1, 5), 7))
            yield _row_scaled(rng, m)

    def test_matches_fraction_oracle(self):
        rng = random.Random(20)
        seen = dict.fromkeys(("p", "p0_not_p", "n", "zero_diagonal", "scaled"), 0)
        for n in range(1, 6):
            for a in self._cases(rng, n):
                got = minor_class(a)
                want = minor_class_fraction(a)
                assert (got.is_p, got.is_p0, got.is_n, got.n_first_category,
                        got.is_adequate) == want
                seen["p"] += got.is_p
                seen["p0_not_p"] += got.is_p0 and not got.is_p
                seen["n"] += got.is_n
                seen["zero_diagonal"] += any(a.data[i][i] == 0 for i in range(n))
                seen["scaled"] += any(integer_row(row)[1] != 1 for row in a.data)
        assert all(seen.values()), seen

    def test_no_1x1_block_is_eliminated(self, monkeypatch):
        """Fresh order-4 matrices: a P-matrix, whose scan visits all 15
        minors, and a P0 matrix with a zero diagonal entry, whose adequacy
        test eliminates its row and column blocks.  Every elimination reads
        only a rank or a determinant, so every one runs forward only."""
        shapes = []
        eliminate = minor_classes._eliminate

        def counting_eliminate(rows, ncols, *, reduced=True):
            assert not reduced
            shapes.append((len(rows), ncols))
            return eliminate(rows, ncols, reduced=reduced)

        monkeypatch.setattr(minor_classes, "_eliminate", counting_eliminate)
        p = RationalMatrix.from_rows([[4, 1, -1, 0], [1, "9/2", 0, 2], [0, -1, 5, 1],
                                      [1, 0, "1/3", 3]])
        assert minor_class(p).is_p
        assert sorted(shapes) == sorted([(k, k) for k in (2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 4)])
        shapes.clear()
        p0 = RationalMatrix.from_ints([[0, 0, 0, 0], [0, 2, 1, 0], [0, 1, 2, 0], [0, 0, 0, 1]])
        report = minor_class(p0)
        assert report.is_p0 and not report.is_p and report.is_adequate
        assert shapes and (1, 1) not in shapes


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
