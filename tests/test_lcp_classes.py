import random
from fractions import Fraction

import pytest

from karalcp import lcp_classes
from karalcp.conelcp import cone_K
from karalcp.errors import EmptyConeError, TooLargeError
from karalcp.geninv import generalized_idempotent_scalar, group_inverse
from karalcp.lcp_classes import (
    ConeRep,
    CopositivityStatus,
    copositivity_on_cone,
    is_almost_semimonotone,
    is_p_hash,
    is_semimonotone,
    is_semipositive,
    is_strictly_copositive,
    is_strictly_range_semimonotone,
    is_strictly_semimonotone,
    is_weakly_semipositive,
)
from karalcp.lp import LinearSystem, lp_feasible
from karalcp.matrix import RationalMatrix, inverse, rank
from karalcp.minor_classes import has_property_c, minor_class
from karalcp.monotone import is_range_monotone
from oracles import copositivity_kkt_reference
from conftest import (
    rand_group_invertible,
    rand_int_matrix,
    rand_nonzero_vector,
    rand_p_matrix,
    rand_symmetric_z_matrix,
    rand_z_matrix,
)

M3 = RationalMatrix.from_rows([[0, -1, -2], [0, 1, 2], [1, 1, 1]])
M1 = RationalMatrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 1, 0]])


class TestSemipositive:
    def test_identity(self):
        eye = RationalMatrix.identity(3)
        assert is_semipositive(eye) and is_weakly_semipositive(eye)

    def test_negated_identity(self):
        neg = RationalMatrix.identity(3).scale(-1)
        assert not is_semipositive(neg) and not is_weakly_semipositive(neg)

    def test_weak_but_not_strict(self):
        a = RationalMatrix.from_rows([[0, 0], [0, 1]])
        assert is_weakly_semipositive(a)
        assert not is_semipositive(a)

    def test_positive_column_matrix_is_semipositive(self):
        # (1,1) > 0 maps to (1,1) > 0, so this is semipositive outright
        assert is_semipositive(RationalMatrix.from_rows([[0, 1], [0, 1]]))

    def test_rectangular_allowed(self):
        assert is_semipositive(RationalMatrix.from_rows([[1, 0, 0], [0, 1, 1]]))


class TestSemimonotone:
    def test_singular_pair(self):
        a = RationalMatrix.from_rows([[0, -1], [0, 1]])
        assert is_semimonotone(a) and not is_strictly_semimonotone(a)

    def test_nonsingular_pair(self):
        d = RationalMatrix.from_rows([[0, 1], [-1, 1]])
        assert is_semimonotone(d) and not is_strictly_semimonotone(d)

    def test_positive_is_strict(self):
        rng = random.Random(0)
        for _ in range(20):
            n = rng.randint(1, 3)
            a = RationalMatrix(n, n, [[Fraction(rng.randint(1, 5)) for _ in range(n)]
                                      for _ in range(n)])
            assert is_strictly_semimonotone(a)

    def test_each_principal_lp_runs_once_per_matrix(self, monkeypatch):
        # A positive 4x4 passes every test, so each scan visits all 15
        # supports.  Supports that restrict to the same system share one LP:
        # {0} and {1} (equal diagonals), {2} and {3}, and {0, 2} and {1, 3}.
        # That leaves 12 weak and 12 strict LPs, and a repeat is free.
        calls = []
        real = lcp_classes.lp_feasible
        monkeypatch.setattr(lcp_classes, "lp_feasible", lambda s: calls.append(s) or real(s))
        a = RationalMatrix.from_rows([[1, 2, 1, 3], [2, 1, 1, 1], [1, 3, 2, 1], [1, 1, 1, 2]])
        for _ in range(2):
            assert is_semimonotone(a) and not is_almost_semimonotone(a)
            assert is_strictly_semimonotone(a)
            assert len(calls) == 24
        # the memo lives on the matrix: a fresh copy solves them again
        fresh = RationalMatrix.from_rows(a.data)
        assert is_semimonotone(fresh) and is_strictly_semimonotone(fresh)
        assert len(calls) == 48

    def test_p_matrices_are_strictly_semimonotone(self):
        rng = random.Random(1)
        for _ in range(20):
            p = rand_p_matrix(rng, rng.randint(2, 3))
            assert is_strictly_semimonotone(p)
            assert is_semimonotone(p)

    def test_strict_implies_plain(self):
        rng = random.Random(2)
        for _ in range(60):
            a = rand_int_matrix(rng, 3, 3)
            if is_strictly_semimonotone(a):
                assert is_semimonotone(a)

    def test_cap(self):
        with pytest.raises(TooLargeError):
            is_semimonotone(RationalMatrix.identity(13))


class TestAlmostSemimonotone:
    def test_vacuous_1x1(self):
        assert is_almost_semimonotone(RationalMatrix.from_rows([[-1]]))
        assert not is_almost_semimonotone(RationalMatrix.from_rows([[1]]))

    def test_semimonotone_is_never_almost(self):
        assert not is_almost_semimonotone(RationalMatrix.from_rows([[0, -1], [0, 1]]))

    def test_hits_have_nonpositive_inverse(self):
        rng = random.Random(3)
        hits = 0
        for _ in range(400):
            a = rand_int_matrix(rng, 2, 2)
            if is_almost_semimonotone(a):
                hits += 1
                inv = inverse(a)
                assert inv is not None
                assert all(x <= 0 for row in inv.data for x in row)
        assert hits > 0


class TestPHash:
    @pytest.mark.parametrize("rows,expected", [
        ([[0, -1, -2], [0, 1, 2], [1, 1, 1]], True),
        ([[1, 1, 0], [1, 1, 0], [0, 1, 0]], False),
        ([[0, 0, 1], [-1, 1, 1], [-2, 2, 1]], False),
        ([[2, 1], [-2, -1]], True),
        ([[1, 1, 1], [0, 1, 1], [0, 0, 0]], True),
        ([[0, -1], [0, 0]], False),
        ([[1, -1, -1], [-1, 2, -1], [-1, -1, 5]], True),
        ([[1, -1, -1], [-2, 3, -1], [-1, -1, 7]], True),
        ([["2/3", "-1/3", "-1/3"], ["-1/3", "2/3", "-1/3"], ["-1/3", "-1/3", "2/3"]], True),
    ])
    def test_known_values(self, rows, expected):
        assert is_p_hash(RationalMatrix.from_rows(rows)) is expected

    def test_group_inverse_equivalence(self):
        rng = random.Random(4)
        for _ in range(80):
            a = rand_group_invertible(rng, rng.randint(1, 4))
            gi = group_inverse(a)
            assert is_p_hash(a) == is_p_hash(gi.inverse)

    def test_p_hash_implies_group_invertible(self):
        rng = random.Random(5)
        for _ in range(150):
            a = rand_int_matrix(rng, 3, 3)
            if is_p_hash(a):
                assert group_inverse(a).exists

    def test_invertible_p_hash_iff_p(self):
        rng = random.Random(6)
        for _ in range(80):
            a = rand_int_matrix(rng, 3, 3)
            if rank(a) == 3:
                assert is_p_hash(a) == minor_class(a).is_p

    def test_rank_one_iff_positive_inner_product(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 4)
            u, v = rand_nonzero_vector(rng, n), rand_nonzero_vector(rng, n)
            a = RationalMatrix(n, n, [[ui * vj for vj in v] for ui in u])
            inner = sum(ui * vi for ui, vi in zip(u, v))
            assert is_p_hash(a) == (inner > 0)

    def test_generalized_idempotent_with_positive_scalar(self):
        rng = random.Random(8)
        for _ in range(60):
            a = rand_group_invertible(rng, rng.randint(1, 3))
            proj = a @ group_inverse(a).inverse
            if proj.is_zero():
                continue
            scaled = proj.scale(Fraction(rng.randint(1, 4), rng.randint(1, 3)))
            alpha = generalized_idempotent_scalar(scaled)
            assert alpha is not None and alpha > 0
            assert is_p_hash(scaled)

    def test_z_p_hash_implies_property_c_and_range_monotone(self):
        rng = random.Random(9)
        for _ in range(120):
            z = rand_z_matrix(rng, rng.randint(2, 4))
            if is_p_hash(z):
                assert has_property_c(z)
                assert is_range_monotone(z)

    def test_group_invertible_adequate_implies_p_hash(self):
        rng = random.Random(10)
        for _ in range(80):
            n = rng.randint(2, 4)
            r = rand_int_matrix(rng, rng.randint(1, n), n)
            gram = r.transpose() @ r  # adequate and group invertible
            assert minor_class(gram).is_adequate
            assert is_p_hash(gram)


class TestStrictRangeSemimonotone:
    def test_laplacian_shift(self):
        a = RationalMatrix.from_rows(
            [["2/3", "-1/3", "-1/3"], ["-1/3", "2/3", "-1/3"], ["-1/3", "-1/3", "2/3"]])
        assert is_strictly_range_semimonotone(a)

    def test_bordered_m(self):
        b = RationalMatrix.from_rows([[1, -1, -1], [-1, 2, -1], [-1, -1, 5]])
        assert is_strictly_range_semimonotone(b)

    def test_negated_identity(self):
        assert not is_strictly_range_semimonotone(RationalMatrix.identity(2).scale(-1))

    def test_symmetric_z_equivalences(self):
        rng = random.Random(11)
        for _ in range(120):
            z = rand_symmetric_z_matrix(rng, rng.randint(2, 4))
            values = {has_property_c(z), is_range_monotone(z),
                      is_strictly_range_semimonotone(z), is_p_hash(z)}
            assert len(values) == 1


class TestCopositivity:
    def test_strict_on_nontrivial_k(self):
        a = RationalMatrix.from_rows([[1, -1, 0], [-1, 1, 0], [0, 0, 1]])
        cone = cone_K(a).cone
        result = copositivity_on_cone(a, cone)
        assert result.status is CopositivityStatus.STRICTLY_COPOSITIVE

    def test_zero_matrix_copositive_only(self):
        zero = RationalMatrix.zeros(2, 2)
        result = copositivity_on_cone(zero, ConeRep.nonnegative_orthant(2))
        assert result.status is CopositivityStatus.COPOSITIVE_ONLY

    def test_antidiagonal_on_orthant(self):
        a = RationalMatrix.from_rows([[0, 1], [1, 0]])
        result = copositivity_on_cone(a, ConeRep.nonnegative_orthant(2))
        assert result.status is CopositivityStatus.COPOSITIVE_ONLY
        assert result.witness == (Fraction(1), Fraction(0))

    def test_negative_direction_reported(self):
        a = RationalMatrix.from_rows([[-1, 0], [0, 1]])
        result = copositivity_on_cone(a, ConeRep.nonnegative_orthant(2))
        assert result.status is CopositivityStatus.NOT_COPOSITIVE
        x = result.witness
        value = sum(x[i] * sum(a.data[i][j] * x[j] for j in range(2)) for i in range(2))
        assert value < 0

    def test_empty_cone_rejected(self):
        with pytest.raises(EmptyConeError):
            copositivity_on_cone(RationalMatrix.identity(2), ConeRep(2, ()))

    def test_asymmetric_uses_symmetrized_form(self):
        rng = random.Random(12)
        for _ in range(40):
            a = rand_int_matrix(rng, 3, 3)
            sym = (a + a.transpose()).scale(Fraction(1, 2))
            ra = copositivity_on_cone(a, ConeRep.nonnegative_orthant(3))
            rs = copositivity_on_cone(sym, ConeRep.nonnegative_orthant(3))
            assert ra.status is rs.status and ra.minimum == rs.minimum

    def test_lcp_scans_match_kkt_face_enumeration(self):
        """Seeded asymmetric Q on orthants and on the cones K of square and
        rank-deficient matrices: status and minimum equal the KKT oracle's,
        the strictness predicate agrees, and each witness is a base point of
        the cone (a convex combination of its generators) where x^T Q x is
        the minimum."""
        rng = random.Random(21)
        seen = set()
        for trial in range(300):
            n = rng.randint(1, 5)
            if trial % 3 == 2:
                r = rng.randint(1, n)
                a = rand_int_matrix(rng, n, r) @ rand_int_matrix(rng, r, n)
            else:
                a = rand_int_matrix(rng, n, n)
            cone = ConeRep.nonnegative_orthant(n) if trial % 3 == 0 else cone_K(a).cone
            if not cone.generators:
                continue
            q = a if trial % 2 else rand_int_matrix(rng, n, n)
            got = copositivity_on_cone(q, cone)
            want = copositivity_kkt_reference(q, cone)
            assert (got.status, got.minimum) == (want.status, want.minimum), (q, cone)
            strict = got.status is CopositivityStatus.STRICTLY_COPOSITIVE
            assert is_strictly_copositive(q, cone) == strict
            seen.add(got.status)
            if strict:
                assert got.witness is None
                continue
            x = got.witness
            assert sum(x[i] * q.data[i][j] * x[j] for i in range(n) for j in range(n)) \
                == got.minimum
            m = len(cone.generators)
            base = LinearSystem(m, nonneg=True).eq([1] * m, 1)
            for i in range(n):
                base.eq([g[i] for g in cone.generators], x[i])
            assert lp_feasible(base).is_feasible
        assert seen == set(CopositivityStatus)
