import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from karalcp import lcp, lcp_classes, minor_classes
from karalcp.conelcp import cone_K, is_karamardian
from karalcp.corpus import corpus_entries
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
from karalcp.lcp import YES, is_q_matrix
from karalcp.lp import LinearSystem, lp_feasible
from karalcp.matrix import (
    RationalMatrix,
    determinant,
    integer_rows,
    inverse,
    memoized,
    nonempty_subsets,
    rank,
)
from karalcp.minor_classes import has_property_c, is_h_matrix_positive_diag, minor_class
from karalcp.monotone import is_range_monotone
from oracles import (
    copositivity_kkt_reference,
    p_hash_orthant_reference,
    semipositive_reference,
    simplex_point_reference,
    strictly_range_semimonotone_reference,
    strictly_semimonotone_reference,
)
from conftest import (
    rand_group_invertible,
    rand_int_matrix,
    rand_matrix,
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
        # supports.  Supports that restrict to the same system share one
        # question: {0} and {1} (equal diagonals), {2} and {3}, and {0, 2}
        # and {1, 3}.  That leaves 12 weak and 12 strict questions, and a
        # repeat is free.  None needs an LP: each vertex e_j is a weak
        # solution, and each row of -A_SS is negative.
        asked, calls = _counted_questions(monkeypatch), _counted_lps(monkeypatch)
        a = RationalMatrix.from_rows([[1, 2, 1, 3], [2, 1, 1, 1], [1, 3, 2, 1], [1, 1, 1, 2]])
        for _ in range(2):
            assert is_semimonotone(a) and not is_almost_semimonotone(a)
            assert is_strictly_semimonotone(a)
            assert len(asked) == 24
        # the memo lives on the matrix: a fresh copy asks them again
        fresh = RationalMatrix.from_rows(a.data)
        assert is_semimonotone(fresh) and is_strictly_semimonotone(fresh)
        assert len(asked) == 48 and not calls

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
        # u v^T with u = (1, 1/2), v = (2, -3): v^T u = 1/2 > 0.  Row 2 has
        # multiplier 2, and the column (-3, -3) of the row-scaled A, which is
        # not in R(A), would reverse A's signs.
        ([[2, -3], [1, "-3/2"]], True),
        ([[2, -1], [2, -1]], True),  # singular P# with a negative diagonal entry
        ([[1, -2], [1, -2]], False),  # column (1, 1) maps to (-1, -1)
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
        # Fiedler-Ptak: with R(A) = R^n, P# is the sign-reversal property
        # of P-matrices, so the orthant LPs agree with the minor test
        rng = random.Random(6)
        matrices = [rand_int_matrix(rng, 3, 3) for _ in range(80)]
        matrices += [rand_p_matrix(rng, n) for n in (1, 2, 3, 4) for _ in range(5)]
        invertible = [a for a in matrices if rank(a) == a.rows]
        assert len(invertible) > 60
        for a in invertible:
            assert p_hash_orthant_reference(a) == minor_class(a).is_p

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


def _rank_deficient(rng: random.Random, n: int) -> RationalMatrix:
    """F G with F n x r and G r x n, r < n."""
    r = rng.randint(1, n - 1)
    return rand_int_matrix(rng, n, r, bound=2) @ rand_int_matrix(rng, r, n, bound=2)


def _rank_one(rng: random.Random, n: int) -> RationalMatrix:
    u, v = rand_nonzero_vector(rng, n), rand_nonzero_vector(rng, n)
    return RationalMatrix(n, n, [[ui * vj for vj in v] for ui in u])


def _fractional_entries(rng: random.Random, rows: int, cols: int) -> RationalMatrix:
    return RationalMatrix(rows, cols, [[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                        for _ in range(cols)] for _ in range(rows)])


def _fractional_product(rng: random.Random, n: int) -> RationalMatrix:
    """B C with B n x r and C r x n, r < n, entries p/q, p in [-3, 3] and q
    in [1, 4]: its rows get unlike multipliers in integer_rows, so the
    row-scaled A is not a multiple of A, and a column of it is not a column
    of A."""
    r = rng.randint(1, n - 1)
    return _fractional_entries(rng, n, r) @ _fractional_entries(rng, r, n)


def _fractional(rng: random.Random, n: int) -> RationalMatrix:
    """An order-n matrix with entries p/q, or half the time (n > 1) a
    _fractional_product."""
    if n == 1 or rng.random() < 0.5:
        return _fractional_entries(rng, n, n)
    return _fractional_product(rng, n)


def _differential_inputs(seed: int):
    """Random integer, P- and positive (strictly semimonotone, rarely P)
    matrices of orders 1 to 5, rank-deficient products F G and rank-one
    u v^T of orders 2 to 5, fractional matrices of orders 1 to 4 whose rows
    have unlike denominators, then the corpus P# entries."""
    rng = random.Random(seed)
    for _ in range(150):
        yield rand_int_matrix(rng, *(rng.randint(1, 5),) * 2)
    for _ in range(20):
        yield rand_p_matrix(rng, rng.randint(1, 5))
    for _ in range(40):
        n = rng.randint(1, 5)
        yield RationalMatrix.from_rows([[rng.randint(1, 3) for _ in range(n)] for _ in range(n)])
    for _ in range(100):
        yield _rank_deficient(rng, rng.randint(2, 5))
    for _ in range(60):
        yield _rank_one(rng, rng.randint(2, 5))
    for _ in range(80):
        yield _fractional(rng, rng.randint(1, 4))
    for entry in corpus_entries():
        if "phash" in entry.tags:
            yield entry.matrix


class TestLpReferences:
    """The minor test and the principal semipositivity LPs that decide an
    invertible matrix, and the LPs that decide a singular one, against the
    LP decisions run on every input (tests/oracles.py)."""

    def test_p_hash_matches_orthant_reference(self):
        seen = {True: 0, False: 0}
        singular = 0
        for a in _differential_inputs(21):
            expected = p_hash_orthant_reference(a)
            assert is_p_hash(a) is expected, a.data
            seen[expected] += 1
            singular += determinant(a) == 0
        assert min(seen.values()) > 30 and singular > 150

    def test_strict_range_semimonotone_matches_support_reference(self):
        seen = {True: 0, False: 0}
        unlike = 0
        for a in _differential_inputs(22):
            expected = strictly_range_semimonotone_reference(a)
            assert is_strictly_range_semimonotone(a) is expected, a.data
            seen[expected] += 1
            unlike += len({m for _, m in integer_rows(a)}) > 1
        assert min(seen.values()) > 30 and unlike > 40

    def test_invertible_matrix_runs_no_lp(self, monkeypatch):
        # P# of an invertible matrix is read from its minor scan; strict range
        # semimonotonicity has an empty left-null basis, so its support
        # questions are strict semimonotonicity's, already memoized
        asked, calls = _counted_questions(monkeypatch), _counted_lps(monkeypatch)
        a = RationalMatrix.from_rows([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
        assert minor_class(a).is_p and is_strictly_semimonotone(a)
        before, lps = len(asked), len(calls)
        assert is_p_hash(a) and is_strictly_range_semimonotone(a)
        assert (len(asked), len(calls)) == (before, lps)
        # No column of M1 refutes it, so it reaches the orthant questions.
        # The first, the all-plus orthant, holds the vertex e_3: it lies in
        # R(A) (the second column minus the first) and A e_3 = 0, so no LP.
        assert determinant(M1) == 0 and not is_p_hash(M1)
        assert (len(asked), len(calls)) == (before + 1, lps)

    def test_shortcuts_skip_the_minor_scan_and_the_lps(self, monkeypatch):
        # An invertible A with a nonpositive diagonal entry is not P: no
        # minor scan.  A singular A that one of its columns refutes runs no
        # orthant LP; the singular P# u v^T, u = (1, 1), v = (2, -1), stays
        # P# despite its negative diagonal entry.
        asked, calls = _counted_questions(monkeypatch), _counted_lps(monkeypatch)
        eliminations = []
        real = minor_classes._eliminate
        monkeypatch.setattr(minor_classes, "_eliminate",
                            lambda *args: eliminations.append(args) or real(*args))
        for rows in ([[0, 1], [-1, 0]], [[3, 1, 0], [1, -1, 2], [0, 2, 5]]):
            a = RationalMatrix.from_rows(rows)
            assert determinant(a) != 0 and not is_p_hash(a)
        assert not eliminations and not asked and not calls
        for rows in ([[1, -2], [1, -2]], [[0, -1], [0, 0]], [["1/2", 1, 0], [1, -3, 1], [0, 0, 0]]):
            a = RationalMatrix.from_rows(rows)
            assert determinant(a) == 0 and not is_p_hash(a)
        assert not asked and not calls
        # both orthants of order 2 with s_1 = +1 are asked, and only s = (1, 1)
        # needs its LP: s = (1, -1) gives -D_s A D_s the negative row (-2, -1)
        a = RationalMatrix.from_rows([[2, -1], [2, -1]])
        assert is_p_hash(a) and len(asked) == 2 and len(calls) == 1

    def test_p_hash_of_fractional_products_matches_orthant_reference(self):
        rng = random.Random(23)
        seen = {True: 0, False: 0}
        for _ in range(3000):
            a = _fractional_product(rng, rng.randint(2, 4))
            expected = p_hash_orthant_reference(a)
            assert is_p_hash(a) is expected, a.data
            seen[expected] += 1
        assert min(seen.values()) > 900

    def test_strict_range_semimonotone_of_fractional_products_matches_support_reference(self):
        # W must span N(A^T), not N((DA)^T) = D^-1 N(A^T) of the row-scaled
        # DA: with unlike multipliers D, W^T x = 0 would then ask for x in
        # R(DA), not in R(A).
        rng = random.Random(24)
        seen = {True: 0, False: 0}
        for _ in range(3000):
            a = _fractional_product(rng, rng.randint(2, 4))
            expected = strictly_range_semimonotone_reference(a)
            assert is_strictly_range_semimonotone(a) is expected, a.data
            seen[expected] += 1
        assert min(seen.values()) > 900


def _counted_lps(monkeypatch) -> list:
    calls = []
    real = lcp_classes.lp_feasible
    monkeypatch.setattr(lcp_classes, "lp_feasible", lambda s: calls.append(s) or real(s))
    return calls


def _counted_questions(monkeypatch) -> list:
    """The (k, E, G) systems that miss _simplex_point's per-matrix memo,
    whether a certificate or an LP then answers them."""
    asked = []
    real = lcp_classes._simplex_point.__wrapped__
    monkeypatch.setattr(lcp_classes, "_simplex_point", memoized("simplex_point")(
        lambda a, *system: asked.append(system) or real(a, *system)))
    return asked


class TestSimplexPoint:
    """The one simplex-point LP behind the semipositivity-type tests, against
    the LP forms it replaced (tests/oracles.py), and the LPs tests share."""

    def test_predicates_match_the_replaced_lp_forms(self):
        rng = random.Random(31)
        inputs = [rand_int_matrix(rng, *(rng.randint(1, 5),) * 2) for _ in range(80)]
        inputs += [rand_matrix(rng, rng.randint(1, 4), 4, 3) for _ in range(60)]
        inputs += [_rank_deficient(rng, rng.randint(2, 5)) for _ in range(60)]
        inputs += [rand_z_matrix(rng, rng.randint(1, 4)) for _ in range(40)]
        rectangular = [rand_int_matrix(rng, m, n) for m, n in
                       ((rng.randint(1, 5), rng.randint(1, 5)) for _ in range(60)) if m != n]
        checks = {
            "semipositive": (is_semipositive, semipositive_reference),
            "strictly_semimonotone": (is_strictly_semimonotone, strictly_semimonotone_reference),
        }
        seen = {name: set() for name in checks}
        for a in inputs + rectangular:
            for name, (predicate, reference) in checks.items():
                if a.rows != a.cols and name != "semipositive":
                    continue
                expected = reference(a)
                assert predicate(a) is expected, (name, a.data)
                seen[name].add(expected)
        assert all(answers == {True, False} for answers in seen.values()), seen
        assert any(not is_semipositive(a) for a in rectangular)
        assert any(is_semipositive(a) for a in rectangular)

    def test_p_hash_and_strict_range_semimonotone_share_the_full_support(self, monkeypatch):
        # Singular, so P# asks its orthant questions; the all-plus orthant
        # (W^T x = 0, -Ax >= 0) is strict range semimonotonicity's full
        # support, asked once when one matrix runs both tests.
        rows = [[1, 2, 1, 3], [2, 1, 1, 1], [1, 3, 2, 1], [3, 3, 2, 4]]
        asked = _counted_questions(monkeypatch)
        a = RationalMatrix.from_rows(rows)
        assert determinant(a) == 0 and is_strictly_range_semimonotone(a)
        srsm = len(asked)
        assert not is_p_hash(RationalMatrix.from_rows(rows))
        alone = len(asked) - srsm
        assert (srsm, alone) == (14, 5)  # P# is refuted at its fifth question
        both = RationalMatrix.from_rows(rows)
        assert not is_p_hash(both) and is_strictly_range_semimonotone(both)
        assert len(asked) - srsm - alone == srsm + alone - 1

    def test_certificates_match_the_lp_reference(self, monkeypatch):
        # The systems the scans ask of fractional matrices whose rows have
        # unlike multipliers: G = +-A_SS of the row-scaled A on every
        # support S, with E empty and, for singular A, E = W_S^T, and P#'s
        # sign orthants.  Each answer is the LP's, an LP runs exactly when
        # no certificate applies, and each certificate answers some system.
        calls = _counted_lps(monkeypatch)
        rng = random.Random(32)
        seen = Counter()
        unlike = 0
        for _ in range(150):
            a = _fractional(rng, rng.randint(1, 4))
            unlike += len({m for _, m in integer_rows(a)}) > 1
            for k, eqs, ges in _simplex_point_systems(a):
                before = len(calls)
                got = lcp_classes._simplex_point.__wrapped__(a, k, eqs, ges)
                assert got is simplex_point_reference(k, eqs, ges), (a.data, eqs, ges)
                answer = _certificate(k, eqs, ges)
                assert len(calls) - before == (answer is None)
                seen[answer, bool(eqs), got] += 1
        assert unlike > 60
        for key in (("vertex", False, True), ("vertex", True, True), ("point", False, False),
                    ("point", True, False), ("row", False, False), ("row", True, False),
                    (None, False, True), (None, False, False), (None, True, True),
                    (None, True, False)):
            assert seen[key] > 5, (key, seen)

    def test_tests_on_one_matrix_keep_their_own_systems(self):
        # Strict semimonotonicity and strict range semimonotonicity ask the
        # same G = -A_SS on each support; only E = W_S^T tells them apart.
        rows = [[0, -1], [0, 1]]
        a, b = RationalMatrix.from_rows(rows), RationalMatrix.from_rows(rows)
        assert not is_strictly_semimonotone(a) and is_strictly_range_semimonotone(a)
        assert is_strictly_range_semimonotone(b) and not is_strictly_semimonotone(b)

    def test_h_matrix_of_a_z_matrix_asks_no_lp(self, monkeypatch):
        # For a Z-matrix with positive diagonal the comparison matrix is A:
        # the H test reads the signs of A^-1 and agrees with semipositivity.
        calls = _counted_lps(monkeypatch)
        for rows, expected in (([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], True),
                               ([[1, -2], [-2, 1]], False)):
            a = RationalMatrix.from_rows(rows)
            before = len(calls)
            assert is_h_matrix_positive_diag(a) is expected
            assert len(calls) == before
            assert is_semipositive(a) is expected
            assert len(calls) == before + 1


def _simplex_point_systems(a: RationalMatrix):
    """(k, E, G) as the semimonotonicity, strict range semimonotonicity and
    P# scans build them for A."""
    n = a.rows
    null = lcp_classes._left_null(a)
    for s in nonempty_subsets(n):
        for eqs in [()] + [tuple(tuple(w[j] for j in s) for w in null)] * bool(null):
            for sign in (1, -1):
                yield len(s), eqs, lcp_classes._block(a, s, sign)
    if null:
        minus_a = lcp_classes._block(a, tuple(range(n)), -1)
        for signs in itertools.product((1, -1), repeat=n - 1):
            s = (1,) + signs
            yield (n, tuple(tuple(w[j] * s[j] for j in range(n)) for w in null),
                   tuple(tuple(s[i] * g[j] * s[j] for j in range(n)) for i, g in enumerate(minus_a)))


def _certificate(k: int, eqs, ges) -> str | None:
    """The LP-free answer that decides the system, if any: a vertex e_j of
    the simplex that solves it, a one-point simplex (k = 1) that does not,
    or a row of G negative in every entry."""
    if any(all(row[j] == 0 for row in eqs) and all(row[j] >= 0 for row in ges)
           for j in range(k)):
        return "vertex"
    if k == 1:
        return "point"
    if any(all(t < 0 for t in row) for row in ges):
        return "row"
    return None


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

    def test_each_support_lp_runs_once_per_matrix(self, monkeypatch):
        # A positive singular 4x4 (row 4 is rows 1 plus 2) is strictly range
        # semimonotone, so the scan visits all 15 supports.  With the
        # left-null vector (-1, -1, 0, 1), supports {0} and {1} restrict to
        # the same system and share one question.  That leaves 14
        # questions, and a repeat is free.  Every row of -A_SS is negative,
        # so none needs an LP.
        asked, calls = _counted_questions(monkeypatch), _counted_lps(monkeypatch)
        a = RationalMatrix.from_rows([[1, 2, 1, 3], [2, 1, 1, 1], [1, 3, 2, 1], [3, 3, 2, 4]])
        assert rank(a) == 3
        for _ in range(2):
            assert is_strictly_range_semimonotone(a)
            assert len(asked) == 14
        # the memo lives on the matrix: a fresh copy asks them again
        assert is_strictly_range_semimonotone(RationalMatrix.from_rows(a.data))
        assert len(asked) == 28 and not calls


class TestCopositivity:
    def test_strict_copositivity_scans_once_per_generator_set(self, monkeypatch):
        # Invertible, strictly copositive and not P: one pair of Gram-matrix
        # scans, LCP(G, e) and LCP(G, 0), decides each generator set, and the
        # generators' order does not change the answer.  Neither the Q-matrix
        # nor the Karamardian cascade asks for one: d = e certifies both.
        a = RationalMatrix.from_rows([[3, -2, 3], [-2, 2, 1], [3, 0, 1]])
        scans = []
        real = lcp.first_nonzero_solution

        def counting(m, q, null):
            if m is not a:
                scans.append(q)
            return real(m, q, null)

        monkeypatch.setattr(lcp, "first_nonzero_solution", counting)
        monkeypatch.setattr(lcp_classes, "first_nonzero_solution", counting)
        assert is_q_matrix(a).status == YES
        assert is_karamardian(a).rule == "CANDIDATE_D"
        assert not scans
        orthant = ConeRep.nonnegative_orthant(3).generators
        for gens in (orthant, orthant[::-1], orthant[:2]):
            scans.clear()
            assert is_strictly_copositive(a, ConeRep(3, gens))
            assert scans == [(1,) * len(gens), (0,) * len(gens)]

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
