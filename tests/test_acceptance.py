"""Acceptance gate: ten criteria, each printing one pass/fail line (run
with `pytest -s tests/test_acceptance.py` to see them live).

All comparisons are exact rational equality; the stated wall-clock budgets
are asserted after correctness.  Criterion 3 keeps one refuted published
claim: the symmetric tridiagonal Z-matrix is claimed Karamardian in the
literature with the dual vector d = (3,1,-1), but that verification
silently strengthens y in K* to y >= 0.  Under the K*-based definition
every interior dual vector admits the nonzero solution
(d2/2, (d1+d3)/2, d2/2), so the true verdict is No.  `is_karamardian`
certifies it: in generator form M = [[0,-2],[-2,0]] has LCP degree 0, not
1 (rule DEGREE_NOT_ONE).  The sub-case asserts that No and checks the
refutation at the hint by substitution; a degree-one matrix no rule
decides asserts Unknown, and that e was tried first.  See
tests/test_conelcp.py for the frozen counterexample family.
"""

import random
import sys
import time
from fractions import Fraction

from karalcp.conelcp import classify_2x2, cone_K, dual_membership, is_karamardian
from karalcp.construct import border_karamardian, border_m_matrix, cayley_g_epsilon
from karalcp.errors import PreconditionFailedError
from karalcp.geninv import group_inverse, moore_penrose
from karalcp.lcp import NO, UNKNOWN, YES, lcp_solutions
from karalcp.lcp_classes import is_p_hash, is_strictly_range_semimonotone
from karalcp.lp import LinearSystem, lp_feasible
from karalcp.matrix import RationalMatrix, dot, subspace_bases, vec
from karalcp.minor_classes import has_property_c
from karalcp.monotone import is_range_monotone
from karalcp.search import run_search
from conftest import (
    rand_matrix,
    rand_nonzero_vector,
    rand_p_matrix,
    rand_permutation,
    rand_symmetric_irreducible_invertible_m,
    rand_symmetric_z_matrix,
    rand_z_matrix,
)
from oracles import (
    group_equations_hold,
    karamardian_2x2_oracle,
    karamardian_candidate_search_reference,
    penrose_holds,
)


def _finish(name: str, failures: list, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {name}: {status} ({elapsed:.2f}s, budget {budget:g}s)",
          file=sys.stderr)
    assert not failures, f"{name}: {failures[:8]}"
    assert elapsed < budget, f"{name} exceeded its budget: {elapsed:.2f}s >= {budget}s"


def ones(n):
    return RationalMatrix.from_rows([[1] * n for _ in range(n)])


def test_criterion_1_generalized_inverse_exactness():
    started = time.perf_counter()
    failures = []
    cases = []
    for n in range(2, 7):
        cases.append((ones(n), ones(n).scale(Fraction(1, n * n))))
    cases.append((RationalMatrix.from_rows([[1, 1, 1], [0, 1, 1], [0, 0, 0]]),
                  RationalMatrix.from_rows([[1, -1, -1], [0, 1, 1], [0, 0, 0]])))
    cases.append((RationalMatrix.from_rows([[1, -1, 0], [-1, 1, 0], [0, 0, 3]]),
                  RationalMatrix.from_rows([["1/4", "-1/4", 0], ["-1/4", "1/4", 0],
                                            [0, 0, "1/3"]])))
    cases.append((RationalMatrix.from_rows(
        [[0, -1, 0, 0], [0, 1, 0, 0], [0, 0, 1, -1], [0, 0, -1, 2]]),
        RationalMatrix.from_rows(
        [[0, -1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]])))
    for a, expected in cases:
        gi = group_inverse(a)
        if not gi.exists or gi.inverse != expected:
            failures.append(("group inverse", a))
        elif not group_equations_hold(a, gi.inverse):
            failures.append(("group equations", a))
        if not penrose_holds(a, moore_penrose(a)):
            failures.append(("penrose", a))
    _finish("criterion 1 (generalized inverses)", failures, started, 1.0)


def test_criterion_2_p_hash_corpus():
    started = time.perf_counter()
    m3 = [[0, -1, -2], [0, 1, 2], [1, 1, 1]]
    cases = [
        (m3, True),
        ([[1, 1, 0], [1, 1, 0], [0, 1, 0]], False),
        ([list(r) for r in zip(*m3)], False),
        ([[2, 1], [-2, -1]], True),
        ([[1, 1, 1], [0, 1, 1], [0, 0, 0]], True),
        ([[1, -1, -1], [-1, 2, -1], [-1, -1, 5]], True),
        ([[1, -1, -1], [-2, 3, -1], [-1, -1, 7]], True),
        ([["2/3", "-1/3", "-1/3"], ["-1/3", "2/3", "-1/3"], ["-1/3", "-1/3", "2/3"]], True),
        ([[0, -1], [0, 0]], False),
    ]
    failures = [rows for rows, expected in cases
                if is_p_hash(RationalMatrix.from_rows(rows)) is not expected]
    _finish("criterion 2 (P# corpus)", failures, started, 1.0)


TRIDIAGONAL = [[0, -1, 0], [-1, 0, -1], [0, -1, 0]]
TRIDIAGONAL_HINT = (3, 1, -1)


def test_criterion_3_karamardian_corpus():
    started = time.perf_counter()
    cases = [
        ("positive 2x2", [[1, 2], [1, 1]], (), YES),
        ("positive 2x2 inverse", [[-1, 2], [1, -1]], (), NO),
        ("first-category N", [[-1, -2, 1], [-1, -1, 3], [2, 1, -1]], (), NO),
        ("strictly copositive block", [[1, -1, 0], [-1, 1, 0], [0, 0, 1]], (), YES),
        # published Yes, refuted under the K*-based definition (module
        # docstring) and certified No by the LCP degree of its generator form
        ("tridiagonal", TRIDIAGONAL, (TRIDIAGONAL_HINT,), NO),
        # R0 of degree 1 in generator form, so no sound rule decides it
        ("degree-one remainder", [[-1, 1, 1], [-1, 1, -1], [-1, 0, 1]], (), UNKNOWN),
        ("symmetric block Z", [[1, -1, 0], [-1, 1, 0], [0, 0, 3]], (), YES),
        ("symmetric block Z group inverse",
         [["1/4", "-1/4", 0], ["-1/4", "1/4", 0], [0, 0, "1/3"]], (), YES),
        ("shift group inverse", [[1, 1, -2], [0, 1, -1], [0, 0, 0]], (), YES),
        ("nonneg zero diagonal 4x4",
         [[0, 0, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1], [0, 0, 1, 0]], ((1, 4, 3, 1),), YES),
        ("singular irreducible M", [[1, -1], [-1, 1]], (), NO),
        ("ones block shift", [[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]], (), NO),
        ("semimonotone A", [[0, -1], [0, 1]], (), NO),
        ("semimonotone B", [[0, 1], [0, 1]], (), YES),
        ("semimonotone C", [[0, 1], [1, 0]], (), NO),
        ("semimonotone D", [[0, 1], [-1, 1]], (), YES),
        ("bordered Karamardian", [[0, 1, 1], [-1, 1, 2], [1, 2, 1]], ((1, 1, 1),), YES),
    ]
    failures = []
    for name, rows, hints, expected in cases:
        verdict = is_karamardian(RationalMatrix.from_rows(rows),
                                 candidate_ds=[vec(h) for h in hints] or None)
        if verdict.status != expected:
            failures.append((name, expected, verdict.status))
        elif expected == UNKNOWN and (verdict.evidence["tried"][:len(hints) + 1]
                                      != tuple(vec(h) for h in hints) + (vec([1] * len(rows)),)):
            failures.append((name, "hints and then e not tried first", verdict.evidence))
    # refutation of the published tridiagonal claim at its hint, by
    # substitution: x = A z >= 0 lies in K, y = Ax + d lies in N(A^T),
    # hence in K*, and x . y = 0
    a, d = RationalMatrix.from_rows(TRIDIAGONAL), vec(TRIDIAGONAL_HINT)
    x = a.mul_vec(vec([-1, "-1/2", 0]))
    y = tuple(ax + di for ax, di in zip(a.mul_vec(x), d))
    if x != vec(["1/2", 1, "1/2"]) or y != vec([2, 0, -2]):
        failures.append(("tridiagonal refutation", x, y))
    if any(a.transpose().mul_vec(y)) or not dual_membership(a, y):
        failures.append(("tridiagonal refutation: y not in K*", y))
    if dot(x, y) != 0:
        failures.append(("tridiagonal refutation: not complementary", x, y))
    _finish("criterion 3 (Karamardian corpus)", failures, started, 10.0)


def test_criterion_4_two_by_two_oracle_equivalence():
    started = time.perf_counter()
    failures = []
    rng = random.Random(0)
    for _ in range(10_000):
        a = rand_matrix(rng, 2, num_bound=6, den_bound=3)
        classified = classify_2x2(a).status
        searched = karamardian_candidate_search_reference(a).status
        if searched != UNKNOWN and searched != classified:
            failures.append((a, classified, searched))
    # presummary-style two-negative families on a 10^4 grid, against the
    # exhaustive candidate-d oracle
    grid = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1),
            Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3),
            Fraction(4), Fraction(5)]
    count = 0
    for alpha in grid:
        for beta in grid:
            for gamma in grid:
                for delta in grid:
                    count += 1
                    for rows in ([[-alpha, beta], [-gamma, delta]],
                                 [[alpha, -beta], [gamma, -delta]]):
                        a = RationalMatrix.from_rows(rows)
                        want = karamardian_2x2_oracle(a)
                        got = classify_2x2(a).status == YES
                        det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
                        if got != want or (det != 0 and got != (det > 0)):
                            failures.append((rows, want, got))
    assert count == 10_000
    _finish("criterion 4 (2x2 oracle equivalence)", failures, started, 300.0)


def test_criterion_5_rank_one_closed_forms():
    started = time.perf_counter()
    failures = []
    rng = random.Random(1)
    from karalcp.conelcp import rank_one_classification
    for _ in range(1000):
        n = rng.randint(1, 6)
        u, v = rand_nonzero_vector(rng, n), rand_nonzero_vector(rng, n)
        a = RationalMatrix(n, n, [[ui * vj for vj in v] for ui in u])
        cls = rank_one_classification(u, v)
        if cls.p_hash != is_p_hash(a):
            failures.append(("p_hash", u, v))
        verdict = is_karamardian(a)
        if verdict.status == UNKNOWN or (verdict.status == YES) != cls.karamardian:
            failures.append(("karamardian", u, v, verdict.status))
    _finish("criterion 5 (rank-one closed forms)", failures, started, 60.0)


def test_criterion_6_lcp_solution_counts():
    started = time.perf_counter()
    failures = []
    a = RationalMatrix.from_rows([[-1, -2, 1], [-1, -1, 3], [2, 1, -1]])
    rng = random.Random(2)
    qs_positive = [vec([1, 1, 1])]
    qs_positive += [vec([rng.randint(1, 9) for _ in range(3)]) for _ in range(20)]
    for q in qs_positive:
        if len(lcp_solutions(a, q).solutions) != 3:
            failures.append(("positive q", q))
    produced = 0
    while produced < 20:
        q = vec([rng.randint(-9, 9) for _ in range(3)])
        if all(t >= 0 for t in q):
            continue
        produced += 1
        if len(lcp_solutions(a, q).solutions) != 1:
            failures.append(("mixed q", q))
    _finish("criterion 6 (LCP solution counts)", failures, started, 5.0)


def _group_inverse_nonneg_on_cone(a) -> bool:
    gi = group_inverse(a)
    if not gi.exists:
        return False
    n = a.rows
    left_null = subspace_bases(a).left_null.basis
    for i in range(n):
        system = LinearSystem(n, nonneg=True)
        for w in left_null:
            system.eq(list(w), 0)
        system.le(gi.inverse.row_vec(i), -1)
        if lp_feasible(system).is_feasible:
            return False
    return True


def _nonpositive_image_only_zero(a) -> bool:
    n = a.rows
    left_null = subspace_bases(a).left_null.basis
    system = LinearSystem(n, nonneg=True)
    for w in left_null:
        system.eq(list(w), 0)
    system.eq([1] * n, 1)
    for i in range(n):
        system.le(a.row_vec(i), 0)
    return not lp_feasible(system).is_feasible


def test_criterion_7_z_matrix_implication_chain():
    started = time.perf_counter()
    failures = []
    rng = random.Random(3)
    for trial in range(2000):
        n = rng.randint(2, 4)
        z = rand_symmetric_z_matrix(rng, n) if trial % 2 else rand_z_matrix(rng, n)
        a = is_p_hash(z)
        b = has_property_c(z)
        c = is_range_monotone(z)
        d = _group_inverse_nonneg_on_cone(z)
        e = _nonpositive_image_only_zero(z)
        if a and not b:
            failures.append(("a->b", z))
        if not (b == c == d):
            failures.append(("b<->c<->d", z))
        if d and not e:
            failures.append(("d->e", z))
        if trial % 2:  # symmetric: full equivalence including strict range semimonotonicity
            srsm = is_strictly_range_semimonotone(z)
            if len({a, b, c, d, srsm}) != 1:
                failures.append(("symmetric equivalence", z))
    _finish("criterion 7 (Z-matrix implication chain)", failures, started, 300.0)


def test_criterion_8_permutation_invariance():
    started = time.perf_counter()
    failures = []
    rng = random.Random(4)
    for _ in range(500):
        n = rng.randint(2, 4)
        a = rand_matrix(rng, n, num_bound=4, den_bound=2)
        p = rand_permutation(rng, n)
        pap = p @ a @ p.transpose()
        va = is_karamardian(a)
        vp = is_karamardian(pap)
        decisive = {YES, NO}
        if va.status in decisive and vp.status in decisive and va.status != vp.status:
            failures.append((a, va.status, vp.status))
        if va.status == YES and va.rule == "CANDIDATE_D" and vp.status == UNKNOWN:
            mapped = p.mul_vec(va.witnesses["d"])
            if is_karamardian(pap, candidate_ds=[mapped]).status != YES:
                failures.append(("mapped candidate failed", a))
    _finish("criterion 8 (permutation invariance)", failures, started, 120.0)


def test_criterion_9_construction_guarantees():
    started = time.perf_counter()
    failures = []
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 3)
        base = rand_symmetric_irreducible_invertible_m(rng, n)
        u = [-rng.randint(0, 2) for _ in range(n)]
        if all(x == 0 for x in u):
            u[rng.randrange(n)] = -1
        result = border_m_matrix(base, vec(u))
        if not is_p_hash(result.matrix):
            failures.append(("border_m", base, u))
    built = 0
    while built < 200:
        n = rng.randint(2, 3)
        base = rand_p_matrix(rng, n)
        u = vec([rng.randint(0, 3) for _ in range(n)])
        alpha = Fraction(rng.randint(1, 5))
        try:
            b = border_karamardian(base, u, alpha)
        except PreconditionFailedError:
            continue
        built += 1
        if is_karamardian(b).status != YES:
            failures.append(("border_karamardian", base, u, alpha))
    m3 = RationalMatrix.from_rows([[0, -1, -2], [0, 1, 2], [1, 1, 1]])
    shift = cayley_g_epsilon(m3, Fraction(1, 8))
    if shift.i_plus_g.data[0][0] != Fraction(-94, 81):
        failures.append(("cayley entry", shift.i_plus_g.data[0][0]))
    _finish("criterion 9 (construction guarantees)", failures, started, 180.0)


def test_criterion_10_search_soundness():
    started = time.perf_counter()
    failures = []
    hits = run_search("propc-not-phash", n=3, trials=100_000, seed=0)
    if hits:
        failures.append(("order-3 hits should be impossible", hits[0].matrix))
    # a hit is a certified No (a counterexample) or an Unknown (open)
    hits = run_search("phash-not-karamardian", n=4, trials=2000, seed=0)
    for hit in hits:
        if not is_p_hash(hit.matrix) or cone_K(hit.matrix).trivial:
            failures.append(("unsound hit", hit.matrix))
        verdict = is_karamardian(hit.matrix)
        if verdict.status not in (NO, UNKNOWN) or verdict.status != hit.evidence["karamardian"]:
            failures.append(("hit status", hit.matrix, verdict.status, hit.evidence))
        if verdict.status == NO and hit.evidence["rule"] != verdict.rule:
            failures.append(("counterexample rule", hit.matrix, hit.evidence))
    _finish("criterion 10 (search soundness)", failures, started, 600.0)
