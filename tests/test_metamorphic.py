"""Metamorphic soundness gate: each class is a property of the matrix, not
of its labelling, its positive scaling or, for some, its transposition, so a
decided verdict must survive every transformation that provably preserves
the class.

On seeded matrices of orders 2 to 5, half of them rank-deficient products
F G, every predicate named below is evaluated on A and on its transform.
A Yes on one side and a No on the other fails the test.  A shift between
Unknown and a decided status is only counted: the candidate search and
the Q sampler's fixed draws depend on the labelling, so a few shifts are
expected.  scripts/sign_census.py runs the transposition and scaling
checks below over every order-3 sign class, from these same tables.
References: Cottle, Pang & Stone, The Linear Complementarity Problem
(1992), section 3.1; Chen, Cheung & Yiu, "Metamorphic testing" (1998).
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

from karalcp.lcp import NO, UNKNOWN, YES
from karalcp.matrix import RationalMatrix, rank
from karalcp.predicates import PREDICATE_ORDER, PredicateConfig, evaluate_predicate
from conftest import rand_int_matrix, rand_permutation

# One line of proof for each predicate that D A E preserves, for positive
# diagonal D and E; (D A E)_ij = d_i a_ij e_j.
SCALING_PROOFS = {
    "nonnegative": "every entry keeps its sign",
    "positive": "every entry keeps its sign",
    "z_matrix": "every entry keeps its sign",
    "has_nonpositive_row": "every entry keeps its sign",
    "irreducible": "the zero pattern, hence the digraph, is unchanged",
    "p": "det (DAE)_SS = det D_S det E_S det A_SS, a positive multiple",
    "p0": "det (DAE)_SS = det D_S det E_S det A_SS, a positive multiple",
    "n_matrix": "det (DAE)_SS = det D_S det E_S det A_SS, a positive multiple",
    "n_first_category": "principal minors and entry signs keep their signs",
    "adequate": "minor signs keep, and D, E scale rows and columns of A_SS",
    "m_matrix": "Z keeps, and principal minors keep their signs",
    "h_matrix_positive_diag": "the comparison matrix of DAE is D C(A) E",
    "semipositive": "A x > 0 with x >= 0 iff DAE (E^-1 x) > 0",
    "semimonotone": "x_k > 0 iff (E^-1 x)_k > 0, and (DAE E^-1 x)_k = d_k (Ax)_k",
    "strictly_semimonotone": "x_k > 0 iff (E^-1 x)_k > 0, and (DAE E^-1 x)_k = d_k (Ax)_k",
    "monotone": "DAE y >= 0 iff A (Ey) >= 0, and Ey >= 0 iff y >= 0",
    "almost_monotone": "R(DAE) = D R(A), and D maps R^n_+ onto itself",
    "q_matrix": "x solves LCP(DAE, q) iff u = Ex solves LCP(A, D^-1 q)",
}
# For invertible A, K = K* = R^n_+, so these two are preserved as well.
INVERTIBLE_SCALING_PROOFS = {
    "karamardian": "LCP(DAE, q) and LCP(A, D^-1 q) have the same supports, for q = 0 and d > 0",
    "p_hash": "for invertible A, P# is P (Fiedler & Ptak, 1966), whose minors keep their signs",
}

# One line of proof for each predicate that A^T shares with A.
TRANSPOSE_PROOFS = {
    "symmetric": "A = A^T iff A^T = (A^T)^T",
    "p": "det (A^T)_SS = det (A_SS)^T = det A_SS",
    "p0": "det (A^T)_SS = det (A_SS)^T = det A_SS",
    "n_matrix": "det (A^T)_SS = det (A_SS)^T = det A_SS",
    "adequate": "minors keep, and (A^T)_SS swaps the rows and columns of A_SS",
    "m_matrix": "Z keeps, and principal minors keep",
    "monotone": "(A^T)^-1 = (A^-1)^T",
    "h_matrix_positive_diag": "C(A^T) = C(A)^T, with the same diagonal, and (C^T)^-1 = (C^-1)^T",
}

CFG = PredicateConfig()
PERMUTED = 360
SCALED = 480
TRANSPOSED = 480


def _cases(seed: int, count: int):
    """Seeded integer matrices of orders 2 to 5: invertible or not at even
    draws, products F G of rank below n at odd ones."""
    rng = random.Random(seed)
    for trial in range(count):
        n = rng.randint(2, 5)
        if trial % 2:
            r = rng.randint(1, n - 1)
            a = rand_int_matrix(rng, n, r, 2) @ rand_int_matrix(rng, r, n, 2)
        else:
            a = rand_int_matrix(rng, n, n)
        yield rng, a


def _compare(a: RationalMatrix, b: RationalMatrix, names, tally: Counter) -> list[str]:
    """Conflicts between the statuses of A and B on the named predicates;
    shifts between Unknown and a decided status go to `tally`."""
    conflicts = []
    for name in names:
        sa, sb = evaluate_predicate(name, a, CFG).status, evaluate_predicate(name, b, CFG).status
        tally["compared"] += 1
        if {sa, sb} == {YES, NO}:
            conflicts.append(f"{name}: {sa} on {a.data}, {sb} on its transform {b.data}")
        elif sa != sb and UNKNOWN in (sa, sb):
            tally["unknown_shifts"] += 1
    return conflicts


def test_permutation_similarity_preserves_every_predicate():
    """P A P^T relabels the indices: entries, principal submatrices, K,
    K* and N(A^T) permute along, so each of the 31 predicates holds for
    P A P^T exactly when it holds for A."""
    tally = Counter()
    conflicts = []
    for rng, a in _cases(41, PERMUTED):
        p = rand_permutation(rng, a.rows)
        conflicts += _compare(a, p @ a @ p.transpose(), PREDICATE_ORDER, tally)
    assert not conflicts, "\n".join(conflicts + [str(tally)])
    assert tally["compared"] == PERMUTED * len(PREDICATE_ORDER)


def test_positive_diagonal_scaling_preserves_the_scaling_invariant_predicates():
    """D A E, for positive diagonal D and E, scales row i by d_i and column
    j by e_j; each predicate compared is preserved by the one-line proof
    in SCALING_PROOFS, and for invertible A also in
    INVERTIBLE_SCALING_PROOFS."""
    tally = Counter()
    conflicts = []
    for rng, a in _cases(43, SCALED):
        n = a.rows
        d = [Fraction(rng.randint(1, 3)) for _ in range(n)]
        e = [Fraction(rng.randint(1, 3)) for _ in range(n)]
        b = RationalMatrix(n, n, [[d[i] * a.data[i][j] * e[j] for j in range(n)] for i in range(n)])
        names = list(SCALING_PROOFS)
        if rank(a) == n:
            names += INVERTIBLE_SCALING_PROOFS
        conflicts += _compare(a, b, names, tally)
    assert not conflicts, "\n".join(conflicts + [str(tally)])
    assert tally["compared"] >= SCALED * len(SCALING_PROOFS)


def test_transposition_preserves_the_transpose_invariant_predicates():
    """Each predicate compared holds for A^T exactly when it holds for A,
    by the one-line proof in TRANSPOSE_PROOFS."""
    tally = Counter()
    conflicts = []
    for _, a in _cases(47, TRANSPOSED):
        conflicts += _compare(a, a.transpose(), TRANSPOSE_PROOFS, tally)
    assert not conflicts, "\n".join(conflicts + [str(tally)])
    assert tally["compared"] == TRANSPOSED * len(TRANSPOSE_PROOFS)
