"""The enumeration cap is enforced by the scans themselves.

Whatever the configuration, every predicate that enumerates subsets,
supports or sign orthants refuses an order past `ENUMERATION_CAP` before
it starts scanning; the others still answer an invertible matrix.  Range,
row and almost monotonicity of a singular matrix ask for the generators
of K = R^n_+ intersect R(A), so past the cap they refuse it as every other
question about K does; for an invertible one K = R^n_+, and they answer.
"""

import pytest

from karalcp import lcp, lcp_classes, matrix, minor_classes
from karalcp.errors import TooLargeError
from karalcp.matrix import ENUMERATION_CAP, RationalMatrix
from karalcp.predicates import PREDICATE_ORDER, PredicateConfig, evaluate_predicate

ENUMERATING = {
    "p", "p0", "n_matrix", "n_first_category", "adequate", "m_matrix", "property_c",
    "semimonotone", "strictly_semimonotone", "almost_semimonotone", "p_hash",
    "strictly_range_semimonotone", "q_matrix", "karamardian",
}

# Refuse a singular matrix past the cap: they need the generators of K.
ON_K = {"range_monotone", "row_monotone", "almost_monotone"}

ORDER = ENUMERATION_CAP + 1


def tridiagonal_m_matrix(n):
    return RationalMatrix.from_rows([[2 if i == j else -1 if abs(i - j) == 1 else 0
                                      for j in range(n)] for i in range(n)])


def path_laplacian(n):
    """The Laplacian of the path on n vertices: singular, of rank n - 1."""
    return RationalMatrix.from_rows([[(i > 0) + (i < n - 1) if i == j else -(abs(i - j) == 1)
                                      for j in range(n)] for i in range(n)])


MATRICES = {
    "tridiagonal M-matrix": tridiagonal_m_matrix(ORDER),
    "all ones (not Z)": RationalMatrix.from_rows([[1] * ORDER for _ in range(ORDER)]),
}

CONFIGS = [
    PredicateConfig(),
    PredicateConfig(hint_d=((1,) * ORDER,)),
]


@pytest.fixture
def no_scans(monkeypatch):
    def refuse(n):
        raise AssertionError(f"a scan over {n} indices started")
    for module in (matrix, minor_classes, lcp_classes, lcp):
        monkeypatch.setattr(module, "nonempty_subsets", refuse)


def test_enumerating_predicates_are_registered():
    assert ENUMERATING < set(PREDICATE_ORDER) and ON_K < set(PREDICATE_ORDER) - ENUMERATING


@pytest.mark.parametrize("name", sorted(ENUMERATING))
def test_enumerating_predicate_refuses_order_past_cap(name, no_scans):
    for a in MATRICES.values():
        for cfg in CONFIGS:
            with pytest.raises(TooLargeError, match=f"order {ORDER} exceeds cap {ENUMERATION_CAP}"):
                evaluate_predicate(name, a, cfg)


def test_other_predicates_answer_past_cap(no_scans):
    a = MATRICES["tridiagonal M-matrix"]
    for name in PREDICATE_ORDER:
        if name not in ENUMERATING:
            assert evaluate_predicate(name, a, CONFIGS[0]).status in ("Yes", "No")


def test_questions_about_K_refuse_a_singular_matrix_past_cap(no_scans):
    a = path_laplacian(ORDER)
    assert matrix.rank(a) == ORDER - 1
    for name in sorted(ON_K):
        with pytest.raises(TooLargeError, match=f"order {ORDER} exceeds cap {ENUMERATION_CAP}"):
            evaluate_predicate(name, a, CONFIGS[0])
    for name in PREDICATE_ORDER:
        if name not in ENUMERATING | ON_K:
            assert evaluate_predicate(name, a, CONFIGS[0]).status in ("Yes", "No")
