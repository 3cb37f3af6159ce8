"""The enumeration cap is enforced by the scans themselves.

Whatever the configuration, every predicate that enumerates subsets,
supports or sign orthants refuses an order past `ENUMERATION_CAP` before
it starts scanning; the others still answer.
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

ORDER = ENUMERATION_CAP + 1


def tridiagonal_m_matrix(n):
    return RationalMatrix.from_rows([[2 if i == j else -1 if abs(i - j) == 1 else 0
                                      for j in range(n)] for i in range(n)])


MATRICES = {
    "tridiagonal M-matrix": tridiagonal_m_matrix(ORDER),
    "all ones (not Z)": RationalMatrix.from_rows([[1] * ORDER for _ in range(ORDER)]),
}

CONFIGS = [
    PredicateConfig(),
    PredicateConfig(seed=7, max_candidates=1, hint_d=((1,) * ORDER,)),
]


@pytest.fixture
def no_scans(monkeypatch):
    def refuse(n):
        raise AssertionError(f"a scan over {n} indices started")
    for module in (matrix, minor_classes, lcp_classes, lcp):
        monkeypatch.setattr(module, "nonempty_subsets", refuse)


def test_enumerating_predicates_are_registered():
    assert ENUMERATING < set(PREDICATE_ORDER)


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
