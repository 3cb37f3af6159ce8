"""Uniform predicate registry over all class tests.

Used by the CLI classification report and the corpus verifier, so both
agree on names, statuses (Yes / No / Unknown / NotApplicable), and
certificate payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import geninv, lcp_classes, minor_classes, monotone
from .conelcp import is_karamardian
from .lcp import NO, UNKNOWN, YES, Verdict, is_q_matrix
from .matrix import RationalMatrix, Vector, left_null_rows
from .minor_classes import MClass

NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True)
class PredicateConfig:
    hint_d: tuple[Vector, ...] = ()


@dataclass(frozen=True)
class PredicateOutcome:
    status: str
    certificate: dict | None = None


def _from_bool(value: bool, method: str) -> PredicateOutcome:
    return PredicateOutcome(YES if value else NO, {"by": method})


def _from_verdict(v: Verdict) -> PredicateOutcome:
    cert: dict = {"rule": v.rule} if v.rule else {}
    if v.witnesses:
        cert["witnesses"] = v.witnesses
    if v.status == UNKNOWN:
        return PredicateOutcome(UNKNOWN, None)
    return PredicateOutcome(v.status, cert)


def _structural(flag: str):
    def run(a: RationalMatrix, cfg: PredicateConfig) -> PredicateOutcome:
        value = getattr(minor_classes.structural_flags(a), flag)
        return _from_bool(value, "entry-scan")
    return run


def _minor(flag: str):
    def run(a: RationalMatrix, cfg: PredicateConfig) -> PredicateOutcome:
        value = getattr(minor_classes.minor_class(a), flag)
        return _from_bool(value, "minor-scan")
    return run


def _m_matrix(a: RationalMatrix, cfg: PredicateConfig) -> PredicateOutcome:
    kind = minor_classes.is_m_matrix(a)
    if kind is MClass.NOT_M:
        return PredicateOutcome(NO, {"by": "minor-scan"})
    return PredicateOutcome(YES, {"by": "minor-scan", "kind": kind.value})


def _karamardian(a: RationalMatrix, cfg: PredicateConfig) -> PredicateOutcome:
    return _from_verdict(is_karamardian(a, candidate_ds=cfg.hint_d or None))


def _q_matrix(a: RationalMatrix, cfg: PredicateConfig) -> PredicateOutcome:
    return _from_verdict(is_q_matrix(a))


def _bool_pred(fn: Callable[[RationalMatrix], bool], method: str):
    def run(a: RationalMatrix, cfg: PredicateConfig) -> PredicateOutcome:
        return _from_bool(fn(a), method)
    return run


def _p_hash(a: RationalMatrix, cfg: PredicateConfig) -> PredicateOutcome:
    # An invertible A is P# iff it is P, decided by its principal minors.
    value = lcp_classes.is_p_hash(a)
    return _from_bool(value, "orthant lp" if left_null_rows(a) else "minor-scan")


def _group_inverse_exists(a: RationalMatrix, cfg: PredicateConfig) -> PredicateOutcome:
    return _from_bool(geninv.group_inverse(a).exists, "rank test")


# Rectangular inputs still make sense for these two.
_RECTANGULAR_OK = {"semipositive", "weakly_semipositive"}

PREDICATES: dict[str, Callable[[RationalMatrix, PredicateConfig], PredicateOutcome]] = {
    "nonnegative": _structural("nonnegative"),
    "positive": _structural("positive"),
    "z_matrix": _structural("z_matrix"),
    "symmetric": _structural("symmetric"),
    "irreducible": _structural("irreducible"),
    "has_nonpositive_row": _structural("has_nonpositive_row"),
    "p": _minor("is_p"),
    "p0": _minor("is_p0"),
    "n_matrix": _minor("is_n"),
    "n_first_category": _minor("n_first_category"),
    "adequate": _minor("is_adequate"),
    "m_matrix": _m_matrix,
    "property_c": _bool_pred(minor_classes.has_property_c, "minor-scan + rank"),
    "h_matrix_positive_diag": _bool_pred(minor_classes.is_h_matrix_positive_diag, "comparison inverse sign"),
    "semipositive": _bool_pred(lcp_classes.is_semipositive, "lp"),
    "weakly_semipositive": _bool_pred(lcp_classes.is_weakly_semipositive, "lp"),
    "semimonotone": _bool_pred(lcp_classes.is_semimonotone, "submatrix lp"),
    "strictly_semimonotone": _bool_pred(lcp_classes.is_strictly_semimonotone, "submatrix lp"),
    "almost_semimonotone": _bool_pred(lcp_classes.is_almost_semimonotone, "submatrix lp"),
    "p_hash": _p_hash,
    "strictly_range_semimonotone": _bool_pred(lcp_classes.is_strictly_range_semimonotone, "support lp"),
    "monotone": _bool_pred(monotone.is_monotone, "inverse sign"),
    "range_monotone": _bool_pred(monotone.is_range_monotone, "group inverse on K"),
    "row_monotone": _bool_pred(monotone.is_row_monotone, "Moore-Penrose on K"),
    "group_monotone": _bool_pred(monotone.is_group_monotone, "inverse sign"),
    "gi_semimonotone": _bool_pred(monotone.is_gi_semimonotone, "inverse sign"),
    "almost_monotone": _bool_pred(monotone.is_almost_monotone, "K = {0}"),
    "group_inverse_exists": _group_inverse_exists,
    "range_symmetric": _bool_pred(geninv.is_range_symmetric, "basis compare"),
    "q_matrix": _q_matrix,
    "karamardian": _karamardian,
}

PREDICATE_ORDER: tuple[str, ...] = tuple(PREDICATES)


def evaluate_predicate(name: str, a: RationalMatrix, cfg: PredicateConfig) -> PredicateOutcome:
    if name not in PREDICATES:
        raise KeyError(f"unknown predicate '{name}'")
    if not a.is_square and name not in _RECTANGULAR_OK:
        return PredicateOutcome(NOT_APPLICABLE, {"reason": "square matrices only"})
    return PREDICATES[name](a, cfg)
