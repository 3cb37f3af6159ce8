"""Embedded corpus of worked examples with expected verdicts.

Every matrix here is a literature example with a known classification;
the verifier re-derives each expected status with the live predicates, so
any regression in the decision machinery fails the corpus run.  Expected
maps record only facts asserted in the source material; predicates it is
silent on are omitted, never guessed.  `hint_d` vectors are the published
interior-dual candidates consumed by the Karamardian search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lcp import NO, YES
from .matrix import RationalMatrix, Vector, vec
from .predicates import PredicateConfig, evaluate_predicate


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    matrix: RationalMatrix
    expected: dict[str, str]
    hint_d: tuple[Vector, ...] = ()
    tags: tuple[str, ...] = ()


def _entry(eid: str, rows, expected: dict[str, str], hint_d=(), tags=()) -> CorpusEntry:
    return CorpusEntry(
        id=eid,
        matrix=RationalMatrix.from_rows(rows),
        expected=dict(expected),
        hint_d=tuple(vec(d) for d in hint_d),
        tags=tuple(tags),
    )


def corpus_entries() -> list[CorpusEntry]:
    entries = [
        _entry("all_ones_3x3", [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
               {"p": NO, "p_hash": YES, "q_matrix": YES, "karamardian": YES},
               tags=("phash", "q", "karamardian")),
        _entry("sign_reversal_free_not_p0", [[0, -1, -2], [0, 1, 2], [1, 1, 1]],
               {"p0": NO, "p_hash": YES}, tags=("phash",)),
        _entry("p0_without_group_inverse", [[1, 1, 0], [1, 1, 0], [0, 1, 0]],
               {"p0": YES, "p_hash": NO, "group_inverse_exists": NO}, tags=("phash",)),
        _entry("transpose_of_sign_reversal_free", [[0, 0, 1], [-1, 1, 1], [-2, 2, 1]],
               {"p_hash": NO}, tags=("phash",)),
        _entry("rank_one_negative_diagonal", [[2, 1], [-2, -1]],
               {"p_hash": YES, "p0": NO, "karamardian": NO},
               tags=("phash", "rank-one", "karamardian")),
        _entry("cayley_shift_eighth",
               [["-94/81", "256/81", "-16/9"],
                ["-112/81", "274/81", "-16/9"],
                ["32/81", "-32/81", "2/9"]],
               {"p": NO, "p_hash": NO}, tags=("phash", "construct")),
        _entry("laplacian_third",
               [["2/3", "-1/3", "-1/3"], ["-1/3", "2/3", "-1/3"], ["-1/3", "-1/3", "2/3"]],
               {"p_hash": YES, "property_c": YES, "strictly_range_semimonotone": YES},
               tags=("phash", "z")),
        _entry("reducible_singular_m", [[0, -1], [0, 0]],
               {"p_hash": NO, "property_c": NO, "group_inverse_exists": NO, "m_matrix": YES},
               tags=("phash", "z")),
        _entry("bordered_symmetric_m", [[1, -1, -1], [-1, 2, -1], [-1, -1, 5]],
               {"p_hash": YES, "strictly_range_semimonotone": YES}, tags=("phash", "construct")),
        _entry("bordered_nonsymmetric_m", [[1, -1, -1], [-2, 3, -1], [-1, -1, 7]],
               {"p_hash": YES}, tags=("phash", "construct")),
        _entry("bordered_reducible_m", [[1, -1, -1], [0, 2, -1], [-1, -1, 2]],
               {"p_hash": YES}, tags=("phash", "construct")),
        _entry("nilpotent_plus_projector", [[1, 1, 1], [0, 1, 1], [0, 0, 0]],
               {"p_hash": YES}, tags=("phash",)),
        _entry("nilpotent_plus_projector_group_inverse", [[1, -1, -1], [0, 1, 1], [0, 0, 0]],
               {"p_hash": YES}, tags=("phash",)),
        _entry("n_first_category_q", [[-1, -2, 1], [-1, -1, 3], [2, 1, -1]],
               {"n_matrix": YES, "n_first_category": YES, "q_matrix": YES, "karamardian": NO},
               tags=("q", "karamardian")),
        _entry("z_shift_range_monotone", [[1, -1, 0], [0, 1, -1], [0, 0, 0]],
               {"range_monotone": YES, "q_matrix": NO}, tags=("z", "monotone")),
        _entry("z_shift_range_monotone_group_inverse", [[1, 1, -2], [0, 1, -1], [0, 0, 0]],
               {"karamardian": YES}, tags=("karamardian",)),
        _entry("propc_plus_invertible_m_sum_group_inverse",
               [[0, -1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]],
               {"karamardian": YES, "q_matrix": NO}, tags=("karamardian", "construct")),
        _entry("propc_pair_sum_trivial_cone",
               [[0, -1, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 0, 1]],
               {"karamardian": NO}, tags=("karamardian", "construct")),
        _entry("symmetric_block_z", [[1, -1, 0], [-1, 1, 0], [0, 0, 3]],
               {"karamardian": YES, "range_monotone": YES, "q_matrix": NO},
               tags=("karamardian", "z", "monotone")),
        _entry("symmetric_block_z_group_inverse",
               [["1/4", "-1/4", 0], ["-1/4", "1/4", 0], [0, 0, "1/3"]],
               {"karamardian": YES}, tags=("karamardian", "z")),
        # The published Karamardian claim for this matrix fails under the
        # K*-based definition (see tests/test_conelcp.py for the exact
        # counterexample family), so only the range-monotonicity fact is
        # recorded; the published interior-dual hint is kept as data.
        _entry("tridiagonal_dual_hint", [[0, -1, 0], [-1, 0, -1], [0, -1, 0]],
               {"range_monotone": NO},
               hint_d=[(3, 1, -1)], tags=("karamardian", "z", "monotone")),
        _entry("upper_triangular_z_not_range_monotone",
               [[1, -1, -1], [0, 0, -1], [0, 0, 0]],
               {"range_monotone": NO, "karamardian": NO}, tags=("z", "monotone")),
        _entry("block_identity_z", [[1, -1, 0], [-1, 1, 0], [0, 0, 1]],
               {"karamardian": YES, "q_matrix": NO, "range_monotone": YES},
               tags=("karamardian", "z")),
        _entry("singular_irreducible_m_2x2", [[1, -1], [-1, 1]],
               {"karamardian": NO, "property_c": YES, "m_matrix": YES, "almost_monotone": YES},
               tags=("karamardian", "z", "2x2")),
        _entry("ones_block_shift_4x4",
               [[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]],
               {"karamardian": NO}, tags=("karamardian",)),
        _entry("nonneg_zero_diag_4x4",
               [[0, 0, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1], [0, 0, 1, 0]],
               {"karamardian": YES, "q_matrix": NO},
               hint_d=[(1, 4, 3, 1)], tags=("karamardian",)),
        _entry("positive_2x2", [[1, 2], [1, 1]],
               {"karamardian": YES, "q_matrix": YES}, tags=("karamardian", "2x2")),
        _entry("positive_2x2_inverse", [[-1, 2], [1, -1]],
               {"karamardian": NO, "n_matrix": YES, "n_first_category": YES, "q_matrix": YES},
               tags=("karamardian", "2x2")),
        _entry("semimonotone_singular_not_kar", [[0, -1], [0, 1]],
               {"semimonotone": YES, "strictly_semimonotone": NO,
                "karamardian": NO, "property_c": YES},
               tags=("karamardian", "2x2", "semimonotone")),
        _entry("semimonotone_singular_kar", [[0, 1], [0, 1]],
               {"semimonotone": YES, "strictly_semimonotone": NO, "karamardian": YES},
               tags=("karamardian", "2x2", "semimonotone")),
        _entry("semimonotone_nonsingular_not_kar", [[0, 1], [1, 0]],
               {"semimonotone": YES, "strictly_semimonotone": NO, "karamardian": NO},
               tags=("karamardian", "2x2", "semimonotone")),
        _entry("semimonotone_nonsingular_kar", [[0, 1], [-1, 1]],
               {"semimonotone": YES, "strictly_semimonotone": NO, "karamardian": YES},
               tags=("karamardian", "2x2", "semimonotone")),
        _entry("bordered_karamardian_3x3", [[0, 1, 1], [-1, 1, 2], [1, 2, 1]],
               {"karamardian": YES}, hint_d=[(1, 1, 1)], tags=("karamardian", "construct")),
    ]
    entries += _two_by_two_classification_entries()
    seen = set()
    for e in entries:
        if e.id in seen:
            raise ValueError(f"duplicate corpus id {e.id}")
        seen.add(e.id)
    return entries


def _two_by_two_classification_entries() -> list[CorpusEntry]:
    cases = [
        ("zero_2x2", [[0, 0], [0, 0]], NO),
        ("rank_one_second_row_pos", [[0, 0], [3, 2]], YES),
        ("rank_one_second_row_neg", [[0, 0], [3, -2]], NO),
        ("rank_one_first_row_pos", [[2, 3], [0, 0]], YES),
        ("rank_one_first_row_neg", [[-2, 3], [0, 0]], NO),
        ("rank_one_first_col_pos", [[2, 0], [3, 0]], YES),
        ("rank_one_first_col_mixed", [[2, 0], [-1, 0]], NO),
        ("rank_one_second_col_pos", [[0, 1], [0, 2]], YES),
        ("rank_one_second_col_mixed", [[0, -1], [0, 2]], NO),
        ("rank_one_dense_positive_column", [[1, 2], [2, 4]], YES),
        ("rank_one_dense_negative_trace", [[-1, 2], [2, -4]], NO),
        ("rank_one_dense_no_positive_column", [[1, -2], [-2, 4]], NO),
        ("diag_positive", [[2, 0], [0, 3]], YES),
        ("diag_mixed", [[2, 0], [0, -3]], NO),
        ("diag_negative", [[-2, 0], [0, -3]], NO),
        ("antidiagonal_positive", [[0, 2], [3, 0]], NO),
        ("antidiagonal_negative", [[0, -2], [-3, 0]], NO),
        ("antidiagonal_mixed", [[0, 2], [-3, 0]], NO),
        ("upper_triangular_pos_diag", [[2, -5], [0, 3]], YES),
        ("upper_triangular_pos_diag_pos_off", [[2, 5], [0, 3]], YES),
        ("upper_triangular_neg_first", [[-2, 5], [0, 3]], NO),
        ("upper_triangular_neg_last", [[2, 5], [0, -3]], NO),
        ("lower_triangular_pos", [[3, 0], [5, 2]], YES),
        ("lower_triangular_pos_neg_off", [[3, 0], [-5, 2]], YES),
        ("one_diag_zero_mirrored_yes", [[1, -1], [1, 0]], YES),
        ("one_diag_zero_nonpositive_row", [[0, -1], [1, 1]], NO),
        ("one_diag_zero_neg_last", [[0, 1], [-1, -1]], NO),
        ("two_negative_diagonal", [[-1, 2], [3, -1]], NO),
        ("two_negative_offdiag_pos_det", [[2, -1], [-1, 2]], YES),
        ("two_negative_offdiag_neg_det", [[1, -2], [-2, 1]], NO),
        ("negative_first_column_pos_det", [[-1, 2], [-2, 3]], YES),
        ("negative_first_column_neg_det", [[-3, 1], [-2, 1]], NO),
        ("negative_second_column_pos_det", [[1, -1], [2, -1]], YES),
        ("negative_second_column_neg_det", [[3, -1], [1, -2]], NO),
        ("negative_row_two", [[-1, -2], [3, 4]], NO),
        ("three_positive_offdiag_negative", [[2, -1], [3, 4]], YES),
        ("three_positive_offdiag_negative_lower", [[2, 1], [-3, 4]], YES),
        ("three_positive_diag_negative", [[-2, 1], [3, 4]], NO),
        ("three_positive_diag_negative_lower", [[2, 1], [3, -4]], NO),
        ("all_negative", [[-1, -2], [-3, -4]], NO),
    ]
    return [_entry(eid, rows, {"karamardian": status}, tags=("2x2",))
            for eid, rows, status in cases]


@dataclass(frozen=True)
class EntryReport:
    entry_id: str
    mismatches: tuple[tuple[str, str, str], ...]  # (predicate, expected, actual)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_entry(entry: CorpusEntry) -> EntryReport:
    cfg = PredicateConfig(hint_d=entry.hint_d)
    mismatches = []
    for name in sorted(entry.expected):
        actual = evaluate_predicate(name, entry.matrix, cfg).status
        if actual != entry.expected[name]:
            mismatches.append((name, entry.expected[name], actual))
    return EntryReport(entry.id, tuple(mismatches))


def corpus_to_json() -> dict:
    return {
        "schema": "1",
        "entries": [
            {
                "id": e.id,
                "matrix": e.matrix.to_json(),
                "expected": dict(sorted(e.expected.items())),
                "hint_d": [[str(x) for x in d] for d in e.hint_d],
                "tags": list(e.tags),
            }
            for e in corpus_entries()
        ],
    }
