"""All 31 predicates on every order-3 matrix with entries in {-1, 0, 1},
up to permutation similarity: one status line per class, the Unknown
count per predicate and a digest of the lines, with the transposition and
positive diagonal scaling checks of tests/test_metamorphic.py on each.

    python3 scripts/sign_census.py

Run it from the root of a checkout.  Each class of the 3^9 sign matrices
under A -> P A P^T is represented by its canonical form, the
lexicographic minimum of the row-major entries over the 6 permutations
P; the classes are visited in the order of their canonical forms.  Every
predicate runs with the default PredicateConfig.  It prints one line per
class, "<nine entries> <31 statuses in PREDICATE_ORDER>", and then, as
its last line, one JSON object: the class count, the Unknown count of
each predicate, the sha256 of the class lines and `q_unwitnessed`, the
number of decided q_matrix outcomes whose certificate carries no
witnesses.  Each class is also compared with A^T on the predicates of
TRANSPOSE_PROOFS and with D A E, D = diag(1, 2, 3) and E = diag(3, 1, 2),
on the predicates of SCALING_PROOFS, both tables read from
tests/test_metamorphic.py: `transpose_conflicts` and `scaling_conflicts`
count a Yes on one side against a No on the other (each is printed to
stderr), and `unknown_shifts` counts an Unknown against a decided status.

A change that only renames or retires a rule leaves the digest as it is;
a status that moves between Yes, No and Unknown changes it.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from karalcp.lcp import NO, UNKNOWN, YES  # noqa: E402
from karalcp.matrix import RationalMatrix  # noqa: E402
from karalcp.predicates import PREDICATE_ORDER, PredicateConfig, evaluate_predicate  # noqa: E402
from test_metamorphic import SCALING_PROOFS, TRANSPOSE_PROOFS  # noqa: E402

CFG = PredicateConfig()
ORDER = 3
ROW_SCALE = (1, 2, 3)
COLUMN_SCALE = (3, 1, 2)


def canonical_forms(n: int = ORDER) -> list[tuple[int, ...]]:
    """The sorted canonical forms of the {-1, 0, 1} matrices of order n
    under permutation similarity, each as its n * n row-major entries."""
    perms = list(itertools.permutations(range(n)))
    forms = set()
    for flat in itertools.product((-1, 0, 1), repeat=n * n):
        forms.add(min(tuple(flat[p[i] * n + p[j]] for i in range(n) for j in range(n))
                      for p in perms))
    return sorted(forms)


def compare(flat, statuses: dict, b: RationalMatrix, names, tally: dict, kind: str) -> None:
    """Count in `tally` the conflicts between the class's `statuses` and
    its transform b on the named predicates, each printed to stderr, and
    the shifts between Unknown and a decided status."""
    for name in names:
        pair = {statuses[name], evaluate_predicate(name, b, CFG).status}
        if pair == {YES, NO}:
            tally[kind] += 1
            print(f"{kind}: {name} is {statuses[name]} on {flat}", file=sys.stderr)
        elif len(pair) == 2 and UNKNOWN in pair:
            tally["unknown_shifts"] += 1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args()
    unknown = dict.fromkeys(PREDICATE_ORDER, 0)
    digest = hashlib.sha256()
    q_unwitnessed = 0
    tally = dict.fromkeys(("transpose_conflicts", "scaling_conflicts", "unknown_shifts"), 0)
    forms = canonical_forms()
    for flat in forms:
        a = RationalMatrix.from_rows([flat[i * ORDER:(i + 1) * ORDER] for i in range(ORDER)])
        outcomes = {name: evaluate_predicate(name, a, CFG) for name in PREDICATE_ORDER}
        q = outcomes["q_matrix"]
        q_unwitnessed += q.status != UNKNOWN and "witnesses" not in q.certificate
        statuses = {name: outcome.status for name, outcome in outcomes.items()}
        for name, status in statuses.items():
            unknown[name] += status == UNKNOWN
        compare(flat, statuses, a.transpose(), TRANSPOSE_PROOFS, tally, "transpose_conflicts")
        scaled = [[ROW_SCALE[i] * t * COLUMN_SCALE[j] for j, t in enumerate(row)]
                  for i, row in enumerate(a.data)]
        compare(flat, statuses, RationalMatrix(ORDER, ORDER, scaled), SCALING_PROOFS, tally,
                "scaling_conflicts")
        line = " ".join(map(str, flat)) + " " + " ".join(statuses.values()) + "\n"
        digest.update(line.encode())
        sys.stdout.write(line)
    print(json.dumps({"classes": len(forms), "unknown": unknown,
                      "status_sha256": digest.hexdigest(), "q_unwitnessed": q_unwitnessed,
                      **tally}))


if __name__ == "__main__":
    main()
