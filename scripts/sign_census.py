"""All 31 predicates on every order-3 matrix with entries in {-1, 0, 1},
up to permutation similarity: one status line per class, the Unknown
count per predicate and a digest of the lines.

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
witnesses.

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

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from karalcp.lcp import UNKNOWN  # noqa: E402
from karalcp.matrix import RationalMatrix  # noqa: E402
from karalcp.predicates import PREDICATE_ORDER, PredicateConfig, evaluate_predicate  # noqa: E402

ORDER = 3


def canonical_forms(n: int = ORDER) -> list[tuple[int, ...]]:
    """The sorted canonical forms of the {-1, 0, 1} matrices of order n
    under permutation similarity, each as its n * n row-major entries."""
    perms = list(itertools.permutations(range(n)))
    forms = set()
    for flat in itertools.product((-1, 0, 1), repeat=n * n):
        forms.add(min(tuple(flat[p[i] * n + p[j]] for i in range(n) for j in range(n))
                      for p in perms))
    return sorted(forms)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args()
    cfg = PredicateConfig()
    unknown = dict.fromkeys(PREDICATE_ORDER, 0)
    digest = hashlib.sha256()
    q_unwitnessed = 0
    forms = canonical_forms()
    for flat in forms:
        a = RationalMatrix.from_rows([flat[i * ORDER:(i + 1) * ORDER] for i in range(ORDER)])
        outcomes = {name: evaluate_predicate(name, a, cfg) for name in PREDICATE_ORDER}
        q = outcomes["q_matrix"]
        q_unwitnessed += q.status != UNKNOWN and "witnesses" not in q.certificate
        statuses = [outcome.status for outcome in outcomes.values()]
        for name, status in zip(PREDICATE_ORDER, statuses):
            unknown[name] += status == UNKNOWN
        line = " ".join(map(str, flat)) + " " + " ".join(statuses) + "\n"
        digest.update(line.encode())
        sys.stdout.write(line)
    print(json.dumps({"classes": len(forms), "unknown": unknown,
                      "status_sha256": digest.hexdigest(), "q_unwitnessed": q_unwitnessed}))


if __name__ == "__main__":
    main()
