"""Karamardian and Q-matrix verdicts over a seeded sample of invertible and
rank-deficient matrices: the rule counts and a digest of the statuses.

    python3 scripts/karamardian_census.py --seed 0 --count 240

Run it from the root of a checkout.  It draws `count` matrices from
random.Random(seed), of orders 3 to 5.  Even draws are invertible, with
integer entries in [-3, 3] (redrawn while singular).  Odd draws are
products F G of an n x (n-1) and an (n-1) x n integer matrix with entries
in [-2, 2], so their rank is below n.  On each it runs
conelcp.is_karamardian and lcp.is_q_matrix with their default arguments
and prints one JSON object: the count of each certificate rule
("Unknown" for Unknown) and the sha256 of the status lines, one
"<karamardian> <q_matrix>" line per matrix in draw order, and
`unknown_candidates_tried`, the number of candidate vectors d the
Karamardian Unknowns tried between them.

A change that only renames or retires a rule leaves the digest as it is;
a verdict that moves between Yes, No and Unknown changes it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from karalcp.conelcp import is_karamardian  # noqa: E402
from karalcp.lcp import is_q_matrix  # noqa: E402
from karalcp.matrix import RationalMatrix, determinant  # noqa: E402


def draw(rng: random.Random, index: int) -> RationalMatrix:
    """The index-th matrix: invertible when index is even, rank-deficient
    when it is odd."""
    n = rng.randint(3, 5)
    if index % 2:
        f = [[rng.randint(-2, 2) for _ in range(n - 1)] for _ in range(n)]
        g = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n - 1)]
        return RationalMatrix.from_rows(f) @ RationalMatrix.from_rows(g)
    while True:
        a = RationalMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if determinant(a) != 0:
            return a


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=240)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    rules = {"karamardian": Counter(), "q_matrix": Counter()}
    lines = []
    unknown_tried = 0
    for index in range(args.count):
        a = draw(rng, index)
        kara, q = is_karamardian(a), is_q_matrix(a)
        rules["karamardian"][kara.rule or "Unknown"] += 1
        rules["q_matrix"][q.rule or "Unknown"] += 1
        if kara.status == "Unknown":
            unknown_tried += len(kara.evidence["tried"])
        lines.append(f"{kara.status} {q.status}\n")
    print(json.dumps({
        "seed": args.seed,
        "count": args.count,
        "rules": {name: dict(sorted(c.items())) for name, c in rules.items()},
        "status_sha256": hashlib.sha256("".join(lines).encode()).hexdigest(),
        "unknown_candidates_tried": unknown_tried,
    }, indent=2))


if __name__ == "__main__":
    main()
