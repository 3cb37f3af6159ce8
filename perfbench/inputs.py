"""Seeded op lists for the three workloads.

An op is a plain dict.  Matrices travel as JSON text, and every execution
parses a fresh RationalMatrix from it, so no per-instance cache (rref, det,
inverse, bases) carries from one op to the next, as with separate
`karalcp classify` calls.  The same seed always gives the same list.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import checks

# The two open hits committed in scripts/hits_phash-not-karamardian_n4_seed0.jsonl
# (trials 2864 and 12381 of `karalcp search phash-not-karamardian --n 4`).
OPEN_HITS = (
    [[1, 1, 3, 2], [-2, 3, -2, -2], [-2, 1, 2, 0], [-2, -3, 0, -1]],
    [[1, 3, 1, 1], [-3, 0, -1, -3], [-3, -1, 3, -3], [3, 3, 0, 3]],
)

ENTRY_BOUND = 3

# Classify rounds: each holds eight corpus entries in turn, three open hits
# in turn, three random matrices of order 3 and two of order 4.  Every fourth
# round adds one of order 5 and every sixteenth one of order 6.  A random
# order-6 matrix costs 0.1 to 1.6 s, order 5 a third and order 3 a
# thirtieth of that, so a run sees only a few large matrices: with more, one
# seed's draw of them would swing a run's throughput by more than its bound.
# The open hits are the slowest fixed inputs (each ends in an exhausted
# Karamardian candidate search); at three per round they fill about the
# 80th to the 97th op-time percentile, so op_ms_p90 does not hinge on the
# seed's draw.
CLASSIFY_CYCLE = 16
CORPUS_PER_ROUND = 8
HITS_PER_ROUND = 3
SEARCH_TRIALS_PER_OP = 25
LCP_ORDERS = (6, 7, 8)
CONE_ORDERS = (4, 5, 6)


def _matrix_json(rows: list[list[int]]) -> str:
    return json.dumps({"rows": len(rows), "cols": len(rows[0]), "entries": rows})


def _random_rows(rng: random.Random, n: int) -> list[list[int]]:
    return [[rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in range(n)] for _ in range(n)]


def classify_ops(seed: int, rounds: int, corpus) -> list[dict]:
    """`corpus` is a list of (id, matrix JSON dict, hint_d, expected)."""
    rng = random.Random(f"classify-{seed}")
    ops = []
    k = 0
    for r in range(rounds):
        for _ in range(CORPUS_PER_ROUND):
            cid, mjson, hint_d, expected = corpus[k % len(corpus)]
            k += 1
            ops.append({"kind": "classify", "label": cid, "matrix": json.dumps(mjson),
                        "hint_d": hint_d, "expected": expected})
        for h in range(r * HITS_PER_ROUND, (r + 1) * HITS_PER_ROUND):
            ops.append({"kind": "classify", "label": f"open_hit_{h % 2}",
                        "matrix": _matrix_json(OPEN_HITS[h % 2]), "hint_d": [],
                        "expected": {"p_hash": "Yes"}})
        orders = [3, 3, 3, 4, 4] + [5] * (r % 4 == 0) + [6] * (r % CLASSIFY_CYCLE == 0)
        for n in orders:
            ops.append({"kind": "classify", "label": f"random_{n}",
                        "matrix": _matrix_json(_random_rows(rng, n)), "hint_d": [],
                        "expected": {}})
    return ops


def search_ops(seed: int, count: int) -> list[dict]:
    rng = random.Random(f"search-{seed}")
    return [{"kind": "search", "label": "chunk", "seed": rng.getrandbits(32),
             "trials": SEARCH_TRIALS_PER_OP} for _ in range(count)]


def _mixed_q(rng: random.Random, n: int) -> list[int]:
    while True:
        q = [rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in range(n)]
        if min(q) < 0 < max(q):
            return q


def _rank_deficient(rng: random.Random, n: int) -> list[list[int]]:
    """A = B C of rank n-1 or n-2 whose range holds B's positive first
    column, so K = R^n_+ meet R(A) is nontrivial."""
    r = n - rng.randint(1, 2)
    while True:
        b = [[rng.randint(1, ENTRY_BOUND)] + [rng.randint(-ENTRY_BOUND, ENTRY_BOUND)
                                               for _ in range(r - 1)] for _ in range(n)]
        c = [[rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in range(n)] for _ in range(r)]
        a = [[sum(b[i][k] * c[k][j] for k in range(r)) for j in range(n)] for i in range(n)]
        if checks.rank([[Fraction(x) for x in row] for row in a]) == r:
            return a


def _nilpotent_family(rng: random.Random, n: int) -> tuple[list[list[int]], list[int]]:
    """A = u v^T with u > 0 and v.u = 0, and a mixed-sign q with u.q = 0.

    Then K is the ray of u, Au = 0 and every t u with t >= 0 solves the cone
    LCP, so the solution set has a positive-dimensional family: random
    rank-deficient matrices almost never give one.
    """
    while True:
        u = [rng.randint(1, ENTRY_BOUND) for _ in range(n - 1)] + [1]
        v = [rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in range(n - 1)]
        v.append(-sum(x * y for x, y in zip(u, v)))
        q = [rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in range(n - 1)]
        q.append(-sum(x * y for x, y in zip(u, q)))
        if any(v) and min(q) < 0 < max(q):
            return [[x * y for y in v] for x in u], q


def lcp_ops(seed: int, count: int) -> list[dict]:
    """Standard and cone LCPs in turn, each with its own matrix and one q.

    Every fourth cone LCP has a degenerate solution family."""
    rng = random.Random(f"lcp-{seed}")
    ops = []
    for i in range(count):
        if i % 2 == 0:
            n = LCP_ORDERS[(i // 2) % len(LCP_ORDERS)]
            ops.append({"kind": "lcp", "label": f"lcp_{n}",
                        "matrix": _matrix_json(_random_rows(rng, n)), "q": _mixed_q(rng, n)})
        elif i % 8 == 7:
            n = CONE_ORDERS[(i // 8) % len(CONE_ORDERS)]
            a, q = _nilpotent_family(rng, n)
            ops.append({"kind": "cone", "label": f"cone_family_{n}", "matrix": _matrix_json(a),
                        "q": q, "family": list(range(n))})
        else:
            n = CONE_ORDERS[(i // 2) % len(CONE_ORDERS)]
            ops.append({"kind": "cone", "label": f"cone_{n}",
                        "matrix": _matrix_json(_rank_deficient(rng, n)), "q": _mixed_q(rng, n)})
    return ops
