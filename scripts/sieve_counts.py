"""Deterministic counts of the P# sieve over the seeded op list of the
benchmark's search workload, and a digest of its hit log.

    python3 scripts/sieve_counts.py --seed 0 --ops 1000 --digest-ops 4000

Run it from the root of a checkout.  It runs every op of
perfbench/inputs.search_ops(seed, ops) once, as perfbench/run.py does, and
prints one JSON object: the calls of lcp_classes.is_p_hash, the trials
whose matrix is singular and those that are P#, the LPs that lcp_classes
solves, the rows scaled to integers (calls of matrix.integer_row, as
left_null_rows and solve_linear make them; common_rows, which rref,
determinant, inverse and matmul read, puts a whole matrix over one
denominator and is not counted) and the integer eliminations that
minor_classes runs (its calls of matrix._eliminate).  With --digest-ops
it then runs the first that many ops again, uncounted, and adds the
sha256 of their hit lines (search.hit_to_json_line, one per hit, in op
order).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402
from karalcp import lcp_classes, matrix, minor_classes, search  # noqa: E402
from karalcp.matrix import determinant  # noqa: E402

TARGET = "phash-not-karamardian"


def _run(ops):
    for op in ops:
        yield op, search.run_search(TARGET, n=4, trials=op["trials"], seed=op["seed"],
                                    entry_bound=inputs.ENTRY_BOUND)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ops", type=int, default=1000)
    parser.add_argument("--digest-ops", type=int, default=0)
    args = parser.parse_args()
    counts = dict.fromkeys(("is_p_hash_calls", "singular_trials", "p_hash_trials",
                            "lcp_classes_lps", "row_scalings", "minor_eliminations"), 0)
    real_p_hash, real_lp = lcp_classes.is_p_hash, lcp_classes.lp_feasible
    real_row, real_eliminate = matrix.integer_row, minor_classes._eliminate
    real_random_matrix = search.random_integer_matrix
    drawn = []

    def random_matrix(*args):
        drawn.append(real_random_matrix(*args))
        return drawn[-1]

    def sieve(a):
        counts["is_p_hash_calls"] += 1
        verdict = real_p_hash(a)
        if drawn and a is drawn[-1]:  # the trial's own test, not a hit's re-verification
            drawn.pop()
            counts["singular_trials"] += determinant(a) == 0
            counts["p_hash_trials"] += verdict
        return verdict

    def lp(system):
        counts["lcp_classes_lps"] += 1
        return real_lp(system)

    def row(values):
        counts["row_scalings"] += 1
        return real_row(values)

    def eliminate(rows, ncols):
        counts["minor_eliminations"] += 1
        return real_eliminate(rows, ncols)

    search.random_integer_matrix, search.is_p_hash, lcp_classes.lp_feasible = \
        random_matrix, sieve, lp
    matrix.integer_row, minor_classes._eliminate = row, eliminate
    for _ in _run(inputs.search_ops(args.seed, args.ops)):
        pass
    search.random_integer_matrix, search.is_p_hash, lcp_classes.lp_feasible = \
        real_random_matrix, real_p_hash, real_lp
    matrix.integer_row, minor_classes._eliminate = real_row, real_eliminate
    result = {"seed": args.seed, "ops": args.ops, **counts}
    if args.digest_ops:
        digest = hashlib.sha256()
        hits = 0
        for op, found in _run(inputs.search_ops(args.seed, args.digest_ops)):
            for hit in found:
                digest.update(search.hit_to_json_line(hit, TARGET, op["seed"]).encode() + b"\n")
                hits += 1
        result.update(digest_ops=args.digest_ops, hits=hits, hit_log_sha256=digest.hexdigest())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
