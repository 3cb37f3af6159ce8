"""Deterministic counts of the bordering walk of lcp._block_entry over the
seeded op list of the benchmark's lcp workload.

    python3 scripts/walk_counts.py --seed 0 --ops 1000

Run it from the root of a checkout.  It solves every op of
perfbench/inputs.lcp_ops(seed, ops) once, as perfbench/run.py does, and
prints one JSON object: the blocks bordered from their parent's entry
(and how many of those came out singular), the blocks eliminated directly
because their parent is singular (and how many of those are singular), and
the nonempty supports skipped as singular by shape (0 < |S| < dim N(A^T)),
and the supports skipped before any block work because R(A) holds no
nonzero vector supported in them (`range_trivial`, cone LCPs only).  The
cone LCP's empty support, singular by shape too and the LP that decides
x = 0, is left out of the shape count.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402
from karalcp import conelcp, lcp  # noqa: E402
from karalcp.matrix import RationalMatrix  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ops", type=int, default=1000)
    args = parser.parse_args()
    counts = dict.fromkeys(("bordered", "bordered_singular", "eliminated",
                            "eliminated_singular", "shape_singular", "range_trivial"), 0)

    def counting(name, fn):
        def wrapped(*call):
            entry = fn(*call)
            counts[name] += 1
            counts[name + "_singular"] += entry is None
            return entry
        return wrapped

    def singular_support(a, q, null, support, table):
        counts["shape_singular"] += 0 < len(support) < len(null)
        return real_singular(a, q, null, support, table)

    real_singular = lcp._singular_support
    lcp._border = counting("bordered", lcp._border)
    lcp._det_adj = counting("eliminated", lcp._det_adj)
    lcp._singular_support = singular_support
    for op in inputs.lcp_ops(args.seed, args.ops):
        a = RationalMatrix.from_json(json.loads(op["matrix"], parse_float=Fraction))
        solve = lcp.lcp_solutions if op["kind"] == "lcp" else conelcp.cone_lcp_solutions
        solve(a, op["q"])
        counts["range_trivial"] += sum(sum(table.trivial.values()) for table in a._cache.values()
                                       if isinstance(table, lcp._BlockTable))
    print(json.dumps({"seed": args.seed, "ops": args.ops, **counts}))


if __name__ == "__main__":
    main()
