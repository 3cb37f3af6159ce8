"""Deterministic count of the LPs that classification builds over the
seeded op list of the benchmark's classify workload.

    python3 scripts/lp_counts.py --seed 0 --ops 600

Run it from the root of a checkout.  It builds the op list with
perfbench/run.build (which imports the library afresh from src/), runs
the first --ops ops once, as perfbench/run.py does, and prints one JSON
object with the number of simplex tableaux built (constructions of
lp._Simplex, one per LP feasibility or optimization solve), the number of
simplex-point questions asked (misses of the per-matrix memo of
lcp_classes._simplex_point, whether an LP or a certificate answers them),
the number of Fraction matrix-vector products (calls of
RationalMatrix.mul_vec) and the number of Fraction matrix products (calls
of RationalMatrix.__matmul__).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ops", type=int, default=600)
    args = parser.parse_args()
    lib, ops = run.build("classify", args.seed)
    lp = sys.modules["karalcp.lp"]
    lcp_classes = sys.modules["karalcp.lcp_classes"]
    matrix = sys.modules["karalcp.matrix"]
    matrix_class = matrix.RationalMatrix
    built, questions, vector_products, products = [0], [0], [0], [0]

    class CountingSimplex(lp._Simplex):
        def __init__(self, system):
            built[0] += 1
            super().__init__(system)

    real_simplex_point = lcp_classes._simplex_point.__wrapped__

    def counting_simplex_point(a, *system):
        questions[0] += 1
        return real_simplex_point(a, *system)

    real_mul_vec = matrix_class.mul_vec

    def counting_mul_vec(self, v):
        vector_products[0] += 1
        return real_mul_vec(self, v)

    real_matmul = matrix_class.__matmul__

    def counting_matmul(self, other):
        products[0] += 1
        return real_matmul(self, other)

    lp._Simplex = CountingSimplex
    # the same memo key, so only a miss reaches the counter
    lcp_classes._simplex_point = matrix.memoized("simplex_point")(counting_simplex_point)
    matrix_class.mul_vec = counting_mul_vec
    matrix_class.__matmul__ = counting_matmul
    ops = ops[:args.ops]
    for op in ops:
        run.execute(lib, op)
    print(json.dumps({"seed": args.seed, "ops": len(ops), "simplex_builds": built[0],
                      "simplex_point_questions": questions[0],
                      "vector_products": vector_products[0],
                      "matrix_products": products[0]}))


if __name__ == "__main__":
    main()
