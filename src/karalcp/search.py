"""Seeded random search for counterexamples to the open questions.

Targets:
  phash-not-karamardian : P# matrices with nontrivial K that the exact
                          cascade does not certify Karamardian (the open
                          question is whether such matrices are always
                          Karamardian): a certified No is a counterexample
                          hit, with its rule and certificate, and an
                          Unknown an open hit.
  propc-not-phash       : Z-matrices with property c that are not P#
                          (open for n >= 4; settled affirmatively for
                          n <= 3, so order-3 runs must come up empty).

Every hit re-verifies its defining predicates before being emitted, and a
fixed seed reproduces the identical hit log byte for byte.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .conelcp import cone_K, is_karamardian
from .lcp import NO, YES
from .lcp_classes import is_p_hash
from .matrix import RationalMatrix, jsonable
from .minor_classes import has_property_c, structural_flags

TARGETS = ("phash-not-karamardian", "propc-not-phash")


@dataclass(frozen=True)
class SearchHit:
    trial: int
    matrix: RationalMatrix
    evidence: dict


def random_integer_matrix(rng: random.Random, n: int, entry_bound: int,
                          density: Fraction) -> RationalMatrix:
    """Integer entries in [-entry_bound, entry_bound]; each entry is zeroed
    with probability 1 - density.  Draw order is fixed row-major for
    reproducibility, one value and one random() per entry at every density.
    The value is randint's own draw, made without its call layers:
    getrandbits(k) for k the bit length of the 2 * entry_bound + 1 values,
    redrawn while out of range.  The entry is kept when the draw r is
    below density, tested exactly as r < t for t the least float >= density
    (`_threshold`): r is a float, so no float lies in [density, t) for it
    to fall in.  The matrix carries its rows of ints (`from_ints`), so the
    sieve's eliminations never rescale them, and builds no Fraction until
    one is read."""
    if entry_bound < 0:
        raise ValueError(f"entry_bound {entry_bound} is negative")
    t = _threshold(density)
    bits, draw = rng.getrandbits, rng.random
    width = 2 * entry_bound + 1
    k = width.bit_length()
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            v = bits(k)
            while v >= width:
                v = bits(k)
            row.append(v - entry_bound if draw() < t else 0)
        rows.append(row)
    return RationalMatrix.from_ints(rows)


def _threshold(density: Fraction) -> float:
    """The least float >= density, clamped to [0, 1] (random() is in
    [0, 1), so 0 keeps no entry and 1 keeps all).  float() rounds to the
    nearest float, which may fall below density by one step."""
    if density <= 0:
        return 0.0
    if density >= 1:
        return 1.0
    t = float(density)
    return t if t >= density else math.nextafter(t, 1.0)


def run_search(target: str, n: int, trials: int, seed: int = 0,
               density: Fraction = Fraction(1), entry_bound: int = 3,
               on_hit=None) -> list[SearchHit]:
    if target not in TARGETS:
        raise ValueError(f"unknown target '{target}'; expected one of {TARGETS}")
    rng = random.Random(seed)
    hits: list[SearchHit] = []
    for trial in range(trials):
        a = random_integer_matrix(rng, n, entry_bound, density)
        if target == "propc-not-phash":
            hit = _check_propc_not_phash(a)
        else:
            hit = _check_phash_not_karamardian(a)
        if hit is not None:
            record = SearchHit(trial, a, hit)
            hits.append(record)
            if on_hit is not None:
                on_hit(record)
    return hits


def _check_propc_not_phash(a: RationalMatrix) -> dict | None:
    if not structural_flags(a).z_matrix:
        return None
    if not has_property_c(a):
        return None
    if is_p_hash(a):
        return None
    # Re-verify the defining predicates from scratch, without a's caches.
    fresh = RationalMatrix.from_rows(a.data)
    if not (structural_flags(fresh).z_matrix and has_property_c(fresh) and not is_p_hash(fresh)):
        raise ArithmeticError("search hit failed re-verification")
    return {"z_matrix": True, "property_c": True, "p_hash": False}


def _check_phash_not_karamardian(a: RationalMatrix) -> dict | None:
    if not is_p_hash(a):
        return None
    cone = cone_K(a)
    if cone.trivial:
        return None
    verdict = is_karamardian(a)
    if verdict.status == YES:
        return None
    fresh = RationalMatrix.from_rows(a.data)
    if not (is_p_hash(fresh) and not cone_K(fresh).trivial):
        raise ArithmeticError("search hit failed re-verification")
    evidence = {
        "p_hash": True,
        "cone_nontrivial_witness": jsonable(cone.nontrivial_witness),
        "karamardian": verdict.status,
    }
    if verdict.status == NO:
        evidence.update(rule=verdict.rule, certificate=jsonable(verdict.witnesses))
    else:
        evidence["tried_candidates"] = jsonable(verdict.evidence["tried"])
    return evidence


def hit_to_json_line(hit: SearchHit, target: str, seed: int) -> str:
    payload = {
        "target": target,
        "seed": seed,
        "trial": hit.trial,
        "matrix": hit.matrix.to_json(),
        "evidence": hit.evidence,
    }
    return json.dumps(payload, sort_keys=False, separators=(",", ":"))
