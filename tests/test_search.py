import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from pathlib import Path

from karalcp.conelcp import classify_2x2, cone_K, is_karamardian
from karalcp.lcp_classes import is_p_hash
from karalcp.matrix import RationalMatrix, common_rows, jsonable, subspace_bases
from karalcp.search import hit_to_json_line, random_integer_matrix, run_search
from oracles import random_integer_matrix_fraction


class TestReproducibility:
    def test_same_seed_same_hits(self):
        a = run_search("propc-not-phash", n=3, trials=500, seed=9)
        b = run_search("propc-not-phash", n=3, trials=500, seed=9)
        assert [(h.trial, h.matrix) for h in a] == [(h.trial, h.matrix) for h in b]

    def test_json_lines_parse(self):
        hits = run_search("phash-not-karamardian", n=3, trials=400, seed=2)
        for hit in hits:
            line = hit_to_json_line(hit, "phash-not-karamardian", 2)
            payload = json.loads(line)
            assert payload["matrix"]["rows"] == 3

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            run_search("bogus", n=2, trials=1)


class TestOrderTwoIsFullyClassified:
    def test_ten_thousand_trials_no_unknowns(self):
        """Every P# 2x2 with nontrivial K classifies decisively, so the
        open-question target logs no open hit at order 2 (and these trials
        give no counterexample either); as a cross-check, each P# sample
        with nontrivial K must classify Yes or No exactly."""
        hits = run_search("phash-not-karamardian", n=2, trials=10_000, seed=0)
        assert hits == []

    def test_p_hash_with_cone_classifies(self):
        from conftest import rand_int_matrix

        rng = random.Random(3)
        seen = 0
        while seen < 60:
            a = rand_int_matrix(rng, 2, 2)
            if not is_p_hash(a) or cone_K(a).trivial:
                continue
            seen += 1
            assert classify_2x2(a).status in ("Yes", "No")


class TestDensity:
    def test_sparser_draws_have_more_zeros(self):
        dense = run_search("propc-not-phash", n=3, trials=0, seed=0)
        assert dense == []  # zero trials, zero hits: smoke only
        rng = random.Random(0)
        sparse = [random_integer_matrix(rng, 4, 3, Fraction(1, 4)) for _ in range(50)]
        rng = random.Random(0)
        full = [random_integer_matrix(rng, 4, 3, Fraction(1)) for _ in range(50)]
        count0 = sum(1 for m in sparse for row in m.data for x in row if x == 0)
        count1 = sum(1 for m in full for row in m.data for x in row if x == 0)
        assert count0 > count1


TIE = Fraction(0.1)  # a representable float, as an exact Fraction
# 1 and 0, densities between floats, the largest float below 1, one below
# the least positive float, and densities on and next to a float
DENSITIES = [Fraction(1), Fraction(1, 4), Fraction(2, 3), Fraction(0), Fraction(1, 3),
             Fraction(2, 7), Fraction(2 ** 53 - 1, 2 ** 53), Fraction(1, 10 ** 400),
             TIE, TIE + Fraction(1, 2 ** 200), TIE - Fraction(1, 2 ** 200),
             Fraction(1, 2) + Fraction(1, 2 ** 200), Fraction(1, 2) - Fraction(1, 2 ** 200)]


class TestDrawAgainstFractionOracle:
    @pytest.mark.parametrize("density", DENSITIES)
    @pytest.mark.parametrize("entry_bound", [0, 1, 3, 7])
    def test_same_matrices_and_rng_state(self, density, entry_bound):
        """The int draw gives the oracle's matrices, with its rows of ints
        cached, and leaves the RNG where the Fraction draw leaves it."""
        for seed in range(5):
            rng, ref = random.Random(seed), random.Random(seed)
            for n in (1, 2, 3, 4, 4, 5):
                got = random_integer_matrix(rng, n, entry_bound, density)
                want = random_integer_matrix_fraction(ref, n, entry_bound, density)
                assert got == want
                assert common_rows(got) == (1, [[int(x) for x in row] for row in want.data])
                assert rng.getstate() == ref.getstate()

    def test_negative_entry_bound_raises_like_randint(self):
        with pytest.raises(ValueError):
            random_integer_matrix(random.Random(0), 2, -1, Fraction(1))
        with pytest.raises(ValueError):
            random_integer_matrix_fraction(random.Random(0), 2, -1, Fraction(1))


class ScriptedRandom(random.Random):
    """A seeded generator whose random() reads a fixed cycle of floats;
    getrandbits, and so randint, stay the seeded stream's."""

    def __init__(self, seed, floats):
        super().__init__(seed)
        self.floats = itertools.cycle(floats)

    def random(self):
        return next(self.floats)

    def getrandbits(self, k):
        return super().getrandbits(k)


def least_float_at_least(x: Fraction) -> float:
    f = float(x)
    while Fraction(f) < x:
        f = math.nextafter(f, math.inf)
    while Fraction(math.nextafter(f, -math.inf)) >= x:
        f = math.nextafter(f, -math.inf)
    return f


class TestDensityThreshold:
    """The one-float test r < t against the exact test r < density."""

    @pytest.mark.parametrize("density", DENSITIES)
    def test_draws_next_to_the_threshold_match_the_fraction_oracle(self, density):
        """Every float within two steps of density, and both ends of
        [0, 1), as draws: each is kept exactly when it is below density.
        With n draws cycling through an n x n matrix, column j reads draw j."""
        t = min(least_float_at_least(density), 1.0)
        near = {t}
        for _ in range(2):
            near |= {math.nextafter(f, d) for f in near for d in (-math.inf, math.inf)}
        floats = sorted(f for f in near | {0.0, math.ulp(0.0), math.nextafter(1.0, 0.0)}
                        if 0 <= f < 1)
        kept = [f < density for f in floats]
        assert (any(kept), all(kept)) == (density > 0, density >= 1)
        n = len(floats)
        got = random_integer_matrix(ScriptedRandom(1, floats), n, 1, density)
        assert got == random_integer_matrix_fraction(ScriptedRandom(1, floats), n, 1, density)
        values = random_integer_matrix(ScriptedRandom(1, floats), n, 1, Fraction(1))
        assert got.data == [[v if k else 0 for v, k in zip(row, kept)] for row in values.data]


class TestCounterexampleHits:
    def test_certified_no_is_logged_with_its_certificate(self):
        """A P# matrix with nontrivial K and a certified No is a
        counterexample hit carrying the rule, its certificate and the cone
        witness; an Unknown stays an open hit with its candidate log."""
        hits = run_search("phash-not-karamardian", n=4, trials=60, seed=3241744617)
        assert hits
        for hit in hits:
            payload = json.loads(hit_to_json_line(hit, "phash-not-karamardian", 0))
            evidence = payload["evidence"]
            verdict = is_karamardian(RationalMatrix.from_rows(hit.matrix.data))
            assert evidence["p_hash"] and evidence["karamardian"] == verdict.status
            witness = [Fraction(x) for x in evidence["cone_nontrivial_witness"]]
            assert min(witness) >= 0 and subspace_bases(hit.matrix).range.contains(witness)
            if verdict.status == "No":
                assert evidence["rule"] == verdict.rule
                assert evidence["certificate"] == jsonable(verdict.witnesses)
            else:
                assert verdict.status == "Unknown" and evidence["tried_candidates"]
        assert any(hit.evidence["karamardian"] == "No" for hit in hits)

    def test_committed_hit_log_is_reproduced(self):
        """scripts/hits_phash-not-karamardian_n4_seed0.jsonl is the 20,000
        order-4 trials at seed 0: its three hits are certified
        counterexamples, the two earlier open hits among them."""
        path = Path(__file__).resolve().parent.parent / "scripts" / \
            "hits_phash-not-karamardian_n4_seed0.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        hits = run_search("phash-not-karamardian", n=4, trials=20_000, seed=0)
        assert [hit_to_json_line(h, "phash-not-karamardian", 0) for h in hits] == lines
        assert len(lines) == 3
        assert all(json.loads(line)["evidence"]["karamardian"] == "No" for line in lines)
