import json
import random
from fractions import Fraction

import pytest

from karalcp.conelcp import classify_2x2, cone_K
from karalcp.lcp_classes import is_p_hash
from karalcp.matrix import integer_rows
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
        open-question target can never fire at order 2; as a cross-check,
        each P# sample with nontrivial K must classify Yes or No exactly."""
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


class TestDrawAgainstFractionOracle:
    @pytest.mark.parametrize("density", [Fraction(1), Fraction(1, 4), Fraction(2, 3)])
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
                assert integer_rows(got) == [([int(x) for x in row], 1) for row in want.data]
                assert rng.getstate() == ref.getstate()
