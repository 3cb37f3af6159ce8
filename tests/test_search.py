import json
from fractions import Fraction

import pytest

from karalcp.conelcp import classify_2x2, cone_K
from karalcp.lcp_classes import is_p_hash
from karalcp.search import hit_to_json_line, run_search


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
        import random

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
        from karalcp.search import random_integer_matrix
        import random

        rng = random.Random(0)
        sparse = [random_integer_matrix(rng, 4, 3, Fraction(1, 4)) for _ in range(50)]
        rng = random.Random(0)
        full = [random_integer_matrix(rng, 4, 3, Fraction(1)) for _ in range(50)]
        count0 = sum(1 for m in sparse for row in m.data for x in row if x == 0)
        count1 = sum(1 for m in full for row in m.data for x in row if x == 0)
        assert count0 > count1
