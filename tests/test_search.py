import json
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
                assert common_rows(got) == (1, [[int(x) for x in row] for row in want.data])
                assert rng.getstate() == ref.getstate()

    def test_negative_entry_bound_raises_like_randint(self):
        with pytest.raises(ValueError):
            random_integer_matrix(random.Random(0), 2, -1, Fraction(1))
        with pytest.raises(ValueError):
            random_integer_matrix_fraction(random.Random(0), 2, -1, Fraction(1))


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
