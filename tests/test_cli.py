import json
import subprocess
import sys
from pathlib import Path

import pytest

from karalcp import cli
from karalcp.errors import NonSquareError

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(args, tmp_path=None):
    env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}
    return subprocess.run([sys.executable, "-m", "karalcp.cli", *args],
                          capture_output=True, text=True, env=env)


def write_matrix(tmp_path, name, rows, cols=None, entries=None, raw=None):
    path = tmp_path / name
    if raw is not None:
        path.write_text(raw)
    else:
        n = len(rows)
        path.write_text(json.dumps({"rows": n, "cols": cols or len(rows[0]),
                                    "entries": entries or rows}))
    return str(path)


STCOPEX = [[1, -1, 0], [-1, 1, 0], [0, 0, 1]]
QNOTKAR = [[-1, -2, 1], [-1, -1, 3], [2, 1, -1]]


class TestClassify:
    def test_json_report_shape(self, tmp_path):
        path = write_matrix(tmp_path, "m.json", STCOPEX)
        res = run_cli(["classify", path, "--format", "json"])
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["schema"] == "1"
        by_name = {p["name"]: p for p in report["predicates"]}
        assert by_name["karamardian"]["status"] == "Yes"
        assert by_name["karamardian"]["certificate"]["rule"] == "STRICT_COPOSITIVE_ON_K"
        assert by_name["q_matrix"]["status"] == "No"
        for entry in report["predicates"]:
            if entry["status"] in ("Yes", "No"):
                assert "certificate" in entry

    def test_json_output_is_deterministic(self, tmp_path):
        path = write_matrix(tmp_path, "m.json", QNOTKAR)
        first = run_cli(["classify", path, "--format", "json", "--seed", "7"])
        second = run_cli(["classify", path, "--format", "json", "--seed", "7"])
        assert first.stdout == second.stdout and first.returncode == 0

    def test_p_hash_not_p0(self, tmp_path):
        path = write_matrix(tmp_path, "m.json", [[0, -1, -2], [0, 1, 2], [1, 1, 1]])
        res = run_cli(["classify", path, "--format", "json"])
        by_name = {p["name"]: p for p in json.loads(res.stdout)["predicates"]}
        assert by_name["p_hash"]["status"] == "Yes"
        assert by_name["p0"]["status"] == "No"

    def test_malformed_json_exits_2(self, tmp_path):
        path = write_matrix(tmp_path, "bad.json", None, raw="{not json")
        res = run_cli(["classify", path])
        assert res.returncode == 2
        assert "error" in res.stderr

    def test_wrong_field_named(self, tmp_path):
        path = write_matrix(tmp_path, "bad.json", None,
                            raw=json.dumps({"rows": 2, "cols": 2, "entries": [[1, 2]]}))
        res = run_cli(["classify", path])
        assert res.returncode == 2
        assert "entries" in res.stderr

    @pytest.mark.parametrize("obj", [
        {"rows": 0, "cols": 0, "entries": []},
        {"rows": True, "cols": True, "entries": [[1]]},
        {"rows": 1, "cols": 1, "entries": [[True]]},
    ])
    def test_empty_or_bool_input_exits_2_cleanly(self, tmp_path, obj):
        path = write_matrix(tmp_path, "bad.json", None, raw=json.dumps(obj))
        res = run_cli(["classify", path])
        assert res.returncode == 2
        assert "error" in res.stderr
        assert "Traceback" not in res.stderr

    def test_library_error_exits_2(self, tmp_path, monkeypatch, capsys):
        def refuse(name, matrix, cfg):
            raise NonSquareError("refused")
        monkeypatch.setattr(cli, "evaluate_predicate", refuse)
        code = cli.main(["classify", write_matrix(tmp_path, "m.json", STCOPEX)])
        assert code == 2
        assert "refused" in capsys.readouterr().err

    def test_cap_exceeded_exits_3(self, tmp_path):
        rows = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
        path = write_matrix(tmp_path, "m.json", rows)
        res = run_cli(["classify", path, "--cap", "4"])
        assert res.returncode == 3

    def test_rectangular_input(self, tmp_path):
        path = write_matrix(tmp_path, "m.json", [[1, 0, 0], [0, 1, 1]])
        res = run_cli(["classify", path, "--format", "json"])
        assert res.returncode == 0
        by_name = {p["name"]: p for p in json.loads(res.stdout)["predicates"]}
        assert by_name["semipositive"]["status"] == "Yes"
        assert by_name["p"]["status"] == "NotApplicable"
        assert by_name["karamardian"]["status"] == "NotApplicable"

    def test_skip_and_hint(self, tmp_path):
        path = write_matrix(tmp_path, "m.json", [[0, 1, 1], [-1, 1, 2], [1, 2, 1]])
        res = run_cli(["classify", path, "--format", "json",
                       "--skip", "q_matrix", "--hint-d", "[1,1,1]"])
        report = json.loads(res.stdout)
        names = [p["name"] for p in report["predicates"]]
        assert "q_matrix" not in names
        by_name = {p["name"]: p for p in report["predicates"]}
        assert by_name["karamardian"]["status"] == "Yes"


class TestLcpCommand:
    def test_counts_three_solutions(self, tmp_path):
        mpath = write_matrix(tmp_path, "m.json", QNOTKAR)
        qpath = tmp_path / "q.json"
        qpath.write_text("[1, 1, 1]")
        res = run_cli(["lcp", mpath, str(qpath)])
        assert res.returncode == 0
        assert "solutions: 3" in res.stdout

    def test_identity_negative_q(self, tmp_path):
        mpath = write_matrix(tmp_path, "m.json", [[1, 0], [0, 1]])
        qpath = tmp_path / "q.json"
        qpath.write_text("[-1, -1]")
        res = run_cli(["lcp", mpath, str(qpath)])
        assert "solutions: 1" in res.stdout
        assert "[1, 1]" in res.stdout

    def test_cone_flag(self, tmp_path):
        mpath = write_matrix(tmp_path, "m.json", [[1, -1, -1], [0, 0, -1], [0, 0, 0]])
        qpath = tmp_path / "q.json"
        qpath.write_text("[0, 0, 0]")
        res = run_cli(["lcp", mpath, str(qpath), "--cone"])
        assert res.returncode == 0
        assert "degenerate" in res.stdout


class TestVerifyCorpus:
    def test_full_run_passes(self):
        res = run_cli(["verify-corpus"])
        assert res.returncode == 0
        assert "FAIL" not in res.stdout

    def test_filter_2x2(self):
        res = run_cli(["verify-corpus", "--filter", "2x2"])
        assert res.returncode == 0

    def test_unknown_filter_exits_2(self):
        res = run_cli(["verify-corpus", "--filter", "nonexistent-tag"])
        assert res.returncode == 2

    def test_dump(self):
        res = run_cli(["verify-corpus", "--dump"])
        assert res.returncode == 0
        dump = json.loads(res.stdout)
        assert dump["schema"] == "1" and len(dump["entries"]) > 50

    def test_tampered_corpus_exits_1(self, monkeypatch, capsys):
        entries = cli.corpus_entries()
        bad = entries[0]
        tampered = type(bad)(id=bad.id, matrix=bad.matrix,
                             expected={**bad.expected, "p": "Yes", "p0": "No"},
                             hint_d=bad.hint_d, tags=bad.tags)
        monkeypatch.setattr(cli, "corpus_entries", lambda: [tampered] + entries[1:])
        code = cli.main(["verify-corpus"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out


class TestSearchCommand:
    def test_seeded_runs_are_identical(self, tmp_path):
        out1, out2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        args = ["search", "--target", "propc-not-phash", "--n", "3",
                "--trials", "400", "--seed", "5"]
        res1 = run_cli(args + ["--out", out1])
        res2 = run_cli(args + ["--out", out2])
        assert res1.returncode == res2.returncode == 0
        assert Path(out1).read_text() == Path(out2).read_text()

    def test_bad_density_exits_2(self, tmp_path):
        res = run_cli(["search", "--target", "propc-not-phash", "--n", "3",
                       "--trials", "1", "--density", "0"])
        assert res.returncode == 2

    def test_bad_target_exits_2(self):
        res = run_cli(["search", "--target", "bogus", "--n", "3", "--trials", "1"])
        assert res.returncode == 2

    def test_phash_target_emits_sound_hits(self, tmp_path):
        out = str(tmp_path / "hits.jsonl")
        res = run_cli(["search", "--target", "phash-not-karamardian", "--n", "2",
                       "--trials", "300", "--seed", "0", "--out", out])
        assert res.returncode == 0
        # 2x2 matrices are fully classified, so no Unknown survives
        assert Path(out).read_text() == ""
