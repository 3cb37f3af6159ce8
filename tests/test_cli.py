import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from karalcp import cli
from karalcp.errors import NonSquareError

SRC = str(Path(__file__).resolve().parent.parent / "src")


def cli_env() -> dict:
    """A bare environment for CLI subprocesses; it keeps
    PYTHONDONTWRITEBYTECODE when set, so such a run leaves no bytecode in src/."""
    env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


def run_cli(args, tmp_path=None):
    return subprocess.run([sys.executable, "-m", "karalcp.cli", *args],
                          capture_output=True, text=True, env=cli_env())


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
        assert report["schema"] == "4"
        assert sorted(report) == ["config", "matrix", "predicates", "schema", "tool"]
        assert sorted(report["config"]) == ["cap", "hint_d", "skip"]
        by_name = {p["name"]: p for p in report["predicates"]}
        assert by_name["karamardian"]["status"] == "Yes"
        assert by_name["karamardian"]["certificate"] == {
            "rule": "CANDIDATE_D", "witnesses": {"d": ["1", "1", "1"]}}
        assert by_name["q_matrix"]["status"] == "No"
        for entry in report["predicates"]:
            if entry["status"] in ("Yes", "No"):
                assert "certificate" in entry

    def test_json_output_is_deterministic(self, tmp_path):
        """The report depends only on the matrix and the flags: two runs
        give the same bytes."""
        path = write_matrix(tmp_path, "m.json", QNOTKAR)
        first = run_cli(["classify", path, "--format", "json"])
        second = run_cli(["classify", path, "--format", "json"])
        assert first.stdout == second.stdout and first.returncode == 0

    @pytest.mark.parametrize("command", ["classify", "verify-corpus"])
    def test_seed_flag_exits_2(self, tmp_path, capsys, command):
        """Only `search` takes a seed."""
        args = [command]
        if command == "classify":
            args.append(write_matrix(tmp_path, "m.json", QNOTKAR))
        assert cli.main(args + ["--seed", "1"]) == 2
        assert "--seed" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", [["classify"], ["lcp"], ["lcp", "--cone"]])
    def test_cap_cannot_raise_the_library_limit(self, tmp_path, capsys, command):
        rows = [[1 if i == j else 0 for j in range(13)] for i in range(13)]
        args = [command[0], write_matrix(tmp_path, "m.json", rows)]
        if command[0] == "lcp":
            (tmp_path / "q.json").write_text(json.dumps([0] * 13))
            args.append(str(tmp_path / "q.json"))
        assert cli.main(args + command[1:] + ["--cap", "13"]) == 3
        assert "order 13 exceeds cap 12" in capsys.readouterr().err

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

    def test_wrong_length_hint_exits_2(self, tmp_path):
        path = write_matrix(tmp_path, "m.json", [[0, 1, 1], [-1, 1, 2], [1, 2, 1]])
        res = run_cli(["classify", path, "--hint-d", "[3,1]"])
        assert res.returncode == 2
        assert "candidate d [3, 1]" in res.stderr
        assert "Traceback" not in res.stderr

    def test_p_hash_label_names_the_method(self):
        """An invertible matrix is P# iff it is P, read off its principal
        minors; a singular one asks one LP per sign orthant."""
        from karalcp.matrix import RationalMatrix
        from karalcp.predicates import PredicateConfig, evaluate_predicate

        for rows, method in ((QNOTKAR, "minor-scan"), (STCOPEX, "orthant lp")):
            out = evaluate_predicate("p_hash", RationalMatrix.from_rows(rows), PredicateConfig())
            assert out.certificate == {"by": method}

    def test_max_candidates_is_an_unrecognized_flag(self, tmp_path):
        path = write_matrix(tmp_path, "m.json", STCOPEX)
        res = run_cli(["classify", path, "--format", "json", "--max-candidates", "3"])
        assert res.returncode == 2
        assert "unrecognized arguments: --max-candidates" in res.stderr and res.stdout == ""
        assert "Traceback" not in res.stderr


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
        """--seed picks the trial stream: the same seed writes the same hit
        log, each hit naming the seed, and another seed another log."""
        out1, out2, out3 = (str(tmp_path / f"{name}.jsonl") for name in "abc")
        args = ["search", "--target", "phash-not-karamardian", "--n", "4", "--trials", "60"]
        res1 = run_cli(args + ["--seed", "3241744617", "--out", out1])
        res2 = run_cli(args + ["--seed", "3241744617", "--out", out2])
        res3 = run_cli(args + ["--seed", "0", "--out", out3])
        assert res1.returncode == res2.returncode == res3.returncode == 0
        log = Path(out1).read_text()
        assert log and log == Path(out2).read_text() != Path(out3).read_text()
        assert all(json.loads(line)["seed"] == 3241744617 for line in log.splitlines())

    def test_bad_density_exits_2(self, tmp_path):
        res = run_cli(["search", "--target", "propc-not-phash", "--n", "3",
                       "--trials", "1", "--density", "0"])
        assert res.returncode == 2

    def test_entry_bound_beyond_bit_cap_exits_3(self, tmp_path):
        """--entry-bound is held to the 256-bit contract like --density: a
        bound one bit longer exits 3 and writes no hit file, while a 256-bit
        bound runs."""
        args = ["search", "--target", "propc-not-phash", "--n", "3", "--trials", "2"]
        out = tmp_path / "hits.jsonl"
        res = run_cli(args + ["--entry-bound", str(2 ** 256), "--out", str(out)])
        assert res.returncode == 3
        assert "Traceback" not in res.stderr and not out.exists()
        res = run_cli(args + ["--entry-bound", str(2 ** 256 - 1), "--out", str(out)])
        assert res.returncode == 0
        assert out.exists()

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


class TestExitCodes:
    @pytest.mark.parametrize("args, code", [
        (["verify-corpus", "--cap", "2"], 3),
        (["search", "--target", "propc-not-phash", "--n", "13", "--trials", "1"], 3),
        (["search", "--target", "propc-not-phash", "--n", "0", "--trials", "1"], 2),
        (["search", "--target", "propc-not-phash", "--n", "-2", "--trials", "1"], 2),
        (["search", "--target", "propc-not-phash", "--n", "3", "--trials", "-5"], 2),
        (["search", "--target", "propc-not-phash", "--n", "3", "--trials", "1",
          "--entry-bound", "-1"], 2),
        (["search", "--target", "propc-not-phash", "--n", "3", "--trials", "1",
          "--out", "/nonexistent/x.jsonl"], 2),
        # --density is read like every number from outside: an exponent or
        # entry past 256 bits exits 3 before any power of ten is built
        (["search", "--target", "propc-not-phash", "--n", "3", "--trials", "1",
          "--density", "1e-3000000"], 3),
        (["search", "--target", "propc-not-phash", "--n", "3", "--trials", "1",
          "--density", "1/%d" % 2 ** 300], 3),
        (["search", "--target", "propc-not-phash", "--n", "3", "--trials", "1",
          "--density", "half"], 2),
        (["search", "--target", "propc-not-phash", "--n", "3", "--trials", "1",
          "--density", "1/0"], 2),
        # --entry-bound too: 5,000 digits exit 3 before int() would refuse them
        pytest.param(["search", "--target", "propc-not-phash", "--n", "3", "--trials", "1",
                      "--entry-bound", "1" * 5000], 3, id="5000-digit-entry-bound"),
        (["search", "--target", "propc-not-phash", "--n", "3", "--trials", "1",
          "--entry-bound", "three"], 2),
    ])
    def test_bad_flags_exit_cleanly(self, args, code):
        res = run_cli(args)
        assert res.returncode == code
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("entry, hint, q", [
        ("1e200000", None, None),
        (str(10 ** 80), None, None),
        ("1", "[1e300]", None),
        ("1", None, '["1/%d"]' % 2 ** 300),
        # 5,000 digits, past the 4,300 that int() converts: refused before
        # the conversion, as a JSON integer or inside a string
        pytest.param("1" * 5000, None, None, id="5000-digit-integer"),
        pytest.param('"%s"' % ("1" * 5000), None, None, id="5000-digit-string"),
        pytest.param("1", "[%s]" % ("1" * 5000), None, id="5000-digit-hint"),
        pytest.param("1", '["1.%s"]' % ("1" * 5000), None, id="5000-digit-hint-decimal"),
        pytest.param("1", None, "[-%s]" % ("1" * 5000), id="5000-digit-q"),
        pytest.param("1", None, '["1/%s"]' % ("1" * 5000), id="5000-digit-q-denominator"),
    ])
    def test_entry_beyond_bit_cap_exits_3(self, tmp_path, entry, hint, q):
        path = write_matrix(tmp_path, "m.json", None,
                            raw='{"rows": 1, "cols": 1, "entries": [[%s]]}' % entry)
        if q is None:
            args = ["classify", path] + (["--hint-d", hint] if hint else [])
        else:
            (tmp_path / "q.json").write_text(q)
            args = ["lcp", path, str(tmp_path / "q.json")]
        t0 = time.perf_counter()
        res = run_cli(args)
        assert res.returncode == 3
        assert "Traceback" not in res.stderr
        assert time.perf_counter() - t0 < 5

    def test_lower_interpreter_digit_limit_exits_3(self, tmp_path):
        """Under PYTHONINTMAXSTRDIGITS=1000 a 2,000-digit entry is refused
        by the digit count (exit 3), not by int() (exit 2)."""
        path = write_matrix(tmp_path, "m.json", None,
                            raw='{"rows": 1, "cols": 1, "entries": [[%s]]}' % ("1" * 2000))
        res = subprocess.run([sys.executable, "-m", "karalcp.cli", "classify", path],
                             capture_output=True, text=True,
                             env={**cli_env(), "PYTHONINTMAXSTRDIGITS": "1000"})
        assert res.returncode == 3
        assert "Traceback" not in res.stderr
        if hasattr(sys, "get_int_max_str_digits"):
            assert "more than 1000 digits" in res.stderr

    def test_closed_stdout_exits_141(self):
        # A 4 KiB pipe is smaller than the dump, so the writer is still
        # writing when the pipe closes.
        proc = subprocess.Popen([sys.executable, "-m", "karalcp.cli", "verify-corpus", "--dump"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(),
                                pipesize=4096)
        assert proc.stdout.readline().strip() == b"{"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 141
        assert b"Traceback" not in err and b"Exception ignored" not in err


# Raw JSON tokens a fuzzed document may carry in place of any value.
FUZZ_TOKENS = ["NaN", "Infinity", "-Infinity", "true", "false", "null", "1e200000",
               "-1e-99999", "1e308", "0.5", '"1/0"', '"1/3"', '"x"', '""', "[]", "{}",
               "[[1]]", str(10 ** 100), "-7", '"1e999999999"', '"-2.5e1"']


def _mutate(rng: random.Random, doc):
    """One random change to a JSON document held as Python data; a string
    "@TOKEN@" stands for the raw JSON text TOKEN."""
    slots = []

    def walk(node):
        children = enumerate(node) if isinstance(node, list) else (
            node.items() if isinstance(node, dict) else ())
        for key, child in children:
            slots.append((node, key))
            walk(child)

    walk(doc)
    if not slots:
        return "@" + rng.choice(FUZZ_TOKENS) + "@"
    parent, key = rng.choice(slots)
    value = parent[key]
    kind = rng.randrange(5)
    if kind == 0:
        parent[key] = "@" + rng.choice(FUZZ_TOKENS) + "@"
    elif kind == 1:  # nesting, rarely deep enough to exhaust the JSON parser
        parent[key] = [value] if rng.random() < 0.95 else "@" + "[" * 100000 + "@"
    elif kind == 2 and isinstance(value, list):  # wrong length
        if rng.random() < 0.5:
            value.append(value[-1] if value else 1)
        elif value:
            value.pop()
    elif kind == 3:  # wrong type or a huge shape
        parent[key] = rng.choice([10 ** 9, 13, 0, -1, 2.5, "2"])
    elif isinstance(parent, list):
        parent.pop(key)
    else:
        del parent[key]
    return doc


def _fuzzed_text(rng: random.Random, obj) -> str:
    doc = json.loads(json.dumps(obj))
    for _ in range(rng.randint(1, 3)):
        doc = _mutate(rng, doc)
    text = re.sub(r'"@(.*?)@"', lambda m: m.group(1).replace('\\"', '"'), json.dumps(doc))
    if rng.random() < 0.2:
        text = text[:rng.randrange(len(text) + 1)]
    return text


def test_fuzzed_input_exits_0_2_or_3(tmp_path, capsys):
    """Seeded fuzz of classify and lcp: malformed matrices, q and --hint-d
    vectors always end in exit 0, 2 or 3, never in an escaping exception."""
    rng = random.Random(20261018)
    bases = [STCOPEX, QNOTKAR, [[1]], [[0, "1/2"], ["-3/4", "2"]], [[1, 2, 3], [4, 5, 6]]]
    identity13 = [[int(i == j) for j in range(13)] for i in range(13)]
    seen = set()
    for case in range(200):
        rows = rng.choice(bases + [identity13] * (case % 25 == 0))
        matrix = {"rows": len(rows), "cols": len(rows[0]), "entries": rows}
        n = len(rows)
        vector = [rng.randint(-2, 2) for _ in range(n)]
        mpath, qpath = tmp_path / "m.json", tmp_path / "q.json"
        mutate_matrix = rng.random() < 0.5
        mpath.write_text(_fuzzed_text(rng, matrix) if mutate_matrix else json.dumps(matrix))
        vtext = json.dumps(vector) if mutate_matrix else _fuzzed_text(rng, vector)
        if rng.random() < 0.5:
            args = ["classify", str(mpath), "--hint-d", vtext,
                    "--format", rng.choice(["json", "text"])]
        else:
            qpath.write_text(vtext)
            args = ["lcp", str(mpath), str(qpath)] + ["--cone"] * rng.randrange(2)
        code = cli.main(args)
        capsys.readouterr()
        assert code in (0, 2, 3), args
        seen.add(code)
    assert seen == {0, 2, 3}
