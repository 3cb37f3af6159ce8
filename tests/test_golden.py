"""Golden digests of the CLI's outputs on the whole corpus.

For every corpus entry `tests/golden_seed0.json` holds the sha256 of
`classify --format json` (with the entry's `--hint-d`) and of `lcp` and
`lcp --cone` stdout for q = 0, q = 1 and two fixed mixed-sign q.  Any
change to a verdict, certificate, solution, family representative or
degenerate support changes a digest.

Regenerate only when an output is meant to change:
    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

from karalcp import cli
from karalcp.corpus import corpus_entries

GOLDEN = Path(__file__).resolve().parent / "golden_seed0.json"


def _q_vectors(n: int) -> dict[str, list[int]]:
    return {
        "q0": [0] * n,
        "q1": [1] * n,
        "qa": [(i + 1) * (-1) ** i for i in range(n)],
        "qb": [2 if i % 2 else -1 for i in range(n)],
    }


def _run_in_process(args) -> str:
    """Exit code and stdout of one in-process CLI run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(args)
    return f"exit {code}\n{buf.getvalue()}"


def entry_digests(entry, workdir: Path) -> dict[str, str]:
    """Digest of each CLI output recorded for one corpus entry."""
    mpath = workdir / "m.json"
    mpath.write_text(json.dumps(entry.matrix.to_json()))
    hints = []
    for d in entry.hint_d:
        hints += ["--hint-d", json.dumps([str(x) for x in d])]
    outputs = {"classify": _run_in_process(["classify", str(mpath), "--format", "json", *hints])}
    qpath = workdir / "q.json"
    for name, q in _q_vectors(entry.matrix.rows).items():
        qpath.write_text(json.dumps(q))
        outputs[f"lcp_{name}"] = _run_in_process(["lcp", str(mpath), str(qpath)])
        outputs[f"cone_{name}"] = _run_in_process(["lcp", str(mpath), str(qpath), "--cone"])
    return {k: hashlib.sha256(v.encode()).hexdigest() for k, v in outputs.items()}


def test_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    entries = corpus_entries()
    assert sorted(golden) == sorted(e.id for e in entries)
    t0 = time.perf_counter()
    mismatches = []
    for entry in entries:
        got = entry_digests(entry, tmp_path)
        want = golden[entry.id]
        assert sorted(got) == sorted(want), entry.id
        mismatches += [f"{entry.id}: {kind}" for kind in sorted(got) if got[kind] != want[kind]]
    assert not mismatches, "outputs differ from the golden digests:\n" + "\n".join(mismatches)
    assert time.perf_counter() - t0 < 15


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        golden = {entry.id: entry_digests(entry, Path(tmp)) for entry in corpus_entries()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} entries -> {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    record()
