"""Command-line surface: classify, lcp, verify-corpus, search.

Exit codes: 0 success, 1 corpus mismatch, 2 parse/flag error, 3 size cap
exceeded, 141 stdout closed early (128 + SIGPIPE).  The JSON report
(schema "4") is the stable contract and depends only on the matrix and
the flags, byte for byte; the text format is for humans and carries
per-predicate wall times.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .corpus import corpus_entries, corpus_to_json, verify_entry
from .errors import KaralcpError, TooLargeError
from .lcp import lcp_solutions
from .conelcp import cone_lcp_solutions
from .matrix import ENUMERATION_CAP, MAX_ENTRY_BITS, RationalMatrix, Vector, bounded_rat, jsonable
from .predicates import PREDICATE_ORDER, PredicateConfig, evaluate_predicate
from .search import TARGETS, hit_to_json_line, run_search

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_TOO_LARGE = 3
EXIT_BROKEN_PIPE = 141


def _fail(code: int, message: str) -> int:
    print(f"karalcp: error: {message}", file=sys.stderr)
    return code


def _parse_json(text: str):
    # Decimals stay strings, so bounded_rat checks them before parsing.
    try:
        return json.loads(text, parse_float=str)
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply") from exc


def _load_matrix(path: str) -> RationalMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return RationalMatrix.from_json(_parse_json(fh.read()))


def _parse_vector(text: str) -> Vector:
    obj = _parse_json(text)
    if not isinstance(obj, list):
        raise ValueError("a vector must be a JSON list")
    return tuple(bounded_rat(x) for x in obj)


def _require_order(matrix: RationalMatrix, args) -> None:
    """`--cap` can lower the library's ENUMERATION_CAP, not raise it."""
    if max(matrix.rows, matrix.cols) > args.cap:
        raise TooLargeError(f"matrix order {max(matrix.rows, matrix.cols)} exceeds cap {args.cap}")


def cmd_classify(args) -> int:
    try:
        matrix = _load_matrix(args.matrix)
    except ValueError as exc:
        return _fail(EXIT_PARSE, str(exc))
    _require_order(matrix, args)
    hints = []
    for raw in args.hint_d or []:
        try:
            hints.append(_parse_vector(raw))
        except ValueError as exc:
            return _fail(EXIT_PARSE, f"bad --hint-d {raw!r}: {exc}")
    skip = set()
    for raw in args.skip or []:
        skip.update(p.strip() for p in raw.split(",") if p.strip())
    unknown = skip.difference(PREDICATE_ORDER)
    if unknown:
        return _fail(EXIT_PARSE, f"--skip names unknown predicates: {sorted(unknown)}")
    cfg = PredicateConfig(hint_d=tuple(hints))
    rows = []
    for name in PREDICATE_ORDER:
        if name in skip:
            continue
        t0 = time.perf_counter()
        outcome = evaluate_predicate(name, matrix, cfg)
        rows.append((name, outcome, time.perf_counter() - t0))
    if args.format == "json":
        report = {
            "schema": "4",
            "tool": f"karalcp {__version__}",
            "config": {
                "cap": args.cap,
                "hint_d": [jsonable(h) for h in hints],
                "skip": sorted(skip),
            },
            "matrix": matrix.to_json(),
            "predicates": [
                {"name": name, "status": out.status, "certificate": jsonable(out.certificate)}
                for name, out, _ in rows
            ],
        }
        print(json.dumps(report, indent=2, sort_keys=False))
    else:
        print(f"karalcp {__version__}  matrix {matrix.rows}x{matrix.cols}")
        for name, out, dt in rows:
            cert = "" if out.certificate is None else f"  {jsonable(out.certificate)}"
            print(f"  {name:30s} {out.status:13s} {dt * 1000:8.1f} ms{cert}")
    return EXIT_OK


def cmd_lcp(args) -> int:
    try:
        matrix = _load_matrix(args.matrix)
        with open(args.q, "r", encoding="utf-8") as fh:
            q = _parse_vector(fh.read())
    except ValueError as exc:
        return _fail(EXIT_PARSE, str(exc))
    _require_order(matrix, args)
    solve = cone_lcp_solutions if args.cone else lcp_solutions
    result = solve(matrix, q)
    kind = "cone LCP" if args.cone else "LCP"
    print(f"{kind} solutions: {len(result.solutions)}"
          f"  degenerate supports: {len(result.degenerate_supports)}")
    for x in result.solutions:
        print("  [" + ", ".join(map(str, x)) + "]")
    for support in result.degenerate_supports:
        print(f"  degenerate family on support {list(support)}")
    return EXIT_OK


def cmd_verify_corpus(args) -> int:
    if args.dump:
        print(json.dumps(corpus_to_json(), indent=2, sort_keys=False))
        return EXIT_OK
    entries = corpus_entries()
    if args.filter:
        entries = [e for e in entries if args.filter in e.tags]
        if not entries:
            return _fail(EXIT_PARSE, f"no corpus entries tagged {args.filter!r}")
    failures = 0
    for entry in entries:
        _require_order(entry.matrix, args)
        report = verify_entry(entry)
        status = "pass" if report.ok else "FAIL"
        detail = ""
        if not report.ok:
            failures += 1
            detail = "  " + "; ".join(f"{p}: expected {e}, got {g}" for p, e, g in report.mismatches)
        print(f"{status}  {entry.id}{detail}")
    print(f"{len(entries) - failures}/{len(entries)} corpus entries verified")
    return EXIT_OK if failures == 0 else EXIT_MISMATCH


def cmd_search(args) -> int:
    if args.n > ENUMERATION_CAP:
        raise TooLargeError(f"--n {args.n} exceeds cap {ENUMERATION_CAP}")
    if args.n < 1 or args.trials < 0 or args.entry_bound < 0:
        return _fail(EXIT_PARSE, "--n must be positive, --trials and --entry-bound nonnegative")
    if args.entry_bound.bit_length() > MAX_ENTRY_BITS:
        raise TooLargeError(f"--entry-bound exceeds {MAX_ENTRY_BITS} bits")
    try:
        density = bounded_rat(args.density)
        if not 0 < density <= 1:
            raise ValueError("density must be in (0, 1]")
    except ValueError as exc:
        return _fail(EXIT_PARSE, f"bad --density: {exc}")
    out_path = args.out or f"search_{args.target}_n{args.n}_seed{args.seed}.jsonl"
    count = 0
    with open(out_path, "w", encoding="utf-8") as fh:
        def emit(hit):
            nonlocal count
            count += 1
            line = hit_to_json_line(hit, args.target, args.seed)
            fh.write(line + "\n")
            print(f"hit at trial {hit.trial}: {line}")
        run_search(args.target, args.n, args.trials, seed=args.seed,
                   density=density, entry_bound=args.entry_bound, on_hit=emit)
    print(f"{count} hit(s) over {args.trials} trials (n={args.n}, seed={args.seed}) -> {out_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="karalcp",
                                     description="Exact LCP matrix-class analysis")
    parser.add_argument("--version", action="version", version=f"karalcp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="run every class predicate on a matrix")
    p.add_argument("matrix", help="path to a matrix JSON file")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--hint-d", action="append", metavar="VECTOR_JSON")
    p.add_argument("--cap", type=int, default=ENUMERATION_CAP)
    p.add_argument("--skip", action="append", metavar="PRED[,PRED...]")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("lcp", help="enumerate exact LCP solutions")
    p.add_argument("matrix", help="path to a matrix JSON file")
    p.add_argument("q", help="path to a JSON vector")
    p.add_argument("--cone", action="store_true", help="solve the cone LCP over K")
    p.add_argument("--cap", type=int, default=ENUMERATION_CAP)
    p.set_defaults(func=cmd_lcp)

    p = sub.add_parser("verify-corpus", help="re-derive every corpus verdict")
    p.add_argument("--filter", metavar="TAG")
    p.add_argument("--dump", action="store_true", help="print the corpus as JSON and exit")
    p.add_argument("--cap", type=int, default=ENUMERATION_CAP)
    p.set_defaults(func=cmd_verify_corpus)

    p = sub.add_parser("search", help="seeded counterexample search")
    p.add_argument("--target", required=True, choices=TARGETS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density", default="1", metavar="P/Q")
    p.add_argument("--entry-bound", type=int, default=3)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags already; normalize other codes.
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader left; send the interpreter's final flush to /dev/null.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except TooLargeError as exc:
        return _fail(EXIT_TOO_LARGE, str(exc))
    except (KaralcpError, OSError) as exc:
        return _fail(EXIT_PARSE, str(exc))


if __name__ == "__main__":
    sys.exit(main())
