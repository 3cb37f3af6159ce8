"""Record the reference outputs of the reference seed's op lists.

    python3 perfbench/record_reference.py

Run it from the root of a checkout of the commit whose outputs are the
reference; it rewrites perfbench/reference_seed0.json.  Every op is checked
by the same exact checks as a benchmark run before its output is stored.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    reference = {"seed": run.REFERENCE_SEED}
    for workload in ("classify", "lcp"):  # search hits are re-verified instead
        lib, ops = run.build(workload, run.REFERENCE_SEED)
        records = []
        for op in ops:
            output, _ = run.execute(lib, op)
            problems = run.check(lib, op, output, None)
            if problems:
                print(f"{op['label']}: {problems}", file=sys.stderr)
                return 1
            records.append(run.reference_record(lib, op, output))
        reference[workload] = {"ops_sha256": run.ops_digest(ops), "records": records}
        print(f"{workload}: {len(records)} ops", file=sys.stderr)
    run.REFERENCE.write_text(json.dumps(reference, separators=(",", ":")) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
