"""Record the reference output of every pooled operation.

    python3 perfbench/make_refs.py [workload ...]

Runs each operation of the ksdim-search, gb-dense and cli-mix pools three
times through ``superalg.cli.run_command`` and writes ``refs/<workload>.json``:
per item the digest of its inputs, its cost in milliseconds (the fastest
of three runs; it sorts the pool into cost strata) and, per operation, the
exit code and standard output, or the name of the exception it raised.
Outputs must be the same in all three runs.  Run it from the commit
whose outputs are the reference; the benchmark compares against them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import corpus

ROOT = os.path.dirname(corpus.BENCH_DIR)
REPEATS = 3  # the cost is the fastest of these, which other load moves least


def _run_item(run_cli, item):
    results = []
    cost = 0.0
    for argv in item["ops"]:
        code, stdout, exc, seconds = run_cli(argv)
        cost += seconds
        if exc is not None:
            results.append({"raises": exc})
        elif code in (0, 1, 2):
            results.append({"exit": code, "stdout": stdout})
        else:
            raise SystemExit("%s %r exited %r" % (item["id"], argv, code))
    return results, cost


def record(workload, run_cli):
    items = corpus.pool(workload)
    corpus.write_files(items)
    out = {}
    for item in items:
        runs = [_run_item(run_cli, item) for _ in range(REPEATS)]
        results = runs[0][0]
        if any(r != results for r, _ in runs):
            raise SystemExit("%s gives different outputs when repeated" % item["id"])
        cost = min(c for _, c in runs)
        out[item["id"]] = {
            "digest": corpus.item_digest(item),
            "cost_ms": round(cost * 1e3, 3),
            "ops": results,
        }
        print("%-12s %9.1f ms" % (item["id"], cost * 1e3))
    return {"workload": workload, "items": out}


def main(argv):
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import ops

    os.makedirs(corpus.REFS_DIR, exist_ok=True)
    for workload in argv or corpus.POOLED:
        with contextlib.redirect_stderr(io.StringIO()):  # messages of exit-2 calls
            refs = record(workload, ops.run_cli)
        with open(corpus.refs_path(workload), "w", encoding="utf-8") as fh:
            json.dump(refs, fh, indent=0, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
