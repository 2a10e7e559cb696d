"""Compare two sets of untraced benchmark results.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds ``BENCH_*_trace0.json`` files written by run.py (for
example copies of ``perfbench/out/`` taken on two commits).  For every
workload and end-to-end metric it prints each side's median and
quartiles, the change of the median, and whether the change exceeds the
metric's bound in ``BENCHMARK.json``.  Results stamped with different
kernel implementations are refused, since they measure different code.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load(directory):
    runs = defaultdict(list)
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*_trace0.json"))):
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        runs[result["stamp"]["workload"]].append(result)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = load(argv[0]), load(argv[1])
    kernels = {r["stamp"]["kernel"] for side in (base, head) for rs in side.values() for r in rs}
    if len(kernels) > 1:
        print("refusing to compare results of kernels %s" % ", ".join(sorted(kernels)), file=sys.stderr)
        return 1
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    worse = 0
    print("%-14s %-14s %30s %30s %8s  verdict" % ("workload", "metric", "base q1/med/q3", "head q1/med/q3", "change"))
    for workload in sorted(set(base) & set(head)):
        for name, m in spec.items():
            b = [r["metrics"][name]["value"] for r in base[workload]]
            h = [r["metrics"][name]["value"] for r in head[workload]]
            bq, hq = quartiles(b), quartiles(h)
            change = (hq[1] - bq[1]) / bq[1]
            loss = change if m["better"] == "lower" else -change
            spread = (bq[2] - bq[0]) / bq[1]
            if loss > m["bound"]:
                verdict = "WORSE beyond bound %.2f" % m["bound"]
                worse += 1
            elif spread > m["bound"]:
                verdict = "unresolved (base spread %.2f)" % spread
            else:
                verdict = "within bound"
            print(
                "%-14s %-14s %30s %30s %+7.1f%%  %s"
                % (
                    workload,
                    name,
                    "/".join("%.4g" % v for v in bq),
                    "/".join("%.4g" % v for v in hq),
                    change * 100,
                    verdict,
                )
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
