"""Tiny-size self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

* Runs every workload, untraced and traced, on two items or operations
  per pass, and asserts that the result line has the contract's keys,
  that it carries exactly the metrics ``BENCHMARK.json`` names, and that
  every metric is printed by name with its unit.
* Corrupts one reference entry and asserts that the operation is
  reported as failed, and only that one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def check_printing(spec):
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload]
            argv += ["--seed", "1", "--seconds", "1", "--trace", str(trace), "--limit", "2"]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            assert done.returncode == 0, (workload, trace, done.stderr)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True and result["attempted"] >= 1, (workload, result)
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == wanted, (workload, trace, set(got) ^ set(wanted))
            for name, unit in wanted.items():
                printed = [ln.split() for ln in lines[:-1]]
                assert any(p[:1] == [name] and p[2:3] == [unit] for p in printed), (name, unit)
            print("printed  %-13s trace=%d  %d metrics" % (workload, trace, len(wanted)))


def check_corrupted_reference():
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import corpus
    import ops
    import speed

    refs = corpus.load_refs("gb-dense")
    items = corpus.select("gb-dense", 1, refs)[:2]
    corpus.write_files(items)
    first = refs["items"][items[0]["id"]]["ops"][0]
    first["stdout"] = first["stdout"].replace('"', "'", 1)
    cli_ops = ops.cli_ops(items, refs)
    record = ops.Record(speed.Clock())
    ops.run_cli_pass(cli_ops, record)
    assert record.status == [ops.MISMATCH] + [ops.OK] * (len(cli_ops) - 1), record.status
    assert ops.judge_cli(2, "", None, {"raises": "ZeroDivisionError"})[0] == ops.OK
    assert ops.judge_cli(None, "", "ZeroDivisionError", {"exit": 2, "stdout": ""})[0] == ops.RAISED
    assert ops.judge_cli(3, "", None, {"exit": 3, "stdout": ""})[0] == ops.MISMATCH
    print("corrupted reference entry reported as failed")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_printing(spec)
    check_corrupted_reference()
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
