"""The superalg benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it works in the checkout that holds it, imports
superalg from ``src/`` there and writes only under ``perfbench/``.  One
process, one thread, one operation at a time.

Workloads (why each was chosen is in ``BENCHMARK.json``):

* ``ksdim-search``: ``superalg ksdim`` on seeded presentations
  k[x1..xm | y1..yn]/(R), m in {1, 2}, n in {3, 4}, plus the exhaustive
  family k[x | y1..yn]/(x*y_i) for n = 3, 4, over Q.
* ``gb-dense``: ``gr`` and ``ann`` on Katsura-3 and cyclic-4 with one or
  two coupled odd generators, over F_32003.
* ``hc-words``: (a*b)*c, a*(b*c) and a*a^-1 on the three built-in
  Harish-Chandra pairs over the Grassmann algebra on s, t, u, w, over Q.
* ``cli-mix``: every non-``hc`` command once per document, on the shipped
  examples and small seeded documents, over Q and F_7.

With ``--trace 0`` the run repeats whole passes over its corpus until the
operations have taken ``--seconds`` and prints the end-to-end metrics.
With ``--trace 1`` it makes one pass untraced and the same pass traced,
and prints the per-layer metrics of the traced pass.  The last line of
standard output is the JSON result; ``perfbench/out/`` receives the
stamped result and, when traced, every span.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types

import corpus
import speed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("ksdim-search", "gb-dense", "hc-words", "cli-mix")
SETUP_SAMPLES = 11  # setup_s is the median of this many fresh interpreters
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_geomean": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--limit", type=int, default=0, help="cap the items of a pass (self-check)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def library_present():
    return os.path.isfile(os.path.join(SRC, "superalg", "__init__.py"))


def build_state(workload):
    """The run's long-lived objects: for hc-words one coefficient algebra
    and the built-in pairs; the CLI workloads keep nothing between calls."""
    if workload != "hc-words":
        return None
    from superalg import hcgroup

    return types.SimpleNamespace(
        coeff=hcgroup.lambda_algebra(("s", "t", "u", "w")), pairs=hcgroup.builtin_pairs()
    )


def setup(workload):
    """Import superalg from the checkout and build the long-lived objects;
    returns (seconds at the reference speed, raw seconds, state)."""
    before = speed.reading()
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import superalg.cli  # noqa: F401  (pulls in every layer)

    state = build_state(workload)
    seconds = time.perf_counter() - t0
    scaled = seconds * speed.factor((before + speed.reading()) / 2)
    import superalg

    if os.path.dirname(os.path.abspath(superalg.__file__)) != os.path.join(SRC, "superalg"):
        raise SystemExit("perfbench: superalg was imported from %s" % superalg.__file__)
    return scaled, seconds, state


def probe_setups(args):
    """[scaled, raw] set-up times of fresh interpreters that do only the
    set-up."""
    samples = []
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload]
    argv += ["--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit("perfbench: set-up probe failed: %s" % done.stderr.strip())
        samples.append([float(v) for v in done.stdout.split()[-2:]])
    return samples


def stamp(args):
    try:
        from superalg._kernel import IMPLEMENTATION as kernel
    except ImportError:
        kernel = "none"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "field": corpus.WORKLOAD_FIELDS[args.workload],
        "trace": args.trace,
        "seconds": args.seconds,
        "kernel": kernel,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# measurement


def cli_corpus(args):
    refs = corpus.load_refs(args.workload)
    items = corpus.select(args.workload, args.seed, refs)
    if args.limit:
        items = items[: args.limit]
    for item in items:
        if refs["items"][item["id"]]["digest"] != corpus.item_digest(item):
            raise SystemExit(
                "perfbench: input %s no longer matches its reference; "
                "rebuild refs with perfbench/make_refs.py" % item["id"]
            )
    corpus.write_files(items)
    import ops

    return ops.cli_ops(items, refs)


def pass_runner(args, state):
    """(run, outputs): ``run(k, record, tracer, state)`` makes pass k.  A
    CLI pass is the whole seeded corpus, the same every time; an hc-words
    pass is block k of the operation stream, fresh words of the same mix.
    ``outputs`` collects the first CLI pass for the cross-checks."""
    import ops  # only after set-up, which times the first import of superalg

    if args.workload == "hc-words":
        from superalg import hcgroup

        size = args.limit or corpus.HC_BLOCK

        def run(k, record, tracer=None, st=state):
            inputs = lambda i: corpus.hc_op_inputs(hcgroup, st.pairs, st.coeff, args.seed, i)
            ops.run_hc_block(st, inputs, range(k * size, (k + 1) * size), record, tracer)

        return run, {}
    cli_ops = cli_corpus(args)
    outputs = {}

    def run(k, record, tracer=None, st=None):
        ops.run_cli_pass(cli_ops, record, tracer, outputs if k == 0 else None)

    return run, outputs


def measure(args, state):
    """Untraced: whole passes until the operations have taken
    ``--seconds``.  Traced: an untraced pass, the same pass traced, and
    the same pass untraced again, each hc-words pass on fresh long-lived
    objects so that the three meet the same caches.  Returns (records of
    the passes, tracer, cross-check failures)."""
    import ops

    run, outputs = pass_runner(args, state)
    clock = speed.Clock()
    records = []
    if not args.trace:
        while not records or sum(r.timed for r in records) < args.seconds:
            records.append(ops.Record(clock))
            run(len(records) - 1, records[-1])
            records[-1].peak_rss_mb = peak_rss_mb()
        return records, None, ops.crosscheck(args.workload, outputs)
    import tracing

    tracer = tracing.Tracer()
    for k in range(3):
        records.append(ops.Record(clock))
        st = state if k == 0 else build_state(args.workload)
        if k == 1:
            tracer.install()
        try:
            run(0, records[-1], tracer if k == 1 else None, st)
        finally:
            tracer.uninstall()
    return records, tracer, ops.crosscheck(args.workload, outputs)


def peak_rss_mb():
    """High-water mark of this process.  Read after the first pass, so that
    it covers a fixed amount of work: hc-words caches grow with the number
    of operations, which a faster library raises within --seconds."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(records, setup_times, scaled=True):
    """Each operation metric is taken per pass; the run reports the median
    over its passes, which a burst of load on the machine moves less.
    Times are at the reference speed (see speed.py) unless ``scaled`` is
    false."""
    rates, geomeans, p90s = [], [], []
    for r in records:
        ms = [s * 1e3 for s in (r.scaled() if scaled else r.seconds)]
        rates.append(r.count("ok") * 1e3 / sum(ms))
        geomeans.append(statistics.geometric_mean(ms))
        p90s.append(statistics.quantiles(ms, n=10, method="inclusive")[-1] if len(ms) > 1 else ms[0])
    values = {
        "ops_per_s": statistics.median(rates),
        "op_ms_geomean": statistics.median(geomeans),
        "op_ms_p90": statistics.median(p90s),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": records[0].peak_rss_mb,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def main(argv=None):
    args = parse_args(argv)
    if not library_present():
        print("perfbench: no superalg sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.setup_probe:
        print("%r %r" % setup(args.workload)[:2])
        return 0
    samples = probe_setups(args)
    own, own_raw, state = setup(args.workload)
    samples.append([own, own_raw])
    from superalg import hcgroup

    if getattr(hcgroup, "_INVERSE_CACHE", None):
        print("perfbench: hcgroup._INVERSE_CACHE is not empty at start", file=sys.stderr)
        return 3
    info = stamp(args)
    records, tracer, cross = measure(args, state)

    attempted = sum(len(r.status) for r in records)
    failures = [f for r in records for f in r.failures] + [(op, "mismatch", why) for op, why in cross]
    failed = sum(len(r.status) - r.count("ok") for r in records) + len(cross)
    mismatches = sum(r.count("mismatch") for r in records) + len(cross)
    readings = records[0].clock.readings
    info["speed_reference_s"] = speed.REFERENCE
    info["speed_reading_s"] = statistics.median(readings)
    raw = {}
    if args.trace:
        import tracing

        # the traced pass against the warm untraced pass after it
        overhead = sum(records[1].scaled()) / sum(records[2].scaled())
        metrics = tracing.layer_metrics(tracer, len(records[1].status), overhead)
    else:
        metrics = end_to_end(records, [s for s, _ in samples])
        raw = end_to_end(records, [r for _, r in samples], scaled=False)

    print("# perfbench %s seed=%d trace=%d" % (args.workload, args.seed, args.trace))
    print("stamp " + json.dumps(info, sort_keys=True))
    print("times are at the reference speed (%.6g s per reading, see speed.py)" % speed.REFERENCE)
    notes = {
        "ops_per_s": "median of %d passes" % len(records),
        "op_ms_p90": "p90 of %d ops per pass" % len(records[0].status),
        "setup_s": "median of %d interpreters" % len(samples),
    }
    for name, (value, unit) in metrics.items():
        note = "  (%s)" % notes[name] if name in notes and not args.trace else ""
        if name in raw and name != "peak_rss_mb":
            note += "  raw wall %.6g" % raw[name][0]
        print("%-40s %16.6f %s%s" % (name, value, unit, note))
    print("%-40s %16.6f %s  (%d of %d ops)" % ("failed_ratio", failed / attempted, "ratio", failed, attempted))
    for op_id, status, reason in failures[:10]:
        print("failed %s: %s %s" % (op_id, status, reason))

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s_seed%d_trace%d" % (args.workload, args.seed, args.trace)
    result = {
        "correct": mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, "BENCH_%s.json" % tag), "w", encoding="utf-8") as fh:
        extra = {
            "stamp": info,
            "scaled_seconds": [rec.scaled() for rec in records],
            "failed_ratio": failed / attempted,
            "raw_metrics": {name: {"value": v, "unit": u} for name, (v, u) in raw.items()},
            "failures": failures,
        }
        json.dump(dict(result, **extra), fh, indent=1)
    if tracer is not None:
        tracer.write(os.path.join(OUT_DIR, "TRACE_%s.json" % tag))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
