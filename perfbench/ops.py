"""Timed operations and their output checks.

An operation's wall time covers only the library call.  Checks run after
the clock stops: CLI operations against the recorded reference bytes and
exit code, hc-words operations against the group laws and independent
computations.  Each operation ends as ``ok``, ``raised`` (an uncaught
exception, which breaks the exit-code contract) or ``mismatch`` (an
output that differs from its reference or fails a check).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time

from superalg import cli, dsl, groebner, hcgroup, oracle, scalars

OK, RAISED, MISMATCH = "ok", "raised", "mismatch"


class Record:
    """Durations and outcomes of the operations of one pass.  Durations are
    raw wall times; ``scaled()`` gives them at the reference speed."""

    def __init__(self, clock):
        self.clock = clock
        self.seconds = []
        self.readings = []  # the speed reading taken before each operation
        self.status = []
        self.failures = []  # (op id, status, reason); the first few are kept
        self.peak_rss_mb = None  # the process's high-water mark after this pass

    def add(self, op_id, seconds, status, reason=""):
        self.seconds.append(seconds)
        self.readings.append(self.clock.index)
        self.status.append(status)
        if status != OK and len(self.failures) < 50:
            self.failures.append((op_id, status, reason))
        self.clock.tick()

    def close(self):
        """Take the reading that ends the pass, so every operation has one
        on each side."""
        self.clock.read()

    def scaled(self):
        return [s * self.clock.scale(k) for s, k in zip(self.seconds, self.readings)]

    @property
    def timed(self):
        return sum(self.seconds)

    def count(self, status):
        return self.status.count(status)


# ---------------------------------------------------------------------------
# CLI operations


def cli_ops(items, refs):
    """(op id, argv, reference) for every operation of the given items."""
    out = []
    for item in items:
        expected = refs["items"][item["id"]]["ops"]
        for k, argv in enumerate(item["ops"]):
            out.append(("%s/%d" % (item["id"], k), argv, expected[k]))
    return out


def run_cli(argv):
    """(exit code or None, stdout, exception name or None, seconds)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        code = cli.run_command(argv, out=buf)
    except Exception as exc:  # the contract forbids it; recorded as a failure
        return None, buf.getvalue(), type(exc).__name__, time.perf_counter() - t0
    return code, buf.getvalue(), None, time.perf_counter() - t0


def judge_cli(code, stdout, exc, ref):
    """Status and reason of one CLI outcome against its reference.  An
    operation that raised when the reference was recorded is accepted
    once it exits 2 with no output, as the contract asks of bad input."""
    if exc is not None:
        return RAISED, exc
    if "raises" in ref:
        if code == 2 and not stdout:
            return OK, ""
        return MISMATCH, "exit %s where the reference raised %s" % (code, ref["raises"])
    if code not in (0, 1, 2):
        return MISMATCH, "exit code %r outside 0, 1, 2" % code
    if code != ref["exit"]:
        return MISMATCH, "exit %s, reference %s" % (code, ref["exit"])
    if stdout != ref["stdout"]:
        return MISMATCH, "output differs from the reference"
    return OK, ""


def run_cli_pass(ops, record, tracer=None, outputs=None):
    """One pass over the operations; stderr of exit-2 calls is dropped."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        for op_id, argv, ref in ops:
            if tracer is not None:
                tracer.op = op_id
            code, stdout, exc, seconds = run_cli(argv)
            if tracer is not None:
                tracer.op = None
            status, reason = judge_cli(code, stdout, exc, ref)
            record.add(op_id, seconds, status, reason)
            if outputs is not None:
                outputs[op_id] = (argv, code, stdout)
            err.seek(0)
            err.truncate()
    record.close()


# ---------------------------------------------------------------------------
# independent cross-checks on small inputs, outside the timed region


def _algebra(path, field_args):
    field = scalars.Field(int(field_args[2])) if field_args[1:2] == ["fp"] else scalars.QQ
    with open(path, encoding="utf-8") as fh:
        return dsl.parse_document(fh.read(), field).algebra


def crosscheck(workload, outputs):
    """Failures found by the dense oracles or by direct substitution, as
    (op id, reason), over the outputs of one pass."""
    failures = []
    for op_id, (argv, code, stdout) in sorted(outputs.items()):
        if code != 0:
            continue
        try:
            found = _crosscheck_one(workload, argv, json.loads(stdout), random.Random(op_id))
        except Exception as exc:  # a check that cannot run fails the operation
            found = ["check raised %s" % type(exc).__name__]
        failures.extend((op_id, reason) for reason in found or ())
    return failures


def _crosscheck_one(workload, argv, output, rng):
    """Reasons the output fails its cross-check, or None when the
    operation is not one that gets checked."""
    cmd, path = argv[0], argv[1]
    field_args = argv[argv.index("--field") :] if "--field" in argv else []
    found = []
    if workload == "ksdim-search" and cmd == "ksdim":
        A = _algebra(path, field_args)
        elements = output["certificate"]["elements"]
        if A.vs.m != 1 or A.vs.n != 3 or not elements:
            return None
        prod = A.vs.one()
        for e in elements:
            prod = prod * dsl.parse_poly(e, A.vs)
        prod = A.nf(prod)
        ann = groebner.annihilator(prod, A)
        closed = groebner.superideal_closure(A.relations)
        for f in oracle.oracle_annihilator_basis(prod, closed, 2, 5):
            if not ann.contains(f):
                found.append("oracle annihilator element %s outside Ann" % f)
    elif workload == "gb-dense" and cmd == "ann":
        A = _algebra(path, field_args)
        p = A.nf(dsl.parse_poly(argv[argv.index("--element") + 1], A.vs))
        for g in output["result"]["generators"]:
            if A.nf(dsl.parse_poly(g, A.vs) * p):
                found.append("%s does not annihilate the element" % g)
    elif workload == "cli-mix" and cmd == "bar" and field_args[1:] == ["q"]:
        A = _algebra(path, field_args)
        if not A.relations or A.vs.m + A.vs.n > 3:
            return None
        gens = A.vs.even + A.vs.odd
        span = oracle.ideal_span(groebner.superideal_closure(A.relations), 5)
        probes = [r * A.vs.gen(rng.choice(gens)) for r in A.relations] + [A.vs.gen(rng.choice(gens))]
        for f in probes:
            if f.total_degree() <= 5 and A.contains_in_ideal(f) != (not span.reduce(f.terms)):
                found.append("membership of %s disagrees with the oracle" % f)
    else:
        return None
    return found


# ---------------------------------------------------------------------------
# hc-words


def hc_op(state, name, words):
    pair, coeff = state.pairs[name], state.coeff
    a, b, c = (hcgroup.normalize_word(pair, coeff, w) for w in words)
    ab_c = hcgroup.hc_mul(hcgroup.hc_mul(a, b), c)
    a_bc = hcgroup.hc_mul(a, hcgroup.hc_mul(b, c))
    a_ainv = hcgroup.hc_mul(a, hcgroup.hc_inv(a))
    return a, b, c, ab_c, a_bc, a_ainv


def judge_hc(state, name, index, results):
    """Associativity, the inverse law, the faithful 3x3 model of the
    unipotent pair, and on every tenth operation the right-first rewriting
    order, which must reach the same normal form."""
    pair, coeff = state.pairs[name], state.coeff
    a, b, c, ab_c, a_bc, a_ainv = results
    if ab_c != a_bc:
        return MISMATCH, "(ab)c != a(bc)"
    if a_ainv != hcgroup.hc_identity(pair, coeff):
        return MISMATCH, "a a^-1 is not the identity"
    if name == "unipotent":
        model = hcgroup.unipotent_matrix_model
        lhs = hcgroup.unipotent_model_mul(
            hcgroup.unipotent_model_mul(model(a), model(b), coeff), model(c), coeff
        )
        if lhs != model(ab_c):
            return MISMATCH, "3x3 model disagrees with (ab)c"
    if index % 10 == 0:
        word = a.word() + b.word() + c.word()
        if hcgroup.normalize_word(pair, coeff, word, strategy="right") != ab_c:
            return MISMATCH, "right-first rewriting reaches another normal form"
    return OK, ""


def run_hc_block(state, make_inputs, indices, record, tracer=None):
    for index in indices:
        name, words = make_inputs(index)
        op_id = "hc%d" % index
        if tracer is not None:
            tracer.op = op_id
        t0 = time.perf_counter()
        try:
            results = hc_op(state, name, words)
        except Exception as exc:  # recorded as a failed operation
            record.add(op_id, time.perf_counter() - t0, RAISED, type(exc).__name__)
            continue
        finally:
            if tracer is not None:
                tracer.op = None
        seconds = time.perf_counter() - t0
        try:
            status, reason = judge_hc(state, name, index, results)
        except Exception as exc:  # a check that cannot run fails the operation
            status, reason = MISMATCH, "check raised %s" % type(exc).__name__
        record.add(op_id, seconds, status, reason)
    record.close()
