"""Per-layer tracing from outside the library.

The tracer replaces library functions by wrappers, then puts the
originals back.  A function imported by name into another module (``sdim``
and ``cli`` import ``annihilator``, ``orbits`` imports ``ksdim``) has a
binding there too, so every module attribute bound to a traced function is
rebound.  Methods are wrapped on their class.

Layer-level calls record spans that carry the running operation's id and
their parent span.  Hot inner functions only count calls and accumulate
time.  Nothing is recorded outside an operation, so output checks do not
show up in the trace.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute or Class.attribute, what to observe on each call)
SPANS = (
    ("superalg.cli", "run_command", None),
    ("superalg.dsl", "parse_document", None),
    ("superalg.sdim", "ksdim", None),
    ("superalg.sdim", "bar", None),
    ("superalg.sdim", "leading_term_dim", None),
    ("superalg.sdim", "is_odd_parameter_system", "accepted"),
    ("superalg.sdim", "gr_presentation", None),
    ("superalg.groebner", "superideal_closure", "out_size"),
    ("superalg.groebner", "annihilator", None),
    ("superalg.groebner", "buchberger", "basis_size"),
    ("superalg.hcgroup", "normalize_word", None),
    ("superalg.hcgroup", "hc_mul", None),
    ("superalg.hcgroup", "hc_inv", None),
    ("superalg.orbits", "orbit_ideal", None),
    ("superalg.orbits", "verify_orbit_theorems", None),
)
COUNTERS = (
    ("superalg.groebner", "GBasis.nf", "zero"),
    ("superalg.groebner", "SuperAlgebra.module_gb", None),
    ("superalg._kernel", "mul_terms", "term_pairs"),
    ("superalg.hcgroup", "mat_inverse", "cache_miss"),
    ("superalg.hcgroup", "HCPair.rho_at", None),
    ("superalg.hcgroup", "_f_matrix", None),
)


def layer_name(module, attr):
    """``superalg._kernel`` belongs to the superpoly layer."""
    layer = module.split(".", 1)[1]
    if layer == "_kernel":
        layer = "superpoly"
    return "%s.%s" % (layer, attr.split(".")[-1].lstrip("_"))


def _observe(kind, args, result, before):
    if kind == "accepted":
        return 1 if result[0] else 0
    if kind == "out_size":
        return len(result)
    if kind == "basis_size":
        return len(result.vectors)
    if kind == "zero":
        return 0 if result else 1
    if kind == "term_pairs":
        return len(args[0]) * len(args[1])
    if kind == "cache_miss":
        # a hit returns early and leaves the cache as it was
        return 0 if len(_inverse_cache()) == before else 1
    return 0


def _inverse_cache():
    module = sys.modules.get("superalg.hcgroup")
    return getattr(module, "_INVERSE_CACHE", {})


class Tracer:
    def __init__(self):
        self.op = None  # id of the running operation; None records nothing
        self.spans = []  # [op, name, parent index or None, start, end]
        self._open = []
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.observed = defaultdict(int)
        self.missing = []
        self._restore = []

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn, kind=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            record = [tracer.op, name, tracer._open[-1] if tracer._open else None, 0.0, 0.0]
            tracer._open.append(len(tracer.spans))
            tracer.spans.append(record)
            tracer.calls[name] += 1
            record[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                tracer._open.pop()
            if kind:
                tracer.observed[name] += _observe(kind, args, result, None)
            return result

        return traced

    def _counter(self, name, fn, kind=None):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            before = len(_inverse_cache()) if kind == "cache_miss" else None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.seconds[name] += time.perf_counter() - t0
                tracer.calls[name] += 1
            if kind:
                tracer.observed[name] += _observe(kind, args, result, before)
            return result

        return counted

    # -- installation ------------------------------------------------------------

    def install(self):
        for targets, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for module, attr, kind in targets:
                name = layer_name(module, attr)
                self._rebind(module, attr, functools.partial(make, name, kind=kind))
        return self

    def _rebind(self, module_name, attr, make):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.missing.append("%s.%s" % (module_name, attr))
            return
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = vars(owner).get(name) if owner is not None else None
        if original is None:
            self.missing.append("%s.%s" % (module_name, attr))
            return
        if isinstance(owner, type):
            if isinstance(original, property):
                wrapped = property(make(original.fget))
            else:
                wrapped = make(original)
            self._set(owner, name, wrapped)
            return
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "superalg" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def _set(self, owner, name, value):
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore = []

    # -- results -----------------------------------------------------------------

    def span_totals(self):
        """name -> (inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for op, name, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(lambda: [0.0, 0.0])
        for i, (op, name, parent, start, end) in enumerate(self.spans):
            totals[name][0] += end - start
            totals[name][1] += end - start - child[i]
        return totals

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "missing": self.missing,
                    "calls": dict(self.calls),
                    "counter_seconds": dict(self.seconds),
                    "observed": dict(self.observed),
                    "spans": {
                        "fields": ["op", "name", "parent", "start", "end"],
                        "rows": self.spans,
                    },
                },
                fh,
            )


def _ratio(num, den):
    return num / den if den else 0.0


# name -> (unit, better); the order is the printing order
PER_LAYER = {
    "sdim.candidates_tried": ("calls/op", "lower"),
    "sdim.candidates_accepted_ratio": ("ratio", "higher"),
    "sdim.bar.calls": ("calls/op", "lower"),
    "sdim.leading_term_dim.calls": ("calls/op", "lower"),
    "sdim.ksdim.ms": ("ms/op", "lower"),
    "groebner.superideal_closure.calls": ("calls/op", "lower"),
    "groebner.superideal_closure.ms": ("ms/op", "lower"),
    "groebner.superideal_closure.out_size": ("count", "lower"),
    "groebner.annihilator.calls": ("calls/op", "lower"),
    "groebner.annihilator.ms": ("ms/op", "lower"),
    "groebner.buchberger.calls": ("calls/op", "lower"),
    "groebner.buchberger.ms": ("ms/op", "lower"),
    "groebner.buchberger.basis_size_mean": ("count", "lower"),
    "groebner.nf.calls": ("calls/op", "lower"),
    "groebner.nf.ms": ("ms/op", "lower"),
    "groebner.nf.zero_ratio": ("ratio", "lower"),
    "groebner.module_gb.ms": ("ms/op", "lower"),
    "superpoly.mul_terms.calls": ("calls/op", "lower"),
    "superpoly.mul_terms.term_pairs": ("pairs/op", "lower"),
    "superpoly.mul_terms.ms": ("ms/op", "lower"),
    "hcgroup.normalize_word.calls": ("calls/op", "lower"),
    "hcgroup.normalize_word.ms": ("ms/op", "lower"),
    "hcgroup.mat_inverse.calls": ("calls/op", "lower"),
    "hcgroup.mat_inverse.hit_ratio": ("ratio", "higher"),
    "hcgroup.rho_at.calls": ("calls/op", "lower"),
    "hcgroup.bracket_corrections": ("calls/op", "lower"),
    "cli.run_command.self_ms": ("ms/op", "lower"),
    "dsl.parse_document.ms": ("ms/op", "lower"),
    "orbits.orbit_ideal.ms": ("ms/op", "lower"),
    "orbits.verify_orbit_theorems.ms": ("ms/op", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def layer_metrics(tracer, ops, overhead_ratio):
    """Per-layer metrics of a traced phase of ``ops`` operations: counts and
    times per operation, plus ratios."""
    spans = tracer.span_totals()
    calls, seen = tracer.calls, tracer.observed

    def per_op(value):
        return _ratio(value, ops)

    def span_ms(name):
        return per_op(spans[name][0] * 1e3) if name in spans else 0.0

    def counter_ms(name):
        return per_op(tracer.seconds[name] * 1e3)

    tried = calls["sdim.is_odd_parameter_system"]
    inverses = calls["hcgroup.mat_inverse"]
    values = {
        "sdim.candidates_tried": per_op(tried),
        "sdim.candidates_accepted_ratio": _ratio(seen["sdim.is_odd_parameter_system"], tried),
        "sdim.bar.calls": per_op(calls["sdim.bar"]),
        "sdim.leading_term_dim.calls": per_op(calls["sdim.leading_term_dim"]),
        "sdim.ksdim.ms": span_ms("sdim.ksdim"),
        "groebner.superideal_closure.calls": per_op(calls["groebner.superideal_closure"]),
        "groebner.superideal_closure.ms": span_ms("groebner.superideal_closure"),
        "groebner.superideal_closure.out_size": _ratio(
            seen["groebner.superideal_closure"], calls["groebner.superideal_closure"]
        ),
        "groebner.annihilator.calls": per_op(calls["groebner.annihilator"]),
        "groebner.annihilator.ms": span_ms("groebner.annihilator"),
        "groebner.buchberger.calls": per_op(calls["groebner.buchberger"]),
        "groebner.buchberger.ms": span_ms("groebner.buchberger"),
        "groebner.buchberger.basis_size_mean": _ratio(
            seen["groebner.buchberger"], calls["groebner.buchberger"]
        ),
        "groebner.nf.calls": per_op(calls["groebner.nf"]),
        "groebner.nf.ms": counter_ms("groebner.nf"),
        "groebner.nf.zero_ratio": _ratio(seen["groebner.nf"], calls["groebner.nf"]),
        "groebner.module_gb.ms": counter_ms("groebner.module_gb"),
        "superpoly.mul_terms.calls": per_op(calls["superpoly.mul_terms"]),
        "superpoly.mul_terms.term_pairs": per_op(seen["superpoly.mul_terms"]),
        "superpoly.mul_terms.ms": counter_ms("superpoly.mul_terms"),
        "hcgroup.normalize_word.calls": per_op(calls["hcgroup.normalize_word"]),
        "hcgroup.normalize_word.ms": span_ms("hcgroup.normalize_word"),
        "hcgroup.mat_inverse.calls": per_op(inverses),
        "hcgroup.mat_inverse.hit_ratio": _ratio(inverses - seen["hcgroup.mat_inverse"], inverses),
        "hcgroup.rho_at.calls": per_op(calls["hcgroup.rho_at"]),
        "hcgroup.bracket_corrections": per_op(calls["hcgroup.f_matrix"]),
        "cli.run_command.self_ms": per_op(spans["cli.run_command"][1] * 1e3)
        if "cli.run_command" in spans
        else 0.0,
        "dsl.parse_document.ms": span_ms("dsl.parse_document"),
        "orbits.orbit_ideal.ms": span_ms("orbits.orbit_ideal"),
        "orbits.verify_orbit_theorems.ms": span_ms("orbits.verify_orbit_theorems"),
        "trace.overhead_ratio": overhead_ratio,
    }
    return {name: (values[name], unit) for name, (unit, _) in PER_LAYER.items()}
