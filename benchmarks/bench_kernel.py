"""Benchmark the compiled monomial kernel against the pure-Python fallback.

Two layers are measured:

* raw kernel calls (``odd_merge``, ``exp_add``, ``mul_terms``) on synthetic
  monomial data, importing both implementations side by side;
* an end-to-end workload (polynomial products and a Groebner basis) run in a
  subprocess with ``SUPERALG_PURE_PYTHON=1`` toggled, since the kernel is
  selected once at import time.

Run:  python3 benchmarks/bench_kernel.py
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from fractions import Fraction

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, SRC)

from superalg import _kernel_py  # noqa: E402

try:
    from superalg import _speedups
except ImportError:
    _speedups = None


def make_monomial_data(rng, count=2000, m=4):
    masks = [rng.getrandbits(8) for _ in range(count)]
    exps = [tuple(rng.randrange(4) for _ in range(m)) for _ in range(count)]
    return masks, exps


def make_terms(rng, nterms=16, m=3):
    terms = {}
    while len(terms) < nterms:
        t = (tuple(rng.randrange(3) for _ in range(m)), rng.getrandbits(4))
        terms[t] = Fraction(rng.randint(-5, 5) or 1)
    return terms


def bench_raw(impl, label):
    rng = random.Random(7)
    masks, exps = make_monomial_data(rng)
    t0 = time.perf_counter()
    for _ in range(20):
        for a, b in zip(masks, masks[1:]):
            impl.odd_merge(a, b)
    t_merge = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(20):
        for ea, eb in zip(exps, exps[1:]):
            impl.exp_add(ea, eb)
    t_add = time.perf_counter() - t0
    pairs = [(make_terms(rng), make_terms(rng)) for _ in range(40)]
    t0 = time.perf_counter()
    for _ in range(10):
        for ta, tb in pairs:
            impl.mul_terms(ta, tb)
    t_mul = time.perf_counter() - t0
    print(
        "%-8s odd_merge %7.1f ms   exp_add %7.1f ms   mul_terms %7.1f ms"
        % (label, t_merge * 1e3, t_add * 1e3, t_mul * 1e3)
    )
    return t_merge, t_add, t_mul


END_TO_END = r"""
import random, time
from superalg import _kernel
from superalg.superpoly import VarSet
from superalg.groebner import SuperAlgebra

vs = VarSet(("x1", "x2"), ("y1", "y2", "y3"))
rng = random.Random(11)
polys = []
for _ in range(60):
    p = vs.zero()
    for _ in range(6):
        p = p + vs.monomial(
            (rng.randrange(3), rng.randrange(3)), rng.getrandbits(3), rng.randint(-4, 4)
        )
    polys.append(p)
t0 = time.perf_counter()
for _ in range(5):
    for a, b in zip(polys, polys[1:]):
        a * b
t_mul = time.perf_counter() - t0
t0 = time.perf_counter()
x1, x2, y1, y2, y3 = vs.gens()
SuperAlgebra(vs, [x1 * x2 - x1, x1 * y1 * y2, x2 * y2 * y3]).module_gb  # the basis is lazy
t_gb = time.perf_counter() - t0
print("%s  poly-mul %.1f ms  groebner %.1f ms" % (_kernel.IMPLEMENTATION, t_mul * 1e3, t_gb * 1e3))
"""


def bench_end_to_end():
    for pure in ("0", "1"):
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, SUPERALG_PURE_PYTHON=pure, PYTHONPATH=path)
        if pure == "0":
            env.pop("SUPERALG_PURE_PYTHON")
        subprocess.run([sys.executable, "-c", END_TO_END], env=env, check=True)


def main():
    print("raw kernel calls:")
    py = bench_raw(_kernel_py, "python")
    if _speedups is not None:
        cy = bench_raw(_speedups, "cython")
        print(
            "speedup: odd_merge %.1fx  exp_add %.1fx  mul_terms %.1fx"
            % tuple(p / c for p, c in zip(py, cy))
        )
    else:
        print("compiled kernel not available; only the fallback was measured")
    print()
    print("end to end (subprocess per kernel):")
    sys.stdout.flush()
    bench_end_to_end()


if __name__ == "__main__":
    main()
