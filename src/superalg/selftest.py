"""Deterministic self-test corpus.

Runs a fixed list of exact checks spanning the whole library; the report
is a plain dict of strings, numbers and booleans so that serialized
output is byte-stable run over run.
"""

from __future__ import annotations

import random

from superalg import hcgroup, orbits, sdim
from superalg.groebner import Morphism, SuperAlgebra, check_mono_necessary
from superalg.oracle import oracle_member
from superalg.scalars import QQ
from superalg.superpoly import VarSet


def _alg(even, odd, rel_builder=None):
    vs = VarSet(tuple(even), tuple(odd), QQ)
    rels = rel_builder(vs) if rel_builder else []
    return SuperAlgebra(vs, rels)


def corpus_algebras():
    """The named presentations used across the self test and the CLI
    examples."""
    return {
        "xy": _alg(("x",), ("y",), lambda vs: [vs.gen("x") * vs.gen("y")]),
        "xy1y2": _alg(
            ("x",), ("y1", "y2"), lambda vs: [vs.gen("x") * vs.gen("y1") * vs.gen("y2")]
        ),
        "lambda2": _alg((), ("y1", "y2")),
        "x2-y1y2": _alg(
            ("x",),
            ("y1", "y2"),
            lambda vs: [vs.gen("x") * vs.gen("x") - vs.gen("y1") * vs.gen("y2")],
        ),
        "x1x2": _alg(
            ("x1", "x2"), ("y",), lambda vs: [vs.gen("x1") * vs.gen("x2")]
        ),
    }


def run(seed=0):
    checks = []

    def check(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": str(detail)})

    algebras = corpus_algebras()

    # free algebras
    for m, n in ((1, 1), (2, 2)):
        A = _alg(
            tuple("x%d" % (i + 1) for i in range(m)),
            tuple("y%d" % (i + 1) for i in range(n)),
        )
        dim, _ = sdim.ksdim(A)
        check("free-ksdim-%d-%d" % (m, n), dim.as_tuple() == (m, n), dim.render())

    # corpus dimensions
    expected = {"xy": (1, 0), "xy1y2": (1, 1), "lambda2": (0, 2), "x1x2": (1, 1)}
    for name, want in sorted(expected.items()):
        dim, cert = sdim.ksdim(algebras[name])
        check(
            "ksdim-%s" % name,
            dim.as_tuple() == want,
            "%s via {%s}" % (dim.render(), ", ".join(e.render() for e in cert.elements)),
        )

    # membership agrees with the dense oracle on a fixed presentation
    A = algebras["xy1y2"]
    vs = A.vs
    probes = [
        vs.gen("x") * vs.gen("y1") * vs.gen("y2"),
        vs.gen("x") * vs.gen("y1"),
        vs.gen("y1") * vs.gen("y2"),
        vs.gen("x") ** 2 * vs.gen("y2") * vs.gen("y1"),
    ]
    ok = True
    for p in probes:
        if A.contains_in_ideal(p) != oracle_member(p, A.relations, 6):
            ok = False
    check("gb-vs-oracle", ok)

    # associated graded of a non-graded presentation
    G = sdim.gr_presentation(algebras["x2-y1y2"])
    homo = all(sdim.is_odd_weight_homogeneous(r) for r in G.relations)
    slices_a = sdim.hilbert_slice_dims(algebras["x2-y1y2"], 6)
    slices_g = sdim.hilbert_slice_dims(G, 6)
    check(
        "gr-x2-y1y2",
        homo and slices_a == slices_g,
        "; ".join(r.render() for r in G.relations),
    )

    # pair axioms on a deterministic sample
    rng = random.Random(seed)
    coeff = hcgroup.lambda_algebra(("s", "t", "u", "w"), QQ)
    pair = hcgroup.unipotent_pair(QQ)
    report = hcgroup.validate_hc_pair(pair)
    check("hc-unipotent-valid", all(good for good, _ in report.values()))
    ok = True
    samples = [_random_unipotent_element(pair, coeff, rng) for _ in range(6)]
    for i in range(4):
        a, b, c = samples[i], samples[i + 1], (samples[i + 2] if i + 2 < 6 else samples[0])
        lhs = hcgroup.hc_mul(hcgroup.hc_mul(a, b), c)
        rhs = hcgroup.hc_mul(a, hcgroup.hc_mul(b, c))
        if lhs != rhs:
            ok = False
        model = hcgroup.unipotent_model_mul(
            hcgroup.unipotent_matrix_model(a), hcgroup.unipotent_matrix_model(b), coeff
        )
        if model != hcgroup.unipotent_matrix_model(hcgroup.hc_mul(a, b)):
            ok = False
        prod = hcgroup.hc_mul(a, hcgroup.hc_inv(a))
        if prod != hcgroup.hc_identity(pair, coeff):
            ok = False
    check("hc-unipotent-axioms", ok)
    check(
        "hc-graded-flags",
        (not hcgroup.is_graded_pair(pair))
        and hcgroup.is_graded_pair(hcgroup.gl1_weight_pair(QQ))
        and hcgroup.is_graded_pair(hcgroup.gr_pair(pair)),
    )

    # orbits of odd unipotent actions on the affine superline
    free = _alg(("x",), ("y",))
    act_translate = orbits.OddAction(free, {"y": free.vs.one()})
    act_scale = orbits.OddAction(free, {"y": free.vs.gen("x")})
    orbits.validate_action(act_translate)
    orbits.validate_action(act_scale)
    r1 = orbits.orbit_ideal(act_translate, sdim.PointIdeal({"x": QQ.of(2)}))
    want1 = (
        r1.stabilizer == "trivial"
        and [g.render() for g in r1.ideal.generators] == ["x - 2"]
    )
    check("orbit-translate", want1, "; ".join(g.render() for g in r1.ideal.generators))
    r2 = orbits.orbit_ideal(act_scale, sdim.PointIdeal({"x": QQ.of(0)}))
    check("orbit-fixed", r2.stabilizer == "full")
    _, rep = orbits.verify_orbit_theorems(act_scale, sdim.PointIdeal({"x": QQ.of(3)}))
    check("orbit-theorems", all(rep.values()))

    # monomorphism necessary condition
    kx = _alg(("x",), ())
    kxy = _alg(("x",), ("y",))
    emb = Morphism(kx, kxy, {"x": kxy.vs.gen("x")})
    ident = Morphism(kxy, kxy, {"x": kxy.vs.gen("x"), "y": kxy.vs.gen("y")})
    quot_vs = algebras["xy"].vs
    quot = Morphism(kxy, algebras["xy"], {"x": quot_vs.gen("x"), "y": quot_vs.gen("y")})
    check(
        "mono-check",
        (not check_mono_necessary(emb))
        and check_mono_necessary(ident)
        and check_mono_necessary(quot),
    )

    return {"seed": seed, "checks": checks}


def _random_unipotent_element(pair, coeff, rng):
    vs = coeff.vs
    odd_gens = [vs.gen(n) for n in vs.odd]
    even_nilp = [odd_gens[0] * odd_gens[1], odd_gens[2] * odd_gens[3], odd_gens[0] * odd_gens[2]]
    c = vs.const(rng.randint(-2, 2))
    for nu in even_nilp:
        c = c + nu.scale(rng.randint(-1, 1))
    a = vs.zero()
    for y in odd_gens:
        a = a + y.scale(rng.randint(-1, 1))
    one = vs.one()
    zero = vs.zero()
    g = [[one, c], [zero, one]]
    return hcgroup.normalize_word(pair, coeff, [("g", g), ("e", a, 0)])
