"""Acceptance gate: the ten release criteria.

Every check is exact (tolerance is literal equality) and prints one
PASS/FAIL line; the suite fails if any criterion fails.
"""

import io
import random

import pytest

from superalg import dsl, hcgroup, orbits, sdim
from superalg.cli import run_command
from superalg.groebner import (
    Morphism,
    SuperAlgebra,
    SuperIdeal,
    annihilator,
    check_mono_necessary,
    ideal_equal,
    superideal_closure,
)
from superalg.oracle import all_monomials, ideal_span, oracle_annihilator_basis
from superalg.scalars import QQ
from superalg.sdim import PointIdeal, SuperDim
from superalg.superpoly import VarSet

from conftest import make_algebra, random_poly


def report(name, ok, detail=""):
    line = "%s %s" % ("PASS" if ok else "FAIL", name)
    if detail:
        line += " — %s" % detail
    print(line)
    assert ok, line


def corpus():
    return {
        "xy": make_algebra(("x",), ("y",), lambda vs: [vs.gen("x") * vs.gen("y")]),
        "xy1y2": make_algebra(
            ("x",), ("y1", "y2"), lambda vs: [vs.gen("x") * vs.gen("y1") * vs.gen("y2")]
        ),
        "lambda2": make_algebra((), ("y1", "y2")),
        "x2-y1y2": make_algebra(
            ("x",),
            ("y1", "y2"),
            lambda vs: [vs.gen("x") ** 2 - vs.gen("y1") * vs.gen("y2")],
        ),
        "x1x2": make_algebra(("x1", "x2"), ("y",), lambda vs: [vs.gen("x1") * vs.gen("x2")]),
    }


def test_criterion_1_free_algebra_ksdim():
    ok = True
    details = []
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            A = make_algebra(
                tuple("x%d" % (i + 1) for i in range(m)),
                tuple("y%d" % (i + 1) for i in range(n)),
            )
            dim, _ = sdim.ksdim(A)
            if dim.as_tuple() != (m, n):
                ok = False
                details.append("(%d|%d) -> %s" % (m, n, dim.render()))
    report("criterion-1 free-algebra Ksdim = (m|n), m,n <= 3", ok, "; ".join(details))


def test_criterion_2_corpus_ksdim_with_oracle():
    expected = {"xy": (1, 0), "xy1y2": (1, 1), "lambda2": (0, 2)}
    algebras = corpus()
    ok = True
    details = []
    for name, want in expected.items():
        A = algebras[name]
        dim, cert = sdim.ksdim(A)
        if dim.as_tuple() != want:
            ok = False
            details.append("%s -> %s" % (name, dim.render()))
            continue
        if want[1]:
            good, cert = sdim.is_odd_parameter_system(A, cert.elements)
            if not good:
                ok = False
                details.append("%s certificate rejected" % name)
                continue
            # recompute the certificate's annihilator with the dense oracle
            prod = A.vs.one()
            for y in cert.elements:
                prod = prod * y
            prod = A.nf(prod)
            closed = superideal_closure(A.relations)
            oracle_basis = oracle_annihilator_basis(prod, closed, 4, 9)
            gb_ann = annihilator(prod, A)
            span = ideal_span(
                superideal_closure(gb_ann.generators) + closed, 9
            )
            for f in oracle_basis:
                if not gb_ann.contains(f):
                    ok = False
                    details.append("%s: oracle element outside Ann" % name)
            for g in gb_ann.generators:
                if g.total_degree() <= 4 and span.reduce((g * prod).terms):
                    ok = False
                    details.append("%s: Ann generator not certified by oracle" % name)
    report("criterion-2 corpus Ksdim with certificates + oracle", ok, "; ".join(details))


def test_criterion_3_groebner_oracle_equivalence():
    rng = random.Random(20240817)
    disagreements = 0
    presentations = 0
    while presentations < 20:
        m = rng.randint(0, 4)
        n = rng.randint(0, 4 - m)
        if m + n == 0:
            continue
        vs = VarSet(
            tuple("x%d" % (i + 1) for i in range(m)),
            tuple("y%d" % (i + 1) for i in range(n)),
            QQ,
        )
        rels = []
        for _ in range(rng.randint(1, 3)):
            p = random_poly(vs, rng, max_degree=4, terms=3, coeff_range=2)
            if p and p.total_degree() > 0:
                rels.append(p)
        if not rels:
            continue
        presentations += 1
        A = SuperAlgebra(vs, rels)
        closed = superideal_closure(A.relations)
        span = ideal_span(closed, 8)
        for _ in range(8)[: 8 if m + n <= 3 else 5]:
            f = random_poly(vs, rng, max_degree=4, terms=3)
            lhs = A.contains_in_ideal(f)
            rhs = not span.reduce(f.terms)
            if lhs != rhs:
                disagreements += 1
        # also probe with known members
        for r in rels:
            g = A.nf(random_poly(vs, rng, max_degree=2, terms=2))
            probe = r * random_poly(vs, rng, max_degree=2, terms=2)
            if probe.total_degree() <= 8 and probe:
                if (not A.contains_in_ideal(probe)) or span.reduce(probe.terms):
                    disagreements += 1
    report(
        "criterion-3 membership GB vs dense oracle on 20 random presentations",
        disagreements == 0,
        "%d disagreements" % disagreements,
    )


def test_criterion_4_localization_covers():
    cases = [
        ("xy", ("x", "x - 1")),
        ("xy1y2", ("x", "x - 1")),
        ("lambda2", ("1",)),
        ("x2-y1y2", ("1",)),
        ("x1x2", ("x1", "x1 - 1")),
    ]
    algebras = corpus()
    ok = True
    details = []
    for name, elts in cases:
        A = algebras[name]
        elements = [dsl.parse_poly(e, A.vs) for e in elts]
        if not sdim.covers_unit(A, elements):
            ok = False
            details.append("%s: not a cover" % name)
            continue
        rep = sdim.verify_cover(A, elements)
        if not rep["agrees"]:
            ok = False
            details.append("%s: local %s vs global %s" % (name, rep["local"], rep["global"]))
    report("criterion-4 localized Ksdim max equals global on 5 covers", ok, "; ".join(details))


def test_criterion_5_gr_correctness():
    algebras = corpus()
    ok = True
    details = []
    for name, A in algebras.items():
        G = sdim.gr_presentation(A)
        if not all(sdim.is_odd_weight_homogeneous(r) for r in G.relations):
            ok = False
            details.append("%s: not odd-weight homogeneous" % name)
        if sdim.hilbert_slice_dims(A, 6) != sdim.hilbert_slice_dims(G, 6):
            ok = False
            details.append("%s: dimension slices differ" % name)
    report("criterion-5 gr odd-weight homogeneous + slices to degree 6", ok, "; ".join(details))


def _random_pair_element(pair, coeff, rng, dense=False):
    vs = coeff.vs
    one, zero = vs.one(), vs.zero()
    odd = [vs.gen(n) for n in vs.odd]
    quads = [(i, j) for i in range(4) for j in range(i + 1, 4)]

    def even_nilp():
        acc = vs.zero()
        picks = quads if dense else rng.sample(quads, 2)
        for i, j in picks:
            acc = acc + (odd[i] * odd[j]).scale(rng.randint(-1, 1))
        return acc

    def rand_odd():
        acc = vs.zero()
        picks = odd if dense else rng.sample(odd, 2)
        for y in picks:
            acc = acc + y.scale(rng.randint(-1, 1))
        return acc + (odd[0] * odd[1] * odd[2]).scale(rng.randint(-1, 1))

    if pair.name == "unipotent":
        g = [[one, vs.const(rng.randint(-2, 2)) + even_nilp()], [zero, one]]
    elif pair.name == "gl1-weight":
        g = [[vs.const(rng.choice([1, 2, -1, 3])) + even_nilp()]]
    else:
        E = [[one, vs.const(rng.randint(-1, 1)) + even_nilp()], [zero, one]]
        F = [[one, zero], [vs.const(rng.randint(-1, 1)) + even_nilp(), one]]
        g = hcgroup.mat_mul(E, F)
    word = [("g", g)] + [("e", rand_odd(), i) for i in range(pair.t)]
    return hcgroup.normalize_word(pair, coeff, word)


def test_criterion_6_hc_group_axioms():
    coeff = hcgroup.lambda_algebra(("s", "t", "u", "w"), QQ)
    rng = random.Random(20240817)
    failures = 0
    for name, pair in hcgroup.builtin_pairs(QQ).items():
        rep = hcgroup.validate_hc_pair(pair)
        if not all(good for good, _ in rep.values()):
            failures += 1
            continue
        ident = hcgroup.hc_identity(pair, coeff)
        for trial in range(200):
            dense = trial < 10  # a fully dense warm-up batch, then sparse ones
            a = _random_pair_element(pair, coeff, rng, dense)
            b = _random_pair_element(pair, coeff, rng, dense)
            c = _random_pair_element(pair, coeff, rng, dense)
            if hcgroup.hc_mul(hcgroup.hc_mul(a, b), c) != hcgroup.hc_mul(
                a, hcgroup.hc_mul(b, c)
            ):
                failures += 1
            if hcgroup.hc_mul(a, ident) != a or hcgroup.hc_mul(ident, a) != a:
                failures += 1
            if hcgroup.hc_mul(a, hcgroup.hc_inv(a)) != ident:
                failures += 1
    # unipotent pair against its faithful 3x3 matrix model
    pair = hcgroup.builtin_pairs(QQ)["unipotent"]
    for _ in range(100):
        a = _random_pair_element(pair, coeff, rng)
        b = _random_pair_element(pair, coeff, rng)
        lhs = hcgroup.unipotent_model_mul(
            hcgroup.unipotent_matrix_model(a), hcgroup.unipotent_matrix_model(b), coeff
        )
        if lhs != hcgroup.unipotent_matrix_model(hcgroup.hc_mul(a, b)):
            failures += 1
    report(
        "criterion-6 group axioms on 3 pairs x 200 triples + 3x3 model x 100",
        failures == 0,
        "%d failures" % failures,
    )


def test_criterion_7_graded_criterion():
    pairs = hcgroup.builtin_pairs(QQ)
    zero_bracket = {"gl1-weight"}
    ok = True
    details = []
    for name, pair in pairs.items():
        if hcgroup.is_graded_pair(pair) != (name in zero_bracket):
            ok = False
            details.append("%s graded flag wrong" % name)
        g = hcgroup.gr_pair(pair)
        if not hcgroup.is_graded_pair(g):
            ok = False
            details.append("%s: gr not graded" % name)
        rep = hcgroup.validate_hc_pair(g)
        if not all(good for good, _ in rep.values()):
            ok = False
            details.append("%s: gr fails validation" % name)
    report("criterion-7 graded iff zero bracket; gr_pair validates", ok, "; ".join(details))


def test_criterion_8_orbit_theorems():
    free = make_algebra(("x",), ("y",))
    vs = free.vs
    actions = {
        "translate": orbits.OddAction(free, {"y": vs.one()}),
        "scale": orbits.OddAction(free, {"y": vs.gen("x")}),
        "zero": orbits.OddAction(free, {}),
    }
    points = [QQ.of(c) for c in (0, 1, 2, -1, 5)]
    ok = True
    details = []
    for name, act in actions.items():
        orbits.validate_action(act)
        for c in points:
            pt = PointIdeal({"x": c})
            res, rep = orbits.verify_orbit_theorems(act, pt)
            if not all(rep.values()):
                ok = False
                details.append("%s@x=%s: %s" % (name, c, rep))
                continue
            # hand-derived ideal: (x - c) when the slope is nonzero, else
            # the maximal superideal (x - c, y)
            lam = act.apply(vs.gen("y")).evaluate_at_point({"x": c})
            if lam != QQ.zero:
                want = SuperIdeal(free, [vs.gen("x") - vs.const(c)])
                expect_stab = "trivial"
            else:
                want = SuperIdeal(free, [vs.gen("x") - vs.const(c), vs.gen("y")])
                expect_stab = "full"
            if not ideal_equal(res.ideal, want) or res.stabilizer != expect_stab:
                ok = False
                details.append("%s@x=%s: ideal/stabilizer mismatch" % (name, c))
            if res.orbit_sdim != res.group_sdim - res.stabilizer_sdim:
                ok = False
                details.append("%s@x=%s: sdim arithmetic" % (name, c))
    report("criterion-8 orbit ideals, dichotomy and sdim on 3 actions x 5 points", ok, "; ".join(details))


def test_criterion_9_mono_necessary():
    kx = make_algebra(("x",), ())
    kxy = make_algebra(("x",), ("y",))
    quot = corpus()["xy"]
    emb = Morphism(kx, kxy, {"x": kxy.vs.gen("x")})
    ident = Morphism(kxy, kxy, {"x": kxy.vs.gen("x"), "y": kxy.vs.gen("y")})
    proj = Morphism(kxy, quot, {"x": quot.vs.gen("x"), "y": quot.vs.gen("y")})
    r1 = check_mono_necessary(emb)
    r2 = check_mono_necessary(ident)
    r3 = check_mono_necessary(proj)
    report(
        "criterion-9 mono necessary condition (false, true, true)",
        (r1, r2, r3) == (False, True, True),
        "got (%s, %s, %s)" % (r1, r2, r3),
    )


def test_criterion_10_selftest_determinism():
    out1, out2 = io.StringIO(), io.StringIO()
    code1 = run_command(["selftest", "--json", "--seed", "0"], out=out1)
    code2 = run_command(["selftest", "--json", "--seed", "0"], out=out2)
    same = out1.getvalue() == out2.getvalue()
    report(
        "criterion-10 selftest --json byte-identical across runs",
        code1 == 0 and code2 == 0 and same,
        "exit codes %d/%d, identical=%s" % (code1, code2, same),
    )
