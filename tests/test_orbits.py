"""Orbits of odd unipotent one-parameter actions.

Besides the hand-picked actions on k[x | y], a derandomized property
suite draws k[x1 (, x2) | y1 .. yn] over Q and F_7 with even relations
(some with a nilpotent part y_a*y_b), odd-factor and linear odd
relations, an odd derivation phi = sum f_i(x) d/dy_i, possibly with odd
images of the even generators, and a rational point on the scheme, keeps
the draws that ``validate_action`` accepts, and checks the paper's
statements there: every orbit theorem holds, the stabilizer is trivial
exactly when some f_i is nonzero at the point, and the even part of the
orbit ideal is the maximal ideal of the point.  It also checks that
``orbit_ideal``, which decides its odd generators by one row reduction
and each even one by a membership in bar(A), keeps the generators of the
greedy pass (``conftest.minimalize_gens``) over the m + n - 1 candidates
it reads off the n odd generators, and that those are the generators of
the greedy pass over every odd monomial.  A linear odd relation whose
row at the point has two entries is what tells the order of that row
reduction apart.
"""

import itertools
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superalg import orbits
from superalg.groebner import (
    SuperAlgebra,
    SuperIdeal,
    fresh_name,
    ideal_equal,
)
from superalg.oracle import all_monomials
from superalg.orbits import (
    ActionError,
    OddAction,
    OrbitResult,
    check_coaction_multiplicative,
    orbit_ideal,
    orbit_quotient_sdim,
    validate_action,
    verify_orbit_theorems,
)
from superalg.scalars import QQ, Field, inv
from superalg.sdim import PointIdeal, SuperDim, ksdim
from superalg.superpoly import VarSet

from conftest import make_algebra, max_ideal_even_gens, minimalize_gens, odd_square_free_monomials


@pytest.fixture
def free_line():
    return make_algebra(("x",), ("y",))


def test_validate_action(free_line):
    act = OddAction(free_line, {"y": free_line.vs.one()})
    report = validate_action(act)
    assert all(ok for ok, _ in report.values())


def test_validate_rejects_wrong_parity(free_line):
    act = OddAction(free_line, {"x": free_line.vs.gen("x")})  # even image of even gen
    with pytest.raises(ActionError):
        validate_action(act)


def test_validate_rejects_non_square_zero(free_line):
    # phi(x) = y, phi(y) = 1 gives phi^2(x) = 1 != 0
    act = OddAction(free_line, {"x": free_line.vs.gen("y"), "y": free_line.vs.one()})
    with pytest.raises(ActionError):
        validate_action(act)
    # the witness is the last generator, even ones first, on which phi^2 fails
    A = make_algebra(("x1", "x2"), ("y",))
    act = OddAction(A, {"y": A.vs.one(), "x1": A.vs.gen("y"), "x2": A.vs.gen("y")})
    with pytest.raises(ActionError, match=r"^square_zero check failed: phi\^2\(x2\) = 1 is nonzero$"):
        validate_action(act)
    assert check_coaction_multiplicative(act) is False


def test_validate_rejects_unstable_ideal():
    A = make_algebra(("x",), ("y",), lambda vs: [vs.gen("x") * vs.gen("y")])
    act = OddAction(A, {"y": A.vs.one()})  # phi(x*y) = x, not in (xy)
    with pytest.raises(ActionError):
        validate_action(act)


def extended_algebra_group_law(action):
    """The group-law check computed over A (x) /\\(z1, z2) itself: acting by
    z1 and then z2, f + (z1 + z2) phi(f) + z1 z2 phi^2(f), against acting
    by z1 + z2, f + (z1 + z2) phi(f), for every generator f."""
    A = action.algebra
    vs = A.vs
    taken = set(vs.even + vs.odd)
    z1name = fresh_name("z1", taken)
    taken.add(z1name)
    z2name = fresh_name("z2", taken)
    ext = VarSet(vs.even, vs.odd + (z1name, z2name), vs.field)
    lift = {n: ext.gen(n) for n in vs.even + vs.odd}
    z1 = ext.gen(z1name)
    z2 = ext.gen(z2name)
    Aext = SuperAlgebra(ext, [r.substitute(lift, ext) for r in A.relations])
    for name in vs.even + vs.odd:
        f = vs.gen(name)
        pf = action.apply(f)
        ppf = action.apply(pf)
        femb = f.substitute(lift, ext)
        pfemb = pf.substitute(lift, ext)
        ppfemb = ppf.substitute(lift, ext)
        one_step = femb + (z1 + z2) * pfemb
        two_step = femb + (z1 + z2) * pfemb + z1 * z2 * ppfemb
        if Aext.nf(two_step - one_step):
            return False
    return True


def test_coaction_group_law(free_line):
    act = OddAction(free_line, {"y": free_line.vs.gen("x")})
    assert check_coaction_multiplicative(act)
    assert extended_algebra_group_law(act)
    # not validated: phi(x) = y, phi(y) = 1 has phi^2(x) = 1
    act = OddAction(free_line, {"x": free_line.vs.gen("y"), "y": free_line.vs.one()})
    assert check_coaction_multiplicative(act) is False
    assert extended_algebra_group_law(act) is False


def test_translation_orbits(free_line):
    act = OddAction(free_line, {"y": free_line.vs.one()})
    for c in (0, 1, 2, -3, 7):
        res = orbit_ideal(act, PointIdeal({"x": QQ.of(c)}))
        assert res.stabilizer == "trivial"
        assert res.orbit_sdim == SuperDim(0, 1)
        want = SuperIdeal(free_line, [free_line.vs.gen("x") - free_line.vs.const(c)])
        assert ideal_equal(res.ideal, want)


def test_orbit_result_defaults(free_line):
    res = OrbitResult({"x": 0}, [0], None, "full")
    assert (res.orbit_sdim, res.group_sdim, res.stabilizer_sdim) == (None, SuperDim(0, 1), None)
    assert res == OrbitResult(point={"x": 0}, slopes=[0], ideal=None, stabilizer="full")
    assert res != OrbitResult({"x": 0}, [0], None, "full", SuperDim(0, 0))
    assert repr(res).startswith("OrbitResult(point={'x': 0}, slopes=[0], ideal=None, stabilizer='full'")
    assert repr(res).endswith("group_sdim=SuperDim(even=0, odd=1), stabilizer_sdim=None)")
    act = OddAction(free_line, {"y": free_line.vs.one()})
    res = orbit_ideal(act, PointIdeal({"x": QQ.of(2)}))
    assert (res.slopes, res.group_sdim) == ([1], SuperDim(0, 1))


def test_scaling_orbits(free_line):
    act = OddAction(free_line, {"y": free_line.vs.gen("x")})
    res0 = orbit_ideal(act, PointIdeal({"x": QQ.of(0)}))
    assert res0.stabilizer == "full"
    assert res0.orbit_sdim == SuperDim(0, 0)
    want0 = SuperIdeal(free_line, [free_line.vs.gen("x"), free_line.vs.gen("y")])
    assert ideal_equal(res0.ideal, want0)
    for c in (1, 2, -1, 5):
        res = orbit_ideal(act, PointIdeal({"x": QQ.of(c)}))
        assert res.stabilizer == "trivial"
        want = SuperIdeal(free_line, [free_line.vs.gen("x") - free_line.vs.const(c)])
        assert ideal_equal(res.ideal, want)


def test_zero_action_orbits(free_line):
    act = OddAction(free_line, {})
    for c in (0, 1, -2):
        res = orbit_ideal(act, PointIdeal({"x": QQ.of(c)}))
        assert res.stabilizer == "full"
        assert res.orbit_sdim == SuperDim(0, 0)


def test_orbit_theorems_arithmetic(free_line):
    for images in ({}, {"y": free_line.vs.one()}, {"y": free_line.vs.gen("x")}):
        act = OddAction(free_line, images)
        for c in (0, 1, 2, -1, 4):
            res, report = verify_orbit_theorems(act, PointIdeal({"x": QQ.of(c)}))
            assert all(report.values()), (images, c, report)
            assert res.orbit_sdim == res.group_sdim - res.stabilizer_sdim


def test_even_part_of_orbit_ideal_is_m(free_line):
    """The even slice of the orbit ideal is exactly the maximal ideal of
    the even part."""
    act = OddAction(free_line, {"y": free_line.vs.one()})
    pt = PointIdeal({"x": QQ.of(2)})
    res = orbit_ideal(act, pt)
    m = SuperIdeal(free_line, max_ideal_even_gens(pt, free_line))
    for g in res.ideal.module_gb:
        if g.parity() == 0:
            assert m.contains(g)
    for g in m.module_gb:
        assert res.ideal.contains(g)


def test_pivot_independence():
    A = make_algebra(("x",), ("y1", "y2"))
    vs = A.vs
    act = OddAction(A, {"y1": vs.one(), "y2": vs.const(3)})
    validate_action(act)
    pt = PointIdeal({"x": QQ.of(1)})
    res = orbit_ideal(act, pt)
    assert res.slopes == [1, 3]
    for j, yj in enumerate(vs.odd):
        # the orbit ideal built around pivot j: y_i - (lam_i / lam_j) * y_j
        odd_gens = [
            vs.gen(y) - vs.gen(yj).scale(lam * inv(res.slopes[j], 0))
            for i, (y, lam) in enumerate(zip(vs.odd, res.slopes))
            if i != j
        ]
        # identical reduced bases
        assert res.ideal.module_gb == SuperIdeal(A, pt.even_gens(A) + odd_gens).module_gb


def test_a_redundant_odd_candidate_is_dropped():
    """On k[x | y1, y2]/(x*y2) with phi(y1) = 1, the odd candidate y2 lies
    in (x - 1) at x = 1, since y2 = -(x - 1)*y2 + x*y2."""
    A = make_algebra(("x",), ("y1", "y2"), lambda vs: [vs.gen("x") * vs.gen("y2")])
    act = OddAction(A, {"y1": A.vs.one()})
    validate_action(act)
    res = orbit_ideal(act, PointIdeal({"x": QQ.of(1)}))
    assert (res.stabilizer, [g.render() for g in res.ideal.generators]) == ("trivial", ["x - 1"])
    assert res.slopes == [1, 0]


def test_orbit_on_quotient_algebra():
    A = make_algebra(("x",), ("y",), lambda vs: [vs.gen("x") * vs.gen("y")])
    act = OddAction(A, {"y": A.vs.gen("x")})  # phi(xy) = x^2? no: check stability
    # phi(x*y) = x * phi(y) = x^2, not in (xy): invalid on this quotient
    with pytest.raises(ActionError):
        validate_action(act)
    # the zero action is always valid and fixes every point
    act0 = OddAction(A, {})
    validate_action(act0)
    res = orbit_ideal(act0, PointIdeal({"x": QQ.of(1)}))
    assert res.stabilizer == "full"


def test_slopes_on_lambda1_coefficients():
    """The orbit map through x: evaluating against a coefficient point of
    the odd group reproduces f(x) + s * phi(f)(x) on a spanning set."""
    free = make_algebra(("x",), ("y",))
    act = OddAction(free, {"y": free.vs.one()})
    lam = make_algebra((), ("s",))
    s = lam.vs.gen("s")
    pt = {"x": QQ.of(2)}
    # spanning set of low degree
    span = [free.vs.one(), free.vs.gen("x"), free.vs.gen("x") ** 2,
            free.vs.gen("y"), free.vs.gen("x") * free.vs.gen("y")]
    for f in span:
        fe = f.parity_part(0)
        fo = f.parity_part(1)
        # (g x)(f) = x(f) + s * x(phi(f)): odd part contributes via phi
        val = lam.vs.const(fe.evaluate_at_point(pt)) + s.scale(
            act.apply(fo).evaluate_at_point(pt)
        )
        expected = lam.vs.const(f.evaluate_at_point(pt)) + s.scale(
            act.apply(f).evaluate_at_point(pt)
        )
        assert lam.nf(val - expected).is_zero()


def draw_even_poly(draw, vs, monos):
    """A sum of one to three distinct drawn even monomials with drawn
    nonzero coefficients in [-3, 3]."""
    f = vs.zero()
    for exps in draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True)):
        f = f + vs.monomial(exps, 0, draw(st.sampled_from([-3, -2, -1, 1, 2, 3])))
    return f


@st.composite
def actions_at_points(draw):
    """(action, point) that ``validate_action`` accepts: k[x1 (, x2) | y1
    .. yn], n from 1 to 3, over Q or F_7, a point a with coordinates in
    [-3, 3], phi(y_i) = f_i(x) of degree at most 2, each f_i possibly
    zero, zero to two relations g(x) - g(a) with g of degree 1 or 2, each
    possibly with a nilpotent odd part c*y_a*y_b over two y with f = 0,
    possibly an odd-factor relation h(x)*y_T, possibly a linear odd
    relation sum h_k(x)*y_k over the y_k with f_k = 0, each h_k of degree
    at most 1, and possibly an odd phi(x_k) = h_k(x)*y_i with f_i = 0.
    Draws on which phi is not a square-zero odd derivation of A are
    discarded."""
    field = draw(st.sampled_from((QQ, Field(7))))
    even = ("x1", "x2")[: draw(st.integers(1, 2))]
    odd = tuple("y%d" % i for i in range(1, draw(st.integers(1, 3)) + 1))
    vs = VarSet(even, odd, field)
    point = {x: field.of(draw(st.integers(-3, 3))) for x in even}
    monos = [e for e, mask in all_monomials(vs, 2) if not mask]
    images = {y: draw_even_poly(draw, vs, monos) if draw(st.booleans()) else vs.zero() for y in odd}
    idle = [y for y in odd if not images[y]]  # phi^2(x_k) = 0 needs phi(y_i) = 0 there
    idle_pairs = list(itertools.combinations(idle, 2))
    rels = []
    for _ in range(draw(st.integers(0, 2))):
        g = draw_even_poly(draw, vs, [e for e in monos if sum(e)])
        g = g - vs.const(g.evaluate_at_point(point))
        if idle_pairs and draw(st.booleans()):
            # phi kills y_a*y_b; x_k - a_k may then lie in the orbit ideal
            # only through N^2, N the ideal of the odd generators
            a, b = draw(st.sampled_from(idle_pairs))
            g = g + (vs.gen(a) * vs.gen(b)).scale(draw(st.sampled_from([-3, -2, -1, 1, 2, 3])))
        rels.append(g)
    if draw(st.booleans()):
        y_T = vs.monomial((0,) * vs.m, draw(st.integers(1, (1 << vs.n) - 1)))
        rels.append(draw_even_poly(draw, vs, monos) * y_T)
    if idle and draw(st.booleans()):
        # phi kills every y_k here, so phi(r) = sum phi(h_k)*y_k
        linear = [e for e in monos if sum(e) <= 1]
        rels.append(sum((draw_even_poly(draw, vs, linear) * vs.gen(y) for y in idle), vs.zero()))
    A = SuperAlgebra(vs, rels)
    for x in even:
        if idle and draw(st.booleans()):
            images[x] = draw_even_poly(draw, vs, monos) * vs.gen(draw(st.sampled_from(idle)))
    act = OddAction(A, images)
    try:
        validate_action(act)
    except ActionError:
        assume(False)
    return act, PointIdeal(point)


def greedy_generators(action, pt, evens, odds):
    """The rendered generators that the greedy pass keeps from the even
    candidates, then w - (lam_w / lam_j)*w_j for each odd candidate w but
    w_j, the first with a nonzero slope lam_w = ev_x(phi(w)); None when
    every slope vanishes."""
    vs = action.algebra.vs
    slopes = [action.apply(w).evaluate_at_point(pt.point) for w in odds]
    pivot = next((i for i, lam in enumerate(slopes) if lam), None)
    if pivot is None:
        return None
    wj, lamj = odds[pivot], slopes[pivot]
    odd_gens = [
        w - wj.scale(lam * inv(lamj, vs.field.char))
        for i, (w, lam) in enumerate(zip(odds, slopes))
        if i != pivot
    ]
    return [g.render() for g in minimalize_gens(action.algebra, evens + odd_gens)]


def all_candidate_generators(action, pt):
    """The orbit ideal's rendered generators from the whole odd module: the
    greedy pass over the x_i - a_i and the pairs y_a*y_b, then every odd
    square-free monomial with nonzero normal form as an odd candidate; None
    when every slope vanishes.  ``orbit_ideal`` reads its candidates off the
    n odd generators alone: every pair and every y_T with |T| >= 3 lies in
    N (o_1, ..., o_n), N the ideal of the odd generators, so by the
    nilpotence argument of its docstring none decides a test.  This is the
    reference for that."""
    A = action.algebra
    odds = [w for w in odd_square_free_monomials(A.vs, parity=1) if A.nf(w)]
    return greedy_generators(action, pt, max_ideal_even_gens(pt, A), odds)


def rendered_generators(result):
    """The orbit ideal's rendered generators when the stabilizer is trivial,
    else None."""
    return [g.render() for g in result.ideal.generators] if result.stabilizer == "trivial" else None


@settings(max_examples=120, deadline=None, derandomize=True)
@given(actions_at_points())
def test_orbit_theorems_hold_on_drawn_actions(case):
    act, pt = case
    vs = act.algebra.vs
    assert all(ok for ok, _ in validate_action(act).values())
    res, report = verify_orbit_theorems(act, pt)
    assert all(report.values()), report
    assert check_coaction_multiplicative(act) == extended_algebra_group_law(act)
    moved = any(act.images[y].evaluate_at_point(pt.point) for y in vs.odd)
    assert res.stabilizer == ("trivial" if moved else "full")
    # the even part of the orbit ideal is the maximal ideal of the point
    for x in vs.even:
        assert res.ideal.contains(vs.gen(x) - vs.const(pt.point[x]))
    assert not res.ideal.contains(vs.one())
    assert rendered_generators(res) == all_candidate_generators(act, pt)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(actions_at_points())
def test_orbit_generators_are_those_of_the_greedy_pass(case):
    act, pt = case
    A = act.algebra
    want = greedy_generators(act, pt, pt.even_gens(A), [A.vs.gen(y) for y in A.vs.odd])
    assert rendered_generators(orbit_ideal(act, pt)) == want


@settings(max_examples=100, deadline=None, derandomize=True)
@given(actions_at_points())
def test_the_orbit_quotient_takes_the_orbit_ideals_basis(case):
    """``orbit_quotient_sdim`` presets the quotient's relation basis to the
    orbit ideal's, and that basis is the one a fresh completion of
    the quotient's relations gives, over Q and F_7."""
    act, pt = case
    result = orbit_ideal(act, pt)
    ideal = result.ideal
    amb = ideal.ambient
    fresh = SuperAlgebra(amb.vs, amb.relations + ideal.generators)
    assert fresh.gbasis.lead_codes == ideal.gbasis.lead_codes
    assert fresh.gbasis.codes == ideal.gbasis.codes
    quotients = []

    def recording(algebra):
        quotients.append(algebra)
        return ksdim(algebra)

    with mock.patch.object(orbits, "ksdim", recording):
        computed = orbit_quotient_sdim(result)
    (quotient,) = quotients
    assert quotient.gbasis is ideal.gbasis
    assert quotient.relations == fresh.relations
    assert computed == ksdim(fresh)[0] == result.orbit_sdim


def superideals_by_ambient(monkeypatch):
    """Record each SuperIdeal built from here on: {ambient's odd count:
    [its generators, one list per superideal]}."""
    built = {}
    init = SuperIdeal.__init__

    def counting_init(self, ambient, generators=()):
        built.setdefault(ambient.vs.n, []).append([g.render() for g in generators])
        init(self, ambient, generators)

    monkeypatch.setattr(SuperIdeal, "__init__", counting_init)
    return built


def test_orbit_ideal_builds_one_superideal_over_the_algebra(monkeypatch):
    """On k[x1, x2 | y1..y8]/(x1*y1y2y3) with phi(y8) = 1 at x = (0, 1),
    the seven odd candidates are decided by row reduction and each even
    candidate in bar(A), which has no odd generator: the one superideal
    over A is the result."""
    vs = VarSet(("x1", "x2"), tuple("y%d" % i for i in range(1, 9)), QQ)
    A = SuperAlgebra(vs, [vs.gen("x1") * vs.gen("y1") * vs.gen("y2") * vs.gen("y3")])
    act = OddAction(A, {"y8": vs.one()})
    validate_action(act)
    built = superideals_by_ambient(monkeypatch)
    res = orbit_ideal(act, PointIdeal({"x1": QQ.of(0), "x2": QQ.of(1)}))
    assert built == {0: [["x2 - 1"], ["x1"]], 8: [["x1", "x2 - 1"] + ["y%d" % i for i in range(1, 8)]]}
    assert rendered_generators(res) == ["x1", "x2 - 1"] + ["y%d" % i for i in range(1, 8)]


def test_a_lone_even_candidate_is_tested_against_the_relations_of_bar_a(monkeypatch, free_line):
    """On k[x | y] with phi(y) = 1 at x = 2 there is no odd candidate, so
    x - 2 is tested against bar(J) = 0 alone, with no special case, and
    kept; the only superideal over A is the result."""
    act = OddAction(free_line, {"y": free_line.vs.one()})
    built = superideals_by_ambient(monkeypatch)
    res = orbit_ideal(act, PointIdeal({"x": QQ.of(2)}))
    assert built == {0: [[]], 1: [["x - 2"]]}
    assert rendered_generators(res) == ["x - 2"]


def test_an_even_candidate_equal_to_an_odd_pair_is_dropped():
    """On k[x | y1, y2]/(x - y1*y2) with phi(y2) = 1 and phi(x) = -y1 at
    x = 0, x = y1*y2 = o_1*y2 lies in the ideal of the odd candidate
    o_1 = y1: its image in bar(A) = k[x]/(x) is zero, and it is dropped."""
    vs = VarSet(("x",), ("y1", "y2"), QQ)
    A = SuperAlgebra(vs, [vs.gen("x") - vs.gen("y1") * vs.gen("y2")])
    act = OddAction(A, {"y2": vs.one(), "x": -vs.gen("y1")})
    validate_action(act)
    res = orbit_ideal(act, PointIdeal({"x": QQ.of(0)}))
    assert rendered_generators(res) == ["y1"]
    assert res.ideal.contains(vs.gen("x"))


# Stabilizer and generators of the orbit ideal on k[x1, x2 | y1 .. yn]/(x1^2 -
# x2 - 2) with phi(y_i) = x1 + i at the point (a, a^2 - 2), keyed (n, p, a).
# They were recorded with the products g*w_j of the point's even generators
# and the pivot's odd generator among the candidates; those products lie in
# the ideal the other generators make, so leaving them out changes nothing.
PARABOLA_ORBITS = {
    (1, 0, -1): ("full", ["x1 + 1", "x2 + 1", "y1"]),
    (1, 0, 1): ("trivial", ["x1 - 1"]),
    (1, 0, 2): ("trivial", ["x1 - 2"]),
    (1, 7, -1): ("full", ["x1 + 1", "x2 + 1", "y1"]),
    (1, 7, 1): ("trivial", ["x1 + 6"]),
    (1, 7, 2): ("trivial", ["x1 + 5"]),
    (2, 0, -1): ("trivial", ["x1 + 1", "y1"]),
    (2, 0, 1): ("trivial", ["x1 - 1", "y2 - 3/2*y1"]),
    (2, 0, 2): ("trivial", ["x1 - 2", "y2 - 4/3*y1"]),
    (2, 7, -1): ("trivial", ["x1 + 1", "y1"]),
    (2, 7, 1): ("trivial", ["x1 + 6", "y2 + 2*y1"]),
    (2, 7, 2): ("trivial", ["x1 + 5", "y2 + y1"]),
    (3, 0, -1): ("trivial", ["x1 + 1", "y1", "y3 - 2*y2"]),
    (3, 0, 1): ("trivial", ["x1 - 1", "y2 - 3/2*y1", "y3 - 2*y1"]),
    (3, 0, 2): ("trivial", ["x1 - 2", "y2 - 4/3*y1", "y3 - 5/3*y1"]),
    (3, 7, -1): ("trivial", ["x1 + 1", "y1", "y3 + 5*y2"]),
    (3, 7, 1): ("trivial", ["x1 + 6", "y2 + 2*y1", "y3 + 5*y1"]),
    (3, 7, 2): ("trivial", ["x1 + 5", "y2 + y1", "y3 + 3*y1"]),
}


@pytest.mark.parametrize("n, p, a", sorted(PARABOLA_ORBITS))
def test_orbit_generators_on_the_parabola_family(n, p, a):
    field = Field(p) if p else QQ
    vs = VarSet(("x1", "x2"), tuple("y%d" % i for i in range(1, n + 1)), field)
    x1, x2 = vs.gen("x1"), vs.gen("x2")
    A = SuperAlgebra(vs, [x1 * x1 - x2 - vs.const(2)])
    act = OddAction(A, {y: x1 + vs.const(i) for i, y in enumerate(vs.odd, 1)})
    res, report = verify_orbit_theorems(act, PointIdeal({"x1": field.of(a), "x2": field.of(a * a - 2)}))
    assert all(report.values()), report
    assert (res.stabilizer, [g.render() for g in res.ideal.generators]) == PARABOLA_ORBITS[(n, p, a)]
