"""The coefficient representation: a rational is an ``int`` while it is
integral and a ``Fraction`` otherwise, an element of F_p is an ``int``
residue in [0, p), ``inv`` is the one inverse, and no computation ever
produces a float or a residue outside [0, p)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superalg.groebner import SuperAlgebra, annihilator, buchberger
from superalg.hcgroup import (
    EvenGroupSpec,
    HCPair,
    builtin_pairs,
    lambda_algebra,
    mat_mul,
    normalize_word,
    sl2_standard_pair,
)
from superalg.linalg import Echelon
from superalg.orbits import OddAction, orbit_ideal
from superalg.scalars import QQ, Field, inv
from superalg.sdim import PointIdeal
from superalg.superpoly import VarSet, term_key

F7 = Field(7)
FP_FIELDS = (F7, Field(11), Field(32003))
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def test_integral_rationals_are_ints():
    assert type(QQ.of(3)) is int
    two = QQ.of(Fraction(6, 3))
    assert type(two) is int and two == 2
    assert type(QQ.zero) is int and QQ.zero == 0
    assert type(QQ.one) is int and QQ.one == 1
    assert QQ.of(Fraction(1, 2)) == Fraction(1, 2)
    assert QQ.is_one(1) and QQ.is_one(Fraction(1)) and not QQ.is_one(Fraction(1, 2))


def test_residues_are_ints_in_range():
    assert F7.of(-1) == 6 and F7.of(15) == 1
    assert F7.of(Fraction(1, 2)) == 4 and F7.of(Fraction(-2, 3)) == 4
    assert (F7.zero, F7.one) == (0, 1)
    for v in (0, 1, -1, 15, -15, 10**30, Fraction(1, 2), Fraction(-9, 4)):
        r = F7.of(v)
        assert type(r) is int and 0 <= r < 7, v
    assert F7.render(F7.of(-1)) == "6"


def test_inv():
    assert inv(3, 0) == Fraction(1, 3)
    assert inv(-1, 0) == -1 and type(inv(-1, 0)) is int
    assert inv(1, 0) == 1 and type(inv(1, 0)) is int
    assert inv(Fraction(1, 3), 0) == 3 and type(inv(Fraction(1, 3), 0)) is int
    assert inv(Fraction(-1, 4), 0) == -4 and type(inv(Fraction(-1, 4), 0)) is int
    assert inv(Fraction(-2, 3), 0) == Fraction(-3, 2)
    for field in FP_FIELDS:
        p = field.char
        for c in (1, 2, 3, p - 1):
            r = inv(c, p)
            assert type(r) is int and 0 <= r < p and r * c % p == 1
    assert inv(F7.of(-1), 7) == F7.of(-1)
    for zero, p in ((0, 0), (Fraction(0), 0), (F7.zero, 7)):
        with pytest.raises(ZeroDivisionError):
            inv(zero, p)


def test_derivative_of_x_to_the_p_vanishes_over_fp():
    x = VarSet(("x",), (), F7).gen("x")
    assert (x**7).diff_even("x").is_zero()
    assert (x**8).diff_even("x") == x**7


def test_sl2_bracket_over_f7_holds_residues():
    pair = sl2_standard_pair(F7)
    assert pair.bracket[0, 1] == [[6, 0], [0, 1]]
    assert pair.bracket[1, 1] == [[0, 0], [5, 0]]
    for B in pair.bracket.values():
        for row in B + pair.drho(B):
            for c in row:
                assert type(c) is int and 0 <= c < 7


def test_linearized_action_over_f7_holds_residues():
    # GL_1 acting through d = 1/det: the linearization is minus the trace
    group = EvenGroupSpec(1, [], field=F7)
    pair = HCPair(group, 1, [[group.vs.gen("d")]], {})
    assert pair.drho([[1]]) == [[6]]
    assert pair.drho([[3]]) == [[4]]


def assert_exact(terms):
    for c in terms.values():
        assert type(c) in (int, Fraction), c


def assert_residue(c, p):
    assert type(c) is int and 0 <= c < p, c


def assert_residues(terms, p):
    for c in terms.values():
        assert_residue(c, p)


COEFFS = st.sampled_from((1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)))
# every value is a unit in F_7, F_11 and F_32003
FP_COEFFS = st.sampled_from((1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), 10**6 + 3))


@st.composite
def q_polys(draw, vs, max_terms=4, coeffs=COEFFS):
    """A SuperPoly over vs with coefficients drawn from ``coeffs``."""
    p = vs.zero()
    for _ in range(draw(st.integers(1, max_terms))):
        exps = tuple(draw(st.integers(0, 2)) for _ in range(vs.m))
        mask = draw(st.integers(0, (1 << vs.n) - 1))
        p = p + vs.monomial(exps, mask, draw(coeffs))
    return p


VS = VarSet(("x1", "x2"), ("y1", "y2"), QQ)
FP_VS = {field: VarSet(("x1", "x2"), ("y1", "y2"), field) for field in FP_FIELDS}


@PROPERTY_SETTINGS
@given(st.lists(q_polys(VS), min_size=1, max_size=4))
def test_buchberger_over_q_stays_exact(polys):
    for v in buchberger([p.terms for p in polys], term_key, 0).vectors:
        assert_exact(v)


@PROPERTY_SETTINGS
@given(st.lists(q_polys(VS, max_terms=2), max_size=2), q_polys(VS, max_terms=3))
def test_annihilator_over_q_stays_exact(relations, element):
    algebra = SuperAlgebra(VS, relations)
    if element.parity() is None:
        element = element.parity_part(0)
    for g in annihilator(element, algebra).module_gb:
        assert_exact(g.terms)


COEFF = lambda_algebra(("s", "t", "u", "w"), QQ)
PAIRS = builtin_pairs(QQ)


def draw_word(pair, coeff, data, coeffs):
    """A word of one group factor and an exponential per basis vector,
    with coefficients drawn from ``coeffs``."""
    vs = coeff.vs
    y = [vs.gen(n) for n in vs.odd]
    nilpotent = (y[0] * y[1]).scale(data.draw(coeffs)) + (y[2] * y[3]).scale(data.draw(coeffs))
    unit = vs.const(data.draw(coeffs)) + nilpotent
    one, zero = vs.one(), vs.zero()
    if pair.name == "unipotent":
        g = [[one, unit], [zero, one]]
    elif pair.name == "gl1-weight":
        g = [[unit]]
    else:
        g = mat_mul([[one, unit], [zero, one]], [[one, zero], [nilpotent, one]])
    word = [("g", g)]
    for i in range(pair.t):
        word.append(("e", y[i].scale(data.draw(coeffs)) + y[-1].scale(data.draw(coeffs)), i))
    return word


@PROPERTY_SETTINGS
@given(st.sampled_from(sorted(PAIRS)), st.data())
def test_normal_forms_over_q_stay_exact(name, data):
    pair = PAIRS[name]
    el = normalize_word(pair, COEFF, draw_word(pair, COEFF, data, COEFFS))
    for row in el.g:
        for e in row:
            assert_exact(e.terms)
    for a in el.odd:
        assert_exact(a.terms)


# Over F_p every coefficient a computation returns is a residue in [0, p).

fp_fields = st.sampled_from(FP_FIELDS)


@PROPERTY_SETTINGS
@given(fp_fields, st.data())
def test_buchberger_over_fp_gives_residues(field, data):
    polys = data.draw(st.lists(q_polys(FP_VS[field], coeffs=FP_COEFFS), min_size=1, max_size=4))
    for v in buchberger([p.terms for p in polys], term_key, field.char).vectors:
        assert_residues(v, field.char)


@PROPERTY_SETTINGS
@given(fp_fields, st.data())
def test_annihilator_over_fp_gives_residues(field, data):
    vs = FP_VS[field]
    relations = data.draw(st.lists(q_polys(vs, max_terms=2, coeffs=FP_COEFFS), max_size=2))
    element = data.draw(q_polys(vs, max_terms=3, coeffs=FP_COEFFS))
    algebra = SuperAlgebra(vs, relations)
    if element.parity() is None:
        element = element.parity_part(0)
    for g in annihilator(element, algebra).module_gb:
        assert_residues(g.terms, field.char)


FP_SETTINGS = {field: (lambda_algebra(("s", "t", "u", "w"), field), builtin_pairs(field)) for field in FP_FIELDS}


@PROPERTY_SETTINGS
@given(fp_fields, st.sampled_from(sorted(PAIRS)), st.data())
def test_normal_forms_over_fp_give_residues(field, name, data):
    coeff, pairs = FP_SETTINGS[field]
    pair = pairs[name]
    el = normalize_word(pair, coeff, draw_word(pair, coeff, data, FP_COEFFS))
    for row in el.g:
        for e in row:
            assert_residues(e.terms, field.char)
    for a in el.odd:
        assert_residues(a.terms, field.char)


@PROPERTY_SETTINGS
@given(fp_fields, st.data(), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_derivatives_and_values_over_fp_are_residues(field, data, a, b):
    f = data.draw(q_polys(FP_VS[field], coeffs=FP_COEFFS))
    for name in ("x1", "x2"):
        assert_residues(f.diff_even(name).terms, field.char)
    assert_residue(f.evaluate_at_point({"x1": a, "x2": b}), field.char)


@PROPERTY_SETTINGS
@given(fp_fields, st.integers(-10**6, 10**6), st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_orbit_ideals_over_fp_give_residues(field, point, c):
    # phi(y1) = c0*x + c1, phi(y2) = c2*x + c3 and phi(x) = 0: an odd
    # derivation of k[x | y1, y2] with phi^2 = 0
    A = SuperAlgebra(VarSet(("x",), ("y1", "y2"), field), [])
    vs = A.vs
    x = vs.gen("x")
    action = OddAction(A, {"y1": x.scale(c[0]) + c[1], "y2": x.scale(c[2]) + c[3]})
    result = orbit_ideal(action, PointIdeal({"x": point}))
    for lam in result.slopes:
        assert_residue(lam, field.char)
    for g in result.ideal.module_gb + result.ideal.generators:
        assert_residues(g.terms, field.char)


@PROPERTY_SETTINGS
@given(fp_fields, st.lists(st.dictionaries(st.integers(0, 4), st.integers(-10**6, 10**6), max_size=5), max_size=5))
def test_echelon_rows_over_fp_are_residues(field, vectors):
    span = Echelon(int, field.char)
    for v in vectors:
        span.insert({i: field.of(c) for i, c in v.items() if field.of(c)})
    for row in span.rows.values():
        assert_residues(row, field.char)
