"""The coefficient representation: a rational is an ``int`` while it is
integral and a ``Fraction`` otherwise, ``inv`` is the one inverse, and no
computation over Q ever produces a float."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superalg.groebner import SuperAlgebra, annihilator, buchberger
from superalg.hcgroup import builtin_pairs, lambda_algebra, mat_mul, normalize_word
from superalg.scalars import QQ, Field, GFElement, inv
from superalg.superpoly import VarSet, term_key

F7 = Field(7)
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def test_integral_rationals_are_ints():
    assert type(QQ.of(3)) is int
    two = QQ.of(Fraction(6, 3))
    assert type(two) is int and two == 2
    assert type(QQ.zero) is int and QQ.zero == 0
    assert type(QQ.one) is int and QQ.one == 1
    assert QQ.of(Fraction(1, 2)) == Fraction(1, 2)
    assert type(QQ.parse("4/2")) is int
    assert QQ.is_one(1) and QQ.is_one(Fraction(1)) and not QQ.is_one(Fraction(1, 2))


def test_inv():
    assert inv(3) == Fraction(1, 3)
    assert inv(-1) == -1 and type(inv(-1)) is int
    assert inv(1) == 1 and type(inv(1)) is int
    assert inv(Fraction(1, 3)) == 3 and type(inv(Fraction(1, 3))) is int
    assert inv(Fraction(-1, 4)) == -4 and type(inv(Fraction(-1, 4))) is int
    assert inv(Fraction(-2, 3)) == Fraction(-3, 2)
    three = F7.of(3)
    assert type(inv(three)) is GFElement and inv(three) * three == F7.one
    assert inv(F7.of(-1)) == F7.of(-1)
    for zero in (0, Fraction(0), F7.zero):
        with pytest.raises(ZeroDivisionError):
            inv(zero)


def assert_exact(terms):
    for c in terms.values():
        assert type(c) in (int, Fraction), c


COEFFS = st.sampled_from((1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)))


@st.composite
def q_polys(draw, vs, max_terms=4):
    """A SuperPoly over vs with rational coefficients, integral or not."""
    p = vs.zero()
    for _ in range(draw(st.integers(1, max_terms))):
        exps = tuple(draw(st.integers(0, 2)) for _ in range(vs.m))
        mask = draw(st.integers(0, (1 << vs.n) - 1))
        p = p + vs.monomial(exps, mask, draw(COEFFS))
    return p


VS = VarSet(("x1", "x2"), ("y1", "y2"), QQ)


@PROPERTY_SETTINGS
@given(st.lists(q_polys(VS), min_size=1, max_size=4))
def test_buchberger_over_q_stays_exact(polys):
    for v in buchberger([p.terms for p in polys], term_key).vectors:
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


@PROPERTY_SETTINGS
@given(st.sampled_from(sorted(PAIRS)), st.data())
def test_normal_forms_over_q_stay_exact(name, data):
    pair = PAIRS[name]
    vs = COEFF.vs
    y = [vs.gen(n) for n in vs.odd]
    nilpotent = (y[0] * y[1]).scale(data.draw(COEFFS)) + (y[2] * y[3]).scale(data.draw(COEFFS))
    unit = vs.const(data.draw(COEFFS)) + nilpotent
    one, zero = vs.one(), vs.zero()
    if name == "unipotent":
        g = [[one, unit], [zero, one]]
    elif name == "gl1-weight":
        g = [[unit]]
    else:
        g = mat_mul([[one, unit], [zero, one]], [[one, zero], [nilpotent, one]])
    word = [("g", g)]
    for i in range(pair.t):
        word.append(("e", y[i].scale(data.draw(COEFFS)) + y[-1].scale(data.draw(COEFFS)), i))
    el = normalize_word(pair, COEFF, word)
    for row in el.g:
        for e in row:
            assert_exact(e.terms)
    for a in el.odd:
        assert_exact(a.terms)
