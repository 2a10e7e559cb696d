"""Ring axioms, signs and calculus for the polynomial layer."""

import random
from fractions import Fraction

import pytest

from superalg.scalars import Field, FieldError, QQ, _is_prime
from superalg.superpoly import ParityError, StructureError, SuperPoly, VarSet

from conftest import random_poly


@pytest.fixture
def vs():
    return VarSet(("x1", "x2"), ("y1", "y2", "y3"), QQ)


def test_ring_axioms_randomized(vs, rng):
    for _ in range(400):
        a = random_poly(vs, rng)
        b = random_poly(vs, rng)
        c = random_poly(vs, rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * vs.one() == a
        assert (a - a).is_zero()


def test_supercommutativity(vs, rng):
    for _ in range(300):
        a = random_poly(vs, rng)
        b = random_poly(vs, rng)
        pa, pb = a.parity(), b.parity()
        if pa is None or pb is None:
            continue
        sign = -1 if (pa and pb) else 1
        assert a * b == (b * a).scale(sign)


def test_odd_squares_vanish(vs):
    for name in vs.odd:
        y = vs.gen(name)
        assert (y * y).is_zero()
    y1, y2 = vs.gen("y1"), vs.gen("y2")
    assert y1 * y2 == -(y2 * y1)
    odd = y1 + y2
    assert (odd * odd).is_zero()


def test_parity_bookkeeping(vs):
    x, y = vs.gen("x1"), vs.gen("y1")
    assert x.parity() == 0
    assert y.parity() == 1
    assert (x * y).parity() == 1
    assert (y * vs.gen("y2")).parity() == 0
    assert (x + y).parity() is None
    mixed = x + y
    assert mixed.parity_part(0) == x
    assert mixed.parity_part(1) == y


def test_render_canonical(vs):
    x1, y1, y3 = vs.gen("x1"), vs.gen("y1"), vs.gen("y3")
    p = (x1 * x1 * y1 * y3).scale(3) - vs.gen("y2").scale(Fraction(1, 2))
    assert p.render() == "3*x1^2*y1y3 - 1/2*y2"
    assert vs.zero().render() == "0"
    assert vs.one().render() == "1"
    assert (-vs.one()).render() == "-1"


def test_evaluate_at_point(vs):
    p = vs.gen("x1") ** 2 + vs.gen("x2").scale(3) + vs.gen("y1") * vs.gen("y2")
    assert p.evaluate_at_point({"x1": 2, "x2": 1}) == QQ.of(7)
    with pytest.raises(StructureError):
        p.evaluate_at_point({"x1": 2})


def test_substitute_parity_check(vs):
    target = VarSet(("z",), ("w",), QQ)
    with pytest.raises(ParityError):
        vs.gen("y1").substitute(
            {n: target.gen("z") for n in vs.even + vs.odd}, target
        )


def test_derivation_leibniz_even(vs, rng):
    # an even derivation: d(x1) = x2, d(y1) = y2, extended by Leibniz
    images = {"x1": vs.gen("x2"), "y1": vs.gen("y2")}
    for _ in range(150):
        a = random_poly(vs, rng)
        b = random_poly(vs, rng)
        lhs = (a * b).apply_derivation(images, parity=0)
        rhs = a.apply_derivation(images, parity=0) * b + a * b.apply_derivation(
            images, parity=0
        )
        assert lhs == rhs


def test_derivation_leibniz_odd(vs, rng):
    # an odd derivation: signed Leibniz d(ab) = d(a) b + (-1)^|a| a d(b)
    images = {"x1": vs.gen("y1"), "y2": vs.gen("x2"), "y3": vs.one()}
    for _ in range(150):
        a = random_poly(vs, rng)
        b = random_poly(vs, rng)
        pa = a.parity()
        if pa is None:
            continue
        lhs = (a * b).apply_derivation(images, parity=1)
        rhs = a.apply_derivation(images, parity=1) * b + (
            a * b.apply_derivation(images, parity=1)
        ).scale((-1) ** pa)
        assert lhs == rhs


def test_diff_even(vs):
    p = vs.gen("x1") ** 3 * vs.gen("y1") + vs.gen("x2")
    assert p.diff_even("x1") == (vs.gen("x1") ** 2 * vs.gen("y1")).scale(3)
    assert p.diff_even("x2") == vs.one()


def test_total_degree(vs):
    assert vs.zero().total_degree() == -1
    assert vs.one().total_degree() == 0
    assert (vs.gen("x1") * vs.gen("y1") * vs.gen("y2")).total_degree() == 3


def test_finite_field_arithmetic():
    f5 = Field(5)
    vs = VarSet(("x",), ("y1", "y2"), f5)
    x = vs.gen("x")
    p = (x + vs.one()) ** 5
    # Frobenius: (x+1)^5 = x^5 + 1 mod 5
    assert p == x ** 5 + vs.one()
    with pytest.raises(FieldError):
        Field(2)
    with pytest.raises(FieldError):
        Field(6)


def test_prime_check_is_deterministic_miller_rabin():
    def trial_division(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(3000) if _is_prime(n)] == [n for n in range(3000) if trial_division(n)]
    # strong pseudoprimes to every prime base up to 23 and up to 37
    assert not _is_prime(3825123056546413051)
    assert not _is_prime(318665857834031151167461)
    assert Field(1000000000000000003).char == 1000000000000000003
    with pytest.raises(FieldError):
        Field(2**89 - 1)  # prime, but beyond the certified range


def test_fraction_with_denominator_divisible_by_p_is_a_field_error():
    F7 = Field(7)
    assert F7.of(1) + F7.of(Fraction(1, 3)) == 6
    with pytest.raises(FieldError):
        F7.of(Fraction(1, 7))
    with pytest.raises(FieldError):
        F7.of(Fraction(3, 14))
    x = VarSet(("x",), (), F7).gen("x")
    with pytest.raises(FieldError):
        x + Fraction(1, 7)
    with pytest.raises(FieldError):
        Fraction(3, 14) * x


def test_polys_over_q_and_fp_do_not_mix():
    xq = VarSet(("x",), (), QQ).gen("x")
    x7 = VarSet(("x",), (), Field(7)).gen("x")
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(StructureError):
            op(xq, x7)
        with pytest.raises(StructureError):
            op(x7, xq)


def test_max_odd_limit():
    with pytest.raises(StructureError):
        VarSet((), tuple("y%d" % i for i in range(64)), QQ)


def test_pow(vs):
    a = vs.gen("x1") + vs.gen("y1") * vs.gen("y2")
    assert a ** 0 == vs.one()
    assert a ** 1 == a
    assert a ** 3 == a * a * a
