"""mono-check and phi-dim from the n odd generators, against the forms
they replace.

``check_mono_necessary`` asks whether each odd generator of the target
lies in the superideal of the images of the source's odd generators,
decided modulo the square of the ideal of the odd generators, and
``phi_basis_lift`` reads the classes of the odd generators off the odd
Jacobian of the relations at the point; their docstrings prove that
neither answer changes.  The references are the forms they replace:
the A_0-module spanned by the images of every odd monomial of the
source, times every even monomial of the target, tested on every odd
monomial of the target, and the superideal of the images closed over
the target's 2^n components; and the greedy pass over the odd generators
reduced modulo a Gröbner basis of (x - a, y_a*y_b) + J.  Derandomized
hypothesis draws over Q and F_7 compare them on relations with cubic
odd terms and nonconstant linear coefficients, on drawn maps, quotient
maps and substitutions y_i -> +-y_s(i) + x*y_j.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superalg.groebner import (
    Morphism,
    SuperAlgebra,
    SuperIdeal,
    buchberger,
    check_mono_necessary,
)
from superalg.linalg import Echelon
from superalg.scalars import QQ, Field
from superalg.sdim import PointIdeal, phi_basis_lift, phi_dim_at_point
from superalg.superpoly import StructureError, VarSet, term_key

from conftest import max_ideal_even_gens, odd_square_free_monomials, superideal_check_mono_necessary

DRAWN = settings(max_examples=150, deadline=None, derandomize=True)
COEFFS = st.sampled_from([-3, -2, -1, 1, 2, 3])


def reference_check_mono_necessary(phi):
    """The odd-monomial form: A_0*phi(B_1) is the k[x]-span of the target's
    relation basis and the products u*phi(w), u = 1 or an even monomial of
    the target, w an odd monomial of the source; it must contain every
    odd monomial of the target."""
    bad = phi.check_well_defined()
    if bad is not None:
        raise StructureError("map is not well defined: relation %s is not sent to zero" % bad)
    dst = phi.dst
    vs = dst.vs
    vectors = list(dst.gbasis.vectors)
    even_monomials = [vs.one()] + odd_square_free_monomials(vs, parity=0)
    for m in odd_square_free_monomials(phi.src.vs, parity=1):
        img = phi.apply(m)
        if img.is_zero():
            continue
        for u in even_monomials:
            prod = dst.nf(u * img)
            if prod:
                vectors.append(prod.terms)
    gb = buchberger(vectors, term_key, vs.field.char)
    for w in odd_square_free_monomials(vs, parity=1):
        wn = dst.nf(w)
        if wn and gb.normal_form(wn.terms):
            return False
    return True


def reference_phi_basis_lift(algebra, pt):
    """The Gröbner form: each odd generator reduced modulo the superideal
    (x - a, y_a*y_b) + J, kept when its residual is independent of those
    kept before it."""
    pt.validate(algebra)
    vs = algebra.vs
    ideal = SuperIdeal(algebra, max_ideal_even_gens(pt, algebra))
    span = Echelon(term_key, vs.field.char)
    out = []
    for y in map(vs.gen, vs.odd):
        r = ideal.nf(y)
        if r and span.insert(r.terms):
            out.append(y)
    return out


def outcome(check, phi):
    """The verdict, or the type and text of the error raised."""
    try:
        return check(phi)
    except StructureError as exc:
        return type(exc).__name__, str(exc)


def odd_names(draw, least=1):
    return tuple("y%d" % i for i in range(1, draw(st.integers(least, 4)) + 1))


@st.composite
def varsets(draw):
    field = draw(st.sampled_from((QQ, Field(7))))
    return VarSet(("x1", "x2")[: draw(st.integers(1, 2))], odd_names(draw), field)


def linear_coefficient(draw, vs):
    """c or c + d*x_k: a constant, or a nonconstant linear polynomial."""
    f = vs.const(draw(COEFFS))
    if draw(st.booleans()):
        f = f + vs.gen(draw(st.sampled_from(vs.even))).scale(draw(COEFFS))
    return f


def odd_subsets(draw, vs, size):
    """A drawn product y_a*y_b*... of ``size`` distinct odd generators."""
    out = vs.one()
    for y in draw(st.permutations(vs.odd))[:size]:
        out = out * vs.gen(y)
    return out


def draw_relation(draw, vs):
    """An odd part sum c_i(x)*y_i with c_i linear, possibly nonconstant,
    plus possibly a cubic odd term c(x)*y_a*y_b*y_c, and possibly an even
    part: a quadratic g(x) or a pair term c*y_a*y_b, so some relations are
    inhomogeneous."""
    r = vs.zero()
    for y in vs.odd:
        if draw(st.booleans()):
            r = r + linear_coefficient(draw, vs) * vs.gen(y)
    if vs.n >= 3 and draw(st.booleans()):
        r = r + linear_coefficient(draw, vs) * odd_subsets(draw, vs, 3)
    if draw(st.booleans()):
        x = vs.gen(draw(st.sampled_from(vs.even)))
        r = r + x * x.scale(draw(COEFFS)) + x.scale(draw(COEFFS))
    if vs.n >= 2 and draw(st.booleans()):
        r = r + odd_subsets(draw, vs, 2).scale(draw(COEFFS))
    return r


@st.composite
def algebras_at_points(draw):
    """k[x1 (, x2) | y1 .. yn], n <= 4, over Q or F_7, a point a with
    coordinates in [-2, 2], and zero to three drawn relations shifted by
    their value at a, so that the point lies on the scheme."""
    vs = draw(varsets())
    point = {x: vs.field.of(draw(st.integers(-2, 2))) for x in vs.even}
    rels = []
    for _ in range(draw(st.integers(0, 3))):
        r = draw_relation(draw, vs)
        rels.append(r - vs.const(r.evaluate_at_point(point)))
    return SuperAlgebra(vs, rels), PointIdeal(point)


@DRAWN
@given(algebras_at_points())
def test_phi_basis_lift_matches_the_groebner_form(case):
    A, pt = case
    assert phi_basis_lift(A, pt) == reference_phi_basis_lift(A, pt)


def test_a_relation_with_a_nonconstant_coefficient_is_read_at_the_point():
    """(x - 1)*y1 kills y1's class at x = 0, not at x = 1."""
    vs = VarSet(("x",), ("y1", "y2"), QQ)
    A = SuperAlgebra(vs, [(vs.gen("x") - vs.one()) * vs.gen("y1")])
    assert phi_basis_lift(A, PointIdeal({"x": QQ.of(1)})) == [vs.gen("y1"), vs.gen("y2")]
    assert phi_basis_lift(A, PointIdeal({"x": QQ.of(0)})) == [vs.gen("y2")]
    # y2 = x*y1: at x = 1 the second class is the first one
    B = SuperAlgebra(vs, [vs.gen("y2") - vs.gen("x") * vs.gen("y1")])
    assert phi_basis_lift(B, PointIdeal({"x": QQ.of(1)})) == [vs.gen("y1")]


def test_phi_dim_builds_no_groebner_basis():
    vs = VarSet(("x",), tuple("y%d" % i for i in range(1, 41)), QQ)
    x, y1, y2, y3 = (vs.gen(g) for g in ("x", "y1", "y2", "y3"))
    A = SuperAlgebra(vs, [x * y1 * y2 * y3, x * y1 - y2])
    assert phi_dim_at_point(A, PointIdeal({"x": QQ.of(0)})) == 39
    assert phi_dim_at_point(A, PointIdeal({"x": QQ.of(1)})) == 39
    assert A._gbasis is None


def identity_images(src, dst):
    return {g: dst.vs.gen(g) for g in src.vs.even + src.vs.odd}


@st.composite
def drawn_maps(draw):
    """A source with at most one drawn relation and a drawn target on the
    same even generators; x_k goes to x_k plus possibly a pair term, y_i to
    a drawn odd element (a drawn relation's odd part) or to 0.  Many such
    maps are not well defined."""
    dst_vs = draw(varsets())
    src_vs = VarSet(dst_vs.even, odd_names(draw, 0), dst_vs.field)
    src = SuperAlgebra(src_vs, [draw_relation(draw, src_vs) for _ in range(draw(st.integers(0, 1)))])
    dst = SuperAlgebra(dst_vs, [draw_relation(draw, dst_vs) for _ in range(draw(st.integers(0, 2)))])
    images = {}
    for x in src_vs.even:
        images[x] = dst_vs.gen(x)
        if dst_vs.n >= 2 and draw(st.booleans()):
            images[x] = images[x] + odd_subsets(draw, dst_vs, 2)
    for y in src_vs.odd:
        images[y] = draw_relation(draw, dst_vs).parity_part(1) if draw(st.booleans()) else dst_vs.zero()
    return Morphism(src, dst, images)


@st.composite
def quotient_maps(draw):
    """k[x | y]/J1 -> k[x | y]/(J1 + J2), the identity on generators."""
    vs = draw(varsets())
    J1 = [draw_relation(draw, vs) for _ in range(draw(st.integers(0, 2)))]
    J2 = [draw_relation(draw, vs) for _ in range(draw(st.integers(0, 2)))]
    src, dst = SuperAlgebra(vs, J1), SuperAlgebra(vs, J1 + J2)
    return Morphism(src, dst, identity_images(src, dst))


@st.composite
def substitutions(draw):
    """The free k[x | y1 .. y_m] into a drawn quotient of k[x | y1 .. yn],
    y_i -> +-y_s(i), plus possibly x_k*y_j, for a drawn map s that may miss
    some targets; every such map is well defined."""
    dst_vs = draw(varsets())
    src_vs = VarSet(dst_vs.even, odd_names(draw), dst_vs.field)
    dst = SuperAlgebra(dst_vs, [draw_relation(draw, dst_vs) for _ in range(draw(st.integers(0, 2)))])
    images = {x: dst_vs.gen(x) for x in src_vs.even}
    for y in src_vs.odd:
        img = dst_vs.gen(draw(st.sampled_from(dst_vs.odd))).scale(draw(st.sampled_from([-1, 1])))
        if draw(st.booleans()):
            x = dst_vs.gen(draw(st.sampled_from(dst_vs.even)))
            img = img + x * dst_vs.gen(draw(st.sampled_from(dst_vs.odd)))
        images[y] = img
    return Morphism(SuperAlgebra(src_vs), dst, images)


# the verdicts each family reaches: a comparison that sees only one of
# them could not tell a change in the other direction
FAMILIES = [(drawn_maps, {True, False, "raised"}), (quotient_maps, {True}), (substitutions, {True, False})]


@pytest.mark.parametrize("maps, verdicts", FAMILIES, ids=[m.__name__ for m, _ in FAMILIES])
def test_check_mono_necessary_matches_the_odd_monomial_form(maps, verdicts):
    seen = set()

    @DRAWN
    @given(maps())
    def compare(phi):
        got = outcome(check_mono_necessary, phi)
        assert got == outcome(reference_check_mono_necessary, phi)
        assert got == outcome(superideal_check_mono_necessary, phi)
        seen.add(got if isinstance(got, bool) else "raised")

    compare()
    assert seen == verdicts


def test_only_a_missed_generator_fails_the_condition():
    """y1 -> y1 into k[x | y1, y2]: y1 lies in the image's module, y2 does
    not, so the map fails though its first target generator passes."""
    vs = VarSet(("x",), ("y1", "y2"), QQ)
    dst = SuperAlgebra(vs)
    src = SuperAlgebra(VarSet(("x",), ("y1",), QQ))
    assert check_mono_necessary(Morphism(src, dst, identity_images(src, dst))) is False
    # y1 -> y1 + x*y2, y2 -> y2 reaches both
    images = {"x": vs.gen("x"), "y1": vs.gen("y1") + vs.gen("x") * vs.gen("y2"), "y2": vs.gen("y2")}
    assert check_mono_necessary(Morphism(dst, dst, images)) is True
    # y1 -> y1 + x*y2 alone, modulo (x - 1)*y2: the image is y1 + y2, and
    # neither y1 nor y2 is an A_0-multiple of it
    quot = SuperAlgebra(vs, [(vs.gen("x") - vs.one()) * vs.gen("y2")])
    images = {"x": vs.gen("x"), "y1": vs.gen("y1") + vs.gen("x") * vs.gen("y2")}
    assert check_mono_necessary(Morphism(src, quot, images)) is False
    assert [check_mono_necessary(Morphism(src, SuperAlgebra(vs, [r]), images)) for r in (
        vs.gen("y2") - vs.gen("x") * vs.gen("y1"),  # y1 + x*y2 = (1 + x^2)*y1: y1 is not reached
        vs.gen("y2"),
    )] == [False, True]


def test_check_mono_necessary_builds_no_superideal(monkeypatch):
    """The condition is decided by one Buchberger run over the components
    of one odd generator, and no superideal is built.  y2 = x*y1 in the
    target, so the images reach y2 through y1, and not without it."""
    vs = VarSet(("x",), tuple("y%d" % i for i in range(1, 9)), QQ)
    x, y1, y2, y3 = (vs.gen(g) for g in ("x", "y1", "y2", "y3"))
    dst = SuperAlgebra(vs, [x * y1 * y2 * y3, y2 - x * y1])
    src = SuperAlgebra(VarSet(("x",), tuple(y for y in vs.odd if y != "y2"), QQ))
    images = identity_images(src, dst)

    def forbidden(*args, **kwargs):
        raise AssertionError("a superideal was built")

    monkeypatch.setattr(SuperIdeal, "__init__", forbidden)
    assert check_mono_necessary(Morphism(src, dst, images)) is True
    images["y1"] = vs.zero()
    assert check_mono_necessary(Morphism(src, dst, images)) is False
