"""Superideal Gröbner machinery against the dense linear-algebra oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superalg import _kernel, groebner
from superalg.groebner import (
    GBasis,
    Morphism,
    SuperAlgebra,
    SuperIdeal,
    annihilator,
    buchberger,
    check_mono_necessary,
    ideal_equal,
    localize_at_even,
    superideal_closure,
)
from superalg.hcgroup import mat_det
from superalg.oracle import oracle_annihilator_basis, oracle_member
from superalg.scalars import QQ, Field
from superalg.superpoly import ParityError, StructureError, VarSet, term_key

from conftest import make_algebra, random_poly


def random_presentation(rng, max_vars=4, max_rel_degree=4):
    m = rng.randint(0, max_vars)
    n = rng.randint(0, max_vars - m)
    vs = VarSet(
        tuple("x%d" % (i + 1) for i in range(m)),
        tuple("y%d" % (i + 1) for i in range(n)),
        QQ,
    )
    rels = []
    for _ in range(rng.randint(1, 3)):
        p = random_poly(vs, rng, max_degree=max_rel_degree, terms=3, coeff_range=2)
        if p and p.total_degree() > 0:
            rels.append(p)
    return SuperAlgebra(vs, rels)


def test_nf_is_idempotent_and_linear(rng):
    A = make_algebra(("x",), ("y1", "y2"), lambda vs: [vs.gen("x") * vs.gen("y1")])
    for _ in range(100):
        f = random_poly(A.vs, rng)
        g = random_poly(A.vs, rng)
        assert A.nf(A.nf(f)) == A.nf(f)
        assert A.nf(f + g) == A.nf(A.nf(f) + A.nf(g))


def test_membership_matches_oracle_randomized(rng):
    disagreements = 0
    for trial in range(12):
        A = random_presentation(rng)
        closed = superideal_closure(A.relations)
        for _ in range(10):
            f = random_poly(A.vs, rng, max_degree=4, terms=3)
            lhs = A.contains_in_ideal(f)
            rhs = oracle_member(f, closed, max(6, f.total_degree() + 2))
            if lhs != rhs:
                disagreements += 1
    assert disagreements == 0


def test_gb_independent_of_generator_order(rng):
    vs = VarSet(("x1", "x2"), ("y1", "y2"), QQ)
    gens = [
        vs.gen("x1") * vs.gen("y1") - vs.gen("x2") * vs.gen("y2"),
        vs.gen("x1") ** 2 * vs.gen("y2"),
        vs.gen("y1") * vs.gen("y2"),
    ]
    closed = [g.terms for g in superideal_closure(gens)]
    gb1 = buchberger(closed, term_key, 0).vectors
    for _ in range(5):
        shuffled = closed[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled, term_key, 0).vectors == gb1


def test_superideal_closed_under_odd_multiplication(rng):
    A = make_algebra(
        ("x",), ("y1", "y2", "y3"), lambda vs: [vs.gen("x") * vs.gen("y1")]
    )
    ideal = SuperIdeal(A, [A.vs.gen("y2") + A.vs.gen("x") * A.vs.gen("y3")])
    for g in ideal.generators + ideal.module_gb:
        for name in A.vs.odd:
            assert ideal.contains(A.vs.gen(name) * g)
            assert ideal.contains(g * A.vs.gen(name))


def test_annihilator_matches_oracle():
    cases = [
        # (even, odd, relations builder, element builder)
        (("x",), ("y",), lambda vs: [vs.gen("x") * vs.gen("y")], lambda vs: vs.gen("y")),
        ((), ("y1", "y2"), lambda vs: [], lambda vs: vs.gen("y1")),
        (
            ("x",),
            ("y1", "y2"),
            lambda vs: [vs.gen("x") * vs.gen("y1") * vs.gen("y2")],
            lambda vs: vs.gen("y1") * vs.gen("y2"),
        ),
        (
            ("x",),
            ("y1", "y2"),
            lambda vs: [vs.gen("x") ** 2 - vs.gen("y1") * vs.gen("y2")],
            lambda vs: vs.gen("x"),
        ),
    ]
    for even, odd, rel_b, elt_b in cases:
        A = make_algebra(even, odd, rel_b)
        p = elt_b(A.vs)
        ann = annihilator(p, A)
        closed = superideal_closure(A.relations)
        basis = oracle_annihilator_basis(p, closed, elt_degree=4, span_degree=9)
        # every oracle kernel element lies in the computed annihilator
        for f in basis:
            assert ann.contains(f), "%s missing from Ann(%s)" % (f, p)
        # and every annihilator generator is killed by p
        for g in ann.generators:
            assert A.contains_in_ideal(g * p)


def test_oracle_annihilator_finds_elements_whose_monomials_do_not_kill():
    # x1*x2 + x2^2 kills x2, but x1*x2^2 and x2^3 each leave a residual
    # modulo the span; only their sum lies in it
    A = make_algebra(
        ("x1", "x2"),
        ("y1", "y2"),
        lambda vs: [
            vs.gen("x1") * vs.gen("x2") ** 2
            + vs.gen("x2") ** 3
            + vs.gen("x2") * vs.gen("y1") * vs.gen("y2"),
            vs.gen("y1"),
        ],
    )
    x1, x2 = A.vs.gen("x1"), A.vs.gen("x2")
    basis = oracle_annihilator_basis(x2, superideal_closure(A.relations), 3, 4)
    assert len(basis) == 13
    assert x1 * x2 + x2**2 in basis
    ann = annihilator(x2, A)
    for f in basis:
        assert ann.contains(f)


def test_annihilator_generators_are_the_normal_forms_of_its_basis():
    def lazy_generators_match(A, p):
        ann = annihilator(p, A)
        expected = [g for g in (A.nf(k) for k in ann.module_gb) if g]
        assert ann.generators == expected

    # the collapsing family k[x | y1..yn]/(x*y_i)
    for n in (3, 4):
        odd = tuple("y%d" % (i + 1) for i in range(n))
        A = make_algebra(("x",), odd, lambda vs: [vs.gen("x") * vs.gen(y) for y in vs.odd])
        ys = [A.vs.gen(y) for y in odd]
        for p in (A.vs.gen("x"), ys[0], ys[0] * ys[1], ys[0] + ys[-1]):
            lazy_generators_match(A, p)
    # p = y1*y2 is killed by y1 and y2, so most columns y_S*p are zero and
    # enter the elimination as pure-tag kernel vectors
    A = make_algebra(
        ("x",), ("y1", "y2", "y3"), lambda vs: [vs.gen("x") ** 2 - vs.gen("y1") * vs.gen("y3")]
    )
    vs = A.vs
    p = vs.gen("y1") * vs.gen("y2")
    assert A.nf(vs.gen("y1") * p).is_zero() and A.nf(vs.gen("y3") * p)
    lazy_generators_match(A, p)


def test_product_criterion_drops_coprime_one_component_pairs(monkeypatch):
    # d*det(g) - 1 and e*det(h) - 1 for 5 x 5 matrices g, h in disjoint
    # variables: one component, coprime leads, so the S-vector of the only
    # pair is never built, let alone reduced
    N = 5
    g = ["g%d%d" % (i, j) for i in range(N) for j in range(N)]
    h = ["h%d%d" % (i, j) for i in range(N) for j in range(N)]
    vs = VarSet(tuple(g + ["d"] + h + ["e"]), (), QQ)

    def unit_relation(names, inverse):
        matrix = [[vs.gen(names[i * N + j]) for j in range(N)] for i in range(N)]
        return vs.gen(inverse) * mat_det(matrix) - vs.one()

    vectors = [unit_relation(g, "d").terms, unit_relation(h, "e").terms]
    assert all(len(v) == 121 for v in vectors)
    calls = []
    nf = GBasis.nf

    def counting(self, v, skip=None):
        calls.append(1)
        return nf(self, v, skip)

    monkeypatch.setattr(GBasis, "nf", counting)
    gb = buchberger(vectors, term_key, vs.field.char)
    # one reduction per input on entry and one per element in the final
    # tail reduction: no S-vector reached GBasis.nf
    assert len(calls) == 4
    assert len(gb.vectors) == 2


def test_annihilator_of_zero_is_unit():
    A = make_algebra(("x",), ("y",), lambda vs: [vs.gen("x") * vs.gen("y")])
    ann = annihilator(A.vs.gen("x") * A.vs.gen("y"), A)
    assert ann.is_unit_ideal()


def test_annihilator_requires_homogeneous():
    A = make_algebra(("x",), ("y",))
    with pytest.raises(ParityError):
        annihilator(A.vs.gen("x") + A.vs.gen("y"), A)


def test_each_superideal_completes_once(monkeypatch):
    A = make_algebra(("x",), ("y1", "y2"), lambda vs: [vs.gen("x") * vs.gen("y1")])
    assert A.gbasis is A.gbasis
    calls = []
    complete_basis = groebner.buchberger

    def counting(*args):
        calls.append(1)
        return complete_basis(*args)

    monkeypatch.setattr(groebner, "buchberger", counting)
    ideal = SuperIdeal(A, [A.vs.gen("y2")])
    assert calls == [1]
    assert ideal.contains(A.vs.gen("x") * A.vs.gen("y2")) and not ideal.contains(A.vs.gen("x"))
    assert ideal_equal(ideal, SuperIdeal(A, [A.vs.gen("y2")]))
    assert calls == [1, 1]  # the comparison completes nothing itself
    assert ideal.gbasis is ideal.gbasis


def mutually_contained(I, J):
    """The definition of ideal equality by membership: each ideal holds the
    other's generators and its ambient's relation basis."""
    return all(J.contains(g) for g in I.generators + I.ambient.module_gb) and all(
        I.contains(g) for g in J.generators + J.ambient.module_gb
    )


@st.composite
def ideal_pairs(draw):
    """Two superideals of k[x | y1, y2] over Q or F_7 in two ambients with
    the same generators; J's generators are often I's, or combinations of
    them, so that equal pairs are common."""
    field = draw(st.sampled_from((QQ, Field(7))))
    vs = VarSet(("x",), ("y1", "y2"), field)
    terms = st.tuples(st.integers(0, 2), st.integers(0, 3))
    coeffs = st.integers(-2, 2).filter(bool)

    def polys(max_size):
        poly = st.dictionaries(terms, coeffs, max_size=3).map(
            lambda d: sum((vs.monomial((e,), m, c) for (e, m), c in d.items()), vs.zero())
        )
        return st.lists(poly, max_size=max_size)

    rels = draw(polys(2))
    other_rels = draw(st.sampled_from((rels, draw(polys(2)))))
    gens = draw(polys(3))
    how = draw(st.sampled_from(("same", "combined", "drawn")))
    if how == "same":
        other_gens = list(reversed(gens))
    elif how == "combined":
        factors = draw(st.lists(polys(1), min_size=len(gens), max_size=len(gens)))
        other_gens = list(gens)
        for g, f in zip(gens, factors):
            other_gens.append(g * f[0] if f else g + gens[0])
    else:
        other_gens = draw(polys(3))
    return (
        SuperIdeal(SuperAlgebra(vs, rels), gens),
        SuperIdeal(SuperAlgebra(vs, other_rels), other_gens),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ideal_pairs())
def test_ideal_equal_is_mutual_containment(pair):
    I, J = pair
    assert ideal_equal(I, J) == mutually_contained(I, J) == ideal_equal(J, I)


def test_ideal_equal():
    A = make_algebra(("x",), ("y1", "y2"))
    vs = A.vs
    I = SuperIdeal(A, [vs.gen("y1"), vs.gen("y2")])
    J = SuperIdeal(A, [vs.gen("y1") + vs.gen("y2"), vs.gen("y2")])
    K = SuperIdeal(A, [vs.gen("y1")])
    assert ideal_equal(I, J)
    assert not ideal_equal(I, K)


def test_normal_form_unique_remainder():
    A = make_algebra(("x",), ("y",), lambda vs: [vs.gen("x") * vs.gen("y")])
    ideal = SuperIdeal(A, [A.vs.gen("x") - A.vs.one()])
    f = A.vs.gen("x") ** 3 + A.vs.gen("y")
    r = ideal.nf(f)
    assert ideal.nf(r) == r
    assert ideal.contains(f - r)


def test_localize():
    A = make_algebra(("x",), ("y",), lambda vs: [vs.gen("x") * vs.gen("y")])
    loc, t = localize_at_even(A, A.vs.gen("x"))
    assert t == "t"
    # y dies in the localization: y = t*x*y = 0
    assert loc.contains_in_ideal(loc.vs.gen("y"))
    assert not loc.is_zero_ring()
    # localizing at a nilpotent gives the zero ring
    L = make_algebra((), ("y1", "y2"))
    loc2, _ = localize_at_even(L, L.vs.gen("y1") * L.vs.gen("y2"))
    assert loc2.is_zero_ring()
    with pytest.raises(ParityError):
        localize_at_even(A, A.vs.gen("y"))


def test_morphism_well_defined():
    A = make_algebra(("x",), ("y",), lambda vs: [vs.gen("x") * vs.gen("y")])
    free = make_algebra(("x",), ("y",))
    quot = Morphism(A, free, {"x": free.vs.gen("x"), "y": free.vs.gen("y")})
    assert quot.check_well_defined() is not None  # x*y does not map to zero
    ok = Morphism(free, A, {"x": A.vs.gen("x"), "y": A.vs.gen("y")})
    assert ok.check_well_defined() is None


def test_check_mono_necessary_cases():
    kx = make_algebra(("x",), ())
    kxy = make_algebra(("x",), ("y",))
    quot = make_algebra(("x",), ("y",), lambda vs: [vs.gen("x") * vs.gen("y")])

    emb = Morphism(kx, kxy, {"x": kxy.vs.gen("x")})
    assert check_mono_necessary(emb) is False

    ident = Morphism(kxy, kxy, {"x": kxy.vs.gen("x"), "y": kxy.vs.gen("y")})
    assert check_mono_necessary(ident) is True

    proj = Morphism(kxy, quot, {"x": quot.vs.gen("x"), "y": quot.vs.gen("y")})
    assert check_mono_necessary(proj) is True


def test_check_mono_rejects_ill_defined():
    A = make_algebra(("x",), ("y",), lambda vs: [vs.gen("x") * vs.gen("y")])
    free = make_algebra(("x",), ("y",))
    bad = Morphism(A, free, {"x": free.vs.gen("x"), "y": free.vs.gen("y")})
    with pytest.raises(StructureError):
        check_mono_necessary(bad)


def test_relations_are_parity_split():
    vs = VarSet(("x",), ("y",), QQ)
    A = SuperAlgebra(vs, [vs.gen("x") + vs.gen("y")])
    # mixed-parity relation splits, so both x and y die
    assert A.contains_in_ideal(vs.gen("x"))
    assert A.contains_in_ideal(vs.gen("y"))


def listed_relations(relations):
    """The relations as the quadratic scan kept them: the parity parts of
    each relation in turn, zero parts and repeats dropped, in the order of
    their first occurrence."""
    rels = []
    for r in relations:
        for par in (0, 1):
            part = r.parity_part(par)
            if part and part not in rels:
                rels.append(part)
    return rels


def test_relations_drop_repeats_and_keep_their_order(rng):
    vs = VarSet(("x",), ("y1", "y2"), QQ)
    x, y1, y2 = vs.gen("x"), vs.gen("y1"), vs.gen("y2")
    rels = [x * y1, x + y1, vs.zero(), x, y1 * y2 + y1, x * y1, x * x + y1 * y2, y1, x * x + y1 * y2]
    A = SuperAlgebra(vs, rels)
    assert A.relations == [x * y1, x, y1, y1 * y2, x * x + y1 * y2]
    assert A.relations == listed_relations(rels)
    # a homogeneous relation is kept as it is, with no copy
    assert A.relations[0] is rels[0]
    for _ in range(100):
        pool = [random_poly(vs, rng, max_degree=2, terms=3, coeff_range=2) for _ in range(4)]
        rels = [rng.choice(pool) for _ in range(rng.randint(0, 8))]
        assert SuperAlgebra(vs, rels).relations == listed_relations(rels)


def test_an_empty_relation_basis_has_the_algebras_layout():
    """With no relation, the algebra's basis and that of the zero
    superideal are empty, and still read and write terms with the
    algebra's m even exponents: the zero superideal of k[x, z | y] reduces
    x^2*z + y to itself, not to a decoding of the layout of m = 0."""
    vs = VarSet(("x", "z"), ("y",), QQ)
    A = SuperAlgebra(vs)
    f = vs.gen("x") ** 2 * vs.gen("z") + vs.gen("y")
    assert A.gbasis.layout is _kernel.code_layout(term_key, 2)
    zero = SuperIdeal(A, [])
    assert zero.gbasis.layout is A.gbasis.layout
    assert zero.nf(f) == f
    assert not zero.contains(f)
    B = SuperAlgebra(VarSet((), ("y",), QQ))
    assert B.gbasis.layout is _kernel.code_layout(term_key, 0)
