"""Property tests for the module Buchberger algorithm over Q and F_p.

Random small module vectors are completed under each term order; the
result must be the reduced basis of the same module.  Superideals with
total-degree homogeneous generators are also checked against the dense
degree-truncated oracle, which is exact in every degree for them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from superalg import _kernel
from superalg._kernel import elim_term_key, weight_term_key
from superalg.groebner import buchberger, superideal_closure
from superalg.oracle import all_monomials, ideal_span
from superalg.scalars import QQ, Field
from superalg.superpoly import SuperPoly, VarSet, term_key

FIELDS = (QQ, Field(7))
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def module_vectors(draw, elim=False):
    """(key, p, vectors): up to six vectors with at most four terms each, in
    two even variables, over two components (or two blocks of two for the
    elimination order).  Few components make long same-component chains."""
    field = draw(st.sampled_from(FIELDS))
    if elim:
        key = elim_term_key
        comps = st.tuples(st.integers(0, 1), st.integers(0, 1))
    else:
        key = draw(st.sampled_from((term_key, weight_term_key)))
        comps = st.integers(0, 1)
    # the draws fix the derandomized examples; the map puts each term in
    # the (exps, comp) layout
    terms = st.tuples(comps, st.tuples(st.integers(0, 3), st.integers(0, 3))).map(
        lambda t: (t[1], t[0])
    )
    coeffs = st.integers(-3, 3).filter(bool).map(field.of)
    vector = st.dictionaries(terms, coeffs, min_size=1, max_size=4)
    return key, field.char, draw(st.lists(vector, min_size=1, max_size=6))


def assert_reduced(gb):
    divides = _kernel.exp_divides
    for v, (exps, comp) in zip(gb.vectors, gb.leads):
        assert (exps, comp) == max(v, key=gb.key)
        assert v[(exps, comp)] == 1
    for i, (le, lc) in enumerate(gb.leads):
        for j, v in enumerate(gb.vectors):
            if i != j:
                assert not any(c == lc and divides(le, e) for e, c in v)


def assert_basis_of(gb, vectors):
    assert_reduced(gb)
    for v in vectors:
        assert gb.normal_form(v) == {}
    # the reduced basis is unique: the inputs in another order give it again
    assert buchberger(list(reversed(vectors)), gb.key, gb.p).vectors == gb.vectors


@PROPERTY_SETTINGS
@given(module_vectors())
def test_buchberger_reduced_basis(case):
    key, p, vectors = case
    assert_basis_of(buchberger(vectors, key, p), vectors)


@PROPERTY_SETTINGS
@given(module_vectors(elim=True))
def test_buchberger_reduced_basis_elimination_order(case):
    key, p, vectors = case
    assert_basis_of(buchberger(vectors, key, p), vectors)


@st.composite
def homogeneous_superideals(draw):
    """(vs, gens): one or two generators of k[x1, x2 | y1, y2], each
    homogeneous in total degree 1 to 3."""
    vs = VarSet(("x1", "x2"), ("y1", "y2"), draw(st.sampled_from(FIELDS)))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        degree = draw(st.integers(1, 3))
        monos = [t for t in all_monomials(vs, degree) if sum(t[0]) + t[1].bit_count() == degree]
        chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
        g = vs.zero()
        for exps, mask in chosen:
            g = g + vs.monomial(exps, mask, draw(st.integers(-3, 3).filter(bool)))
        if g:
            gens.append(g)
    return vs, gens


@PROPERTY_SETTINGS
@given(homogeneous_superideals(), st.sampled_from((term_key, weight_term_key)))
def test_buchberger_membership_matches_oracle(case, key):
    vs, gens = case
    assert_matches_oracle(vs, gens, key)
    # the purely even case: every vector lies in component 0, so the
    # product criterion may drop any pair whose leads are coprime
    even_vs = VarSet(vs.even, (), vs.field)
    even_gens = [SuperPoly(even_vs, {t: c for t, c in g.terms.items() if not t[1]}) for g in gens]
    even_gens = [g for g in even_gens if g]
    if even_gens:
        assert_matches_oracle(even_vs, even_gens, key)


def assert_matches_oracle(vs, gens, key):
    closed = superideal_closure(gens)
    vectors = [g.terms for g in closed]
    gb = buchberger(vectors, key, vs.field.char)
    assert_basis_of(gb, vectors)
    # for a graded superideal both sides count dim I_d in every degree d:
    # the oracle by its echelon rows, the basis by the monomials its leads
    # divide
    max_degree = 4
    span = ideal_span(closed, max_degree)
    for row in span.rows.values():
        assert gb.normal_form(row) == {}
    divides = _kernel.exp_divides
    for d in range(max_degree + 1):
        rows = sum(1 for exps, mask in span.rows if sum(exps) + mask.bit_count() == d)
        lead_multiples = sum(
            1
            for exps, mask in all_monomials(vs, d)
            if sum(exps) + mask.bit_count() == d
            and any(c == mask and divides(le, exps) for le, c in gb.leads)
        )
        assert rows == lead_multiples, "degree %d" % d
