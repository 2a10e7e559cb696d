"""Property tests for annihilators over Q and F_p.

``annihilator`` returns the tag-block elements of its elimination basis as
the reduced basis of the kernel, without closing and completing it again.
Random small presentations and monomial products check that this basis is
the one the closure path computes from the generators, that it is
parity-homogeneous, and that it agrees with the dense oracle: every oracle
kernel element lies in it, and for graded presentations the two have the
same dimension in every degree.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superalg import _kernel
from superalg.groebner import (
    SuperAlgebra,
    SuperIdeal,
    annihilator,
    superideal_closure,
)
from superalg.oracle import all_monomials, oracle_annihilator_basis
from superalg.scalars import QQ, Field
from superalg.superpoly import VarSet, term_key

FIELDS = (QQ, Field(7))
PROPERTY_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True)
ELT_DEGREE = 3


@st.composite
def monomials(draw, vs, degrees):
    """A monomial (exps, mask) of k[x1, x2 | y1, y2] of one of the given
    total degrees."""
    degree = draw(st.sampled_from(degrees))
    return draw(
        st.sampled_from([t for t in all_monomials(vs, degree) if sum(t[0]) + t[1].bit_count() == degree])
    )


@st.composite
def presentations(draw, graded):
    """(algebra, p): one or two relations of k[x1, x2 | y1, y2] with up to
    three terms, each term of degree 1 to 3 (one degree per relation when
    graded), and p a monomial of degree 1 or 2 and either parity that is
    nonzero in the algebra."""
    vs = VarSet(("x1", "x2"), ("y1", "y2"), draw(st.sampled_from(FIELDS)))
    rels = []
    for _ in range(draw(st.integers(1, 2))):
        degrees = [draw(st.integers(1, 3))] if graded else [1, 2, 3]
        chosen = draw(st.lists(monomials(vs, degrees), min_size=1, max_size=3, unique=True))
        r = vs.zero()
        for exps, mask in chosen:
            r = r + vs.monomial(exps, mask, draw(st.integers(-3, 3).filter(bool)))
        if r:
            rels.append(r)
    A = SuperAlgebra(vs, rels)
    p = vs.monomial(*draw(monomials(vs, [1, 2])))
    assume(A.nf(p))  # Ann(0) is the unit ideal, tested on its own in test_groebner
    return A, p


def kernel_checks(A, p):
    ann = annihilator(p, A)
    # the basis the closure and a second Buchberger run would compute
    assert ann.module_gb == SuperIdeal(A, ann.generators).module_gb
    for g in ann.module_gb:
        assert g.parity() is not None, "%s is not parity-homogeneous" % g
        assert A.contains_in_ideal(g * p)
    closed = superideal_closure(A.relations)
    oracle = oracle_annihilator_basis(p, closed, ELT_DEGREE, ELT_DEGREE + p.total_degree())
    for f in oracle:
        assert ann.contains(f), "%s missing from Ann(%s)" % (f, p)
    return ann, oracle


@PROPERTY_SETTINGS
@given(presentations(graded=False))
def test_annihilator_basis_is_the_closure_basis(case):
    kernel_checks(*case)


@PROPERTY_SETTINGS
@given(presentations(graded=True))
def test_annihilator_matches_oracle_in_every_degree(case):
    A, p = case
    ann, oracle = kernel_checks(A, p)
    # a graded kernel has as many elements of degree <= d as there are
    # monomials of degree <= d that some lead of its basis divides; the
    # oracle is exact for it, so it must find that many
    divides = _kernel.exp_divides
    leads = [max(g.terms, key=term_key) for g in ann.module_gb]
    lead_multiples = sum(
        1
        for exps, mask in all_monomials(A.vs, ELT_DEGREE)
        if any(c == mask and divides(le, exps) for le, c in leads)
    )
    assert len(oracle) == lead_multiples
