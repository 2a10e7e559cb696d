"""The ksdim candidate search against the exhaustive one it replaces.

``ksdim`` walks the candidate combinations depth first and skips every
prefix whose product is zero or a scalar multiple of a product that has
already failed.  Random small presentations over Q and F_7 check that it
returns what trying every combination in ``itertools.combinations`` order
returns: the same super-dimension, the same certificate elements and the
same annihilator.  On the family k[x | y1..yn]/(x*y_i), whose candidate
products collapse onto few distinct values, no product reaches the
annihilator twice.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superalg import sdim
from superalg.groebner import SuperAlgebra
from superalg.oracle import all_monomials
from superalg.scalars import QQ, Field, inv
from superalg.sdim import (
    ZERO_RING_DIM,
    OddParamCertificate,
    SuperDim,
    bar,
    is_odd_parameter_system,
    ksdim,
    leading_term_dim,
    odd_parameter_candidates,
)
from superalg.superpoly import VarSet

FIELDS = (QQ, Field(7))
SEARCH_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def exhaustive_ksdim(algebra, extra_candidates=(), random_combos=4, seed=0):
    """The search as it was: every combination of the pool, largest size
    first, each through ``is_odd_parameter_system``."""
    bar_a = bar(algebra)
    even = leading_term_dim(bar_a)
    if even == ZERO_RING_DIM:
        return SuperDim(ZERO_RING_DIM, 0), OddParamCertificate([], None, even, "zero ring")
    pool = odd_parameter_candidates(algebra, extra_candidates, random_combos, seed)
    for k in range(min(algebra.vs.n, len(pool)), 0, -1):
        for combo in itertools.combinations(pool, k):
            ok, cert = is_odd_parameter_system(algebra, list(combo), bar_a, even)
            if ok:
                return SuperDim(even, k), cert
    return SuperDim(even, 0), OddParamCertificate([], None, even, "no odd parameters")


def rendered(result):
    dim, cert = result
    ann = None if cert.annihilator is None else [g.render() for g in cert.annihilator.generators]
    return dim, [e.render() for e in cert.elements], ann, cert.reason


@st.composite
def presentations(draw):
    """One to three relations of k[x1 (, x2) | y1 .. yn], n from 2 to 4,
    over Q or F_7, each with up to three terms of degree 1 to 3 that carry
    an odd factor, so that candidate products die or lose dimension."""
    even = ("x1", "x2")[: draw(st.integers(1, 2))]
    odd = tuple("y%d" % i for i in range(1, draw(st.integers(2, 4)) + 1))
    vs = VarSet(even, odd, draw(st.sampled_from(FIELDS)))
    monos = [t for t in all_monomials(vs, 3) if t[1]]
    rels = []
    for _ in range(draw(st.integers(1, 3))):
        r = vs.zero()
        for exps, mask in draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True)):
            r = r + vs.monomial(exps, mask, draw(st.integers(-3, 3).filter(bool)))
        rels.append(r)
    return SuperAlgebra(vs, rels), draw(st.integers(0, 2))


@SEARCH_SETTINGS
@given(presentations())
def test_search_matches_exhaustive_search(case):
    A, random_combos = case
    assert rendered(ksdim(A, random_combos=random_combos)) == rendered(
        exhaustive_ksdim(A, random_combos=random_combos)
    )


def test_search_matches_exhaustive_search_on_the_collapsing_family():
    for n in (2, 3, 4):
        odd = tuple("y%d" % i for i in range(1, n + 1))
        vs = VarSet(("x",), odd, QQ)
        A = SuperAlgebra(vs, [vs.gen("x") * vs.gen(y) for y in odd])
        assert rendered(ksdim(A)) == rendered(exhaustive_ksdim(A))
        assert ksdim(A)[0] == SuperDim(1, 0)


@pytest.mark.parametrize("n", [3, 4])
def test_no_product_reaches_the_annihilator_twice(n, monkeypatch):
    odd = tuple("y%d" % i for i in range(1, n + 1))
    vs = VarSet(("x",), odd, QQ)
    A = SuperAlgebra(vs, [vs.gen("x") * vs.gen(y) for y in odd])
    seen = []
    annihilator = sdim.annihilator

    def recording(p, algebra):
        seen.append(p.scale(inv(p.lead_term()[1], vs.field.char)))
        return annihilator(p, algebra)

    monkeypatch.setattr(sdim, "annihilator", recording)
    dim, _ = ksdim(A)
    assert dim == SuperDim(1, 0)
    assert seen and len(set(seen)) == len(seen)
