"""The ksdim search against the exhaustive one it replaces.

``ksdim`` reads the odd part off the generator monomials: it is exact,
the largest |T| whose y_T passes the parameter test, and a property
test checks it against that maximum taken over every generator subset,
and the certificate against the normalised generators of the first such
subset in lexicographic order.  The reference is the search as it was:
every combination of a finite candidate pool (the square-free odd
monomials of odd degree and seeded random combinations of them) in
``itertools.combinations`` order, from the largest size down.  Random
small presentations over Q and F_7 check that ``ksdim`` returns what
that search returns, for several pool sizes and seeds: the same
super-dimension and the same certificate, its elements, dimension
witness and reason, so neither the pool nor its seed changes the
answer.  A second family, k[x | y1..yn] with x*y_i = 0 for some i,
makes some generators fail on their own.  On these and on the
collapsing family, x*y_i = 0 for every i, the odd half of the
elimination never runs, and an accepted certificate is checked through
the reference path: the reduced ``annihilator`` of its product leaves
bar(A) the Krull dimension the certificate witnesses.  The search costs
n + 1 eliminations on the collapsing family, n with the one relation
x*y1...yn and 1 in the free algebra, and no product reaches the
elimination twice.  A test reads its verdict from the even half's
kernel basis before reduction, in codes; a property test checks that
this leaves the Krull dimension of the quotient as the reduced
annihilator does, and that each half returns kernel elements of its own
parity only.  A test builds no algebra and runs no Buchberger, and the
full monomial's test enters one graph vector and no pure tag.
"""

import io
import itertools
import os
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superalg import groebner, sdim
from superalg.cli import run_command
from superalg.groebner import SuperAlgebra, annihilator
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
)
from superalg.superpoly import SuperPoly, VarSet

from conftest import annihilator_elimination, even_annihilator_image_in_bar, odd_square_free_monomials

FIELDS = (QQ, Field(7))
SEARCH_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def odd_parameter_candidates(algebra, random_combos, seed):
    """The finite pool that the search used to walk: the normalised odd
    generators, then the other square-free odd monomials of odd degree,
    then seeded random combinations of them, without zeros or repeats."""
    vs = algebra.vs
    monos = odd_square_free_monomials(vs, parity=1)
    pool = [algebra.nf(p) for p in monos]
    if random_combos and any(pool):
        rng = random.Random(seed)
        for _ in range(random_combos):
            combo = vs.zero()
            for mpoly in monos:
                combo = combo + mpoly.scale(rng.randint(-2, 2))
            pool.append(algebra.nf(combo))
    # dict.fromkeys drops repeats and keeps first-occurrence order
    return [q for q in dict.fromkeys(pool) if q]


def exhaustive_ksdim(algebra, random_combos=4, seed=0):
    """The search as it was: every combination of the pool, largest size
    first, each through ``is_odd_parameter_system``."""
    bar_a = bar(algebra)
    even = leading_term_dim(bar_a)
    if even == ZERO_RING_DIM:
        return SuperDim(ZERO_RING_DIM, 0), OddParamCertificate([], even, "zero ring")
    pool = odd_parameter_candidates(algebra, random_combos, seed)
    for k in range(min(algebra.vs.n, len(pool)), 0, -1):
        for combo in itertools.combinations(pool, k):
            ok, cert = is_odd_parameter_system(algebra, list(combo), bar_a, even)
            if ok:
                return SuperDim(even, k), cert
    return SuperDim(even, 0), OddParamCertificate([], even, "no odd parameters")


ELIMINATION = groebner._kernel_pairs


def recorded_ksdim(algebra):
    """``ksdim`` and the (monic product, parity) pairs that reached the
    elimination, in order."""
    char = algebra.vs.field.char
    seen = []

    def recording(p, algebra, parity):
        seen.append((p.scale(inv(p.lead_term()[1], char)), parity))
        return ELIMINATION(p, algebra, parity)

    with mock.patch.object(sdim, "_kernel_pairs", recording), mock.patch.object(
        groebner, "_kernel_pairs", recording
    ):
        result = ksdim(algebra)
    return result, seen


def rendered(result):
    dim, cert = result
    return dim, [e.render() for e in cert.elements], cert.even_dim_witness, cert.reason


def check_certificate(algebra, result, seen):
    """``ksdim`` ran no odd half of the elimination, and an accepted set's
    product, through the reduced ``annihilator``, leaves bar(A) the Krull
    dimension its certificate witnesses."""
    assert all(parity == 0 for _, parity in seen)
    cert = result[1]
    if cert.elements:
        prod = algebra.vs.one()
        for y in cert.elements:
            prod = prod * y
        bar_a = bar(algebra)
        image = even_annihilator_image_in_bar(annihilator(prod, algebra), bar_a)
        dq = leading_term_dim(SuperAlgebra(bar_a.vs, bar_a.relations + image))
        assert dq == cert.even_dim_witness == result[0].even


def draw_combination(draw, vs, terms):
    """A sum of one to three distinct drawn terms (exps, mask) with drawn
    nonzero coefficients in [-3, 3]."""
    f = vs.zero()
    for exps, mask in draw(st.lists(st.sampled_from(terms), min_size=1, max_size=3, unique=True)):
        f = f + vs.monomial(exps, mask, draw(st.integers(-3, 3).filter(bool)))
    return f


@st.composite
def presentations(draw):
    """One to three relations of k[x1 (, x2) | y1 .. yn], n from 2 to 4,
    over Q or F_7, each with up to three terms of degree 1 to 3 that carry
    an odd factor, so that candidate products die or lose dimension."""
    even = ("x1", "x2")[: draw(st.integers(1, 2))]
    odd = tuple("y%d" % i for i in range(1, draw(st.integers(2, 4)) + 1))
    vs = VarSet(even, odd, draw(st.sampled_from(FIELDS)))
    monos = [t for t in all_monomials(vs, 3) if t[1]]
    rels = [draw_combination(draw, vs, monos) for _ in range(draw(st.integers(1, 3)))]
    return SuperAlgebra(vs, rels), draw(st.integers(0, 2))


@SEARCH_SETTINGS
@given(presentations(), st.integers(0, 3))
def test_search_matches_exhaustive_search(case, seed):
    A, random_combos = case
    result, seen = recorded_ksdim(A)
    assert rendered(result) == rendered(exhaustive_ksdim(A, random_combos, seed))
    check_certificate(A, result, seen)


@st.composite
def failing_generator_family(draw):
    """k[x | y1 .. yn], n = 3 or 4, over Q or F_7, with x*y_i = 0 for i in
    a nonempty drawn subset, so that each such y_i fails on its own, and
    zero to two further relations like those of ``presentations``."""
    n = draw(st.integers(3, 4))
    odd = tuple("y%d" % i for i in range(1, n + 1))
    vs = VarSet(("x",), odd, draw(st.sampled_from(FIELDS)))
    x = vs.gen("x")
    rels = [x * vs.gen(odd[i]) for i in sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))]
    monos = [t for t in all_monomials(vs, 3) if t[1]]
    rels += [draw_combination(draw, vs, monos) for _ in range(draw(st.integers(0, 2)))]
    return SuperAlgebra(vs, rels)


@settings(SEARCH_SETTINGS, max_examples=30)
@given(failing_generator_family())
def test_failing_generators_match_exhaustive_search(A):
    """Where some generators fail on their own, so that the monomial search
    prunes them, ``ksdim`` still returns what trying every combination of
    the pool returns, and tests no product twice."""
    result, tested = recorded_ksdim(A)
    assert len(set(tested)) == len(tested)
    assert rendered(result) == rendered(exhaustive_ksdim(A))
    check_certificate(A, result, tested)


@SEARCH_SETTINGS
@given(presentations())
def test_odd_part_is_the_largest_passing_generator_set(case):
    """The odd part is the largest |T| whose generators y_i, i in T, form a
    system of odd parameters, over every subset T, and the certificate is
    the normalised generators of the first such T in lexicographic order.
    Over every pool size and seed, that certificate is also the first
    valid set of its size in ``itertools.combinations`` order over the
    pool."""
    A, _ = case
    gens = [A.vs.gen(y) for y in A.vs.odd]
    passing = [
        combo
        for size in range(len(gens), -1, -1)
        for combo in itertools.combinations(range(len(gens)), size)
        if not combo or is_odd_parameter_system(A, [gens[i] for i in combo])[0]
    ]
    dim, cert = ksdim(A)
    assert dim.odd == len(passing[0])
    assert cert.elements == [A.nf(gens[i]) for i in passing[0]]
    if not dim.odd:
        return
    bar_a = bar(A)
    for random_combos in (0, 4, 24):
        for seed in range(4):
            pool = odd_parameter_candidates(A, random_combos, seed)
            first = next(
                list(combo)
                for combo in itertools.combinations(pool, dim.odd)
                if is_odd_parameter_system(A, list(combo), bar_a, dim.even)[0]
            )
            assert first == cert.elements


def test_search_matches_exhaustive_search_on_the_collapsing_family():
    for n in (2, 3, 4):
        odd = tuple("y%d" % i for i in range(1, n + 1))
        vs = VarSet(("x",), odd, QQ)
        A = SuperAlgebra(vs, [vs.gen("x") * vs.gen(y) for y in odd])
        result, seen = recorded_ksdim(A)
        assert rendered(result) == rendered(exhaustive_ksdim(A))
        assert result[0] == SuperDim(1, 0)
        check_certificate(A, result, seen)
        # each generator fails on its own, and says why
        ok, cert = is_odd_parameter_system(A, [vs.gen("y1")])
        assert not ok and cert.reason == "annihilator drops even dimension to 0"


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("family", ["collapsing", "one-product", "free"])
def test_no_product_reaches_the_annihilator_twice(family, n):
    """Even-half eliminations of the search on three families over
    k[x | y1..yn].  On the collapsing family, x*y_i = 0 for every i, the
    full monomial and each generator fail: n + 1.  With the one relation
    x*y1...yn the full monomial fails and every smaller set passes: the
    full monomial and y1, y1y2, .., y1...y(n-1), and nothing past them,
    since no extension of a later prefix can beat n - 1: n.  In the free
    algebra the full monomial passes, and its test is the whole search."""
    odd = tuple("y%d" % i for i in range(1, n + 1))
    vs = VarSet(("x",), odd, QQ)
    x, ys = vs.gen("x"), [vs.gen(y) for y in odd]
    full = x
    for y in ys:
        full = full * y
    rels, k, tests = {
        "collapsing": ([x * y for y in ys], 0, n + 1),
        "one-product": ([full], n - 1, n),
        "free": ([], n, 1),
    }[family]
    (dim, cert), seen = recorded_ksdim(SuperAlgebra(vs, rels))
    assert dim == SuperDim(1, k)
    assert cert.elements == ys[:k]
    assert cert.reason == ("" if k else "no odd parameters")
    assert len(set(seen)) == len(seen) == tests


def test_commands_run_only_the_even_half(monkeypatch):
    parities = []

    def recording(p, algebra, parity):
        parities.append(parity)
        return ELIMINATION(p, algebra, parity)

    monkeypatch.setattr(sdim, "_kernel_pairs", recording)
    monkeypatch.setattr(groebner, "_kernel_pairs", recording)
    data = os.path.join(os.path.dirname(__file__), "..", "data")
    xy1y2, a11 = os.path.join(data, "xy1y2.salg"), os.path.join(data, "a11.salg")
    for argv in (
        ["ksdim", xy1y2, "--json"],
        ["odd-params", xy1y2, "--json"],
        ["verify-orbits", a11, "--derivation", "translate", "--point", "x = 2", "--json"],
    ):
        assert run_command(argv, out=io.StringIO()) == 0
    assert parities and set(parities) == {0}


def test_the_certificate_carries_no_annihilator():
    assert OddParamCertificate.__slots__ == ("elements", "even_dim_witness", "reason")
    gone = [(groebner, "annihilator_from_elimination"), (sdim, "_certificate"), (sdim, "_even_test")]
    assert not [name for module, name in gone if hasattr(module, name)]


@st.composite
def odd_products(draw):
    """(algebra, p): k[x1 (, x2) | y1 .. yn], n from 1 to 3, over Q or F_7,
    with one to three relations of up to three terms of degree 1 to 3 of
    either parity, and p the nonzero normal form of a product of one to
    three odd elements of up to three terms each."""
    even = ("x1", "x2")[: draw(st.integers(1, 2))]
    odd = tuple("y%d" % i for i in range(1, draw(st.integers(1, 3)) + 1))
    vs = VarSet(even, odd, draw(st.sampled_from(FIELDS)))
    monos = [t for t in all_monomials(vs, 3) if sum(t[0]) + t[1].bit_count()]
    odd_monos = [t for t in all_monomials(vs, 2) if t[1].bit_count() & 1]
    A = SuperAlgebra(vs, [draw_combination(draw, vs, monos) for _ in range(draw(st.integers(1, 3)))])
    p = vs.one()
    for _ in range(draw(st.integers(1, 3))):
        p = p * draw_combination(draw, vs, odd_monos)
    p = A.nf(p)
    assume(p)
    return A, p


@SEARCH_SETTINGS
@given(odd_products())
def test_unreduced_kernel_basis_decides_the_verdict(case):
    A, p = case
    bar_a = bar(A)
    pairs = annihilator_elimination(p, A, 0)
    reduced = even_annihilator_image_in_bar(annihilator(p, A), bar_a)
    unreduced = [
        g
        for g in (
            SuperPoly(bar_a.vs, {(exps, 0): c for (exps, mask), c in v.items() if not mask})
            for _, v in pairs
        )
        if g
    ]
    # both generate the same ideal of bar(A), so every dimension agrees
    assert (
        SuperAlgebra(bar_a.vs, bar_a.relations + unreduced).module_gb
        == SuperAlgebra(bar_a.vs, bar_a.relations + reduced).module_gb
    )
    assert sdim._even_dim_modulo_annihilator(p, A, bar_a) == leading_term_dim(
        SuperAlgebra(bar_a.vs, bar_a.relations + reduced)
    )


@SEARCH_SETTINGS
@given(odd_products())
def test_each_half_returns_kernel_elements_of_its_parity(case):
    A, p = case
    for parity in (0, 1):
        for (_, lead_mask), v in annihilator_elimination(p, A, parity):
            assert lead_mask.bit_count() & 1 == parity
            assert all(mask.bit_count() & 1 == parity for _, mask in v)
            # in the superideal's coordinates, a kernel element f has f*p = 0
            assert A.nf(SuperPoly(A.vs, v) * p).is_zero()


def test_a_parameter_test_builds_no_algebra_and_runs_no_buchberger():
    """Once A's relation basis and bar(A)'s exist, a parameter test stays
    in codes: it makes no SuperPoly or SuperAlgebra and runs no closure,
    Buchberger or autoreduce, and its verdicts are the reference ones."""
    vs = VarSet(("x1", "x2"), ("y1", "y2", "y3"), QQ)
    x1, x2 = vs.gen("x1"), vs.gen("x2")
    y1, y2, y3 = (vs.gen(y) for y in vs.odd)
    A = SuperAlgebra(vs, [x1 * x1 * x2 + x2 * y1 * y2, x1 * y3 + x2 * y1, x1 * x2 * y2])
    bar_a = bar(A)
    products = [A.nf(p) for p in (y1, y2, y3, y1 * y2, y1 * y3, y2 * y3, y1 * y2 * y3)]
    want = []
    for p in products:
        image = even_annihilator_image_in_bar(annihilator(p, A), bar_a)
        want.append(leading_term_dim(SuperAlgebra(bar_a.vs, bar_a.relations + image)))
    assert A.gbasis.codes and bar_a.gbasis.codes

    def forbidden(*args, **kwargs):
        raise AssertionError("a parameter test left its codes")

    with mock.patch.object(SuperAlgebra, "__init__", forbidden), mock.patch.object(
        SuperPoly, "__init__", forbidden
    ), mock.patch.multiple(
        groebner, buchberger=forbidden, superideal_closure=forbidden, _autoreduce=forbidden
    ), mock.patch.multiple(
        sdim, buchberger=forbidden, superideal_closure=forbidden
    ):
        got = [sdim._even_dim_modulo_annihilator(p, A, bar_a) for p in products]
    assert got == want
    assert set(want) == {0, 1}


def test_the_full_monomial_test_enters_one_graph_vector():
    """On Lambda(y1..y6) every nonempty S meets the full monomial's mask,
    so its test hands ``complete`` the graph vector (p, e_0) alone: no
    graph vector for another S and no pure tag in the basis it extends."""
    odd = tuple("y%d" % i for i in range(1, 7))
    vs = VarSet((), odd, QQ)
    A = SuperAlgebra(vs)
    seen = []
    original = groebner.complete

    def recording(gb, vectors):
        seen.append((len(gb.codes), len(vectors)))
        return original(gb, vectors)

    with mock.patch.object(groebner, "complete", recording):
        (dim, cert), tested = recorded_ksdim(A)
    assert dim == SuperDim(0, 6)
    assert cert.elements == [vs.gen(y) for y in odd]
    assert len(tested) == 1
    assert seen == [(0, 1)]
