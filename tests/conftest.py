import itertools
import random

import pytest

from superalg.groebner import SuperAlgebra, SuperIdeal
from superalg.scalars import QQ
from superalg.superpoly import SuperPoly, VarSet, term_key


def make_algebra(even, odd, rel_builder=None, field=QQ):
    vs = VarSet(tuple(even), tuple(odd), field)
    rels = rel_builder(vs) if rel_builder else []
    return SuperAlgebra(vs, rels)


def random_poly(vs, rng, max_degree=3, terms=4, coeff_range=3):
    """A random SuperPoly over vs with small integer coefficients."""
    p = vs.zero()
    for _ in range(terms):
        exps = [0] * vs.m
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            if vs.m:
                exps[rng.randrange(vs.m)] += 1
        mask = rng.randrange(1 << vs.n) if vs.n else 0
        c = rng.randint(-coeff_range, coeff_range)
        if c:
            p = p + vs.monomial(tuple(exps), mask, c)
    return p


def odd_square_free_monomials(vs, parity):
    """All square-free odd monomials y_T of the given degree parity and
    degree at least 1 as SuperPolys, ascending order."""
    out = []
    for mask in range(1, 1 << vs.n):
        if mask.bit_count() & 1 != parity:
            continue
        out.append(vs.monomial((0,) * vs.m, mask))
    out.sort(key=lambda p: term_key(next(iter(p.terms))))
    return out


def max_ideal_even_gens(pt, algebra):
    """Generators of the maximal ideal of the even part at the point: the
    translated even generators plus the even nilpotents y_a*y_b."""
    vs = algebra.vs
    pairs = itertools.combinations(vs.odd, 2)
    return pt.even_gens(algebra) + [vs.gen(a) * vs.gen(b) for a, b in pairs]


def minimalize_gens(algebra, gens):
    """The greedy pass over the candidates, one superideal per test: in
    order, drop a generator already contained in the superideal the others
    still kept generate.  ``orbits.orbit_ideal`` keeps the same generators
    with one superideal per even candidate; this is its reference."""
    gens = [algebra.nf(g) for g in gens]
    gens = [g for g in gens if g]
    kept = list(gens)
    for g in list(gens):
        rest = [h for h in kept if h is not g]
        if rest and SuperIdeal(algebra, rest).contains(g):
            kept = rest
    return kept


@pytest.fixture
def rng():
    return random.Random(20240817)
