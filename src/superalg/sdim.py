"""Dimension theory: largest purely even quotient, associated graded
presentation, even/odd Krull dimension, systems of odd parameters, odd
regular sequences, minimal odd generator count at a rational point, and
covering checks for affine super-dimension.
"""

from __future__ import annotations

import itertools

from superalg._kernel import code_layout, term_key, weight_term_key
from superalg.groebner import (
    MODULE_MAX_ODD,
    SuperAlgebra,
    SuperIdeal,
    _kernel_pairs,
    annihilator,
    buchberger,
    check_odd_bound,
    complete,
    ideal_equal,
    localize_at_even,
    superideal_closure,
)
from superalg.linalg import Echelon
from superalg.scalars import inv
from superalg.superpoly import ParityError, StructureError, SuperPoly, VarSet

ZERO_RING_DIM = float("-inf")  # sentinel even dimension of the zero ring

# The most odd generators ``ksdim`` searches over, and ``orbits.orbit_ideal``
# takes: the search makes up to n + 1 eliminations, each over the odd
# indices that not every term of its product holds, against a relation
# basis over 2^n components, so k[x | y1..yn]/(x*y1y2y3) takes about 0.3 s
# at n = 14, 0.7 s at n = 15 and 1.6 s at n = 16, and k[x | y1..yn]/(x*y_i),
# whose relation basis fills every component, 4.4 s, 11 s and 20 s; an
# orbit ideal on the first, whose one superideal over 2^n components is the
# result, about 1.1 s at n = 14 (2 vCPUs).
KSDIM_MAX_ODD = 14


class Record:
    """Value semantics over ``__slots__``: two instances of one class are
    equal when their fields are, in slot order, and the repr names every
    field."""

    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.__slots__)
        return "%s(%s)" % (type(self).__name__, fields)


class SuperDim(Record):
    """An immutable, hashable super-dimension even|odd."""

    __slots__ = ("even", "odd")

    def __init__(self, even, odd):
        object.__setattr__(self, "even", even)  # int, or ZERO_RING_DIM for the zero ring
        object.__setattr__(self, "odd", odd)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __hash__(self):
        return hash((self.even, self.odd))

    def __reduce__(self):
        return SuperDim, (self.even, self.odd)

    def as_tuple(self):
        return (self.even, self.odd)

    def __lt__(self, other):
        return self.as_tuple() < other.as_tuple()

    def __le__(self, other):
        return self.as_tuple() <= other.as_tuple()

    def __sub__(self, other):
        return SuperDim(self.even - other.even, self.odd - other.odd)

    def render(self):
        if self.even == ZERO_RING_DIM:
            return "-inf|%d" % self.odd
        return "%d|%d" % (self.even, self.odd)

    def __str__(self):
        return self.render()


class OddParamCertificate(Record):
    __slots__ = ("elements", "even_dim_witness", "reason")

    def __init__(self, elements, even_dim_witness, reason=""):
        self.elements = elements
        self.even_dim_witness = even_dim_witness
        self.reason = reason


# ---------------------------------------------------------------------------
# largest purely even quotient and even Krull dimension


def _even_image(terms, bvs):
    """The image in the purely even VarSet bvs of an element with these
    terms, each keyed (exps, mask): killing the odd generators keeps exactly
    the terms that have no odd factor."""
    return SuperPoly(bvs, {t: c for t, c in terms.items() if not t[1]})


def bar(algebra):
    """The largest purely even quotient: all odd generators become zero.
    ``SuperAlgebra`` drops the zero and repeated images."""
    bvs = VarSet(algebra.vs.even, (), algebra.vs.field)
    return SuperAlgebra(bvs, [_even_image(r.terms, bvs) for r in algebra.relations])


def leading_term_dim(comm_algebra):
    """Krull dimension of k[x]/I via the maximum size of a variable subset
    touching no leading monomial of the reduced basis (``_lead_dim``)."""
    return _lead_dim(comm_algebra.gbasis, comm_algebra.vs.m)


def _lead_dim(gb, m):
    """Krull dimension of k[x]/I, for gb a Gröbner basis of I under
    term_key, reduced or not, with m even generators: the maximum size of a
    variable subset u that holds the support of no lead.

    The leads generate the initial ideal in(I), and k[x]/I has the Krull
    dimension of k[x]/in(I), the largest u with no monomial of in(I) in
    k[u].  That condition reads the same on any generating set of in(I): a
    monomial of in(I) in k[u] is a multiple of a generator, whose support
    then lies in u, and each generator is such a monomial.  So unreduced
    leads give the dimension that the reduced ones give."""
    decode = gb.layout.decode
    supports = [frozenset(i for i, e in enumerate(decode(c)[0]) if e) for c in gb.lead_codes]
    if frozenset() in supports:  # the lead 1: the unit ideal
        return ZERO_RING_DIM
    # the empty set holds no support, so size 0 always returns
    for size in range(m, -1, -1):
        for combo in itertools.combinations(range(m), size):
            if all(s.difference(combo) for s in supports):
                return size


# ---------------------------------------------------------------------------
# systems of odd parameters


def _odd_product(algebra, elements):
    """The normal form of the product of the elements, in order; a
    ParityError names the first element that is not odd."""
    prod = algebra.vs.one()
    for y in elements:
        if y.parity() != 1:
            raise ParityError("%s is not odd" % y)
        prod = prod * y
    return algebra.nf(prod)


def _even_dim_modulo_annihilator(p, algebra, bar_algebra):
    """Krull dimension of bar(A) modulo the image of Ann(p)_0, read from the
    even kernel basis that ``_kernel_pairs(p, algebra, 0)`` returns: p
    passes the parameter test iff that dimension is bar(A)'s own.  It stays
    in term_key codes from the elimination to the verdict.

    That basis is not reduced, but with the pure tags it generates
    Ann(p)_0 over k[x].  An f in Ann(p)_0 is a sum of a_i*g_i with a_i in
    k[x], so the terms of f without an odd factor are the sum of a_i times
    those of g_i: the mask-0 terms of the basis generate the image of
    Ann(p)_0, as those of the reduced basis do.  A pure tag e_S has S
    nonempty, as y_0 * p = p is not zero, and odd kernel elements have no
    mask-0 term, so neither the pure tags nor the odd half of the
    elimination is needed.

    A mask-0 term (exps, 0) has the same term_key code in the algebra and
    in bar(A), which has no odd generator.  So the mask-0 parts of the
    basis, as they are, extend a copy of bar(A)'s reduced basis by
    ``complete`` to a Gröbner basis, not reduced, of the image plus the
    relations of bar(A), whose leads give the dimension (``_lead_dim``)."""
    m = algebra.vs.m
    layout = code_layout(term_key, m)
    even = term_key(((0,) * m, 0)) & layout.comp
    image = [
        {c: x for c, x in v.items() if c & layout.comp == even}
        for _, v in _kernel_pairs(p, algebra, 0)[0]
    ]
    return _lead_dim(complete(bar_algebra.gbasis.copy(), image), m)


def is_odd_parameter_system(algebra, elements, bar_algebra=None, even_dim=None):
    """Tests whether the product of the elements has an annihilator small
    enough to preserve the even Krull dimension.

    ``bar_algebra`` (= bar(algebra)) and ``even_dim`` (its Krull dimension)
    depend only on the algebra; a caller testing many candidates passes
    them in once computed."""
    prod = _odd_product(algebra, elements)
    if prod.is_zero():
        return False, OddParamCertificate(list(elements), None, "product is zero")
    bar_a = bar(algebra) if bar_algebra is None else bar_algebra
    d = leading_term_dim(bar_a) if even_dim is None else even_dim
    dq = _even_dim_modulo_annihilator(prod, algebra, bar_a)
    reason = "" if dq == d else "annihilator drops even dimension to %s" % dq
    return dq == d, OddParamCertificate(list(elements), d, reason)


def is_odd_regular_sequence(algebra, elements):
    """Stronger condition: the annihilator of the product equals the
    superideal generated by the elements themselves.  At most
    MODULE_MAX_ODD odd generators, as for ``annihilator``."""
    check_odd_bound(algebra.vs, MODULE_MAX_ODD)
    prod = _odd_product(algebra, elements)
    if prod.is_zero():
        return False
    return ideal_equal(annihilator(prod, algebra), SuperIdeal(algebra, list(elements)))


def ksdim(algebra):
    """Krull super-dimension with an explicit certificate.

    The odd component is exact: it is K, the largest |T| for which the
    generator monomial y_T passes the parameter test.  A product p of k
    odd elements is an A_0-combination of the y_T with |T| = k, so every
    f in the intersection of their annihilators kills p: Ann(p) contains
    that intersection, which contains the product of the Ann(y_T)_0.  In
    bar(A) the zero set of the image of Ann(p)_0 therefore lies in the
    union of those of the Ann(y_T)_0, and if every y_T with |T| = k fails,
    so does every set of k odd elements.  A y_T that passes makes
    {y_i : i in T} a system of odd parameters.  Ann(y_S) is contained in
    Ann(y_T) for S in T, so passing index sets are closed under subsets.

    K is found by testing the full monomial, then by a depth-first search
    over index sets in lexicographic order that extends only passing sets
    and stops where no extension can beat the best size found.  Closure
    under subsets puts every prefix of the lexicographically first passing
    set of size K on the search's path, and the size bound cuts nothing
    off before a set of size K is found, so the search meets that set
    before any other of its size; its normalised generators are the
    certificate.  Each verdict is kept under its monic product, so each
    distinct product, up to a scalar, is tested once: Ann(c*p) = Ann(p)
    for a nonzero scalar c.

    A test needs only its verdict, and reads it from the even half of the
    elimination, Ann(p)_0, with its basis as the elimination leaves it:
    that basis generates Ann(p)_0 over k[x] as the reduced one does, so
    the image of Ann(p)_0 in bar(A), and the Krull dimension it leaves, are
    the same (``_even_dim_modulo_annihilator``).  The elimination takes
    graph vectors only over the odd indices that not every term of p
    holds, and leaves the tags with y_S*p = 0 out of its completion
    (``groebner._kernel_pairs``); the verdict extends a copy of bar(A)'s
    basis by the mask-0 codes of the kernel basis and reads the dimension
    off the unreduced leads: the kernel basis is never decoded, and no
    algebra or reduced basis is built.  The odd half never runs: the
    certificate is the accepted elements and the dimension witness, and
    ``annihilator`` gives Ann of their product to a caller that wants it.
    """
    check_odd_bound(algebra.vs, KSDIM_MAX_ODD)
    bar_a = bar(algebra)
    even = leading_term_dim(bar_a)
    if even == ZERO_RING_DIM:
        return SuperDim(ZERO_RING_DIM, 0), OddParamCertificate([], even, "zero ring")
    vs = algebra.vs
    char = vs.field.char
    verdicts = {}  # monic product -> whether it passes the parameter test

    def passes(p):
        monic = p.scale(inv(p.lead_term()[1], char))
        if monic not in verdicts:
            verdicts[monic] = _even_dim_modulo_annihilator(monic, algebra, bar_a) == even
        return verdicts[monic]

    n = vs.n
    gens = [vs.gen(y) for y in vs.odd]
    best = []  # the first passing index set of the largest size found so far

    def grow(chosen, prod):
        nonlocal best
        if len(chosen) > len(best):
            best = chosen
        for j in range(chosen[-1] + 1 if chosen else 0, n):
            if len(chosen) + n - j <= len(best):
                return
            p = algebra.nf(prod * gens[j])
            if p and passes(p):
                grow(chosen + [j], p)

    full = algebra.nf(vs.monomial((0,) * vs.m, (1 << n) - 1))
    if n and full and passes(full):
        best = list(range(n))
    else:
        grow([], vs.one())
    # grow refers to itself through its closure; deleting it breaks the
    # cycle, so the verdict memo is freed on return rather than at a later
    # full collection
    del grow
    if not best:
        return SuperDim(even, 0), OddParamCertificate([], even, "no odd parameters")
    return SuperDim(even, len(best)), OddParamCertificate([algebra.nf(gens[i]) for i in best], even)


# ---------------------------------------------------------------------------
# rational points


class PointIdeal(Record):
    __slots__ = ("point",)

    def __init__(self, point):
        self.point = point  # even generator name -> scalar

    def validate(self, algebra):
        """The point lies on the scheme iff every relation vanishes there
        (odd monomials die under evaluation)."""
        for r in algebra.relations:
            if r.evaluate_at_point(self.point):
                raise StructureError("point does not satisfy relation %s" % r)

    def even_gens(self, algebra):
        """x - a for each even generator x with value a at the point."""
        vs = algebra.vs
        return [vs.gen(x) - vs.const(self.point[x]) for x in vs.even]


def phi_dim_at_point(algebra, pt):
    """Dimension of the odd part modulo the maximal ideal: the minimal
    number of odd module generators at the point."""
    return len(phi_basis_lift(algebra, pt))


def odd_cotangent_relations(algebra, pt):
    """The echelon form of the odd Jacobian rows {i: ev_x(dr/dy_i)} of the
    relations r at a point x on the scheme: the span of the linear parts of
    the odd elements of J at x, in the coordinates of the y_i.

    Write A = k[x | y]/J and let m be the maximal superideal of the point.
    Every relation vanishes at the point, so it lies in m, and J is the
    k-span of the relations modulo m*J, which lies in m^2.  Modulo m^2, an
    odd relation r is sum ev_x(dr/dy_i)*y_i, and an even one contributes
    nothing.  So a linear form sum v_i*y_i lies in (m^2)_1 + J_1 iff v lies
    in the span of these rows.  No closure over the 2^n components and no
    Gröbner basis is built: the work is one row per relation.
    """
    vs = algebra.vs
    span = Echelon(int, vs.field.char)
    derivations = [{y: vs.one()} for y in vs.odd]
    for r in algebra.relations:
        row = {}
        for i, d in enumerate(derivations):
            c = r.apply_derivation(d, 1).evaluate_at_point(pt.point)
            if c:
                row[i] = c
        span.insert(row)
    return span


def phi_basis_lift(algebra, pt):
    """Odd generators whose classes form a basis of the odd part modulo
    the maximal ideal, as elements of the algebra: y_i is kept when its
    class is independent of those kept before it.

    The ideal the classes are taken modulo is I = (x - a, y_a*y_b) + J,
    and I_1 = (m^2)_1 + J_1, so the answer is the odd part of m/(m^2 + J),
    spanned by the classes of the y_i.  By ``odd_cotangent_relations``, the
    class of y_i depends on those kept before it iff e_i lies in the span
    of the odd Jacobian rows and the e_j kept before it.  The greedy pass
    runs in the order of the odd generators, so the same y_i are kept as
    when each class is reduced modulo a Gröbner basis of I.
    """
    pt.validate(algebra)
    vs = algebra.vs
    span = odd_cotangent_relations(algebra, pt)
    one = vs.field.one
    return [vs.gen(y) for i, y in enumerate(vs.odd) if span.insert({i: one})]


# ---------------------------------------------------------------------------
# associated graded presentation


def gr_presentation(algebra):
    """Same generators; relations replaced by the lowest odd-weight slices
    of a basis computed with the odd-weight-first order.  ``SuperAlgebra``
    drops the repeated slices.  At most MODULE_MAX_ODD odd generators."""
    vs = algebra.vs
    check_odd_bound(vs, MODULE_MAX_ODD)
    closed = [g.terms for g in superideal_closure(algebra.relations)]
    gb = buchberger(closed, weight_term_key, vs.field.char)
    rels = []
    for (_, mask), v in zip(gb.leads, gb.vectors):
        # the lead lies in the lowest odd-weight slice
        wmin = mask.bit_count()
        rels.append(SuperPoly(vs, {t: c for t, c in v.items() if t[1].bit_count() == wmin}))
    return SuperAlgebra(vs, rels)


def is_odd_weight_homogeneous(p):
    weights = {mask.bit_count() for (_, mask) in p.terms}
    return len(weights) <= 1


def hilbert_slice_dims(algebra, max_degree):
    """Number of standard monomials in each total degree up to the bound."""
    from superalg.oracle import all_monomials
    from superalg import _kernel

    leads = algebra.gbasis.leads
    dims = [0] * (max_degree + 1)
    for exps, mask in all_monomials(algebra.vs, max_degree):
        reducible = any(
            lm == mask and _kernel.exp_divides(le, exps) for (le, lm) in leads
        )
        if not reducible:
            dims[sum(exps) + mask.bit_count()] += 1
    return dims


# ---------------------------------------------------------------------------
# coverings


def covers_unit(algebra, elements):
    """True iff the even parts of the elements generate the unit ideal of
    the even part (checked in the purely even quotient; the kernel is nil,
    so the answer agrees)."""
    bar_a = bar(algebra)
    bvs = bar_a.vs
    gens = [_even_image(a.terms, bvs) for a in elements]
    test = SuperAlgebra(bvs, bar_a.relations + [g for g in gens if g])
    return test.is_zero_ring()


def verify_cover(algebra, elements):
    """Checks the covering identity: the lexicographic maximum of the
    localized super-dimensions, with the odd part maximized over the
    indices of maximal even dimension, equals the global value."""
    for a in elements:
        if a.parity() != 0:
            raise ParityError("cover element %s is not even" % a)
    if not covers_unit(algebra, elements):
        raise StructureError("elements do not generate the unit ideal of the even part")
    global_dim, _ = ksdim(algebra)
    local = []
    for a in elements:
        loc, _ = localize_at_even(algebra, a)
        d, _ = ksdim(loc)
        local.append(d)
    d0 = max((d.even for d in local), default=ZERO_RING_DIM)
    max_idx = [i for i, d in enumerate(local) if d.even == d0]
    d1 = max((local[i].odd for i in max_idx), default=0)
    agreed = SuperDim(d0, d1) == global_dim
    return {
        "global": global_dim,
        "local": local,
        "even_max_indices": max_idx,
        "cover_max": SuperDim(d0, d1),
        "agrees": agreed,
    }
