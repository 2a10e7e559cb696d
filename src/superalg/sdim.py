"""Dimension theory: largest purely even quotient, associated graded
presentation, even/odd Krull dimension, systems of odd parameters, odd
regular sequences, minimal odd generator count at a rational point, and
covering checks for affine super-dimension.
"""

from __future__ import annotations

from superalg._kernel import code_layout, term_key, weight_term_key
from superalg.groebner import (
    MODULE_MAX_ODD,
    SuperAlgebra,
    SuperIdeal,
    _kernel_pairs,
    annihilator,
    buchberger,
    check_odd_bound,
    ideal_equal,
    localize_at_even,
    superideal_closure,
)
from superalg.linalg import Echelon
from superalg.scalars import inv
from superalg.superpoly import ParityError, StructureError, SuperPoly, VarSet

ZERO_RING_DIM = float("-inf")  # sentinel even dimension of the zero ring

# The most odd generators ``ksdim`` searches over, and ``orbits.orbit_ideal``
# takes: the search makes up to n + 1 eliminations with one tag each, over
# the odd indices that not every term of its product holds, against a
# relation basis over 2^n components, so k[x | y1..yn]/(x*y1y2y3) takes
# about 0.6 s at n = 14, 0.9 s at n = 15 and 1.2 s at n = 16, and
# k[x | y1..yn]/(x*y_i), whose relation basis fills every component, 2.9 s,
# 6.9 s and 17 s; an orbit ideal on the first, whose one superideal over
# 2^n components is the result, about 1.5 s at n = 14 (one process per
# call, 2 vCPUs).
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
    return _lead_dim((exps for exps, _ in comm_algebra.gbasis.leads), comm_algebra.vs.m)


def _lead_dim(lead_exps, m):
    """Krull dimension of k[x]/I, for lead_exps the lead exponent tuples of
    a Gröbner basis of I under term_key, reduced or not, with m even
    generators: the maximum size of a variable subset u that holds the
    support of no lead.

    The leads generate the initial ideal in(I), and k[x]/I has the Krull
    dimension of k[x]/in(I), the largest u with no monomial of in(I) in
    k[u].  That condition reads the same on any generating set of in(I): a
    monomial of in(I) in k[u] is a multiple of a generator, whose support
    then lies in u, and each generator is such a monomial.  So unreduced
    leads give the dimension that the reduced ones give.  The variables
    outside u meet every support, so the answer is m less the fewest
    variables that do (``_least_cover``)."""
    supports = {sum(1 << i for i, e in enumerate(exps) if e) for exps in lead_exps}
    if 0 in supports:  # the lead 1: the unit ideal
        return ZERO_RING_DIM
    return m - _least_cover(supports)


def _least_cover(supports):
    """The fewest variables that meet every support of a set of nonempty
    variable bitmasks.  A support of one variable puts it in every cover.
    When each support left has two variables or more, take i the lowest
    variable of a smallest one: a cover either holds i, and then meets the
    supports without i, or does not, and then meets every support with i
    taken out, none of them empty.  Each branch settles one variable, and
    where every support is a single variable the first call decides."""
    forced = 0
    for s in supports:
        if not s & (s - 1):
            forced |= s
    rest = {s for s in supports if not s & forced}
    if not rest:
        return forced.bit_count()
    s = min(rest, key=int.bit_count)
    i = s & -s
    held = 1 + _least_cover({t for t in rest if not t & i})
    return forced.bit_count() + min(held, _least_cover({t & ~i for t in rest}))


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


def _even_dim_modulo_annihilator(p, algebra):
    """Krull dimension of bar(A) modulo the image of Ann(p)_0, for a
    nonzero parity-homogeneous p in normal form: p passes the parameter
    test iff that dimension is bar(A)'s own.  It is read off the leads of
    one elimination with one tag, ``_kernel_pairs(p, algebra, 0,
    one_tag=True)``, in term_key codes.

    Write A = k[x | y]/J, F_0 = sum over even S of k[x]*y_S for the even
    part of the free algebra, and f_0 in k[x] for the coefficient of
    y_0 = 1 in an f of F_0; the image of f in bar(A) is f_0 modulo bar(J).
    The tag block of that elimination is a Gröbner basis of I_p*e_0, with

        I_p = {a in k[x] : a*p in J_|p| + sum over S != 0 of k[x]*y_S*p}

    (the main block holds y_S*p in normal form, which differs from y_S*p
    by an element of J_|p|, and the relation basis of parity |p|).

    I_p is the image in k[x] of Ann(p)_0, that is of its preimage
    {f in F_0 : f*p in J} under f -> f_0.  If f*p lies in J, it lies in
    J_|p|, and f_0*p = f*p - sum over S != 0 of f_S*y_S*p puts f_0 in I_p.
    If a*p = j + sum over S != 0 of a_S*y_S*p with j in J_|p|, then
    f = a - sum a_S*y_S lies in F_0 with f*p = j in J, and f_0 = a.

    I_p contains bar(J).  For f in J_0, f*p lies in J, so f_0 lies in I_p
    by the first half.  bar(J) is generated by the mask-0 parts of the
    relations, and an odd relation has none, so by the f_0 of the even
    relations f, which lie in J_0.

    So the image of Ann(p)_0 in bar(A) = k[x]/bar(J) is I_p/bar(J), and
    bar(A) modulo it is k[x]/I_p, whose Krull dimension the leads of any
    Gröbner basis of I_p give (``_lead_dim``): no copy of bar(A)'s basis
    is completed, and nothing is decoded but the leads."""
    m = algebra.vs.m
    decode = code_layout(term_key, m).decode
    pairs, _ = _kernel_pairs(p, algebra, 0, one_tag=True)
    # a tag-block code is the term_key code of its term
    return _lead_dim((decode(lead)[0] for lead, _ in pairs), m)


def is_odd_parameter_system(algebra, elements, even_dim=None):
    """Tests whether the product of the elements has an annihilator small
    enough to preserve the even Krull dimension.

    ``even_dim``, the Krull dimension of bar(algebra), depends only on the
    algebra; a caller testing many candidates passes it in once computed."""
    prod = _odd_product(algebra, elements)
    if prod.is_zero():
        return False, OddParamCertificate(list(elements), None, "product is zero")
    d = leading_term_dim(bar(algebra)) if even_dim is None else even_dim
    dq = _even_dim_modulo_annihilator(prod, algebra)
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

    A test needs only its verdict: whether bar(A) modulo the image of
    Ann(p)_0 keeps bar(A)'s Krull dimension.  That image is the colon
    I_p = {a in k[x] : a*p in J + sum over S != 0 of k[x]*y_S*p}, which
    holds bar(J) (``_even_dim_modulo_annihilator``), so one elimination
    with the single tag e_0 on the graph vector (p, e_0), and y_S*p
    untagged for every other even S, gives a Gröbner basis of I_p; the
    verdict is read off its unreduced leads.  The elimination takes the
    y_S*p only over the odd indices that not every term of p holds
    (``groebner._kernel_pairs``), and stays in codes: nothing is decoded
    but the leads, no algebra or reduced basis is built, and neither the
    odd half nor a copy of bar(A)'s basis is completed.  The certificate
    is the accepted elements and the dimension witness, and
    ``annihilator`` gives Ann of their product to a caller that wants it.
    """
    check_odd_bound(algebra.vs, KSDIM_MAX_ODD)
    even = leading_term_dim(bar(algebra))
    if even == ZERO_RING_DIM:
        return SuperDim(ZERO_RING_DIM, 0), OddParamCertificate([], even, "zero ring")
    vs = algebra.vs
    char = vs.field.char
    verdicts = {}  # monic product -> whether it passes the parameter test

    def passes(p):
        monic = p.scale(inv(p.lead_term()[1], char))
        if monic not in verdicts:
            verdicts[monic] = _even_dim_modulo_annihilator(monic, algebra) == even
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
