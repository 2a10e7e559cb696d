"""Ideal theory for supercommutative superalgebras.

A superideal of k[x's | y's] is handled as a k[x]-submodule of the free
module of rank 2^n whose components are indexed by square-free odd
monomials.  Signs enter only when the closure operation multiplies
generators by odd monomials; after that everything is commutative module
Gröbner theory with a position-over-term flavored order.

Vectors are SuperPoly term dicts {(exps, comp): coeff}, where exps is an
even exponent tuple and comp is a hashable component id: the odd bitmask
for superideals, a (block, bitmask) pair inside the annihilator's
elimination.
"""

from __future__ import annotations

import functools
import heapq
from operator import add, le, sub

from superalg import _kernel
from superalg.scalars import inv
from superalg.superpoly import (
    TERM_KEY_CACHE_SIZE,
    ParityError,
    StructureError,
    SuperPoly,
    VarSet,
    mask_indices,
    term_key,
)


# ---------------------------------------------------------------------------
# term orders on module monomials; the standard order is superpoly.term_key


@functools.lru_cache(maxsize=TERM_KEY_CACHE_SIZE)
def weight_term_key(term):
    """Odd-weight-first order: fewer odd factors = greater.  The leading
    term of any element then lies in its lowest odd-weight slice, which is
    what makes initial forms of a Gröbner basis present gr(A)."""
    exps, mask = term
    return (
        -mask.bit_count(),
        sum(exps),
        tuple(-e for e in reversed(exps)),
        tuple(mask_indices(mask)),
    )


@functools.lru_cache(maxsize=TERM_KEY_CACHE_SIZE)
def elim_term_key(term):
    """Elimination order for the annihilator computation: every term in the
    main block dominates every term in the tag block."""
    exps, (block, mask) = term
    return (1 if block == 0 else 0,) + term_key((exps, mask))


# ---------------------------------------------------------------------------
# vector arithmetic


def vec_add_scaled(dst, src, coeff, shift, p):
    """dst += coeff * x^shift * src, in place, in characteristic p (0 for
    Q)."""
    for (exps, comp), c in src.items():
        t = (tuple(map(add, exps, shift)), comp)
        nc = dst.get(t)
        nc = coeff * c if nc is None else nc + coeff * c
        if p:
            nc %= p
        if nc:
            dst[t] = nc
        elif t in dst:
            del dst[t]


def vec_lead(v, key):
    return max(v, key=key)


def vec_monic(v, key, p):
    lt = vec_lead(v, key)
    lc = v[lt]
    if lc == 1:
        return dict(v)
    c_inv = inv(lc, p)
    return {t: c * c_inv % p if p else c * c_inv for t, c in v.items()}


class GBasis:
    """A list of monic vectors over characteristic p (0 for Q) with
    normal-form reduction against them."""

    def __init__(self, key, p):
        self.key = key
        self.p = p
        self.vectors = []
        self.leads = []
        self.tails = []  # each vector without its lead term
        self.by_comp = {}  # component -> [(index, lead exponents)], by index

    def append(self, v, lead=None):
        """Add the monic vector v; ``lead`` is its lead term when the caller
        already knows it."""
        if lead is None:
            lead = vec_lead(v, self.key)
        self.by_comp.setdefault(lead[1], []).append((len(self.vectors), lead[0]))
        self.vectors.append(v)
        self.leads.append(lead)
        tail = dict(v)
        del tail[lead]
        self.tails.append(tail)

    def nf(self, v, skip=None):
        """Full normal form: every term of the result is a standard
        monomial (irreducible against the basis).  ``skip`` is the index of
        a basis vector not to reduce by."""
        if not self.vectors:
            return dict(v)
        key = self.key
        p = self.p
        by_comp = self.by_comp
        tails = self.tails
        work = dict(v)
        result = {}
        while work:
            t = max(work, key=key)
            exps, comp = t
            c = work.pop(t)
            for i, lead_exps in by_comp.get(comp, ()):
                if i != skip and all(map(le, lead_exps, exps)):
                    break
            else:
                result[t] = c
                continue
            # work -= c * x^shift * (reducer i), inline: the reducer is monic,
            # so its lead cancels t exactly and only its tail is subtracted
            c = -c
            shift = tuple(map(sub, exps, lead_exps))
            for (e, tc), d in tails[i].items():
                s = (tuple(map(add, e, shift)), tc)
                nc = work.get(s)
                nc = c * d if nc is None else nc + c * d
                if p:
                    nc %= p
                if nc:
                    work[s] = nc
                elif s in work:
                    del work[s]
        return result


def buchberger(vectors, key, p):
    """Unique reduced Gröbner basis of the k[x]-submodule spanned by
    ``vectors`` with respect to the module order ``key``, over
    characteristic p (0 for Q)."""
    gb = complete(vectors, key, p)
    return _autoreduce(key, p, zip(gb.leads, gb.vectors))


def complete(vectors, key, p, gb=None):
    """A Gröbner basis, not yet reduced, of the k[x]-submodule spanned by
    ``vectors`` with respect to the module order ``key``, over
    characteristic p (0 for Q).  A GBasis passed as ``gb`` must already be
    a Gröbner basis over p of monic vectors with distinct leads; it is
    extended in place, and no pair among its own elements is formed.

    Every vector, input or S-vector, joins the basis only as its nonzero
    normal form, so the inputs that a closure repeats add no pairs.  Only
    pairs whose leads share a component c have an S-vector.  Buchberger's
    product criterion drops a pair unqueued when its lead exponents are
    coprime and both vectors lie wholly in c: then f = F*e_c, g = G*e_c
    and S(f, g) = F'*g - G'*f with F', G' the tails, a standard
    representation (a vector with terms in other components has none).
    The other pairs are taken smallest lcm first (the normal strategy),
    and a pair (i, j) is dropped by Buchberger's chain criterion when some
    other element k of the component has a lead dividing lcm(i, j) while
    neither (i, k) nor (j, k) is still pending; a pair the product
    criterion dropped is never pending.
    """
    if gb is None:
        gb = GBasis(key, p)
    lcm = _kernel.exp_lcm
    sub = _kernel.exp_sub
    divides = _kernel.exp_divides
    coprime = _kernel.exp_coprime
    heap = []  # (key of the lcm, i, j, comp, lcm exponents), i < j
    pending = set()
    one_comp = {}  # index -> every term lies in the lead's component

    def in_one_comp(i):
        flag = one_comp.get(i)
        if flag is None:
            comp = gb.leads[i][1]
            flag = one_comp[i] = all(c == comp for _, c in gb.vectors[i])
        return flag

    def insert(v):
        r = gb.nf(v)
        if not r:
            return
        j = len(gb.vectors)
        gb.append(vec_monic(r, key, p))
        ej, comp = gb.leads[j]
        for i, ei in gb.by_comp[comp]:
            if i == j:
                break
            # the cheap coprimality test first: it rarely holds
            if coprime(ei, ej) and in_one_comp(i) and in_one_comp(j):
                continue
            m = lcm(ei, ej)
            heapq.heappush(heap, (key((m, comp)), i, j, comp, m))
            pending.add((i, j))

    def chain_redundant(i, j, comp, m):
        for k, ek in gb.by_comp[comp]:
            if (
                k != i
                and k != j
                and divides(ek, m)
                and (min(i, k), max(i, k)) not in pending
                and (min(j, k), max(j, k)) not in pending
            ):
                return True
        return False

    for v in sorted((v for v in vectors if v), key=lambda v: key(vec_lead(v, key))):
        insert(v)
    while heap:
        _, i, j, comp, m = heapq.heappop(heap)
        pending.discard((i, j))
        if chain_redundant(i, j, comp, m):
            continue
        ei, ej = gb.leads[i][0], gb.leads[j][0]
        # basis vectors are monic: the stored lead coefficient is the one
        one = gb.vectors[i][gb.leads[i]]
        s = {}
        vec_add_scaled(s, gb.vectors[i], one, sub(m, ei), p)
        vec_add_scaled(s, gb.vectors[j], -one, sub(m, ej), p)
        insert(s)
    return gb


def _autoreduce(key, p, leads_and_vectors):
    """The unique reduced basis over characteristic p from the (lead, monic
    vector) pairs of a completed basis."""
    divides = _kernel.exp_divides
    # every element entered as a normal form, so the leads are distinct;
    # minimalize: drop any element whose lead a smaller kept lead divides
    work = GBasis(key, p)
    for lead, v in sorted(leads_and_vectors, key=lambda lv: key(lv[0])):
        exps, comp = lead
        if not any(divides(le, exps) for _, le in work.by_comp.get(comp, ())):
            work.append(v, lead)
    # tail-reduce each element against the others; with pairwise
    # indivisible leads this terminates in the unique reduced basis, and
    # no other lead divides a lead, so each keeps its lead and stays monic
    out = [(work.leads[i], work.nf(v, skip=i)) for i, v in enumerate(work.vectors)]
    out.sort(key=lambda lv: key(lv[0]), reverse=True)
    final = GBasis(key, p)
    for lead, v in out:
        final.append(v, lead)
    return final


# ---------------------------------------------------------------------------
# closure and algebra presentations


def superideal_closure(gens):
    """Close a generating set under multiplication by odd monomials; the
    k[x]-span of the result is the two-sided superideal generated by gens."""
    out = [g for g in gens if g]
    if not out:
        return []
    vs = out[0].vs
    closed = dict.fromkeys(out)  # a hash set that keeps first-occurrence order
    for g in out:
        for mask in range(1, 1 << vs.n):
            prod = vs.monomial((0,) * vs.m, mask) * g
            if prod:
                closed.setdefault(prod)
    return list(closed)


class SuperAlgebra:
    """Finite presentation k[x's | y's] / J with cached Gröbner data.

    Relations are split into parity-homogeneous components at
    construction, so the relation superideal is parity-graded.  ``key``
    identifies the presentation by content (generators, field and
    relations); caches of answers that depend on the algebra key on it.
    ``gbasis``, built on first use, is the one stored reduced Gröbner
    basis of J under term_key.
    """

    def __init__(self, vs, relations=()):
        self.vs = vs
        rels = []
        for r in relations:
            if r.vs != vs:
                raise StructureError("relation over a different generator set")
            for par in (0, 1):
                part = r.parity_part(par)
                if part and part not in rels:
                    rels.append(part)
        self.relations = rels
        self.key = (vs, tuple(rels))
        self._gbasis = None

    @property
    def gbasis(self):
        """Reduced Gröbner basis of the superideal closure of the relations."""
        if self._gbasis is None:
            closed = [g.terms for g in superideal_closure(self.relations)]
            self._gbasis = buchberger(closed, term_key, self.vs.field.char)
        return self._gbasis

    @property
    def module_gb(self):
        """The reduced basis as SuperPolys, a view for rendering."""
        return [SuperPoly(self.vs, v) for v in self.gbasis.vectors]

    def nf(self, f):
        gb = self.gbasis
        return SuperPoly(self.vs, gb.nf(f.terms)) if gb.vectors else f

    def contains_in_ideal(self, f):
        return self.nf(f).is_zero()

    def is_zero_ring(self):
        return self.contains_in_ideal(self.vs.one())

    def __repr__(self):
        return "SuperAlgebra(even=%r, odd=%r, relations=%r)" % (
            list(self.vs.even),
            list(self.vs.odd),
            [str(r) for r in self.relations],
        )


class SuperIdeal:
    """A superideal of a SuperAlgebra, i.e. a k[x]-submodule of the free
    module containing the relation module and closed under odd
    multiplication.  ``gbasis`` is its reduced Gröbner basis under
    term_key."""

    def __init__(self, ambient, generators=()):
        self.ambient = ambient
        gens = [g for g in map(ambient.nf, generators) if g]
        self._generators = gens
        closed = [g.terms for g in superideal_closure(gens)] + ambient.gbasis.vectors
        self.gbasis = buchberger(closed, term_key, ambient.vs.field.char)

    @classmethod
    def _from_reduced_basis(cls, ambient, gbasis):
        """A superideal whose reduced Gröbner basis under term_key is
        already known: ``gbasis`` is kept as given, with no closure and no
        Buchberger run.  The caller vouches that it is the reduced basis of
        a superideal containing the relation module.  Its generators, the
        nonzero normal forms of the basis, are found when first read."""
        self = cls.__new__(cls)
        self.ambient = ambient
        self._generators = None
        self.gbasis = gbasis
        return self

    @property
    def module_gb(self):
        """The reduced basis as SuperPolys, a view for rendering."""
        return [SuperPoly(self.ambient.vs, v) for v in self.gbasis.vectors]

    @property
    def generators(self):
        if self._generators is None:
            self._generators = [g for g in map(self.ambient.nf, self.module_gb) if g]
        return self._generators

    def nf(self, f):
        return SuperPoly(self.ambient.vs, self.gbasis.nf(f.terms))

    def contains(self, f):
        return self.nf(f).is_zero()

    def is_unit_ideal(self):
        return self.contains(self.ambient.vs.one())

    def __repr__(self):
        return "SuperIdeal(%r)" % [str(g) for g in self.generators]


def ideal_equal(I, J):
    """Both are the modules their reduced bases span, and the reduced basis
    of a module under a fixed order is unique."""
    if I.ambient is not J.ambient and I.ambient.vs != J.ambient.vs:
        raise StructureError("ideals live in different ambient algebras")
    return I.gbasis.vectors == J.gbasis.vectors


# ---------------------------------------------------------------------------
# annihilators via tag-block elimination


def annihilator(p, algebra):
    """Ann_A(p) = {f : f*p = 0 in A} as a SuperIdeal.

    The kernel pairs of both parities from ``annihilator_elimination`` are
    autoreduced on their own, under term_key: a main-block lead divides no
    tag-block term, so the main-block elements take no part in their
    reduction, and elim_term_key restricted to the tag block is term_key,
    so the result is the tag-block part of the reduced elimination basis.
    That is already the reduced basis of the kernel K: K contains J and is
    closed under odd multiplication, so closing it and adding the relation
    basis changes nothing; and the reduced basis of a parity-graded module
    is parity-homogeneous.
    """
    vs = algebra.vs
    if p.parity() is None:
        raise ParityError("annihilator argument must be parity-homogeneous")
    p = algebra.nf(p)
    if p.is_zero():
        return SuperIdeal(algebra, [vs.one()])
    pairs = annihilator_elimination(p, algebra, 0) + annihilator_elimination(p, algebra, 1)
    return SuperIdeal._from_reduced_basis(algebra, _autoreduce(term_key, vs.field.char, pairs))


def annihilator_elimination(p, algebra, parity):
    """The kernel elements of one parity of multiplication by p on the free
    module, for a nonzero parity-homogeneous p in normal form, as the
    (lead, vector) pairs of a Gröbner basis of them that is not yet reduced,
    in the superideal's coordinates: the tag e_S is the term (0, S).

    The graph vectors (y_S * p, e_S-tag) with |S| of the given parity,
    together with the relation basis elements of parity ``parity`` + |p|,
    are completed under an order eliminating the main block; the basis
    elements with a tag-block lead lie wholly in the tag block, because it
    sorts below every main-block term, and they are a Gröbner basis of the
    kernel's part of that parity.  Every vector of the completion lies in
    components of that parity: tag masks of the parity and main-block masks
    of the parity plus |p|.  The other parity's vectors lie in the other
    components, so they neither pair with these nor reduce them, and the
    pairs of both parities together are a Gröbner basis of the whole
    kernel.
    """
    vs = algebra.vs
    zero_exps = (0,) * vs.m
    char = vs.field.char
    one = vs.field.one
    main_parity = parity ^ p.parity()
    # The relation basis is a reduced Gröbner basis of homogeneous elements
    # and each e_S with y_S * p = 0 is a kernel element in a component of
    # its own, so together they are a Gröbner basis that enters the
    # elimination as it is, with its leads.
    gb = GBasis(elim_term_key, char)
    rel = algebra.gbasis
    for (exps, mask), v in zip(rel.leads, rel.vectors):
        if mask.bit_count() & 1 == main_parity:
            gb.append({(ce, (0, cm)): c for (ce, cm), c in v.items()}, (exps, (0, mask)))
    cols = {0: p}  # cols[S] = y_S * p in normal form
    graph = []
    for mask in range(1 << vs.n):
        if mask.bit_count() & 1 != parity:
            continue
        if mask:
            # y_S = y_T * y_R with no sign for T the one or two lowest
            # indices of S: R is empty or of the parity of S
            rest = mask & (mask - 1)
            rest &= rest - 1
            base = cols[rest]
            cols[mask] = algebra.nf(vs.monomial(zero_exps, mask ^ rest) * base) if base else base
        col = cols[mask]
        e_s = (zero_exps, (1, mask))
        if col:
            v = {(ce, (0, cm)): c for (ce, cm), c in col.terms.items()}
            v[e_s] = one
            graph.append(v)
        else:
            gb.append({e_s: one}, e_s)
    gb = complete(graph, elim_term_key, char, gb)
    return [
        ((exps, mask), {(e, m): c for (e, (_, m)), c in v.items()})
        for (exps, (block, mask)), v in zip(gb.leads, gb.vectors)
        if block == 1
    ]


# ---------------------------------------------------------------------------
# localization at an even element


def fresh_name(base, taken):
    if base not in taken:
        return base
    i = 1
    while "%s%d" % (base, i) in taken:
        i += 1
    return "%s%d" % (base, i)


def extend_poly(p, target_vs):
    """Reinterpret p over a VarSet obtained by appending even variables."""
    images = {n: target_vs.gen(n) for n in p.vs.even + p.vs.odd}
    return p.substitute(images, target_vs)


def localize_at_even(algebra, a):
    """Presentation of A_a: one new even variable t with relation t*a - 1.

    Returns (localized_algebra, inverse_variable_name).  Inverting zero
    yields the zero ring (flagged by is_zero_ring()).
    """
    if a.parity() != 0:
        raise ParityError("can only localize at an even element")
    vs = algebra.vs
    t = fresh_name("t", set(vs.even + vs.odd))
    vs2 = VarSet(vs.even + (t,), vs.odd, vs.field)
    rels = [extend_poly(r, vs2) for r in algebra.relations]
    rels.append(vs2.gen(t) * extend_poly(a, vs2) - vs2.one())
    return SuperAlgebra(vs2, rels), t


# ---------------------------------------------------------------------------
# morphisms and the monomorphism necessary condition


class Morphism:
    """Superalgebra morphism given by generator images."""

    def __init__(self, src, dst, images):
        self.src = src
        self.dst = dst
        self.images = {}
        for name in src.vs.even + src.vs.odd:
            if name not in images:
                raise StructureError("no image for generator %s" % name)
            img = dst.nf(images[name])
            if img and img.parity() != src.vs.parity_of(name):
                raise ParityError("image of %s has wrong parity" % name)
            self.images[name] = img

    def apply(self, f):
        return self.dst.nf(f.substitute(self.images, self.dst.vs, check_parity=False))

    def check_well_defined(self):
        """Returns the first violated relation, or None when the map is a
        morphism (every relation maps into the target ideal)."""
        for r in self.src.relations:
            if not self.apply(r).is_zero():
                return r
        return None


def check_mono_necessary(phi):
    """Necessary condition for SSpec(dst) -> SSpec(src) to be a
    monomorphism: the odd part A_1 of the target A must be generated, as a
    module over its even part A_0, by the image of the odd part B_1 of the
    source B.

    It is decided on the n odd generators of each side.  B_1 is spanned
    over B_0 by the y_j and phi(B_0) lies in A_0, so phi(B_1) generates
    M = sum A_0*phi(y_j) over A_0.  M is the odd part of the superideal
    (phi(y_j)): ``Morphism`` makes each phi(y_j) odd, so that superideal's
    reduced basis is parity-homogeneous.  For |T| odd, y_T = +-y_(T-i)*y_i
    with y_(T-i) in A_0, so A_1 lies in M iff every odd generator y_i of
    the target does.
    """
    bad = phi.check_well_defined()
    if bad is not None:
        raise StructureError("map is not well defined: relation %s is not sent to zero" % bad)
    dst = phi.dst
    vs = dst.vs
    ideal = SuperIdeal(dst, [phi.images[y] for y in phi.src.vs.odd])
    return all(ideal.contains(vs.gen(y)) for y in vs.odd)
