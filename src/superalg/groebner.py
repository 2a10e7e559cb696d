"""Ideal theory for supercommutative superalgebras.

A superideal of k[x's | y's] is handled as a k[x]-submodule of the free
module of rank 2^n whose components are indexed by square-free odd
monomials.  Signs enter only when the closure operation multiplies
generators by odd monomials; after that everything is commutative module
Gröbner theory with a position-over-term flavored order.

Callers write and read vectors as {(exps, comp): coeff}, where exps is an
even exponent tuple and comp the component: the odd bitmask for
superideals, a (block, bitmask) pair inside the annihilator's
elimination.  Inside this module a vector is {code: coeff}, each term
packed into one int by its order's key (``_kernel`` keeps the layout):
integer ``<`` is the order, the bits ``code & layout.comp`` name the
component, and every even exponent has a field of its own, guarded by a
top bit that a valid code keeps clear.  So the lead of a vector is
``max(v)``; a reducer with lead l shifts a term u of its tail to the
reduced term t by one addition, u + (t - l); and l divides t iff
``((l | H) - t) & H == H`` for H the guard bits.  ``GBasis.nf`` and the
S-vectors of ``complete`` run on codes only; ``buchberger``,
``GBasis.normal_form`` and ``GBasis.vectors``/``leads`` convert at the
edge.  The annihilator's elimination, ``_kernel_pairs``, also returns
codes.  ``annihilator`` tags every graph vector and reduces the kernel
pairs as they are; the parameter test of ``sdim.ksdim`` tags only the
graph vector of the empty mask, so that its pairs are a Gröbner basis of
one colon ideal in k[x], and reads its verdict off their leads alone.
"""

from __future__ import annotations

import heapq
from operator import itemgetter

from superalg import _kernel
from superalg._kernel import elim_term_key
from superalg.scalars import inv
from superalg.superpoly import (
    ParityError,
    StructureError,
    SuperPoly,
    VarSet,
    term_key,
)

# The most odd generators ``annihilator`` and ``sdim.gr_presentation`` take:
# their output is the module view over 2^n components, and so is their
# work.  On k[x | y1..yn]/(x*y1y2y3), ``ann --element y1`` takes about
# 2.3 s at n = 16 and 5.2 s and 175 MB at n = 17, and ``gr`` 0.3 s at
# n = 16 and 3.4 s and 185 MB at n = 19 (one process per call, 2 vCPUs).
MODULE_MAX_ODD = 16


def check_odd_bound(vs, bound):
    """StructureError, naming the bound, for more than ``bound`` odd
    generators."""
    if vs.n > bound:
        raise StructureError("at most %d odd generators, not %d" % (bound, vs.n))


class GBasis:
    """A list of monic vectors {code: coeff} over characteristic p (0 for
    Q) under one code layout, with normal-form reduction against them.
    ``vectors`` and ``leads`` read the basis back as {(exps, comp): coeff}
    vectors and (exps, comp) terms."""

    def __init__(self, layout, p):
        self.layout = layout
        self.key = layout.key
        self.p = p
        self.codes = []
        self.lead_codes = []
        self.tails = []  # each vector without its lead term
        # per vector, under an order that does not compare degrees first
        # (empty otherwise): 0 until ``_check_bound`` first needs it, then
        # the least term of the lead's component that the vector may not
        # reduce without forming a term over the exponent bound
        self.caps = []
        self.by_comp = {}  # component bits -> [(index, lead | guards)], by index

    def append(self, v, lead):
        """Add the monic vector v with lead code ``lead``."""
        layout = self.layout
        entry = (len(self.codes), lead | layout.guards)
        self.by_comp.setdefault(lead & layout.comp, []).append(entry)
        self.codes.append(v)
        self.lead_codes.append(lead)
        tail = dict(v)
        del tail[lead]
        self.tails.append(tail)
        if not layout.graded:
            # below the top field every order compares degrees first, so a
            # tail within the lead's top slice never outgrows the lead
            top = layout.top_shift
            inside = not tail or min(tail) >> top == lead >> top
            self.caps.append(layout.beyond if inside else 0)

    def copy(self):
        """The same basis, to extend without changing this one."""
        gb = GBasis(self.layout, self.p)
        gb.codes = list(self.codes)
        gb.lead_codes = list(self.lead_codes)
        gb.tails = list(self.tails)
        gb.caps = list(self.caps)
        gb.by_comp = {comp: list(entries) for comp, entries in self.by_comp.items()}
        return gb

    @property
    def vectors(self):
        decode = self.layout.decode
        return [dict(zip(map(decode, v), v.values())) for v in self.codes]

    @property
    def leads(self):
        return list(map(self.layout.decode, self.lead_codes))

    def _check_bound(self, i, t):
        """TermOverflowError when vector i, shifted so that its lead meets
        the term t of the lead's component, could hold a term over the
        exponent bound.  Under an order that does not compare degrees
        first a tail term may have a larger degree than the lead, by up to
        ``grow``; so the cap is the least term of the component of degree
        above MAX_DEGREE - grow, and a term below it is always safe."""
        layout = self.layout
        if not self.caps[i]:
            grow = max(map(layout.degree, self.tails[i]), default=0)
            grow -= layout.degree(self.lead_codes[i])
            self.caps[i] = layout.degree_cap(t, _kernel.MAX_DEGREE - max(grow, 0))
        if t >= self.caps[i]:
            raise _kernel.TermOverflowError(
                "a reduction would form a term over the term-order bound %d" % _kernel.MAX_DEGREE
            )

    def normal_form(self, terms):
        """``nf`` of a {(exps, comp): coeff} vector, in that form."""
        r = self.nf(dict(zip(map(self.key, terms), terms.values())))
        return dict(zip(map(self.layout.decode, r), r.values()))

    def nf(self, v, skip=None):
        """Full normal form of the code vector v: every term of the result
        is a standard monomial (irreducible against the basis).  ``skip``
        is the index of a basis vector not to reduce by."""
        if not self.codes:
            return dict(v)
        p = self.p
        by_comp = self.by_comp
        comp = self.layout.comp
        guards = self.layout.guards
        leads = self.lead_codes
        tails = self.tails
        caps = self.caps
        work = dict(v)
        result = {}
        while work:
            t = max(work)
            c = work.pop(t)
            for i, lh in by_comp.get(t & comp, ()):
                if (lh - t) & guards == guards and i != skip:
                    break
            else:
                result[t] = c
                continue
            if caps and t >= caps[i]:
                self._check_bound(i, t)
            # work -= c * (t / lead) * (reducer i), inline: the reducer is
            # monic, so its lead cancels t exactly and only its tail is
            # subtracted, each term shifted by one addition
            c = -c
            shift = t - leads[i]
            for u, d in tails[i].items():
                s = u + shift
                nc = work.get(s)
                nc = c * d if nc is None else nc + c * d
                if p:
                    nc %= p
                if nc:
                    work[s] = nc
                elif s in work:
                    del work[s]
        return result


def buchberger(vectors, key, p, basis=None):
    """Unique reduced Gröbner basis of the k[x]-submodule spanned by
    ``vectors`` with respect to the module order ``key``, over
    characteristic p (0 for Q).  ``basis``, a GBasis under the same order
    and over p that is already a Gröbner basis, joins them as it is: its
    vectors enter with their leads, and no pair among them is formed.  Its
    layout, empty or not, is the result's; without it the layout is read
    off the first vector, and no vector gives the layout of m = 0."""
    vectors = [v for v in vectors if v]
    if basis is not None:
        gb = basis.copy()
    elif not vectors:
        return GBasis(_kernel.code_layout(key, 0), p)
    else:
        # the layout is read off the length of the first exponent tuple
        gb = GBasis(_kernel.code_layout(key, len(next(iter(vectors[0]))[0])), p)
    complete(gb, [dict(zip(map(key, v), v.values())) for v in vectors])
    return _autoreduce(gb.layout, p, zip(gb.lead_codes, gb.codes))


def complete(gb, vectors):
    """Extend ``gb``, which must already be a Gröbner basis of monic code
    vectors with distinct leads, to a Gröbner basis, not yet reduced, of
    the k[x]-submodule that it and the code ``vectors`` span; no pair
    among gb's own elements is formed.  Returns gb.

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
    layout = gb.layout
    p = gb.p
    comp_bits = layout.comp
    guards = layout.guards
    lcm = _kernel.exp_lcm
    coprime = _kernel.exp_coprime
    decode = layout.decode
    leads = gb.lead_codes
    heap = []  # (code of the lcm, i, j), i < j
    pending = set()
    one_comp = {}  # index -> every term lies in the lead's component

    def in_one_comp(i):
        flag = one_comp.get(i)
        if flag is None:
            comp = leads[i] & comp_bits
            flag = one_comp[i] = all(c & comp_bits == comp for c in gb.codes[i])
        return flag

    def insert(v):
        r = gb.nf(v)
        if not r:
            return
        j = len(leads)
        lead = max(r)
        lc = r[lead]
        if lc != 1:
            c_inv = inv(lc, p)
            r = {t: c * c_inv % p if p else c * c_inv for t, c in r.items()}
        gb.append(r, lead)
        comp = lead & comp_bits
        ej = decode(lead)[0]
        for i, _ in gb.by_comp[comp]:
            if i == j:
                break
            ei = decode(leads[i])[0]
            # the cheap coprimality test first: it rarely holds
            if coprime(ei, ej) and in_one_comp(i) and in_one_comp(j):
                continue
            heapq.heappush(heap, (comp | _kernel.exp_code(lcm(ei, ej)), i, j))
            pending.add((i, j))

    def chain_redundant(i, j, m):
        for k, lh in gb.by_comp[m & comp_bits]:
            if (
                k != i
                and k != j
                and (lh - m) & guards == guards
                and (min(i, k), max(i, k)) not in pending
                and (min(j, k), max(j, k)) not in pending
            ):
                return True
        return False

    for v in sorted(filter(None, vectors), key=max):
        insert(v)
    while heap:
        m, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        if chain_redundant(i, j, m):
            continue
        if gb.caps:
            for k in (i, j):
                if m >= gb.caps[k]:
                    gb._check_bound(k, m)
        # basis vectors are monic: the stored lead coefficient is the one;
        # the leads cancel, so S = (m/lead_i)*tail_i - (m/lead_j)*tail_j
        one = gb.codes[i][leads[i]]
        minus = -one
        shift = m - leads[i]
        s = {u + shift: one * c for u, c in gb.tails[i].items()}
        shift = m - leads[j]
        for u, c in gb.tails[j].items():
            u += shift
            nc = s.get(u)
            nc = minus * c if nc is None else nc + minus * c
            if p:
                nc %= p
            if nc:
                s[u] = nc
            elif u in s:
                del s[u]
        insert(s)
    return gb


def _autoreduce(layout, p, leads_and_vectors):
    """The unique reduced basis over characteristic p from the (lead code,
    monic code vector) pairs of a completed basis."""
    comp = layout.comp
    guards = layout.guards
    # every element entered as a normal form, so the leads are distinct;
    # minimalize: drop any element whose lead a smaller kept lead divides
    work = GBasis(layout, p)
    for lead, v in sorted(leads_and_vectors, key=itemgetter(0)):
        for _, lh in work.by_comp.get(lead & comp, ()):
            if (lh - lead) & guards == guards:
                break
        else:
            work.append(v, lead)
    # tail-reduce each element against the others, largest lead first;
    # with pairwise indivisible leads this terminates in the unique reduced
    # basis, and no other lead divides a lead, so each keeps its lead and
    # stays monic
    final = GBasis(layout, p)
    for i in range(len(work.codes) - 1, -1, -1):
        final.append(work.nf(work.codes[i], skip=i), work.lead_codes[i])
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
    char = vs.field.char
    one = vs.field.one
    zero_exps = (0,) * vs.m
    closed = dict.fromkeys(out)  # a hash set that keeps first-occurrence order
    for g in out:
        for mask in range(1, 1 << vs.n):
            prod = _kernel.mul_terms({(zero_exps, mask): one}, g.terms, char)
            if prod:
                closed.setdefault(SuperPoly(vs, prod))
    return list(closed)


class SuperAlgebra:
    """Finite presentation k[x's | y's] / J with cached Gröbner data.

    Relations are split into parity-homogeneous components at
    construction, so the relation superideal is parity-graded; a relation
    that is already homogeneous is kept as it is.  Zero parts and repeats
    are dropped, and the first occurrences keep their order.  ``key``
    identifies the presentation by content (generators, field and
    relations); caches of answers that depend on the algebra key on it.
    ``gbasis``, built on first use, is the one stored reduced Gröbner
    basis of J under term_key.
    """

    def __init__(self, vs, relations=()):
        self.vs = vs
        rels = {}  # a hash set that keeps first-occurrence order
        for r in relations:
            if r.vs != vs:
                raise StructureError("relation over a different generator set")
            for part in (r,) if r.parity() is not None else (r.parity_part(0), r.parity_part(1)):
                if part:
                    rels.setdefault(part)
        self.relations = list(rels)
        self.key = (vs, tuple(rels))
        self._gbasis = None

    @classmethod
    def _from_reduced_basis(cls, vs, relations, gbasis):
        """A presentation whose relation superideal's reduced Gröbner basis
        under term_key is already known: ``gbasis`` is kept as given, with
        no closure and no Buchberger run.  The caller vouches that it is
        the reduced basis of the superideal that the parity parts of the
        relations generate."""
        self = cls(vs, relations)
        self._gbasis = gbasis
        return self

    @property
    def gbasis(self):
        """Reduced Gröbner basis of the superideal closure of the relations,
        under the layout of the algebra's m even generators even when it
        is empty."""
        if self._gbasis is None:
            closed = [g.terms for g in superideal_closure(self.relations)]
            char = self.vs.field.char
            if closed:
                self._gbasis = buchberger(closed, term_key, char)
            else:
                self._gbasis = GBasis(_kernel.code_layout(term_key, self.vs.m), char)
        return self._gbasis

    @property
    def module_gb(self):
        """The reduced basis as SuperPolys, a view for rendering."""
        return [SuperPoly(self.vs, v) for v in self.gbasis.vectors]

    def nf(self, f):
        gb = self.gbasis
        return SuperPoly(self.vs, gb.normal_form(f.terms)) if gb.codes else f

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
        closed = [g.terms for g in superideal_closure(gens)]
        self.gbasis = buchberger(closed, term_key, ambient.vs.field.char, ambient.gbasis)

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
        return SuperPoly(self.ambient.vs, self.gbasis.normal_form(f.terms))

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
    return I.gbasis.codes == J.gbasis.codes


# ---------------------------------------------------------------------------
# annihilators via tag-block elimination


def annihilator(p, algebra):
    """Ann_A(p) = {f : f*p = 0 in A} as a SuperIdeal, for at most
    MODULE_MAX_ODD odd generators.

    The kernel pairs of both parities from the elimination, with the pure
    tags, the e_S of every S with y_S*p = 0, which the elimination leaves
    out (``_kernel_pairs``), are autoreduced on their own, under term_key:
    a main-block lead divides no tag-block term, so the main-block elements
    take no part in their reduction, and elim_term_key restricted to the
    tag block is term_key, so the result is the tag-block part of the
    reduced elimination basis.  That is already
    the reduced basis of the kernel K: K contains J and is closed under odd
    multiplication, so closing it and adding the relation basis changes
    nothing; and the reduced basis of a parity-graded module is
    parity-homogeneous.
    """
    vs = algebra.vs
    check_odd_bound(vs, MODULE_MAX_ODD)
    if p.parity() is None:
        raise ParityError("annihilator argument must be parity-homogeneous")
    p = algebra.nf(p)
    if p.is_zero():
        return SuperIdeal(algebra, [vs.one()])
    (even, found), (odd, more) = _kernel_pairs(p, algebra, 0), _kernel_pairs(p, algebra, 1)
    pure = [term_key(((0,) * vs.m, s)) for s in range(1 << vs.n) if s not in found and s not in more]
    pairs = even + odd + [(e_s, {e_s: vs.field.one}) for e_s in pure]
    layout = _kernel.code_layout(term_key, vs.m)
    return SuperIdeal._from_reduced_basis(algebra, _autoreduce(layout, vs.field.char, pairs))


def _kernel_pairs(p, algebra, parity, *, one_tag=False):
    """The kernel elements of one parity of multiplication by p on the free
    module, for a nonzero parity-homogeneous p in normal form: the (lead,
    vector) pairs, in term_key codes, of a Gröbner basis of them that is
    not yet reduced and leaves out the pure tags, and the set of the masks
    S found with y_S * p nonzero in A, which holds the empty mask and every
    S of the parity that has a graph vector.  The pure tags are the e_S,
    |S| of the parity, with y_S * p = 0: those of the masks not in that
    set.

    The graph vectors (y_S * p, e_S-tag) with |S| of the given parity and
    y_S * p nonzero, together with the relation basis elements of parity
    ``parity`` + |p|, are completed under an order eliminating the main
    block; the basis elements with a tag-block lead lie wholly in the tag
    block, because it sorts below every main-block term, and with the pure
    tags they are a Gröbner basis of the kernel's part of that parity.
    Every vector of the completion lies in components of that parity: tag
    masks of the parity and main-block masks of the parity plus |p|.  The
    other parity's vectors lie in the other components, so they neither
    pair with these nor reduce them, and the pairs of both parities
    together, with the pure tags, are a Gröbner basis of the whole kernel.

    With ``one_tag``, for parity 0, only the graph vector of S = 0 keeps
    its tag, (p, e_0); y_S * p for every other S enters the main block
    untagged.  The tag block is then the one component e_0, and its basis
    elements are a Gröbner basis of the ideal {a in k[x] : a*p in J +
    sum over S != 0 of k[x]*y_S*p} times e_0, the colon that
    ``sdim._even_dim_modulo_annihilator`` reads its verdict off.

    Only submasks of F have a graph vector, F the odd indices outside the
    mask that every term of p shares: an S that meets that mask at i kills
    every term of p, as y_i^2 = 0, so y_S * p = 0.

    The pure tags never enter the completion.  A pure tag e_S is alone in
    its component (1, S): a graph vector has its one tag-block term in the
    component of its own mask, a relation basis vector lies in the main
    block, and a normal form or an S-vector has terms only in components
    where the vectors it is made of have them.  So no vector has a term
    that e_S divides, and no pair holds e_S, as a pair needs two leads in
    one component: the completion with the pure tags is the completion
    without them, plus the pure tags as they are.

    The elimination codes extend term_key's by the main-block bit, so a
    relation basis vector moves into the main block by adding that bit to
    each code, and a tag-block code is the term_key code of its term, the
    tag e_S that of (0, S).
    """
    vs = algebra.vs
    zero_exps = (0,) * vs.m
    char = vs.field.char
    one = vs.field.one
    main_parity = parity ^ p.parity()
    layout = _kernel.code_layout(elim_term_key, vs.m)
    block = layout.block
    # The relation basis is a reduced Gröbner basis of homogeneous elements,
    # so it enters the elimination as it is, with its leads.
    gb = GBasis(layout, char)
    rel = algebra.gbasis
    for lead, v in zip(rel.lead_codes, rel.codes):
        if lead >> _kernel.ODD_SHIFT & 1 == main_parity:  # the parity of |mask|
            gb.append({c + block: x for c, x in v.items()}, lead + block)
    shared = -1
    for _, mask in p.terms:
        shared &= mask
    free = (1 << vs.n) - 1 & ~shared
    cols = {0: p.terms}  # cols[S] = y_S * p in normal form
    graph = []
    mask = 0
    while True:  # the submasks of free, in increasing order
        if mask.bit_count() & 1 == parity:
            if mask:
                # y_S = y_T * y_R with no sign for T the one or two lowest
                # indices of S: R, a smaller submask of free, is empty or of
                # the parity of S
                rest = mask & (mask - 1)
                rest &= rest - 1
                prod = _kernel.mul_terms({(zero_exps, mask ^ rest): one}, cols[rest], char)
                cols[mask] = rel.normal_form(prod)
            if cols[mask]:
                v = {term_key(t) + block: x for t, x in cols[mask].items()}
                if not (one_tag and mask):
                    v[term_key((zero_exps, mask))] = one
                graph.append(v)
        mask = (mask - free) & free
        if not mask:
            break
    complete(gb, graph)
    pairs = [(lead, v) for lead, v in zip(gb.lead_codes, gb.codes) if not lead & block]
    return pairs, {mask for mask, col in cols.items() if col}


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
    I = (phi(y_j)): ``Morphism`` makes each phi(y_j) odd, so I is
    parity-graded.  For |T| odd, y_T = +-y_(T-i)*y_i with y_(T-i) in A_0,
    so A_1 lies in M iff every odd generator y_i of the target does: iff
    N lies in I, N the ideal of the odd generators.

    That is decided in N/N^2.  N^(n+1) = 0, as a product of n + 1 odd
    generators repeats one.  If N lies in I + N^2, then N^k lies in
    I + N^(k+1) for every k (multiply by N^(k-1)), so N lies in I + N^3,
    and so on up to I + N^(n+1) = I.  In the free algebra F = k[x | y],
    with N' its ideal of the odd generators and I' the superideal of the
    images, N lies in I + N^2 iff every y_i lies in J + I' + N'^2.  Modulo
    N'^2, F is the free k[x]-module on 1 and the y_k, and J + I' is the
    k[x]-span of the y_T*g, g a relation (a parity part) or an image.
    y_T*g lies in N'^2 when g is odd and T is not empty, or when g is even
    and |T| >= 2.  So (J + I' + N'^2)/N'^2 is spanned by the terms of odd
    degree 0 of the even relations, in the component of 1, and by the
    terms of odd degree 1 of the odd relations, of the images and of the
    y_k*r, r an even relation, in the components of the y_k.  The two
    sets lie in different components, so the y_i lie in the span iff they
    lie in the second set's: one Buchberger run over the n components of
    one odd generator decides it, where a superideal would be closed over
    all 2^n.
    """
    bad = phi.check_well_defined()
    if bad is not None:
        raise StructureError("map is not well defined: relation %s is not sent to zero" % bad)
    vs = phi.dst.vs
    gens = [vs.gen(y) for y in vs.odd]
    spanning = [phi.images[y] for y in phi.src.vs.odd]
    for r in phi.dst.relations:
        spanning += [r] if r.parity() else [y * r for y in gens]
    linear = [{t: c for t, c in g.terms.items() if t[1].bit_count() == 1} for g in spanning]
    gb = buchberger(linear, term_key, vs.field.char)
    return not any(gb.normal_form(y.terms) for y in gens)
