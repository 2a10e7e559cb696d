import heapq
import itertools
import os
import random
import subprocess
import sys
import threading
from operator import add, le, sub

import pytest

from superalg import _kernel, groebner
from superalg.groebner import SuperAlgebra, SuperIdeal, superideal_closure
from superalg.scalars import QQ, inv
from superalg.sdim import ZERO_RING_DIM
from superalg.superpoly import StructureError, SuperPoly, VarSet, mask_indices, term_key


# The child's own program: it lowers its address-space limit, then runs
# the command line as ``superalg`` would.
_CLI_CHILD = """\
import resource, sys
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.argv = ["superalg"] + sys.argv[2:]
from superalg.cli import main
main()
"""
_CLI_CHILD_LOCK = threading.Lock()  # one child at a time


def run_cli_child(argv, timeout, memory_mb):
    """Run one ``superalg`` call in a child process that sets RLIMIT_AS to
    ``memory_mb`` megabytes on itself before it imports the package, and
    return its CompletedProcess (exit code, stdout, stderr as text).  The
    child is killed, and subprocess.TimeoutExpired raised, after
    ``timeout`` seconds.  Calls wait for each other, so no more than one
    child runs at a time.  A call that runs out of memory exits 3 with an
    "internal error: MemoryError" line on stderr."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    command = [sys.executable, "-c", _CLI_CHILD, str(memory_mb << 20)] + list(argv)
    with _CLI_CHILD_LOCK:
        return subprocess.run(command, env=env, capture_output=True, text=True, timeout=timeout)


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
    with one row reduction for the odd candidates and one membership in
    bar(A) per even candidate; this is its reference."""
    gens = [algebra.nf(g) for g in gens]
    gens = [g for g in gens if g]
    kept = list(gens)
    for g in list(gens):
        rest = [h for h in kept if h is not g]
        if rest and SuperIdeal(algebra, rest).contains(g):
            kept = rest
    return kept


def superideal_check_mono_necessary(phi):
    """The superideal form of ``groebner.check_mono_necessary``: every odd
    generator of the target must lie in the superideal of the images of the
    source's odd generators, closed over the target's 2^n components.  The
    library decides the same in N/N^2, N the ideal of the odd generators;
    this is its reference."""
    bad = phi.check_well_defined()
    if bad is not None:
        raise StructureError("map is not well defined: relation %s is not sent to zero" % bad)
    vs = phi.dst.vs
    ideal = SuperIdeal(phi.dst, [phi.images[y] for y in phi.src.vs.odd])
    return all(ideal.contains(vs.gen(y)) for y in vs.odd)


def brute_lead_dim(lead_exps, m):
    """Krull dimension of k[x]/I, from the lead exponent tuples of a
    Gröbner basis of I with m even generators, by the scan over every
    variable subset, largest first: the size of the first that holds the
    support of no lead.  ``sdim._lead_dim`` finds the same through the
    fewest variables that meet every support; this is its reference."""
    supports = [frozenset(i for i, e in enumerate(exps) if e) for exps in lead_exps]
    if frozenset() in supports:  # the lead 1: the unit ideal
        return ZERO_RING_DIM
    # the empty set holds no support, so size 0 always returns
    for size in range(m, -1, -1):
        for combo in itertools.combinations(range(m), size):
            if all(s.difference(combo) for s in supports):
                return size


def annihilator_elimination(p, algebra, parity):
    """The kernel elements of one parity of multiplication by p, for a
    nonzero parity-homogeneous p in normal form, as the (lead, vector)
    pairs of a Gröbner basis of them that is not yet reduced, in the
    superideal's coordinates: the tag e_S is the term (0, S).  These are
    ``groebner._kernel_pairs``'s pairs, decoded, and the pure tags e_S,
    |S| of the parity, of the masks with no graph vector."""
    vs = algebra.vs
    decode = _kernel.code_layout(_kernel.term_key, vs.m).decode
    pairs, graphed = groebner._kernel_pairs(p, algebra, parity)
    zero = (0,) * vs.m
    tags = [
        (zero, mask)
        for mask in range(1 << vs.n)
        if mask.bit_count() & 1 == parity and mask not in graphed
    ]
    decoded = [(decode(lead), {decode(t): c for t, c in v.items()}) for lead, v in pairs]
    return decoded + [(e_s, {e_s: vs.field.one}) for e_s in tags]


def even_annihilator_image_in_bar(ideal, bar_algebra):
    """Generators (in the purely even quotient) of the image of the even
    part of a parity-graded superideal, read off its reduced basis.  The
    parameter test reads the same image off the unreduced kernel basis in
    codes (``sdim._even_dim_modulo_annihilator``); this form, from a
    SuperIdeal such as ``annihilator(p, algebra)``, is its reference."""
    bvs = bar_algebra.vs
    gb = ideal.gbasis
    images = (
        SuperPoly(bvs, {t: c for t, c in v.items() if not t[1]})
        for (_, mask), v in zip(gb.leads, gb.vectors)
        if not mask.bit_count() & 1
    )
    # dict.fromkeys drops repeats and keeps first-occurrence order
    return [g for g in dict.fromkeys(images) if g]


# ---------------------------------------------------------------------------
# The term orders as tuple keys and the Gröbner engine on tuple terms: the
# references that the packed integer codes of ``_kernel`` and the engine
# of ``groebner`` are checked against.


def ref_term_key(term):
    """Degree-reverse-lexicographic on the even exponents, refined by odd
    subset size, then by index tuple.  Bigger key = closer to the front."""
    exps, mask = term
    return (
        sum(exps),
        tuple(-e for e in reversed(exps)),
        mask.bit_count(),
        tuple(mask_indices(mask)),
    )


def ref_weight_term_key(term):
    """Odd-weight-first order: fewer odd factors = greater."""
    exps, mask = term
    return (
        -mask.bit_count(),
        sum(exps),
        tuple(-e for e in reversed(exps)),
        tuple(mask_indices(mask)),
    )


def ref_elim_term_key(term):
    """Every term in the main block 0 dominates every term in the tag block
    1; term_key orders each block."""
    exps, (block, mask) = term
    return (1 if block == 0 else 0,) + ref_term_key((exps, mask))


# The code key of each reference order.
CODE_KEY = {
    ref_term_key: _kernel.term_key,
    ref_weight_term_key: _kernel.weight_term_key,
    ref_elim_term_key: _kernel.elim_term_key,
}


def ref_vec_add_scaled(dst, src, coeff, shift, p):
    """dst += coeff * x^shift * src, in place, in characteristic p."""
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


def ref_vec_monic(v, key, p):
    lc = v[max(v, key=key)]
    if lc == 1:
        return dict(v)
    c_inv = inv(lc, p)
    return {t: c * c_inv % p if p else c * c_inv for t, c in v.items()}


class RefGBasis:
    """Monic {(exps, comp): coeff} vectors with normal-form reduction."""

    def __init__(self, key, p):
        self.key = key
        self.p = p
        self.vectors = []
        self.leads = []
        self.by_comp = {}

    def append(self, v, lead=None):
        if lead is None:
            lead = max(v, key=self.key)
        self.by_comp.setdefault(lead[1], []).append((len(self.vectors), lead[0]))
        self.vectors.append(v)
        self.leads.append(lead)

    def nf(self, v, skip=None):
        work = dict(v)
        result = {}
        while work:
            t = max(work, key=self.key)
            exps, comp = t
            for i, lead_exps in self.by_comp.get(comp, ()):
                if i != skip and all(map(le, lead_exps, exps)):
                    break
            else:
                result[t] = work.pop(t)
                continue
            ref_vec_add_scaled(work, self.vectors[i], -work[t], tuple(map(sub, exps, lead_exps)), self.p)
        return result


def ref_complete(vectors, key, p, gb=None):
    """Buchberger with the product and chain criteria, on tuple terms."""
    gb = gb or RefGBasis(key, p)
    heap = []
    pending = set()

    def in_one_comp(i):
        comp = gb.leads[i][1]
        return all(c == comp for _, c in gb.vectors[i])

    def insert(v):
        r = gb.nf(v)
        if not r:
            return
        j = len(gb.vectors)
        gb.append(ref_vec_monic(r, key, p))
        ej, comp = gb.leads[j]
        for i, ei in gb.by_comp[comp]:
            if i == j:
                break
            if not any(map(min, ei, ej)) and in_one_comp(i) and in_one_comp(j):
                continue
            m = tuple(map(max, ei, ej))
            heapq.heappush(heap, (key((m, comp)), i, j, comp, m))
            pending.add((i, j))

    def chain_redundant(i, j, comp, m):
        return any(
            k != i
            and k != j
            and all(map(le, ek, m))
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k, ek in gb.by_comp[comp]
        )

    for v in sorted((v for v in vectors if v), key=lambda v: key(max(v, key=key))):
        insert(v)
    while heap:
        _, i, j, comp, m = heapq.heappop(heap)
        pending.discard((i, j))
        if chain_redundant(i, j, comp, m):
            continue
        s = {}
        ref_vec_add_scaled(s, gb.vectors[i], 1, tuple(map(sub, m, gb.leads[i][0])), p)
        ref_vec_add_scaled(s, gb.vectors[j], -1, tuple(map(sub, m, gb.leads[j][0])), p)
        insert(s)
    return gb


def ref_autoreduce(key, p, leads_and_vectors):
    work = RefGBasis(key, p)
    for lead, v in sorted(leads_and_vectors, key=lambda lv: key(lv[0])):
        exps, comp = lead
        if not any(all(map(le, e, exps)) for _, e in work.by_comp.get(comp, ())):
            work.append(v, lead)
    out = [(work.leads[i], work.nf(v, skip=i)) for i, v in enumerate(work.vectors)]
    out.sort(key=lambda lv: key(lv[0]), reverse=True)
    final = RefGBasis(key, p)
    for lead, v in out:
        final.append(v, lead)
    return final


def ref_buchberger(vectors, key, p):
    """The reduced Gröbner basis on tuple terms under a reference key."""
    gb = ref_complete(vectors, key, p)
    return ref_autoreduce(key, p, zip(gb.leads, gb.vectors))


def ref_annihilator_basis(p, algebra):
    """The reduced basis vectors of Ann(p), p a nonzero parity-homogeneous
    normal form, by tag-block elimination on tuple terms."""
    vs = algebra.vs
    char = vs.field.char
    zero = (0,) * vs.m
    rel = ref_buchberger([g.terms for g in superideal_closure(algebra.relations)], ref_term_key, char)
    pairs = []
    for parity in (0, 1):
        gb = RefGBasis(ref_elim_term_key, char)
        for (exps, mask), v in zip(rel.leads, rel.vectors):
            if mask.bit_count() & 1 == parity ^ p.parity():
                gb.append({(e, (0, c)): x for (e, c), x in v.items()}, (exps, (0, mask)))
        graph = []
        for mask in range(1 << vs.n):
            if mask.bit_count() & 1 != parity:
                continue
            col = rel.nf((vs.monomial(zero, mask) * p).terms)
            if col:
                v = {(e, (0, c)): x for (e, c), x in col.items()}
                v[(zero, (1, mask))] = vs.field.one
                graph.append(v)
            else:
                gb.append({(zero, (1, mask)): vs.field.one})
        gb = ref_complete(graph, ref_elim_term_key, char, gb)
        pairs += [
            ((exps, mask), {(e, c): x for (e, (_, c)), x in v.items()})
            for (exps, (block, mask)), v in zip(gb.leads, gb.vectors)
            if block == 1
        ]
    return ref_autoreduce(ref_term_key, char, pairs).vectors


@pytest.fixture
def rng():
    return random.Random(20240817)
