"""Orbits of odd one-parameter unipotent actions on affine superschemes.

An action of the odd additive group (coordinate ring k[z] with z odd,
z^2 = 0) on SSpec(A) is the same thing as an odd superderivation phi of A
with phi^2 = 0: the coaction is f |-> 1 (x) f + z (x) phi(f).  The orbit
of a rational point x is cut out by the kernel of the composite
A -> k[z], f |-> f(x) + z * ev_x(phi(f)): the maximal ideal of the even
part plus a hyperplane of the odd cotangent space, which y_1, ..., y_n
span, so it is read off the slopes ev_x(phi(y_i)) of the n odd
generators.  The stabilizer is either the whole group (all slopes
vanish) or trivial.
"""

from __future__ import annotations

from superalg.groebner import SuperAlgebra, SuperIdeal
from superalg.sdim import Record, SuperDim, bar, check_ksdim_bound, ksdim, odd_cotangent_relations
from superalg.scalars import inv
from superalg.superpoly import StructureError


class ActionError(StructureError):
    pass


class OddAction:
    """An odd superderivation of a presented superalgebra, given by its
    values on the generators."""

    def __init__(self, algebra, images):
        self.algebra = algebra
        vs = algebra.vs
        self.images = {}
        for gen_name, img in images.items():
            if gen_name not in vs.even and gen_name not in vs.odd:
                raise StructureError("unknown generator %r" % gen_name)
            img = algebra.nf(img)
            self.images[gen_name] = img
        for gen_name in vs.even + vs.odd:
            self.images.setdefault(gen_name, vs.zero())

    def apply(self, f):
        """phi(f), reduced to normal form."""
        return self.algebra.nf(f.apply_derivation(self.images, parity=1))


def validate_action(action):
    """Parity of the generator images, stability of the defining ideal,
    and phi^2 = 0 modulo the ideal; returns {check: (ok, witness)} when
    every check passes and raises ActionError for the first that fails."""
    A = action.algebra
    vs = A.vs
    report = {}

    ok, wit = True, None
    for name, img in action.images.items():
        want = 1 - vs.parity_of(name)
        if img and img.parity() != want:
            ok, wit = False, "image of %s has wrong parity: %s" % (name, img)
    report["parity"] = (ok, wit)
    if not ok:
        # the remaining checks would crash on ill-parity images
        raise ActionError("parity check failed: %s" % wit)

    ok, wit = True, None
    for r in A.relations:
        d = action.apply(r)
        if d:
            ok, wit = False, "phi(%s) = %s is not in the ideal" % (r, d)
    report["ideal_stable"] = (ok, wit)

    wit = _square_zero_failure(action)
    report["square_zero"] = (wit is None, wit)

    for check, (good, witness) in report.items():
        if not good:
            raise ActionError("%s check failed: %s" % (check, witness))
    return report


def check_coaction_multiplicative(action):
    """The coaction respects the group law of the odd additive group:
    acting by z1 and then z2 agrees with acting by z1 + z2.  The two sides
    over A (x) /\\(z1, z2) are f + (z1 + z2) phi(f) + z1 z2 phi^2(f) and
    f + (z1 + z2) phi(f); z1 z2 is free over A, so they agree iff phi^2
    vanishes on every generator."""
    return _square_zero_failure(action) is None


def _square_zero_failure(action):
    """Why phi^2 is not zero, named at the last generator (even ones
    first, then odd) where it does not vanish; None when it vanishes on
    every generator (whose images are already normal forms)."""
    vs = action.algebra.vs
    for name in reversed(vs.even + vs.odd):
        d = action.apply(action.images[name])
        if d:
            return "phi^2(%s) = %s is nonzero" % (name, d)
    return None


class OrbitResult(Record):
    __slots__ = (
        "point",
        "slopes",
        "ideal",
        "stabilizer",
        "orbit_sdim",
        "group_sdim",
        "stabilizer_sdim",
    )

    def __init__(
        self,
        point,
        slopes,
        ideal,
        stabilizer,
        orbit_sdim=None,
        group_sdim=SuperDim(0, 1),
        stabilizer_sdim=None,
    ):
        self.point = point  # dict
        self.slopes = slopes  # ev_x(phi(y_i)), one per odd generator
        self.ideal = ideal  # SuperIdeal cutting out the orbit
        self.stabilizer = stabilizer  # "full" or "trivial"
        self.orbit_sdim = orbit_sdim
        self.group_sdim = group_sdim
        self.stabilizer_sdim = stabilizer_sdim


def orbit_ideal(action, pt):
    """The ideal of the orbit through a rational point x, with the
    stabilizer dichotomy and the dimension bookkeeping.

    The slopes are lam_i = ev_x(phi(y_i)).  If all vanish, the stabilizer
    is the whole group and the orbit is the point, cut out by the maximal
    superideal M + (y_1, ..., y_n), M = (x_i - a_i).  Otherwise, with j
    the first nonzero slope and c_i = lam_i / lam_j, the orbit ideal is
    M plus the hyperplane of the odd cotangent space that the o_i =
    y_i - c_i y_j (i != j) span.  Any other nonzero slope as pivot gives
    the same ideal.

    Its generators are those a greedy pass keeps from the m + n - 1
    candidates x_i - a_i, then o_i: in order, a candidate is dropped when
    it lies in R, the superideal of J and the other candidates still kept.
    Each step keeps the ideal, so R plus the tested candidate is always the
    orbit ideal.  The x_i - a_i with nonzero normal form come before any
    o_i, so each is tested against the other kept x_k - a_k and every o_i,
    as in the pass.  That test is one membership in bar(A) = A/N =
    k[x]/bar(J), N the ideal of the odd generators and bar(J) the image of
    J: x_i - a_i lies in R iff its image lies in the ideal of bar(A) that
    the images of the other kept x_k - a_k generate.  The preimage of that
    ideal in A is R + N, as every o_k lies in N, and the even x_i - a_i
    lies in R + N only if it lies in R:

    - N^2 lies in R: every o_a lies in R, and y_a y_b = o_a o_b +
      c_b o_a y_j + c_a y_j o_b (o_j := 0, c_j := 1, y_j^2 = 0).
    - Every even element of N lies in N^2: the even part of sum f_k y_k
      is sum (f_k)_1 y_k, and each odd (f_k)_1 lies in N.
    - R is graded, its generators being homogeneous, so if the even g is
      rho + nu with rho in R and nu in N, then g = rho_0 + nu_0, the even
      parts, with rho_0 in R and nu_0 in N^2, which lies in R.

    For n = 1 there is no o_i, but N^2 = 0 holds every even element of N,
    so the argument stands; and a lone x_i - a_i is tested against bar(J)
    alone, so no case is special.  The o_i are decided by linear algebra
    on their rows v_i = e_i - c_i e_j, the coefficients of the y_k in o_i:

    1. o_i lies in R iff it lies in R + (x - a).  R + A o_i is the orbit
       ideal, so each x_k - a_k is rho_k + g_k o_i with rho_k in R and g_k
       odd.  If o_i = mu + sum f_k (x_k - a_k) with mu in R and f_k odd,
       then o_i (1 - nu) lies in R for nu = sum f_k g_k, which is even and
       in N^2; so nu is nilpotent and 1 - nu a unit.
    2. Modulo x - a, A is /\\(y)/J(a), whose maximal ideal m is (y), and R
       becomes R', J(a) plus the other kept o_k.  R' + (o_i) contains every
       o_k, so m^2, which y_a y_b = o_a o_b + c_b o_a y_j + c_a y_j o_b
       (o_j := 0) puts in m (o_1, ..., o_n), lies in R' + m o_i.  The
       linear parts of the odd elements of J(a) are the span of the odd
       Jacobian rows (``odd_cotangent_relations``).  So if o_i lies in R',
       v_i lies in the span of the Jacobian rows and the other kept rows;
       conversely o_i is then lambda + q with lambda in R' and q odd in
       m^2, so q = rho + mu o_i with rho in R' and mu even in m, and
       o_i (1 - mu) lies in R' with 1 - mu a unit (Nakayama).
    3. So the pass drops o_i iff v_i lies in the span of the Jacobian rows,
       the rows kept before it and every row after it; and that holds iff
       v_i lies in the span of the Jacobian rows and the v_k for k > i: a
       combination that used a kept v_k, k < i, would put the first such
       v_k in the span of the Jacobian rows and the rows after it, and it
       would have been dropped.  Inserting the rows into the echelon form
       of the Jacobian rows from the last o_i to the first therefore
       returns True exactly for the o_i the pass keeps.
    4. An o_i whose normal form is zero lies in J, so its row lies in the
       span of the Jacobian rows and its insert returns False: the pass
       never saw it as a candidate.

    The work is one superideal over A, the result, and at most m over
    bar(A), which has one component and no closure.
    """
    A = action.algebra
    vs = A.vs
    check_ksdim_bound(vs)
    pt.validate(A)
    slopes = [action.images[y].evaluate_at_point(pt.point) for y in vs.odd]
    pivot = next((j for j, lam in enumerate(slopes) if lam), None)
    if pivot is None:
        ideal = SuperIdeal(A, pt.even_gens(A) + [vs.gen(y) for y in vs.odd])
        stabilizer, orbit_sdim, stabilizer_sdim = "full", SuperDim(0, 0), SuperDim(0, 1)
    else:
        yj = vs.gen(vs.odd[pivot])
        lamj = slopes[pivot]
        odd_gens = [
            vs.gen(y) - yj.scale(lam * inv(lamj, vs.field.char))
            for i, (y, lam) in enumerate(zip(vs.odd, slopes))
            if i != pivot
        ]
        span = odd_cotangent_relations(A, pt)
        # y_k is mask bit k, so a linear form's terms give its row
        kept_odd = [
            o
            for o in reversed(odd_gens)
            if span.insert({mask.bit_length() - 1: c for (_, mask), c in o.terms.items()})
        ][::-1]
        # each x_i - a_i in normal form, beside its image in bar(A)
        bar_a = bar(A)
        kept = [(g, e) for g, e in zip(map(A.nf, pt.even_gens(A)), pt.even_gens(bar_a)) if g]
        for cand in list(kept):
            rest = [c for c in kept if c is not cand]
            if SuperIdeal(bar_a, [e for _, e in rest]).contains(cand[1]):
                kept = rest
        ideal = SuperIdeal(A, [g for g, _ in kept] + kept_odd)
        stabilizer, orbit_sdim, stabilizer_sdim = "trivial", SuperDim(0, 1), SuperDim(0, 0)
    _check_phi_stable(action, ideal)
    return OrbitResult(
        point=dict(pt.point),
        slopes=slopes,
        ideal=ideal,
        stabilizer=stabilizer,
        orbit_sdim=orbit_sdim,
        stabilizer_sdim=stabilizer_sdim,
    )


def _check_phi_stable(action, ideal):
    for g in ideal.generators:
        d = action.apply(g)
        if not ideal.contains(d):
            raise ActionError(
                "orbit ideal is not stable: phi(%s) = %s escapes" % (g, d)
            )


def orbit_quotient_sdim(result):
    """Krull super-dimension of the coordinate ring of the orbit closure,
    computed from the presentation (an independent check against the
    stabilizer arithmetic).

    The quotient's relations, J's and the orbit ideal's generators, are
    parity-homogeneous, so the superideal they generate is the orbit ideal
    itself, and its reduced basis is the orbit ideal's: the quotient takes
    it as it is, with no closure and no Buchberger run."""
    ideal = result.ideal
    amb = ideal.ambient
    quotient = SuperAlgebra._from_reduced_basis(amb.vs, amb.relations + ideal.generators, ideal.gbasis)
    return ksdim(quotient)[0]


def verify_orbit_theorems(action, pt):
    """Structure facts about the orbit: the ideal is phi-stable (so the
    orbit closure is a subscheme on which the group still acts), the
    stabilizer is full or trivial, and super-dimensions are additive:
    sdim(orbit) + sdim(stabilizer) = sdim(group) = (0|1).  The last check
    runs ksdim on the orbit closure, whose bound ``orbit_ideal`` checks
    first."""
    result = orbit_ideal(action, pt)
    report = {}
    report["stabilizer_dichotomy"] = result.stabilizer in ("full", "trivial")
    report["sdim_additive"] = result.orbit_sdim == result.group_sdim - result.stabilizer_sdim
    computed = orbit_quotient_sdim(result)
    report["sdim_matches_presentation"] = computed == result.orbit_sdim
    report["coaction_group_law"] = check_coaction_multiplicative(action)
    return result, report
