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
from superalg.sdim import Record, SuperDim, check_ksdim_bound, ksdim
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
    y_i - c_i y_j (i != j) span, and the m + n - 1 candidates x_i - a_i,
    then o_i, go through ``_minimalize_gens``.  Any other nonzero slope
    as pivot gives the same ideal.

    Why the pairs y_a y_b and the odd monomials y_T with |T| >= 3, which
    also lie in the orbit ideal, are not candidates, and why leaving them
    out changes nothing: let N be the ideal of the odd generators and O1
    the set of the o_i, with o_j := 0.  Then
        y_a y_b = o_a o_b + c_b o_a y_j + c_a y_j o_b,
    so every pair lies in N (O1) and every y_T with |T| >= 3 in N^2 (O1);
    the slope of y_T is 0, since every term of phi(y_T) keeps an odd
    factor, so its candidate would be y_T itself.  In a greedy pass that
    also had those candidates (the pairs after the x_i - a_i, the y_T
    after the o_i), every test of an x_i - a_i sees the same ideal as
    here, and every pair and every y_T is dropped.  A test of an o_i asks
    whether o = o_i lies in R + N (o), R the ideal of the other kept
    candidates: if o = mu + nu o with mu in R, the odd parts give the same
    with nu even, so nu lies in N^2, is nilpotent, and o = (1 - nu)^-1 mu
    lies in R already.  So the pairs and the y_T never decide a test.
    """
    A = action.algebra
    vs = A.vs
    check_ksdim_bound(vs)
    pt.validate(A)
    slopes = [action.images[y].evaluate_at_point(pt.point) for y in vs.odd]
    pivot = next((j for j, lam in enumerate(slopes) if lam), None)
    if pivot is None:
        ideal = SuperIdeal(A, pt.max_superideal_gens(A))
        stabilizer, orbit_sdim, stabilizer_sdim = "full", SuperDim(0, 0), SuperDim(0, 1)
    else:
        yj = vs.gen(vs.odd[pivot])
        lamj = slopes[pivot]
        odd_gens = [
            vs.gen(y) - yj.scale(lam * inv(lamj, vs.field.char))
            for i, (y, lam) in enumerate(zip(vs.odd, slopes))
            if i != pivot
        ]
        ideal = SuperIdeal(A, _minimalize_gens(A, pt.even_gens(A) + odd_gens))
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


def _minimalize_gens(algebra, gens):
    """Drop generators already contained in the superideal the others
    generate; keeps the reported presentation human-sized."""
    gens = [algebra.nf(g) for g in gens]
    gens = [g for g in gens if g]
    kept = list(gens)
    for g in list(gens):
        rest = [h for h in kept if h is not g]
        if rest and SuperIdeal(algebra, rest).contains(g):
            kept = rest
    return kept


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
    stabilizer arithmetic)."""
    amb = result.ideal.ambient
    quotient = SuperAlgebra(amb.vs, amb.relations + result.ideal.generators)
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
