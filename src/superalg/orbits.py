"""Orbits of odd one-parameter unipotent actions on affine superschemes.

An action of the odd additive group (coordinate ring k[z] with z odd,
z^2 = 0) on SSpec(A) is the same thing as an odd superderivation phi of A
with phi^2 = 0: the coaction is f |-> 1 (x) f + z (x) phi(f).  The orbit
of a rational point x is cut out by the kernel of the composite
A -> k[z], f |-> f(x) + z * ev_x(phi(f)).  The stabilizer is either the
whole group (all orbit slopes vanish) or trivial.
"""

from __future__ import annotations

from superalg.groebner import SuperAlgebra, SuperIdeal, odd_square_free_monomials
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

    ok, wit = True, None
    for name in vs.even + vs.odd:
        d = action.apply(action.images[name])
        if d:
            ok, wit = False, "phi^2(%s) = %s is nonzero" % (name, d)
    report["square_zero"] = (ok, wit)

    for check, (good, witness) in report.items():
        if not good:
            raise ActionError("%s check failed: %s" % (check, witness))
    return report


def check_coaction_multiplicative(action):
    """The coaction respects the group law of the odd additive group:
    acting by z1 and then z2 agrees with acting by z1 + z2.  The two sides
    over A (x) /\\(z1, z2) are f + (z1 + z2) phi(f) + z1 z2 phi^2(f) and
    f + (z1 + z2) phi(f); z1 z2 is free over A, so they agree iff phi^2
    vanishes on every generator (its images are already normal forms)."""
    return all(not action.apply(img) for img in action.images.values())


def odd_module_generators(algebra):
    """Odd square-free monomials of odd degree with nonzero normal form:
    generators of the odd part as a module over the even part."""
    gens = []
    for mono in odd_square_free_monomials(algebra.vs, parity=1):
        if algebra.nf(mono):
            gens.append(mono)
    return gens


class OrbitResult(Record):
    __slots__ = (
        "point",
        "generators",
        "slopes",
        "pivot",
        "ideal",
        "stabilizer",
        "orbit_sdim",
        "group_sdim",
        "stabilizer_sdim",
    )

    def __init__(
        self,
        point,
        generators,
        slopes,
        pivot,
        ideal,
        stabilizer,
        orbit_sdim=None,
        group_sdim=SuperDim(0, 1),
        stabilizer_sdim=None,
    ):
        self.point = point  # dict
        self.generators = generators  # odd module generators w_i used
        self.slopes = slopes  # ev_x(phi(w_i))
        self.pivot = pivot  # index of the chosen nonzero slope, or -1
        self.ideal = ideal  # SuperIdeal cutting out the orbit
        self.stabilizer = stabilizer  # "full" or "trivial"
        self.orbit_sdim = orbit_sdim
        self.group_sdim = group_sdim
        self.stabilizer_sdim = stabilizer_sdim


def orbit_slopes(action, pt):
    """ev_x(phi(w_i)) over the odd module generators w_i."""
    A = action.algebra
    gens = odd_module_generators(A)
    slopes = [action.apply(w).evaluate_at_point(pt.point) for w in gens]
    return gens, slopes


def orbit_ideal(action, pt):
    """The ideal of the orbit through a rational point, with the
    stabilizer dichotomy and the dimension bookkeeping.  The pivot is the
    first nonzero slope; any other nonzero one yields the same ideal.
    """
    A = action.algebra
    vs = A.vs
    pt.validate(A)
    gens, slopes = orbit_slopes(action, pt)
    zero = vs.field.zero
    pivot = next((i for i, lam in enumerate(slopes) if lam != zero), -1)
    if pivot < 0:
        ideal = SuperIdeal(A, pt.max_superideal_gens(A))
        result = OrbitResult(
            point=dict(pt.point),
            generators=gens,
            slopes=slopes,
            pivot=-1,
            ideal=ideal,
            stabilizer="full",
            orbit_sdim=SuperDim(0, 0),
            stabilizer_sdim=SuperDim(0, 1),
        )
    else:
        m_gens = pt.max_ideal_even_gens(A)
        wj = gens[pivot]
        lamj = slopes[pivot]
        odd_gens = []
        for i, (w, lam) in enumerate(zip(gens, slopes)):
            if i == pivot:
                continue
            odd_gens.append(w - wj.scale(lam * inv(lamj, vs.field.char)))
        ideal = SuperIdeal(A, _minimalize_gens(A, m_gens + odd_gens))
        result = OrbitResult(
            point=dict(pt.point),
            generators=gens,
            slopes=slopes,
            pivot=pivot,
            ideal=ideal,
            stabilizer="trivial",
            orbit_sdim=SuperDim(0, 1),
            stabilizer_sdim=SuperDim(0, 0),
        )
    _check_phi_stable(action, result.ideal)
    return result


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
    runs ksdim on the orbit closure, so its bound is checked first."""
    check_ksdim_bound(action.algebra.vs)
    result = orbit_ideal(action, pt)
    report = {}
    report["stabilizer_dichotomy"] = result.stabilizer in ("full", "trivial")
    report["sdim_additive"] = (
        result.orbit_sdim.as_tuple()[0] + result.stabilizer_sdim.as_tuple()[0],
        result.orbit_sdim.as_tuple()[1] + result.stabilizer_sdim.as_tuple()[1],
    ) == result.group_sdim.as_tuple()
    computed = orbit_quotient_sdim(result)
    report["sdim_matches_presentation"] = computed == result.orbit_sdim
    report["coaction_group_law"] = check_coaction_multiplicative(action)
    return result, report
