"""Exact arithmetic in the free supercommutative superalgebra k[x's | y's].

A monomial is a pair (even exponent tuple, odd index bitmask); the odd
factors are kept in ascending index order and every reordering sign is
absorbed into the coefficient.  Values are immutable after construction.
"""

from __future__ import annotations

from superalg import _kernel
from superalg._kernel import term_key
from superalg.scalars import QQ, SCALARS, Field


class ParityError(ValueError):
    pass


class StructureError(ValueError):
    pass


class HCError(ValueError):
    """A Harish-Chandra pair computation that cannot proceed: a non-invertible
    or non-nilpotent element, or an exhausted rewriting cap.  Defined here,
    beside the other input errors, so that the command line maps it to
    exit 2 without importing ``hcgroup``."""


class VarSet:
    """Ordered even and odd generator names over a fixed coefficient field."""

    __slots__ = ("even", "odd", "field", "_even_index", "_odd_index")

    MAX_ODD = 63

    def __init__(self, even=(), odd=(), field=QQ):
        even = tuple(even)
        odd = tuple(odd)
        names = even + odd
        if len(set(names)) != len(names):
            raise StructureError("generator names must be unique: %r" % (names,))
        if len(odd) > self.MAX_ODD:
            raise StructureError("at most %d odd generators (bitmask representation)" % self.MAX_ODD)
        if not isinstance(field, Field):
            raise StructureError("field must be a Field instance")
        self.even = even
        self.odd = odd
        self.field = field
        self._even_index = {n: i for i, n in enumerate(even)}
        self._odd_index = {n: i for i, n in enumerate(odd)}

    @property
    def m(self):
        return len(self.even)

    @property
    def n(self):
        return len(self.odd)

    def even_index(self, name):
        return self._even_index[name]

    def parity_of(self, name):
        if name in self._even_index:
            return 0
        if name in self._odd_index:
            return 1
        raise StructureError("unknown generator %r" % name)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, VarSet)
            and self.even == other.even
            and self.odd == other.odd
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.even, self.odd, self.field))

    def __repr__(self):
        return "VarSet(even=%r, odd=%r)" % (list(self.even), list(self.odd))

    # -- construction helpers -------------------------------------------------

    def zero(self):
        return SuperPoly(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c = self.field.of(c)
        if not c:
            return self.zero()
        return SuperPoly(self, {((0,) * self.m, 0): c})

    def gen(self, name):
        if name in self._even_index:
            exps = [0] * self.m
            exps[self._even_index[name]] = 1
            return SuperPoly(self, {(tuple(exps), 0): self.field.one})
        if name in self._odd_index:
            return SuperPoly(self, {((0,) * self.m, 1 << self._odd_index[name]): self.field.one})
        raise StructureError("unknown generator %r" % name)

    def monomial(self, exps, mask, coeff=1):
        c = self.field.of(coeff)
        if not c:
            return self.zero()
        return SuperPoly(self, {(tuple(exps), mask): c})


def mask_indices(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class SuperPoly:
    __slots__ = ("vs", "terms", "_frozen")

    def __init__(self, vs, terms):
        self.vs = vs
        self.terms = terms  # {(exps, mask): nonzero coeff}; owned, never mutated
        self._frozen = None

    def frozen_terms(self):
        f = self._frozen
        if f is None:
            f = self._frozen = frozenset(self.terms.items())
        return f

    # -- basics ---------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, SuperPoly):
            return NotImplemented
        return self.vs == other.vs and self.terms == other.terms

    def __hash__(self):
        # equal values have equal terms; __eq__ also compares the VarSet
        return hash(self.frozen_terms())

    def _check_same(self, other):
        if self.vs is other.vs:
            return
        if self.vs != other.vs:
            raise StructureError("operands live over different generator sets")

    def parity(self):
        """0 or 1 for a parity-homogeneous value, None for a mixed one."""
        if not self.terms:
            return 0
        ps = {mask.bit_count() & 1 for (_, mask) in self.terms}
        if len(ps) == 1:
            return ps.pop()
        return None

    def parity_part(self, parity):
        return SuperPoly(
            self.vs,
            {t: c for t, c in self.terms.items() if (t[1].bit_count() & 1) == parity},
        )

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) + mask.bit_count() for (e, mask) in self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: term_key(kv[0]), reverse=True)

    def lead_term(self):
        if not self.terms:
            raise ValueError("zero has no leading term")
        t = max(self.terms, key=term_key)
        return t, self.terms[t]

    def constant_coeff(self):
        return self.terms.get(((0,) * self.vs.m, 0), self.vs.field.zero)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SuperPoly):
            if not isinstance(other, SCALARS):
                return NotImplemented
            other = self.vs.const(other)
        self._check_same(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        p = self.vs.field.char
        terms = dict(self.terms)
        for t, c in other.terms.items():
            nc = terms.get(t)
            nc = c if nc is None else nc + c
            if p:
                nc %= p
            if nc:
                terms[t] = nc
            elif t in terms:
                del terms[t]
        return SuperPoly(self.vs, terms)

    __radd__ = __add__

    def __neg__(self):
        p = self.vs.field.char
        return SuperPoly(self.vs, {t: -c % p if p else -c for t, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, SuperPoly):
            if not isinstance(other, SCALARS):
                return NotImplemented
            other = self.vs.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        field = self.vs.field
        c = field.of(c)
        if not c:
            return self.vs.zero()
        if field.is_one(c):
            return self
        return SuperPoly(self.vs, _kernel.scale_terms(self.terms, c, field.char))

    def __mul__(self, other):
        if not isinstance(other, SuperPoly):
            if not isinstance(other, SCALARS):
                return NotImplemented
            return self.scale(other)
        self._check_same(other)
        if not self.terms or not other.terms:
            return SuperPoly(self.vs, {})
        if len(self.terms) == 1:
            (t, c), = self.terms.items()
            if not t[1] and not any(t[0]):
                return other.scale(c)
        if len(other.terms) == 1:
            (t, c), = other.terms.items()
            if not t[1] and not any(t[0]):
                return self.scale(c)
        return SuperPoly(self.vs, _kernel.mul_terms(self.terms, other.terms, self.vs.field.char))

    def __rmul__(self, other):
        if isinstance(other, SCALARS):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        if k == 0:
            return self.vs.one()
        if k == 1:
            return self
        out = self.vs.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- evaluation, derivations, substitution --------------------------------

    def evaluate_at_point(self, pt):
        """Evaluate at a rational point: even generators get scalar values,
        every monomial containing an odd factor is sent to zero."""
        missing = [n for n in self.vs.even if n not in pt]
        if missing:
            raise StructureError("unassigned even generators: %s" % ", ".join(missing))
        field = self.vs.field
        p = field.char
        vals = [field.of(pt[n]) for n in self.vs.even]
        acc = field.zero
        for (exps, mask), c in self.terms.items():
            if mask:
                continue
            v = c
            for e, x in zip(exps, vals):
                for _ in range(e):
                    v = v * x
            acc = acc + v
            if p:
                acc %= p
        return acc

    def apply_derivation(self, images, parity):
        """Extend a generator map to a left superderivation of the stated
        parity via the signed Leibniz rule and apply it.

        ``images`` maps generator names to SuperPolys over the same
        generator set; missing names are sent to zero.
        """
        vs = self.vs
        for name, img in images.items():
            if img.is_zero():
                continue
            want = (vs.parity_of(name) + parity) & 1
            if img.parity() != want:
                raise ParityError(
                    "image of %s must be parity-homogeneous of parity %d" % (name, want)
                )
        out = vs.zero()
        for (exps, mask), c in self.terms.items():
            # even factors: all preceding factors can be taken even, no sign
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                img = images.get(vs.even[i])
                if img is None or img.is_zero():
                    continue
                rest = list(exps)
                rest[i] -= 1
                part = vs.monomial(tuple(rest), mask, c * e)
                out = out + img * part
            # odd factors, in ascending order; prefix parity counts them
            idxs = mask_indices(mask)
            for j, oi in enumerate(idxs):
                img = images.get(vs.odd[oi])
                if img is None or img.is_zero():
                    continue
                before = 0
                for k in idxs[:j]:
                    before |= 1 << k
                after = 0
                for k in idxs[j + 1 :]:
                    after |= 1 << k
                sign = -1 if (parity * j) & 1 else 1
                part = vs.monomial(exps, before, c * sign) * img * vs.monomial(
                    (0,) * vs.m, after
                )
                out = out + part
        return out

    def substitute(self, images, target_vs=None, check_parity=True):
        """Apply the superalgebra morphism sending each generator to its
        image; images of even generators must be even, of odd ones odd."""
        vs = self.vs
        if target_vs is None:
            if not images:
                raise StructureError("cannot infer target generator set")
            target_vs = next(iter(images.values())).vs
        if check_parity:
            for name, img in images.items():
                if img and img.parity() != vs.parity_of(name):
                    raise ParityError("image of %s has wrong parity" % name)
        out = target_vs.zero()
        for (exps, mask), c in self.terms.items():
            part = target_vs.const(c)
            for i, e in enumerate(exps):
                if e:
                    img = images.get(vs.even[i])
                    if img is None:
                        raise StructureError("no image for generator %s" % vs.even[i])
                    part = part * img**e
                    if part.is_zero():
                        break
            else:
                for oi in mask_indices(mask):
                    img = images.get(vs.odd[oi])
                    if img is None:
                        raise StructureError("no image for generator %s" % vs.odd[oi])
                    part = part * img
                    if part.is_zero():
                        break
            out = out + part
        return out

    def diff_even(self, name):
        """Formal partial derivative with respect to an even generator."""
        i = self.vs.even_index(name)
        p = self.vs.field.char
        terms = {}
        for (exps, mask), c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            rest = list(exps)
            rest[i] -= 1
            t = (tuple(rest), mask)
            prev = terms.get(t)
            nc = c * e if prev is None else prev + c * e
            if p:
                nc %= p
            terms[t] = nc
        return SuperPoly(self.vs, {t: c for t, c in terms.items() if c})

    # -- rendering ------------------------------------------------------------

    def render(self):
        """Canonical text form, e.g. ``3*x1^2*y1y3 - 1/2*y2``."""
        if not self.terms:
            return "0"
        vs = self.vs
        field = vs.field
        pieces = []
        for (exps, mask), c in self.sorted_terms():
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(vs.even[i])
                elif e > 1:
                    factors.append("%s^%d" % (vs.even[i], e))
            if mask:
                factors.append("".join(vs.odd[i] for i in mask_indices(mask)))
            cs = field.render(c)
            if not factors:
                body = cs
            elif cs == "1":
                body = "*".join(factors)
            elif cs == "-1":
                body = "-" + "*".join(factors)
            else:
                body = cs + "*" + "*".join(factors)
            pieces.append(body)
        out = pieces[0]
        for p in pieces[1:]:
            if p.startswith("-"):
                out += " - " + p[1:]
            else:
                out += " + " + p
        return out

    __str__ = render

    def __repr__(self):
        return "SuperPoly(%s)" % self.render()
