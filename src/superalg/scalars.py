"""Exact coefficient fields: the rationals and prime fields of odd characteristic.

All coefficient arithmetic in the package goes through the objects defined
here.  No floating point is ever used.  A rational is an ``int`` while it is
integral and a ``Fraction`` otherwise; an element of F_p is a bare ``int``
residue in [0, p).  The characteristic p (0 for Q) is passed to every
kernel that makes a coefficient, and each reduces its result mod p when p
is set.  ``Field.of`` is the boundary that brings an ``int`` or
``Fraction`` into a field.  Coefficients are never divided with ``/``:
``inv`` is the one inverse.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    pass


# Everything a SuperPoly accepts as a scalar operand.
SCALARS = (int, Fraction)


def inv(c, p):
    """The inverse of a nonzero coefficient in characteristic p (0 for Q);
    ZeroDivisionError for zero.

    Over F_p the inverse is the residue in [0, p).  Over Q the inverse of
    +-1 stays an ``int`` and that of ``1/n`` is the ``int`` n, so integral
    values never become a ``Fraction``."""
    if p:
        if not c % p:
            raise ZeroDivisionError("division by zero in F_%d" % p)
        return pow(c, -1, p)
    if isinstance(c, int):
        return c if c == 1 or c == -1 else Fraction(1, c)
    n, d = c.numerator, c.denominator
    return n * d if n == 1 or n == -1 else Fraction(d, n)


# The first thirteen primes as Miller-Rabin witnesses decide primality of
# every n below this bound (Sorenson and Webster, 2015).
MILLER_RABIN_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


def _is_prime(p):
    """Deterministic Miller-Rabin for p below MILLER_RABIN_BOUND."""
    if p >= MILLER_RABIN_BOUND:
        raise FieldError("primality of %d cannot be certified (limit %d)" % (p, MILLER_RABIN_BOUND))
    if p < 2:
        return False
    for a in MILLER_RABIN_WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MILLER_RABIN_WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """Coefficient field: characteristic 0 (rationals) or an odd prime p."""

    def __init__(self, char=0):
        if char != 0:
            if char == 2:
                raise FieldError("characteristic 2 is not supported")
            if not _is_prime(char):
                raise FieldError("%d is not prime" % char)
        self.char = char
        self.zero = self.of(0)
        self.one = self.of(1)

    def of(self, v):
        """Coerce an int or Fraction into this field: over F_p the residue
        in [0, p), FieldError when p divides a Fraction's denominator."""
        p = self.char
        if isinstance(v, int):
            return v % p if p else v
        if isinstance(v, Fraction):
            n, d = v.numerator, v.denominator
            if not p:
                return n if d == 1 else v
            if not d % p:
                raise FieldError("%s has no value in F_%d: its denominator is divisible by %d" % (v, p, p))
            return n * pow(d, -1, p) % p
        raise FieldError("cannot coerce %r into %s" % (v, "F_%d" % p if p else "Q"))

    def is_one(self, v):
        return v == 1

    def render(self, v):
        try:
            if v.denominator == 1:
                return str(v.numerator)
            return "%d/%d" % (v.numerator, v.denominator)
        except ValueError:
            # CPython refuses to print an int longer than its int-to-str
            # limit (4300 digits by default); the limit stays as it is.
            raise FieldError("coefficient too long to print") from None

    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return "Field(char=%d)" % self.char


QQ = Field(0)
