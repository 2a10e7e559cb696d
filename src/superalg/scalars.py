"""Exact coefficient fields: the rationals and prime fields of odd characteristic.

All coefficient arithmetic in the package goes through the objects defined
here.  No floating point is ever used.  A rational is an ``int`` while it is
integral and a ``Fraction`` otherwise; an element of F_p is a ``GFElement``.
Coefficients are never divided with ``/``: ``inv`` is the one inverse.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    pass


class GFElement:
    """Element of a prime field F_p, p an odd prime."""

    __slots__ = ("p", "v")

    def __init__(self, p, v):
        self.p = p
        self.v = v % p

    def _coerce(self, other):
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise FieldError("mixed characteristics %d and %d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return GFElement(self.p, other)
        if isinstance(other, Fraction):
            return _gf_of_fraction(self.p, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GFElement(self.p, self.v + o.v)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GFElement(self.p, self.v - o.v)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GFElement(self.p, o.v - self.v)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GFElement(self.p, self.v * o.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.v == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return GFElement(self.p, self.v * pow(o.v, self.p - 2, self.p))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GFElement(self.p, -self.v)

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, (int, Fraction)):
            o = self._coerce(other)
            return self.v == o.v
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "GF(%d)(%d)" % (self.p, self.v)

    def __str__(self):
        return str(self.v)


# Everything a SuperPoly accepts as a scalar operand.
SCALARS = (int, Fraction, GFElement)


def inv(c):
    """The inverse of a nonzero coefficient; ZeroDivisionError for zero.

    Over Q the inverse of +-1 stays an ``int`` and that of ``1/n`` is the
    ``int`` n, so integral values never become a ``Fraction``."""
    if isinstance(c, int):
        return c if c == 1 or c == -1 else Fraction(1, c)
    if isinstance(c, Fraction):
        n, d = c.numerator, c.denominator
        return n * d if n == 1 or n == -1 else Fraction(d, n)
    return 1 / c


def _gf_of_fraction(p, v):
    """The image of a Fraction in F_p; FieldError when p divides its
    denominator."""
    if v.denominator % p == 0:
        raise FieldError("%s has no value in F_%d: its denominator is divisible by %d" % (v, p, p))
    return GFElement(p, v.numerator) / GFElement(p, v.denominator)


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
        self._zero = self.of(0)
        self._one = self.of(1)

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    def of(self, v):
        """Coerce an int, Fraction or field element into this field."""
        if self.char == 0:
            if isinstance(v, int):
                return v
            if isinstance(v, Fraction):
                return v.numerator if v.denominator == 1 else v
            if isinstance(v, GFElement):
                raise FieldError("cannot coerce F_%d element into Q" % v.p)
            raise FieldError("cannot coerce %r into Q" % (v,))
        if isinstance(v, GFElement):
            if v.p != self.char:
                raise FieldError("mixed characteristics")
            return v
        if isinstance(v, int):
            return GFElement(self.char, v)
        if isinstance(v, Fraction):
            return _gf_of_fraction(self.char, v)
        raise FieldError("cannot coerce %r into F_%d" % (v, self.char))

    def is_one(self, v):
        """Cheap test against 1, avoiding generic rich comparison."""
        if self.char == 0:
            return v == 1
        return v.v == 1

    def parse(self, text):
        """Parse 'p' or 'p/q' with integer p, q."""
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return self.of(Fraction(int(num), int(den)))
        return self.of(int(text))

    def render(self, v):
        try:
            if self.char == 0:
                if v.denominator == 1:
                    return str(v.numerator)
                return "%d/%d" % (v.numerator, v.denominator)
            return str(v.v)
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
