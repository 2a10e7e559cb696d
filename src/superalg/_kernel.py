"""The monomial term kernel shared by every polynomial layer.

A term is ``(exps, mask)``: a tuple of even exponents and a bitmask of odd
generators (bit i set = generator i present, i < 63).  ``odd_merge`` holds
the sign rule for anticommuting odd generators; ``superpoly``, ``groebner``
and ``sdim`` reach these functions as ``_kernel.<name>`` attributes.  The
kernels that make coefficients take the characteristic p (0 for Q) and
reduce mod p when it is set.

The three monomial orders, ``term_key``, ``weight_term_key`` and
``elim_term_key``, are defined here once, each as a key that packs a term
into one int whose integer order is the monomial order; ``code_layout``
says where the fields of one order's codes lie, for the Gröbner engine,
which works on the codes alone.
"""

from __future__ import annotations

import functools
from operator import add, le

# perfbench stamps every result with this name
IMPLEMENTATION = "python"


def odd_merge(a: int, b: int):
    """Merge two odd index sets written in ascending order.

    Returns ``(sign, mask)``.  ``sign`` is 0 when the sets overlap (a
    repeated odd generator squares to zero), otherwise (-1)**k where k is
    the number of index inversions in the concatenation a.b.
    """
    if a & b:
        return 0, 0
    # inversions = pairs (i in a, j in b) with i > j
    inv = 0
    bb = b
    while bb:
        low = bb & -bb
        j = low.bit_length() - 1
        inv += (a >> (j + 1)).bit_count()
        bb ^= low
    return (-1 if inv & 1 else 1), a | b


def exp_divides(ea, eb):
    """True iff x^ea divides x^eb."""
    return all(map(le, ea, eb))


def exp_coprime(ea, eb):
    """True iff x^ea and x^eb share no variable."""
    return not any(map(min, ea, eb))


def exp_lcm(ea, eb):
    return tuple(map(max, ea, eb))


def mul_terms(aterms, bterms, p):
    """Product of two term dicts {(exps, mask): coeff} in characteristic p
    (0 for Q); signs from odd_merge, like terms combined, zeros dropped.

    A pair sharing an odd generator vanishes and is skipped before its
    sign is built; with no even generators every exponent tuple is ()."""
    out = {}
    for (ea, ma), ca in aterms.items():
        for (eb, mb), cb in bterms.items():
            if ma & mb:
                continue
            sign, mask = odd_merge(ma, mb)
            t = (tuple(map(add, ea, eb)) if ea else ea, mask)
            c = ca * cb if sign > 0 else -(ca * cb)
            nc = out.get(t)
            nc = c if nc is None else nc + c
            if p:
                nc %= p
            if nc:
                out[t] = nc
            elif t in out:
                del out[t]
    return out


def scale_terms(terms, c, p):
    """Every coefficient times the nonzero scalar c, in characteristic p."""
    return {t: v * c % p if p else v * c for t, v in terms.items()}


# ---------------------------------------------------------------------------
# term orders as packed integer codes
#
# Each monomial order is a key that writes a term as one int, and integer
# ``<`` is the order.  From the least significant bit up, a code of a term
# (exps, mask) with m even exponents holds:
#
#   bits 0-63       2^64 - 1 - rev64(mask): bit i of the mask moved to bit
#                   63 - i and complemented.  Of two masks of one size, the
#                   one whose smallest differing index is smaller has the
#                   larger reversal, so the smaller field: the order of the
#                   ascending index tuples.
#   bits 64-70      the odd size |mask| <= 63.
#   field i         MAX_DEGREE - e_i, for i = 0 .. m-1, EXP_BITS wide at bit
#                   71 + EXP_BITS*i: the last variable is the most
#                   significant, and a larger field is a smaller exponent.
#   degree field    the total degree, at bit 71 + EXP_BITS*m.
#   top field       at bit 71 + EXP_BITS*(m+1): empty under term_key,
#                   63 - |mask| under weight_term_key, and the main-block
#                   bit under elim_term_key.
#
# The bits outside the exponent and degree fields name the component.
# ``exp_code`` gives the exponent bound MAX_DEGREE and its argument.
#
# Shift by one addition.  For valid codes u, t, l with t and l in one
# component and x^l | x^t, the sum u + t - l is, field by field, u's
# component, MAX_DEGREE - (e_u + e_t - e_l) and deg u + deg t - deg l.
# When deg u + deg t - deg l <= MAX_DEGREE every field is in range, no
# borrow or carry crosses a field, and the sum is the code of u*t/l.
#
# Divisibility by one masked subtraction.  With H the guard bits of the
# exponent fields, and l, t in one component, x^l | x^t iff
# ((l | H) - t) & H == H: the component bits below subtract to zero with
# no borrow, and in field i the guard makes the difference
# 2^(EXP_BITS-1) + e_t - e_l, which lies in [1, 2^EXP_BITS) and so keeps
# its guard bit exactly when e_l <= e_t and lends nothing to the field
# above.  Bits above the exponent fields never reach the guards.

EXP_BITS = 16
MAX_DEGREE = (1 << (EXP_BITS - 1)) - 1
_FIELD = (1 << EXP_BITS) - 1
ODD_SHIFT = 64
_BASE = 71  # the first exponent field, above the mask and the odd size
_LOW64 = (1 << 64) - 1

# The keys are pure functions of the term, so a memo shared by every
# algebra can never serve a code computed for a different one.  The bound
# keeps memory flat on long runs; a whole perfbench pool touches at most
# about 300 distinct monomials per order.
TERM_KEY_CACHE_SIZE = 1 << 12


class TermOverflowError(ValueError):
    """A term of total degree above MAX_DEGREE, which no code holds."""


def _rev64(x):
    """The 64-bit word x with its bit order reversed."""
    return int("{:064b}".format(x)[::-1], 2)


def exp_code(exps):
    """The exponent and degree fields of a code, in place; every key's
    code is these plus its component bits.

    The exponent bound.  Each field is EXP_BITS wide, and a valid code
    keeps its top bit, the guard bit, clear, so a field holds at most
    MAX_DEGREE = 2^(EXP_BITS-1) - 1 = 32767.  The degree field holds the
    total degree, and every exponent field holds MAX_DEGREE - e_i with
    0 <= e_i <= the total degree, so a term fits exactly when its total
    degree is at most MAX_DEGREE; for any other term this raises
    TermOverflowError, and so does every key.  The Gröbner engine forms
    new terms only as lcms of leads, through this function, and by shifts:
    under term_key a shifted term has at most the degree of the term it
    replaces, and under the other orders ``groebner.GBasis._check_bound``
    checks the degrees before it adds.
    """
    deg = sum(exps)
    if deg > MAX_DEGREE:
        raise TermOverflowError(
            "a term of total degree %d is over the term-order bound %d" % (deg, MAX_DEGREE)
        )
    code = deg
    for e in reversed(exps):
        code = (code << EXP_BITS) | (MAX_DEGREE - e)
    return code << _BASE


def _mask_code(mask):
    return (mask.bit_count() << ODD_SHIFT) | (_LOW64 ^ _rev64(mask))


def _top(m):
    return _BASE + EXP_BITS * (m + 1)


@functools.lru_cache(maxsize=TERM_KEY_CACHE_SIZE)
def term_key(term):
    """The global monomial order: degree-reverse-lexicographic on the even
    exponents, refined by odd size, then by the ascending index tuple.  A
    bigger code is closer to the front."""
    exps, mask = term
    return exp_code(exps) | _mask_code(mask)


@functools.lru_cache(maxsize=TERM_KEY_CACHE_SIZE)
def weight_term_key(term):
    """Odd-weight-first order: fewer odd factors = greater, then term_key.
    The leading term of any element then lies in its lowest odd-weight
    slice, which is what makes initial forms of a Gröbner basis present
    gr(A)."""
    exps, mask = term
    return ((63 - mask.bit_count()) << _top(len(exps))) | exp_code(exps) | _mask_code(mask)


@functools.lru_cache(maxsize=TERM_KEY_CACHE_SIZE)
def elim_term_key(term):
    """Elimination order for the annihilator computation, on terms
    (exps, (block, mask)): every term in the main block 0 dominates every
    term in the tag block 1, and term_key orders each block."""
    exps, (block, mask) = term
    return ((0 if block else 1) << _top(len(exps))) | exp_code(exps) | _mask_code(mask)


class CodeLayout:
    """Where one order's codes keep their fields, for m even generators.

    ``comp`` selects the bits that name a component, ``guards`` the guard
    bits of the exponent fields, ``degree_shift`` and ``top_shift`` the
    places of the degree and top fields, ``block`` the main-block bit of
    the elimination order and ``beyond`` a bound above every code;
    ``key`` encodes a term and ``decode`` gives it back.  ``graded`` says
    that the order compares total degrees first, so no term below a lead
    has a larger degree.
    """

    def __init__(self, key, m):
        top = _top(m)
        self.key = key
        self.graded = key is term_key
        self.comp = ((1 << _BASE) - 1) | (127 << top)
        # the top bit of each of the m exponent fields
        self.guards = ((1 << EXP_BITS * m) - 1) // _FIELD << (_BASE + EXP_BITS - 1)
        self.degree_shift = top - EXP_BITS
        self.top_shift = top
        self.block = 1 << top
        self.beyond = 1 << (top + 7)  # above every code
        shifts = range(_BASE, self.degree_shift, EXP_BITS)
        elim = key is elim_term_key
        block = self.block

        @functools.lru_cache(maxsize=TERM_KEY_CACHE_SIZE)
        def decode(code):
            mask = _rev64(_LOW64 ^ (code & _LOW64))
            exps = tuple([MAX_DEGREE - (code >> s & _FIELD) for s in shifts])
            return (exps, (0 if code & block else 1, mask)) if elim else (exps, mask)

        self.decode = decode

    def degree(self, code):
        return code >> self.degree_shift & _FIELD

    def degree_cap(self, code, limit):
        """The least code in code's component of total degree above
        ``limit``: below the top field, the degree field is the most
        significant."""
        top = self.top_shift
        return (code >> top << top) | ((limit + 1) << self.degree_shift)


@functools.lru_cache(maxsize=TERM_KEY_CACHE_SIZE)
def code_layout(key, m):
    """The one layout of ``key``'s codes for m even generators."""
    return CodeLayout(key, m)
