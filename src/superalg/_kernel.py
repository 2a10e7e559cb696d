"""The monomial term kernel shared by every polynomial layer.

A term is ``(exps, mask)``: a tuple of even exponents and a bitmask of odd
generators (bit i set = generator i present, i < 63).  ``odd_merge`` holds
the sign rule for anticommuting odd generators; ``superpoly``, ``groebner``
and ``sdim`` reach these functions as ``_kernel.<name>`` attributes.  The
kernels that make coefficients take the characteristic p (0 for Q) and
reduce mod p when it is set.
"""

from __future__ import annotations

from operator import add, le, sub

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


def exp_sub(ea, eb):
    """Componentwise difference; caller guarantees divisibility."""
    return tuple(map(sub, ea, eb))


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
