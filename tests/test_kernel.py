"""The term kernel: the odd sign rule against brute force, and the hooks
through which polynomial products reach it."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from superalg import _kernel
from superalg.superpoly import VarSet


def brute_odd_merge(a, b):
    """Reference implementation: concatenate index lists, count the
    inversions needed to sort, zero on repeats."""
    if a & b:
        return 0, 0
    ia = [i for i in range(64) if a >> i & 1]
    ib = [i for i in range(64) if b >> i & 1]
    seq = ia + ib
    inversions = sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )
    return (-1) ** inversions, a | b


def test_odd_merge_matches_bruteforce():
    rng = random.Random(11)
    for _ in range(2000):
        a = rng.randrange(1 << 10)
        b = rng.randrange(1 << 10)
        assert _kernel.odd_merge(a, b) == brute_odd_merge(a, b)


def test_high_bits():
    a = 1 << 62
    b = 1 << 61
    assert _kernel.odd_merge(b, a) == (1, a | b)
    assert _kernel.odd_merge(a, b) == (-1, a | b)
    assert _kernel.odd_merge(a, a) == (0, 0)


@st.composite
def exponent_pairs(draw):
    """Two exponent tuples of one length from 0 to 5; length 0 is an
    algebra with no even generator."""
    n = draw(st.integers(0, 5))
    exps = st.tuples(*[st.integers(0, 4)] * n)
    return draw(exps), draw(exps)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(exponent_pairs())
def test_exponent_kernels_are_componentwise(pair):
    ea, eb = pair
    assert _kernel.exp_lcm(ea, eb) == tuple(max(x, y) for x, y in zip(ea, eb))
    assert _kernel.exp_divides(ea, eb) == all(x <= y for x, y in zip(ea, eb))
    assert _kernel.exp_coprime(ea, eb) == all(x == 0 or y == 0 for x, y in zip(ea, eb))
    e = _kernel.exp_lcm(ea, eb)
    assert type(e) is tuple and len(e) == len(ea)


def test_superpoly_products_go_through_kernel(monkeypatch):
    """The benchmark stamps ``IMPLEMENTATION`` and counts products by
    rebinding ``_kernel.mul_terms``; a product that bypasses the module
    attribute would silently stop being counted."""
    calls = {"mul_terms": 0, "scale_terms": 0}

    def counting(name):
        fn = getattr(_kernel, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    vs = VarSet(("x",), ("y1", "y2"))
    x, y1, y2 = (vs.gen(n) for n in ("x", "y1", "y2"))
    a, b = x + y1, x - y2
    expected = a * b
    for name in calls:
        monkeypatch.setattr(_kernel, name, counting(name))
    assert a * b == expected
    assert calls == {"mul_terms": 1, "scale_terms": 0}
    a.scale(3)
    assert calls == {"mul_terms": 1, "scale_terms": 1}
    assert _kernel.IMPLEMENTATION == "python"


def brute_mul_terms(aterms, bterms, p):
    """Reference product: every term pair signed by ``brute_odd_merge``,
    summed, reduced mod p at the end and stripped of zeros."""
    sums = {}
    for (ea, ma), ca in aterms.items():
        for (eb, mb), cb in bterms.items():
            sign, mask = brute_odd_merge(ma, mb)
            t = (tuple(x + y for x, y in zip(ea, eb)), mask)
            sums[t] = sums.get(t, 0) + sign * ca * cb
    if p:
        sums = {t: c % p for t, c in sums.items()}
    return {t: c for t, c in sums.items() if c}


# Odd generators 0-3 overlap often; 61 and 62 are the highest bits a mask uses.
ODD_BITS = (0, 1, 2, 3, 61, 62)


@st.composite
def term_dict_pairs(draw):
    """(p, aterms, bterms) over m = 0..2 even generators, p in {0, 7}."""
    p = draw(st.sampled_from((0, 7)))
    m = draw(st.integers(0, 2))
    masks = st.lists(st.sampled_from(ODD_BITS), max_size=3).map(
        lambda bits: sum(set(1 << b for b in bits))
    )
    exps = st.tuples(*[st.integers(0, 2)] * m)
    coeffs = st.integers(1, p - 1) if p else st.integers(-3, 3).filter(bool)
    terms = st.dictionaries(st.tuples(exps, masks), coeffs, max_size=5)
    return p, draw(terms), draw(terms)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(term_dict_pairs())
def test_mul_terms_matches_bruteforce(case):
    p, aterms, bterms = case
    assert _kernel.mul_terms(aterms, bterms, p) == brute_mul_terms(aterms, bterms, p)
