"""Packed term codes and the Gröbner engine that runs on them.

Each order's integer code is checked exhaustively against its tuple
reference in ``conftest`` (order, decoding, shift by one addition,
divisibility by one masked subtraction), the exponent bound is checked at
the library and at the command line, and a hypothesis suite compares
``buchberger`` and ``annihilator`` with the tuple reference engine over Q
and F_7.
"""

import contextlib
import io
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superalg import _kernel
from superalg.cli import run_command
from superalg.groebner import SuperAlgebra, annihilator, buchberger, superideal_closure
from superalg.scalars import QQ, Field
from superalg.superpoly import VarSet

from conftest import (
    CODE_KEY,
    random_poly,
    ref_annihilator_basis,
    ref_buchberger,
    ref_elim_term_key,
    ref_term_key,
    ref_weight_term_key,
)

MAX_EXP = 3
SIZES = [(m, n) for m in range(4) for n in range(5)]
FIELDS = (QQ, Field(7))


def components(ref, n):
    masks = range(1 << n)
    if ref is ref_elim_term_key:
        return [(block, mask) for block in (0, 1) for mask in masks]
    return list(masks)


def exponents(m, top=MAX_EXP):
    return list(itertools.product(range(top + 1), repeat=m))


def terms(ref, m, n):
    return [(e, c) for e in exponents(m) for c in components(ref, n)]


@pytest.mark.parametrize("ref", list(CODE_KEY), ids=lambda f: f.__name__)
def test_code_order_is_the_reference_order(ref):
    code = CODE_KEY[ref]
    for m, n in SIZES:
        ts = terms(ref, m, n)
        by_code = sorted(ts, key=code)
        assert by_code == sorted(ts, key=ref), (m, n)
        codes = list(map(code, by_code))
        assert all(a < b for a, b in zip(codes, codes[1:])), (m, n)


@pytest.mark.parametrize("ref", list(CODE_KEY), ids=lambda f: f.__name__)
def test_decoding_gives_the_term_back(ref):
    code = CODE_KEY[ref]
    for m, n in SIZES:
        decode = _kernel.code_layout(code, m).decode
        for t in terms(ref, m, n):
            assert decode(code(t)) == t


@pytest.mark.parametrize("ref", list(CODE_KEY), ids=lambda f: f.__name__)
def test_guard_bit_divisibility_is_exp_divides(ref):
    code = CODE_KEY[ref]
    for m, n in SIZES:
        layout = _kernel.code_layout(code, m)
        guards = layout.guards
        exps = exponents(m)
        for c in components(ref, n):
            codes = [code((e, c)) for e in exps]
            for el, lc in zip(exps, codes):
                lh = lc | guards
                assert (lh & layout.comp) == (lc & layout.comp)
                for et, tc in zip(exps, codes):
                    assert ((lh - tc) & guards == guards) == _kernel.exp_divides(el, et)


@pytest.mark.parametrize("ref", list(CODE_KEY), ids=lambda f: f.__name__)
def test_a_shift_is_one_addition(ref):
    """code(u * t / l) = code(u) + code(t) - code(l) for t, l in one
    component with l | t.  Over the whole range it is checked in two
    halves: code(t) - code(l) depends only on the exponent difference d, and
    adding that difference to any code u multiplies u by x^d; on the small
    sizes every triple is also checked directly."""
    code = CODE_KEY[ref]
    for m, n in SIZES:
        comps = components(ref, n)
        base = code(((0,) * m, comps[0]))
        shift = {d: code((d, comps[0])) - base for d in exponents(m)}
        for c in comps:
            for el in exponents(m):
                for et in exponents(m):
                    if _kernel.exp_divides(el, et):
                        d = tuple(b - a for a, b in zip(el, et))
                        assert code((et, c)) - code((el, c)) == shift[d]
        for eu, cu in terms(ref, m, n):
            for d, s in shift.items():
                assert code((eu, cu)) + s == code((tuple(map(sum, zip(eu, d))), cu))
    for m, n in [(1, 1), (2, 1), (2, 2)]:
        comps = components(ref, n)
        for (eu, cu), c in itertools.product(terms(ref, m, n), comps):
            for el, et in itertools.product(exponents(m), repeat=2):
                if _kernel.exp_divides(el, et):
                    shifted = (tuple(u + t - l for u, t, l in zip(eu, et, el)), cu)
                    assert code((eu, cu)) + code((et, c)) - code((el, c)) == code(shifted)


# ---------------------------------------------------------------------------
# the exponent bound


def test_a_term_over_the_bound_has_no_code():
    bound = _kernel.MAX_DEGREE
    assert bound == 2 ** (_kernel.EXP_BITS - 1) - 1
    for code in CODE_KEY.values():
        comp = (0, 1) if code is _kernel.elim_term_key else 1
        assert _kernel.code_layout(code, 2).decode(code(((bound - 1, 1), comp))) == ((bound - 1, 1), comp)
        for exps in ((bound + 1,), (bound, 1), (1, 2, bound)):
            with pytest.raises(_kernel.TermOverflowError, match="total degree"):
                code((exps, comp))
    with pytest.raises(_kernel.TermOverflowError):
        buchberger([{((bound + 1,), 0): 1}], _kernel.term_key, 0)


@pytest.mark.parametrize("top", [16000, 20000])
def test_a_reduction_or_an_s_vector_over_the_bound_raises(top):
    """Under an order that does not compare degrees first, a tail term may
    outgrow its lead: reducing x^top by x + x^top*y, or the S-vector of
    x1 + x2^top*y and x2^top, forms a term of degree 2*top + 1 or 2*top, so
    it fits at 16000 and raises at 20000."""
    cases = [
        (
            _kernel.weight_term_key,
            [{((1,), 0): 1, ((top,), 1): 1}, {((top + 1,), 0): 1}],
        ),
        (
            _kernel.elim_term_key,
            [{((1,), (0, 0)): 1, ((top,), (1, 0)): 1}, {((top + 1,), (0, 0)): 1}],
        ),
        (
            _kernel.weight_term_key,
            [{((1, 0), 0): 1, ((0, top), 1): 1}, {((0, top), 0): 1}],
        ),
    ]
    for key, vectors in cases:
        if 2 * top + 1 <= _kernel.MAX_DEGREE:
            basis = buchberger(vectors, key, 7)
            assert max(sum(e) for v in basis.vectors for e, _ in v) >= 2 * top
        else:
            with pytest.raises(_kernel.TermOverflowError, match="bound"):
                buchberger(vectors, key, 7)


def test_the_command_line_reports_the_bound(tmp_path):
    """A relation of degree 64*513 = 32832 parses (each power is within the
    parser's bound) but has no code: every command that completes the
    relation basis exits 2 with the message and no traceback."""
    doc = tmp_path / "big.salg"
    doc.write_text("superalgebra A\n  even x\n  odd y\n  rel " + "*".join(["x^64"] * 513) + "\nend\n")
    for command in (["gr"], ["ksdim"], ["ann", "--element", "y"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_command([command[0], str(doc)] + command[1:], out=out)
        assert code == 2
        assert out.getvalue() == ""
        assert "total degree 32832 is over the term-order bound 32767" in err.getvalue()
        assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# the code engine against the tuple engine

DIFF_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def module_vectors(draw):
    """(reference key, p, vectors): up to six vectors of up to four terms in
    up to three even variables and two odd ones' components."""
    ref = draw(st.sampled_from(list(CODE_KEY)))
    field = draw(st.sampled_from(FIELDS))
    m = draw(st.integers(0, 3))
    comps = st.sampled_from(components(ref, 2))
    exps = st.tuples(*[st.integers(0, 3)] * m)
    coeffs = st.sampled_from([-3, -2, -1, 1, 2, 3]).map(field.of)
    vector = st.dictionaries(st.tuples(exps, comps), coeffs, min_size=1, max_size=4)
    return ref, field.char, draw(st.lists(vector, min_size=1, max_size=6))


@DIFF_SETTINGS
@given(module_vectors())
def test_buchberger_matches_the_tuple_engine(case):
    ref, p, vectors = case
    gb = buchberger(vectors, CODE_KEY[ref], p)
    expected = ref_buchberger(vectors, ref, p)
    assert gb.vectors == expected.vectors
    assert gb.leads == expected.leads
    for v in vectors:
        assert gb.normal_form(v) == expected.nf(v) == {}


@st.composite
def annihilator_cases(draw):
    """(algebra, p): k[x1 (, x2) | y1 .. yn], n from 1 to 3, over Q or F_7,
    with up to three relations of mixed parity, and p a nonzero
    parity-homogeneous normal form."""
    field = draw(st.sampled_from(FIELDS))
    m = draw(st.integers(1, 2))
    n = draw(st.integers(1, 3))
    vs = VarSet(tuple("x%d" % (i + 1) for i in range(m)), tuple("y%d" % (i + 1) for i in range(n)), field)
    monomial = st.tuples(st.tuples(*[st.integers(0, 2)] * m), st.integers(0, (1 << n) - 1))
    coeffs = st.sampled_from([-2, -1, 1, 2, 3])

    def poly(parity=None):
        terms = draw(st.lists(st.tuples(monomial, coeffs), min_size=1, max_size=3))
        f = vs.zero()
        for (exps, mask), c in terms:
            if parity is None or mask.bit_count() & 1 == parity:
                f = f + vs.monomial(exps, mask, c)
        return f

    rels = [poly() for _ in range(draw(st.integers(0, 3)))]
    A = SuperAlgebra(vs, [r for r in rels if r])
    p = A.nf(poly(draw(st.integers(0, 1))))
    assume(p)
    return A, p


@DIFF_SETTINGS
@given(annihilator_cases())
def test_annihilator_matches_the_tuple_engine(case):
    A, p = case
    assert annihilator(p, A).gbasis.vectors == ref_annihilator_basis(p, A)


def test_the_relation_basis_matches_the_tuple_engine(rng):
    """Whole presentations: the stored relation basis against the tuple
    engine under the reference term order."""
    for _ in range(40):
        vs = VarSet(("x1", "x2"), ("y1", "y2", "y3"), rng.choice(FIELDS))
        A = SuperAlgebra(vs, [random_poly(vs, rng) for _ in range(rng.randint(1, 3))])
        closed = [g.terms for g in superideal_closure(A.relations)]
        assert A.gbasis.vectors == ref_buchberger(closed, ref_term_key, vs.field.char).vectors
        gr = buchberger(closed, _kernel.weight_term_key, vs.field.char)
        assert gr.vectors == ref_buchberger(closed, ref_weight_term_key, vs.field.char).vectors
