"""Harish-Chandra pairs: axioms, normal forms, group laws, matrix model."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superalg import hcgroup
from superalg.hcgroup import (
    EvenGroupSpec,
    HCError,
    builtin_pairs,
    f_of,
    gr_pair,
    group_varset,
    hc_identity,
    hc_inv,
    hc_mul,
    invert_even,
    is_graded_pair,
    lambda_algebra,
    mat_inverse,
    mat_mul,
    matrix_exp,
    normalize_word,
    sdim_of_pair,
    unipotent_matrix_model,
    unipotent_model_mul,
    validate_hc_pair,
)
from superalg.scalars import QQ, Field

F7 = Field(7)


@pytest.fixture(scope="module")
def coeff():
    return lambda_algebra(("s", "t", "u", "w"), QQ)


@pytest.fixture(scope="module")
def pairs():
    return builtin_pairs(QQ)


# The seeded group-law, rewriting and matrix-model checks run again over F_7
# under their own names.
@pytest.fixture(scope="module")
def coeff_f7():
    return lambda_algebra(("s", "t", "u", "w"), F7)


@pytest.fixture(scope="module")
def pairs_f7():
    return builtin_pairs(F7)


def random_even_invertible(vs, rng, unit=True):
    odd = [vs.gen(n) for n in vs.odd]
    acc = vs.const(rng.choice([1, 2, -1, 3]) if unit else rng.randint(-2, 2))
    for i in range(len(odd)):
        for j in range(i + 1, len(odd)):
            acc = acc + (odd[i] * odd[j]).scale(rng.randint(-1, 1))
    return acc


def random_odd(vs, rng):
    acc = vs.zero()
    for n in vs.odd:
        acc = acc + vs.gen(n).scale(rng.randint(-1, 1))
    acc = acc + (vs.gen("s") * vs.gen("t") * vs.gen("u")).scale(rng.randint(-1, 1))
    return acc


def random_element(pair, coeff, rng):
    vs = coeff.vs
    one, zero = vs.one(), vs.zero()
    if pair.name == "unipotent":
        g = [[one, random_even_invertible(vs, rng, unit=False)], [zero, one]]
    elif pair.name == "gl1-weight":
        g = [[random_even_invertible(vs, rng)]]
    else:
        E = [[one, random_even_invertible(vs, rng, unit=False)], [zero, one]]
        F = [[one, zero], [random_even_invertible(vs, rng, unit=False), one]]
        g = mat_mul(E, F)
    word = [("g", g)]
    for i in range(pair.t):
        word.append(("e", random_odd(vs, rng), i))
    return normalize_word(pair, coeff, word)


def test_builtin_pairs_validate(pairs):
    for name, pair in pairs.items():
        report = validate_hc_pair(pair)
        assert all(ok for ok, _ in report.values()), (name, report)


def test_lie_algebras(pairs):
    assert len(pairs["unipotent"].group.lie_basis()) == 1
    assert len(pairs["gl1-weight"].group.lie_basis()) == 1
    sl2 = pairs["sl2-standard"].group.lie_basis()
    assert len(sl2) == 3
    # sl2 consists of trace-zero matrices
    for x in sl2:
        assert x[0][0] + x[1][1] == QQ.zero


def test_group_closure_randomized(pairs):
    for pair in pairs.values():
        assert pair.group.check_closure_randomized(seed=5, trials=3)


# The group laws go through invert_even and the rewriting rules, whose
# coefficient arithmetic differs between Q and F_p and, over F_p, with the
# size of p.
HC_LAW_FIELDS = (QQ, F7, Field(11), Field(32003))
HC_LAW_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@functools.lru_cache(maxsize=None)
def hc_setting(field):
    """The Grassmann coefficient algebra on s, t, u, w and the built-in
    pairs over ``field``."""
    return lambda_algebra(("s", "t", "u", "w"), field), builtin_pairs(field)


@st.composite
def hc_elements(draw, count):
    """(pair, coeff, elements): ``count`` normal forms of one built-in pair
    over one of HC_LAW_FIELDS, drawn as ``random_element`` draws them."""
    coeff, pairs = hc_setting(draw(st.sampled_from(HC_LAW_FIELDS)))
    pair = pairs[draw(st.sampled_from(sorted(pairs)))]
    rng = draw(st.randoms())
    return pair, coeff, [random_element(pair, coeff, rng) for _ in range(count)]


@HC_LAW_SETTINGS
@given(hc_elements(3))
def test_group_axioms_randomized(case):
    pair, coeff, (a, b, c) = case
    ident = hc_identity(pair, coeff)
    assert hc_mul(hc_mul(a, b), c) == hc_mul(a, hc_mul(b, c))
    assert hc_mul(a, ident) == a and hc_mul(ident, a) == a
    assert hc_mul(a, hc_inv(a)) == ident
    assert hc_mul(hc_inv(a), a) == ident


@HC_LAW_SETTINGS
@given(hc_elements(2))
def test_rewriting_confluence(case):
    _, _, (a, b) = case
    assert hc_mul(a, b, strategy="left") == hc_mul(a, b, strategy="right")


def test_group_axioms_randomized_f7(pairs_f7, coeff_f7):
    rng = random.Random(31)
    for name, pair in pairs_f7.items():
        ident = hc_identity(pair, coeff_f7)
        for _ in range(10):
            a = random_element(pair, coeff_f7, rng)
            b = random_element(pair, coeff_f7, rng)
            c = random_element(pair, coeff_f7, rng)
            assert hc_mul(hc_mul(a, b), c) == hc_mul(a, hc_mul(b, c)), name
            assert hc_mul(a, ident) == a and hc_mul(ident, a) == a, name
            assert hc_mul(a, hc_inv(a)) == ident, name
            assert hc_mul(hc_inv(a), a) == ident, name


def test_rewriting_confluence_f7(pairs_f7, coeff_f7):
    rng = random.Random(32)
    for name, pair in pairs_f7.items():
        for _ in range(8):
            a = random_element(pair, coeff_f7, rng)
            b = random_element(pair, coeff_f7, rng)
            left = hc_mul(a, b, strategy="left")
            right = hc_mul(a, b, strategy="right")
            assert left == right, name


def check_unipotent_matrix_model(pairs, coeff):
    rng = random.Random(33)
    pair = pairs["unipotent"]
    for _ in range(25):
        a = random_element(pair, coeff, rng)
        b = random_element(pair, coeff, rng)
        lhs = unipotent_model_mul(
            unipotent_matrix_model(a), unipotent_matrix_model(b), coeff
        )
        rhs = unipotent_matrix_model(hc_mul(a, b))
        assert lhs == rhs


def test_unipotent_matrix_model(pairs, coeff):
    check_unipotent_matrix_model(pairs, coeff)


def test_unipotent_matrix_model_f7(pairs_f7, coeff_f7):
    check_unipotent_matrix_model(pairs_f7, coeff_f7)


def test_graded_criterion(pairs):
    assert not is_graded_pair(pairs["unipotent"])
    assert is_graded_pair(pairs["gl1-weight"])
    assert not is_graded_pair(pairs["sl2-standard"])
    for name, pair in pairs.items():
        g = gr_pair(pair)
        assert is_graded_pair(g)
        report = validate_hc_pair(g)
        assert all(ok for ok, _ in report.values()), name


def test_sdim_of_pairs(pairs):
    assert sdim_of_pair(pairs["unipotent"]).as_tuple() == (1, 1)
    assert sdim_of_pair(pairs["gl1-weight"]).as_tuple() == (1, 1)
    assert sdim_of_pair(pairs["sl2-standard"]).as_tuple() == (3, 2)


def test_invert_even(coeff):
    vs = coeff.vs
    u = vs.const(2) + vs.gen("s") * vs.gen("t")
    inv = invert_even(coeff, u)
    assert coeff.nf(u * inv) == vs.one()
    with pytest.raises(HCError):
        invert_even(coeff, vs.gen("s") * vs.gen("t"))  # zero constant term


def test_matrix_inverse(coeff):
    vs = coeff.vs
    st = vs.gen("s") * vs.gen("t")
    M = [[vs.one() + st, vs.gen("u") * vs.gen("w")], [vs.zero(), vs.one()]]
    Minv = mat_inverse(coeff, M)
    prod = [[coeff.nf(e) for e in row] for row in mat_mul(M, Minv)]
    assert prod == [[vs.one(), vs.zero()], [vs.zero(), vs.one()]]


def test_f_of_requires_square_zero(pairs, coeff):
    vs = coeff.vs
    group = pairs["unipotent"].group
    x = group.lie_basis()[0]
    b = vs.gen("s") * vs.gen("t")
    M = f_of(group, coeff, b, x)
    assert coeff.nf(M[0][1] - b.scale(x[0][1])).is_zero()
    with pytest.raises(HCError):
        f_of(group, coeff, vs.one(), x)  # 1^2 != 0


def test_normal_form_uniqueness(pairs, coeff):
    """The same element written in scrambled order normalizes identically."""
    rng = random.Random(34)
    pair = pairs["sl2-standard"]
    for _ in range(6):
        el = random_element(pair, coeff, rng)
        # rebuild with the exponentials in reverse order: e(a2,2) e(a1,1)
        word = [("g", el.g)]
        for i in range(pair.t - 1, -1, -1):
            if el.odd[i]:
                word.append(("e", el.odd[i], i))
        renorm = normalize_word(pair, coeff, word)
        # same group point: renormalizing the original word is a fixpoint
        assert normalize_word(pair, coeff, el.word()) == el
        # and the scrambled word still normalizes to a valid element whose
        # square under multiplication matches
        assert hc_mul(renorm, hc_inv(renorm)) == hc_identity(pair, coeff)


def test_word_membership_enforced(coeff):
    vs = coeff.vs
    pair = builtin_pairs(QQ)["unipotent"]
    bad_g = [[vs.const(2), vs.zero()], [vs.zero(), vs.one()]]  # g11 != 1
    with pytest.raises(HCError):
        normalize_word(pair, coeff, [("g", bad_g)])


def test_map_coefficients(pairs, coeff):
    from superalg.groebner import Morphism, SuperAlgebra
    from superalg.superpoly import VarSet

    rng = random.Random(35)
    pair = pairs["unipotent"]
    small = SuperAlgebra(VarSet((), ("s", "t"), QQ), [])
    # collapse u, w to zero: a coefficient-algebra morphism
    phi = Morphism(
        coeff,
        small,
        {"s": small.vs.gen("s"), "t": small.vs.gen("t"), "u": small.vs.zero(), "w": small.vs.zero()},
    )
    for _ in range(6):
        a = random_element(pair, coeff, rng)
        b = random_element(pair, coeff, rng)
        lhs = a.map_coefficients(phi)
        rhs = b.map_coefficients(phi)
        assert hc_mul(lhs, rhs) == hc_mul(a, b).map_coefficients(phi)


def test_pair_document_roundtrip(coeff):
    from superalg.dsl import parse_pair_document

    text = """
    hcpair unipotent
      size 2
      odd-dim 1
      rel g11 - 1; g22 - 1; g21
      rho 1
      bracket 1 1: 0, 2; 0, 0
    end
    """
    pair = parse_pair_document(text)
    report = validate_hc_pair(pair)
    assert all(ok for ok, _ in report.values())
    builtin = builtin_pairs(QQ)["unipotent"]
    assert pair.bracket == builtin.bracket
    rng = random.Random(36)
    a = random_element(builtin, coeff, rng)
    b = random_element(builtin, coeff, rng)
    a2 = normalize_word(pair, coeff, a.word())
    b2 = normalize_word(pair, coeff, b.word())
    assert hc_mul(a2, b2).g == hc_mul(a, b).g


def test_caches_never_serve_another_algebra():
    """Algebras built and dropped in turn reuse addresses; the inverse and
    rho caches must still tell Lambda(s,t)/(st) from Lambda(s,t)."""
    from superalg.groebner import SuperAlgebra
    from superalg.superpoly import VarSet

    vs = VarSet((), ("s", "t"), QQ)
    st = vs.gen("s") * vs.gen("t")
    M = [[vs.one() + st]]
    pair = builtin_pairs(QQ)["gl1-weight"]  # rho(g) = g11
    for i in range(200):
        if i % 2 == 0:
            A, g, g_inv = SuperAlgebra(vs, [st]), vs.one(), vs.one()
        else:
            A, g, g_inv = SuperAlgebra(vs, []), vs.one() + st, vs.one() - st
        assert mat_inverse(A, M) == [[g_inv]]
        assert pair.rho_at(A, M) == [[g]]


def test_caches_keep_q_and_fp_apart(monkeypatch):
    """A residue and a rational integer compare equal, so the same integer
    matrix over Q and over F_7 has the same terms; the inverse and rho
    caches must still answer each over its own field, in either order."""
    inverses = {QQ: [["1/2", "-1/2"], ["-1/2", "3/2"]], F7: [["4", "3"], ["3", "5"]]}
    for order in ((QQ, F7), (F7, QQ)):
        monkeypatch.setattr(hcgroup, "_INVERSE_CACHE", {})
        pair = builtin_pairs(QQ)["sl2-standard"]  # rho(g) = g
        for field in order:
            A = lambda_algebra(("s", "t"), field)
            M = [[A.vs.const(3), A.vs.one()], [A.vs.one(), A.vs.one()]]
            inverse = mat_inverse(A, M)
            assert [[str(e) for e in row] for row in inverse] == inverses[field]
            rho = pair.rho_at(A, M)
            assert [[str(e) for e in row] for row in rho] == [["3", "1"], ["1", "1"]]
            for e in [e for row in inverse + rho for e in row]:
                assert e.vs == A.vs


def test_hc_caches_never_exceed_the_bound(monkeypatch, coeff):
    """The inverse cache and each pair's rho cache share one bound: a full
    memo is emptied before it stores more, so neither ever grows past it."""
    bound = 5
    monkeypatch.setattr(hcgroup, "HC_CACHE_SIZE", bound)
    monkeypatch.setattr(hcgroup, "_INVERSE_CACHE", {})
    pair = builtin_pairs(QQ)["sl2-standard"]
    rng = random.Random(41)
    largest = [0, 0]
    for _ in range(12):
        a = random_element(pair, coeff, rng)
        assert hc_mul(a, hc_inv(a)) == hc_identity(pair, coeff)
        sizes = (len(hcgroup._INVERSE_CACHE), len(pair._rho_at_cache))
        assert max(sizes) <= bound
        largest = [max(m, s) for m, s in zip(largest, sizes)]
    assert largest == [bound, bound]  # both filled up, so both were emptied


def test_exhausted_caps_raise_hc_error(pairs, coeff):
    """Each bound on rewriting, on the geometric series of an inverse and on
    the exponential series ends in HCError, which the CLI maps to exit 2."""
    from superalg.groebner import SuperAlgebra
    from superalg.superpoly import VarSet

    vs = coeff.vs
    nu = vs.gen("s") * vs.gen("t") + vs.gen("u") * vs.gen("w")  # nu^3 = 0, nu^2 != 0
    word = random_element(pairs["sl2-standard"], coeff, random.Random(37)).word()
    word = word + word
    normalize_word(pairs["sl2-standard"], coeff, word)
    with pytest.raises(HCError, match="did not terminate within 2 steps"):
        normalize_word(pairs["sl2-standard"], coeff, word, max_steps=2)
    assert coeff.nf((vs.one() + nu) * invert_even(coeff, vs.one() + nu, cap=3)) == vs.one()
    with pytest.raises(HCError, match="not nilpotent"):
        invert_even(coeff, vs.one() + nu, cap=2)
    matrix_exp(coeff, [[nu]], cap=3)
    with pytest.raises(HCError, match="not nilpotent"):
        matrix_exp(coeff, [[nu]], cap=2)
    # with the default caps, on an even generator that is not nilpotent
    kx = SuperAlgebra(VarSet(("x",), (), QQ), [])
    with pytest.raises(HCError):
        invert_even(kx, kx.vs.one() + kx.vs.gen("x"))
    with pytest.raises(HCError):
        matrix_exp(kx, [[kx.vs.gen("x")]])
