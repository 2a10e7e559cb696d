"""Harish-Chandra pairs: axioms, normal forms, group laws, matrix model."""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superalg import hcgroup
from superalg.dsl import parse_pair_document
from superalg.hcgroup import (
    EvenGroupSpec,
    HCElement,
    HCError,
    _f_matrix,
    builtin_pairs,
    gr_pair,
    group_varset,
    hc_identity,
    hc_inv,
    hc_mul,
    identity_matrix,
    invert_even,
    is_graded_pair,
    lambda_algebra,
    mat_inverse,
    mat_mul,
    normalize_word,
    sdim_of_pair,
    unipotent_matrix_model,
    unipotent_model_mul,
    validate_hc_pair,
)
from superalg.scalars import QQ, Field

F7 = Field(7)
F11 = Field(11)
F32003 = Field(32003)


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


def matrix_exp(algebra, Nmat, cap=16):
    """exp of a matrix with nilpotent entries; terminates when the powers
    vanish."""
    n = len(Nmat)
    out = identity_matrix(n, algebra.vs.one())
    power = identity_matrix(n, algebra.vs.one())
    fact = 1
    for k in range(1, cap + 1):
        power = [[algebra.nf(e) for e in row] for row in mat_mul(power, Nmat)]
        if all(e.is_zero() for row in power for e in row):
            return [[algebra.nf(e) for e in row] for row in out]
        fact *= k
        out = [
            [out[i][j] + power[i][j].scale(Fraction(1, fact)) for j in range(n)]
            for i in range(n)
        ]
    raise HCError("matrix is not nilpotent")


def check_closure_randomized(group, seed, trials):
    """Closure of the group under products and inverses, checked on points
    exp(nilpotent * Lie element) over a purely odd coefficient algebra."""
    A = lambda_algebra(("s", "t", "u", "w"), group.field)
    rng = random.Random(seed)
    lie = group.lie_basis()
    s, t, u, w = (A.vs.gen(n) for n in "stuw")
    nilp = [s * t, u * w, s * w]
    N = group.N

    def sample():
        mat = [[A.vs.zero() for _ in range(N)] for _ in range(N)]
        for x in lie:
            c = rng.randint(-2, 2)
            nu = nilp[rng.randrange(len(nilp))]
            for i in range(N):
                for j in range(N):
                    mat[i][j] = mat[i][j] + nu.scale(c * x[i][j])
        return matrix_exp(A, mat)

    for _ in range(trials):
        g = sample()
        h = sample()
        group.contains_matrix(A, g)
        group.contains_matrix(A, mat_mul(g, h))
        group.contains_matrix(A, mat_inverse(A, g))


def test_group_closure_randomized(pairs):
    for pair in pairs.values():
        check_closure_randomized(pair.group, seed=5, trials=3)


# The group laws go through invert_even and the rewriting rules, whose
# coefficient arithmetic differs between Q and F_p and, over F_p, with the
# size of p.
HC_LAW_FIELDS = (QQ, F7, F11, F32003)
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


# Products and inverses on a closed pair skip the membership check that
# normalize_word makes on a raw word; on every built-in pair they must still
# be the checked normal forms of the same words.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from((QQ, F7)), st.sampled_from(sorted(hcgroup.BUILTIN_PAIRS)), st.randoms())
def test_trusted_products_are_the_checked_normal_forms(field, name, rng):
    coeff, pairs = hc_setting(field)
    pair = pairs[name]
    assert pair.closed
    a, b = random_element(pair, coeff, rng), random_element(pair, coeff, rng)
    reversed_word = [("e", -c, i) for i, c in reversed(list(enumerate(a.odd))) if c]
    reversed_word.append(("g", mat_inverse(coeff, a.g)))
    for trusted, word in ((hc_mul(a, b), a.word() + b.word()), (hc_inv(a), reversed_word)):
        assert pair.group.contains_matrix(coeff, trusted.g)
        assert trusted == normalize_word(pair, coeff, word)
        # entries already reduced and of the right parity
        assert HCElement(pair, coeff, trusted.g, trusted.odd) == trusted


def closure_proof(pair):
    """(group_closed, bracket_in_lie) as ``validate_hc_pair`` proves them."""
    return hcgroup._closure_proof(pair, hcgroup._two_point_algebra(pair.group))


NOT_A_GROUP = "hcpair notgroup\n  size 2\n  odd-dim 1\n  rel g11 + g22 - 2\n  rho 1\nend\n"
# the unipotent group with the bracket E11, which lies outside its Lie algebra
DIAGONAL = (
    "hcpair diagonal\n  size 2\n  odd-dim 1\n"
    "  rel g11 - 1; g22 - 1; g21\n  rho 1\n  bracket 1 1: 1, 0; 0, 0\nend\n"
)


@pytest.mark.parametrize("field", (QQ, F7), ids=("Q", "F7"))
def test_builtin_pairs_are_closed_by_the_proof(field):
    for name, pair in builtin_pairs(field).items():
        assert pair.closed, name
        assert closure_proof(pair) == ((True, None), (True, None)), name
        assert gr_pair(pair).closed, name
        validate_hc_pair(pair)
        assert pair.closed, name


@pytest.mark.parametrize("field", (QQ, F7), ids=("Q", "F7"))
def test_closure_proof_rejects_a_non_group_and_a_bracket_outside_lie(field):
    notgroup = parse_pair_document(NOT_A_GROUP, field)
    (ok, witness), in_lie = closure_proof(notgroup)
    assert not ok and witness.startswith("the product breaks g11 + g22")
    assert in_lie == (True, None)
    diagonal = parse_pair_document(DIAGONAL, field)
    assert closure_proof(diagonal) == (
        (True, None), (False, "bracket[0][0] outside the Lie algebra")
    )
    for pair in (notgroup, diagonal):
        assert not pair.closed
        validate_hc_pair(pair)
        assert not pair.closed and not gr_pair(pair).closed


def test_closure_proof_names_an_inverse_that_leaves_the_group():
    # {1, 2} in GL_1: the first equation holds on all products {1, 2, 4} but
    # not at the inverse 1/2
    text = "hcpair p\n  size 1\n  odd-dim 1\n  rel %s\n  rho 1\nend\n" % (
        "(g11 - 1)*(g11 - 2)*(g11 - 4); (g11 - 1)*(g11 - 2)"
    )
    (ok, witness), _ = closure_proof(parse_pair_document(text, QQ))
    assert (ok, witness) == (False, "the inverse breaks g11^3 - 7*g11^2 + 14*g11 - 8")


@pytest.mark.parametrize("validated", (False, True))
def test_products_on_an_unproven_pair_are_still_checked(validated):
    coeff = lambda_algebra(("s", "t", "u", "w"), QQ)
    vs = coeff.vs
    notgroup = parse_pair_document(NOT_A_GROUP)
    diagonal = parse_pair_document(DIAGONAL)
    if validated:
        validate_hc_pair(notgroup)
        validate_hc_pair(diagonal)
    g = normalize_word(notgroup, coeff, [("g", [[vs.const(2), vs.one()], [vs.one(), vs.zero()]])])
    with pytest.raises(HCError, match=r"^matrix leaves the group: g11 \+ g22 - 2 evaluates to 4$"):
        hc_mul(g, g)
    s, t = (normalize_word(diagonal, coeff, [("e", vs.gen(y), 0)]) for y in "st")
    with pytest.raises(HCError, match=r"^matrix leaves the group: g11 - 1 evaluates to -1/2\*st$"):
        hc_mul(s, t)


def check_unipotent_matrix_model(field, rng):
    coeff, pairs = hc_setting(field)
    pair = pairs["unipotent"]
    a = random_element(pair, coeff, rng)
    b = random_element(pair, coeff, rng)
    lhs = unipotent_model_mul(unipotent_matrix_model(a), unipotent_matrix_model(b), coeff)
    assert lhs == unipotent_matrix_model(hc_mul(a, b))


@HC_LAW_SETTINGS
@given(st.sampled_from((QQ, F7, F11)), st.randoms())
def test_unipotent_matrix_model(field, rng):
    check_unipotent_matrix_model(field, rng)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.randoms())
def test_unipotent_matrix_model_f7(rng):
    check_unipotent_matrix_model(F7, rng)


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


def f_of(group, algebra, b, x):
    """The dual-number exponential: the matrix I + b*x for an even b with
    b^2 = 0; checked to stay inside the group."""
    b = algebra.nf(b)
    if algebra.nf(b * b):
        raise HCError("square of %s is not zero" % b)
    M = _f_matrix(algebra, b, x)
    group.contains_matrix(algebra, M)
    return M


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
    # products trust their factors, so no element starts outside the group
    with pytest.raises(HCError, match="g11 - 1 evaluates to 1"):
        HCElement(pair, coeff, bad_g, [vs.zero()])


def map_coefficients(E, morphism):
    """Apply a coefficient-algebra morphism entrywise, then renormalize."""
    g = [[morphism.apply(e) for e in row] for row in E.g]
    word = [("g", g)] + [("e", morphism.apply(a), i) for i, a in enumerate(E.odd) if a]
    return normalize_word(E.pair, morphism.dst, word)


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
        lhs = map_coefficients(a, phi)
        rhs = map_coefficients(b, phi)
        assert hc_mul(lhs, rhs) == map_coefficients(hc_mul(a, b), phi)


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
    """Algebras built and dropped in turn reuse addresses; the rho(g^-1)
    memo must still tell Lambda(s,t)/(st) from Lambda(s,t)."""
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
        assert pair.rho_at_inverse(A, M) == [[g_inv]]
        assert mat_inverse(A, M) == [[g_inv]]
        assert pair.rho_at(A, M) == [[g]]


def test_caches_keep_q_and_fp_apart():
    """A residue and a rational integer compare equal, so the same integer
    matrix over Q and over F_7 has the same terms; the rho(g^-1) memo must
    still answer each over its own field, in either order."""
    inverses = {QQ: [["1/2", "-1/2"], ["-1/2", "3/2"]], F7: [["4", "3"], ["3", "5"]]}
    for order in ((QQ, F7), (F7, QQ)):
        pair = builtin_pairs(QQ)["sl2-standard"]  # rho(g) = g
        for field in order:
            A = lambda_algebra(("s", "t"), field)
            M = [[A.vs.const(3), A.vs.one()], [A.vs.one(), A.vs.one()]]
            for _ in range(2):  # a miss, then a hit
                rho_inv = pair.rho_at_inverse(A, M)
                assert [[str(e) for e in row] for row in rho_inv] == inverses[field]
                assert all(e.vs == A.vs for row in rho_inv for e in row)
            assert mat_inverse(A, M) == rho_inv
            assert [[str(e) for e in row] for row in pair.rho_at(A, M)] == [["3", "1"], ["1", "1"]]


def test_hc_caches_never_exceed_the_bound(monkeypatch, coeff):
    """A full memo is emptied before it stores more, so it never grows past
    HC_CACHE_SIZE."""
    bound = 5
    monkeypatch.setattr(hcgroup, "HC_CACHE_SIZE", bound)
    pair = builtin_pairs(QQ)["sl2-standard"]
    rng = random.Random(41)
    sizes = []
    for _ in range(12):
        a = random_element(pair, coeff, rng)
        assert hc_mul(a, hc_inv(a)) == hc_identity(pair, coeff)
        sizes.append(len(pair._rho_inverse))
    assert max(sizes) == bound
    # it filled up, and it shrank, which only emptying does
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))


def test_mat_inverse_runs_once_per_algebra_and_group_factor(monkeypatch):
    """Pushing several exponentials past the same g inverts g once for
    each coefficient algebra, whatever the strategy and however often the
    word is rewritten."""
    pushes, inversions = [], []
    rho_at_inverse = hcgroup.HCPair.rho_at_inverse

    def counted_rho_at_inverse(self, algebra, g):
        pushes.append(1)
        return rho_at_inverse(self, algebra, g)

    def counted_inverse(algebra, M):
        inversions.append(1)
        return mat_inverse(algebra, M)

    monkeypatch.setattr(hcgroup.HCPair, "rho_at_inverse", counted_rho_at_inverse)
    monkeypatch.setattr(hcgroup, "mat_inverse", counted_inverse)
    pair = builtin_pairs(QQ)["sl2-standard"]
    for field in (QQ, F7):
        A = lambda_algebra(("s", "t", "u", "w"), field)
        s, t, u, w = (A.vs.gen(n) for n in ("s", "t", "u", "w"))
        one, zero, st = A.vs.one(), A.vs.zero(), s * t
        for M in ([[one + st, zero], [zero, one - st]], [[one, st], [zero, one]]):
            word = [("e", u, 0), ("e", w, 1), ("g", M)]
            for strategy in ("left", "right", "left"):
                normalize_word(pair, A, word, strategy)
    assert len(inversions) == 4  # two algebras times two group factors
    assert len(pushes) >= 3 * len(inversions)


def test_hc_inv_inverts_the_group_part_once(monkeypatch):
    """On a fresh pair, hc_inv of an element with a nonzero odd coordinate
    inverts g once: the push past g^-1 reads rho((g^-1)^-1) = rho(g), which
    hc_inv stores under g^-1's key."""
    inversions = []

    def counted_inverse(algebra, M):
        inversions.append(1)
        return mat_inverse(algebra, M)

    monkeypatch.setattr(hcgroup, "mat_inverse", counted_inverse)
    for field in (QQ, F7):
        coeff, _ = hc_setting(field)
        vs = coeff.vs
        nil = vs.gen("s") * vs.gen("t")
        for name, odd in (("sl2-standard", [vs.gen("u"), vs.zero()]), ("gl1-weight", [vs.gen("w")])):
            pair = builtin_pairs(field)[name]
            if name == "gl1-weight":
                g = [[vs.const(2) + nil]]
            else:
                g = [[vs.one() + nil, vs.const(2)], [vs.zero(), vs.one() - nil]]
            E = HCElement(pair, coeff, g, odd)
            inversions.clear()
            E_inv = hc_inv(E)
            assert len(inversions) == 1
            assert E_inv == rescan_normalize_word(pair, coeff, hc_inv_word(E))
            assert hc_mul(E, E_inv) == hc_identity(pair, coeff)


def hc_inv_word(E):
    """The word hc_inv normalizes: the exponentials reversed and negated,
    then g^-1."""
    word = [("e", -E.odd[i], i) for i in range(E.pair.t - 1, -1, -1) if E.odd[i]]
    return word + [("g", mat_inverse(E.algebra, E.g))]


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


def test_an_exponential_coefficient_is_checked_by_its_image_in_bar(pairs, coeff, monkeypatch):
    """Rewriting needs each exponential coefficient in N, the ideal of the
    odd generators, and that is decided in bar(algebra) = algebra/N, not on
    the coefficient's raw terms."""
    from superalg.groebner import SuperAlgebra
    from superalg.superpoly import ParityError, VarSet

    pair = pairs["unipotent"]
    vs = VarSet(("x",), ("y1", "y2", "y3"), QQ)
    x, y1, y2, y3 = (vs.gen(g) for g in ("x", "y1", "y2", "y3"))
    A = SuperAlgebra(vs, [x - y1 * y2])
    # y3 + x - y1*y2 is y3 in A
    assert normalize_word(pair, A, [("e", y3 + x - y1 * y2, 0)]).odd == (y3,)
    # x = y1*y2 lies in N, so it rewrites, but it is not odd
    with pytest.raises(ParityError, match="odd coordinate y1y2 is not odd"):
        normalize_word(pair, A, [("e", x, 0)])
    with pytest.raises(HCError, match=r"^exponential coefficient x \+ 1 has a term of odd degree 0$"):
        normalize_word(pair, A, [("e", x + vs.one(), 0)])
    # over the Grassmann algebra: a constant term is rejected as the CLI
    # reports it, and an even coefficient in N still ends at HCElement
    s, t, u = (coeff.vs.gen(g) for g in ("s", "t", "u"))
    with pytest.raises(HCError, match=r"^exponential coefficient s \+ 1/2 has a term of odd degree 0$"):
        normalize_word(pair, coeff, [("e", s + coeff.vs.const(Fraction(1, 2)), 0)])
    with pytest.raises(ParityError, match="odd coordinate st is not odd"):
        normalize_word(pair, coeff, [("e", s * t, 0)])
    # an odd coefficient has no term of odd degree 0: no bar(algebra) is built
    monkeypatch.setattr(hcgroup, "bar", None)
    assert normalize_word(pair, coeff, [("e", u, 0)]).odd == (u,)


# ---------------------------------------------------------------------------
# The rewriting engine against a full-rescan reference


def rescan_normalize_word(pair, algebra, word, strategy="left", max_steps=100000):
    """The reference engine: it rebuilds the list of every rule position
    at every step and multiplies every correction out as a matrix."""
    word = list(word)
    field = algebra.vs.field
    half = field.of(Fraction(1, 2))

    def rule_positions():
        pos = []
        for k in range(len(word)):
            f = word[k]
            if f[0] == "e" and f[1].is_zero():
                pos.append(k)
                continue
            if k + 1 < len(word):
                nxt = word[k + 1]
                if f[0] == "g" and nxt[0] == "g":
                    pos.append(k)
                elif f[0] == "e" and nxt[0] == "g":
                    pos.append(k)
                elif f[0] == "e" and nxt[0] == "e" and f[2] >= nxt[2]:
                    pos.append(k)
        return pos

    steps = 0
    while True:
        steps += 1
        if steps > max_steps:
            raise HCError("rewriting did not terminate within %d steps" % max_steps)
        pos = rule_positions()
        if not pos:
            break
        k = pos[0] if strategy == "left" else pos[-1]
        f = word[k]
        if f[0] == "e" and f[1].is_zero():
            del word[k]
            continue
        nxt = word[k + 1]
        if f[0] == "g" and nxt[0] == "g":
            merged = [
                [algebra.nf(e) for e in row] for row in mat_mul(f[1], nxt[1])
            ]
            word[k : k + 2] = [("g", merged)]
        elif f[0] == "e" and nxt[0] == "g":
            # e(a, v_i) g  ->  g e(a, rho(g^-1) v_i), expanded over the basis
            M = nxt[1]
            Minv = mat_inverse(algebra, M)
            R = pair.rho_at(algebra, Minv)
            a, i = f[1], f[2]
            new = [("g", M)]
            for kk in range(pair.t):
                c = R[kk][i]
                if c:
                    coeff = algebra.nf(c * a)
                    if coeff:
                        new.append(("e", coeff, kk))
            word[k : k + 2] = new
        else:
            a, i = f[1], f[2]
            b, j = nxt[1], nxt[2]
            if i == j:
                corr = algebra.nf((a * b).scale(-1))
                new = []
                if corr:
                    x = pair.bracket[i, i]
                    xh = [[field.of(half * e) for e in row] for row in x]
                    if any(e for row in xh for e in row):
                        new.append(("g", _f_matrix(algebra, corr, xh)))
                merged = algebra.nf(a + b)
                if merged:
                    new.append(("e", merged, i))
                word[k : k + 2] = new
            else:
                corr = algebra.nf((a * b).scale(-1))
                new = []
                if corr:
                    x = pair.bracket[i, j]
                    if any(e for row in x for e in row):
                        new.append(("g", _f_matrix(algebra, corr, x)))
                new.extend([("e", b, j), ("e", a, i)])
                word[k : k + 2] = new
    # collapse: optional single leading group factor, exponentials ascending
    g = identity_matrix(pair.group.N, algebra.vs.one())
    odd = [algebra.vs.zero()] * pair.t
    for f in word:
        if f[0] == "g":
            g = [[algebra.nf(e) for e in row] for row in mat_mul(g, f[1])]
        else:
            odd[f[2]] = f[1]
    pair.group.contains_matrix(algebra, g)
    return HCElement(pair, algebra, g, odd)


def rewrite_outcome(normalize, pair, coeff, word, strategy, max_steps):
    """The normal form, or the type and message of the error raised."""
    try:
        el = normalize(pair, coeff, word, strategy=strategy, max_steps=max_steps)
    except (HCError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", el.g, el.odd


def is_capped(outcome, max_steps):
    return outcome == ("HCError", "rewriting did not terminate within %d steps" % max_steps)


def fewest_steps(normalize, pair, coeff, word, strategy):
    """The smallest ``max_steps`` at which rewriting is not cut off."""
    low, high = 0, 1
    while is_capped(rewrite_outcome(normalize, pair, coeff, word, strategy, high), high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        if is_capped(rewrite_outcome(normalize, pair, coeff, word, strategy, mid), mid):
            low = mid
        else:
            high = mid
    return high


def nilpotent_coefficient(vs, rng):
    """An exponential's coefficient: odd mostly, sometimes zero, even or of
    mixed parity; never with a constant term, so rewriting terminates."""
    s, t, u, w = (vs.gen(n) for n in "stuw")
    kind = rng.randrange(16)
    if kind == 0:
        return vs.zero()
    if kind == 1:
        return (s * t).scale(rng.randint(1, 2)) + u * w
    if kind == 2:
        return s + (t * u).scale(rng.randint(-1, 1))
    return random_odd(vs, rng)


def group_factor(pair, coeff, rng):
    """A group factor as ``random_element`` draws it; now and then a matrix
    outside the group or one that is not invertible."""
    vs = coeff.vs
    one, zero = vs.one(), vs.zero()
    kind = rng.randrange(12)
    if kind == 0:
        return [[one if i == j else zero for j in range(pair.group.N)] for i in range(pair.group.N)]
    if kind == 1:
        # not invertible: a nilpotent entry where a unit belongs
        bad = vs.gen("s") * vs.gen("t")
        return [[bad if i == j == 0 else (one if i == j else zero) for j in range(pair.group.N)]
                for i in range(pair.group.N)]
    if kind == 2:
        return [[vs.const(2) if i == j == 0 else (one if i == j else zero)
                 for j in range(pair.group.N)] for i in range(pair.group.N)]
    if pair.name == "gl1-weight":
        return [[random_even_invertible(vs, rng)]]
    E = [[one, random_even_invertible(vs, rng, unit=False)], [zero, one]]
    if pair.name == "unipotent":
        return E
    F = [[one, zero], [random_even_invertible(vs, rng, unit=False), one]]
    return mat_mul(E, F)


@st.composite
def raw_words(draw):
    """(pair, coeff, word): a raw word of 1 to 9 factors over Q, F_7 or
    F_32003."""
    coeff, pairs = hc_setting(draw(st.sampled_from((QQ, F7, F32003))))
    pair = pairs[draw(st.sampled_from(sorted(pairs)))]
    rng = draw(st.randoms())
    word = []
    for _ in range(draw(st.integers(1, 9))):
        if rng.randrange(3):
            word.append(("e", nilpotent_coefficient(coeff.vs, rng), rng.randrange(pair.t)))
        else:
            word.append(("g", group_factor(pair, coeff, rng)))
    return pair, coeff, word


@settings(max_examples=120, deadline=None, derandomize=True)
@given(raw_words(), st.sampled_from(("left", "right")))
def test_rewriting_matches_the_full_rescan(case, strategy):
    """Same normal form or same error, reached in the same number of steps:
    the engine applies the same rule at the same position at every step."""
    pair, coeff, word = case
    expected = rewrite_outcome(rescan_normalize_word, pair, coeff, word, strategy, 100000)
    assert rewrite_outcome(normalize_word, pair, coeff, word, strategy, 100000) == expected
    fewest = fewest_steps(rescan_normalize_word, pair, coeff, word, strategy)
    assert not is_capped(
        rewrite_outcome(normalize_word, pair, coeff, word, strategy, fewest), fewest
    )
    assert is_capped(
        rewrite_outcome(normalize_word, pair, coeff, word, strategy, fewest - 1), fewest - 1
    )


def test_unknown_strategy_is_rejected(pairs, coeff):
    word = [("e", coeff.vs.gen("s"), 0)]
    with pytest.raises(ValueError, match="strategy"):
        normalize_word(pairs["unipotent"], coeff, word, strategy="middle")


# ---------------------------------------------------------------------------
# Dual-number corrections: I + b*x with b = -a*a' for odd a, a', so b^2 = 0


def shc_unipotent_pair(field):
    from pathlib import Path

    from superalg.dsl import parse_pair_document

    path = Path(__file__).resolve().parent.parent / "data" / "unipotent.shc"
    return parse_pair_document(path.read_text(), field)


@pytest.mark.parametrize("field", (QQ, F7, F11), ids=("Q", "F7", "F11"))
def test_dual_number_identities(field):
    """For every bracket of the built-in pairs and data/unipotent.shc:
    (I + b*x)^-1 = I - b*x, rho(I - b*x) = rho(I) - b*drho(x), and
    g*(I + b*x) = g + b*(g*x), (I + b*x)*g = g + b*(x*g)."""
    coeff, pairs = hc_setting(field)
    vs = coeff.vs
    nf = coeff.nf
    rng = random.Random(43)
    for pair in list(pairs.values()) + [shc_unipotent_pair(field)]:
        N = pair.group.N
        for i in range(pair.t):
            for j in range(i + 1):
                correction = pair.correction(i, j)
                if correction is None:
                    assert not any(c for row in pair.bracket[i, j] for c in row)
                    continue
                x, dx = correction
                assert dx == pair.drho(x)
                for _ in range(3):
                    a, a2 = random_odd(vs, rng), random_odd(vs, rng)
                    b = nf((a * a2).scale(-1))
                    assert nf(b * b).is_zero()
                    plus = _f_matrix(coeff, b, x)
                    minus = [[nf(e) for e in row] for row in _f_matrix(coeff, -b, x)]
                    assert mat_inverse(coeff, plus) == minus
                    rho1 = pair.identity_action
                    assert pair.rho_at(coeff, minus) == [
                        [nf(vs.const(rho1[r][c]) - b.scale(dx[r][c])) for c in range(pair.t)]
                        for r in range(pair.t)
                    ]
                    g = random_element(pair, coeff, rng).g
                    gx = [[sum((g[r][k].scale(x[k][c]) for k in range(N)), vs.zero())
                           for c in range(N)] for r in range(N)]
                    xg = [[sum((g[k][c].scale(x[r][k]) for k in range(N)), vs.zero())
                            for c in range(N)] for r in range(N)]
                    right = [[nf(e) for e in row] for row in mat_mul(g, plus)]
                    left = [[nf(e) for e in row] for row in mat_mul(plus, g)]
                    assert right == [[nf(g[r][c] + b * gx[r][c]) for c in range(N)]
                                     for r in range(N)]
                    assert left == [[nf(g[r][c] + b * xg[r][c]) for c in range(N)]
                                    for r in range(N)]
                    dual = ("d", b, x, dx)
                    merge = hcgroup._merge_group_factors
                    assert merge(coeff, ("g", g), dual) == right
                    assert merge(coeff, dual, ("g", g)) == left
                    assert merge(coeff, dual, dual) == [
                        [nf(e) for e in row] for row in mat_mul(plus, plus)
                    ]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from((QQ, F7)), st.randoms())
def test_a_push_past_a_dual_factor_gives_the_column_form(field, rng):
    """e(a, v_i) (I + b*x), with a odd and b = -a'*a'' for odd a', a'',
    rewrites in one step to (I + b*x) e(c_0, v_0) ... e(c_t-1, v_t-1) with
    c_k = nf((rho(I)_ki - b*drho(x)_ki)*a): the column of rho(I - b*x)
    applied to v_i, times a."""
    coeff, pairs = hc_setting(field)
    vs, nf = coeff.vs, coeff.nf
    for pair in list(pairs.values()) + [shc_unipotent_pair(field)]:
        rho1 = pair.identity_action
        for i in range(pair.t):
            for j in range(i + 1):
                correction = pair.correction(i, j)
                if correction is None:
                    continue
                x, dx = correction
                a, a1, a2 = (random_odd(vs, rng) for _ in range(3))
                b = nf((a1 * a2).scale(-1))
                for k in range(pair.t):
                    g, odd = hcgroup._rewrite(pair, coeff, [("e", a, k), ("d", b, x, dx)], max_steps=2)
                    assert g == [[nf(e) for e in row] for row in _f_matrix(coeff, b, x)]
                    assert odd == [
                        nf((vs.const(rho1[kk][k]) - b.scale(dx[kk][k])) * a) for kk in range(pair.t)
                    ]
