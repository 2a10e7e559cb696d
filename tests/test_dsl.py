"""Text-format parsing and error spans."""

import functools
import operator
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superalg.dsl import (
    ParseError,
    TokenStream,
    parse_assignments,
    parse_document,
    parse_element_word,
    parse_images,
    parse_pair_document,
    parse_poly,
    parse_poly_list,
    _uniquely_decodable,
)
from superalg.hcgroup import lambda_algebra, unipotent_pair
from superalg.scalars import QQ, Field, FieldError
from superalg.superpoly import VarSet

from conftest import random_poly


@pytest.fixture
def vs():
    return VarSet(("x1", "x2"), ("y1", "y2", "y3"), QQ)


def test_parse_poly_basics(vs):
    assert parse_poly("x1", vs) == vs.gen("x1")
    assert parse_poly("3*x1^2*y1y3 - 1/2*y2", vs) == (
        vs.gen("x1") ** 2 * vs.gen("y1") * vs.gen("y3")
    ).scale(3) - vs.gen("y2").scale(Fraction(1, 2))
    assert parse_poly("(x1 + 1)^2", vs) == (vs.gen("x1") + vs.one()) ** 2
    assert parse_poly("-x1 + +x2", vs) == -vs.gen("x1") + vs.gen("x2")
    assert parse_poly("0", vs).is_zero()


def test_odd_concatenation_resolution(vs):
    assert parse_poly("y1y3", vs) == vs.gen("y1") * vs.gen("y3")
    assert parse_poly("y3y1", vs) == vs.gen("y3") * vs.gen("y1")
    # the concatenated form carries the written order and hence the sign
    assert parse_poly("y3y1", vs) == -parse_poly("y1y3", vs)


def test_render_parse_roundtrip(vs, rng):
    for _ in range(200):
        p = random_poly(vs, rng)
        assert parse_poly(p.render(), vs) == p


def test_parse_errors_carry_spans(vs):
    with pytest.raises(ParseError) as e:
        parse_poly("x1 *", vs)
    assert e.value.line == 1
    with pytest.raises(ParseError) as e:
        parse_poly("x1 + zz", vs)
    assert "zz" in str(e.value)
    with pytest.raises(ParseError):
        parse_poly("x1 x2", vs)  # implicit product is not in the grammar


def test_parse_document():
    text = """
    # a comment
    superalgebra A
      even x
      odd y1 y2
      rel x*y1y2; x^2 - y1*y2
    end

    derivation phi
      y1 -> 1
      y2 -> x
    end

    point p
      x = 1/2
    end
    """
    m = parse_document(text)
    A = m.algebra
    assert A.vs.even == ("x",)
    assert A.vs.odd == ("y1", "y2")
    assert len(A.relations) == 2
    assert m.derivations == {"phi": {"y1": A.vs.one(), "y2": A.vs.gen("x")}}
    assert m.points == {"p": {"x": QQ.of(Fraction(1, 2))}}


def document_data(m):
    return m.algebra.vs, m.algebra.relations, m.derivations, m.points


def test_document_roundtrip():
    m = parse_document("superalgebra A even x odd y1 y2 rel x*y1y2 - y2*y1; x^2 end "
                       "derivation d y1 -> x*y2 end point p x = -1/3 end")
    vs, relations = m.algebra.vs, m.algebra.relations
    # the same data, written out from what was parsed, parses back to it
    text = "superalgebra A\n  even %s\n  odd %s\n  rel %s\nend\n" % (
        " ".join(vs.even), " ".join(vs.odd), "; ".join(r.render() for r in relations))
    text += "derivation d\n%send\n" % "".join("  %s -> %s\n" % (n, f.render()) for n, f in m.derivations["d"].items())
    text += "point p\n%send\n" % "".join("  %s = %s\n" % (n, vs.field.render(v)) for n, v in m.points["p"].items())
    assert document_data(parse_document(text)) == document_data(m)
    assert relations == [parse_poly("x*y1y2 + y1y2", vs), parse_poly("x^2", vs)]


ENTRY_LISTS = (
    # (derivation entries, point entries)
    ("y1 -> 1; y2 -> x", "x = 1/2; z = -3"),
    ("y1 -> 1, y2 -> x", "x = 1/2, z = -3"),
    ("y1 -> 1;, y2 -> x;", "x = 1/2; z = -3,"),
    ("y1 -> 1\n  y2 -> x", "x = 1/2\n  z = -3"),
)


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("header", ["", ":"])
@pytest.mark.parametrize("images, values", ENTRY_LISTS)
def test_blocks_and_inline_fragments_read_the_same_entries(field, header, images, values):
    m = parse_document(
        "superalgebra A\n  even x z\n  odd y1 y2\nend\n"
        "derivation d%s\n  %s\nend\npoint p%s\n  %s\nend\n" % (header, images, header, values),
        field,
    )
    vs = m.algebra.vs
    assert m.derivations["d"] == parse_images(images, vs) == {"y1": vs.one(), "y2": vs.gen("x")}
    assert m.points["p"] == parse_assignments(values, vs) == {"x": field.of(Fraction(1, 2)), "z": field.of(-3)}


def test_single_line_form():
    m = parse_document("superalgebra B odd y1 y2 end")
    assert m.algebra.vs.odd == ("y1", "y2")
    assert m.algebra.relations == []
    # "on" is no keyword, so it may name a generator
    assert parse_document("superalgebra C even on end").algebra.vs.even == ("on",)


def test_document_errors():
    with pytest.raises(ParseError):
        parse_document("superalgebra A even x rel x* end")
    with pytest.raises(ParseError):
        parse_document("derivation f y -> 1 end")  # before any algebra
    with pytest.raises(ParseError):
        parse_document("superalgebra A even x end superalgebra B even z end")


def test_inline_fragments(vs):
    assert parse_assignments("x1 = 2; x2 = -1/3", vs) == {
        "x1": QQ.of(2),
        "x2": QQ.of(Fraction(-1, 3)),
    }
    images = parse_images("x1 -> x2; y1 -> y2", vs)
    assert images == {"x1": vs.gen("x2"), "y1": vs.gen("y2")}
    seq = parse_poly_list("y1, y2 + y3", vs)
    assert seq == [vs.gen("y1"), vs.gen("y2") + vs.gen("y3")]
    with pytest.raises(ParseError):
        parse_assignments("y1 = 1", vs)  # odd generator cannot take a value


def error_at(parse, text):
    with pytest.raises(ParseError) as e:
        parse(text)
    return e.value.line, e.value.col


def test_pair_document_odd_dim_spelling_and_repeated_directives():
    # odd must be followed by -dim
    assert parse_pair_document("hcpair p\n  size 2\n  odd-dim 1\n  rho 1\nend\n").name == "p"
    assert error_at(parse_pair_document, "hcpair p\n  size 2\n  odd 1\n  rho 1\nend\n") == (3, 7)
    assert error_at(parse_pair_document, "hcpair p\n  size 2\n  odd - 1\n  rho 1\nend\n") == (3, 9)
    assert error_at(parse_pair_document, "hcpair p\n  size 2\n  odddim 1\n  rho 1\nend\n") == (3, 3)
    # size, odd-dim, rho and each bracket may be given once
    body = "  size 2\n  odd-dim 1\n  rho 1\n  bracket 1 1: 0, 2; 0, 0\n"
    assert parse_pair_document("hcpair p\n%send\n" % body).name == "p"
    for extra in ("size 2", "odd-dim 1", "rho 1", "bracket 1 1: 0, 0; 0, 0"):
        assert error_at(parse_pair_document, "hcpair p\n%s  %s\nend\n" % (body, extra)) == (6, 3), extra
    # a bracket is symmetric, so 2 1 repeats 1 2; rel may repeat
    two = "  size 2\n  odd-dim 2\n  rho 1, 0; 0, 1\n  rel g21\n  rel g12\n"
    once = "hcpair p\n%s  bracket 1 2: 0, 0; 0, 0\n" % two
    assert parse_pair_document(once + "end\n")
    assert error_at(parse_pair_document, once + "  bracket 2 1: 0, 0; 0, 0\nend\n") == (8, 3)


def test_structural_errors_name_the_token_that_decides_them():
    def message(parse, text):
        with pytest.raises(ParseError) as e:
            parse(text)
        return str(e.value)

    shc = "# a pair\nhcpair p\n%s\nend\n"
    for body, want in (
        ("  odd-dim 1\n  rho 1", "line 2, column 1: hcpair needs both size and odd-dim"),
        ("  size 2\n  rho 1", "line 2, column 1: hcpair needs both size and odd-dim"),
        ("  size 2\n  odd-dim 1", "line 2, column 1: hcpair needs a rho block"),
        ("  size 2\n  odd-dim 2\n  rho 1", "line 5, column 3: rho must be a 2 x 2 matrix"),
        (
            "  size 2\n  odd-dim 2\n  rho 1, 0; 0, 1\n  bracket 1 2: 0, 0; 0, 0\n"
            "  bracket 2 2: 0, 0, 0; 0, 0, 0",
            "line 7, column 3: bracket 2 2 must be a 2 x 2 matrix",
        ),
    ):
        assert message(parse_pair_document, shc % body) == want, body
    assert message(parse_pair_document, shc % "  size 2\n  odd-dim 1\n  rho 1\n  bracket 1 1: 0, g12; 0, 0") == (
        "line 6, column 19: bracket entries must be scalars, got g12"
    )
    pair = unipotent_pair(QQ)
    vs = lambda_algebra(("s", "t", "u", "w"), QQ).vs

    def word(text):
        return parse_element_word(text, pair, vs)

    assert message(word, "e(u, 1) g[[1,s]] e(t,1)") == "line 1, column 9: group factor must be a 2 x 2 matrix"
    assert message(word, "e(t, 2)") == "line 1, column 6: basis index 2 out of range 1..1"
    assert message(word, "  ") == "line 1, column 3: empty element word"
    salg = "superalgebra A\n  even x y\n  odd z\n  %s\nend\n"
    assert message(parse_document, salg % "odd x") == (
        "line 4, column 7: generator names must be unique: ('x', 'y', 'z', 'x')"
    )
    assert message(parse_document, salg % "even z y") == (
        "line 4, column 8: generator names must be unique: ('x', 'y', 'z', 'y', 'z')"
    )
    # z and w1..w69 are 70 odd names; w63 is the 64th, one past the limit
    assert message(parse_document, salg % ("odd " + " ".join("w%d" % i for i in range(1, 70)))) == (
        "line 4, column 246: at most 63 odd generators (bitmask representation)"
    )


def test_a_token_that_continues_no_expression_is_an_error():
    salg = "superalgebra A\n  even x\n  odd y\n  rel %s\nend\n"
    assert error_at(parse_document, salg % "x y") == (4, 9)
    assert error_at(parse_document, salg % "x*y 3") == (4, 11)
    assert error_at(parse_document, salg % "x*y\n  rell x") == (5, 3)
    shc = "hcpair p\n  size 2\n  odd-dim 1\n  rho %s\nend\n"
    assert error_at(parse_pair_document, shc % "1 g12") == (4, 9)
    assert error_at(parse_pair_document, shc % "1\n  bracket 1 1: 0, 2 1; 0, 0") == (5, 21)
    assert error_at(parse_pair_document, shc % "1\n  brackt 1 1: 0, 2; 0, 0") == (5, 3)
    assert error_at(parse_pair_document, shc % "1\nend\n  bracket 1 1: 0, 2; 0, 0") == (6, 3)


def test_declarations_may_follow_their_use():
    canonical = parse_document("superalgebra A\n  even x\n  odd y1 y2\n  rel x*y1y2; x^2 - y1*y2\nend\n")
    late = parse_document("superalgebra A\n  rel x*y1y2\n  odd y1\n  even x\n  rel x^2 - y1*y2\n  odd y2\nend\n")
    assert document_data(late) == document_data(canonical)
    body = ("  size 2", "  odd-dim 1", "  rel g11 - 1; g22 - 1; g21", "  rho g11", "  bracket 1 1: 0, 2; 0, 0")

    def pair(order):
        p = parse_pair_document("hcpair p\n%s\nend\n" % "\n".join(body[k] for k in order))
        g = p.group
        return g.N, g.defining, p.t, p.rho, p.bracket

    assert pair((2, 3, 4, 1, 0)) == pair((0, 1, 2, 3, 4))


# ---------------------------------------------------------------------------
# tokens and terms against oracles

# The tokenizer as it was before tokens became (kind, text, offset) tuples,
# kept verbatim as the reference for kinds, texts, lines, columns and errors.
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow>->)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[-+*^/();=:,\[\]])
    """,
    re.VERBOSE,
)


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return "Token(%s, %r)" % (self.kind, self.text)


# CPython refuses to convert longer digit strings to int (the default of
# sys.get_int_max_str_digits), so a longer literal is a parse error.
MAX_INT_DIGITS = 4300


def tokenize(text):
    tokens = []
    line = 1
    linestart = 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                "unexpected character %r" % text[pos], line, pos - linestart + 1
            )
        kind = m.lastgroup
        value = m.group()
        col = pos - linestart + 1
        if kind in ("ws", "comment"):
            for i, ch in enumerate(value):
                if ch == "\n":
                    line += 1
                    linestart = pos + i + 1
        else:
            if kind == "int" and len(value) > MAX_INT_DIGITS:
                raise ParseError("integer literal too long", line, col)
            tokens.append(Token(kind, value, line, col))
        pos = m.end()
    tokens.append(Token("eof", "", line, len(text) - linestart + 1))
    return tokens


def outcome(read):
    """What read() returns, or the message and position of its ParseError."""
    try:
        return read()
    except ParseError as e:
        return str(e), e.line, e.col


def positioned(text):
    """(kind, text, line, column) of each token; the position is read off
    the ParseError that the stream raises at the token."""
    stream = TokenStream(text)
    out = []
    for t in stream.tokens:
        _, line, col = outcome(functools.partial(stream.error, "", t))
        out.append((t[0], t[1], line, col))
    return out


FRAGMENTS = (
    "x", "y1", "y2", "y1y2", "x1", "z", "*", "+", "-", "^", "(", ")", ";", ",", "/", "0", "2", "7",
    "1/2", "5/7", "->", "=", ":", "[", "]", "rel", "end", "odd", "# a comment", "#", "\n", "\n\n",
    " ", "\t", "\r\n", "\x0b", "\xa0", "@", "!", "é", "$", "٣", "9" * 4301,
)  # fmt: skip


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=30).map("".join))
def test_tokens_and_their_positions_match_the_reference_tokenizer(text):
    want = outcome(lambda: [(t.kind, t.text, t.line, t.col) for t in tokenize(text)])
    assert outcome(lambda: positioned(text)) == want


FIELDS = pytest.mark.parametrize("field", [QQ, Field(7)], ids=["Q", "F7"])
NAMES = ("x1", "x2", "y1", "y2", "y3")
CONCATENATIONS = ("y1y3", "y3y1", "y2y1y3", "y1y1", "y3y2y1")


def factors(vs):
    """(text, oracle) of a factor: a number, a fraction, a generator, a
    concatenation of odd names, or a power of one of these; the oracle
    builds the same value with SuperPoly arithmetic, or is the FieldError
    that building it raises."""

    def const(c):
        try:
            return vs.const(c)
        except FieldError as e:
            return e

    def concatenation(text):
        return functools.reduce(operator.mul, (vs.gen(n) for n in re.findall(r"y\d", text)))

    base = st.one_of(
        st.integers(0, 9).map(lambda n: (str(n), const(n))),
        st.tuples(st.integers(0, 9), st.sampled_from((1, 2, 3, 7))).map(
            lambda nd: ("%d/%d" % nd, const(Fraction(*nd)))
        ),
        st.sampled_from(NAMES).map(lambda n: (n, vs.gen(n))),
        st.sampled_from(CONCATENATIONS).map(lambda n: (n, concatenation(n))),
    )

    def power(drawn):
        (text, value), k = drawn
        if isinstance(value, FieldError):
            return text + "^%d" % k, value
        return "%s^%d" % (text, k), value**k

    return st.one_of(base, st.tuples(base, st.integers(0, 3)).map(power))


@FIELDS
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_product_term_equals_the_superpoly_product_of_its_factors(field, data):
    vs = VarSet(("x1", "x2"), ("y1", "y2", "y3"), field)
    drawn = data.draw(st.lists(factors(vs), min_size=1, max_size=5))
    text = "*".join(t for t, _ in drawn)
    errors = [v for _, v in drawn if isinstance(v, FieldError)]
    if errors:
        with pytest.raises(FieldError) as e:
            parse_poly(text, vs)
        assert str(e.value) == str(errors[0])
    else:
        assert parse_poly(text, vs) == functools.reduce(operator.mul, (v for _, v in drawn))


@FIELDS
def test_named_product_cases(field):
    vs = VarSet(("x",), ("y1", "y2"), field)
    x, y1, y2 = vs.gen("x"), vs.gen("y1"), vs.gen("y2")
    assert parse_poly("y2*y1", vs) == y2 * y1 == -(y1 * y2)
    assert parse_poly("y2y1", vs) == parse_poly("y2*y1", vs)
    assert parse_poly("y1*y1", vs).is_zero() and parse_poly("y1y1", vs).is_zero()
    assert parse_poly("x^0", vs) == parse_poly("y1^0", vs) == parse_poly("0^0", vs) == vs.one()
    assert parse_poly("2*x^2*y1y2*1/2", vs) == x**2 * y1 * y2
    assert parse_poly("3*(x + y1)*y2", vs) == (x + y1).scale(3) * y2
    assert parse_poly("-y2*-y1", vs) == y2 * y1
    assert parse_poly("2*-x^2", vs) == (x**2).scale(-2)
    if field.char == 7:
        with pytest.raises(FieldError):
            parse_poly("5/7", vs)
        assert parse_poly("7*x", vs).is_zero()
    else:
        assert parse_poly("5/7", vs) == vs.const(Fraction(5, 7))


def test_bounds_keep_their_messages_and_positions(vs):
    for text, want in (
        ("x1^65", ("line 1, column 4: exponent too large", 1, 4)),
        ("y1y2^33", ("line 1, column 6: exponent too large", 1, 6)),
        ("2*x1^", ("line 1, column 6: expected an integer exponent", 1, 6)),
        # one exponent per power, signed or not
        ("2*x1^2^3", ("line 1, column 7: trailing input after polynomial", 1, 7)),
        ("2*-x1^2^3", ("line 1, column 8: trailing input after polynomial", 1, 8)),
        ("(" * 101 + "x1" + ")" * 101, ("line 1, column 102: expression nested too deeply", 1, 102)),
        ("-" * 102 + "x1", ("line 1, column 103: expression nested too deeply", 1, 103)),
        ("1/0*x1", ("line 1, column 3: zero denominator", 1, 3)),
        ("x1*\n  " + "9" * 4301, ("line 2, column 3: integer literal too long", 2, 3)),
        ("x1 # c\n @", ("line 2, column 2: unexpected character '@'", 2, 2)),
    ):
        assert outcome(lambda: parse_poly(text, vs)) == want, text
    vs = VarSet(("a", "b", "c"), (), QQ)
    cube = [(i, j, k) for i in range(18) for j in range(18) for k in range(18)]
    sums = "(%s)" % " + ".join("a^%d*b^%d*c^%d" % e for e in cube)
    assert outcome(lambda: parse_poly("2*" + sums, vs)) == (
        "line 1, column 2: expression could build 5832 terms, more than 5000", 1, 2
    )
    assert parse_poly("0*" + sums, vs).is_zero()


# ---------------------------------------------------------------------------
# odd names split exactly, and only one way; a repeated name is an error at
# the repeat


def test_odd_identifiers_split_over_every_reading():
    algebra = parse_document("superalgebra A\n  even x\n  odd a ab bc\n  rel x*a*bc\nend\n").algebra
    vs = algebra.vs
    (rel,) = algebra.relations
    assert rel.render() == "x*abc"
    assert parse_poly(rel.render(), vs) == rel == vs.gen("x") * vs.gen("a") * vs.gen("bc")
    salg = "superalgebra A\n  even x\n  odd %s\n  rel %s\nend\n"
    # odd names under which a concatenation reads two ways (aba is a*ba and
    # ab*a) are an error at the name after which they do, used or not
    for rel in ("x*aba", "x*a*ba", "x"):
        assert outcome(lambda: parse_document(salg % ("a ab ba", rel)))[0] == (
            "line 3, column 12: odd name 'ba' lets a concatenation of odd names read two ways"
        )
    # an odd name that is also a concatenation of odd names
    assert error_at(parse_document, salg % ("a b ab", "x*a*b")) == (3, 11)
    assert error_at(parse_document, salg % ("ab a b", "x")) == (3, 12)
    assert error_at(parse_document, salg % ("a aa", "x")) == (3, 9)
    # an even name that is a concatenation of odd names
    assert outcome(lambda: parse_document("superalgebra A\n  even ab\n  odd a b\nend\n"))[0] == (
        "line 2, column 8: 'ab' reads as both ab and a*b"
    )
    # numbered names keep their one reading
    ys = " ".join("y%d" % i for i in range(1, 13))
    vs = parse_document(salg % (ys, "x*y1y12*y11")).algebra.vs
    assert parse_poly("y1y12y11", vs) == vs.gen("y1") * vs.gen("y12") * vs.gen("y11")


def factorizations(word, names):
    """The number of ways to write word as a concatenation of names."""
    ways = [1] + [0] * len(word)
    for i in range(len(word)):
        for name in names:
            if ways[i] and word.startswith(name, i):
                ways[i + len(name)] += ways[i]
    return ways[-1]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sets(st.text("ab", min_size=1, max_size=3), min_size=2, max_size=4))
def test_unique_decodability_matches_a_search_of_short_words(names):
    # over these names a shortest word with two readings has at most 12
    # letters (checked over every such set)
    names = tuple(sorted(names))
    words, todo = set(), [""]
    while todo:
        w = todo.pop()
        for name in names:
            if len(w + name) <= 12 and w + name not in words:
                words.add(w + name)
                todo.append(w + name)
    assert _uniquely_decodable(names) == all(factorizations(w, names) == 1 for w in words)


def test_a_long_identifier_is_split_in_bounded_time():
    start = time.perf_counter()
    vs = VarSet(("x",), ("a", "b"), QQ)
    assert parse_poly("ab" * 50000, vs).is_zero()
    vs = VarSet(("x",), ("a", "ab"), QQ)
    assert outcome(lambda: parse_poly("a" * 100000 + "c", vs))[1:] == (1, 1)
    assert time.perf_counter() - start < 2


def test_a_repeated_entry_or_block_name_is_an_error_at_the_repeat(vs):
    assert error_at(lambda t: parse_assignments(t, vs), "x1 = 1; x1 = 0") == (1, 9)
    assert error_at(lambda t: parse_images(t, vs), "y1 -> 1;\n y2 -> x1, y1 -> 0") == (2, 12)
    assert outcome(lambda: parse_images("y1 -> 1; y1 -> 1/0", vs))[0] == (
        "line 1, column 10: repeated entry for 'y1'"
    )
    salg = "superalgebra A\n  even x\n  odd y\nend\n"
    assert error_at(parse_document, salg + "derivation d\n  y -> 1\n  y -> x\nend\n") == (7, 3)
    assert error_at(parse_document, salg + "point p\n  x = 1; x = 0\nend\n") == (6, 10)
    for kind, entry in (("derivation", "y -> 1"), ("point", "x = 0")):
        text = salg + "%s d\n  %s\nend\n%s d\n  %s\nend\n" % (kind, entry, kind, entry)
        assert outcome(lambda: parse_document(text))[0] == "line 8, column %d: repeated %s 'd'" % (
            len(kind) + 2, kind,
        )
    # the same name may name a derivation and a point
    m = parse_document(salg + "derivation d y -> 1 end point d x = 0 end")
    assert list(m.derivations) == list(m.points) == ["d"]
