"""Text format for superalgebra presentations, derivations, points and
pairs, plus the polynomial expression grammar used everywhere on the
command line.

Example document::

    superalgebra A
      even x
      odd y1 y2
      rel x*y1y2
    end

Identifiers made of concatenated odd names (the canonical rendering,
e.g. ``y1y2``) are resolved greedily into products of odd generators.

Each construct has one reader.  A ``derivation`` or ``point`` block and
the same entries given inline on the command line (``--derivation`` or
``--images``, ``--point``) go through one entry-list reader: the entries
may be separated by ``;`` or ``,``, and the list stops at ``end`` in a
block and at the end of the input inline.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

from superalg.groebner import SuperAlgebra
from superalg.superpoly import StructureError, VarSet


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = "line %d, column %d: %s" % (line, col, message)
        super().__init__(message)
        self.line = line
        self.col = col


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

KEYWORDS = {
    "superalgebra",
    "hcpair",
    "derivation",
    "point",
    "even",
    "odd",
    "rel",
    "end",
    "size",
    "rho",
    "bracket",
}


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


class TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self, ahead=0):
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self):
        t = self.peek()
        if t.kind != "eof":
            self.i += 1
        return t

    def expect(self, text):
        t = self.peek()
        if t.text != text:
            raise ParseError("expected %r, found %r" % (text, t.text or "end of input"), t.line, t.col)
        return self.next()

    def at_keyword(self):
        t = self.peek()
        return t.kind == "ident" and t.text in KEYWORDS

    def error(self, message):
        t = self.peek()
        raise ParseError(message, t.line, t.col)


# ---------------------------------------------------------------------------
# polynomial expressions


def resolve_name(vs, name, tok):
    """A generator name, or a greedy concatenation of odd names."""
    if name in vs.even or name in vs.odd:
        return vs.gen(name)
    # greedy longest-match split into odd generator names
    parts = []
    rest = name
    while rest:
        for cand in sorted(vs.odd, key=len, reverse=True):
            if rest.startswith(cand):
                parts.append(cand)
                rest = rest[len(cand) :]
                break
        else:
            raise ParseError("unknown generator %r" % name, tok.line, tok.col)
    out = vs.one()
    for p in parts:
        out = out * vs.gen(p)
    return out


class PolyParser:
    """Recursive-descent parser for `3*x^2*y1y2 - 1/2*y1 + (x - 1)^3`."""

    # Each parenthesis costs four Python frames and each unary sign two, so
    # this keeps any expression well inside the interpreter's recursion
    # limit; deeper input is a parse error, not a crash.
    MAX_DEPTH = 100
    # (x + 1)^n has n + 1 terms and costs about n products to build, so an
    # unbounded exponent is unbounded work.  The bound applies to the
    # exponent times the base's degree, so ((x + 1)^64)^64 cannot escape
    # it; shipped inputs stay below 6.
    MAX_EXPONENT = 64
    # A product of sums multiplies term counts, so a small exponent over
    # many generators still explodes: (a + ... + j + 1)^8 in ten even
    # generators has 43,758 terms.  Each product or power is refused
    # before it is built when its term count could exceed this: len(a) *
    # len(b) for a product, the number of degree-k monomials in len(base)
    # symbols for a power.  Inputs in data/, tests/ and the benchmark pools
    # reach at most 65, at (x + 1)^64.
    MAX_TERMS = 5000

    def __init__(self, stream, vs):
        self.s = stream
        self.vs = vs
        self.depth = 0

    def _enter(self):
        self.depth += 1
        if self.depth > self.MAX_DEPTH:
            self.s.error("expression nested too deeply")

    def _bound_terms(self, count, tok):
        if count > self.MAX_TERMS:
            raise ParseError(
                "expression could build %d terms, more than %d" % (count, self.MAX_TERMS),
                tok.line,
                tok.col,
            )

    def parse(self):
        return self._sum()

    def _sum(self):
        t = self.s.peek()
        negate = False
        if t.text in ("+", "-"):
            self.s.next()
            negate = t.text == "-"
        acc = self._product()
        if negate:
            acc = -acc
        while True:
            t = self.s.peek()
            if t.text == "+":
                self.s.next()
                acc = acc + self._product()
            elif t.text == "-":
                self.s.next()
                acc = acc - self._product()
            else:
                return acc

    def _product(self):
        acc = self._power()
        while True:
            t = self.s.peek()
            if t.text == "*":
                self.s.next()
                rhs = self._power()
                self._bound_terms(len(acc.terms) * len(rhs.terms), t)
                acc = acc * rhs
            else:
                return acc

    def _power(self):
        base = self._atom()
        t = self.s.peek()
        if t.text == "^":
            self.s.next()
            e = self.s.peek()
            if e.kind != "int":
                self.s.error("expected an integer exponent")
            k = int(e.text)
            if k * max(base.total_degree(), 1) > self.MAX_EXPONENT:
                self.s.error("exponent too large")
            self._bound_terms(math.comb(max(len(base.terms), 1) + k - 1, k), e)
            self.s.next()
            return base ** k
        return base

    def _atom(self):
        t = self.s.peek()
        if t.text in ("+", "-"):
            self.s.next()
            self._enter()
            inner = self._power()
            self.depth -= 1
            return -inner if t.text == "-" else inner
        if t.kind == "int":
            self.s.next()
            num = int(t.text)
            if self.s.peek().text == "/":
                self.s.next()
                return self.vs.const(Fraction(num, _parse_denominator(self.s)))
            return self.vs.const(num)
        if t.kind == "ident" and t.text not in KEYWORDS:
            self.s.next()
            return resolve_name(self.vs, t.text, t)
        if t.text == "(":
            self.s.next()
            self._enter()
            inner = self._sum()
            self.s.expect(")")
            self.depth -= 1
            return inner
        self.s.error("expected a polynomial, found %r" % (t.text or "end of input"))


def parse_poly(text, vs):
    stream = TokenStream(tokenize(text))
    p = PolyParser(stream, vs).parse()
    if stream.peek().kind != "eof":
        stream.error("trailing input after polynomial")
    return p


# ---------------------------------------------------------------------------
# shared readers


def _name(stream, message):
    """The next token, which must be an identifier that is not a keyword;
    otherwise a ParseError with the message at that token."""
    t = stream.peek()
    if t.kind != "ident" or t.text in KEYWORDS:
        stream.error(message)
    return stream.next()


def _sequence(stream, read, sep):
    """``read (sep read)*``: what ``read`` returns for each item."""
    out = [read()]
    while stream.peek().text == sep:
        stream.next()
        out.append(read())
    return out


def _entries(stream, read, stop):
    """What ``read`` returns for each entry up to the token ``stop``, which
    is consumed: ``end`` closes a block and ``""`` is the end of input.  Any
    number of ';' or ',' may separate the entries."""
    out = []
    while True:
        t = stream.peek()
        if t.text == stop:
            stream.next()
            return out
        if t.text in (";", ","):
            stream.next()
        else:
            out.append(read())


def _image(stream, vs, message):
    """A derivation entry ``name -> poly`` as (name, poly)."""
    t = _name(stream, message)
    if t.text not in vs.even and t.text not in vs.odd:
        raise ParseError("unknown generator %r" % t.text, t.line, t.col)
    stream.expect("->")
    return t.text, PolyParser(stream, vs).parse()


def _value(stream, vs, message):
    """A point entry ``name = scalar`` as (name, scalar)."""
    t = _name(stream, message)
    if t.text not in vs.even:
        raise ParseError("%r is not an even generator" % t.text, t.line, t.col)
    stream.expect("=")
    return t.text, _parse_scalar(stream, vs.field)


def _parse_scalar(stream, field):
    sign = 1
    if stream.peek().text == "-":
        stream.next()
        sign = -1
    t = stream.peek()
    if t.kind != "int":
        stream.error("expected a rational scalar")
    stream.next()
    num = int(t.text)
    den = 1
    if stream.peek().text == "/":
        stream.next()
        den = _parse_denominator(stream)
    return field.of(Fraction(sign * num, den))


def _parse_denominator(stream):
    """The nonzero integer after a '/'."""
    d = stream.peek()
    if d.kind != "int":
        stream.error("expected an integer denominator")
    stream.next()
    if int(d.text) == 0:
        raise ParseError("zero denominator", d.line, d.col)
    return int(d.text)


# ---------------------------------------------------------------------------
# documents


class Manifest:
    """A parsed ``.salg`` document: its algebra, its derivations (name ->
    {generator: image}) and its points (name -> {even generator: value})."""

    def __init__(self, algebra, derivations, points):
        self.algebra = algebra
        self.derivations = derivations
        self.points = points


def parse_document(text, field=None):
    """Parse a .salg document: one superalgebra block followed by any
    number of derivation and point blocks."""
    from superalg.scalars import QQ

    stream = TokenStream(tokenize(text))
    algebra = None
    blocks = {"derivation": ({}, _image), "point": ({}, _value)}
    while stream.peek().kind != "eof":
        t = stream.next()
        if t.text == "superalgebra":
            if algebra is not None:
                raise ParseError("only one superalgebra block per document", t.line, t.col)
            algebra = _parse_superalgebra(stream, field or QQ)
        elif t.text in blocks:
            if algebra is None:
                raise ParseError("%s block before the superalgebra block" % t.text, t.line, t.col)
            name = _name(stream, "expected a %s name" % t.text).text
            if stream.peek().text == ":":
                stream.next()
            found, entry = blocks[t.text]
            read = functools.partial(entry, stream, algebra.vs, "expected a generator name or end")
            found[name] = dict(_entries(stream, read, "end"))
        else:
            raise ParseError("expected a superalgebra, derivation or point block", t.line, t.col)
    if algebra is None:
        stream.error("document declares no superalgebra")
    return Manifest(algebra, blocks["derivation"][0], blocks["point"][0])


def _parse_superalgebra(stream, field):
    _name(stream, "expected a superalgebra name")
    # Relations may use names declared after them, so read the even and odd
    # names first.
    names = {"even": [], "odd": []}
    declaring = None
    seen = set()
    repeat = overflow = None  # the first token that repeats a name; the odd name past the limit
    for t in _block_tokens(stream):
        if t.text in names:
            declaring = names[t.text]
        elif declaring is not None and t.kind == "ident" and t.text not in KEYWORDS:
            declaring.append(t.text)
            if t.text in seen and repeat is None:
                repeat = t
            if declaring is names["odd"] and len(declaring) == VarSet.MAX_ODD + 1:
                overflow = t
            seen.add(t.text)
        else:
            declaring = None
    try:
        vs = VarSet(tuple(names["even"]), tuple(names["odd"]), field)
    except StructureError as e:
        # VarSet tests uniqueness before the odd count
        culprit = repeat or overflow
        raise ParseError(str(e), culprit and culprit.line, culprit and culprit.col)
    rels = []
    while True:
        t = stream.next()
        if t.text == "end":
            break
        if t.text in names:
            while stream.peek().kind == "ident" and not stream.at_keyword():
                stream.next()
        elif t.text == "rel":
            rels += _sequence(stream, PolyParser(stream, vs).parse, ";")
        else:
            raise ParseError("expected even, odd, rel or end", t.line, t.col)
    return SuperAlgebra(vs, rels)


def _block_tokens(stream):
    """The tokens from the current one through the block's first ``end`` (or
    the end of input).  No expression contains a keyword, so that ``end``
    closes the block."""
    tokens = stream.tokens
    stop = stream.i
    while tokens[stop].kind != "eof" and tokens[stop].text != "end":
        stop += 1
    return tokens[stream.i : stop + 1]


# ---------------------------------------------------------------------------
# inline fragments used by CLI flags


def parse_assignments(text, vs):
    """``x = 2; y = -1/3`` -> {name: scalar}; used by --point."""
    stream = TokenStream(tokenize(text))
    read = functools.partial(_value, stream, vs, "expected an even generator name")
    return dict(_entries(stream, read, ""))


def parse_images(text, vs):
    """``x -> 0; y -> x`` -> {name: SuperPoly}; used by --derivation and
    --images."""
    stream = TokenStream(tokenize(text))
    read = functools.partial(_image, stream, vs, "expected a generator name")
    return dict(_entries(stream, read, ""))


def parse_poly_list(text, vs):
    """``y1, y2`` or ``y1; y2`` -> [SuperPoly]; used by --seq."""
    stream = TokenStream(tokenize(text))
    return _entries(stream, PolyParser(stream, vs).parse, "")


def parse_element_word(text, pair, vs):
    """``g[[1,s],[0,1]] e(s*t, 1) e(u, 2)`` -> the raw word of ``pair`` over
    the coefficient generators ``vs``: group factors ("g", rows) and odd
    exponentials ("e", coefficient, basis index from 0)."""
    stream = TokenStream(tokenize(text))
    poly = PolyParser(stream, vs).parse

    def row():
        stream.expect("[")
        entries = _sequence(stream, poly, ",")
        stream.expect("]")
        return entries

    word = []
    while stream.peek().kind != "eof":
        t = stream.next()
        if t.text == "g":
            stream.expect("[")
            rows = _sequence(stream, row, ",")
            stream.expect("]")
            N = pair.group.N
            if len(rows) != N or any(len(r) != N for r in rows):
                raise ParseError("group factor must be a %d x %d matrix" % (N, N), t.line, t.col)
            word.append(("g", rows))
        elif t.text == "e":
            stream.expect("(")
            a = poly()
            stream.expect(",")
            index = stream.peek()
            if index.kind != "int":
                stream.error("expected a basis index")
            stream.next()
            stream.expect(")")
            i = int(index.text)
            if not 1 <= i <= pair.t:
                raise ParseError("basis index %d out of range 1..%d" % (i, pair.t), index.line, index.col)
            word.append(("e", a, i - 1))
        else:
            raise ParseError("expected a g[...] or e(...) factor", t.line, t.col)
    if not word:
        stream.error("empty element word")
    return word


# ---------------------------------------------------------------------------
# pair documents (.shc)


def parse_pair_document(text, field=None):
    """Parse an hcpair block::

        hcpair name
          size 2
          odd-dim 1
          rel g11 - 1; g21; g22 - 1
          rho 1
          bracket 1 1: 0, 2; 0, 0
        end

    rho rows are ';'-separated, entries ','-separated polynomials in the
    matrix entries g11..gNN and d; bracket blocks give scalar matrices.
    The directives may come in any order.
    """
    from superalg.hcgroup import EvenGroupSpec, HCPair, group_varset
    from superalg.scalars import QQ

    field = field or QQ
    stream = TokenStream(tokenize(text))
    head = stream.expect("hcpair")
    name = _name(stream, "expected a hcpair name").text
    # rel, rho and bracket may come before size, so read size first.
    block = _block_tokens(stream)
    sizes = [after for t, after in zip(block, block[1:]) if t.text == "size"]
    if not sizes:
        raise ParseError("hcpair needs both size and odd-dim", head.line, head.col)
    size = _parse_count(sizes[0], "size", MAX_PAIR_SIZE)
    vs = group_varset(size, field)
    poly = PolyParser(stream, vs).parse
    odd_dim = None
    rels = []
    rho = None
    brackets = []  # (i, j, bracket token, token of i, rows of (token, entry))
    given = set()  # the directives seen so far; only rel may repeat

    def once(directive, at):
        if directive in given:
            raise ParseError("repeated %s" % directive, at.line, at.col)
        given.add(directive)

    def matrix(entry):
        return _sequence(stream, lambda: _sequence(stream, entry, ","), ";")

    while True:
        t = stream.next()
        if t.text == "end":
            break
        if t.text == "size":
            once("size", t)
            stream.next()
        elif t.text == "odd":
            once("odd-dim", t)
            # "odd-dim" tokenizes as odd, -, dim
            stream.expect("-")
            stream.expect("dim")
            odd_dim = _parse_count(stream.next(), "odd-dim")
        elif t.text == "rel":
            rels += _sequence(stream, poly, ";")
        elif t.text == "rho":
            once("rho", t)
            rho_at, rho = t, matrix(poly)
        elif t.text == "bracket":
            at = stream.peek()
            i = _parse_count(stream.next(), "bracket index")
            j = _parse_count(stream.next(), "bracket index")
            once("bracket %d %d" % (min(i, j), max(i, j)), t)
            stream.expect(":")
            brackets.append((i, j, t, at, matrix(lambda: (stream.peek(), poly()))))
        else:
            raise ParseError("expected size, odd-dim, rel, rho, bracket or end", t.line, t.col)
    if stream.peek().kind != "eof":
        stream.error("expected end of input after the hcpair block")
    if odd_dim is None:
        raise ParseError("hcpair needs both size and odd-dim", head.line, head.col)
    group = EvenGroupSpec(size, rels, field=field)
    if rho is None:
        raise ParseError("hcpair needs a rho block", head.line, head.col)
    if len(rho) != odd_dim or any(len(r) != odd_dim for r in rho):
        message = "rho must be a %d x %d matrix" % (odd_dim, odd_dim)
        raise ParseError(message, rho_at.line, rho_at.col)
    bracket = {}
    for i, j, directive, at, rows in brackets:
        if max(i, j) > odd_dim:
            raise ParseError("bracket index beyond odd-dim %d" % odd_dim, at.line, at.col)
        if len(rows) != size or any(len(r) != size for r in rows):
            message = "bracket %d %d must be a %d x %d matrix" % (i, j, size, size)
            raise ParseError(message, directive.line, directive.col)
        for r in rows:
            for at, e in r:
                if e.total_degree() > 0:
                    raise ParseError("bracket entries must be scalars, got %s" % e, at.line, at.col)
        bracket[(min(i, j) - 1, max(i, j) - 1)] = [[e.constant_coeff() for _, e in r] for r in rows]
    return HCPair(group, odd_dim, rho, bracket, name=name)


# hc validate on GL_N with no relations takes 0.1 s at N = 5 and 1.1 s at
# N = 6 (Python 3.11 on 2 vCPUs).  Every built-in and shipped pair has
# N = 2.
MAX_PAIR_SIZE = 4


def _parse_count(t, what, most=None):
    """The token as a positive integer, at most ``most`` when given;
    anything else is a ParseError."""
    n = int(t.text) if t.kind == "int" else 0
    if n < 1 or (most is not None and n > most):
        limit = "" if most is None else " up to %d" % most
        message = "%s must be a positive integer%s, found %r" % (what, limit, t.text or "end of input")
        raise ParseError(message, t.line, t.col)
    return n
