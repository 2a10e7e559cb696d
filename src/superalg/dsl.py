"""Text format for superalgebra presentations, derivations, points and
pairs, plus the polynomial expression grammar used everywhere on the
command line.

Example document::

    superalgebra A
      even x
      odd y1 y2
      rel x*y1y2
    end

Tokens are ``(kind, text, offset)`` tuples; a ParseError works out its
line and column from the offset.  A product of numbers, generator names
and their powers is built directly as one term.  An identifier that names
no generator is split into odd names (``y1y2``); a block's odd names must
be uniquely decodable, so that split is the only one, and an even name
must not read as such a concatenation.

Each construct has one reader.  ``derivation`` and ``point`` blocks and
the same entries inline (``--derivation``, ``--images``, ``--point``)
share one: entries separated by ``;`` or ``,`` up to ``end`` or the end
of the input, one per generator.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import add

from superalg._kernel import odd_merge
from superalg.groebner import SuperAlgebra
from superalg.superpoly import StructureError, SuperPoly, VarSet


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = "line %d, column %d: %s" % (line, col, message)
        super().__init__(message)
        self.line = line
        self.col = col


# Layout, then one token; the empty match at the end of the text is eof.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)|(?P<arrow>->)|(?P<punct>[-+*^/();=:,\[\]])"
    r"|(?P<comment>#[^\n]*)|(?P<eof>\Z))"
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

# CPython refuses to convert longer digit strings to int (the default of
# sys.get_int_max_str_digits), so a longer literal is a parse error.
MAX_INT_DIGITS = 4300


def _error(text, offset, message):
    """A ParseError at the line and column of text[offset]."""
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))


def tokenize(text):
    """The tokens of text as (kind, text, offset), the last of kind eof."""
    tokens = []
    end = 0
    for m in _TOKEN_RE.finditer(text):
        if m.start() != end:
            break  # finditer skipped a character that starts no token
        end = m.end()
        kind = m.lastgroup
        if kind == "comment":
            continue
        value = m[kind]
        if kind == "int" and len(value) > MAX_INT_DIGITS:
            raise _error(text, end - len(value), "integer literal too long")
        tokens.append((kind, value, end - len(value)))
        if kind == "eof":
            return tokens
    end = len(text) - len(text[end:].lstrip())
    raise _error(text, end, "unexpected character %r" % text[end])


class TokenStream:
    def __init__(self, text):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        if t[0] != "eof":
            self.i += 1
        return t

    def expect(self, text):
        t = self.peek()
        if t[1] != text:
            self.error("expected %r, found %r" % (text, t[1] or "end of input"))
        return self.next()

    def error(self, message, at=None):
        """Raise a ParseError at the token ``at``, by default the next one."""
        raise _error(self.text, (at or self.peek())[2], message)


# ---------------------------------------------------------------------------
# polynomial expressions


def _odd_reading(name, odd):
    """A list of odd names whose concatenation is name, or None; over
    uniquely decodable odd names it is the only one."""
    # a reading of name[:i] as a chain (reading of a prefix, last name), so
    # that extending one costs the same however long the identifier is
    ways = [()] + [None] * len(name)
    for i in range(len(name)):
        if ways[i] is not None:
            for o in odd:
                if name.startswith(o, i) and ways[i + len(o)] is None:
                    ways[i + len(o)] = (ways[i], o)
    w = ways[-1]
    if w is None:
        return None
    parts = []
    while w:
        w, o = w
        parts.append(o)
    return parts[::-1]


def _uniquely_decodable(names):
    """The Sardinas-Patterson test.  S_1 holds the rest of each name after
    another name that is a proper prefix of it, and S_(i+1) the rest of a
    name after a prefix in S_i or of a suffix in S_i after a name that is a
    prefix of it; no concatenation of the names reads two ways iff no S_i
    holds a name.  Every S_i is a set of suffixes of names, so the search
    stops once it finds no new one."""
    level, seen = set(names), set()
    while level:
        seen |= level
        level = {y[len(x) :] for s in level for c in names for x, y in ((s, c), (c, s)) if x != y and y.startswith(x)}
        if not level.isdisjoint(names):
            return False
        level -= seen
    return True


class PolyParser:
    """Recursive-descent parser for `3*x^2*y1y2 - 1/2*y1 + (x - 1)^3`.

    A number, a generator name, and a power or product of these is a term
    ``(coefficient, even exponents, odd mask)``, built without SuperPoly
    arithmetic; a signed or parenthesised factor makes the power or product
    it is in a SuperPoly, and every sum is one."""

    # Each parenthesis costs four Python frames and each unary sign one, so
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
        self.p = vs.field.char
        self.one = (vs.field.one, (0,) * vs.m, 0)
        self.depth = 0
        self.terms = {}  # identifier -> its term, read once

    def _enter(self):
        self.depth += 1
        if self.depth > self.MAX_DEPTH:
            self.s.error("expression nested too deeply")

    def _bound_terms(self, count, tok):
        if count > self.MAX_TERMS:
            self.s.error("expression could build %d terms, more than %d" % (count, self.MAX_TERMS), tok)

    def term(self, t):
        """The term of an identifier token: the generator it names, or its
        one reading as a concatenation of odd names."""
        name = t[1]
        term = self.terms.get(name)
        if term is None:
            vs = self.vs
            reading = [name] if name in vs.even or name in vs.odd else _odd_reading(name, vs.odd)
            if reading is None:
                self.s.error("unknown generator %r" % name, t)
            term = self.one
            for g in reading:
                ((exps, mask), c), = vs.gen(g).terms.items()
                term = self._times(term, (c, exps, mask))
            self.terms[name] = term
        return term

    def _times(self, a, b):
        """The product of two terms; a shared odd generator makes it 0."""
        c, e, m = a
        d, f, n = b
        if m & n:
            return (0, e, m)
        if m and n and odd_merge(m, n)[0] < 0:
            d = -d
        p = self.p
        return (c * d % p if p else c * d, tuple(map(add, e, f)) if e else e, m | n)

    def _poly(self, f):
        """f as a SuperPoly."""
        if type(f) is SuperPoly:
            return f
        c, exps, mask = f
        return SuperPoly(self.vs, {(exps, mask): c} if c else {})

    def parse(self):
        """A sum of products, with an optional leading sign."""
        s = self.s
        acc = self.vs.zero()
        sign = s.tokens[s.i][1]
        while True:
            if sign == "+" or sign == "-":
                s.i += 1
            term = self._poly(self._product())
            acc = acc - term if sign == "-" else acc + term
            sign = s.tokens[s.i][1]
            if sign != "+" and sign != "-":
                return acc

    def _product(self):
        s = self.s
        tokens = s.tokens
        acc = self._power()
        while tokens[s.i][1] == "*":
            star = tokens[s.i]
            s.i += 1
            rhs = self._power()
            if type(acc) is tuple and type(rhs) is tuple:
                acc = self._times(acc, rhs)
            else:
                acc, rhs = self._poly(acc), self._poly(rhs)
                self._bound_terms(len(acc.terms) * len(rhs.terms), star)
                acc = acc * rhs
        return acc

    def _power(self):
        """A signed power, or an atom with at most one exponent: the sign
        applies to the power after it, and nothing raises the result."""
        s = self.s
        sign = s.tokens[s.i][1]
        if sign == "+" or sign == "-":
            s.i += 1
            self._enter()
            inner = self._poly(self._power())
            self.depth -= 1
            return -inner if sign == "-" else inner
        base = self._atom()
        if s.tokens[s.i][1] != "^":
            return base
        s.i += 1
        e = s.peek()
        if e[0] != "int":
            s.error("expected an integer exponent")
        k = int(e[1])
        poly = self._poly(base)
        if k * max(poly.total_degree(), 1) > self.MAX_EXPONENT:
            s.error("exponent too large")
        self._bound_terms(math.comb(max(len(poly.terms), 1) + k - 1, k), e)
        s.i += 1
        if type(base) is not tuple:
            return poly**k
        power = self.one
        for _ in range(k):
            power = self._times(power, base)
        return power

    def _atom(self):
        s = self.s
        t = s.tokens[s.i]
        kind, text, _ = t
        if kind == "ident" and text not in KEYWORDS:
            s.i += 1
            return self.term(t)
        if kind == "int":
            s.i += 1
            num = int(text)
            if s.tokens[s.i][1] == "/":
                s.i += 1
                num = Fraction(num, _parse_denominator(s))
            return (self.vs.field.of(num), self.one[1], 0)
        if text == "(":
            s.i += 1
            self._enter()
            inner = self.parse()
            s.expect(")")
            self.depth -= 1
            return inner
        s.error("expected a polynomial, found %r" % (text or "end of input"))


def parse_poly(text, vs):
    stream = TokenStream(text)
    p = PolyParser(stream, vs).parse()
    if stream.peek()[0] != "eof":
        stream.error("trailing input after polynomial")
    return p


# ---------------------------------------------------------------------------
# shared readers


def _name(stream, message):
    """The next token, which must be an identifier that is not a keyword;
    otherwise a ParseError with the message at that token."""
    kind, text, _ = stream.peek()
    if kind != "ident" or text in KEYWORDS:
        stream.error(message)
    return stream.next()


def _sequence(stream, read, sep):
    """``read (sep read)*``: what ``read`` returns for each item."""
    out = [read()]
    while stream.peek()[1] == sep:
        stream.next()
        out.append(read())
    return out


def _entries(stream, read, stop):
    """What ``read`` returns for each entry up to the token ``stop``, which
    is consumed: ``end`` closes a block and ``""`` is the end of input.  Any
    number of ';' or ',' may separate the entries."""
    out = []
    while True:
        text = stream.peek()[1]
        if text == stop:
            stream.next()
            return out
        if text in (";", ","):
            stream.next()
        else:
            out.append(read())


def _named(parser, stop, message, sign):
    """{name: value} of the entries ``name -> poly`` (sign "->") or ``name =
    scalar`` (sign "=") up to ``stop``; a repeated name is an error."""
    stream, vs = parser.s, parser.vs
    found = {}

    def entry():
        t = _name(stream, message)
        name = t[1]
        if sign == "=" and name not in vs.even:
            stream.error("%r is not an even generator" % name, t)
        if name not in vs.even and name not in vs.odd:
            stream.error("unknown generator %r" % name, t)
        if name in found:
            stream.error("repeated entry for %r" % name, t)
        stream.expect(sign)
        found[name] = parser.parse() if sign == "->" else _parse_scalar(stream, vs.field)

    _entries(stream, entry, stop)
    return found


def _parse_scalar(stream, field):
    sign = 1
    if stream.peek()[1] == "-":
        stream.next()
        sign = -1
    t = stream.peek()
    if t[0] != "int":
        stream.error("expected a rational scalar")
    stream.next()
    num = int(t[1])
    den = 1
    if stream.peek()[1] == "/":
        stream.next()
        den = _parse_denominator(stream)
    return field.of(Fraction(sign * num, den))


def _parse_denominator(stream):
    """The nonzero integer after a '/'."""
    d = stream.peek()
    if d[0] != "int":
        stream.error("expected an integer denominator")
    stream.next()
    if int(d[1]) == 0:
        stream.error("zero denominator", d)
    return int(d[1])


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
    number of derivation and point blocks, each name used once per kind."""
    from superalg.scalars import QQ

    stream = TokenStream(text)
    parser = None  # the superalgebra block's
    blocks = {"derivation": ({}, "->"), "point": ({}, "=")}
    while stream.peek()[0] != "eof":
        t = stream.next()
        if t[1] == "superalgebra":
            if parser is not None:
                stream.error("only one superalgebra block per document", t)
            parser, algebra = _parse_superalgebra(stream, field or QQ)
        elif t[1] in blocks:
            if parser is None:
                stream.error("%s block before the superalgebra block" % t[1], t)
            found, sign = blocks[t[1]]
            name = _name(stream, "expected a %s name" % t[1])
            if name[1] in found:
                stream.error("repeated %s %r" % (t[1], name[1]), name)
            if stream.peek()[1] == ":":
                stream.next()
            found[name[1]] = _named(parser, "end", "expected a generator name or end", sign)
        else:
            stream.error("expected a superalgebra, derivation or point block", t)
    if parser is None:
        stream.error("document declares no superalgebra")
    return Manifest(algebra, blocks["derivation"][0], blocks["point"][0])


def _parse_superalgebra(stream, field):
    """The block's PolyParser and its SuperAlgebra."""
    _name(stream, "expected a superalgebra name")
    # Relations may use names declared after them, so read the even and odd
    # names first.
    names = {"even": [], "odd": []}
    declaring = None
    declared = {}  # name -> the token that first declares it
    repeat = overflow = None  # the first token that repeats a name; the odd name past the limit
    for t in _block_tokens(stream):
        kind, text, _ = t
        if text in names:
            declaring = names[text]
        elif declaring is not None and kind == "ident" and text not in KEYWORDS:
            declaring.append(text)
            if text in declared and repeat is None:
                repeat = t
            if declaring is names["odd"] and len(declaring) == VarSet.MAX_ODD + 1:
                overflow = t
            declared.setdefault(text, t)
        else:
            declaring = None
    try:
        vs = VarSet(tuple(names["even"]), tuple(names["odd"]), field)
    except StructureError as e:
        # VarSet tests uniqueness before the odd count
        stream.error(str(e), repeat or overflow)
    if not _uniquely_decodable(vs.odd):
        for i, name in enumerate(vs.odd):
            if not _uniquely_decodable(vs.odd[: i + 1]):
                stream.error("odd name %r lets a concatenation of odd names read two ways" % name, declared[name])
    for name in vs.even:
        reading = _odd_reading(name, vs.odd)
        if reading:
            stream.error("%r reads as both %s and %s" % (name, name, "*".join(reading)), declared[name])
    parser = PolyParser(stream, vs)
    rels = []
    while True:
        t = stream.next()
        if t[1] == "end":
            break
        if t[1] in names:
            while stream.peek()[0] == "ident" and stream.peek()[1] not in KEYWORDS:
                stream.next()
        elif t[1] == "rel":
            rels += _sequence(stream, parser.parse, ";")
        else:
            stream.error("expected even, odd, rel or end", t)
    return parser, SuperAlgebra(vs, rels)


def _block_tokens(stream):
    """The tokens from the current one through the block's first ``end`` (or
    the end of input).  No expression contains a keyword, so that ``end``
    closes the block."""
    tokens = stream.tokens
    stop = stream.i
    while tokens[stop][0] != "eof" and tokens[stop][1] != "end":
        stop += 1
    return tokens[stream.i : stop + 1]


# ---------------------------------------------------------------------------
# inline fragments used by CLI flags


def parse_assignments(text, vs):
    """``x = 2; y = -1/3`` -> {name: scalar}; used by --point."""
    return _named(PolyParser(TokenStream(text), vs), "", "expected an even generator name", "=")


def parse_images(text, vs):
    """``x -> 0; y -> x`` -> {name: SuperPoly}; used by --derivation and
    --images."""
    return _named(PolyParser(TokenStream(text), vs), "", "expected a generator name", "->")


def parse_poly_list(text, vs):
    """``y1, y2`` or ``y1; y2`` -> [SuperPoly]; used by --seq."""
    stream = TokenStream(text)
    return _entries(stream, PolyParser(stream, vs).parse, "")


def parse_element_word(text, pair, vs):
    """``g[[1,s],[0,1]] e(s*t, 1) e(u, 2)`` -> the raw word of ``pair`` over
    the coefficient generators ``vs``: group factors ("g", rows) and odd
    exponentials ("e", coefficient, basis index from 0)."""
    stream = TokenStream(text)
    poly = PolyParser(stream, vs).parse

    def row():
        stream.expect("[")
        entries = _sequence(stream, poly, ",")
        stream.expect("]")
        return entries

    word = []
    while stream.peek()[0] != "eof":
        t = stream.next()
        if t[1] == "g":
            stream.expect("[")
            rows = _sequence(stream, row, ",")
            stream.expect("]")
            N = pair.group.N
            if len(rows) != N or any(len(r) != N for r in rows):
                stream.error("group factor must be a %d x %d matrix" % (N, N), t)
            word.append(("g", rows))
        elif t[1] == "e":
            stream.expect("(")
            a = poly()
            stream.expect(",")
            index = stream.peek()
            if index[0] != "int":
                stream.error("expected a basis index")
            stream.next()
            stream.expect(")")
            i = int(index[1])
            if not 1 <= i <= pair.t:
                stream.error("basis index %d out of range 1..%d" % (i, pair.t), index)
            word.append(("e", a, i - 1))
        else:
            stream.error("expected a g[...] or e(...) factor", t)
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
    stream = TokenStream(text)
    head = stream.expect("hcpair")
    name = _name(stream, "expected a hcpair name")[1]
    # rel, rho and bracket may come before size, so read size first.
    block = _block_tokens(stream)
    sizes = [after for t, after in zip(block, block[1:]) if t[1] == "size"]
    if not sizes:
        stream.error("hcpair needs both size and odd-dim", head)
    size = _parse_count(stream, sizes[0], "size", MAX_PAIR_SIZE)
    vs = group_varset(size, field)
    poly = PolyParser(stream, vs).parse
    odd_dim = None
    rels = []
    rho = None
    brackets = []  # (i, j, bracket token, token of i, rows of (token, entry))
    given = set()  # the directives seen so far; only rel may repeat

    def once(directive, at):
        if directive in given:
            stream.error("repeated %s" % directive, at)
        given.add(directive)

    def matrix(entry):
        return _sequence(stream, lambda: _sequence(stream, entry, ","), ";")

    while True:
        t = stream.next()
        if t[1] == "end":
            break
        if t[1] == "size":
            once("size", t)
            stream.next()
        elif t[1] == "odd":
            once("odd-dim", t)
            # "odd-dim" tokenizes as odd, -, dim
            stream.expect("-")
            stream.expect("dim")
            odd_dim = _parse_count(stream, stream.next(), "odd-dim")
        elif t[1] == "rel":
            rels += _sequence(stream, poly, ";")
        elif t[1] == "rho":
            once("rho", t)
            rho_at, rho = t, matrix(poly)
        elif t[1] == "bracket":
            at = stream.peek()
            i = _parse_count(stream, stream.next(), "bracket index")
            j = _parse_count(stream, stream.next(), "bracket index")
            once("bracket %d %d" % (min(i, j), max(i, j)), t)
            stream.expect(":")
            brackets.append((i, j, t, at, matrix(lambda: (stream.peek(), poly()))))
        else:
            stream.error("expected size, odd-dim, rel, rho, bracket or end", t)
    if stream.peek()[0] != "eof":
        stream.error("expected end of input after the hcpair block")
    if odd_dim is None:
        stream.error("hcpair needs both size and odd-dim", head)
    group = EvenGroupSpec(size, rels, field=field)
    if rho is None:
        stream.error("hcpair needs a rho block", head)
    if len(rho) != odd_dim or any(len(r) != odd_dim for r in rho):
        stream.error("rho must be a %d x %d matrix" % (odd_dim, odd_dim), rho_at)
    bracket = {}
    for i, j, directive, at, rows in brackets:
        if max(i, j) > odd_dim:
            stream.error("bracket index beyond odd-dim %d" % odd_dim, at)
        if len(rows) != size or any(len(r) != size for r in rows):
            stream.error("bracket %d %d must be a %d x %d matrix" % (i, j, size, size), directive)
        for r in rows:
            for at, e in r:
                if e.total_degree() > 0:
                    stream.error("bracket entries must be scalars, got %s" % e, at)
        bracket[(min(i, j) - 1, max(i, j) - 1)] = [[e.constant_coeff() for _, e in r] for r in rows]
    return HCPair(group, odd_dim, rho, bracket, name=name)


# hc validate on GL_N with no relations takes 0.1 s at N = 5 and 1.1 s at
# N = 6 (Python 3.11 on 2 vCPUs).  Every built-in and shipped pair has
# N = 2.
MAX_PAIR_SIZE = 4


def _parse_count(stream, t, what, most=None):
    """The token as a positive integer, at most ``most`` when given;
    anything else is a ParseError."""
    n = int(t[1]) if t[0] == "int" else 0
    if n < 1 or (most is not None and n > most):
        limit = "" if most is None else " up to %d" % most
        stream.error("%s must be a positive integer%s, found %r" % (what, limit, t[1] or "end of input"), t)
    return n
