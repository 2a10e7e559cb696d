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
"""

from __future__ import annotations

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
    "on",
    "size",
    "odddim",
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


def resolve_name(vs, name, tok=None):
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
            raise ParseError(
                "unknown generator %r" % name,
                tok.line if tok else None,
                tok.col if tok else None,
            )
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
# documents


class SuperAlgebraDecl:
    def __init__(self, name, algebra):
        self.name = name
        self.algebra = algebra

    def render(self):
        vs = self.algebra.vs
        lines = ["superalgebra %s" % self.name]
        if vs.even:
            lines.append("  even " + " ".join(vs.even))
        if vs.odd:
            lines.append("  odd " + " ".join(vs.odd))
        for r in self.algebra.relations:
            lines.append("  rel " + r.render())
        lines.append("end")
        return "\n".join(lines) + "\n"


class DerivationDecl:
    def __init__(self, name, images):
        self.name = name
        self.images = images  # generator name -> source text / SuperPoly

    def render(self):
        lines = ["derivation %s" % self.name]
        for gen_name, img in self.images.items():
            lines.append("  %s -> %s" % (gen_name, img.render()))
        lines.append("end")
        return "\n".join(lines) + "\n"


class PointDecl:
    def __init__(self, name, values):
        self.name = name
        self.values = values  # even generator name -> scalar

    def render(self, field):
        lines = ["point %s" % self.name]
        for gen_name, v in self.values.items():
            lines.append("  %s = %s" % (gen_name, field.render(v)))
        lines.append("end")
        return "\n".join(lines) + "\n"


class Manifest:
    def __init__(self, algebra_decl=None, derivations=None, points=None):
        self.algebra_decl = algebra_decl
        self.derivations = derivations or {}
        self.points = points or {}

    @property
    def algebra(self):
        if self.algebra_decl is None:
            raise ParseError("document declares no superalgebra")
        return self.algebra_decl.algebra

    def render(self):
        out = []
        if self.algebra_decl:
            out.append(self.algebra_decl.render())
        for d in self.derivations.values():
            out.append(d.render())
        field = self.algebra_decl.algebra.vs.field if self.algebra_decl else None
        for p in self.points.values():
            out.append(p.render(field))
        return "\n".join(out)


def parse_document(text, field=None):
    """Parse a .salg document: one superalgebra block followed by any
    number of derivation and point blocks."""
    from superalg.scalars import QQ

    field = field or QQ
    stream = TokenStream(tokenize(text))
    manifest = Manifest()
    while stream.peek().kind != "eof":
        t = stream.peek()
        if t.text == "superalgebra":
            if manifest.algebra_decl is not None:
                stream.error("only one superalgebra block per document")
            manifest.algebra_decl = _parse_superalgebra(stream, field)
        elif t.text == "derivation":
            if manifest.algebra_decl is None:
                stream.error("derivation block before the superalgebra block")
            d = _parse_derivation(stream, manifest.algebra.vs)
            manifest.derivations[d.name] = d
        elif t.text == "point":
            if manifest.algebra_decl is None:
                stream.error("point block before the superalgebra block")
            p = _parse_point(stream, manifest.algebra.vs)
            manifest.points[p.name] = p
        else:
            stream.error("expected a superalgebra, derivation or point block")
    return manifest


def _parse_name(stream, what):
    t = stream.peek()
    if t.kind != "ident" or t.text in KEYWORDS:
        stream.error("expected a %s name" % what)
    stream.next()
    return t.text


def _parse_superalgebra(stream, field):
    stream.expect("superalgebra")
    name = _parse_name(stream, "superalgebra")
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
            rels += _parse_relations(stream, vs)
        else:
            raise ParseError("expected even, odd, rel or end", t.line, t.col)
    return SuperAlgebraDecl(name, SuperAlgebra(vs, rels))


def _block_tokens(stream):
    """The tokens from the current one through the block's first ``end`` (or
    the end of input).  No expression contains a keyword, so that ``end``
    closes the block."""
    tokens = stream.tokens
    stop = stream.i
    while tokens[stop].kind != "eof" and tokens[stop].text != "end":
        stop += 1
    return tokens[stream.i : stop + 1]


def _parse_relations(stream, vs):
    """The ';'-separated polynomials after a ``rel``."""
    rels = [PolyParser(stream, vs).parse()]
    while stream.peek().text == ";":
        stream.next()
        rels.append(PolyParser(stream, vs).parse())
    return rels


def _parse_derivation(stream, vs):
    stream.expect("derivation")
    name = _parse_name(stream, "derivation")
    if stream.peek().text == ":":
        stream.next()
    images = {}
    while True:
        t = stream.peek()
        if t.text == "end":
            stream.next()
            break
        if t.text == ";":
            stream.next()
            continue
        if t.kind != "ident" or t.text in KEYWORDS:
            stream.error("expected a generator name or end")
        gen_name = stream.next().text
        if gen_name not in vs.even and gen_name not in vs.odd:
            raise ParseError("unknown generator %r" % gen_name, t.line, t.col)
        stream.expect("->")
        images[gen_name] = PolyParser(stream, vs).parse()
    return DerivationDecl(name, images)


def _parse_point(stream, vs):
    stream.expect("point")
    name = _parse_name(stream, "point")
    if stream.peek().text == ":":
        stream.next()
    values = {}
    while True:
        t = stream.peek()
        if t.text == "end":
            stream.next()
            break
        if t.text == ";":
            stream.next()
            continue
        if t.kind != "ident" or t.text in KEYWORDS:
            stream.error("expected a generator name or end")
        gen_name = stream.next().text
        if gen_name not in vs.even:
            raise ParseError("%r is not an even generator" % gen_name, t.line, t.col)
        stream.expect("=")
        values[gen_name] = _parse_scalar(stream, vs.field)
    return PointDecl(name, values)


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
# inline fragments used by CLI flags


def parse_assignments(text, vs):
    """``x = 2; y = -1/3`` -> {name: scalar}; used by --point."""
    stream = TokenStream(tokenize(text))
    values = {}
    while stream.peek().kind != "eof":
        if stream.peek().text in (";", ","):
            stream.next()
            continue
        t = stream.peek()
        if t.kind != "ident" or t.text in KEYWORDS:
            stream.error("expected an even generator name")
        gen_name = stream.next().text
        if gen_name not in vs.even:
            raise ParseError("%r is not an even generator" % gen_name, t.line, t.col)
        stream.expect("=")
        values[gen_name] = _parse_scalar(stream, vs.field)
    return values


def parse_images(text, vs):
    """``x -> 0; y -> x`` -> {name: SuperPoly}; used by --derivation."""
    stream = TokenStream(tokenize(text))
    images = {}
    while stream.peek().kind != "eof":
        if stream.peek().text in (";", ","):
            stream.next()
            continue
        t = stream.peek()
        if t.kind != "ident" or t.text in KEYWORDS:
            stream.error("expected a generator name")
        gen_name = stream.next().text
        if gen_name not in vs.even and gen_name not in vs.odd:
            raise ParseError("unknown generator %r" % gen_name, t.line, t.col)
        stream.expect("->")
        images[gen_name] = PolyParser(stream, vs).parse()
    return images


def parse_poly_list(text, vs):
    """``y1, y2`` or ``y1; y2`` -> [SuperPoly]; used by --seq."""
    stream = TokenStream(tokenize(text))
    out = []
    while stream.peek().kind != "eof":
        if stream.peek().text in (";", ","):
            stream.next()
            continue
        out.append(PolyParser(stream, vs).parse())
    return out


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
    name = _parse_name(stream, "hcpair")
    # rel, rho and bracket may come before size, so read size first.
    block = _block_tokens(stream)
    sizes = [after for t, after in zip(block, block[1:]) if t.text == "size"]
    if not sizes:
        raise ParseError("hcpair needs both size and odd-dim", head.line, head.col)
    size = _parse_count(sizes[0], "size", MAX_PAIR_SIZE)
    vs = group_varset(size, field)
    odd_dim = None
    rels = []
    rho = None
    brackets = []  # (i, j, bracket token, token of i, rows)
    given = set()  # the directives seen so far; only rel may repeat

    def once(directive, at):
        if directive in given:
            raise ParseError("repeated %s" % directive, at.line, at.col)
        given.add(directive)

    while True:
        t = stream.next()
        if t.text == "end":
            break
        if t.text == "size":
            once("size", t)
            stream.next()
        elif t.text in ("odd", "odddim"):
            once("odd-dim", t)
            # "odd-dim" tokenizes as odd, -, dim
            if t.text == "odd":
                stream.expect("-")
                stream.expect("dim")
            odd_dim = _parse_count(stream.next(), "odd-dim")
        elif t.text == "rel":
            rels += _parse_relations(stream, vs)
        elif t.text == "rho":
            once("rho", t)
            rho_at, rho = t, _parse_matrix(stream, vs)
        elif t.text == "bracket":
            at = stream.peek()
            i = _parse_count(stream.next(), "bracket index")
            j = _parse_count(stream.next(), "bracket index")
            once("bracket %d %d" % (min(i, j), max(i, j)), t)
            stream.expect(":")
            brackets.append((i, j, t, at, _parse_matrix(stream, vs)))
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
        scalar_rows = []
        for row in rows:
            srow = []
            for e in row:
                if e.total_degree() > 0:
                    raise ParseError("bracket entries must be scalars, got %s" % e)
                srow.append(e.constant_coeff())
            scalar_rows.append(srow)
        bracket[(min(i, j) - 1, max(i, j) - 1)] = scalar_rows
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


def _parse_matrix(stream, vs):
    rows = [[]]
    while True:
        rows[-1].append(PolyParser(stream, vs).parse())
        t = stream.peek()
        if t.text == ",":
            stream.next()
        elif t.text == ";":
            stream.next()
            rows.append([])
        else:
            return rows
