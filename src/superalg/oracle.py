"""Degree-truncated dense linear-algebra oracles.

These deliberately avoid the Gröbner machinery: ideals are spanned
degree-by-degree by monomial multiples of the generators and membership is
decided by exact row reduction (``superalg.linalg``, which the Gröbner code
checked here never calls).  The test suite uses them as an independent
second implementation.
"""

from __future__ import annotations

from superalg.linalg import Echelon, dependencies
from superalg.superpoly import term_key


def all_monomials(vs, max_degree):
    """Every monomial x^a y_S with total degree <= max_degree."""
    out = []

    def even_parts(i, remaining, acc):
        if i == vs.m:
            yield tuple(acc)
            return
        for e in range(remaining + 1):
            acc.append(e)
            yield from even_parts(i + 1, remaining - e, acc)
            acc.pop()

    for mask in range(1 << vs.n):
        odd_deg = mask.bit_count()
        if odd_deg > max_degree:
            continue
        for exps in even_parts(0, max_degree - odd_deg, []):
            out.append((exps, mask))
    out.sort(key=term_key)
    return out


def ideal_span(gens, max_degree):
    """Echelon basis of the degree-truncated superideal span: all monomial
    multiples u*g with total degree <= max_degree."""
    if not gens:
        return Echelon(term_key, 0)  # no rows, so no arithmetic
    vs = gens[0].vs
    span = Echelon(term_key, vs.field.char)
    for g in gens:
        if g.is_zero():
            continue
        gdeg = g.total_degree()
        for exps, mask in all_monomials(vs, max(0, max_degree - gdeg)):
            prod = vs.monomial(exps, mask) * g
            if prod and prod.total_degree() <= max_degree:
                span.insert(prod.terms)
    return span


def oracle_member(f, gens, max_degree):
    """Membership of f in the superideal generated by gens, certified by
    the degree-truncated span."""
    span = ideal_span(gens, max_degree)
    return not span.reduce(f.terms)


def oracle_annihilator_basis(p, gens, elt_degree, span_degree):
    """All k-linear combinations f of monomials of degree <= elt_degree
    with f*p in the degree-truncated ideal span: returns a basis of that
    kernel as SuperPolys."""
    vs = p.vs
    span = ideal_span(gens, span_degree)
    candidates = all_monomials(vs, elt_degree)
    residuals = [span.reduce((vs.monomial(exps, mask) * p).terms) for exps, mask in candidates]
    out = []
    for combo in dependencies(residuals, term_key, vs.field):
        poly = vs.zero()
        for j, c in combo.items():
            exps, mask = candidates[j]
            poly = poly + vs.monomial(exps, mask, c)
        if poly:
            out.append(poly)
    return out
