"""Exact linear algebra over a coefficient field: one echelon form.

Vectors are sparse dicts {index: coeff} over characteristic p (0 for Q).
The caller's ``key`` orders the indices; the largest index of a vector
under it is its pivot.  Every row reduction in the package goes through
``Echelon``.
"""

from __future__ import annotations

from superalg.scalars import inv


class Echelon:
    """Echelon basis of the span of the inserted vectors."""

    def __init__(self, key, p):
        self.key = key
        self.p = p
        self.rows = {}  # pivot index -> monic row {index: coeff}

    def reduce(self, v):
        """The residual of v: v minus the combination of rows that leaves
        no term at a pivot.  It is unique, and empty iff v lies in the
        span, so two vectors differ by an element of the span iff their
        residuals are equal."""
        key = self.key
        p = self.p
        rows = self.rows
        work = dict(v)
        out = {}
        while work:
            t = max(work, key=key)
            row = rows.get(t)
            if row is None:
                out[t] = work.pop(t)
                continue
            c = work[t]
            for u, cu in row.items():
                nc = work.get(u)
                nc = -c * cu if nc is None else nc - c * cu
                if p:
                    nc %= p
                if nc:
                    work[u] = nc
                elif u in work:
                    del work[u]
        return out

    def insert(self, v):
        """Add v to the span; False when it already lay there."""
        r = self.reduce(v)
        if not r:
            return False
        t = max(r, key=self.key)
        p = self.p
        lc_inv = inv(r[t], p)
        self.rows[t] = {u: c * lc_inv % p if p else c * lc_inv for u, c in r.items()}
        return True


def dependencies(vectors, key, field):
    """One relation {i: 1, j: c_j, ...} for each vector v_i that lies in
    the span of the vectors before it: v_i + sum c_j v_j = 0, with every j
    an earlier vector independent of those before it.  The relation is
    unique, so it does not depend on ``key``.

    Vector i carries an extra coordinate (0, i), its tag, below every real
    index (1, u); once the real part of its residual is gone, the tags
    left are the relation."""
    span = Echelon(lambda w: (1, key(w[1])) if w[0] else w, field.char)
    out = []
    for i, v in enumerate(vectors):
        w = {(1, u): c for u, c in v.items()}
        w[(0, i)] = field.one
        r = span.reduce(w)
        if max(r, key=span.key)[0]:
            span.insert(r)
        else:
            out.append({j: c for (_, j), c in r.items()})
    return out
