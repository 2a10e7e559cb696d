"""The one exact elimination, ``superalg.linalg``, over Q, F_3 and F_7.

``dependencies`` on the columns of a matrix must give its reduced
row-echelon null-space basis, as the dense elimination it replaced did; over
F_3 the kernel found must have the size that enumerating every vector
gives; and ``Echelon.reduce`` must vanish exactly on the vectors that some
combination of the inserted ones hits.
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from superalg.linalg import Echelon, dependencies
from superalg.scalars import QQ, Field

F3 = Field(3)
F7 = Field(7)
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def rref_nullspace(rows, ncols, field):
    """Kernel basis by dense Gauss-Jordan elimination: one vector per free
    column, 1 there and minus that column's entries at the pivots.  Over
    F_p every entry is reduced mod p as it is made."""
    p = field.char

    def red(v):
        return v % p if p else v

    rows = [list(r) for r in rows if any(r)]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        # Fraction(1) keeps the division exact on an int entry
        lc_inv = pow(rows[r][c], -1, p) if p else Fraction(1) / rows[r][c]
        rows[r] = [red(v * lc_inv) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [red(a - f * b) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for ri, pc in enumerate(pivots):
            vec[pc] = red(-rows[ri][fc])
        basis.append(vec)
    return basis


@st.composite
def matrices(draw, fields, max_rows=5, max_cols=6):
    """(field, rows, ncols): a matrix of small integers over the field."""
    field = draw(st.sampled_from(fields))
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(1, max_cols))
    entries = st.integers(-3, 3) if field.char == 0 else st.integers(0, field.char - 1)
    rows = [[field.of(draw(entries)) for _ in range(ncols)] for _ in range(nrows)]
    return field, rows, ncols


def columns(rows, ncols):
    return [{r: row[c] for r, row in enumerate(rows) if row[c]} for c in range(ncols)]


def kernel(rows, ncols, field, key=int):
    return [
        [rel.get(c, field.zero) for c in range(ncols)]
        for rel in dependencies(columns(rows, ncols), key, field)
    ]


def sparse(vec):
    return {i: c for i, c in enumerate(vec) if c}


@PROPERTY_SETTINGS
@given(matrices((QQ, F3, F7)))
def test_dependencies_are_the_rref_nullspace(case):
    field, rows, ncols = case
    expected = rref_nullspace(rows, ncols, field)
    assert kernel(rows, ncols, field) == expected
    # the relations are unique, so the index order does not matter
    assert kernel(rows, ncols, field, key=lambda r: -r) == expected


@PROPERTY_SETTINGS
@given(matrices((F3,), max_cols=4))
def test_kernel_size_over_f3_matches_enumeration(case):
    field, rows, ncols = case
    found = kernel(rows, ncols, field)
    zero_products = 0
    for v in itertools.product(range(3), repeat=ncols):
        if all(not sum(a * b for a, b in zip(row, v)) % 3 for row in rows):
            zero_products += 1
    assert 3 ** len(found) == zero_products
    for vec in found:
        for row in rows:
            assert not sum(a * b for a, b in zip(row, vec)) % 3


def test_reduce_leaves_no_term_at_a_pivot():
    # with pivots 2 and 0, every vector of v + span has the residual {1: 1}
    span = Echelon(int, QQ.char)
    span.insert({2: QQ.one, 0: QQ.one})
    span.insert({0: QQ.one})
    for v in ({2: QQ.one, 1: QQ.one}, {1: QQ.one, 0: QQ.of(5)}, {1: QQ.one}):
        assert span.reduce(v) == {1: QQ.one}


@PROPERTY_SETTINGS
@given(matrices((F3, F7), max_rows=3, max_cols=4), st.data())
def test_reduce_vanishes_exactly_on_the_span(case, data):
    field, rows, ncols = case
    entries = st.integers(0, field.char - 1)
    target = [field.of(data.draw(entries)) for _ in range(ncols)]
    span = Echelon(int, field.char)
    for row in rows:
        span.insert(sparse(row))
    hit = any(
        all(
            sum(c * row[j] for c, row in zip(coeffs, rows)) % field.char == target[j]
            for j in range(ncols)
        )
        for coeffs in itertools.product(range(field.char), repeat=len(rows))
    )
    assert (not span.reduce(sparse(target))) == hit
    assert span.insert(sparse(target)) == (not hit)
