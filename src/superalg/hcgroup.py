"""Matrix Harish-Chandra pairs and the normal form of their group points.

A pair is an even matrix group (cut out of GL_N by a polynomial ideal in
the entries and an inverse-determinant variable), a finite dimensional
module with a polynomial action, and a symmetric equivariant bracket from
the module square into the Lie algebra.  Group points over a coefficient
superalgebra are words in an even matrix and odd-parameter exponentials;
every word rewrites to the unique form  g * e(a_1, v_1) ... e(a_t, v_t).
"""

from __future__ import annotations

from fractions import Fraction

from superalg.groebner import SuperAlgebra
from superalg.linalg import Echelon, dependencies
from superalg.scalars import QQ, inv
from superalg.sdim import bar
from superalg.superpoly import HCError, ParityError, StructureError, SuperPoly, VarSet


# ---------------------------------------------------------------------------
# symbolic matrices


def mat_mul(A, B):
    n = len(A)
    k = len(B)
    m = len(B[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = None
            for t in range(k):
                a = A[i][t]
                b = B[t][j]
                if a and b:
                    p = a * b
                    acc = p if acc is None else acc + p
            row.append(_zero_like(A[i][0]) if acc is None else acc)
        out.append(row)
    return out


def _zero_like(x):
    if isinstance(x, SuperPoly):
        return x.vs.zero()
    return x * 0


def mat_det(A):
    n = len(A)
    if n == 1:
        return A[0][0]
    acc = None
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in A[1:]]
        term = A[0][j] * mat_det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def mat_adjugate(A):
    n = len(A)
    if n == 1:
        one = A[0][0] ** 0 if isinstance(A[0][0], SuperPoly) else 1
        return [[one]]
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [A[r][c] for c in range(n) if c != j] for r in range(n) if r != i
            ]
            cof = mat_det(minor)
            if (i + j) % 2:
                cof = -cof
            out[j][i] = cof
    return out


def identity_matrix(n, one):
    zero = _zero_like(one)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# invertible even elements of a coefficient algebra


def invert_even(algebra, u, cap=64):
    """Inverse of an even element whose non-constant part is nilpotent:
    geometric series, terminating because the odd part of a finitely
    generated coefficient algebra is nilpotent."""
    u = algebra.nf(u)
    if u.parity() not in (0,):
        raise ParityError("can only invert even elements")
    c = u.constant_coeff()
    if not c:
        raise HCError("element %s has zero constant term, not invertible here" % u)
    nu = algebra.nf(u - algebra.vs.const(c))
    c_inv = inv(c, algebra.vs.field.char)
    if nu.is_zero():
        return algebra.vs.const(c_inv)
    out = algebra.vs.const(c_inv)
    step = nu.scale(-c_inv)
    power = algebra.vs.one()
    for _ in range(cap):
        power = algebra.nf(power * step)
        if power.is_zero():
            return algebra.nf(out)
        out = out + power.scale(c_inv)
    raise HCError("non-constant part of %s is not nilpotent" % u)


# The bound on the one HC memo, each pair's rho(g^-1) (``HCPair.rho_at_inverse``):
# a memo that reaches it is emptied before it stores more.
HC_CACHE_SIZE = 4096


def mat_inverse(algebra, M):
    det = algebra.nf(mat_det(M))
    adj = mat_adjugate(M)
    if det == algebra.vs.one():
        return [[algebra.nf(e) for e in row] for row in adj]
    dinv = invert_even(algebra, det)
    return [[algebra.nf(e * dinv) for e in row] for row in adj]


# ---------------------------------------------------------------------------
# even matrix groups


def group_varset(N, field):
    names = tuple("g%d%d" % (i + 1, j + 1) for i in range(N) for j in range(N))
    return VarSet(names + ("d",), (), field)


class EvenGroupSpec:
    """A closed subgroup of GL_N given by polynomial equations in the
    matrix entries and the inverse determinant d."""

    def __init__(self, N, defining, field=None):
        self.N = N
        if defining:
            self.vs = defining[0].vs
            field = self.vs.field
        else:
            field = field or QQ
            self.vs = group_varset(N, field)
        self.field = field
        self.defining = list(defining)
        gen_matrix = [
            [self.vs.gen("g%d%d" % (i + 1, j + 1)) for j in range(N)] for i in range(N)
        ]
        self.gen_matrix = gen_matrix
        self.det = mat_det(gen_matrix)
        self.unit_relation = self.vs.gen("d") * self.det - self.vs.one()
        self.algebra = SuperAlgebra(self.vs, self.defining + [self.unit_relation])
        pt = self.identity_point()
        for f in self.defining:
            if f.evaluate_at_point(pt):
                raise HCError("identity matrix does not satisfy %s" % f)
        self._lie = None

    def identity_point(self):
        pt = {"g%d%d" % (i + 1, j + 1): int(i == j) for i in range(self.N) for j in range(self.N)}
        pt["d"] = 1
        return pt

    def generic_inverse(self):
        """d * adj(G): the inverse of the generic point G in ``algebra``."""
        d = self.vs.gen("d")
        return [[e * d for e in row] for row in mat_adjugate(self.gen_matrix)]

    def differential(self, f):
        """D f_I, the differential at the identity of a function on the
        group, as an N x N matrix of scalars: D f_I(x) is the sum of the
        entry (i, j) times x_ij.  The first-order variation of d is minus
        the trace, so the entry is df/dg_ij - delta_ij * df/dd at I."""
        pt = self.identity_point()
        dd = f.diff_even("d").evaluate_at_point(pt)
        out = []
        for i in range(self.N):
            row = []
            for j in range(self.N):
                c = f.diff_even("g%d%d" % (i + 1, j + 1)).evaluate_at_point(pt)
                row.append(self.field.of(c - dd if i == j else c))
            out.append(row)
        return out

    def lie_basis(self):
        """Kernel of the Jacobian of the defining equations at the
        identity, as a list of N x N matrices of scalars."""
        if self._lie is not None:
            return self._lie
        N = self.N
        field = self.field
        equations = self.defining + [self.unit_relation]
        rows = [[c for row in self.differential(f) for c in row] for f in equations]
        # a kernel vector is a linear relation among the Jacobian's columns
        columns = [{r: row[c] for r, row in enumerate(rows) if row[c]} for c in range(N * N)]
        self._lie = [
            [[rel.get(i * N + j, field.zero) for j in range(N)] for i in range(N)]
            for rel in dependencies(columns, int, field)
        ]
        return self._lie

    def point_images(self, algebra, M, polys):
        """Images of g11..gNN at a matrix M over the even part of a
        coefficient algebra, and of d, the inverse determinant, when one of
        ``polys`` mentions it."""
        N = self.N
        images = {
            "g%d%d" % (i + 1, j + 1): algebra.nf(M[i][j]) for i in range(N) for j in range(N)
        }
        didx = self.vs.even_index("d")
        if any(exps[didx] for f in polys for (exps, _) in f.terms):
            images["d"] = invert_even(algebra, algebra.nf(mat_det(M)))
        return images

    def contains_matrix(self, algebra, M):
        """Membership of a matrix over the even part of a coefficient
        algebra, modulo the coefficient relations: True, or HCError naming
        what fails."""
        images = self.point_images(algebra, M, self.defining)
        if "d" not in images:
            # no defining equation mentions the inverse determinant, but
            # membership still requires the determinant to be invertible
            det = algebra.nf(mat_det(M))
            if not det.constant_coeff():
                raise HCError("matrix determinant %s is not invertible" % det)
        for f in self.defining:
            r = algebra.nf(f.substitute(images, algebra.vs, check_parity=False))
            if r:
                raise HCError("matrix leaves the group: %s evaluates to %s" % (f, r))
        return True


def lambda_algebra(odd_names, field=None):
    return SuperAlgebra(VarSet((), tuple(odd_names), field or QQ), [])


# ---------------------------------------------------------------------------
# pairs


class HCPair:
    closed = False  # proven that products of members are members

    def __init__(self, group, t, rho, bracket, name=""):
        """rho: t x t matrix of polynomials over the group coordinates;
        bracket: dict {(i, j): N x N scalar matrix} for i <= j."""
        self.group = group
        self.t = t
        self.rho = rho
        self.name = name
        zero = [[group.field.zero] * group.N for _ in range(group.N)]
        self.bracket = {
            (i, j): bracket.get((min(i, j), max(i, j)), zero) for i in range(t) for j in range(t)
        }
        pt = group.identity_point()
        # rho(I), the action matrix at the identity, as t x t scalars
        self.identity_action = [[p.evaluate_at_point(pt) for p in row] for row in rho]
        self._rho_inverse = {}
        self._corrections = {}

    def correction(self, i, j):
        """``(x, drho(x))`` for the bracket correction I + b*x that sorting
        e(a, v_i) e(a', v_j), i >= j, emits with b = -a*a': x is the bracket
        [v_i, v_j], halved when i == j.  None when x is zero."""
        key = (i, j)
        if key not in self._corrections:
            x = self.bracket[i, j]
            if i == j:
                field = self.group.field
                half = field.of(Fraction(1, 2))
                x = [[field.of(half * e) for e in row] for row in x]
            nonzero = any(e for row in x for e in row)
            self._corrections[key] = (x, self.drho(x)) if nonzero else None
        return self._corrections[key]

    def drho(self, x):
        """Linearization of the module action at the identity applied to a
        Lie element: a t x t scalar matrix of D rho_rc(x)."""
        group = self.group
        N = group.N
        return [
            [group.field.of(sum(D[i][j] * x[i][j] for i in range(N) for j in range(N)))
             for D in map(group.differential, row)]
            for row in self.rho
        ]

    def rho_at(self, algebra, M):
        """Evaluate the action matrix at a group point over the even part
        of a coefficient algebra."""
        images = self.group.point_images(algebra, M, [p for row in self.rho for p in row])
        return [[algebra.nf(p.substitute(images, algebra.vs, check_parity=False)) for p in row]
                for row in self.rho]

    def rho_at_inverse(self, algebra, g, inverse=None):
        """rho(g^-1), memoized on the algebra's key and g's entries: pushing
        an exponential past a group factor g reads only this, and the
        rewriting engine meets the same factors repeatedly.  A caller that
        knows g^-1 already (``hc_inv``) passes it as ``inverse``."""
        key = (algebra.key, tuple(tuple(e.frozen_terms() for e in row) for row in g))
        memo = self._rho_inverse
        if key not in memo:
            if len(memo) >= HC_CACHE_SIZE:
                memo.clear()
            memo[key] = self.rho_at(algebra, mat_inverse(algebra, g) if inverse is None else inverse)
        return memo[key]


def validate_hc_pair(pair):
    """Checks the pair axioms; returns {check_name: (ok, witness)}."""
    report = {}
    group = pair.group
    vs = group.vs
    t = pair.t
    N = group.N

    # identity action
    ok, wit = True, None
    for r, row in enumerate(pair.identity_action):
        for c, got in enumerate(row):
            if got != vs.field.of(int(r == c)):
                ok, wit = False, "rho[%d][%d](identity) = %s" % (r, c, got)
    report["action_identity"] = (ok, wit)

    # action is multiplicative, symbolically over two generic group points
    two = _two_point_algebra(group)
    report["action_homomorphism"] = _check_rho_multiplicative(pair, two)

    # bracket symmetry (by construction of storage, verify the input shape)
    ok, wit = True, None
    for i in range(t):
        for j in range(t):
            if pair.bracket[i, j] != pair.bracket[j, i]:
                ok, wit = False, "bracket[%d][%d] != bracket[%d][%d]" % (i, j, j, i)
    report["bracket_symmetric"] = (ok, wit)

    report["group_closed"], report["bracket_in_lie"] = _closure_proof(pair, two)
    pair.closed = report["group_closed"][0] and report["bracket_in_lie"][0]

    # equivariance: conjugation transport of the bracket equals the
    # action transport, modulo the defining ideal with generic entries
    G, Ginv = group.gen_matrix, group.generic_inverse()
    ok, wit = True, None
    for i in range(t):
        for j in range(i, t):
            B = [[vs.const(c) for c in row] for row in pair.bracket[i, j]]
            lhs = mat_mul(mat_mul(G, B), Ginv)
            rhs = [[vs.zero()] * N for _ in range(N)]
            for k in range(t):
                for l in range(t):
                    coeff = pair.rho[k][i] * pair.rho[l][j]
                    for r, row in enumerate(pair.bracket[k, l]):
                        for c, x in enumerate(row):
                            if x:
                                rhs[r][c] = rhs[r][c] + coeff.scale(x)
            for r in range(N):
                for c in range(N):
                    diff = group.algebra.nf(lhs[r][c] - rhs[r][c])
                    if diff:
                        ok, wit = False, "bracket[%d][%d] entry (%d,%d): %s" % (i, j, r, c, diff)
    report["bracket_equivariant"] = (ok, wit)

    # cubic identity with indeterminate coefficients
    tvs = VarSet(tuple("t%d" % (i + 1) for i in range(t)), (), group.field)
    tgens = [tvs.gen("t%d" % (i + 1)) for i in range(t)]
    drhos = {(i, j): pair.drho(pair.bracket[i, j]) for i in range(t) for j in range(t)}
    ok, wit = True, None
    for l in range(t):
        acc = tvs.zero()
        for i in range(t):
            for j in range(t):
                dr = drhos[i, j]
                for k in range(t):
                    if dr[l][k]:
                        acc = acc + (tgens[i] * tgens[j] * tgens[k]).scale(dr[l][k])
        if acc:
            ok, wit = False, "component %d: %s" % (l, acc)
    report["cubic_identity"] = (ok, wit)

    return report


def _entries(mat):
    """A scalar matrix as a sparse vector indexed by row-major position."""
    n = len(mat)
    return {i * n + j: c for i, row in enumerate(mat) for j, c in enumerate(row) if c}


def _two_point_algebra(group):
    """k[g, d, h, e]/(I(g, d) + I(h, e)), the substitutions of its generic
    points G and H for g, d, and the images of g, d at G*H."""
    names1 = group.vs.even  # g11, ..., gNN, d
    names2 = tuple("h" + n[1:] for n in names1[:-1]) + ("e",)
    vs2 = VarSet(names1 + names2, (), group.field)
    sub1 = {n: vs2.gen(n) for n in names1}
    sub2 = dict(zip(names1, map(vs2.gen, names2)))
    rels = group.defining + [group.unit_relation]
    rels = [f.substitute(sub1, vs2) for f in rels] + [f.substitute(sub2, vs2) for f in rels]
    G = [[f.substitute(sub1, vs2) for f in row] for row in group.gen_matrix]
    H = [[f.substitute(sub2, vs2) for f in row] for row in group.gen_matrix]
    GH = [e for row in mat_mul(G, H) for e in row] + [sub1["d"] * sub2["d"]]
    return SuperAlgebra(vs2, rels), sub1, sub2, dict(zip(names1, GH))


def _closure_proof(pair, two):
    """(ok, witness) for ``group_closed`` and ``bracket_in_lie``, which prove
    over every coefficient algebra that a product of members is a member:
    each defining f vanishes at G*H (d -> d*e) in the two-point algebra and
    at d*adj(G) (d -> det G) in the group's, and each correction I + b*x of
    ``hc_mul`` and ``hc_inv`` has b^2 = 0, so f(I + b*x) = b*Df_I(x)."""
    group = pair.group
    alg2, _, _, prod_images = two
    inverse = [e for row in group.generic_inverse() for e in row] + [group.det]
    inverse = dict(zip(group.vs.even, inverse))
    laws = (("product", alg2, prod_images), ("inverse", group.algebra, inverse))
    closed = (True, None)
    for f in group.defining:
        for law, alg, images in laws:
            if closed[0] and alg.nf(f.substitute(images, alg.vs)):
                closed = (False, "the %s breaks %s" % (law, f))
    lie = Echelon(int, group.field.char)
    for x in group.lie_basis():
        lie.insert(_entries(x))
    in_lie = (True, None)
    for i in range(pair.t):
        for j in range(i, pair.t):
            if lie.reduce(_entries(pair.bracket[i, j])):
                in_lie = (False, "bracket[%d][%d] outside the Lie algebra" % (i, j))
    return closed, in_lie


def _check_rho_multiplicative(pair, two):
    alg2, sub1, sub2, prod_images = two
    vs2 = alg2.vs
    for r in range(pair.t):
        for c in range(pair.t):
            lhs = pair.rho[r][c].substitute(prod_images, vs2)
            rhs = sum((pair.rho[r][k].substitute(sub1, vs2) * pair.rho[k][c].substitute(sub2, vs2)
                       for k in range(pair.t)), vs2.zero())
            if alg2.nf(lhs - rhs):
                return (False, "rho entry (%d,%d) not multiplicative" % (r, c))
    return (True, None)


def is_graded_pair(pair):
    """The pair presents a graded group iff the bracket vanishes."""
    return not any(c for B in pair.bracket.values() for row in B for c in row)


def gr_pair(pair):
    """Same group and action with the bracket replaced by zero."""
    gr = HCPair(pair.group, pair.t, pair.rho, {}, name=pair.name + "_gr")
    gr.closed = pair.closed  # a zero bracket lies in every Lie algebra
    return gr


def sdim_of_pair(pair):
    from superalg.sdim import SuperDim, leading_term_dim

    return SuperDim(leading_term_dim(pair.group.algebra), pair.t)


# ---------------------------------------------------------------------------
# elements and the rewriting engine


class HCElement:
    """The normal form g * e(a_1, v_1) ... e(a_t, v_t); g must be a member,
    so a product of elements is a product of members."""

    def __init__(self, pair, algebra, g, odd):
        pair.group.contains_matrix(algebra, g)
        self.pair = pair
        self.algebra = algebra
        self.g = [[algebra.nf(e) for e in row] for row in g]
        for row in self.g:
            for e in row:
                if e and e.parity() != 0:
                    raise ParityError("matrix entry %s is not even" % e)
        odd = [algebra.nf(a) for a in odd]
        if len(odd) != pair.t:
            raise StructureError("expected %d odd coordinates" % pair.t)
        for a in odd:
            if a and a.parity() != 1:
                raise ParityError("odd coordinate %s is not odd" % a)
        self.odd = tuple(odd)

    def __eq__(self, other):
        if not isinstance(other, HCElement):
            return NotImplemented
        return self.pair is other.pair and self.g == other.g and self.odd == other.odd

    def __hash__(self):
        return hash(
            (id(self.pair), tuple(tuple(row) for row in self.g), self.odd)
        )

    def word(self):
        w = [("g", self.g)]
        for i, a in enumerate(self.odd):
            if a:
                w.append(("e", a, i))
        return w

    def __repr__(self):
        mat = "[" + ", ".join(
            "[" + ", ".join(str(e) for e in row) + "]" for row in self.g
        ) + "]"
        return "HCElement(g=%s, odd=(%s))" % (mat, ", ".join(str(a) for a in self.odd))


def hc_identity(pair, algebra):
    one = algebra.vs.one()
    return HCElement(
        pair,
        algebra,
        identity_matrix(pair.group.N, one),
        [algebra.vs.zero()] * pair.t,
    )


def _f_matrix(algebra, b, x):
    """I + b*x for a scalar N x N Lie matrix x and an even nilpotent b."""
    one = algebra.vs.one()
    N = len(x)
    return [
        [
            (one if i == j else algebra.vs.zero()) + b.scale(x[i][j])
            for j in range(N)
        ]
        for i in range(N)
    ]


def _matrix_of(algebra, f):
    """The matrix of a group factor: ('g', M) or the dual-number factor
    ('d', b, x, drho(x)), which stands for I + b*x."""
    return f[1] if f[0] == "g" else _f_matrix(algebra, f[1], f[2])


def _merge_group_factors(algebra, f, h):
    """The product of two adjacent group factors, as a matrix.  A
    dual-number factor I + b*x has a scalar x, so M*(I + b*x) = M + b*(M*x)
    and (I + b*x)*M = M + b*(x*M): an entry changes only where a nonzero
    x_rc reaches it, by b times its sum of M's entries scaled by x."""
    if h[0] == "d":
        M, b, x, right = _matrix_of(algebra, f), h[1], h[2], True
    elif f[0] == "d":
        M, b, x, right = h[1], f[1], f[2], False
    else:
        return [[algebra.nf(e) for e in row] for row in mat_mul(f[1], h[1])]
    sums = {}
    for r, row in enumerate(x):
        for c, v in enumerate(row):
            if v:
                # x_rc adds M_ir*x_rc to (M*x)_ic, or x_rc*M_ci to (x*M)_ri
                for i in range(len(M)):
                    pos, e = ((i, c), M[i][r]) if right else ((r, i), M[c][i])
                    if e:
                        sums[pos] = sums[pos] + e.scale(v) if pos in sums else e.scale(v)
    out = [list(row) for row in M]
    for (i, c), s in sums.items():
        out[i][c] = algebra.nf(M[i][c] + b * s)
    return out


def normalize_word(pair, algebra, word, strategy="left", max_steps=100000):
    """The normal form of a word of group factors ('g', matrix) and odd
    exponentials ('e', coefficient, basis_index), checked for membership.
    ``_rewrite`` terminates because each coefficient lies in N, the ideal
    of the odd generators, so a coefficient whose image in bar(algebra) =
    algebra/N is not zero is an HCError before any step.  Only a term of
    odd degree 0 reaches that image, so bar(algebra) is built only for a
    coefficient that has one."""
    bar_a = None
    for f in word:
        if f[0] == "e" and any(not mask for _, mask in f[1].terms):
            bar_a = bar_a or bar(algebra)
            if bar_a.nf(SuperPoly(bar_a.vs, {t: c for t, c in f[1].terms.items() if not t[1]})):
                raise HCError("exponential coefficient %s has a term of odd degree 0" % f[1])
    g, odd = _rewrite(pair, algebra, word, strategy, max_steps)
    return HCElement(pair, algebra, g, odd)


def _normal_product(pair, algebra, word, strategy="left"):
    """``normalize_word`` for a product of members: its entries are reduced
    and of the right parity already, and on a closed pair it is a member."""
    g, odd = _rewrite(pair, algebra, word, strategy)
    if not pair.closed:
        pair.group.contains_matrix(algebra, g)
    el = HCElement.__new__(HCElement)
    el.pair, el.algebra, el.g, el.odd = pair, algebra, g, tuple(odd)
    return el


def _rewrite(pair, algebra, word, strategy="left", max_steps=100000):
    """Rewrite a word into the unique normal form, as (g, odd coefficients).

    Rules: merge adjacent group factors; push group factors left past
    exponentials via conjugation of the module vector; expand
    exponentials of non-basis vectors; sort exponentials by basis index,
    emitting bracket corrections; merge equal indices.  Termination:
    every emitted correction carries coefficients of strictly higher odd
    degree, and the odd part of the coefficient algebra is nilpotent.  This
    needs every exponential coefficient in the ideal of the odd generators,
    which ``normalize_word`` checks and a product of members satisfies.

    Each step rewrites at the leftmost (``strategy="left"``) or rightmost
    (``"right"``) rule position.  Whether k is one depends only on factors
    k and k + 1, so after a rewrite at k the left search resumes at k - 1
    and the right one at the end of the rewritten span.  At most t
    ascending exponentials lie between two group factors, so each search
    crosses O(t) factors.

    A correction of two odd coefficients a, a' is a dual number I + b*x
    with b = -a*a', kept as ('d', b, x, drho(x)) until it merges.  b^2 = 0:
    an odd element squares to zero, so b^2 = a*a'*a*a' = -a^2*a'^2 = 0.
    Hence the inverse of I + b*x is I - b*x, and rho(I - b*x) = rho(I) -
    b*drho(x) for any polynomial rho, as every term of degree two or more
    in b vanishes.  Each rule does its algebra once:

    - A push past a dual factor takes one product.  e(a, v_i) (I + b*x) =
      (I + b*x) e(a, (rho(I) - b*drho(x)) v_i), whose coefficient on v_k is
      nf((rho(I)_ki - b*drho(x)_ki)*a).  b is even, so b*a = a*b, and nf is
      k-linear, so that coefficient is rho(I)_ki*nf(a) - drho(x)_ki*ba with
      ba = nf(b*a) formed once per push.  A k-linear combination of reduced
      elements is reduced (the relations' leads divide none of its terms),
      so no further nf is taken.
    - A dual merge touches only x's nonzero entries: M*(I + b*x) =
      M + b*(M*x) and (I + b*x)*M = M + b*(x*M), and an entry of M*x or x*M
      is a sum over the nonzero x_rc alone.  The entries that no nonzero x_rc
      reaches are left as they are, so a raw group factor's unreduced entry
      may stay unreduced.  That changes no step: a rule position depends on
      the kinds of two factors and on exponential coefficients only, a push
      reads rho(g^-1), which is computed modulo the relations and reduced,
      and the collapse still reduces every entry of g.
    - ``hc_inv`` inverts g once: the push past g^-1 reads
      rho((g^-1)^-1) = rho(g), which it stores in the one memo under g^-1's
      key.

    So each rule gives the value that the full matrix products give: every
    step applies the same rule at the same position, and every normal form
    is the same.
    """
    if strategy not in ("left", "right"):
        raise ValueError("strategy must be 'left' or 'right', not %r" % (strategy,))
    word = list(word)
    nf = algebra.nf
    vs = algebra.vs
    step = 1 if strategy == "left" else -1

    def is_rule(k):
        f = word[k]
        nxt = word[k + 1] if k + 1 < len(word) else None
        if f[0] != "e":
            return nxt is not None and nxt[0] != "e"
        return f[1].is_zero() or nxt is not None and (nxt[0] != "e" or f[2] >= nxt[2])

    steps = 0
    k = 0 if step > 0 else len(word) - 1
    while True:
        steps += 1
        if steps > max_steps:
            raise HCError("rewriting did not terminate within %d steps" % max_steps)
        k = max(k, 0) if step > 0 else min(k, len(word) - 1)
        while 0 <= k < len(word) and not is_rule(k):
            k += step
        if not 0 <= k < len(word):
            break
        f = word[k]
        if f[0] == "e" and f[1].is_zero():
            del word[k]
            k -= 1
            continue
        nxt = word[k + 1]
        if f[0] != "e":
            new = [("g", _merge_group_factors(algebra, f, nxt))]
        elif nxt[0] != "e":
            # e(a, v_i) g  ->  g e(a, rho(g^-1) v_i), expanded over the basis
            a, i = f[1], f[2]
            if nxt[0] == "g":
                column = [nf(row[i] * a) if row[i] else row[i]
                          for row in pair.rho_at_inverse(algebra, nxt[1])]
            else:
                ba, a = nf(nxt[1] * a), nf(a)
                column = [a.scale(r[i]) - ba.scale(d[i]) for r, d in zip(pair.identity_action, nxt[3])]
            new = [nxt] + [("e", c, kk) for kk, c in enumerate(column) if c]
        else:
            a, i = f[1], f[2]
            b, j = nxt[1], nxt[2]
            corr = nf((a * b).scale(-1))
            correction = pair.correction(i, j) if corr else None
            new = []
            if correction is not None:
                if a.parity() == b.parity() == 1:
                    new.append(("d", corr) + correction)
                else:
                    new.append(("g", _f_matrix(algebra, corr, correction[0])))
            if i != j:
                new += [("e", b, j), ("e", a, i)]
            elif merged := nf(a + b):
                new.append(("e", merged, i))
        word[k : k + 2] = new
        k = k - 1 if step > 0 else k + len(new) - 1
    # collapse: an optional single leading group factor, exponentials ascending
    if word and word[0][0] != "e":
        g = [[nf(e) for e in row] for row in _matrix_of(algebra, word[0])]
    else:
        g = identity_matrix(pair.group.N, vs.one())
    odd = [vs.zero()] * pair.t
    for f in word:
        if f[0] == "e":
            odd[f[2]] = f[1]
    return g, odd


def hc_mul(E1, E2, strategy="left"):
    if E1.pair is not E2.pair or E1.algebra is not E2.algebra:
        raise StructureError("elements live over different pairs or coefficients")
    return _normal_product(E1.pair, E1.algebra, E1.word() + E2.word(), strategy)


def hc_inv(E):
    """Reverse the word with negated coefficients and normalize.  Its first
    push past g^-1 reads rho((g^-1)^-1) = rho(g), stored up front so that
    g is inverted once."""
    pair, algebra = E.pair, E.algebra
    word = [("e", -E.odd[i], i) for i in range(pair.t - 1, -1, -1) if E.odd[i]]
    g_inv = mat_inverse(algebra, E.g)
    if word:
        pair.rho_at_inverse(algebra, g_inv, E.g)
    return _normal_product(pair, algebra, word + [("g", g_inv)])


# ---------------------------------------------------------------------------
# built-in pair library


def unipotent_pair(field=None):
    """Upper unitriangular 2 x 2 matrices; 1-dimensional odd space, trivial
    action, bracket 2*E12."""
    field = field or QQ
    vs = group_varset(2, field)
    group = EvenGroupSpec(2, [vs.gen("g11") - vs.one(), vs.gen("g22") - vs.one(), vs.gen("g21")])
    rho = [[group.vs.one()]]
    two = field.of(2)
    z = field.zero
    bracket = {(0, 0): [[z, two], [z, z]]}
    pair = HCPair(group, 1, rho, bracket, name="unipotent")
    pair.closed = True
    return pair


def gl1_weight_pair(field=None):
    """GL_1 acting with weight one on a 1-dimensional odd space, zero
    bracket."""
    field = field or QQ
    group = EvenGroupSpec(1, [], field=field)
    rho = [[group.vs.gen("g11")]]
    pair = HCPair(group, 1, rho, {}, name="gl1-weight")
    pair.closed = True
    return pair


def sl2_standard_pair(field=None):
    """SL_2 on its 2-dimensional standard module with the symmetric
    equivariant bracket [v, w] = v w^T eps + w v^T eps (eps the
    symplectic form); the cubic identity holds identically."""
    field = field or QQ
    vs = group_varset(2, field)
    det = vs.gen("g11") * vs.gen("g22") - vs.gen("g12") * vs.gen("g21")
    group = EvenGroupSpec(2, [det - vs.one()])
    rho = [
        [vs.gen("g11"), vs.gen("g12")],
        [vs.gen("g21"), vs.gen("g22")],
    ]
    z = field.zero
    one = field.one
    two = field.of(2)
    # basis v1 = (1,0), v2 = (0,1); eps = [[0,1],[-1,0]]
    # [v_i, v_j] = v_i v_j^T eps + v_j v_i^T eps
    bracket = {
        (0, 0): [[z, two], [z, z]],
        (0, 1): [[field.of(-1), z], [z, one]],
        (1, 1): [[z, z], [field.of(-2), z]],
    }
    pair = HCPair(group, 2, rho, bracket, name="sl2-standard")
    pair.closed = True
    return pair


# name -> constructor of each built-in pair
BUILTIN_PAIRS = {
    "unipotent": unipotent_pair,
    "gl1-weight": gl1_weight_pair,
    "sl2-standard": sl2_standard_pair,
}


def builtin_pairs(field=None):
    return {name: make(field) for name, make in BUILTIN_PAIRS.items()}


def unipotent_matrix_model(E):
    """Faithful 3 x 3 model of the unipotent pair: the group factor
    I + c*E12 embeds as I - c*E13 and e(a, v) as I + a*(E12 + E23)."""
    A = E.algebra
    zero = A.vs.zero()
    one = A.vs.one()
    c = E.g[0][1]
    a = E.odd[0]
    return [
        [one, a, -c],
        [zero, one, a],
        [zero, zero, one],
    ]


def unipotent_model_mul(T1, T2, algebra):
    return [[algebra.nf(e) for e in row] for row in mat_mul(T1, T2)]
