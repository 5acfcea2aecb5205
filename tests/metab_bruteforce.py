"""Brute-force torsion and centre checks for K(p^n, p^m), kept as oracles.

These are the residue loops that ``MetabGroup`` once ran: one stacked
d x 5d Smith solve per nonzero exponent residue for torsion, and one
solve per translation residue for the centre.  They need no theory beyond
"g has finite order iff its power landing in M vanishes there" and
"z is central iff it commutes with x and y", so the tests compare the
library's p + 1 divisibility tests and augmentation test against them.
Cost grows like N^2 Smith forms; keep them to N <= 16.

``center_rank_test`` is the library's former centre check: the rank of
the fixed sublattice of M, from the ring-multiplication matrices of
``mult_matrix``, with M read from ``closure_module``.  It is the oracle
for centre answers on injected relation modules, where no group
presentation backs the residue loops.  ``norm_module`` is the cokernel of
the norm row, the module every build once eliminated.

``consistency_rows`` is the shift closure of the consistency vectors, the
4d-row presentation of S that the library once eliminated on every build;
``closure_module`` is its cokernel.  ``RawK`` is the former element
arithmetic: it carries an unreduced ring vector through products and
inverses (``raw_mul``, ``raw_inv``) and reads canonical coordinates from
``closure_module``, so the tests compare the library's reduction modulo
the norm against it.  Beyond N = 16 that Smith form is too costly, and
``norm_coords`` reads the coordinates as v_k - v_0 instead.

The oracles multiply with their own ``affine_mul``, written apart from
the library's collection code, so they do not share a multiplier with the
code they check; ``cover_mul`` is its product before the power relations
fold, and ``build_vectors`` recomputes the build's g3, g4 and consistency
vectors with it, one factor at a time.  ``psi_product``, which
``cover_mul`` and ``norm_module`` use, expands Psi_a(X) Psi_b(Y) from its
definition one monomial at a time.  ``shift`` is the double loop the
library's ``_shift`` ran before it read a precomputed permutation table;
the oracles shift with it, and the tests compare the two.
"""

from math import gcd, lcm

from gentorsion.intlin import IntMatrix, cokernel_structure, smith_normal_form, solve_integer_linear


def shift(G, v, a, b):
    """The ring vector X^a Y^b v, moving coefficients one monomial at a time."""
    a %= G.qn
    b %= G.qm
    out = [0] * G.d
    for i in range(G.qn):
        row = ((i + a) % G.qn) * G.qm
        src = i * G.qm
        for j in range(G.qm):
            out[row + (j + b) % G.qm] = v[src + j]
    return tuple(out)


def psi_product(G, a, b):
    """Psi_a(X) Psi_b(Y) as a ring vector, one monomial at a time.

    Psi_k(T) is T^0 + ... + T^(k-1) for k >= 0 and minus
    T^k + ... + T^-1 for k < 0, read modulo T^q - 1.
    """
    def psi(k, q):
        out = [0] * q
        for e in (range(k) if k >= 0 else range(k, 0)):
            out[e % q] += 1 if k >= 0 else -1
        return out

    px, py = psi(a, G.qn), psi(b, G.qm)
    return tuple(x * y for x in px for y in py)


def cover_mul(G, f1, f2):
    """Product of x^a y^b c^{m v + c} forms sharing one formal slot v, in
    the cover: x- and y-exponents stay plain integers.

    m is a ring element acting by multiplication.
    """
    a1, b1, m1, c1 = f1
    a2, b2, m2, c2 = f2
    m = G._add(shift(G, m1, a2, b2), m2)
    c = G._add(shift(G, c1, a2, b2), c2)
    if a2 and b1:
        c = G._add(c, G._neg(shift(G, psi_product(G, a2, b1), 0, b2)))
    return (a1 + a2, b1 + b2, m, c)


def affine_mul(G, f1, f2):
    """``cover_mul`` followed by folding x^N and y^N, which contributes
    only to the constant part."""
    a, b, m, c = cover_mul(G, f1, f2)
    k, a = divmod(a, G.N)
    if k:
        c = G._add(c, G._scale(shift(G, G.g3, 0, b), k))
    l, b = divmod(b, G.N)
    if l:
        c = G._add(c, G._scale(G.g4, l))
    return (a, b, m, c)


def cover_product(G, letters):
    """(a, b, c) of a product of letters x^a y^b in the cover, one
    ``cover_mul`` per letter."""
    acc = (0, 0, G._zero, G._zero)
    for a, b in letters:
        acc = cover_mul(G, acc, (a, b, G._zero, G._zero))
    return acc[0], acc[1], acc[3]


def build_vectors(G):
    """(g3, g4, consistency vectors) collected letter by letter.

    x^N = c^{g3} from the relator prod_{j < qm} y^-j x^{qn} y^j, likewise
    y^N = c^{g4}.  For each relation t^N = c^g (t = x, y) and each letter
    u, the consistency vector is g + w - U g, with (u^-1 t u)^N = t^N c^w
    in the cover.
    """
    tails = []
    for base, unit, steps in (((G.qn, 0), (0, 1), G.qm), ((0, G.qm), (1, 0), G.qn)):
        letters = []
        for j in range(steps):
            letters += [(-unit[0] * j, -unit[1] * j), base, (unit[0] * j, unit[1] * j)]
        a, b, w = cover_product(G, letters)
        assert (a, b) == (base[0] * steps, base[1] * steps)
        tails.append(G._neg(w))
    g3, g4 = tails
    vectors = []
    for (a, b), g in (((1, 0), g3), ((0, 1), g4)):
        for ui, uj in ((1, 0), (0, 1)):
            _, _, w = cover_product(G, [(-ui, -uj), (a, b), (ui, uj)] * G.N)
            vectors.append(G._add(G._add(g, w), G._neg(shift(G, g, ui, uj))))
    return g3, g4, tuple(vectors)


def residue_power(G, a, b):
    """(m, c) with (x^a y^b c^v)^o = c^{m v + c}, o the order of (a, b)."""
    o = lcm(G.N // gcd(G.N, a), G.N // gcd(G.N, b))
    g = (a, b, G.monomial(0, 0), G._zero)
    acc = (0, 0, G._zero, G._zero)
    for _ in range(o):
        acc = affine_mul(G, acc, g)
    ra, rb, m, c = acc
    assert (ra, rb) == (0, 0)
    return m, c


def mult_matrix(G, r) -> IntMatrix:
    """Matrix of ring multiplication v -> r * v (columns are shifts)."""
    cols = [shift(G, r, i, j) for i in range(G.qn) for j in range(G.qm)]
    return IntMatrix([[cols[c][row] for c in range(G.d)] for row in range(G.d)], cols=G.d)


def center_rank_test(G) -> bool:
    """True iff M has no nonzero vector fixed by both shifts (M torsion-free).

    v is fixed in M iff (X - 1) v and (Y - 1) v lie in S; the kernel of
    that system always contains S, of rank d - free_rank.  M is the
    cokernel of the full shift closure of ``G._relations``.
    """
    module = closure_module(G)
    ident = IntMatrix.identity(G.d)
    proj = module.to_canonical
    bx = proj @ (mult_matrix(G, G.monomial(1, 0)) - ident)
    by = proj @ (mult_matrix(G, G.monomial(0, 1)) - ident)
    diag = smith_normal_form(bx.vstack(by)).diagonal()
    kernel_rank = G.d - sum(1 for dd in diag if dd != 0)
    return kernel_rank == G.d - module.free_rank


def consistency_rows(G, vectors=None) -> IntMatrix:
    """S as rows: the closure of ``vectors`` (by default the group's
    consistency vectors) under the X and Y shifts."""
    vectors = G._relations if vectors is None else vectors
    rows = [shift(G, vec, i, j) for vec in vectors for i in range(G.qn) for j in range(G.qm)]
    return IntMatrix(rows, cols=G.d)


def closure_module(G, vectors=None):
    """M = Z^d / S from the Smith cokernel of the full shift closure."""
    return cokernel_structure(consistency_rows(G, vectors))


def norm_module(G):
    """M = Z^d / Z norm, the cokernel of the one norm row."""
    return cokernel_structure(IntMatrix([psi_product(G, G.qn, G.qm)], cols=G.d))


def relation_columns(G) -> IntMatrix:
    """S^T: the generators of the relation submodule S as columns."""
    return consistency_rows(G).transpose()


def stacked_solve(G, m, rhs, srows):
    """A v with m v - rhs in S, by one solve of [mult(m) | S^T] (v, s) = rhs.

    ``srows`` is ``relation_columns(G)``.  Returns the v part of the
    solution, or None.
    """
    system = mult_matrix(G, m)
    stacked = IntMatrix(
        [list(system.row(i)) + list(srows.row(i)) for i in range(G.d)],
        cols=G.d + srows.cols,
    )
    sol = solve_integer_linear(stacked, rhs)
    return None if sol is None else tuple(sol[: G.d])


def find_torsion(G):
    """An element of finite order, or "free", trying every nonzero residue."""
    srows = relation_columns(G)
    for a in range(G.N):
        for b in range(G.N):
            if (a, b) == (0, 0):
                continue
            m, c = residue_power(G, a, b)
            sol = stacked_solve(G, m, G._neg(c), srows)
            if sol is not None:
                return G._make(a, b, sol)
    return "free"


def _affine_concrete(G, g):
    return (g.alpha, g.beta, G._zero, (0,) + g.coords)


def raw_mul(G, g, h):
    """Product of (alpha, beta, raw) forms by ``affine_mul``, with the
    formal slot unused; raw stays an unreduced ring vector."""
    a, b, _, c = affine_mul(G, (g[0], g[1], G._zero, g[2]), (h[0], h[1], G._zero, h[2]))
    return (a, b, c)


def raw_inv(G, g):
    """c^-v y^-b x^-a, multiplied out letter by letter."""
    a, b, v = g
    out = raw_mul(G, (0, 0, G._neg(v)), (0, -b, G._zero))
    return raw_mul(G, out, (-a, 0, G._zero))


def norm_coords(v):
    """Coordinates of v in Z^d / Z norm, the entries v_k - v_0 for k >= 1.

    They are M's canonical coordinates on every group whose build passed
    the S = Z norm check, with no Smith form of the closure of S.
    """
    return tuple(x - v[0] for x in v[1:])


class RawK:
    """K(p^n, p^m) elements as (alpha, beta, raw) with an unreduced ring
    vector raw, multiplied by ``raw_mul`` and ``raw_inv``.

    ``coords`` reads canonical coordinates from the Smith cokernel of the
    full closure of S, as every element did before the library reduced
    modulo the norm.
    """

    def __init__(self, G):
        self.G = G
        self.module = closure_module(G)

    def mul(self, g, h):
        return raw_mul(self.G, g, h)

    def inv(self, g):
        return raw_inv(self.G, g)

    def coords(self, g):
        return self.module.canonical(g[2])


def check_center(G) -> bool:
    """True iff the centre is trivial: rank test, then every translation residue."""
    if not center_rank_test(G):  # the (0, 0) residue: a fixed vector of M
        return False
    unit = G.monomial(0, 0)
    ident = IntMatrix.identity(G.d)
    x = G.generators[0][1]
    y = G.generators[1][1]
    srows = relation_columns(G)

    for a in range(0, G.N, G.qn):
        for b in range(0, G.N, G.qm):
            if (a, b) == (0, 0):
                continue
            g = (a, b, unit, G._zero)
            rows = []
            rhs = []
            for w in (x, y):
                f = affine_mul(G, affine_mul(G, _affine_concrete(G, G.inv(w)), g), _affine_concrete(G, w))
                fa, fb, m, c = f
                assert (fa, fb) == (a, b)
                block = mult_matrix(G, m) - ident
                for i in range(G.d):
                    pad_left = list(srows.row(i)) if w is x else [0] * srows.cols
                    pad_right = list(srows.row(i)) if w is y else [0] * srows.cols
                    rows.append(list(block.row(i)) + pad_left + pad_right)
                rhs.extend(-t for t in c)
            system = IntMatrix(rows, cols=G.d + 2 * srows.cols)
            if solve_integer_linear(system, rhs) is not None:
                return False
    return True
