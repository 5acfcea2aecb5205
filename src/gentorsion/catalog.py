"""Constructors for the example groups.

Three crystallographic specs ship as JSON data files (infinite dihedral,
Klein bottle, Promislow), the K(p^n, p^m) family delegates to the
collection backend, wreath products Z wr Q and free abelianized extensions
F/[R,R] are built from a finite multiplication table, and the group-ring
backend Gamma = (ZP) x| (P x P) supports sampled identity checking on a
group that is not abelian-by-finite.

F/[R,R] is read off the Cayley graph of Q, whose cycle group is R/[R,R]:
phi, the cocycle and the generators are sums of translated spanning-tree
paths, and no word in the free generators is built or rewritten.
"""

from __future__ import annotations

import json
import os

from ._record import Record, _tuple_new
from .errors import GroupInputError, TheoremViolationError
from .extgroup import (
    ExtElement,
    ExtensionGroup,
    ExtensionSpec,
    point_table_failures,
    spec_from_dict,
)
from .gentor import conjugate, is_generalized_torsion, positive_identity_witnesses, power
from .intlin import IntMatrix, _as_int
from .metab import MetabGroup, build_K


def _load_spec(filename: str) -> ExtensionSpec:
    # The module's own loader reads package data from plain, editable and
    # zipped installs alike, without importing importlib.resources.
    path = os.path.join(os.path.dirname(__file__), "data", filename)
    return spec_from_dict(json.loads(__spec__.loader.get_data(path)))


def build_dihedral_infinite() -> ExtensionSpec:
    """D_inf = <a, b | b^2 = 1, a^b = a^-1> as Z by C2."""
    return _load_spec("dinf.json")


def build_klein_bottle() -> ExtensionSpec:
    """Klein bottle group <x, y | x^y = x^-1> as Z^2 by C2."""
    return _load_spec("klein.json")


def build_promislow() -> ExtensionSpec:
    """The Promislow group: Z^3 by C2 x C2, torsion-free, G^ab = C4 x C4."""
    return _load_spec("promislow.json")


def build_K_group(p: int, n: int, m: int) -> MetabGroup:
    return build_K(p, n, m)


WREATH_CAP = 128  # largest accepted |Q| for Z wr Q
FREEABEXT_CAP = 50_000  # largest accepted |Q| n^2, the entries of phi, for F/[R,R]


def build_wreath(q_table) -> ExtensionSpec:
    """Z wr Q for a finite group Q given by its multiplication table.

    The lattice is ZQ with the regular permutation action e_h -> e_{hq};
    the extension splits, so the cocycle is zero.  Generators: ``t`` for
    the basis translation at the identity and ``s<i>`` for each
    nonidentity element of Q.

    Only the table is checked here: the regular representation with a
    zero cocycle is a valid spec exactly when the table is a group table,
    and ``ExtensionGroup`` validates the whole spec when it is built.  The
    spec is formed from the checked ints directly, not through
    ``ExtensionSpec.build``: row i of phi(q) is the unit row e_h with
    h q = i, so the |Q| matrices share |Q| unit rows, and the factor set
    is one shared zero vector.

    Orders above ``WREATH_CAP`` are refused before the table check and
    before any matrix is formed.  The lattice has rank |Q|, and the Smith
    elimination of G^ab's n |S| lattice rows sets the cost of ``info``:
    measured end to end, 0.33 s on C2^7 (order 128, |S| = 7) and 0.21 s
    on S5.  The cap stays: lifted, C2^8 (order 256) takes 1.5 s for
    ``info`` and 3.1 s for ``witness``, over half of CI's 5 s budget.
    """
    table = tuple(tuple(map(_as_int, row)) for row in q_table)
    if len(table) > WREATH_CAP:
        raise GroupInputError(
            f"wreath point group of order {len(table)} exceeds the size cap {WREATH_CAP}")
    failures = point_table_failures(table)
    if failures:
        raise GroupInputError("invalid multiplication table: " + "; ".join(failures[:3]))
    n = len(table)
    zero = (0,) * n
    units = tuple(zero[:h] + (1,) + zero[h + 1:] for h in range(n))
    phi = []
    for q in range(n):
        rows = [None] * n
        for h in range(n):
            rows[table[h][q]] = units[h]
        phi.append(IntMatrix._of(rows, n))
    coc = ((zero,) * n,) * n
    generators = (("t", ExtElement(0, units[0])),)
    generators += tuple((f"s{q}", ExtElement(q, zero)) for q in range(1, n))
    return ExtensionSpec(n, table, n, tuple(phi), coc, generators)


class FreeAbelExtInput(Record, fields="rank q_table images"):
    """Free rank, finite target Q as a table, and the generator images."""

    __slots__ = ()

    @classmethod
    def build(cls, rank: int, q_table, images) -> "FreeAbelExtInput":
        table = tuple(tuple(map(_as_int, row)) for row in q_table)
        return cls(_as_int(rank), table, tuple(map(_as_int, images)))


def build_free_abelianized_extension(inp: FreeAbelExtInput) -> ExtensionSpec:
    """F/[R,R] for F free of rank r and R the kernel of F ->> Q.

    R/[R,R] is the relation module: the cycle group of the Cayley graph of
    Q whose edge (p, i) runs from p to p * img_i.  A breadth-first spanning
    tree from 0 gives P_q, the tree path from 0 to q as a map from edges to
    signs; v.P moves each edge (p, i) of P to (v p, i), and proj reads a
    sum of paths on the non-tree edges in (q, i) order, the lattice basis
    (rank |Q|(r-1)+1).  With e_b the edge b = (p, i):

        phi(q) column b = proj(q^-1.(P_p + e_b - P_{p img_i}))
        coc(q, q')      = proj((q q')^-1.(P_q + q.P_{q'} - P_{q q'}))
        f_i             = (img_i, proj(img_i^-1.(e_{(0, i)} - P_{img_i})))

    These are the abelianized Schreier rewrites of W_q^-1 b W_q,
    W_{qq'}^-1 W_q W_{q'} and W_{img_i}^-1 f_i, for W_q the word along P_q.

    The table is checked first, as ``build_wreath`` checks it, then the
    rank and the images; an input with more than ``FREEABEXT_CAP`` entries
    of phi, |Q| n^2, is refused next, before any path or matrix is formed.
    The spec is left to ``ExtensionGroup``, which validates it once.
    """
    r, table, images = inp.rank, inp.q_table, inp.images
    size = len(table)
    failures = point_table_failures(table, images)
    if failures:
        raise GroupInputError("invalid multiplication table: " + "; ".join(failures[:3]))
    if r < 1:
        raise GroupInputError("free rank must be at least 1")
    if len(images) != r:
        raise GroupInputError("need exactly one image per free generator")
    for q in images:
        if not 0 <= q < size:
            raise GroupInputError("generator image outside the group")
    n = size * (r - 1) + 1
    if size * n * n > FREEABEXT_CAP:
        raise GroupInputError(f"free abelianized extension with {size * n * n} phi entries "
                              f"(|Q| n^2, n = {n}) exceeds the size cap {FREEABEXT_CAP}")
    inverse = [row.index(0) for row in table]

    # breadth-first tree; a step by img_i^-1 from q to t crosses the edge
    # (t, i) backwards
    paths = {0: {}}
    frontier = [0]
    while frontier:
        nxt = []
        for q in frontier:
            for i, img in enumerate(images):
                for sgn, t in ((1, table[q][img]), (-1, table[q][inverse[img]])):
                    if t not in paths:
                        paths[t] = {**paths[q], ((q, i) if sgn == 1 else (t, i)): sgn}
                        nxt.append(t)
        frontier = nxt
    if len(paths) != size:
        raise GroupInputError("generator images do not generate the target group")

    tree = {edge for path in paths.values() for edge in path}
    off_tree = [(q, i) for q in range(size) for i in range(r) if (q, i) not in tree]
    if len(off_tree) != n:
        raise TheoremViolationError(
            f"Schreier generator count {len(off_tree)} differs from |Q|(r-1)+1 = {n}"
        )

    def proj(*terms):
        """The sum of sgn * v.P over the terms (v, sgn, P) on the non-tree edges."""
        acc = dict.fromkeys(off_tree, 0)
        for v, sgn, path in terms:
            for (p, i), s in path.items():
                edge = (table[v][p], i)
                if edge in acc:
                    acc[edge] += sgn * s
        return list(acc.values())

    phi = []
    for q in range(size):
        v = inverse[q]
        # b = (p, i) is off the tree, so e_b adds a new key to P_p
        cols = [proj((v, 1, {**paths[p], (p, i): 1}), (v, -1, paths[table[p][images[i]]]))
                for p, i in off_tree]
        phi.append([list(row) for row in zip(*cols)])
    # (q q')^-1 q = q'^-1
    coc = [[proj((inverse[table[q1][q2]], 1, paths[q1]), (inverse[q2], 1, paths[q2]),
                 (inverse[table[q1][q2]], -1, paths[table[q1][q2]]))
            for q2 in range(size)] for q1 in range(size)]
    generators = [(f"f{i + 1}", (img, proj((inverse[img], 1, {(0, i): 1}),
                                          (inverse[img], -1, paths[img]))))
                  for i, img in enumerate(images)]

    return ExtensionSpec.build(table, phi, coc, generators)


# -- group-ring backend ---------------------------------------------------


class GroupRingElement(Record, fields="items"):
    """Finite-support integer combination of group elements (sorted items)."""

    __slots__ = ()

    @classmethod
    def from_pairs(cls, pairs) -> "GroupRingElement":
        acc = {}
        for key, coeff in pairs:
            acc[key] = acc.get(key, 0) + coeff
        return cls(tuple(sorted((k, c) for k, c in acc.items() if c)))

    def scaled(self, k: int) -> "GroupRingElement":
        if k == 0:
            return GroupRingElement(())
        return GroupRingElement(tuple((key, k * c) for key, c in self.items))

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        return GroupRingElement.from_pairs(self.items + other.items)

    def augmentation(self) -> int:
        return sum(c for _, c in self.items)


class GammaElement(Record, fields="ring g h"):
    __slots__ = ()


class CasoloGroup:
    """Gamma = (ZP) x| (P x P) over the Promislow group P.

    The left P-factor acts on ZP by translation, the right one through the
    sign character: the surjection P -> Q = C2 x C2 -> {+-1} that sends
    the generators x and y to -1 and is trivial on the lattice.  This
    backend is not abelian-by-finite, so it deliberately omits the lattice
    capabilities; it supports exact arithmetic and sampled identity checks.
    """

    def __init__(self):
        self.P = ExtensionGroup(build_promislow(), name="promislow")
        self.name = "gamma"
        self._sign = self._point_sign()
        one = self.P.identity()
        zero = GroupRingElement(())
        self.generators = (
            (("e", GammaElement(GroupRingElement.from_pairs([(one, 1)]), one, one)),)
            + tuple((f"{name}l", GammaElement(zero, g, one)) for name, g in self.P.generators)
            + tuple((f"{name}r", GammaElement(zero, one, g)) for name, g in self.P.generators))

    def _point_sign(self) -> tuple:
        """The sign of each point index: x and y go to -1, through Q.

        A walk of Q from 0 over the generators' point parts gives each index
        the sign of the first path to reach it; the result must be a
        character of Q, checked on the whole table.
        """
        table = self.P.spec.q_table
        sign = [1] + [0] * (len(table) - 1)
        order = [0]
        for p in order:  # grows while it is read: a breadth-first walk
            for _, g in self.P.generators:
                q = table[p][g.q]
                if not sign[q]:
                    sign[q] = -sign[p]
                    order.append(q)
        if len(order) != len(table) or any(
                sign[table[q][r]] != sign[q] * sign[r] for q in order for r in order):
            raise TheoremViolationError("the generators do not define a sign character of Q")
        return tuple(sign)

    def sign(self, h: ExtElement) -> int:
        return self._sign[h.q]

    def _ring_sum(self, base: GroupRingElement, g: ExtElement, r: GroupRingElement,
                  k: int) -> GroupRingElement:
        """base + k (g r): r's keys moved by g into one dict over base's
        items, sorted once.  g r has distinct keys, as g acts bijectively."""
        if not r.items:
            return base
        acc = dict(base.items)
        mul = self.P.mul
        for key, c in r.items:
            key = mul(g, key)
            acc[key] = acc.get(key, 0) + k * c
        items = tuple(sorted(item for item in acc.items() if item[1]))
        return _tuple_new(GroupRingElement, (items,))

    def identity(self) -> GammaElement:
        return GammaElement(GroupRingElement(()), self.P.identity(), self.P.identity())

    def mul(self, a: GammaElement, b: GammaElement) -> GammaElement:
        P = self.P
        ring = self._ring_sum(a.ring, a.g, b.ring, self._sign[a.h.q])
        return _tuple_new(GammaElement, (ring, P.mul(a.g, b.g), P.mul(a.h, b.h)))

    def inv(self, a: GammaElement) -> GammaElement:
        gi = self.P.inv(a.g)
        hi = self.P.inv(a.h)
        ring = self._ring_sum(GroupRingElement(()), gi, a.ring, -self._sign[hi.q])
        return _tuple_new(GammaElement, (ring, gi, hi))

    conj = conjugate
    pow = power

    def sigma_candidates(self):
        """Pair-part elements (1, h) with sign(h) = -1, three choices."""
        x = dict(self.P.generators)["x"]
        y = dict(self.P.generators)["y"]
        hs = [x, self.P.inv(x), self.P.mul(x, self.P.mul(y, y))]
        out = []
        for h in hs:
            if self.sign(h) != -1:
                raise TheoremViolationError("sigma candidate does not invert the sign")
            out.append(GammaElement(GroupRingElement(()), self.P.identity(), h))
        return out

    def positive_identity(self):
        """Inner exponent 1 and the degree-16 conjugator list for the
        first sigma candidate (the backend contract's optional entry)."""
        return 1, self.identity_conjugators(self.sigma_candidates()[0])

    def identity_conjugators(self, sigma: GammaElement):
        """P's positive identity (k, T) as diagonal pairs, then the same
        pairs followed by sigma: degree 2 k |T|, 16 over promislow.

        Each z in T is repeated k times as the pair (0, z, z), so the first
        half realizes P's identity in both factors and its product is a
        pure ring element fixed by the diagonal; sigma flips its sign and
        the two halves cancel.
        """
        k, zs = positive_identity_witnesses(self.P)
        base = [GammaElement(GroupRingElement(()), z, z) for z in zs for _ in range(k)]
        return base + [self.mul(b, sigma) for b in base]


def build_casolo_gamma() -> CasoloGroup:
    return CasoloGroup()


# -- central elements in products ----------------------------------------


def trivial_z_spec() -> ExtensionSpec:
    """Rank-1 lattice with trivial point group; generator ``z``."""
    return ExtensionSpec.build([[0]], [[[1]]], [[[0]]], [("z", (0, [1]))])


def central_nontorsion_check(G) -> bool:
    """True iff the central generator added last is NOT generalized torsion.

    Expects a product backend whose final generator spans a central Z
    factor; a central element can only be generalized torsion if it is
    torsion, so the correct report is always "not generalized torsion".
    """
    z = G.generators[-1][1]
    return not is_generalized_torsion(G, z)
