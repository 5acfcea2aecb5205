"""Abelian-by-finite groups presented by point-group data.

A group here is an extension 1 -> Z^n -> G -> Q -> 1: a finite point group
Q (multiplication table over indices 0..|Q|-1, with 0 the identity) acting
on a rank-n lattice through matrices phi(q), glued by a normalized factor
set coc(q, q').  Elements are pairs (q, a) with a an integer n-vector, and

    (q, a) * (q', a') = (q q', coc(q, q') + phi(q') a + a').

phi follows the anti-homomorphism convention phi(q q') = phi(q') phi(q), so
conjugating a translation (0, a) by any element with point part q gives
(0, phi(q) a).  The identity is (0, 0) and

    (q, a)^-1 = (q^-1, -coc(q, q^-1) - phi(q^-1) a).

Everything downstream (torsion tests, abelianization, certificates) is
phrased against this one convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import NamedTuple

from .errors import GroupInputError
from .gentor import (_UNSET, _free_name, _verify_product, conjugate, labeled_transversal,
                     order_mod_translation, power)
from .intlin import IntMatrix, cokernel_structure, solve_integer_linear


class ExtElement(NamedTuple):
    q: int
    a: tuple


def _vec(v) -> tuple:
    return tuple(int(x) for x in v)


def _vadd(u, v) -> tuple:
    return tuple(x + y for x, y in zip(u, v))


def _vneg(v) -> tuple:
    return tuple(-x for x in v)


@dataclass(frozen=True)
class ExtensionSpec:
    q_size: int
    q_table: tuple
    n: int
    phi: tuple
    coc: tuple
    generator_names: tuple

    @classmethod
    def build(cls, q_table, phi, coc, generators) -> "ExtensionSpec":
        """Normalize plain lists into an immutable spec.

        ``phi`` is a list of n x n matrices (lists or IntMatrix), ``coc`` a
        q_size x q_size array of n-vectors, ``generators`` an ordered list
        of (name, (q, a)) pairs.
        """
        table = tuple(tuple(int(x) for x in row) for row in q_table)
        q_size = len(table)
        mats = tuple(m if isinstance(m, IntMatrix) else IntMatrix(m) for m in phi)
        n = mats[0].rows if mats else 0
        cocs = tuple(tuple(_vec(v) for v in row) for row in coc)
        gens = tuple((str(name), ExtElement(int(q), _vec(a))) for name, (q, a) in generators)
        return cls(q_size, table, n, mats, cocs, gens)


@dataclass(frozen=True)
class ValidationReport:
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


def point_generating_set(spec: ExtensionSpec) -> tuple:
    """Indices S, none of them 0, whose right products from 0 reach all of Q.

    S is returned in increasing order, so checks that loop over it name
    their failures in the same order as loops over all of Q would.

    The point parts of the spec's generators come first, in order, then
    1, 2, ...; each index is a candidate once, and it is kept only when the
    products of those kept before it do not yet reach it.  Products are
    read off the table alone, so S is defined on any table whose entries
    are in range; it reaches every index whenever row 0 of the table is
    the identity row, since a candidate q left unreached is then reached as
    0 q.
    """
    table, qs = spec.q_table, spec.q_size
    if not qs:
        return ()
    picked = []
    reached = [True] + [False] * (qs - 1)
    expanded = [0]  # reached indices already multiplied by every picked index
    candidates = [g.q for _, g in spec.generator_names if 0 < g.q < qs]
    for s in dict.fromkeys(candidates + list(range(1, qs))):
        if reached[s]:
            continue
        picked.append(s)
        frontier = []
        for x in expanded:
            y = table[x][s]
            if not reached[y]:
                reached[y] = True
                frontier.append(y)
        while frontier:
            x = frontier.pop()
            expanded.append(x)
            for t in picked:
                y = table[x][t]
                if not reached[y]:
                    reached[y] = True
                    frontier.append(y)
    return tuple(sorted(picked))


def validate_extension(spec: ExtensionSpec) -> ValidationReport:
    """Check every structural invariant of the spec.

    Returns the list of violated identities (with witnessing indices)
    rather than raising; callers decide what to do with an invalid spec.

    Associativity is checked on a generating set S of Q
    (``point_generating_set``) by Light's test.  For any binary operation,
    the set of elements g with (x y) g = x (y g) for all x, y is closed
    under products, so once it holds S and the identity it holds everything
    the products of S reach, which is all of Q.  On the table that leaves the
    triples (q, r, s) with s in S.  The extension Q x Z^n is generated by
    the (s, 0) and the translations (0, +-e_i); translations pass because
    phi(0) = I and the factor set is normalized, and (s, 0) passes exactly
    when phi(r s) = phi(s) phi(r) for every r and the cocycle identity
    holds at (q, r, s) for every q and r.  So the anti-homomorphism and
    cocycle checks run over s in S only, O(|Q|^2 |S| n^2) work in place
    of O(|Q|^3 n^2), and accept exactly the specs the checks over all
    triples accept.  Failure lines name only checked triples and pairs,
    those whose last index is in S.  The identity, inverse, shape and
    normalization checks run over all of Q.
    """
    bad = []
    qs = spec.q_size
    table = spec.q_table
    if qs == 0:
        return ValidationReport(("q_table is empty; index 0 must be the identity",))
    if len(table) != qs or any(len(row) != qs for row in table):
        return ValidationReport((f"q_table must be {qs}x{qs}",))
    if any(not (0 <= x < qs) for row in table for x in row):
        return ValidationReport(("q_table entries out of range",))
    for q in range(qs):
        if table[0][q] != q or table[q][0] != q:
            bad.append(f"index 0 is not the identity at q={q}")
    gens = point_generating_set(spec)
    for q in range(qs):
        row = table[q]
        for r in range(qs):
            left, right = table[row[r]], table[r]
            for s in gens:
                if left[s] != row[right[s]]:
                    bad.append(f"associativity fails at ({q},{r},{s})")
    for q in range(qs):
        if all(table[q][r] != 0 for r in range(qs)):
            bad.append(f"no inverse for q={q}")
    if bad:
        return ValidationReport(tuple(bad))

    n = spec.n
    phi = spec.phi
    if len(phi) != qs:
        bad.append("phi must assign one matrix per point-group index")
    else:
        for q, m in enumerate(phi):
            if m.rows != n or m.cols != n:
                bad.append(f"phi({q}) is not {n}x{n}")
            elif abs(m.det()) != 1:
                bad.append(f"phi({q}) is not invertible over the integers")
        if not bad:
            if phi[0] != IntMatrix.identity(n):
                bad.append("phi(0) must be the identity matrix")
            for q in range(qs):
                for s in gens:
                    if phi[table[q][s]] != phi[s] @ phi[q]:
                        bad.append(f"phi is not an anti-homomorphism at ({q},{s})")
    coc = spec.coc
    if len(coc) != qs or any(len(row) != qs for row in coc):
        bad.append(f"coc must be a {qs}x{qs} array of vectors")
    else:
        for q in range(qs):
            for r in range(qs):
                if len(coc[q][r]) != n:
                    bad.append(f"coc({q},{r}) has wrong length")
        if not bad:
            zero = (0,) * n
            for q in range(qs):
                if coc[0][q] != zero or coc[q][0] != zero:
                    bad.append(f"factor set is not normalized at q={q}")
            acts = [(s, phi[s].mat_vec) for s in gens]
            for q in range(qs):
                row = table[q]
                for r in range(qs):
                    left, right, v = coc[row[r]], table[r], coc[q][r]
                    for s, act in acts:
                        if _vadd(left[s], act(v)) != _vadd(coc[q][right[s]], coc[r][s]):
                            bad.append(f"cocycle identity fails at ({q},{r},{s})")
    for name, g in spec.generator_names:
        if not (0 <= g.q < qs):
            bad.append(f"generator {name}: point index out of range")
        if len(g.a) != n:
            bad.append(f"generator {name}: vector has wrong length")
    return ValidationReport(tuple(bad))


def abelianization_relations(spec: ExtensionSpec) -> IntMatrix:
    """Relation matrix of G^ab over n + |Q| generator columns.

    Columns are the lattice basis t_1..t_n followed by one symbol r_q per
    point-group index.  The image of g = (q, a) is the vector (a | e_q).
    With S = ``point_generating_set(spec)``, the rows are: t_i = phi(s) t_i
    for every (s, i); r_q r_s = r_{qs} t^{coc(q,s)} for every q and s in S,
    written as (-coc(q,s) | e_q + e_s - e_{qs}); and r_0 trivial.  That is
    |Q| |S| + n |S| + 1 rows.

    They span the rows of the full presentation, which has t = phi(q) t and
    the product rule for every pair.  Every phi(q) is a product of the
    phi(s), so modulo the t-rows of S every phi(q) acts trivially.  Then
    the cocycle identity at (q, r, s) makes the row of (q, r s) the row of
    (q, r) plus the row of (q r, s) minus the row of (r, s); by induction
    on the length of r as a product of S, every pair's row is reached.
    """
    n, qs = spec.n, spec.q_size
    table, coc = spec.q_table, spec.coc
    gens = point_generating_set(spec)
    pad = [0] * qs
    rows = []
    for s in gens:
        for i, col in enumerate(zip(*spec.phi[s].to_lists())):
            row = [-x for x in col] + pad
            row[i] += 1
            rows.append(row)
    for q in range(qs):
        for s in gens:
            row = [-x for x in coc[q][s]] + pad
            row[n + q] += 1
            row[n + s] += 1
            row[n + table[q][s]] -= 1
            rows.append(row)
    last = [0] * (n + qs)
    last[n] = 1
    rows.append(last)
    return IntMatrix._of(rows, n + qs)


class ExtensionGroup:
    """Element arithmetic and structure queries over a validated spec."""

    def __init__(self, spec: ExtensionSpec, name: str = "extension"):
        report = validate_extension(spec)
        if not report.ok:
            shown = "; ".join(report.failures[:5])
            raise GroupInputError(f"invalid extension spec: {shown}")
        self.spec = spec
        self.name = name
        self.generators = spec.generator_names
        self._ab = None
        self._torsion = _UNSET

    # -- element arithmetic -------------------------------------------------

    def identity(self) -> ExtElement:
        return ExtElement(0, (0,) * self.spec.n)

    def mul(self, g: ExtElement, h: ExtElement) -> ExtElement:
        s = self.spec
        q = s.q_table[g.q][h.q]
        return ExtElement(q, _vadd(_vadd(s.coc[g.q][h.q], s.phi[h.q].mat_vec(g.a)), h.a))

    def inv(self, g: ExtElement) -> ExtElement:
        s = self.spec
        qi = self.q_inverse(g.q)
        return ExtElement(qi, _vneg(_vadd(s.coc[g.q][qi], s.phi[qi].mat_vec(g.a))))

    conj = conjugate
    pow = power
    labeled_transversal = labeled_transversal
    order_mod_translation = order_mod_translation

    def q_inverse(self, q: int) -> int:
        return self.spec.q_table[q].index(0)

    def q_order(self, q: int) -> int:
        o, cur = 1, q
        while cur != 0:
            cur = self.spec.q_table[cur][q]
            o += 1
        return o

    # -- capability contract used by the torsion engine ---------------------

    def coset(self, g: ExtElement) -> int:
        return g.q

    def translation_index(self) -> int:
        return self.spec.q_size

    def holonomy_exponent(self) -> int:
        return lcm(*(self.q_order(q) for q in range(self.spec.q_size)))

    def transversal(self):
        """The zero section (q, 0), one per q; needs no generators."""
        zero = (0,) * self.spec.n
        return [ExtElement(q, zero) for q in range(self.spec.q_size)]

    def abelianization(self):
        if self._ab is None:
            self._ab = cokernel_structure(abelianization_relations(self.spec))
        return self._ab

    def ab_vector(self, g: ExtElement) -> tuple:
        e = [0] * self.spec.q_size
        e[g.q] = 1
        return g.a + tuple(e)

    # -- structure ----------------------------------------------------------

    def torsion_witness(self):
        """An element of finite order, or None if the group is torsion-free.

        For each q != 0 of order o in Q, (q, a)^o = (0, N_q a + c_q), affine
        in a: c_q is the lattice part at a = 0 and column i of N_q is the
        lattice part at a = e_i minus c_q.  A torsion element exists exactly
        when N_q x = -c_q has an integer solution.
        """
        if self._torsion is _UNSET:
            self._torsion = self._find_torsion()
        return self._torsion

    def _find_torsion(self):
        s = self.spec
        for q in range(1, s.q_size):
            o = self.q_order(q)
            c = self.pow(ExtElement(q, (0,) * s.n), o).a
            cols = [_vadd(self.pow(ExtElement(q, e), o).a, _vneg(c)) for e in _basis(s.n)]
            x = solve_integer_linear(IntMatrix(zip(*cols), cols=s.n), _vneg(c))
            if x is not None:
                return ExtElement(q, _vec(x))
        return None

    def is_torsion_free(self) -> bool:
        return self.torsion_witness() is None

    def center_rank(self) -> int:
        """Rank of the sublattice fixed by every phi(q).

        Every phi(q) is a product of the phi(s) for s in
        ``point_generating_set``, so a vector fixed by those is fixed by all.
        """
        s = self.spec
        ident = IntMatrix.identity(s.n)
        rows = [row for q in point_generating_set(s) for row in (s.phi[q] - ident).to_lists()]
        return cokernel_structure(IntMatrix._of(rows, s.n)).free_rank

    def verify_positive_identity_all(self, k: int, conjugators) -> bool:
        """True iff prod_j (g^k)^{x_j} = 1 for EVERY group element g.

        Fix the point part q of g = (q, a).  Once point parts are fixed,
        the lattice part of a product, coc + phi a + a', is affine in the
        lattice parts of its factors, so the product of the conjugates of
        (q, a)^k is (q', L a + c) with q', L and c depending on q alone.
        It is 1 for every a exactly when it is 1 at a = 0 (q' = 0, c = 0)
        and at each basis vector e_i (then L e_i = 0).  Evaluating at those
        n + 1 points for every q, with the ordinary arithmetic, decides the
        identity over all of G.
        """
        s = self.spec
        points = [(0,) * s.n] + _basis(s.n)
        bases = (self.pow(ExtElement(q, a), k) for q in range(s.q_size) for a in points)
        return _verify_product(self, bases, conjugators)


def _basis(n: int) -> list:
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


def direct_product(spec1: ExtensionSpec, spec2: ExtensionSpec) -> ExtensionSpec:
    """Spec of G1 x G2: Q = Q1 x Q2, block phi, concatenated factor set."""
    q1, q2 = spec1.q_size, spec2.q_size
    n1, n2 = spec1.n, spec2.n
    qs = q1 * q2

    def pack(i, j):
        return i * q2 + j

    table = [[0] * qs for _ in range(qs)]
    for i in range(q1):
        for j in range(q2):
            for k in range(q1):
                for l in range(q2):
                    table[pack(i, j)][pack(k, l)] = pack(spec1.q_table[i][k], spec2.q_table[j][l])
    phi = []
    for i in range(q1):
        for j in range(q2):
            m1, m2 = spec1.phi[i], spec2.phi[j]
            block = [[0] * (n1 + n2) for _ in range(n1 + n2)]
            for r in range(n1):
                for c in range(n1):
                    block[r][c] = m1[r, c]
            for r in range(n2):
                for c in range(n2):
                    block[n1 + r][n1 + c] = m2[r, c]
            phi.append(block)
    coc = [[None] * qs for _ in range(qs)]
    for i in range(q1):
        for j in range(q2):
            for k in range(q1):
                for l in range(q2):
                    coc[pack(i, j)][pack(k, l)] = tuple(spec1.coc[i][k]) + tuple(spec2.coc[j][l])
    taken = {name for name, _ in spec1.generator_names}
    gens = [(name, (pack(g.q, 0), tuple(g.a) + (0,) * n2)) for name, g in spec1.generator_names]
    gens += [(_free_name(name, taken), (pack(0, g.q), (0,) * n1 + tuple(g.a)))
             for name, g in spec2.generator_names]
    return ExtensionSpec.build(table, phi, coc, gens)


def spec_to_dict(spec: ExtensionSpec) -> dict:
    """JSON-ready form of a spec (the CLI's group-spec schema)."""
    return {
        "q_size": spec.q_size,
        "q_table": [list(row) for row in spec.q_table],
        "n": spec.n,
        "phi": [m.to_lists() for m in spec.phi],
        "coc": [[list(v) for v in row] for row in spec.coc],
        "generators": {name: {"q": g.q, "a": list(g.a)} for name, g in spec.generator_names},
    }


def spec_from_dict(data: dict) -> ExtensionSpec:
    """Parse the JSON group-spec schema; raises GroupInputError on bad shape.

    Generator order follows the order of keys in the ``generators`` object
    (JSON objects are read in document order), which fixes transversal
    words and all derived certificates.  Every shape or type error from
    reading the data, including those ``ExtensionSpec.build`` raises on
    non-integer entries, becomes GroupInputError here.
    """
    try:
        n = int(data["n"])
        generators = [(name, (entry["q"], entry["a"])) for name, entry in data["generators"].items()]
        spec = ExtensionSpec.build(data["q_table"], data["phi"], data["coc"], generators)
        q_size = int(data["q_size"]) if "q_size" in data else spec.q_size
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise GroupInputError(f"malformed group spec: {exc!r}") from None
    if q_size != spec.q_size:
        raise GroupInputError("q_size disagrees with the q_table")
    if spec.n != n:
        raise GroupInputError("n disagrees with the phi matrices")
    return spec
