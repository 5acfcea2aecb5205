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

``ExtensionGroup`` multiplies on tables stored when it is built: the
factor set, q^-1 for every q, and each phi(q) as gather layers (the
ELLPACK form of a sparse matrix).  With w the largest number of nonzero
entries in a row of phi(q), layer t holds for every row i one column
idx_t[i] and its coefficient co_t[i], rows with fewer entries padded by
(0, 0), so

    (phi(q) a)_i = sum_t co_t[i] a[idx_t[i]],

where a layer reads a[idx_t] with one ``itemgetter``.  A signed
permutation, as every phi of dinf, klein, promislow and Z wr Q is, is
one layer; a dense phi is n layers.  A product is coc(q, q') + a' plus
one vector pass per layer of phi(q'), and an inverse the same on q^-1,
negated once.  ``validate_extension`` does not pad: it keeps each phi(s)
as its nonzero entries (``_sparse``), and ``_times`` forms phi(s) M
reading one row of M per entry, for M = phi(q) in the anti-homomorphism
check and M with the distinct factor-set vectors as columns in the
cocycle check.  A spec that passes takes no determinant: its phi are
unimodular by the anti-homomorphism check itself (see
``validate_extension``).
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from math import lcm
from operator import add, itemgetter, mul, neg

from ._record import Record, _tuple_new
from .errors import GroupInputError
from .gentor import (_UNSET, _free_name, _verify_product, conjugate, labeled_transversal,
                     order_mod_translation, power)
from .intlin import IntMatrix, _as_int, cokernel_structure, solve_integer_linear


class ExtElement(Record, fields="q a"):
    __slots__ = ()


def _vec(v) -> tuple:
    return tuple(map(_as_int, v))


def _vadd(u, v) -> tuple:
    return tuple(x + y for x, y in zip(u, v))


def _vneg(v) -> tuple:
    return tuple(-x for x in v)


class ExtensionSpec(Record, fields="q_size q_table n phi coc generator_names"):
    __slots__ = ()

    @classmethod
    def build(cls, q_table, phi, coc, generators) -> "ExtensionSpec":
        """Normalize plain lists into an immutable spec.

        ``phi`` is a list of n x n matrices (lists or IntMatrix), ``coc`` a
        q_size x q_size array of n-vectors, ``generators`` an ordered list
        of (name, (q, a)) pairs.
        """
        table = tuple(_vec(row) for row in q_table)
        q_size = len(table)
        # phi matrices are square, so one without rows is 0x0
        mats = tuple(m if isinstance(m, IntMatrix) else IntMatrix(m, cols=None if m else 0)
                     for m in phi)
        n = mats[0].rows if mats else 0
        cocs = tuple(tuple(_vec(v) for v in row) for row in coc)
        gens = tuple((str(name), ExtElement(_as_int(q), _vec(a))) for name, (q, a) in generators)
        return cls(q_size, table, n, mats, cocs, gens)


class ValidationReport(Record, fields="failures"):
    __slots__ = ()

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
    return _generating_points(spec.q_table, [g.q for _, g in spec.generator_names])


def _generating_points(table, firsts) -> tuple:
    qs = len(table)
    if not qs:
        return ()
    picked = []
    reached = [True] + [False] * (qs - 1)
    expanded = [0]  # reached indices already multiplied by every picked index
    candidates = [q for q in firsts if 0 < q < qs]
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


def point_table_failures(table, firsts=()) -> tuple:
    """Why ``table`` is not a group table with identity 0; () when it is.

    Checks the shape, the range of the entries, that index 0 is the
    identity, associativity by Light's test on S (see
    ``validate_extension``; ``firsts`` are the point indices S tries
    first, as in ``point_generating_set``) and that every index has an
    inverse.  A shape or range failure is reported alone.
    """
    return _point_table_check(table, firsts)[0]


def _point_table_check(table, firsts) -> tuple:
    """(``point_table_failures``, S): S is () when a shape or range check
    fails, and is found once for both Light's test and its caller."""
    qs = len(table)
    if qs == 0:
        return ("q_table is empty; index 0 must be the identity",), ()
    if any(len(row) != qs for row in table):
        return (f"q_table must be {qs}x{qs}",), ()
    if any(not (0 <= x < qs) for row in table for x in row):
        return ("q_table entries out of range",), ()
    bad = []
    for q in range(qs):
        if table[0][q] != q or table[q][0] != q:
            bad.append(f"index 0 is not the identity at q={q}")
    gens = _generating_points(table, firsts)
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
    return tuple(bad), gens


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
    cocycle checks run over s in S only, and accept exactly the specs the
    checks over all triples accept.  Failure lines name only checked
    triples and pairs, those whose last index is in S.  The identity,
    inverse, shape and normalization checks run over all of Q.  The table
    checks are ``point_table_failures``, which finds S once for both; the
    rest run only once the table passes.

    No determinant is taken on a spec that passes.  Once the table is a
    group, phi(0) = I and phi(q s) = phi(s) phi(q) for every q and s in S
    give phi(s)^k = phi(s^k) = I for k the order of s, so det phi(s) = +-1,
    and every phi(q) is a product of the phi(s).  Only when the phi(0) or
    anti-homomorphism check fails is ``IntMatrix.det`` run on every phi(q);
    a determinant other than +-1 is then reported in place of those lines.

    The anti-homomorphism check compares the rows of phi(s) phi(q),
    formed by ``_times``, with those of phi(q s): O(|Q| |S| nnz n) for
    nnz the most nonzero entries of a phi(s), against O(|Q|^2 n^3) for
    dense products over all pairs.  The cocycle check interns the
    factor-set vectors to ids, applies each phi(s) to all distinct
    vectors at once, and memoises the sum of two ids, so a triple costs
    a few dict lookups: O(|Q|^2 |S|) lookups plus O(nnz) row steps per s,
    where the check over all triples costs O(|Q|^3 n^2).
    """
    qs, table = spec.q_size, spec.q_table
    if len(table) != qs:
        return ValidationReport((f"q_table must be {qs}x{qs}",))
    failures, gens = _point_table_check(table, [g.q for _, g in spec.generator_names])
    if failures:
        return ValidationReport(failures)
    bad = []
    n = spec.n
    zero = (0,) * n
    phi = spec.phi
    if len(phi) != qs:
        bad.append("phi must assign one matrix per point-group index")
    elif any(m.rows != n or m.cols != n for m in phi):
        bad = _matrix_failures(phi, n)
    else:
        acts = [(s, _sparse(phi[s])) for s in gens]
        found = _phi_failures(phi, table, acts, n)
        if found:  # only now may some phi(q) be singular
            bad = _matrix_failures(phi, n) or found
    coc = spec.coc
    if len(coc) != qs or any(len(row) != qs for row in coc):
        bad.append(f"coc must be a {qs}x{qs} array of vectors")
    else:
        for q in range(qs):
            for r in range(qs):
                if len(coc[q][r]) != n:
                    bad.append(f"coc({q},{r}) has wrong length")
        if not bad:  # so the phi checks ran, and acts holds the forms of S
            for q in range(qs):
                if coc[0][q] != zero or coc[q][0] != zero:
                    bad.append(f"factor set is not normalized at q={q}")
            bad.extend(_cocycle_failures(coc, table, acts, zero))
    for name, g in spec.generator_names:
        if not (0 <= g.q < qs):
            bad.append(f"generator {name}: point index out of range")
        if len(g.a) != n:
            bad.append(f"generator {name}: vector has wrong length")
    return ValidationReport(tuple(bad))


def _matrix_failures(phi, n) -> list:
    """A line for each phi(q) that is not n x n, or not unimodular."""
    bad = []
    for q, m in enumerate(phi):
        if m.rows != n or m.cols != n:
            bad.append(f"phi({q}) is not {n}x{n}")
        elif abs(m.det()) != 1:
            bad.append(f"phi({q}) is not invertible over the integers")
    return bad


def _phi_failures(phi, table, acts, n) -> list:
    """The phi(0) = I and anti-homomorphism lines: phi(q s) = phi(s) phi(q)
    row by row, through ``_times``."""
    bad = []
    if phi[0] != IntMatrix.identity(n):
        bad.append("phi(0) must be the identity matrix")
    rows = [_rows(m) for m in phi]
    for q, mq in enumerate(rows):
        for s, form in acts:
            if rows[table[q][s]] != _times(form, mq):
                bad.append(f"phi is not an anti-homomorphism at ({q},{s})")
    return bad


def _cocycle_failures(coc, table, acts, zero) -> list:
    """The cocycle identity phi(s) coc(q, r) + coc(q r, s) =
    coc(q, r s) + coc(r, s) at every (q, r) and s in ``acts``, on ids.

    Every vector, given or formed, gets one id, so equal vectors compare
    as equal ids; the sum of two ids is formed once per unordered pair.
    With n = 0 the one vector is (), id 0, and so is its image.
    """
    ids = {}
    vecs = []

    def intern(v):
        k = ids.setdefault(v, len(vecs))
        if k == len(vecs):
            vecs.append(v)
        return k

    cid = [[intern(v) for v in row] for row in coc]
    cols = tuple(zip(*vecs))  # M, whose columns are the given vectors
    moved = [list(map(intern, zip(*_times(form, cols)))) if zero else [0] for _, form in acts]
    sums = {}

    def plus(i, j):
        k = sums.get((i, j))
        if k is None:
            k = sums[i, j] = sums[j, i] = intern(tuple(map(add, vecs[i], vecs[j])))
        return k

    bad = []
    for q in range(len(table)):
        row, cq = table[q], cid[q]
        for r in range(len(table)):
            left, right, v, cr = cid[row[r]], table[r], cq[r], cid[r]
            for (s, _), image in zip(acts, moved):
                if plus(image[v], left[s]) != plus(cq[right[s]], cr[s]):
                    bad.append(f"cocycle identity fails at ({q},{r},{s})")
    return bad


def _rows(m: IntMatrix) -> tuple:
    """The rows of m as int tuples, those m holds (no copy)."""
    return tuple(map(m.row, range(m.rows)))


def _layers(m: IntMatrix) -> tuple:
    """The gather layers of a square m as (get, co) pairs.

    Layer t holds the t-th nonzero entry of every row i, at column
    idx[i] with value co[i], and get reads a[idx] (``_gather``); a row
    with fewer than t + 1 nonzero entries holds (0, 0) there.  There are
    as many layers as the densest row has nonzero entries, none when m is
    0x0 or zero.
    """
    cols = range(m.cols)
    rows = [[(j, row[j]) for j in compress(cols, row)] for row in _rows(m)]
    width = max(map(len, rows), default=0)
    layers = []
    for t in range(width):
        idx, co = zip(*(row[t] if t < len(row) else (0, 0) for row in rows))
        layers.append((_gather(idx), co))
    return tuple(layers)


def _sparse(m: IntMatrix) -> tuple:
    """A square m as (get, co, rest): row i's first nonzero entry is co[i]
    at column idx[i], read by get = ``_gather(idx)``, rest holds the other
    nonzero entries as (i, j, c), and a zero row (no invertible m has one)
    takes (0, 0)."""
    cols = range(m.cols)
    idx, co, rest = [], [], []
    for i, row in enumerate(_rows(m)):
        j, *more = list(compress(cols, row)) or [0]
        idx.append(j)
        co.append(row[j])
        rest += ((i, k, row[k]) for k in more)
    return _gather(tuple(idx)), tuple(co), tuple(rest)


def _times(form, rows) -> tuple:
    """The rows of m M, for m in its ``_sparse`` form and M given by its
    rows: co[i] times row idx[i] of M, all read in one gather, plus c times
    row j for each further entry (i, j, c), so one read per entry of m."""
    get, co, rest = form
    out = [r if c == 1 else tuple(map(c.__mul__, r)) for c, r in zip(co, get(rows))]
    for i, j, c in rest:
        out[i] = tuple(map(add, out[i], map(c.__mul__, rows[j])))
    return tuple(out)


def _gather(idx: tuple) -> itemgetter:
    """An ``itemgetter`` that reads the entries of a tuple at idx into a tuple.

    With a single index it reads a one-entry slice, since ``itemgetter(i)``
    returns the entry itself, and with none an empty slice.
    """
    if len(idx) > 1:
        return itemgetter(*idx)
    return itemgetter(slice(idx[0], idx[0] + 1) if idx else slice(0))


def abelianization_relations(spec: ExtensionSpec) -> tuple:
    """Relation matrix of G^ab over n + |S| columns, and the image w_q of each (q, 0).

    Columns are the lattice basis t_1..t_n followed by one symbol r_s per
    s in S = ``point_generating_set(spec)``; (q, a) maps to (a | 0) + w_q.
    Q is walked breadth-first from 0 over S: the edge p -> p s that first
    reaches q sets w_q = w_p + e_s - (coc(p, s) | 0), so w_0 = 0 and
    w_s = e_s.  The rows are t_i = phi(s) t_i for every (s, i) and
    w_q + e_s - (coc(q, s) | 0) - w_{qs} for every pair (q, s) off the
    tree, with zero and repeated rows dropped.

    Start from the presentation over n + |Q| columns, one r_q per index,
    with (q, a) -> (a | e_q): r_q r_s = r_{qs} t^{coc(q,s)} for every q and
    s in S, the t-rows of S, and r_0 trivial.  These rows span those of
    every pair: every phi(q) is a product of the phi(s), and the cocycle
    identity at (q, r, s) makes the row of (q, r s) a sum of rows of pairs
    shorter in r.  The row of a tree edge p -> p s holds r_{ps} with
    coefficient -1 and, p coming first, defines it by symbols already
    written as w_p and e_s (the edge 0 -> s defines r_0 = 0).  Eliminating
    each in turn is a Tietze move: the cokernel is unchanged, the tree
    rows vanish and every other row is rewritten through the w_q.
    """
    n, table, coc = spec.n, spec.q_table, spec.coc
    gens = point_generating_set(spec)
    pad = (0,) * len(gens)
    rows = [tuple(int(i == j) - x for j, x in enumerate(col)) + pad
            for s in gens for i, col in enumerate(zip(*_rows(spec.phi[s])))]
    units = [pad[:j] + (1,) + pad[j + 1:] for j in range(len(gens))]
    w = [None] * spec.q_size
    w[0] = (0,) * n + pad
    order = [0]
    for p in order:  # grows while it is read: a breadth-first walk
        for s, unit in zip(gens, units):
            q = table[p][s]
            step = _vadd(w[p], _vneg(coc[p][s]) + unit)
            if w[q] is None:
                w[q] = step
                order.append(q)
            else:
                rows.append(_vadd(step, _vneg(w[q])))
    rows = [row for row in dict.fromkeys(rows) if any(row)]
    return IntMatrix._of(rows, n + len(gens)), tuple(w)


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
        self._table = spec.q_table
        self._coc = spec.coc
        self._layers = tuple(map(_layers, spec.phi))
        self._q_inv = tuple(row.index(0) for row in spec.q_table)
        self._relations, images = abelianization_relations(spec)
        self._images = tuple((w[:spec.n], w[spec.n:]) for w in images)
        self._ab = None
        self._torsion = _UNSET
        self._holonomy = None

    # -- element arithmetic -------------------------------------------------

    def identity(self) -> ExtElement:
        return ExtElement(0, (0,) * self.spec.n)

    def mul(self, g: ExtElement, h: ExtElement) -> ExtElement:
        gq, ga = g
        hq, ha = h
        out = map(add, self._coc[gq][hq], ha)
        # one vector pass per layer of phi(hq), and the result built by
        # tuple.__new__: mul and inv are the hot path
        for get, co in self._layers[hq]:
            out = map(add, out, map(mul, co, get(ga)))
        return _tuple_new(ExtElement, (self._table[gq][hq], tuple(out)))

    def inv(self, g: ExtElement) -> ExtElement:
        gq, ga = g
        qi = self._q_inv[gq]
        out = self._coc[gq][qi]
        for get, co in self._layers[qi]:
            out = map(add, out, map(mul, co, get(ga)))
        return _tuple_new(ExtElement, (qi, tuple(map(neg, out))))

    conj = conjugate
    pow = power
    labeled_transversal = labeled_transversal
    order_mod_translation = order_mod_translation

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
        """exp(Q), the lcm of the point orders, computed on first use."""
        if self._holonomy is None:
            self._holonomy = lcm(*(self.q_order(q) for q in range(self.spec.q_size)))
        return self._holonomy

    def transversal(self):
        """The zero section (q, 0), one per q; needs no generators."""
        zero = (0,) * self.spec.n
        return [ExtElement(q, zero) for q in range(self.spec.q_size)]

    def abelianization(self):
        if self._ab is None:
            self._ab = cokernel_structure(self._relations)
        return self._ab

    def ab_vector(self, g: ExtElement) -> tuple:
        lattice, point = self._images[g.q]
        return _vadd(g.a, lattice) + point

    # -- structure ----------------------------------------------------------

    def torsion_witness(self):
        """An element of finite order, or None if the group is torsion-free.

        For each q != 0 of order o in Q, (q, a)^o = (0, N_q a + c_q), affine
        in a: N_q = sum_j phi(q)^j is the norm sum_{r in <q>} phi(r) of the
        stored phi, as phi(q)^j = phi(q^j), and c_q is the lattice part of
        (q, 0)^o.  A torsion element exists exactly when N_q x = -c_q has
        an integer solution.
        """
        if self._torsion is _UNSET:
            self._torsion = self._find_torsion()
        return self._torsion

    def _find_torsion(self):
        s = self.spec
        for q in range(1, s.q_size):
            walk = [0]
            while (r := s.q_table[walk[-1]][q]) != 0:
                walk.append(r)
            c = self.pow(ExtElement(q, (0,) * s.n), len(walk)).a
            norm = [tuple(map(sum, zip(*rows))) for rows in zip(*(_rows(s.phi[r]) for r in walk))]
            x = solve_integer_linear(IntMatrix._of(norm, s.n), _vneg(c))
            if x is not None:
                return ExtElement(q, _vec(x))
        return None

    def is_torsion_free(self) -> bool:
        return self.torsion_witness() is None

    def center_rank(self) -> int:
        """Rank of the sublattice fixed by every phi(q), read off G^ab.

        Over Q the homology of the finite Q vanishes in positive degrees,
        so H_1(G; Q) is H_0(Q; Z^n (x) Q), the coinvariants of the lattice.
        For a finite group the coinvariants and the invariants of a rational
        representation have the same dimension, so the fixed sublattice has
        the free rank of G^ab, and no second elimination runs.
        """
        return self.abelianization().free_rank

    def verify_positive_identity_all(self, k: int, conjugators) -> bool:
        """True iff prod_j (g^k)^{x_j} = 1 for EVERY group element g.

        Write x_j = (q_j, t_j).  Conjugating a translation (0, a) by x_j
        gives (0, phi(q_j) a), and translations commute, so for h in the
        lattice A the product of the conjugates of h is (0, S a) with
        S = sum_j phi(q_j).  On A, (0, a)^k = (0, k a), so for k != 0 the
        identity forces k S a = 0 for every a, that is S = 0.  When k is a
        multiple of exp(Q) = exp(G/A), every g^k lies in A, and S = 0 is
        also enough.  So there the identity holds exactly when the point
        parts, counted with multiplicity, act as 0 on A (x) Q; neither
        the order of the conjugators nor their lattice parts matter, and
        no product is formed.  For k = 0 every g^0 = 1 and the identity
        holds.  For any other k, S = 0 is only necessary: it rejects
        early, and otherwise ``_identity_at_points`` decides.
        """
        if not k:
            return True
        conjugators = tuple(conjugators)
        if not self._acts_as_zero(conjugators):
            return False
        if k % self.holonomy_exponent() == 0:
            return True
        return self._identity_at_points(k, conjugators)

    def _acts_as_zero(self, conjugators) -> bool:
        """True iff sum_j phi(q_j) = 0 over the conjugators' point parts.

        With c_q the number of conjugators with point part q, the sum is
        accumulated through the stored gather layers: layer t of phi(q)
        adds c_q co_t[i] at entry (i, idx_t[i]), idx_t read back by
        gathering from range(n).  Padding adds 0, and entries no layer
        touches stay 0.
        """
        n = self.spec.n
        cols, starts = range(n), range(0, n * n, n or 1)  # entry (i, j) is key i n + j
        acc = {}
        for q, c in Counter(x.q for x in conjugators).items():
            for get, co in self._layers[q]:
                for k, x in zip(map(add, starts, get(cols)), co):
                    acc[k] = acc.get(k, 0) + c * x
        return not any(acc.values())

    def _identity_at_points(self, k: int, conjugators) -> bool:
        """The identity decided by evaluation, for any k.

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
    """Spec of G1 x G2: Q = Q1 x Q2, block phi, concatenated factor set.

    The spec is formed from the two specs' ints directly, not through
    ``ExtensionSpec.build``; equal factor-set vectors are stored once, so a
    zero factor set is one shared zero vector.
    """
    q1, q2 = spec1.q_size, spec2.q_size
    n1, n2 = spec1.n, spec2.n
    t1, t2 = spec1.q_table, spec2.q_table
    table = tuple(tuple(x * q2 + y for x in t1[i] for y in t2[j])
                  for i in range(q1) for j in range(q2))
    pad1, pad2 = (0,) * n1, (0,) * n2
    phi = tuple(IntMatrix._of([row + pad2 for row in _rows(m1)] + [pad1 + row for row in _rows(m2)],
                              n1 + n2)
                for m1 in spec1.phi for m2 in spec2.phi)
    seen = {}
    coc = tuple(tuple(seen.setdefault(v, v) for u in c1 for v in map(u.__add__, c2))
                for c1 in spec1.coc for c2 in spec2.coc)
    taken = {name for name, _ in spec1.generator_names}
    gens = tuple((name, ExtElement(g.q * q2, g.a + pad2)) for name, g in spec1.generator_names)
    gens += tuple((_free_name(name, taken), ExtElement(g.q, pad1 + g.a))
                  for name, g in spec2.generator_names)
    return ExtensionSpec(q1 * q2, table, n1 + n2, phi, coc, gens)


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
        n = _as_int(data["n"])
        generators = [(name, (entry["q"], entry["a"])) for name, entry in data["generators"].items()]
        spec = ExtensionSpec.build(data["q_table"], data["phi"], data["coc"], generators)
        q_size = _as_int(data["q_size"]) if "q_size" in data else spec.q_size
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise GroupInputError(f"malformed group spec: {exc!r}") from None
    if q_size != spec.q_size:
        raise GroupInputError("q_size disagrees with the q_table")
    if spec.n != n:
        raise GroupInputError("n disagrees with the phi matrices")
    return spec
