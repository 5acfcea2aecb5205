"""Collection backend for the metabelian groups K(p^n, p^m).

Elements have the normal form x^alpha y^beta c^v with c = [x, y] =
x^-1 y^-1 x y.  The commutator exponent v lives in a finitely presented
module M over the group ring Z[C_{p^n} x C_{p^m}]: conjugation by x and y
acts as multiplication by the ring generators X and Y, and the defining
relators [[x,y], x^{p^n}] and [[x,y], y^{p^m}] are absorbed by the ring
relations X^{p^n} = 1 and Y^{p^m} = 1.

Collection rests on one master identity,

    [x^a, y^b] = c^{Psi_a(X) Psi_b(Y)},   Psi_k(T) = 1 + T + ... + T^{k-1},

extended to negative exponents by Psi_{-a}(T) = -T^{-a} Psi_a(T).  Writing
N = p^{n+m}, the power relators of the presentation collapse x^N and y^N
into commutator words: x^N = c^{g3} and y^N = c^{g4}, where g3 and g4 are
computed here by collecting the relators, not hard-coded.  The relation
submodule S is the shift closure of the consistency vectors obtained by
conjugating both power relations by each generator and comparing the two
ways of evaluating the result.  Where a generator conjugates its own
power, (x^x)^N = x^N exactly, so that vector needs no collection; each
mixed one is collected as (x^N)^y, which equals (x^y)^N in every group,
by one conjugation of x^N (and likewise for y).  All four are then
checked to be integer multiples of the norm Psi_{p^n}(X) Psi_{p^m}(Y),
the all-ones vector, with multiples of gcd 1.  Shifts fix the norm, so
S = Z norm and M = Z^d / Z norm is free of rank d - 1; a group failing
the check is a theorem violation, as is a relator that collects to the
wrong x- or y-exponent.  The build collects in the cover, the group
where only the ring relations hold, with the shared square-and-multiply
``power`` and ``conjugate``, states each power of a single generator,
which collects with no correction, and forms each consistency vector
g + w - U g in one pass.  The cover is made per call, never kept on the
group, so a group holds no reference cycle.  The torsion search needs no
cover: on each line residue (a, b), (x^a y^b)^p is x^{pa} y^{pb} up to a
multiple of the norm, so ``_make`` folds it straight from g3 and g4.

A shift X^a Y^b is one ``itemgetter`` from a table of d getters built
once per group: one index list per b, rotated right by a * p^m entries
for each a.

The build's collection in the cover and the group's ``mul`` share one
body, ``_raw_mul``: one pass over the ring vector that shifts, adds, and
subtracts the master identity's correction (``_correction``) in closed
form.  ``_raw_inv``, the cover's and the group's inverse, is one pass
too: it shifts and negates, taking the shifted vector from the same
correction.  ``_make`` then folds the exponents into [0, N) and reduces
modulo the norm.

Ring elements are integer tuples, or lists fresh from ``_raw_mul``, of
length d = p^{n+m}, indexed by
(i, j) -> i * p^m + j for the monomial X^i Y^j.  An element stores its
commutator exponent v by the coordinates v_k - v_0, k = 1, ..., d - 1:
the entries after the first of v - v_0 norm.  These coordinates are the
only representation of M.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from math import gcd, lcm
from operator import add, itemgetter, neg, sub
from types import SimpleNamespace

from ._record import Record, _tuple_new
from .errors import BackendCapabilityError, GroupInputError, TheoremViolationError
from .gentor import (_UNSET, conjugate, labeled_transversal, order_mod_translation, power,
                     transversal)
from .intlin import AbelianStructure, IntMatrix

SIZE_CAP = 256  # largest accepted N = p^(n+m)


class MetabElement(Record, fields="key alpha beta coords"):
    __slots__ = ()


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    k = 2
    while k * k <= p:
        if p % k == 0:
            return False
        k += 1
    return True


class MetabGroup:
    """The group K(p^n, p^m) with exact normal-form arithmetic."""

    def __init__(self, p: int, n: int, m: int):
        if n < 1 or m < 1:
            raise GroupInputError("n and m must be at least 1")
        # bound the size before forming a power of p or dividing p: for
        # p >= 2, p^(n+m) > cap whenever p > cap or n + m > bit_length(cap)
        cap = SIZE_CAP
        if p >= 2 and (p > cap or n + m > cap.bit_length() or p ** (n + m) > cap):
            raise GroupInputError(
                f"p^(n+m) for p = {p}, n = {n}, m = {m} exceeds the size cap {cap}")
        if not _is_prime(p):
            raise GroupInputError(f"p must be prime, got {p}")
        self.p, self.n_exp, self.m_exp = p, n, m
        self.qn = p**n
        self.qm = p**m
        self.N = p ** (n + m)
        self.d = self.qn * self.qm
        self.key = (p, n, m)
        self.name = f"K:{p},{n},{m}"
        self._zero = (0,) * self.d
        self._shifts = self._shift_table()

        # power relations x^N = c^{g3}, y^N = c^{g4}, by unreduced collection
        # of the relators prod_{j < qm} (x^{qn})^{y^j} = (x^{qn} y^-1)^{qm} y^{qm}
        # and prod_{j < qn} (y^{qm})^{x^j} = (y^{qm} x^-1)^{qn} x^{qn}, which
        # the presentation forces to be trivial: they collect to x^N c^w and
        # y^N c^w, so x^N = c^{-w} (and y^N likewise).  A power of one
        # generator collects with no correction, so y^{qm} and x^{qn} are stated
        z = self._zero
        cover = self._cover()
        tails = []
        for base, unit, steps, want in (((self.qn, 0, z), (0, 1, z), self.qm, (self.N, 0)),
                                        ((0, self.qm, z), (1, 0, z), self.qn, (0, self.N))):
            a, b, w = self._raw_mul(
                power(cover, self._raw_mul(base, self._raw_inv(unit)), steps),
                (steps * unit[0], steps * unit[1], z))
            if (a, b) != want:
                raise TheoremViolationError(
                    f"a power relator of K({self.qn},{self.qm}) collects to x^{a} y^{b}, "
                    f"not x^{want[0]} y^{want[1]}")
            tails.append(self._neg(w))
        self.g3, self.g4 = tails

        # S = Z norm exactly when every consistency vector is a multiple of
        # the norm, with multiples of gcd 1; then M is torsion-free and the
        # norm, the exponent of [x^{p^n}, y^{p^m}], lies in S.  The norm
        # Psi_{p^n}(X) Psi_{p^m}(Y) is the all-ones vector, so k norm is (k,) * d
        self._relations = self._consistency_vectors(cover)
        multiples = [vec[0] for vec in self._relations]
        if gcd(*multiples) != 1 or any(
                vec != (k,) * self.d for vec, k in zip(self._relations, multiples)):
            raise TheoremViolationError(
                f"the relation submodule of K({self.qn},{self.qm}) is not Z norm: its "
                "generators are not multiples of the norm with gcd 1"
            )

        self.generators = (
            ("x", self._make(1, 0, self._zero)),
            ("y", self._make(0, 1, self._zero)),
        )
        self._ab = None
        self._torsion = _UNSET

    # -- ring helpers (vectors over the monomial basis X^i Y^j) -------------

    def _shift_table(self):
        """Index permutation of each shift X^a Y^b, at a * qm + b, as an
        ``itemgetter`` that reads a shifted vector into a tuple.

        Multiplying by X^a Y^b moves the coefficient of X^i Y^j to
        X^{i+a} Y^{j+b}, so entry k = i * qm + j of the result is read from
        ((i - a) % qn) * qm + (j - b) % qm.  For each b one index list is
        formed, and the getters for a > 0 rotate it right by a * qm entries.
        """
        qm, d = self.qm, self.d
        bases = [[i + (j - b) % qm for i in range(0, d, qm) for j in range(qm)]
                 for b in range(qm)]
        table = []
        for r in range(d, 0, -qm):
            table.extend(itemgetter(*base[r:], *base[:r]) for base in bases)
        return table

    def _shift(self, v, a: int, b: int):
        return self._shifts[(a % self.qn) * self.qm + b % self.qm](v)

    @staticmethod
    def _add(u, v):
        return tuple(x + y for x, y in zip(u, v))

    @staticmethod
    def _neg(v):
        return tuple(-x for x in v)

    @staticmethod
    def _scale(v, k: int):
        return tuple(k * x for x in v)

    @staticmethod
    def _psi(k: int, modulus: int):
        """Psi_k(T) modulo T^modulus - 1, as a coefficient list."""
        base, extra = divmod(k, modulus)
        return [base + 1] * extra + [base] * (modulus - extra)

    def monomial(self, i: int, j: int):
        out = [0] * self.d
        out[(i % self.qn) * self.qm + (j % self.qm)] = 1
        return tuple(out)

    # -- collection in the cover (no power folding; _make folds) ----------

    def _raw_mul(self, g1, g2):
        """x^a1 y^b1 c^v1 * x^a2 y^b2 c^v2, collected in one pass.

        c^v1 moves past x^a2 y^b2 as X^a2 Y^b2 v1, and y^b1 past x^a2 leaves
        [x^a2, y^b1]^-1 conjugated by y^b2.  By the master identity that is
        c to the minus Psi_a2(X) Psi_b1(Y) Y^b2, whose entry (i, j) is
        Psi_a2[i] Psi_b1[(j - b2) mod qm].  For every integer k,
        Psi_k(T) mod T^q - 1 is t + 1 on T^i for i < r and t after, with
        (t, r) = divmod(k, q); so the correction is two rows repeated.
        The ring part is returned as a fresh list.
        """
        a1, b1, v1 = g1
        a2, b2, v2 = g2
        qn, qm = self.qn, self.qm
        v = map(add, self._shifts[(a2 % qn) * qm + b2 % qm](v1), v2)
        if not (a2 and b1):
            return (a1 + a2, b1 + b2, list(v))
        return (a1 + a2, b1 + b2, list(map(sub, v, self._correction(a2, b1, b2))))

    def _correction(self, a2: int, b1: int, b2: int) -> list:
        """Psi_a2(X) Psi_b1(Y) Y^b2 as a ring vector (zero when a2 b1 = 0,
        where callers skip it)."""
        qn, qm = self.qn, self.qm
        tx, rx = divmod(a2, qn)
        py = self._psi(b1, qm)
        s = qm - b2 % qm
        py = py[s:] + py[:s]  # Y^b2 Psi_b1(Y)
        return list(map((tx + 1).__mul__, py)) * rx + list(map(tx.__mul__, py)) * (qn - rx)

    def _raw_inv(self, g):
        """The inverse in the cover, in one pass.

        g * (x^-a y^-b) = c^w makes it x^-a y^-b c^-w, and by ``_raw_mul``
        -w is the correction at (a2, b1, b2) = (-a, b, -b) less X^-a Y^-b v.
        """
        a, b, v = g
        shifted = self._shift(v, -a, -b)
        if not (a and b):
            return (-a, -b, list(map(neg, shifted)))
        return (-a, -b, list(map(sub, self._correction(-a, b, -b), shifted)))

    def _cover(self):
        """The cover as a group for the shared ``power`` and ``conjugate``.

        Made per call and never stored: kept on the group, its bound
        methods would form a reference cycle, and every K would wait for
        the cycle collector to be freed.
        """
        z = self._zero
        return SimpleNamespace(identity=lambda: (0, 0, z), mul=self._raw_mul, inv=self._raw_inv)

    def collect_unreduced(self, word):
        """Collect a word over {x, y, c} without applying power relations.

        This is arithmetic in the cover where only the ring relations hold,
        so x- and y-exponents stay plain integers.  Used by ``collect``, and
        as a cross-check target in tests.
        """
        out = (0, 0, self._zero)
        for name, exp in word:
            if name == "x":
                out = self._raw_mul(out, (exp, 0, self._zero))
            elif name == "y":
                out = self._raw_mul(out, (0, exp, self._zero))
            elif name == "c":
                out = self._raw_mul(out, (0, 0, self._scale(self.monomial(0, 0), exp)))
            else:
                raise GroupInputError(f"unknown generator {name!r}")
        return out

    def _consistency_vectors(self, cover):
        """Module generators of the relation submodule S.

        For each power relation (x^N = c^{g3}, y^N = c^{g4}) and each
        generator u, conjugating the left side letter by letter gives
        (x^u)^N = x^N c^{w}; substituting the relation on both sides forces
        g + w - g * U to die in M.  For u = base, u^u = u, so w = 0 without
        collecting.  For the two mixed vectors, (x^u)^N = (x^N)^u in every
        group, the cover included, and x^N there is (N, 0, 0) with no
        correction, so each is one conjugation of that stated power.
        """
        vectors = []
        N = self.N
        x, y = (1, 0, self._zero), (0, 1, self._zero)
        for base, g in ((x, self.g3), (y, self.g4)):
            base_N = (N * base[0], N * base[1], self._zero)
            for u in (x, y):
                if u is base:
                    w = self._zero
                else:
                    a, b, w = conjugate(cover, base_N, u)
                    if a % N or b % N:
                        raise TheoremViolationError(
                            f"a conjugated power relation of K({self.qn},{self.qm}) "
                            f"collects to x^{a} y^{b}, not a multiple of x^{N} y^{N}")
                vectors.append(tuple(map(sub, map(add, g, w), self._shift(g, u[0], u[1]))))
        return tuple(vectors)

    # -- normal forms -------------------------------------------------------

    def _make(self, alpha: int, beta: int, v) -> MetabElement:
        """Fold exponents into [0, N) and reduce v modulo the norm.

        Folding x^N picks up c^{g3} conjugated past the pending y^beta, so
        the shift uses beta before its own reduction.  The coordinates of
        v in M = Z^d / Z norm are v_k - v_0 for k >= 1.  Products and
        inverses of normal forms fold each exponent at most once, which
        adds or subtracts the tail without scaling it.
        """
        N = self.N
        if not 0 <= alpha < N:
            k, alpha = divmod(alpha, N)
            v = self._fold(v, self._shift(self.g3, 0, beta), k)
        if not 0 <= beta < N:
            l, beta = divmod(beta, N)
            v = self._fold(v, self.g4, l)
        v0 = v[0]
        tail = v[1:]
        coords = tuple(map(sub, tail, repeat(v0)) if v0 else tail)
        return _tuple_new(MetabElement, (self.key, alpha, beta, coords))

    @staticmethod
    def _fold(v, tail, k: int):
        """v + k tail."""
        if k == 1:
            return list(map(add, v, tail))
        if k == -1:
            return list(map(sub, v, tail))
        return list(map(add, v, map(k.__mul__, tail)))

    def identity(self) -> MetabElement:
        return self._make(0, 0, self._zero)

    def _check(self, g: MetabElement):
        if g.key != self.key:
            raise GroupInputError(f"element of K{g.key} used in K{self.key}")

    def mul(self, g: MetabElement, h: MetabElement) -> MetabElement:
        key = self.key
        if g.key != key or h.key != key:
            self._check(g)
            self._check(h)
        # (0,) + coords represents the class; shifts fix the norm
        return self._make(*self._raw_mul((g.alpha, g.beta, (0,) + g.coords),
                                         (h.alpha, h.beta, (0,) + h.coords)))

    def inv(self, g: MetabElement) -> MetabElement:
        self._check(g)
        return self._make(*self._raw_inv((g.alpha, g.beta, (0,) + g.coords)))

    conj = conjugate
    pow = power
    labeled_transversal = labeled_transversal
    transversal = transversal
    order_mod_translation = order_mod_translation

    def collect(self, word) -> MetabElement:
        """Normal form of a word given as (generator, exponent) pairs.

        Generators are "x", "y", and "c"; exponents are arbitrary integers.
        The word is collected in the cover and folded once.
        """
        return self._make(*self.collect_unreduced(word))

    # -- capability contract ------------------------------------------------

    def coset(self, g: MetabElement) -> tuple:
        self._check(g)
        return (g.alpha % self.qn, g.beta % self.qm)

    def translation_index(self) -> int:
        return self.N

    def holonomy_exponent(self) -> int:
        return lcm(self.qn, self.qm)

    def abelianization(self) -> AbelianStructure:
        """G^ab = C_N x C_N, stated: x and y generate it freely modulo N, as
        the commutator c dies and x^N, y^N are powers of c.  Its relation
        matrix diag(N, N) is already in Smith form, so both transforms are
        the identity and no elimination runs."""
        if self._ab is None:
            one = IntMatrix.identity(2)
            self._ab = AbelianStructure((self.N, self.N), 0, one, (self.N, self.N), (0, 1), one)
        return self._ab

    def ab_vector(self, g: MetabElement) -> tuple:
        return (g.alpha, g.beta)

    def verify_positive_identity_all(self, k: int, conjugators) -> bool:
        """True iff prod_j (g^k)^{x_j} = 1 for EVERY group element g.

        Let A = <x^{p^n}, y^{p^m}, M>, of index N with G/A = C_{p^n} x
        C_{p^m}, and write the product of the conjugates of h in A
        additively as r h, r the sum of the conjugators' cosets in
        Z[G/A].  A / M is finite, so A (x) Q = M (x) Q = Q[C_{p^n} x
        C_{p^m}] / Q norm, where the coset of x^a y^b acts as X^a Y^b.
        That module is cyclic, generated by 1, so r kills it exactly when
        r = r 1 is a rational multiple of the norm, the all-ones vector:
        exactly when every one of the N cosets occurs equally often.

        For k != 0 the evenness is necessary: on h in M, h^k = k h and
        r (k h) = k (r h), nonzero for some h when r does not kill M, as
        M is torsion-free.  When exp(G/A) = lcm(p^n, p^m) divides k, every
        g^k lies in A, and evenness is enough: r then kills A (x) Q, and
        so A, which embeds in it as A is torsion-free, since G is.  So
        there the identity holds exactly when the cosets are even, and no
        product is formed.  For k = 0 every g^0 = 1, and the empty product
        is 1.  Any other k with even cosets raises BackendCapabilityError:
        this backend evaluates no identity.
        """
        counts = Counter(map(self.coset, conjugators))
        if not (k and counts):
            return True
        if len(counts) != self.N or len(set(counts.values())) != 1:
            return False
        if k % self.holonomy_exponent():
            raise BackendCapabilityError(
                f"{self.name} decides universal identities with even cosets only for k a "
                f"multiple of exp(G/A) = {self.holonomy_exponent()}, got k = {k}")
        if not self.is_torsion_free():
            raise TheoremViolationError(
                f"K({self.qn},{self.qm}) has torsion; the identity test needs a torsion-free group"
            )
        return True

    # -- torsion and center -------------------------------------------------

    def _torsion_residues(self):
        """One exponent residue per line of (N/p) Z_N^2, viewed as F_p^2."""
        s = self.N // self.p
        return [(s, k * s) for k in range(self.p)] + [(0, s)]

    def is_torsion_free(self) -> bool:
        """Exact torsion test with p + 1 divisibility tests.

        A torsion element has a power of prime order q.  M is torsion-free,
        so that power lies outside M and has a nonzero residue (a, b) in
        G^ab = C_N x C_N of order q; hence q = p and (a, b) lies in
        (N/p) Z_N^2, an F_p^2.  Powers g^k with p not dividing k have the
        same order and residues k (a, b), so one residue per line of that
        F_p^2 suffices: (s, k s) for k < p and (0, s), with s = N/p.
        """
        return self.torsion_witness() is None

    def torsion_witness(self):
        """An element of order p, or None when G is torsion-free.

        Every line residue (a, b) is a multiple of p^n in a and of p^m in
        b, so X^a = Y^b = 1 and x^a y^b acts trivially on M.  Hence
        (x^a y^b c^v)^p = c^{p v + c}, where c^c = (x^a y^b)^p.  In M's
        canonical coordinates, plain integers as M is torsion-free, some v
        puts p v + c into S exactly when p divides every coordinate of c.
        """
        if self._torsion is _UNSET:
            self._torsion = self._find_torsion()
        return self._torsion

    def _find_torsion(self):
        """Each residue's p-th power is x^{pa} y^{pb} folded by ``_make``.

        As X^a = Y^b = 1, no factor of (x^a y^b)^p shifts, and every
        collection correction Psi_{a'}(X) Psi_{b'}(Y) Y^{b''}, with p^n | a'
        and p^m | b', is a multiple of the norm, which ``_make`` drops.  So
        c is the fold of g3 and g4 alone, and K is torsion-free iff g3 and
        g4 are linearly independent in M/pM.
        """
        z = self._zero
        for a, b in self._torsion_residues():
            c = self._make(self.p * a, self.p * b, z).coords
            if all(x % self.p == 0 for x in c):
                w = self._make(a, b, (0,) + tuple(-x // self.p for x in c))
                if self.pow(w, self.p) != self.identity():
                    raise TheoremViolationError(
                        f"torsion witness of K({self.qn},{self.qm}) at residue {(a, b)} "
                        f"does not have order {self.p}"
                    )
                return w
        return None

    def has_trivial_center(self) -> bool:
        """True iff the center is trivial.

        The center lies in the translation subgroup A (it is maximal
        abelian), and A/M is finite.  If A is torsion-free, a nontrivial
        central z has a nontrivial power in M, which is fixed by both
        shifts; conversely every fixed vector of M is central.  So the
        center is trivial exactly when M has no nonzero fixed vector.
        Q[C_{p^n} x C_{p^m}] is semisimple and the fixed vectors of M (x) Q
        are its trivial-character component, which survives exactly when
        the augmentation (coefficient sum) vanishes on S.  Shifts keep a
        vector's sum, so the consistency vectors decide it.  A is
        torsion-free because G is; that is checked with ``is_torsion_free``
        and its failure is a theorem violation.
        """
        if not self.is_torsion_free():
            raise TheoremViolationError(
                f"K({self.qn},{self.qm}) has torsion; the center test needs a torsion-free group"
            )
        return any(sum(vec) for vec in self._relations)


def build_K(p: int, n: int, m: int) -> MetabGroup:
    """Construct K(p^n, p^m); raises GroupInputError on bad parameters."""
    return MetabGroup(p, n, m)
