"""Generalized-torsion engine over a group capability contract.

An element g is generalized torsion when some product of conjugates
g^{x_1} g^{x_2} ... g^{x_k} is the identity; the least such k is its
generalized order.  For a finitely generated abelian-by-finite group with
translation subgroup A, membership is decided through the abelianization
(the generalized torsion set is the full preimage of the torsion of G^ab),
certificates of length exactly [G:A] are constructed from transversals,
and the generalized exponent is bracketed between exp(G^ab) and [G:A].

Backends are duck-typed; this is their whole contract.

* Required: ``identity()``, ``mul(g, h)``, ``inv(g)`` on hashable
  elements that compare equal exactly when they are equal in G; a
  ``generators`` sequence of (name, element) pairs; and ``conj``/``pow``,
  bound as ``conj = conjugate`` and ``pow = power`` (shared bodies below).
* Lattice capabilities, for G abelian-by-finite with translation
  subgroup A.  A backend writes five: ``abelianization()`` (an
  ``AbelianStructure`` of G^ab) and ``ab_vector(g)``; ``coset(g)``, a
  hashable label of gA; and the integers ``translation_index()`` = [G:A]
  and ``holonomy_exponent()`` = exp(G/A).  Three more have shared bodies
  below, derived from ``coset`` and bound like ``conj``:
  ``labeled_transversal()``, (word, element) pairs, one per coset of A,
  starting with the identity "1"; ``transversal()``, its elements; and
  ``order_mod_translation(g)``, the order of gA.  A backend may write its
  own ``transversal()`` when it has representatives without generators.
* Optional: ``verify_positive_identity_all(k, conjugators)``, an exact
  check that (g^k)^{x_1} ... (g^k)^{x_m} = 1 for every g.  When exp(G/A)
  divides k, every g^k lies in A, where x^-1 a x depends on the coset of
  x alone; so, A being torsion-free, the identity holds exactly when the
  multiset of the conjugators' cosets acts as 0 on A (x) Q, whatever
  their order and their lattice parts.  Extension groups test
  sum_j phi(q_j) = 0, K that every coset occurs equally often, and
  products ask both factors.  Also optional: ``positive_identity()``,
  a (k, conjugators) pair
  with (g^k)^{x_1} ... (g^k)^{x_m} = 1 for every g, which
  ``positive_identity_witnesses`` returns in place of the transversal
  construction; ``is_torsion_free()``/``torsion_witness()``;
  ``center_rank()`` or ``has_trivial_center()``.

Operations that need a capability the backend lacks raise
BackendCapabilityError.
"""

from __future__ import annotations

import sys
from itertools import groupby, islice
from math import lcm, prod

from ._record import Record
from .errors import BackendCapabilityError, GroupInputError, TheoremViolationError
from .intlin import IntMatrix, cokernel_structure
from .words import Pow, parse_word, print_word, run_word


# a cached answer not yet computed, where None is itself an answer
_UNSET = object()


def _backend_name(G) -> str:
    return getattr(G, "name", type(G).__name__)


def _require(G, *attrs):
    for attr in attrs:
        if not hasattr(G, attr):
            raise BackendCapabilityError(
                f"backend {_backend_name(G)!r} does not provide {attr!r}"
            )


# -- generic element operations ------------------------------------------


def conjugate(G, g, x):
    """g^x = x^-1 g x."""
    return G.mul(G.mul(G.inv(x), g), x)


def power(G, g, k: int):
    """g^k by square-and-multiply: bit_length(k) - 2 + popcount(k) muls
    for k >= 1, none for k = 1.

    The squares up to k's lowest set bit start the product, so no
    multiply has the identity as a factor.
    """
    if k < 0:
        return G.inv(power(G, g, -k))
    if k == 0:
        return G.identity()
    while not k & 1:
        g = G.mul(g, g)
        k >>= 1
    out = g
    k >>= 1
    while k:
        g = G.mul(g, g)
        if k & 1:
            out = G.mul(out, g)
        k >>= 1
    return out


# -- cosets of the translation subgroup ------------------------------------


def labeled_transversal(G):
    """Coset representatives of A as (word, element) pairs, from ("1", 1).

    A breadth-first walk from the identity through ``G.generators``, keyed
    on ``coset``: the first product of generators to reach a coset
    represents it, so the words are honest products of named generators.
    The walk forms no product once every coset is found.  Computed once
    per group object.  Requires the generators to reach every coset.
    """
    cached = getattr(G, "_transversal", None)
    if cached is not None:
        return cached
    one = G.identity()
    index = G.translation_index()
    seen = {G.coset(one)}
    walk = [((), one)]
    for word, e in walk:  # entries appended here are walked too
        for name, gen in G.generators:
            if len(walk) == index:
                break
            x = G.mul(e, gen)
            label = G.coset(x)
            if label not in seen:
                seen.add(label)
                walk.append((word + (name,), x))
    if len(walk) != index:
        raise GroupInputError("generators do not reach every coset of the lattice")
    G._transversal = tuple((_format_run(word), e) for word, e in walk)
    return G._transversal


def transversal(G):
    """One element per coset of A, in ``labeled_transversal`` order."""
    return [e for _, e in labeled_transversal(G)]


def order_mod_translation(G, g) -> int:
    """Order of gA in G/A: the least n >= 1 with coset(g^n) = coset(1)."""
    one = G.coset(G.identity())
    n, x = 1, g
    while G.coset(x) != one:
        x = G.mul(x, g)
        n += 1
    return n


def _format_run(word) -> str:
    """Generator names as a word with runs collapsed: x, x, y -> "x^2*y"."""
    return run_word([(name, len(list(run))) for name, run in groupby(word)])


# -- seeded randomness ----------------------------------------------------


class SplitMix64:
    """Deterministic 64-bit generator (splitmix finalizer scheme).

    State advances by the odd constant 0x9E3779B97F4B1715 and each output
    is finalized by two xor-shift-multiply rounds.  Used for every sampled
    check in the package so runs are reproducible from a single seed.
    """

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4B1715) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        return self.next_u64() % n


def random_word_element(G, rng: SplitMix64, max_length: int = 12):
    """Product of up to ``max_length`` random generators or inverses."""
    return next(_random_words(G, rng, max_length))


def _random_words(G, rng: SplitMix64, max_length: int = 12):
    """Endless ``random_word_element`` draws from one rng; each generator
    is inverted at most once, when its inverse is first drawn."""
    gens = [g for _, g in G.generators]
    if not gens:
        raise GroupInputError("sampling elements needs at least one generator")
    inverses = [None] * len(gens)
    while True:
        out = None
        for _ in range(1 + rng.randrange(max_length)):
            pick = rng.randrange(2 * len(gens))
            i = pick >> 1
            if pick & 1:
                letter = inverses[i]
                if letter is None:
                    letter = inverses[i] = G.inv(gens[i])
            else:
                letter = gens[i]
            out = letter if out is None else G.mul(out, letter)
        yield out


# -- decision and bounds --------------------------------------------------


def is_generalized_torsion(G, g) -> bool:
    """True iff some product of conjugates of g is trivial.

    Decided through the abelianization: the generalized torsion set is the
    full preimage of the torsion subgroup of G^ab.
    """
    _require(G, "abelianization", "ab_vector")
    return G.abelianization().order_of(G.ab_vector(g)) is not None


def is_fully_generalized_torsion(G) -> bool:
    """True iff every element is generalized torsion (G^ab finite)."""
    _require(G, "abelianization")
    return G.abelianization().free_rank == 0


def gen_order_lower_bound(G, g) -> int:
    """Order of the image of g in G^ab; divides the generalized order."""
    _require(G, "abelianization", "ab_vector")
    o = G.abelianization().order_of(G.ab_vector(g))
    if o is None:
        raise GroupInputError(
            "element is not generalized torsion; no finite lower bound exists"
        )
    return o


class ExponentBounds(Record, fields="lower upper exact"):
    __slots__ = ()


def gen_exponent_bounds(G) -> ExponentBounds:
    """Bracket the generalized exponent: exp(G^ab) <= exp <= [G:A]."""
    _require(G, "abelianization", "translation_index")
    ab = G.abelianization()
    if not ab.is_finite:
        raise GroupInputError("generalized exponent bounds need a finite abelianization")
    lower = ab.exponent()
    upper = G.translation_index()
    return ExponentBounds(lower, upper, lower == upper)


# -- certificates ---------------------------------------------------------


class WitnessCertificate(Record, fields="base conjugators words length verified"):
    """A verified product of conjugates of ``base`` equal to the identity."""

    __slots__ = ()


def _verify_product(G, bases, conjugators):
    """True iff h^{x_1} h^{x_2} ... h^{x_m} = 1 for every h in ``bases``.

    With z_j = x_j x_{j+1}^-1 (indices mod m), h z_1 h z_2 ... h z_m is
    x_1 (h^{x_1} ... h^{x_m}) x_1^-1, which is 1 exactly when the product
    of conjugates is.  Equal neighbours give z_j = 1, so the check walks
    runs of equal conjugators instead: a run of r copies of x followed
    by a run of y contributes h^r x y^-1.  The n z's of n runs are formed
    once, and each base costs 2n - 1 muls plus one ``power`` per distinct
    run length.  An empty list is the empty product, 1.
    """
    runs = [(x, len(list(run))) for x, run in groupby(conjugators)]
    if not runs:
        return True
    one = G.identity()
    xs = [x for x, _ in runs]
    zs = [G.mul(x, G.inv(y)) for x, y in zip(xs, xs[1:] + xs[:1])]
    lengths = [r for _, r in runs]
    distinct = set(lengths)
    for h in bases:
        powers = {r: power(G, h, r) for r in distinct}
        out = powers[lengths[0]]
        for z, r in zip(zs, lengths[1:]):
            out = G.mul(G.mul(out, z), powers[r])
        if G.mul(out, zs[-1]) != one:
            return False
    return True


def _power_words(base_word: str, n: int) -> list:
    """The words of base^i for 1 <= i < n, at index i - 1.

    ``base_word`` is parsed once, and only when some i >= 2 needs it.  The
    caret chains to the left, so base^i prints from the tree as the base
    and one more caret, with parentheses only around a product.
    """
    if n < 3:
        return [base_word] * (n - 1)
    tree = parse_word(base_word)
    return [base_word] + [print_word(Pow(tree, i)) for i in range(2, n)]


def witness_construct(G, g, base_word: str = "g") -> WitnessCertificate:
    """Certificate with a conjugator list of length [G:A].

    With n the order of gA, conjugate by g^i * s for s in a transversal
    T' of the cosets of A<g> and 0 <= i < n.  These T = {g^i * s} run once
    over the cosets of A, and g^(g^i * s) = g^s, so the product is
    P = prod_{s in T'} (g^n)^s, a translation.  As g commutes with g^n,
    P^n = prod_{t in T} (g^n)^t = N_T(g^n), the transfer of g^n into A.
    The transfer factors through G^ab, where g^n is torsion, so N_T(g^n)
    has finite order in the torsion-free A and is trivial; so is P.  g in
    A is the case n = 1, a full labeled transversal.  Nothing here needs
    G^ab finite.

    The product is re-multiplied before returning; a nontrivial result
    raises TheoremViolationError since it contradicts the construction.
    """
    _require(G, "coset", "labeled_transversal")
    gen_order_lower_bound(G, g)  # raises when g is not generalized torsion
    n = G.order_mod_translation(g)
    powers = [G.identity(), g]  # powers[i] = g^i, read for 1 <= i < n
    for _ in range(2, n):
        powers.append(G.mul(powers[-1], g))
    power_words = _power_words(base_word, n)
    covered = set()
    words = []
    conjugators = []
    for w, s in G.labeled_transversal():
        if G.coset(s) in covered:
            continue
        for i in range(n):
            if i == 0:
                words.append(w)
                x = s
            else:
                pw = power_words[i - 1]
                words.append(pw if w == "1" else f"{pw}*{w}")
                x = powers[i] if w == "1" else G.mul(powers[i], s)
            conjugators.append(x)
            covered.add(G.coset(x))

    if not _verify_product(G, (g,), conjugators):
        raise TheoremViolationError(
            "constructed witness product is not the identity; "
            "the transversal argument failed"
        )
    return WitnessCertificate(g, tuple(conjugators), tuple(words), len(conjugators), True)


# -- positive identities --------------------------------------------------


def positive_identity_witnesses(G):
    """Inner exponent k = exp(G/A) and transversal conjugators.

    The resulting identity (g^k)^{x_1} ... (g^k)^{x_m} = 1 holds for every
    g and has degree k * [G:A].  A backend that provides
    ``positive_identity()`` supplies its own (k, conjugators) instead.
    """
    if hasattr(G, "positive_identity"):
        return G.positive_identity()
    _require(G, "holonomy_exponent", "transversal")
    if not G.abelianization().is_finite:
        raise GroupInputError("positive identities need a finite abelianization")
    return G.holonomy_exponent(), list(G.transversal())


def verify_identity_universal(G, k: int, conjugators) -> bool:
    """Exact check that the identity holds for all elements at once."""
    _require(G, "verify_positive_identity_all")
    return G.verify_positive_identity_all(k, conjugators)


def verify_identity_sampled(G, k: int, conjugators, samples: int, seed: int) -> bool:
    """Evaluate the identity on seeded pseudorandom elements."""
    if samples < 1:
        raise GroupInputError(f"samples must be >= 1, got {samples}")
    if samples > sys.maxsize:
        # islice takes no stop beyond sys.maxsize
        raise GroupInputError(f"samples must be <= {sys.maxsize}, got {samples}")
    rng = SplitMix64(seed)
    bases = (G.pow(g, k) for g in islice(_random_words(G, rng), samples))
    return _verify_product(G, bases, conjugators)


# -- bounded minimal-order search ----------------------------------------


def gen_order_search(G, g, max_k: int, radius: int):
    """Least k <= max_k with a trivial product of k conjugates, or None.

    Conjugators range over the ball of word length <= radius in the
    generators.  A product of k conjugates of g maps to k times the image
    of g in G^ab, so with lb the order of that image only the lengths
    k = lb, 2*lb, ... <= max_k can be trivial, and only those are tested.

    Level j holds the distinct products of j conjugates, each mapped to
    the first (state at level j-1, conjugate index) that reached it; by
    induction its insertion order is the lexicographic order of the
    least sequences reaching its states.  Length k is tested by meeting
    in the middle: with h = ceil(k/2), walk level h in order and stop at
    the first s whose inverse lies in level k-h.  Only levels up to
    ceil(max_k/2) are ever built.  The certificate is the least sequence
    to s followed by the least sequence to s^-1, and it is the
    lexicographically least minimal sequence: if a trivial product has
    prefix P of length h ending at s, putting the least sequence to s in
    place of P keeps the product trivial and is no larger.

    When k is odd, level k-h = h-1 is complete before level h is built,
    so each state of level h is tested as it is inserted and the build
    stops at the first match.  States are inserted in the order the walk
    visits them, so that match is the s above and the certificate is the
    same as with the level built in full.

    The ball and its inverses are kept on the group (``_generator_ball``);
    the conjugates of g are formed anew on every call, g^1 = g without a
    product.  They are distinct, so level 1 is the conjugates themselves,
    each reached from 1 by its own index, and building starts at level 2.

    None when max_k < lb holds for every conjugator, not just the ball:
    it is returned before the ball is built.  None when g is not
    generalized torsion is likewise absolute.  Otherwise None means only
    that the ball was exhausted, not that no identity exists.
    """
    _require(G, "abelianization", "ab_vector")
    if radius < 0:
        raise GroupInputError(f"radius must be >= 0, got {radius}")
    if max_k < 1:
        raise GroupInputError(f"max_k must be >= 1, got {max_k}")
    lb = G.abelianization().order_of(G.ab_vector(g))
    if lb is None or lb > max_k:
        return None

    conjugates = _conjugate_set(G, g, radius)
    # levels[j][state] = (state at level j-1, conjugate index), first reached;
    # the conjugates are distinct, so level 1 is all of them
    one = G.identity()
    levels = [{one: None}, {c: (one, i) for i, (_, _, c) in enumerate(conjugates)}]

    def grow(meet=None):
        """Append the next level; with ``meet``, stop at and return its
        first state whose inverse lies in ``meet``."""
        nxt = {}
        levels.append(nxt)
        for state in levels[-2]:
            for i, (_, _, c) in enumerate(conjugates):
                p = G.mul(state, c)
                if p not in nxt:
                    nxt[p] = (state, i)
                    if meet is not None and G.inv(p) in meet:
                        return p
        return None

    def path_to(j, state):
        path = []
        for level in reversed(levels[1 : j + 1]):
            state, idx = level[state]
            path.append(idx)
        return path[::-1]

    for k in range(lb, max_k + 1, lb):
        h = (k + 1) // 2
        while len(levels) < h:
            grow()
        if len(levels) == h and k % 2:
            s = grow(meet=levels[h - 1])
        else:
            if len(levels) == h:
                grow()
            other = levels[k - h]
            s = next((u for u in levels[h] if G.inv(u) in other), None)
        if s is not None:
            break
    else:
        return None

    path = path_to(h, s) + path_to(k - h, G.inv(s))
    words = tuple(conjugates[i][0] for i in path)
    xs = tuple(conjugates[i][1] for i in path)
    if not _verify_product(G, (g,), xs):
        raise TheoremViolationError("search reconstruction does not multiply to the identity")
    return WitnessCertificate(g, xs, words, k, True)


class _Ball:
    """A group's stored conjugator ball; see ``_generator_ball``."""

    __slots__ = ("letters", "entries", "seen", "bounds")

    def __init__(self, G):
        self.letters = []
        for name, e in G.generators:
            e_inv = G.inv(e)
            self.letters.append((name, e, e_inv))
            self.letters.append((f"{name}^-1", e_inv, e))
        one = G.identity()
        self.entries = [("1", one, one)]
        self.seen = {one}
        # word length r occupies entries[bounds[r]:bounds[r + 1]]
        self.bounds = [0, 1]


def _generator_ball(G, radius: int):
    """Labeled ball of word length <= radius, breadth-first, deduplicated.

    Entries are (word, x, x^-1).  The ball is kept per group object, as
    ``G._ball``, and grown on demand: ball(r) is a prefix of ball(R) for
    r <= R, so a smaller radius reuses the stored ball and a larger one
    extends it from the last frontier, with (e*l)^-1 = l^-1 * e^-1.  Its
    memory grows with the largest radius searched, like the transversal's.
    It is read through ``vars(G)``, so a proxy that forwards attribute
    reads to a backend keeps a ball of its own.
    """
    ball = vars(G).get("_ball")
    if ball is None:
        ball = G._ball = _Ball(G)
    entries, seen, bounds = ball.entries, ball.seen, ball.bounds
    while len(bounds) <= radius + 1 and bounds[-2] < bounds[-1]:
        for w, e, e_inv in entries[bounds[-2] : bounds[-1]]:
            for lw, le, le_inv in ball.letters:
                p = G.mul(e, le)
                if p in seen:
                    continue
                seen.add(p)
                entries.append((lw if w == "1" else f"{w}*{lw}", p, G.mul(le_inv, e_inv)))
        bounds.append(len(entries))
    return entries[: bounds[min(radius + 1, len(bounds) - 1)]]


def _conjugate_set(G, g, radius: int):
    """Distinct conjugates g^x = x^-1 g x for x in the ball, first word wins."""
    out = []
    seen = set()
    for w, x, x_inv in _generator_ball(G, radius):
        c = g if w == "1" else G.mul(G.mul(x_inv, g), x)
        if c in seen:
            continue
        seen.add(c)
        out.append((w, x, c))
    return out


# -- direct products ------------------------------------------------------


def _free_name(name: str, taken: set) -> str:
    """Product generator renaming: append "2" until ``name`` is not ``taken``."""
    while name in taken:
        name += "2"
    taken.add(name)
    return name


class DirectProductGroup:
    """Componentwise product of two backends, as a backend.

    Elements are pairs.  Generators of the right factor are renamed with a
    trailing "2" when they collide with the left factor's names.  The
    lattice capabilities and ``is_torsion_free`` work when both factors
    provide them and raise BackendCapabilityError, naming the capability
    and the factor, when one does not; so does
    ``verify_positive_identity_all``, which asks both factors.
    """

    def __init__(self, left, right, name: str | None = None):
        self.left = left
        self.right = right
        self.name = name or f"{_backend_name(left)} x {_backend_name(right)}"
        taken = {n for n, _ in left.generators}
        gens = [(n, (e, right.identity())) for n, e in left.generators]
        gens += [(_free_name(n, taken), (left.identity(), e)) for n, e in right.generators]
        self.generators = tuple(gens)
        self._ab = None

    def identity(self):
        return (self.left.identity(), self.right.identity())

    def mul(self, g, h):
        return (self.left.mul(g[0], h[0]), self.right.mul(g[1], h[1]))

    def inv(self, g):
        return (self.left.inv(g[0]), self.right.inv(g[1]))

    conj = conjugate
    pow = power
    labeled_transversal = labeled_transversal
    transversal = transversal
    order_mod_translation = order_mod_translation

    def _both(self, attr):
        """The factors' ``attr``, once each factor is checked to provide it."""
        _require(self.left, attr)
        _require(self.right, attr)
        return getattr(self.left, attr), getattr(self.right, attr)

    def abelianization(self):
        if self._ab is None:
            la, ra = (f() for f in self._both("abelianization"))
            moduli = list(la.moduli) + list(ra.moduli)
            self._ab = cokernel_structure(IntMatrix.diagonal(moduli))
        return self._ab

    def ab_vector(self, g):
        lv, rv = self._both("ab_vector")
        la, ra = (f() for f in self._both("abelianization"))
        return tuple(la.canonical(lv(g[0]))) + tuple(ra.canonical(rv(g[1])))

    def coset(self, g):
        lc, rc = self._both("coset")
        return (lc(g[0]), rc(g[1]))

    def translation_index(self) -> int:
        return prod(f() for f in self._both("translation_index"))

    def holonomy_exponent(self) -> int:
        return lcm(*(f() for f in self._both("holonomy_exponent")))

    def is_torsion_free(self) -> bool:
        return all(f() for f in self._both("is_torsion_free"))

    def verify_positive_identity_all(self, k: int, conjugators) -> bool:
        """True iff prod_j (g^k)^{x_j} = 1 for EVERY element g = (g1, g2).

        The product is formed componentwise, so it is 1 for every g
        exactly when the left factor's identity holds on the left parts of
        the conjugators and the right factor's on the right parts.  This
        is exact for every k; each factor decides its own half.
        """
        left, right = self._both("verify_positive_identity_all")
        conjugators = tuple(conjugators)
        return (left(k, [x[0] for x in conjugators])
                and right(k, [x[1] for x in conjugators]))
