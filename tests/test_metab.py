"""Metabelian p-group extensions K(p^n, p^m).

The oracle below collects words by letter-level bubble rewriting, sharing
no code with the engine's power-sum collection.  Both are compared on the
(2,1,1) instance with commutator coordinates taken mod 8.
"""

import pytest

from gentorsion import metab
from gentorsion.errors import GroupInputError
from gentorsion.extgroup import ExtensionGroup
from gentorsion.catalog import build_promislow
from gentorsion.gentor import SplitMix64, gen_exponent_bounds, witness_construct
from gentorsion.intlin import element_order_in_cokernel
from gentorsion.metab import MetabElement, MetabGroup, build_K

import metab_bruteforce as brute

# ring for the (2,1,1) oracle: coefficients mod 8, X^2 = Y^2 = 1
QN, QM, D, MOD = 2, 2, 4, 8
UNIT = (1, 0, 0, 0)


def o_shift(v, i, j):
    out = [0] * D
    for a in range(QN):
        for b in range(QM):
            out[((a + i) % QN) * QM + (b + j) % QM] += v[a * QM + b]
    return tuple(x % MOD for x in out)


def o_add(u, v):
    return tuple((a + b) % MOD for a, b in zip(u, v))


def o_neg(v):
    return tuple(-a % MOD for a in v)


def o_scale(v, k):
    return tuple(k * a % MOD for a in v)


def o_mul(u, v):
    out = (0,) * D
    for i in range(QN):
        for j in range(QM):
            k = u[i * QM + j]
            if k:
                out = o_add(out, o_scale(o_shift(v, i, j), k))
    return out


def o_psi(a, axis):
    """1 + T + ... + T^{a-1} on the given axis, extended to negative a."""
    v = (0,) * D
    sh = (lambda u, k: o_shift(u, k, 0)) if axis == "x" else (lambda u, k: o_shift(u, 0, k))
    if a >= 0:
        for k in range(a):
            v = o_add(v, sh(UNIT, k))
    else:
        for k in range(a, 0):
            v = o_add(v, o_neg(sh(UNIT, k)))
    return v


def swap_tail(s, t):
    """c-power emitted when y^s x^t is rewritten as x^t y^s c^(tail)."""
    if s == 1 and t == 1:
        return o_neg(UNIT)
    if s == 1 and t == -1:
        return o_shift(UNIT, -1, 0)
    if s == -1 and t == 1:
        return o_shift(UNIT, 0, -1)
    return o_neg(o_shift(UNIT, -1, -1))


def oracle_collect(letters):
    """Normal form (a, b, cvec mod 8) of a word given as single letters.

    Letters are ("x"|"y"|"c", +-1).  Invariant: the element equals the
    letter list times c^cvec, with cvec kept at the far right.
    """
    word = []
    cvec = (0,) * D
    for name, e in letters:
        assert e in (1, -1)
        if name == "c":
            cvec = o_add(cvec, o_scale(UNIT, e))
        else:
            word.append((name, e))
            cvec = o_shift(cvec, e if name == "x" else 0, e if name == "y" else 0)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i][0] == "y" and word[i + 1][0] == "x":
                tail = swap_tail(word[i][1], word[i + 1][1])
                word[i], word[i + 1] = word[i + 1], word[i]
                for name, e in word[i + 2:]:
                    tail = o_shift(tail, e if name == "x" else 0, e if name == "y" else 0)
                cvec = o_add(cvec, tail)
                changed = True
                break
    a = sum(e for name, e in word if name == "x")
    b = sum(e for name, e in word if name == "y")
    return a, b, cvec


def spell(name, exp):
    s = 1 if exp >= 0 else -1
    return [(name, s)] * abs(exp)


def commutator_letters(a, b):
    return spell("x", -a) + spell("y", -b) + spell("x", a) + spell("y", b)


@pytest.fixture(scope="module")
def k211():
    return build_K(2, 1, 1)


def engine_mod8(G, letters):
    a, b, v = G.collect_unreduced(letters)
    return a, b, tuple(x % MOD for x in v)


def test_oracle_sanity():
    assert oracle_collect([("x", 1), ("x", -1)]) == (0, 0, (0,) * D)
    assert oracle_collect([("y", 1), ("x", 1)])[:2] == (1, 1)
    # [x,y] = c
    assert oracle_collect(commutator_letters(1, 1)) == (0, 0, UNIT)
    # [y,x] = c^-1
    assert oracle_collect(
        spell("y", -1) + spell("x", -1) + spell("y", 1) + spell("x", 1)
    ) == (0, 0, o_neg(UNIT))


def test_master_identity_against_oracle(k211):
    """[x^a, y^b] = c^(psi_a(X) psi_b(Y)) for all nonzero |a|, |b| <= 6.

    Three independent computations must agree: the letter oracle, the
    explicit power-sum product, and the engine's unreduced collection.
    """
    for a in range(-6, 7):
        for b in range(-6, 7):
            if a == 0 or b == 0:
                continue
            expected = o_mul(o_psi(a, "x"), o_psi(b, "y"))
            letters = commutator_letters(a, b)
            assert oracle_collect(letters) == (0, 0, expected)
            assert engine_mod8(k211, letters) == (0, 0, expected)


def test_random_words_against_oracle(k211):
    rng = SplitMix64(20406)
    names = ["x", "y", "c"]
    for _ in range(150):
        n = 1 + rng.randrange(12)
        letters = [(names[rng.randrange(3)], 1 - 2 * rng.randrange(2)) for _ in range(n)]
        assert engine_mod8(k211, letters) == oracle_collect(letters)


def test_grouped_collection_matches_single_letters(k211):
    rng = SplitMix64(7)
    names = ["x", "y", "c"]
    for _ in range(60):
        n = 1 + rng.randrange(6)
        grouped = [(names[rng.randrange(3)], rng.randrange(9) - 4) for _ in range(n)]
        letters = [l for name, exp in grouped for l in spell(name, exp)]
        assert k211.collect_unreduced(grouped) == k211.collect_unreduced(letters)


def test_psi_is_two_runs_for_every_exponent():
    """Psi_k(T) mod T^q - 1 is t + 1 on T^i for i < r and t after, with
    (t, r) = divmod(k, q), negative k included: the closed form the
    collection's correction term is built from."""
    for q in (2, 3, 4, 8, 13):
        for k in range(-3 * q, 3 * q + 1):
            t, r = divmod(k, q)
            assert MetabGroup._psi(k, q) == [t + 1] * r + [t] * (q - r), (k, q)


def test_psi_closed_form_is_the_geometric_sum():
    """The closed form against the definition: Psi_a(T) = 1 + ... + T^(a-1)
    for a >= 0 and Psi_-a(T) = -T^-a Psi_a(T) = -(T^-a + ... + T^-1), summed
    term by term modulo T^q - 1."""
    for q in range(1, 12):
        for k in range(-60, 61):
            want = [0] * q
            for i in range(k) if k >= 0 else range(k, 0):
                want[i % q] += 1 if k >= 0 else -1
            assert MetabGroup._psi(k, q) == want, (k, q)


def test_relator_tails_frozen(k211):
    assert k211.g3 == (-1, 0, -1, 0)
    assert k211.g4 == (1, 1, 0, 0)


def test_relator_tails_by_closed_form():
    # g3 = -psi_qn(X) * sum_{j<qm} psi_j(Y), derived by collecting the
    # x-relator; for (2,1,1) this is -(1+X)
    G = build_K(2, 1, 1)
    closed = o_neg(o_mul(o_psi(2, "x"), o_add(o_psi(0, "y"), o_psi(1, "y"))))
    assert tuple(x % MOD for x in G.g3) == closed


def test_power_relations(k211):
    G = k211
    x4 = G.collect([("x", 4)])
    assert x4 == G._make(0, 0, G.g3)
    assert x4 != G.identity()
    y4 = G.collect([("y", 4)])
    assert y4 == G._make(0, 0, G.g4)
    assert y4 != G.identity()


def test_conjugation_examples(k211):
    G = k211
    x2 = G.collect([("x", 2)])
    y = G.collect([("y", 1)])
    x = G.collect([("x", 1)])
    y2 = G.collect([("y", 2)])
    assert G.conj(x2, y) == G.inv(x2)
    assert G.conj(y2, x) == G.inv(y2)
    assert G.conj(G.conj(x, y), G.inv(y)) == x


def test_group_laws_seeded(k211):
    G = k211
    rng = SplitMix64(99)
    names = ["x", "y", "c"]

    def rand_elem():
        n = 1 + rng.randrange(8)
        return G.collect([(names[rng.randrange(3)], rng.randrange(7) - 3) for _ in range(n)])

    for _ in range(120):
        g, h, k = rand_elem(), rand_elem(), rand_elem()
        assert G.mul(G.mul(g, h), k) == G.mul(g, G.mul(h, k))
        assert G.mul(g, G.inv(g)) == G.identity()
        assert G.mul(G.identity(), g) == g
        assert G.conj(G.conj(g, h), k) == G.conj(g, G.mul(h, k))


def test_collect_is_homomorphism(k211):
    G = k211
    rng = SplitMix64(11)
    names = ["x", "y", "c"]
    for _ in range(80):
        w1 = [(names[rng.randrange(3)], rng.randrange(9) - 4) for _ in range(1 + rng.randrange(5))]
        w2 = [(names[rng.randrange(3)], rng.randrange(9) - 4) for _ in range(1 + rng.randrange(5))]
        assert G.mul(G.collect(w1), G.collect(w2)) == G.collect(w1 + w2)


def test_commutator_module(k211):
    G = k211
    module = brute.norm_module(G)
    assert module.free_rank == 3
    assert module.invariant_factors == ()
    # the norm element (1+X)(1+Y) spans the relation submodule
    assert G._make(0, 0, (1, 1, 1, 1)) == G.identity()
    assert G._make(0, 0, (-2, -2, -2, -2)) == G.identity()
    assert G._make(0, 0, (1, 0, 0, 0)) != G.identity()
    assert G._make(0, 0, G.g3) != G.identity()


def test_module_ranks_other_instances():
    assert brute.norm_module(build_K(3, 1, 1)).free_rank == 8
    assert brute.norm_module(build_K(2, 1, 2)).free_rank == 7


def test_abelianizations():
    cases = [((2, 1, 1), "C4 x C4"), ((3, 1, 1), "C9 x C9"), ((2, 1, 2), "C8 x C8"), ((2, 2, 1), "C8 x C8")]
    for (p, n, m), desc in cases:
        assert build_K(p, n, m).abelianization().describe() == desc


def test_ab_element_orders(k211):
    G = k211
    x = G.collect([("x", 1)])
    ab = G.abelianization()
    assert element_order_in_cokernel(ab, G.ab_vector(x)) == 4
    assert element_order_in_cokernel(ab, G.ab_vector(G.collect([("x", 2)]))) == 2
    c = G._make(0, 0, (1, 0, 0, 0))
    assert element_order_in_cokernel(ab, G.ab_vector(c)) == 1


def test_translation_capabilities(k211):
    G = k211
    x = G.collect([("x", 1)])
    x2 = G.collect([("x", 2)])
    assert G.coset(x) != G.coset(G.identity())
    assert G.coset(x2) == G.coset(G.identity())
    assert G.coset(x2) == G.coset(G.mul(x2, G.collect([("y", 2)])))
    assert G.translation_index() == 4
    assert G.order_mod_translation(x) == 2
    assert G.order_mod_translation(G.collect([("x", 1), ("y", 1)])) == 2
    assert G.order_mod_translation(G.identity()) == 1
    assert G.holonomy_exponent() == 2
    assert build_K(2, 1, 2).holonomy_exponent() == 4


def test_transversal(k211):
    words = [w for w, _ in k211.labeled_transversal()]
    assert words == ["1", "x", "y", "x*y"]
    assert len(build_K(2, 1, 2).transversal()) == 8
    seen = {(e.alpha, e.beta) for e in k211.transversal()}
    assert len(seen) == 4


def test_transversal_mod(k211):
    G = k211
    x = G.collect([("x", 1)])
    cert = witness_construct(G, x, base_word="x")
    # cosets of <pi(x)> in C2 x C2: two reps, each with 1 and x in front
    assert cert.length == 4
    assert cert.words[0] == "1"
    assert len({G.coset(c) for c in cert.conjugators}) == 4


def test_torsion_free(k211):
    assert k211.is_torsion_free()
    assert k211.torsion_witness() is None
    assert build_K(3, 1, 1).is_torsion_free()


def test_no_small_power_trivial(k211):
    G = k211
    rng = SplitMix64(41)
    names = ["x", "y", "c"]
    for _ in range(20):
        w = [(names[rng.randrange(3)], rng.randrange(5) - 2) for _ in range(1 + rng.randrange(6))]
        g = G.collect(w)
        if g == G.identity():
            continue
        for k in range(1, 13):
            assert G.pow(g, k) != G.identity()


def test_trivial_center(k211):
    assert k211.has_trivial_center()
    assert build_K(3, 1, 1).has_trivial_center()


def test_agreement_with_promislow(k211):
    """K(2,1,1) and the fibered-form Promislow group must agree on every
    backend-independent invariant."""
    P = ExtensionGroup(build_promislow(), name="promislow")
    G = k211
    assert G.abelianization().describe() == P.abelianization().describe()
    assert G.translation_index() == P.translation_index()
    assert G.is_torsion_free() and P.is_torsion_free()
    assert G.has_trivial_center() and P.center_rank() == 0
    assert brute.norm_module(G).free_rank == 3
    bp = gen_exponent_bounds(P)
    bk = gen_exponent_bounds(G)
    assert (bp.lower, bp.upper, bp.exact) == (4, 4, True)
    assert (bk.lower, bk.upper, bk.exact) == (4, 4, True)


def test_pow_matches_repeated_mul(k211):
    G = k211
    g = G.collect([("x", 1), ("y", 1), ("c", 2)])
    acc = G.identity()
    for k in range(9):
        assert G.pow(g, k) == acc
        acc = G.mul(acc, g)
    assert G.pow(g, -3) == G.inv(G.pow(g, 3))


def test_element_identity_and_ordering(k211):
    G = k211
    e = G.identity()
    assert isinstance(e, MetabElement)
    assert e.alpha == 0 and e.beta == 0
    # raw vectors may differ by a relation-submodule element; equality is
    # on canonical coordinates only
    a = G.collect([("x", -2)])
    b = G.conj(G.collect([("x", 2)]), G.collect([("y", 1)]))
    assert a == b


def test_build_errors(monkeypatch):
    with pytest.raises(GroupInputError):
        build_K(4, 1, 1)
    with pytest.raises(GroupInputError):
        build_K(2, 0, 1)
    with pytest.raises(GroupInputError):
        build_K(2, 5, 4)
    monkeypatch.setattr(metab, "SIZE_CAP", 1024)
    assert MetabGroup(2, 5, 4).N == 512


@pytest.mark.parametrize("p, n, m", [
    (2, 20000, 1), (3, 9000, 1), (2305843009213693951, 1, 1), (2, 5, 4), (17, 1, 1),
])
def test_size_cap_checked_before_any_power_or_primality_test(monkeypatch, p, n, m):
    """An over-cap K is refused before p^n is formed or p is divided: the
    message names p, n, m and the cap, and no power of p."""
    def no_trial_division(_):
        raise AssertionError("primality tested before the size cap")

    monkeypatch.setattr(metab, "_is_prime", no_trial_division)
    with pytest.raises(GroupInputError) as info:
        MetabGroup(p, n, m)
    assert str(info.value) == f"p^(n+m) for p = {p}, n = {n}, m = {m} exceeds the size cap 256"


def test_size_cap_read_at_call_time(monkeypatch):
    monkeypatch.setattr(metab, "SIZE_CAP", 16)
    with pytest.raises(GroupInputError, match="exceeds the size cap 16$"):
        MetabGroup(2, 3, 2)
    assert MetabGroup(2, 2, 2).N == 16
    with pytest.raises(GroupInputError, match="n and m must be at least 1"):
        MetabGroup(2, 0, 20000)
    # p < 2 is never over the cap; it fails the primality test
    for p in (1, 0, -3):
        with pytest.raises(GroupInputError, match="p must be prime"):
            MetabGroup(p, 30, 1)


def test_cross_group_elements_rejected(k211):
    other = build_K(3, 1, 1)
    with pytest.raises(GroupInputError):
        k211.mul(k211.identity(), other.identity())
