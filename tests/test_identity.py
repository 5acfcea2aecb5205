"""Universal identities by the linear criterion, by evaluation and by the oracles.

For k a multiple of exp(G/A), ``verify_positive_identity_all`` decides by
one linear criterion: ``ExtensionGroup`` tests sum_j phi(q_j) = 0 over
the conjugators' point parts, K that every coset occurs equally often,
and ``DirectProductGroup`` asks both factors.  For any other k != 0 an
extension group evaluates the product of conjugates of (q, a)^k at a = 0
and at each basis vector e_i (``_identity_at_points``) once the criterion
has not rejected.  The criterion is compared with that evaluation at the
edge values of k and as a ``hypothesis`` property, and on K and on
products with 30-sample checks.  ``torsion_witness`` sums the stored phi
over <q> for N_q and reads c_q off (q, 0)^o, one power per point; the C4
cases give it points of order 4.  ``identity_symbolic`` keeps the
formal-vector arithmetic both once used; the verdicts and the torsion
witnesses must agree with it.
"""

import functools
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from gentorsion.catalog import (
    FreeAbelExtInput,
    build_dihedral_infinite,
    build_free_abelianized_extension,
    build_klein_bottle,
    build_promislow,
    build_wreath,
    trivial_z_spec,
)
from gentorsion.catalog import build_K_group
from gentorsion.errors import BackendCapabilityError
from gentorsion.extgroup import ExtElement, ExtensionGroup, direct_product
from gentorsion.intlin import unimodular_inverse
from gentorsion.gentor import (
    DirectProductGroup,
    SplitMix64,
    power,
    random_word_element,
    verify_identity_sampled,
    verify_identity_universal,
)

import extension_bruteforce as brute
import identity_symbolic as symbolic

C2 = [[0, 1], [1, 0]]
C3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
C2xC2 = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
C4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
# S3 with index 0 the identity; 1, 2 and 5 are the transpositions
S3 = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 2, 5, 4],
    [2, 4, 0, 5, 1, 3],
    [3, 5, 1, 4, 0, 2],
    [4, 2, 5, 0, 3, 1],
    [5, 3, 4, 1, 2, 0],
]

# the seven extension groups of the benchmark's element queries, with the
# verdicts the seeded cases must produce: a universal positive identity
# exists only when G^ab is finite
EXTENSIONS = {
    "promislow": (build_promislow, {True, False}),
    "klein": (build_klein_bottle, {False}),
    "dinf": (build_dihedral_infinite, {True, False}),
    "wreath_c3": (lambda: build_wreath(C3), {False}),
    "wreath_s3": (lambda: build_wreath(S3), {False}),
    "freeabext_c3": (lambda: build_free_abelianized_extension(
        FreeAbelExtInput.build(2, C3, [1, 1])), {False}),
    "promislow_x_klein": (lambda: direct_product(build_promislow(), build_klein_bottle()),
                          {False}),
}

CATALOG_SPECS = {
    **{name: build for name, (build, _) in EXTENSIONS.items()},
    "wreath_c2": lambda: build_wreath(C2),
    "wreath_c2xc2": lambda: build_wreath(C2xC2),
    "freeabext_c2_rank1": lambda: build_free_abelianized_extension(
        FreeAbelExtInput.build(1, C2, [1])),
    "freeabext_c2": lambda: build_free_abelianized_extension(
        FreeAbelExtInput.build(2, C2, [1, 1])),
    "freeabext_c2xc2": lambda: build_free_abelianized_extension(
        FreeAbelExtInput.build(2, C2xC2, [1, 2])),
    "freeabext_s3": lambda: build_free_abelianized_extension(
        FreeAbelExtInput.build(2, S3, [1, 3])),
    "wreath_c4": lambda: build_wreath(C4),
    "freeabext_c4": lambda: build_free_abelianized_extension(
        FreeAbelExtInput.build(2, C4, [1, 2])),
    "z": trivial_z_spec,
    "promislow_x_z": lambda: direct_product(build_promislow(), trivial_z_spec()),
    "dinf_x_klein": lambda: direct_product(build_dihedral_infinite(), build_klein_bottle()),
    "promislow_x_klein_dense": lambda: dense(
        direct_product(build_promislow(), build_klein_bottle()), 0),
}


def dense(spec, seed):
    """``spec`` in a lattice basis where its phi take several gather layers."""
    u = brute.seeded_unimodular(spec.n, seed)
    return brute.conjugated(spec, u, unimodular_inverse(u))


@functools.cache
def group(name):
    return ExtensionGroup(CATALOG_SPECS[name](), name=name)


def seeded_case(G, rng):
    """(k, conjugators): a shuffled transversal, each representative moved
    by a small translation, sometimes with one entry dropped or a random
    element appended; k a multiple of exp(G/A) two times in three."""
    hol = G.holonomy_exponent()
    k = hol * (1 + rng.randrange(2)) if rng.randrange(3) else 1 + rng.randrange(2 * hol)
    xs = [G.mul(s, ExtElement(0, tuple(rng.randrange(5) - 2 for _ in range(G.spec.n))))
          for s in G.transversal()]
    for i in range(len(xs) - 1, 0, -1):
        j = rng.randrange(i + 1)
        xs[i], xs[j] = xs[j], xs[i]
    change = rng.randrange(4)
    if change == 1 and len(xs) > 1:
        xs.pop(rng.randrange(len(xs)))
    elif change == 2:
        xs.append(random_word_element(G, rng, max_length=4))
    return k, xs


@pytest.mark.parametrize("name", EXTENSIONS)
def test_universal_check_agrees_with_symbolic_oracle(name):
    G = group(name)
    rng = SplitMix64(50501 + len(name))
    verdicts = set()
    for _ in range(20):
        k, xs = seeded_case(G, rng)
        verdict = G.verify_positive_identity_all(k, xs)
        assert verdict == symbolic.verify_positive_identity_all(G, k, xs), (k, xs)
        verdicts.add(verdict)
    assert verdicts == EXTENSIONS[name][1]


@pytest.mark.parametrize("name", CATALOG_SPECS)
def test_torsion_witness_agrees_with_recurrence(name):
    G = group(name)
    assert G.torsion_witness() == symbolic.find_torsion(G)


@pytest.mark.parametrize("name", CATALOG_SPECS)
def test_torsion_search_powers_once_per_point(name, monkeypatch):
    """One ``pow`` per point tried, for c_q: N_q is read off the stored phi."""
    G = ExtensionGroup(CATALOG_SPECS[name](), name=name)
    tried = []

    def counting(self, g, k):
        tried.append(g.q)
        return power(self, g, k)

    monkeypatch.setattr(ExtensionGroup, "pow", counting)
    witness = G.torsion_witness()
    last = G.spec.q_size - 1 if witness is None else witness.q
    assert tried == list(range(1, last + 1))


def test_torsion_witness_cases_cover_both_outcomes():
    found = {group(name).torsion_witness() is None for name in CATALOG_SPECS}
    assert found == {True, False}


def shuffled(xs, rng):
    xs = list(xs)
    for i in range(len(xs) - 1, 0, -1):
        j = rng.randrange(i + 1)
        xs[i], xs[j] = xs[j], xs[i]
    return xs


def random_conjugator(G, rng):
    return ExtElement(rng.randrange(G.spec.q_size),
                      tuple(rng.randrange(5) - 2 for _ in range(G.spec.n)))


@pytest.mark.parametrize("name", CATALOG_SPECS)
def test_criterion_agrees_with_evaluation_at_edge_exponents(name):
    """k = 0 is always true; -e and e take the criterion, e + 1 its early
    reject and then the evaluation."""
    G = group(name)
    e = G.holonomy_exponent()
    rng = SplitMix64(808 + len(name))
    T = G.transversal()
    moved = [G.mul(x, ExtElement(0, random_conjugator(G, rng).a)) for x in T]
    lists = [T, shuffled(moved, rng), T[:-1], T + T, [T[-1]] + T[1:], []]
    lists += [[random_conjugator(G, rng) for _ in range(1 + rng.randrange(2 * len(T)))]
              for _ in range(4)]
    for k in (0, -e, e, e + 1):
        for xs in lists:
            assert G.verify_positive_identity_all(k, xs) == G._identity_at_points(k, xs), (k, xs)
    assert G.verify_positive_identity_all(0, lists[-1])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_criterion_equals_evaluation_property(data):
    """On the catalog extension groups and every multiple k of exp(G/A),
    the criterion answers as the evaluation at n + 1 points does; among
    them promislow x klein in a dense basis, whose phi take up to five
    gather layers."""
    G = group(data.draw(st.sampled_from(sorted(CATALOG_SPECS)), label="group"))
    n, qs = G.spec.n, G.spec.q_size
    k = G.holonomy_exponent() * data.draw(st.integers(-3, 3), label="multiple")
    vectors = st.tuples(*[st.integers(-2, 2)] * n)
    xs = [ExtElement(x.q, data.draw(vectors)) for x in G.transversal()]
    xs *= data.draw(st.integers(0, 2), label="copies")
    if xs and data.draw(st.booleans(), label="drop one"):
        xs.pop(data.draw(st.integers(0, len(xs) - 1)))
    xs += data.draw(st.lists(st.builds(ExtElement, st.integers(0, qs - 1), vectors),
                             max_size=3), label="extra")
    xs = data.draw(st.permutations(xs), label="order")
    assert G.verify_positive_identity_all(k, xs) == G._identity_at_points(k, xs)


# the groups of the K checks, 40 seeded conjugator lists each
K_PARAMS = [(2, 1, 1), (3, 1, 1), (2, 2, 1), (2, 1, 2)]


def K_lists(G, rng):
    """The transversal once and twice, one conjugator dropped or replaced,
    each entry moved within its coset by a random h^exp(G/A); and random
    multisets of transversal elements."""
    T = G.transversal()
    N = len(T)
    e = G.holonomy_exponent()

    def moved(xs):
        return shuffled([G.mul(x, G.pow(random_word_element(G, rng, 4), e)) for x in xs], rng)

    out = []
    for _ in range(5):
        out += [moved(T), moved(T + T)]
        out.append(moved(T)[1:])
        replaced = moved(T)
        replaced[rng.randrange(N)] = T[rng.randrange(N)]
        out.append(replaced)
        out += [[T[rng.randrange(N)] for _ in range(1 + rng.randrange(2 * N))] for _ in range(4)]
    return out


@pytest.mark.parametrize("pnm", K_PARAMS, ids=[f"K:{p},{n},{m}" for p, n, m in K_PARAMS])
def test_K_criterion_agrees_with_sampling(pnm):
    G = build_K_group(*pnm)
    e = G.holonomy_exponent()
    rng = SplitMix64(4040 + sum(pnm))
    verdicts = []
    for i, xs in enumerate(K_lists(G, rng)):
        verdict = G.verify_positive_identity_all(e, xs)
        assert verdict == verify_identity_sampled(G, e, xs, samples=30, seed=i), xs
        verdicts.append(verdict)
    assert len(verdicts) == 40 and set(verdicts) == {True, False}


@pytest.mark.parametrize("pnm", [(2, 1, 1), (3, 1, 1)], ids=["K:2,1,1", "K:3,1,1"])
def test_K_edge_exponents(pnm):
    """0 holds; -e agrees with sampling; e + 1 rejects uneven cosets and
    cannot decide even ones."""
    G = build_K_group(*pnm)
    e = G.holonomy_exponent()
    T = G.transversal()
    assert G.verify_positive_identity_all(0, T[:-1])
    for xs in (T, T[:-1], T + T[1:]):
        assert G.verify_positive_identity_all(-e, xs) == verify_identity_sampled(
            G, -e, xs, samples=30, seed=3)
    assert not G.verify_positive_identity_all(e + 1, T[:-1])
    assert not verify_identity_sampled(G, e + 1, T[:-1], samples=30, seed=3)
    assert G.verify_positive_identity_all(e + 1, [])
    with pytest.raises(BackendCapabilityError, match=f"multiple of exp\\(G/A\\) = {e}"):
        G.verify_positive_identity_all(e + 1, T)


def test_K_least_identity_is_the_index():
    """No multiset of fewer than N = [G:A] cosets gives an identity in
    g^exp(G/A), and the transversal, N of them, does.  Exhaustive on
    K(2,1,1), each refusal confirmed by a sampled counterexample; on 200
    seeded multisets for K(3,1,1)."""
    G = build_K_group(2, 1, 1)
    T = G.transversal()
    e = G.holonomy_exponent()
    assert G.verify_positive_identity_all(e, T)
    for m in range(1, len(T)):
        for xs in combinations_with_replacement(T, m):
            assert not G.verify_positive_identity_all(e, xs)
            assert not verify_identity_sampled(G, e, xs, samples=30, seed=m)
    G = build_K_group(3, 1, 1)
    T = G.transversal()
    e = G.holonomy_exponent()
    assert G.verify_positive_identity_all(e, T)
    rng = SplitMix64(99)
    for _ in range(200):
        xs = [T[rng.randrange(len(T))] for _ in range(1 + rng.randrange(len(T) - 1))]
        assert not G.verify_positive_identity_all(e, xs)


def test_product_criterion_agrees_with_sampling():
    P, K = group("promislow"), build_K_group(2, 1, 1)
    G = DirectProductGroup(P, K)
    e = G.holonomy_exponent()
    T = G.transversal()
    rng = SplitMix64(17)
    lists = [T, shuffled(T, rng), T[:-1], T + T, [T[1]] + T[1:]]
    lists += [[T[rng.randrange(len(T))] for _ in range(1 + rng.randrange(len(T)))]
              for _ in range(5)]
    verdicts = set()
    for i, xs in enumerate(lists):
        verdict = verify_identity_universal(G, e, xs)
        assert verdict == verify_identity_sampled(G, e, xs, samples=30, seed=i), xs
        assert verdict == (P.verify_positive_identity_all(e, [x[0] for x in xs])
                           and K.verify_positive_identity_all(e, [x[1] for x in xs]))
        verdicts.add(verdict)
    assert verdicts == {True, False}
