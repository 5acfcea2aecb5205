"""The shared ``conjugate``/``power``, the product-of-conjugates check,
the coset walk and the coset-based certificates.

Every backend binds ``conj = conjugate`` and ``pow = power`` from
``gentor``; the group laws below hold for each of them, and ``power``
makes the advertised number of multiplications.  ``_verify_product``
agrees with multiplying the conjugates out, also over runs of equal
conjugators, and Γ's degree-16 check has a pinned cost.  Every lattice backend binds
the shared ``labeled_transversal`` and ``order_mod_translation``, built
from ``coset`` alone; the walk stops at the product that finds the
last coset, and both are checked against each backend's own quotient
formulas.  ``witness_construct`` walks the labeled transversal
once and skips covered cosets by their ``coset`` labels; its
certificates must have length [G:A] with one conjugator per coset of A,
also when G^ab is infinite and g lies outside A.
"""

import functools
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from gentorsion import extgroup, metab
from gentorsion.catalog import (
    FreeAbelExtInput,
    build_casolo_gamma,
    build_dihedral_infinite,
    build_free_abelianized_extension,
    build_klein_bottle,
    build_promislow,
    build_wreath,
)
from gentorsion.errors import GroupInputError
from gentorsion.extgroup import ExtensionGroup, direct_product, spec_from_dict, spec_to_dict
from gentorsion.gentor import (
    DirectProductGroup,
    SplitMix64,
    _verify_product,
    is_generalized_torsion,
    labeled_transversal,
    positive_identity_witnesses,
    power,
    random_word_element,
    verify_identity_sampled,
    witness_construct,
)
from gentorsion.metab import MetabGroup, build_K
from gentorsion.words import eval_word, parse_word

C2 = [[0, 1], [1, 0]]
C3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
S3 = [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 4, 0, 5, 1, 3],
      [3, 5, 1, 4, 0, 2], [4, 2, 5, 0, 3, 1], [5, 3, 4, 1, 2, 0]]


def promislow():
    return ExtensionGroup(build_promislow(), name="promislow")


GROUP_LAW_BACKENDS = {
    "promislow": promislow,
    "K:2,1,1": lambda: build_K(2, 1, 1),
    "gamma": build_casolo_gamma,
    "promislow x K:2,1,1": lambda: DirectProductGroup(promislow(), build_K(2, 1, 1)),
}

@functools.cache
def backend(name):
    return GROUP_LAW_BACKENDS[name]()


def element(G, letters):
    gens = [e for _, e in G.generators]
    out = G.identity()
    for index, inverse in letters:
        e = gens[index % len(gens)]
        out = G.mul(out, G.inv(e) if inverse else e)
    return out


words = st.lists(st.tuples(st.integers(0, 7), st.booleans()), max_size=6)
law_settings = settings(derandomize=True, deadline=None, max_examples=25)


def exponents(name):
    bound = 6 if name == "gamma" else 40
    return st.integers(-bound, bound)


@pytest.mark.parametrize("name", GROUP_LAW_BACKENDS)
def test_power_adds_exponents(name):
    G = backend(name)

    @law_settings
    @given(words, exponents(name), exponents(name))
    def check(w, a, b):
        g = element(G, w)
        assert G.pow(g, a + b) == G.mul(G.pow(g, a), G.pow(g, b))

    check()


@pytest.mark.parametrize("name", GROUP_LAW_BACKENDS)
def test_power_inverse_and_zero(name):
    G = backend(name)

    @law_settings
    @given(words, exponents(name))
    def check(w, k):
        g = element(G, w)
        assert G.pow(g, -k) == G.inv(G.pow(g, k))
        assert G.pow(g, 0) == G.identity()

    check()


@pytest.mark.parametrize("name", GROUP_LAW_BACKENDS)
def test_conjugation_is_a_right_action(name):
    G = backend(name)

    @law_settings
    @given(words, words, words)
    def check(wg, wx, wy):
        g, x, y = element(G, wg), element(G, wx), element(G, wy)
        assert G.conj(G.conj(g, x), y) == G.conj(g, G.mul(x, y))

    check()


def plain_product_is_one(G, h, xs):
    out = G.identity()
    for x in xs:
        out = G.mul(out, G.conj(h, x))
    return out == G.identity()


@pytest.mark.parametrize("name", GROUP_LAW_BACKENDS)
def test_telescoped_product_check(name):
    # _verify_product tests h z_1 ... h z_m with z_j = x_j x_{j+1}^-1 in
    # place of the product of conjugates; a cyclic rotation of the
    # backend's positive identity moves x_1 away from 1 and keeps it true
    G = backend(name)
    k, identity_xs = positive_identity_witnesses(G)

    @law_settings
    @given(st.lists(words, min_size=1, max_size=3), st.booleans(), st.integers(0, 63),
           st.lists(words, max_size=4))
    def check(base_words, use_identity, rotation, other_words):
        if use_identity:
            bases = [G.pow(element(G, w), k) for w in base_words]
            r = rotation % len(identity_xs)
            xs = identity_xs[r:] + identity_xs[:r]
        else:
            bases = [element(G, w) for w in base_words]
            xs = [element(G, w) for w in other_words]
        expected = all(plain_product_is_one(G, h, xs) for h in bases)
        assert _verify_product(G, bases, xs) == expected
        if use_identity:
            assert expected

    check()


def run_cases(G):
    """(name, bases, conjugators, expected) for runs of equal conjugators.

    The backend's identity (g^k)^{x_1} ... (g^k)^{x_m} = 1 spelled with g
    itself repeats each x_j k times, so it is a product of conjugates of g
    in runs of k; rotating it by one makes the last run wrap onto the
    first.  Changing the conjugator of a whole run, or of one copy inside
    it, must break the product.
    """
    k, xs = positive_identity_witnesses(G)
    g = element(G, [(0, False), (1, True)])
    gen = G.generators[0][1]
    one = G.identity()
    spelled = [x for x in xs for _ in range(k)]
    whole = [G.mul(x, gen) if x == xs[1] else x for x in spelled]
    one_copy = list(spelled)
    one_copy[k] = G.mul(one_copy[k], gen)  # the first copy of xs[1]
    return [
        ("runs", [g, gen], spelled, True),
        ("wrapping run", [g], spelled[1:] + spelled[:1], True),
        ("powered bases", [G.pow(g, k), G.pow(gen, k)], xs, True),
        ("all equal, identity base", [one], [xs[1]] * 5, True),
        ("all equal", [g], [xs[1]] * 5, False),
        ("single, identity base", [one], [xs[2]], True),
        ("single", [gen], [xs[2]], False),
        ("empty", [g, gen], [], True),
        ("tampered run", [g], whole, False),
        ("tampered copy in a run", [g], one_copy, False),
    ]


@pytest.mark.parametrize("name", GROUP_LAW_BACKENDS)
def test_verify_product_over_runs(name):
    G = backend(name)
    for case, bases, xs, expected in run_cases(G):
        plain = all(plain_product_is_one(G, h, xs) for h in bases)
        assert plain == expected, case
        assert _verify_product(G, bases, xs) == expected, case
        # a generator of bases is read once, as the sampled check passes it
        assert _verify_product(G, iter(bases), iter(xs)) == expected, case


class MulCounter:
    """A backend proxy that counts ``mul`` and ``inv`` calls."""

    def __init__(self, G):
        self.G = G
        self.muls = 0
        self.invs = 0

    def identity(self):
        return self.G.identity()

    def inv(self, g):
        self.invs += 1
        return self.G.inv(g)

    def mul(self, g, h):
        self.muls += 1
        return self.G.mul(g, h)


@pytest.mark.parametrize("name", GROUP_LAW_BACKENDS)
def test_power_mul_count(name):
    G = backend(name)
    g = element(G, [(0, False), (1, True)])
    for k in range(1, 17):
        counter = MulCounter(G)
        assert power(counter, g, k) == G.pow(g, k)
        assert counter.muls == k.bit_length() - 2 + bin(k).count("1"), k


def test_gamma_identity_check_cost():
    # the degree-16 list is 8 runs of 2 with distinct ends: 8 products form
    # the z's once, then each base takes h^2 and 15 products
    G = backend("gamma")
    k, xs = positive_identity_witnesses(G)
    assert k == 1 and len(xs) == 16
    rng = SplitMix64(5)
    bases = [random_word_element(G, rng) for _ in range(3)]
    for count in (1, 3):
        counter = MulCounter(G)
        assert _verify_product(counter, bases[:count], xs)
        assert counter.muls == 8 + 16 * count


@pytest.mark.parametrize("name", GROUP_LAW_BACKENDS)
def test_commutator_takes_one_inverse(name):
    # [a,b] = a^-1 b^-1 a b is evaluated as (b a)^-1 (a b)
    G = backend(name)
    a = element(G, [(0, False), (1, True)])
    b = element(G, [(1, False), (2, False)])
    counter = MulCounter(G)
    got = eval_word(counter, parse_word("[a,b]"), {"a": a, "b": b})
    assert got == G.mul(G.mul(G.inv(a), G.inv(b)), G.mul(a, b))
    assert (counter.muls, counter.invs) == (3, 1)


class SampleCounter(MulCounter):
    """MulCounter with the group's generators and the shared ``power``,
    recording each base it powers."""

    def __init__(self, G):
        super().__init__(G)
        self.generators = G.generators
        self.powered = []

    def pow(self, g, k):
        self.powered.append(g)
        return power(self, g, k)


# (muls, invs) of one sampled check of 40 draws; when every drawn letter
# was inverted anew they were (587, 155) for promislow, (911, 159) for gamma
SAMPLED_COSTS = {"promislow": (587, 6), "gamma": (911, 13)}


@pytest.mark.parametrize("name", SAMPLED_COSTS)
def test_sampled_identity_inverts_each_generator_once(name):
    G = backend(name)
    k, xs = positive_identity_witnesses(G)
    counter = SampleCounter(G)
    assert verify_identity_sampled(counter, k, xs, samples=40, seed=11)
    rng = SplitMix64(11)
    bases = [random_word_element(G, rng) for _ in range(40)]
    assert counter.powered == bases
    # the product check on the same bases, without drawing them
    check = SampleCounter(G)
    assert _verify_product(check, [G.pow(g, k) for g in bases], xs)
    assert counter.invs - check.invs <= len(G.generators)
    assert (counter.muls, counter.invs) == SAMPLED_COSTS[name]


# -- certificates over every lattice backend --------------------------------


def lattice_backends():
    spec_product = direct_product(build_promislow(), build_klein_bottle())
    free_ab = build_free_abelianized_extension(FreeAbelExtInput.build(2, C3, [1, 1]))
    return {
        "promislow": promislow(),
        "dinf": ExtensionGroup(build_dihedral_infinite(), name="dinf"),
        "wreath3": ExtensionGroup(build_wreath(C3), name="wreath3"),
        "freeabext3": ExtensionGroup(free_ab, name="freeabext3"),
        "promislow x klein": ExtensionGroup(spec_product, name="promislow x klein"),
        "K:2,1,1": build_K(2, 1, 1),
        "K:3,1,1": build_K(3, 1, 1),
        "product": DirectProductGroup(promislow(), build_K(2, 1, 1)),
        "wreathS3": ExtensionGroup(build_wreath(S3), name="wreathS3"),
        "K:2,1,1 x klein": DirectProductGroup(
            build_K(2, 1, 1), ExtensionGroup(build_klein_bottle(), name="klein")),
    }


LATTICE = lattice_backends()

# G^ab = Z^2 is torsion-free there, so every generalized torsion element
# lies in [F, F]/[R, R], inside A
ALL_TORSION_IN_A = {"freeabext3"}


def torsion_words(G, seed, count):
    rng = SplitMix64(seed)
    names = [n for n, _ in G.generators]
    out = []
    for _ in range(50 * count):
        letters = []
        for _ in range(1 + rng.randrange(6)):
            name = names[rng.randrange(len(names))]
            letters.append(name if rng.randrange(2) else f"{name}^-1")
        word = "*".join(letters)
        g = eval_word(G, parse_word(word))
        if is_generalized_torsion(G, g):
            out.append((word, g))
            if len(out) == count:
                break
    return out


@pytest.mark.parametrize("name", LATTICE)
def test_certificate_runs_once_over_the_cosets(name):
    G = LATTICE[name]
    index = G.translation_index()
    one = G.coset(G.identity())
    outside = 0
    cases = torsion_words(G, 20406 + len(name), 12)
    assert len(cases) == 12
    for word, g in cases:
        cert = witness_construct(G, g, base_word=word)
        assert cert.verified
        assert len(cert.words) == len(cert.conjugators) == cert.length
        labels = [G.coset(x) for x in cert.conjugators]
        assert cert.length == index
        assert len(set(labels)) == index
        outside += G.coset(g) != one
    # the g^i * s construction is exercised wherever it can be
    assert (outside == 0) == (name in ALL_TORSION_IN_A)


@pytest.mark.parametrize("samples", [0, -3])
def test_sampled_identity_needs_a_sample(samples):
    G = backend("K:2,1,1")
    k, xs = positive_identity_witnesses(G)
    with pytest.raises(GroupInputError):
        verify_identity_sampled(G, k, xs, samples, 1)


# -- the shared coset walk ----------------------------------------------------


def walk_backends():
    """Fresh lattice backends: the certificate fixtures and a few more."""
    out = lattice_backends()
    out["K:2,1,2"] = build_K(2, 1, 2)
    out["promislow x promislow"] = DirectProductGroup(promislow(), promislow())
    # phi(1) has one dense row: each product over 1 pads to it
    out["freeabext C2 rank 6"] = ExtensionGroup(build_free_abelianized_extension(
        FreeAbelExtInput.build(6, C2, [1] * 6)), name="freeabext C2 rank 6")
    return out


WALK = walk_backends()


class CountingBackend(MulCounter):
    """MulCounter that keeps its products and forwards every other
    attribute to the backend."""

    def __init__(self, G):
        super().__init__(G)
        self.products = []

    def __getattr__(self, attr):
        return getattr(self.G, attr)

    def mul(self, g, h):
        self.products.append(super().mul(g, h))
        return self.products[-1]


def order_oracle(G, g):
    # the per-backend formulas the shared order_mod_translation replaced
    if isinstance(G, DirectProductGroup):
        return lcm(order_oracle(G.left, g[0]), order_oracle(G.right, g[1]))
    if isinstance(G, MetabGroup):
        a, b = g.alpha % G.qn, g.beta % G.qm
        return lcm(G.qn // gcd(G.qn, a), G.qm // gcd(G.qm, b))
    return G.q_order(g.q)


@pytest.mark.parametrize("name", WALK)
def test_coset_walk_covers_each_coset_once(name):
    G = WALK[name]
    pairs = G.labeled_transversal()
    assert pairs[0] == ("1", G.identity())
    assert len(pairs) == G.translation_index()
    assert len({G.coset(e) for _, e in pairs}) == len(pairs)
    for word, e in pairs:
        assert eval_word(G, parse_word(word)) == e, word
    reps = G.transversal()
    assert {G.coset(e) for e in reps} == {G.coset(e) for _, e in pairs}
    if not isinstance(G, ExtensionGroup):  # which keeps its zero section
        assert reps == [e for _, e in pairs]


# walks whose product count is pinned: one generator reaches the last coset
WALK_MULS = {"freeabext C2 rank 6": 1}


@pytest.mark.parametrize("name", WALK)
def test_coset_walk_runs_once_per_group(name):
    """One walk per group object, and no product after the one that
    finds the last coset."""
    G = walk_backends()[name]
    counter = CountingBackend(G)
    first = labeled_transversal(counter)
    walked = counter.muls
    assert walked == WALK_MULS.get(name, walked) > 0
    labels = [G.coset(G.identity())] + [G.coset(x) for x in counter.products]
    assert labels[-1] not in labels[:-1]
    assert len(set(labels)) == G.translation_index()
    assert labeled_transversal(counter) is first
    assert counter.muls == walked


@pytest.mark.parametrize("name", WALK)
def test_order_mod_translation_matches_the_formulas(name):
    G = WALK[name]
    rng = SplitMix64(977 + len(name))
    elements = [G.identity()] + [e for _, e in G.labeled_transversal()]
    elements += [random_word_element(G, rng) for _ in range(30)]
    for g in elements:
        assert G.order_mod_translation(g) == order_oracle(G, g)


def dinf_without_b():
    data = spec_to_dict(build_dihedral_infinite())
    del data["generators"]["b"]
    return ExtensionGroup(spec_from_dict(data), name="dinf without b")


def test_coset_walk_needs_generators_for_every_coset():
    G = dinf_without_b()
    K = build_K(2, 1, 1)
    K.generators = K.generators[:1]  # x alone reaches 2 of the 4 cosets
    for H in (G, K, DirectProductGroup(promislow(), dinf_without_b())):
        with pytest.raises(GroupInputError, match="do not reach every coset"):
            labeled_transversal(H)
    # the zero section of an extension group needs no generators
    assert [e.q for e in G.transversal()] == [0, 1]
    assert G.verify_positive_identity_all(2, G.transversal())


# (factory, owner, name of the counted call, torsion-free): extension groups
# solve for witnesses, K decides torsion by folding residue powers
TORSION_CACHE = {
    "promislow": (promislow, extgroup, "solve_integer_linear", True),
    "dinf": (lambda: ExtensionGroup(build_dihedral_infinite(), name="dinf"), extgroup,
             "solve_integer_linear", False),
    "K:2,1,1": (lambda: build_K(2, 1, 1), metab.MetabGroup, "_make", True),
}


@pytest.mark.parametrize("name", TORSION_CACHE)
def test_torsion_answer_is_cached(name, monkeypatch):
    # a torsion-free answer (no witness) is cached like a witness is
    factory, owner, attr, torsion_free = TORSION_CACHE[name]
    G = factory()
    calls = []
    original = getattr(owner, attr)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, attr, counting)
    assert G.is_torsion_free() == torsion_free
    assert calls
    first = len(calls)
    assert G.is_torsion_free() == torsion_free
    assert (G.torsion_witness() is None) == torsion_free
    assert len(calls) == first
