"""The shared ``conjugate``/``power``, the product-of-conjugates check and
the coset-based certificates.

Every backend binds ``conj = conjugate`` and ``pow = power`` from
``gentor``; the group laws below hold for each of them, and ``power``
makes the advertised number of multiplications.  ``_verify_product``
agrees with multiplying the conjugates out.  ``witness_construct``
walks the labeled transversal once and skips covered cosets by their
``coset`` labels; its certificates must have length [G:A] with one
conjugator per coset of A whenever G^ab is finite or g lies in A.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from gentorsion.catalog import (
    FreeAbelExtInput,
    build_casolo_gamma,
    build_dihedral_infinite,
    build_free_abelianized_extension,
    build_klein_bottle,
    build_promislow,
    build_wreath,
)
from gentorsion.extgroup import ExtensionGroup, direct_product
from gentorsion.gentor import (
    DirectProductGroup,
    SplitMix64,
    _verify_product,
    is_generalized_torsion,
    positive_identity_witnesses,
    power,
    witness_construct,
)
from gentorsion.metab import build_K
from gentorsion.words import eval_word, parse_word

C3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


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


class MulCounter:
    """A backend proxy that counts ``mul`` calls."""

    def __init__(self, G):
        self.G = G
        self.muls = 0

    def identity(self):
        return self.G.identity()

    def inv(self, g):
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
        assert counter.muls == k.bit_length() - 1 + bin(k).count("1"), k


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
    finite = G.abelianization().is_finite
    one = G.coset(G.identity())
    outside = 0
    cases = torsion_words(G, 20406 + len(name), 12)
    assert len(cases) == 12
    for word, g in cases:
        cert = witness_construct(G, g, base_word=word)
        assert cert.verified
        assert len(cert.words) == len(cert.conjugators) == cert.length
        labels = [G.coset(x) for x in cert.conjugators]
        if finite or G.coset(g) == one:
            assert cert.length == index
            assert len(set(labels)) == index
        else:
            n = G.order_mod_translation(g)
            assert cert.length == n * index
            assert all(labels.count(label) == n for label in set(labels))
        outside += G.coset(g) != one
    # the g^i * s construction is exercised wherever it can be
    assert (outside == 0) == (name in ALL_TORSION_IN_A)
