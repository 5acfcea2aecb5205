"""Built-in groups: wreath and free-abelianized builders, the group-ring
backend, and central elements in products."""

import time
from math import isqrt

import pytest

from gentorsion.catalog import (
    FREEABEXT_CAP,
    FreeAbelExtInput,
    GammaElement,
    GroupRingElement,
    build_casolo_gamma,
    build_dihedral_infinite,
    build_free_abelianized_extension,
    build_klein_bottle,
    build_promislow,
    build_wreath,
    central_nontorsion_check,
    trivial_z_spec,
)
from gentorsion.errors import GroupInputError
from gentorsion.extgroup import ExtElement, ExtensionGroup, spec_to_dict, validate_extension
from gentorsion.gentor import (
    DirectProductGroup,
    SplitMix64,
    is_generalized_torsion,
    positive_identity_witnesses,
    random_word_element,
    verify_identity_sampled,
)

import gamma_bruteforce as brute

C2 = [[0, 1], [1, 0]]
C3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
C2xC2 = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


def test_catalog_generator_names():
    assert [n for n, _ in build_promislow().generator_names] == ["x", "y"]
    assert [n for n, _ in build_klein_bottle().generator_names] == ["x", "y"]
    assert [n for n, _ in build_dihedral_infinite().generator_names] == ["a", "b"]
    assert validate_extension(trivial_z_spec()).ok


# -- wreath builder --------------------------------------------------------


def test_wreath_c2():
    G = ExtensionGroup(build_wreath(C2), name="wreath2")
    gens = dict(G.generators)
    assert sorted(gens) == ["s1", "t"]
    assert G.mul(gens["s1"], gens["s1"]) == G.identity()
    ab = G.abelianization()
    assert ab.invariant_factors == (2,) and ab.free_rank == 1


def test_wreath_c3():
    G = ExtensionGroup(build_wreath(C3), name="wreath3")
    gens = dict(G.generators)
    assert sorted(gens) == ["s1", "s2", "t"]
    t = gens["t"]
    moved = G.conj(t, gens["s1"])
    assert moved != t
    # base copies commute
    assert G.mul(t, moved) == G.mul(moved, t)
    # conjugating by the full cycle returns to the start
    assert G.conj(t, G.pow(gens["s1"], 3)) == t
    ab = G.abelianization()
    assert ab.invariant_factors == (3,) and ab.free_rank == 1


def test_wreath_translation_structure():
    G = ExtensionGroup(build_wreath(C2))
    gens = dict(G.generators)
    t, s = gens["t"], gens["s1"]
    assert G.coset(t) == G.coset(G.identity())
    assert G.coset(s) != G.coset(G.identity())
    assert G.translation_index() == 2
    # t * t^s has augmentation 2 and is fixed by s
    u = G.mul(t, G.conj(t, s))
    assert G.conj(u, s) == u


def test_wreath_rejects_bad_table():
    with pytest.raises(GroupInputError):
        build_wreath([[0, 1], [1, 1]])


@pytest.mark.parametrize("table, reason", [
    ([[0, 5], [1, 0]], "q_table entries out of range"),
    ([[0, -1], [1, 0]], "q_table entries out of range"),
    ([[0, 1], [1]], "q_table must be 2x2"),
    ([], "q_table is empty"),
])
def test_wreath_rejects_malformed_table_before_building(table, reason):
    with pytest.raises(GroupInputError, match="invalid multiplication table: " + reason):
        build_wreath(table)


# -- free abelianized extensions -------------------------------------------


def test_freeabext_rank_one():
    spec = build_free_abelianized_extension(FreeAbelExtInput.build(1, C2, [1]))
    assert spec.n == 1
    G = ExtensionGroup(spec, name="f1c2")
    ab = G.abelianization()
    assert ab.invariant_factors == () and ab.free_rank == 1
    assert G.is_torsion_free()


def test_freeabext_rank_two_over_c2():
    spec = build_free_abelianized_extension(FreeAbelExtInput.build(2, C2, [1, 1]))
    assert spec.n == 2 * (2 - 1) + 1 == 3
    G = ExtensionGroup(spec, name="f2c2")
    ab = G.abelianization()
    assert ab.invariant_factors == () and ab.free_rank == 2
    assert G.is_torsion_free()


def test_freeabext_torsion_set_is_derived_subgroup():
    spec = build_free_abelianized_extension(FreeAbelExtInput.build(2, C2, [1, 1]))
    G = ExtensionGroup(spec, name="f2c2")
    rng = SplitMix64(20406)
    derived_seen = 0
    for _ in range(50):
        g = random_word_element(G, rng)
        h = random_word_element(G, rng)
        comm = G.mul(G.inv(G.mul(h, g)), G.mul(g, h))
        assert is_generalized_torsion(G, comm)
        derived_seen += comm != G.identity()
    assert derived_seen > 0
    nonzero = 0
    for _ in range(50):
        g = random_word_element(G, rng)
        if G.abelianization().canonical(G.ab_vector(g)) != (0, 0):
            nonzero += 1
            assert not is_generalized_torsion(G, g)
    assert nonzero > 0


def test_freeabext_rank_two_over_klein_four():
    spec = build_free_abelianized_extension(FreeAbelExtInput.build(2, C2xC2, [1, 2]))
    assert spec.n == 4 * (2 - 1) + 1 == 5
    assert validate_extension(spec).ok
    assert ExtensionGroup(spec).abelianization().free_rank == 2


def test_freeabext_rank_two_over_c3_spec():
    # pinned: the Schreier tree, the lattice basis order, phi and the
    # factor set all show in the spec
    spec = build_free_abelianized_extension(FreeAbelExtInput.build(2, C3, [1, 1]))
    assert spec_to_dict(spec) == {
        "q_size": 3,
        "q_table": C3,
        "n": 4,
        "phi": [
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[0, 0, 1, 0], [0, 1, 1, -1], [0, 0, 0, 1], [1, 0, 0, 0]],
            [[0, 0, 0, 1], [-1, 1, 1, 0], [1, 0, 0, 0], [0, 0, 1, 0]],
        ],
        "coc": [
            [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
            [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]],
            [[0, 0, 0, 0], [0, 0, 0, 0], [0, -1, 0, 0]],
        ],
        "generators": {"f1": {"q": 1, "a": [0, 0, 0, 0]}, "f2": {"q": 1, "a": [0, 0, 0, 1]}},
    }


def test_freeabext_input_errors():
    with pytest.raises(GroupInputError):
        build_free_abelianized_extension(FreeAbelExtInput.build(0, C2, []))
    with pytest.raises(GroupInputError):
        build_free_abelianized_extension(FreeAbelExtInput.build(2, C2, [1]))
    with pytest.raises(GroupInputError):
        build_free_abelianized_extension(FreeAbelExtInput.build(1, C2, [5]))
    with pytest.raises(GroupInputError):
        build_free_abelianized_extension(FreeAbelExtInput.build(2, C2xC2, [0, 0]))
    # generating only a subgroup is also rejected
    with pytest.raises(GroupInputError):
        build_free_abelianized_extension(FreeAbelExtInput.build(1, C2xC2, [1]))


def test_freeabext_cap_is_on_the_phi_entries():
    """|Q| n^2 at most ``FREEABEXT_CAP``: over the trivial group n is the
    rank, so the last accepted rank is the integer square root of the cap."""
    last = isqrt(FREEABEXT_CAP)
    spec = build_free_abelianized_extension(FreeAbelExtInput.build(last, [[0]], [0] * last))
    assert spec.q_size * spec.n ** 2 <= FREEABEXT_CAP < (last + 1) ** 2
    with pytest.raises(GroupInputError, match="size cap"):
        build_free_abelianized_extension(FreeAbelExtInput.build(last + 1, [[0]], [0] * (last + 1)))


def test_freeabext_cap_comes_after_the_rank_and_image_checks():
    """A large rank still reports a missing or out-of-range image first,
    and an over-cap input is refused before its tree paths are walked:
    rank 10^5 over C2 is refused at once."""
    big = 10 ** 5
    with pytest.raises(GroupInputError, match="one image per free generator"):
        build_free_abelianized_extension(FreeAbelExtInput.build(big, C2, [1] * (big - 1)))
    with pytest.raises(GroupInputError, match="outside the group"):
        build_free_abelianized_extension(FreeAbelExtInput.build(big, C2, [1] * (big - 1) + [2]))
    start = time.perf_counter()
    with pytest.raises(GroupInputError, match="size cap"):
        build_free_abelianized_extension(FreeAbelExtInput.build(big, C2, [1] * big))
    assert time.perf_counter() - start < 1


# -- group ring ------------------------------------------------------------


def test_group_ring_arithmetic():
    P = ExtensionGroup(build_promislow())
    one = P.identity()
    x = dict(P.generators)["x"]
    a = GroupRingElement.from_pairs([(one, 2), (x, 1)])
    b = GroupRingElement.from_pairs([(one, -2), (x, 3), (x, -3)])
    assert b == GroupRingElement.from_pairs([(one, -2)])
    assert (a + b) == GroupRingElement.from_pairs([(x, 1)])
    assert a.augmentation() == 3
    assert a.scaled(-2).augmentation() == -6
    assert GroupRingElement(()).augmentation() == 0


# -- the group-ring backend ------------------------------------------------


@pytest.fixture(scope="module")
def gamma():
    return build_casolo_gamma()


def test_gamma_group_laws(gamma):
    rng = SplitMix64(9)
    for _ in range(40):
        a = random_word_element(gamma, rng, max_length=6)
        b = random_word_element(gamma, rng, max_length=6)
        c = random_word_element(gamma, rng, max_length=6)
        assert gamma.mul(gamma.mul(a, b), c) == gamma.mul(a, gamma.mul(b, c))
        assert gamma.mul(a, gamma.inv(a)) == gamma.identity()
        assert gamma.conj(gamma.conj(a, b), c) == gamma.conj(a, gamma.mul(b, c))


def test_gamma_arithmetic_agrees_with_formula(gamma):
    """``mul`` and ``inv`` against the former translate, scale and add
    arithmetic on 500 seeded pairs with non-empty rings on both sides,
    over both signs of the left factor's right part."""
    P = gamma.P
    rng = SplitMix64(18)

    def point():
        return ExtElement(rng.randrange(P.spec.q_size),
                          tuple(rng.randrange(7) - 3 for _ in range(P.spec.n)))

    def draw():
        ring = GroupRingElement(())
        while not ring.items:
            ring = GroupRingElement.from_pairs(
                (point(), rng.randrange(9) - 4) for _ in range(1 + rng.randrange(4)))
        return GammaElement(ring, point(), point())

    signs = set()
    for _ in range(500):
        a, b = draw(), draw()
        signs.add(gamma.sign(a.h))
        for got, want in ((gamma.mul(a, b), brute.formula_mul(gamma, a, b)),
                          (gamma.inv(a), brute.formula_inv(gamma, a))):
            assert got.ring.items == want.ring.items
            assert (got.g, got.h) == (want.g, want.h)
    assert signs == {1, -1}


def test_gamma_sign_character(gamma):
    P = gamma.P
    x = dict(P.generators)["x"]
    assert gamma.sign(P.identity()) == 1
    assert gamma.sign(x) == -1
    assert gamma.sign(P.mul(x, x)) == 1
    signs = {gamma.sign(g) for _, g in P.generators}
    assert -1 in signs


def test_gamma_sign_pinned_and_multiplicative(gamma):
    """The sign is the stated character: -1 on the point indices of x and
    y, multiplicative, and trivial on the lattice."""
    P = gamma.P
    zero = (0,) * P.spec.n
    assert [gamma.sign(ExtElement(q, zero)) for q in range(P.spec.q_size)] == [1, -1, -1, 1]
    rng = SplitMix64(31)
    for _ in range(500):
        g, h = (ExtElement(rng.randrange(P.spec.q_size),
                           tuple(rng.randrange(61) - 30 for _ in range(P.spec.n)))
                for _ in range(2))
        assert gamma.sign(P.mul(g, h)) == gamma.sign(g) * gamma.sign(h)
    for i in range(P.spec.n):
        assert gamma.sign(ExtElement(0, tuple(int(i == j) for j in range(P.spec.n)))) == 1


def test_gamma_sigma_candidates(gamma):
    sigmas = gamma.sigma_candidates()
    assert len(sigmas) == 3
    for s in sigmas:
        assert s.ring == GroupRingElement(())
        assert s.g == gamma.P.identity()
        assert gamma.sign(s.h) == -1


def test_gamma_identity_conjugators(gamma):
    sigma = gamma.sigma_candidates()[0]
    conj = gamma.identity_conjugators(sigma)
    assert len(conj) == 16
    rng = SplitMix64(20406)
    for _ in range(60):
        u = random_word_element(gamma, rng, max_length=6)
        prod = gamma.identity()
        for c in conj:
            prod = gamma.mul(prod, gamma.conj(u, c))
        assert prod == gamma.identity()


def test_gamma_reads_its_generators_and_identity_off_P(gamma):
    """The generator names and order are those Gamma always had, formed
    from P's; each identity is P's (k, T) as diagonal pairs, each z in T
    k times, then the same pairs times sigma.  The sampled check accepts
    it and refuses the first half alone and a list with one entry moved."""
    P = gamma.P
    one, zero = P.identity(), GroupRingElement(())
    assert [name for name, _ in gamma.generators] == ["e", "xl", "yl", "xr", "yr"]
    x, y = dict(P.generators)["x"], dict(P.generators)["y"]
    assert [g for _, g in gamma.generators] == [
        GammaElement(GroupRingElement(((one, 1),)), one, one),
        GammaElement(zero, x, one), GammaElement(zero, y, one),
        GammaElement(zero, one, x), GammaElement(zero, one, y)]
    k, T = positive_identity_witnesses(P)
    base = [GammaElement(zero, z, z) for z in T for _ in range(k)]
    rng = SplitMix64(4242)
    for sigma in gamma.sigma_candidates():
        conj = gamma.identity_conjugators(sigma)
        assert conj == base + [gamma.mul(b, sigma) for b in base]
        assert len(conj) == 16 and all(conj[i] == conj[i + 1] for i in range(0, 16, 2))
        assert len(set(conj)) == 8
        assert verify_identity_sampled(gamma, 1, conj, 200, 11)
        assert not verify_identity_sampled(gamma, 1, conj[:8], 200, 11)
        tampered = list(conj)
        i = rng.randrange(16)
        tampered[i] = gamma.mul(tampered[i], dict(gamma.generators)["xr"])
        assert not verify_identity_sampled(gamma, 1, tampered, 200, 11), i


def test_gamma_no_small_torsion(gamma):
    rng = SplitMix64(77)
    for _ in range(10):
        u = random_word_element(gamma, rng, max_length=5)
        if u == gamma.identity():
            continue
        for k in range(1, 7):
            assert gamma.pow(u, k) != gamma.identity()


def test_gamma_translation_moves(gamma):
    e = dict(gamma.generators)["e"]
    xl = dict(gamma.generators)["xl"]
    moved = gamma.conj(e, xl)
    assert moved != e
    assert moved.ring.augmentation() == 1
    assert gamma.pow(e, 3).ring.augmentation() == 3


# -- central non-torsion elements ------------------------------------------


def test_central_nontorsion_in_products():
    P = ExtensionGroup(build_promislow(), name="promislow")
    Z = ExtensionGroup(trivial_z_spec(), name="z")
    D = ExtensionGroup(build_dihedral_infinite(), name="dinf")
    assert central_nontorsion_check(DirectProductGroup(P, Z))
    assert central_nontorsion_check(DirectProductGroup(D, Z))


def test_torsion_image_in_product_is_generalized_torsion():
    D = ExtensionGroup(build_dihedral_infinite(), name="dinf")
    Z = ExtensionGroup(trivial_z_spec(), name="z")
    G = DirectProductGroup(D, Z)
    b = dict(G.generators)["b"]
    assert is_generalized_torsion(G, b)
    z = dict(G.generators)["z"]
    assert not is_generalized_torsion(G, z)
    assert not is_generalized_torsion(G, G.mul(b, z))
