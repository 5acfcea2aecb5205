"""Decision procedures, certificates, bounds, and the bounded search."""

import pytest

from gentorsion.catalog import (
    build_dihedral_infinite,
    build_K_group,
    build_casolo_gamma,
    build_klein_bottle,
    build_promislow,
    build_wreath,
)
from gentorsion.errors import BackendCapabilityError, GroupInputError
from gentorsion.extgroup import ExtElement, ExtensionGroup, direct_product
from gentorsion.gentor import (
    DirectProductGroup,
    ExponentBounds,
    SplitMix64,
    WitnessCertificate,
    gen_exponent_bounds,
    gen_order_lower_bound,
    gen_order_search,
    is_fully_generalized_torsion,
    is_generalized_torsion,
    positive_identity_witnesses,
    random_word_element,
    verify_identity_sampled,
    verify_identity_universal,
    witness_construct,
)
from gentorsion import gentor
from gentorsion.words import eval_word, parse_word


@pytest.fixture(scope="module")
def promislow():
    return ExtensionGroup(build_promislow(), name="promislow")


@pytest.fixture(scope="module")
def klein():
    return ExtensionGroup(build_klein_bottle(), name="klein")


@pytest.fixture(scope="module")
def wreath2():
    return ExtensionGroup(build_wreath([[0, 1], [1, 0]]), name="wreath2")


# S3 with index 0 the identity; 1, 2 and 5 are the transpositions
S3 = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 2, 5, 4],
    [2, 4, 0, 5, 1, 3],
    [3, 5, 1, 4, 0, 2],
    [4, 2, 5, 0, 3, 1],
    [5, 3, 4, 1, 2, 0],
]


def gens(G):
    return dict(G.generators)


# -- rng -------------------------------------------------------------------


def test_splitmix_reference_values():
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == [
        0x72C5FED5D4237C97, 0x31EDC9358AA29092, 0x51267CBB0E6C78BB]
    assert SplitMix64(2**64 - 1).next_u64() == 0x399C888DEEFB3E4D
    r = SplitMix64(20406)
    assert [r.randrange(100) for _ in range(8)] == [72, 79, 95, 74, 32, 43, 43, 58]
    with pytest.raises(ValueError):
        SplitMix64(1).randrange(0)


def test_random_word_element_deterministic(promislow):
    a = [random_word_element(promislow, SplitMix64(5)) for _ in range(10)]
    b = [random_word_element(promislow, SplitMix64(5)) for _ in range(10)]
    assert a == b
    # distinct seeds should not generate identical streams
    c = [random_word_element(promislow, SplitMix64(6)) for _ in range(10)]
    assert a != c


def test_random_word_element_needs_a_generator(promislow):
    G = ExtensionGroup(promislow.spec, name="no generators")
    G.generators = ()
    with pytest.raises(GroupInputError, match="at least one generator"):
        random_word_element(G, SplitMix64(5))


# -- decisions and bounds --------------------------------------------------


def test_decisions_promislow(promislow):
    G = promislow
    x = gens(G)["x"]
    assert is_generalized_torsion(G, x)
    assert is_generalized_torsion(G, ExtElement(0, (1, 0, 0)))
    assert is_generalized_torsion(G, G.identity())
    assert is_fully_generalized_torsion(G)


def test_decisions_klein(klein):
    G = klein
    x, y = gens(G)["x"], gens(G)["y"]
    assert is_generalized_torsion(G, x)
    assert not is_generalized_torsion(G, y)
    assert not is_generalized_torsion(G, G.mul(x, y))
    assert not is_fully_generalized_torsion(G)
    # x^k y^j is generalized torsion exactly when the y part cancels
    for k in range(-3, 4):
        for j in range(-3, 4):
            g = G.mul(G.pow(x, k), G.pow(y, j))
            assert is_generalized_torsion(G, g) == (j == 0)


def test_decisions_wreath(wreath2):
    G = wreath2
    rng = SplitMix64(20406)
    hits = 0
    for _ in range(200):
        g = random_word_element(G, rng)
        aug = sum(g.a)
        assert is_generalized_torsion(G, g) == (aug == 0)
        hits += aug == 0
    assert 0 < hits < 200


def test_lower_bounds(promislow, klein):
    G = promislow
    x = gens(G)["x"]
    assert gen_order_lower_bound(G, x) == 4
    assert gen_order_lower_bound(G, G.pow(x, 2)) == 2
    assert gen_order_lower_bound(G, G.identity()) == 1
    with pytest.raises(GroupInputError):
        gen_order_lower_bound(klein, gens(klein)["y"])


def test_exponent_bounds(promislow, klein):
    assert gen_exponent_bounds(promislow) == ExponentBounds(4, 4, True)
    for (p, n, m), e in [((2, 1, 1), 4), ((3, 1, 1), 9), ((2, 1, 2), 8),
                         ((2, 2, 1), 8), ((5, 1, 1), 25)]:
        b = gen_exponent_bounds(build_K_group(p, n, m))
        assert b == ExponentBounds(e, e, True)
    with pytest.raises(GroupInputError):
        gen_exponent_bounds(klein)


# -- constructed certificates ----------------------------------------------


def check_cert(G, cert):
    assert isinstance(cert, WitnessCertificate)
    assert cert.verified
    assert cert.length == len(cert.conjugators) == len(cert.words)
    prod = G.identity()
    for x in cert.conjugators:
        prod = G.mul(prod, G.conj(cert.base, x))
    assert prod == G.identity()


def test_witness_promislow_generator(promislow):
    G = promislow
    cert = witness_construct(G, gens(G)["x"], base_word="x")
    check_cert(G, cert)
    assert cert.words == ("1", "x", "y", "x*y")
    assert cert.length == 4


def test_witness_promislow_translation(promislow):
    G = promislow
    cert = witness_construct(G, G.pow(gens(G)["x"], 2), base_word="x^2")
    check_cert(G, cert)
    assert cert.words == ("1", "x", "y", "x*y")
    assert cert.length == 4


def test_witness_klein_lattice_part(klein):
    G = klein
    cert = witness_construct(G, gens(G)["x"], base_word="x")
    check_cert(G, cert)
    assert cert.words == ("1", "y")
    assert cert.length == 2


def test_witness_wreath_point_part(wreath2):
    # infinite abelianization, s1 outside A: the g^i * s construction
    # still runs once over the two cosets, s1 * s1^s1 = 1
    G = wreath2
    cert = witness_construct(G, gens(G)["s1"], base_word="s1")
    check_cert(G, cert)
    assert cert.length == 2
    assert cert.words == ("1", "s1")


def test_witness_words_evaluate_to_conjugators(promislow):
    G = promislow
    x = gens(G)["x"]
    cert = witness_construct(G, G.mul(x, x), base_word="x^2")
    for w, s in zip(cert.words, cert.conjugators):
        assert eval_word(G, parse_word(w)) == s


def test_witness_rejects_non_torsion(klein):
    with pytest.raises(GroupInputError):
        witness_construct(klein, gens(klein)["y"], base_word="y")


def test_witness_lengths_scale_with_index():
    G = build_K_group(3, 1, 1)
    x = G.collect([("x", 1)])
    cert = witness_construct(G, x, base_word="x")
    check_cert(G, cert)
    assert cert.length == 9


# (group, element, base word, the base as printed inside a power, order
# of gA); the base is "g" or the element's own word.  Printed powers:
# a product keeps the double parentheses the printer gives a product
# wrapped as one factor; any other compound word gets one pair
POWER_WORD_CASES = [
    ("K:3,1,1", "x", "g", "g", 3),
    ("K:3,1,1", "x", "x", "x", 3),
    ("K:3,1,1", "x*y", "x*y", "(x*y)", 3),
    ("K:3,1,1", "x^2", "x^2", "x^2", 3),
    ("wreath_s3", "s1*s2", "g", "g", 3),
    ("wreath_s3", "s3", "s3", "s3", 3),
    ("wreath_s3", "s1*s2", "s1*s2", "(s1*s2)", 3),
    ("promislow_x_klein", "x*x2", "g", "g", 2),
    ("promislow_x_klein", "x*x2", "x*x2", "(x*x2)", 2),
]


def power_word_group(name):
    if name == "K:3,1,1":
        return build_K_group(3, 1, 1)
    if name == "wreath_s3":
        return ExtensionGroup(build_wreath(S3), name=name)
    return ExtensionGroup(direct_product(build_promislow(), build_klein_bottle()), name=name)


@pytest.mark.parametrize("name, element, base, wrapped, n", POWER_WORD_CASES,
                         ids=[f"{c[0]}-{c[2]}" for c in POWER_WORD_CASES])
def test_witness_power_words(name, element, base, wrapped, n, monkeypatch):
    """Word i of each block of n is the i-th power word of the base times
    the block's transversal word, and the base is parsed at most once."""
    G = power_word_group(name)
    g = eval_word(G, parse_word(element))
    calls = []

    def counting_parse(text):
        calls.append(text)
        return parse_word(text)

    monkeypatch.setattr(gentor, "parse_word", counting_parse)
    cert = witness_construct(G, g, base_word=base)
    check_cert(G, cert)
    assert G.order_mod_translation(g) == n
    assert calls == ([base] if n >= 3 else [])
    assert cert.length == G.translation_index()
    for start in range(0, cert.length, n):
        rep = cert.words[start]
        for i in range(1, n):
            pw = base if i == 1 else f"{wrapped}^{i}"
            assert cert.words[start + i] == (pw if rep == "1" else f"{pw}*{rep}")


def test_power_words_of_a_deep_base_parse():
    """A power word is its base and one more caret: on a base 99 carets
    deep, every conjugator word parses and evaluates to its conjugator."""
    G = build_K_group(3, 1, 1)
    base = "x" + "^y" * 99
    g = eval_word(G, parse_word(base))
    cert = witness_construct(G, g, base_word=base)
    check_cert(G, cert)
    assert G.order_mod_translation(g) == 3
    assert f"{base}^2" in cert.words
    for word, x in zip(cert.words, cert.conjugators):
        assert eval_word(G, parse_word(word)) == x


# -- positive identities ---------------------------------------------------


def test_positive_identity_witnesses(promislow):
    k, conj = positive_identity_witnesses(promislow)
    assert k == 2
    assert len(conj) == 4
    assert verify_identity_universal(promislow, k, conj)
    assert k * len(conj) == 8


def test_universal_detects_failure(promislow):
    k, conj = positive_identity_witnesses(promislow)
    assert not verify_identity_universal(promislow, k, conj[:-1])


def test_universal_dinf():
    G = ExtensionGroup(build_dihedral_infinite(), name="dinf")
    k, conj = positive_identity_witnesses(G)
    assert k == 2 and len(conj) == 2
    assert verify_identity_universal(G, k, conj)


def test_sampled_matches_universal(promislow):
    k, conj = positive_identity_witnesses(promislow)
    for seed in range(5):
        assert verify_identity_sampled(promislow, k, conj, samples=40, seed=seed)
    assert not verify_identity_sampled(promislow, 1, conj[:2], samples=40, seed=0)


def test_sampled_on_metab_backend():
    G = build_K_group(2, 1, 1)
    k, conj = positive_identity_witnesses(G)
    assert k == 2 and len(conj) == 4
    assert verify_identity_sampled(G, k, conj, samples=60, seed=20406)
    assert verify_identity_universal(G, k, conj)
    assert not verify_identity_universal(G, k, conj[:-1])


def test_positive_identity_from_contract():
    # Gamma has no lattice capabilities; it supplies its identity itself
    gamma = build_casolo_gamma()
    k, conj = positive_identity_witnesses(gamma)
    assert k == 1
    assert conj == gamma.identity_conjugators(gamma.sigma_candidates()[0])
    assert len(conj) == 16
    assert verify_identity_sampled(gamma, k, conj, samples=20, seed=20406)
    assert not verify_identity_sampled(gamma, k, conj[:-1], samples=20, seed=20406)
    with pytest.raises(BackendCapabilityError):
        verify_identity_universal(gamma, k, conj)


def test_klein_has_no_positive_identity(klein):
    with pytest.raises(GroupInputError):
        positive_identity_witnesses(klein)


# -- bounded search --------------------------------------------------------


def test_search_promislow_generator(promislow):
    G = promislow
    cert = gen_order_search(G, gens(G)["x"], max_k=8, radius=3)
    check_cert(G, cert)
    assert cert.length == 4
    assert cert.words == ("1", "1", "y", "y")


def test_search_promislow_square(promislow):
    G = promislow
    cert = gen_order_search(G, G.pow(gens(G)["x"], 2), max_k=8, radius=3)
    check_cert(G, cert)
    assert cert.length == 2
    assert cert.words == ("1", "y")


def test_search_is_deterministic(promislow):
    G = promislow
    a = gen_order_search(G, gens(G)["x"], max_k=8, radius=2)
    b = gen_order_search(G, gens(G)["x"], max_k=8, radius=2)
    assert a == b


def test_search_respects_lower_bound(promislow):
    G = promislow
    x = gens(G)["x"]
    lb = gen_order_lower_bound(G, x)
    cert = gen_order_search(G, x, max_k=8, radius=3)
    assert cert.length % lb == 0
    assert lb <= cert.length


def test_search_exhaustion_returns_none(promislow, klein):
    # infinite image: no identity exists
    assert gen_order_search(klein, gens(klein)["y"], max_k=6, radius=2) is None
    # radius 0 leaves only the trivial conjugator; x^k is never 1
    assert gen_order_search(promislow, gens(promislow)["x"], max_k=6, radius=0) is None


def test_search_rejects_bad_domain(promislow):
    x = gens(promislow)["x"]
    with pytest.raises(GroupInputError):
        gen_order_search(promislow, x, max_k=6, radius=-1)
    with pytest.raises(GroupInputError):
        gen_order_search(promislow, x, max_k=0, radius=2)


def test_search_on_metab_backend():
    G = build_K_group(2, 1, 1)
    x = G.collect([("x", 1)])
    cert = gen_order_search(G, x, max_k=4, radius=2)
    check_cert(G, cert)
    assert cert.length == 4


# -- direct products -------------------------------------------------------


def test_product_backend(promislow):
    K = build_K_group(3, 1, 1)
    G = DirectProductGroup(promislow, K)
    assert gen_exponent_bounds(G) == ExponentBounds(36, 36, True)
    assert G.abelianization().describe() == "C36 x C36"
    assert G.translation_index() == 36
    assert len(G.labeled_transversal()) == 36
    assert G.is_torsion_free()
    assert is_fully_generalized_torsion(G)


def test_product_group_laws(promislow):
    G = DirectProductGroup(promislow, promislow)
    rng = SplitMix64(3)
    for _ in range(60):
        g, h, k = (random_word_element(G, rng) for _ in range(3))
        assert G.mul(G.mul(g, h), k) == G.mul(g, G.mul(h, k))
        assert G.mul(g, G.inv(g)) == G.identity()


def test_product_generator_renaming(promislow):
    G = DirectProductGroup(promislow, promislow)
    names = [n for n, _ in G.generators]
    assert names == ["x", "y", "x2", "y2"]
    g = gens(G)
    assert g["x2"] == (promislow.identity(), gens(promislow)["x"])
    words = [w for w, _ in G.labeled_transversal()]
    assert words == [
        "1", "x", "y", "x2", "y2", "x*y", "x*x2", "x*y2", "y*x2", "y*y2", "x2*y2",
        "x*y*x2", "x*y*y2", "x*x2*y2", "y*x2*y2", "x*y*x2*y2",
    ]


def test_product_renaming_is_shared(promislow):
    """Backend and spec products rename the right factor's generators alike,
    also when a renamed name collides again."""
    nested = DirectProductGroup(DirectProductGroup(promislow, promislow), promislow)
    spec = direct_product(direct_product(promislow.spec, promislow.spec), promislow.spec)
    names = ["x", "y", "x2", "y2", "x22", "y22"]
    assert [n for n, _ in nested.generators] == names
    assert [n for n, _ in spec.generator_names] == names


def test_product_witness(promislow):
    G = DirectProductGroup(promislow, promislow)
    x = gens(G)["x"]
    cert = witness_construct(G, x, base_word="x")
    check_cert(G, cert)
    assert cert.length == G.translation_index() == 16


PRODUCT_QUERIES = {
    "decide": (lambda G, g: is_generalized_torsion(G, g), "abelianization"),
    "exponent": (lambda G, g: gen_exponent_bounds(G), "abelianization"),
    "witness": (lambda G, g: witness_construct(G, g), "abelianization"),
    "torsion-free": (lambda G, g: G.is_torsion_free(), "is_torsion_free"),
    "universal identity": (lambda G, g: verify_identity_universal(G, 2, [g]),
                           "verify_positive_identity_all"),
}


@pytest.mark.parametrize("query", PRODUCT_QUERIES)
def test_product_names_a_missing_factor_capability(promislow, query):
    """P x Gamma: Gamma has no lattice capabilities, and each query says so."""
    run, capability = PRODUCT_QUERIES[query]
    G = DirectProductGroup(promislow, build_casolo_gamma())
    with pytest.raises(BackendCapabilityError,
                       match=f"'gamma' does not provide '{capability}'"):
        run(G, gens(G)["x"])


def test_product_with_a_sampled_only_factor_multiplies(promislow):
    """P x Gamma keeps its element operations and sampled identities: P's
    degree-4 identity in g^2, repeated, beside Gamma's degree-16 one."""
    gamma = build_casolo_gamma()
    G = DirectProductGroup(promislow, gamma)
    rng = SplitMix64(5)
    for _ in range(10):
        g, h = (random_word_element(G, rng) for _ in range(2))
        assert G.mul(G.mul(g, h), G.inv(h)) == g
    k, left = positive_identity_witnesses(promislow)
    _, right = positive_identity_witnesses(gamma)
    conj = list(zip(left * (len(right) // len(left)), right))
    assert verify_identity_sampled(G, k, conj, samples=5, seed=7)
    assert not verify_identity_sampled(G, k, conj[1:], samples=5, seed=7)


def test_capability_errors():
    gamma = build_casolo_gamma()
    with pytest.raises(BackendCapabilityError):
        is_generalized_torsion(gamma, gamma.identity())
    with pytest.raises(BackendCapabilityError):
        gen_exponent_bounds(gamma)
