"""Crystallographic-style extensions: validation, arithmetic, structure."""

import pytest

from gentorsion.catalog import build_dihedral_infinite, build_klein_bottle, build_promislow
from gentorsion.errors import GroupInputError
from gentorsion.extgroup import (
    ExtElement,
    ExtensionGroup,
    ExtensionSpec,
    direct_product,
    spec_from_dict,
    spec_to_dict,
    validate_extension,
)
from gentorsion.gentor import SplitMix64, witness_construct
from gentorsion.intlin import IntMatrix


@pytest.fixture(scope="module")
def promislow():
    return ExtensionGroup(build_promislow(), name="promislow")


@pytest.fixture(scope="module")
def klein():
    return ExtensionGroup(build_klein_bottle(), name="klein")


@pytest.fixture(scope="module")
def dinf():
    return ExtensionGroup(build_dihedral_infinite(), name="dinf")


def rand_elem(G, rng, span=4):
    q = rng.randrange(G.spec.q_size)
    a = tuple(rng.randrange(2 * span + 1) - span for _ in range(G.spec.n))
    return ExtElement(q, a)


# -- validation ------------------------------------------------------------


def test_catalog_specs_validate():
    for spec in [build_promislow(), build_klein_bottle(), build_dihedral_infinite()]:
        assert validate_extension(spec).ok


def _s3_specs():
    """The symmetric group on three points acting on Z^3 by permutation
    matrices, with the action wired both ways round."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]

    def compose(p, t):
        # p then t
        return tuple(t[p[i]] for i in range(3))

    table = [[perms.index(compose(p, t)) for t in perms] for p in perms]

    def pmat(p):
        m = [[0] * 3 for _ in range(3)]
        for i in range(3):
            m[p[i]][i] = 1
        return m

    def inv(p):
        out = [0, 0, 0]
        for i in range(3):
            out[p[i]] = i
        return tuple(out)

    coc = [[(0, 0, 0)] * 6 for _ in range(6)]
    gens = [("r", (1, (0, 0, 0))), ("s", (3, (0, 0, 0)))]
    forward = ExtensionSpec.build(table, [pmat(p) for p in perms], coc, gens)
    backward = ExtensionSpec.build(table, [pmat(inv(p)) for p in perms], coc, gens)
    return forward, backward


def test_action_direction_is_checked():
    # on a nonabelian point group exactly one wiring of the action is an
    # anti-homomorphism; the other direction must be reported
    forward, backward = _s3_specs()
    reports = [validate_extension(forward), validate_extension(backward)]
    oks = [r.ok for r in reports]
    assert sorted(oks) == [False, True]
    bad = reports[oks.index(False)]
    assert any("anti-homomorphism" in f for f in bad.failures)


def test_s3_extension_arithmetic():
    forward, backward = _s3_specs()
    spec = forward if validate_extension(forward).ok else backward
    G = ExtensionGroup(spec, name="s3ext")
    rng = SplitMix64(13)
    for _ in range(100):
        g, h, k = (rand_elem(G, rng) for _ in range(3))
        assert G.mul(G.mul(g, h), k) == G.mul(g, G.mul(h, k))
        assert G.mul(g, G.inv(g)) == G.identity()


def test_cocycle_identity_is_checked():
    data = spec_to_dict(build_promislow())
    data["coc"][1][2][0] += 1
    report = validate_extension(spec_from_dict(data))
    assert not report.ok
    assert any("cocycle" in f for f in report.failures)


def test_normalization_is_checked():
    data = spec_to_dict(build_klein_bottle())
    data["coc"][0][1] = [1, 0]
    report = validate_extension(spec_from_dict(data))
    assert not report.ok
    assert any("normalized" in f for f in report.failures)


def test_unimodularity_is_checked():
    spec = ExtensionSpec.build(
        [[0, 1], [1, 0]], [[[1, 0], [0, 1]], [[2, 0], [0, 1]]],
        [[(0, 0)] * 2 for _ in range(2)], [("x", (1, (0, 0)))],
    )
    report = validate_extension(spec)
    assert not report.ok
    assert any("invertible" in f for f in report.failures)


def test_point_table_is_checked():
    no_inverse = ExtensionSpec.build([[0, 1], [1, 1]], [[[1]], [[1]]],
                                     [[(0,)] * 2 for _ in range(2)], [])
    report = validate_extension(no_inverse)
    assert any("inverse" in f for f in report.failures)

    non_assoc = ExtensionSpec.build(
        [[0, 1, 2], [1, 2, 0], [2, 1, 0]], [[[1]]] * 3,
        [[(0,)] * 3 for _ in range(3)], [],
    )
    report = validate_extension(non_assoc)
    assert any("associativity" in f for f in report.failures)


def test_invalid_spec_rejected_at_group_construction():
    spec = ExtensionSpec.build([[0, 1], [1, 1]], [[[1]], [[1]]],
                               [[(0,)] * 2 for _ in range(2)], [])
    with pytest.raises(GroupInputError):
        ExtensionGroup(spec)


# -- defining relations of the catalog groups ------------------------------


def test_klein_relations(klein):
    G = klein
    gens = dict(G.generators)
    x, y = gens["x"], gens["y"]
    assert G.mul(y, y) == ExtElement(0, (0, 1))
    assert G.conj(x, y) == G.inv(x)
    assert G.mul(x, y) != G.mul(y, x)


def test_promislow_relations(promislow):
    G = promislow
    gens = dict(G.generators)
    x, y = gens["x"], gens["y"]
    t1 = ExtElement(0, (1, 0, 0))
    t2 = ExtElement(0, (0, 1, 0))
    t3 = ExtElement(0, (0, 0, 1))
    assert G.mul(x, x) == t1
    assert G.mul(y, y) == t2
    xy = G.mul(x, y)
    assert G.mul(xy, xy) == t3
    assert G.conj(G.mul(x, x), y) == G.inv(G.mul(x, x))
    assert G.conj(G.mul(y, y), x) == G.inv(G.mul(y, y))


def test_dinf_relations(dinf):
    G = dinf
    gens = dict(G.generators)
    a, b = gens["a"], gens["b"]
    assert G.mul(b, b) == G.identity()
    assert G.conj(a, b) == G.inv(a)


# -- structure -------------------------------------------------------------


def test_torsion(promislow, klein, dinf):
    assert promislow.is_torsion_free()
    assert klein.is_torsion_free()
    w = dinf.torsion_witness()
    assert w is not None
    assert w != dinf.identity()
    assert dinf.pow(w, 2) == dinf.identity()


def test_center_ranks(promislow, klein, dinf):
    assert promislow.center_rank() == 0
    assert klein.center_rank() == 1
    assert dinf.center_rank() == 0
    trivial_q = ExtensionSpec.build(
        [[0]], [IntMatrix.identity(3)], [[(0, 0, 0)]],
        [("t1", (0, (1, 0, 0)))],
    )
    assert ExtensionGroup(trivial_q).center_rank() == 3


def test_abelianizations(promislow, klein, dinf):
    assert promislow.abelianization().describe() == "C4 x C4"
    k = klein.abelianization()
    assert k.invariant_factors == (2,) and k.free_rank == 1
    assert dinf.abelianization().describe() == "C2 x C2"


def test_ab_vector_is_homomorphism(promislow):
    G = promislow
    ab = G.abelianization()
    rng = SplitMix64(17)
    for _ in range(100):
        g, h = rand_elem(G, rng), rand_elem(G, rng)
        lhs = ab.canonical(G.ab_vector(G.mul(g, h)))
        rhs = ab.canonical(tuple(u + v for u, v in zip(G.ab_vector(g), G.ab_vector(h))))
        assert lhs == rhs


def test_conj_composition(promislow):
    G = promislow
    rng = SplitMix64(29)
    for _ in range(60):
        g, x, y = (rand_elem(G, rng) for _ in range(3))
        assert G.conj(G.conj(g, x), y) == G.conj(g, G.mul(x, y))


def test_no_small_power_trivial(promislow, klein):
    for G in (promislow, klein):
        rng = SplitMix64(53)
        for _ in range(25):
            g = rand_elem(G, rng)
            if g == G.identity():
                continue
            for k in range(1, 13):
                assert G.pow(g, k) != G.identity()


# -- transversals and quotient data ----------------------------------------


def test_transversal_words(promislow, dinf):
    assert [w for w, _ in promislow.labeled_transversal()] == ["1", "x", "y", "x*y"]
    assert [w for w, _ in dinf.labeled_transversal()] == ["1", "b"]
    gens = dict(promislow.generators)
    # cosets of A<x> are represented by 1 and y, those of A<xy> by 1 and x
    cert = witness_construct(promislow, gens["x"], base_word="x")
    assert cert.words == ("1", "x", "y", "x*y")
    xy = promislow.mul(gens["x"], gens["y"])
    cert = witness_construct(promislow, xy, base_word="x*y")
    assert cert.words == ("1", "x*y", "x", "x*y*x")


def test_quotient_capabilities(promislow, dinf):
    G = promislow
    gens = dict(G.generators)
    assert G.translation_index() == 4
    assert dinf.translation_index() == 2
    assert G.order_mod_translation(gens["x"]) == 2
    assert G.order_mod_translation(G.identity()) == 1
    assert G.holonomy_exponent() == 2
    assert dinf.holonomy_exponent() == 2
    assert G.coset(ExtElement(0, (3, -1, 2))) == G.coset(G.identity())
    assert G.coset(gens["x"]) != G.coset(G.identity())
    assert len(G.transversal()) == 4


# -- universal identity verification ---------------------------------------


def test_universal_identity(promislow, klein):
    T = promislow.transversal()
    assert promislow.verify_positive_identity_all(2, T)
    assert not promislow.verify_positive_identity_all(2, T[:-1])
    assert not klein.verify_positive_identity_all(2, klein.transversal())


def test_universal_identity_spot_check(promislow):
    # the universal verdict must agree with direct evaluation on samples
    G = promislow
    T = G.transversal()
    rng = SplitMix64(61)
    for _ in range(50):
        g = rand_elem(G, rng)
        prod = G.identity()
        for x in T:
            prod = G.mul(prod, G.conj(G.pow(g, 2), x))
        assert prod == G.identity()


# -- products and serialization --------------------------------------------


def test_direct_product(promislow):
    spec = direct_product(build_promislow(), build_promislow())
    assert spec.q_size == 16 and spec.n == 6
    assert validate_extension(spec).ok
    G = ExtensionGroup(spec, name="pxp")
    names = [n for n, _ in G.generators]
    assert names == ["x", "y", "x2", "y2"]
    assert G.abelianization().describe() == "C4 x C4 x C4 x C4"
    gens = dict(G.generators)
    # the two factors commute elementwise
    assert G.mul(gens["x"], gens["y2"]) == G.mul(gens["y2"], gens["x"])


def test_product_with_free_factor(promislow):
    z = ExtensionSpec.build([[0]], [[[1]]], [[(0,)]], [("z", (0, (1,)))])
    spec = direct_product(build_promislow(), z)
    G = ExtensionGroup(spec)
    ab = G.abelianization()
    assert ab.invariant_factors == (4, 4) and ab.free_rank == 1


def test_spec_dict_roundtrip():
    for spec in [build_promislow(), build_klein_bottle(), build_dihedral_infinite()]:
        assert spec_from_dict(spec_to_dict(spec)) == spec


def test_spec_from_dict_errors():
    with pytest.raises(GroupInputError):
        spec_from_dict({"q_table": [[0]]})
    data = spec_to_dict(build_klein_bottle())
    data["q_size"] = 7
    with pytest.raises(GroupInputError):
        spec_from_dict(data)
