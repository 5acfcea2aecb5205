"""``cokernel_structure`` against the full Smith form it used to read.

``cokernel_structure`` eliminates without the column transform V and
builds its matrices from trusted rows.  The reference below is the former
body: the U of ``smith_normal_form(relations.transpose())``, with every
matrix built through the validating ``IntMatrix`` constructor.  Both must
agree field by field, and give the same canonical coordinates, on the
abelianizations of the catalog groups.  The reference structure of the
full shift closure of S for K(p^n, p^m) must be free of rank d - 1 on
every group with N <= 16, and the coordinates elements store must be the
ones the unreduced arithmetic of ``metab_bruteforce.RawK`` reads from that
closure.  ``ExtensionGroup.center_rank``, now the free
rank of one cokernel, must match the rank read from the Smith diagonal of
the stacked phi(q) - I.
"""

import pytest

from gentorsion.catalog import (
    FreeAbelExtInput,
    build_dihedral_infinite,
    build_free_abelianized_extension,
    build_klein_bottle,
    build_promislow,
    build_wreath,
)
from gentorsion.extgroup import (ExtensionGroup, ExtensionSpec, abelianization_relations,
                                 direct_product)
from gentorsion.gentor import SplitMix64, random_word_element
from gentorsion.intlin import AbelianStructure, IntMatrix, cokernel_structure, smith_normal_form
from gentorsion.metab import build_K

import metab_bruteforce as brute

SMALL_K = ((2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1), (2, 2, 2), (2, 1, 3), (2, 3, 1))
C2 = [[0, 1], [1, 0]]
C3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
C2xC2 = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
CATALOG = {
    "dinf": build_dihedral_infinite,
    "klein": build_klein_bottle,
    "promislow": build_promislow,
    "wreath2": lambda: build_wreath(C2),
    "wreath3": lambda: build_wreath(C3),
    "freeabext1": lambda: build_free_abelianized_extension(FreeAbelExtInput.build(1, C2, [1])),
    "freeabext2": lambda: build_free_abelianized_extension(FreeAbelExtInput.build(2, C2, [1, 1])),
    "freeabext4": lambda: build_free_abelianized_extension(FreeAbelExtInput.build(2, C2xC2, [1, 2])),
}


def z_spec():
    return ExtensionSpec.build([[0]], [IntMatrix.identity(1)], [[(0,)]], [("t", (0, (1,)))])


WITH_PRODUCTS = {
    **CATALOG,
    "z": z_spec,
    "freeabext_c3": lambda: build_free_abelianized_extension(FreeAbelExtInput.build(2, C3, [1, 1])),
    "promislow x klein": lambda: direct_product(build_promislow(), build_klein_bottle()),
    "promislow x z": lambda: direct_product(build_promislow(), z_spec()),
}


def reference_structure(relations: IntMatrix) -> AbelianStructure:
    snf = smith_normal_form(relations.transpose())
    c = relations.cols
    full = [snf.D[i, i] if i < min(snf.D.rows, snf.D.cols) else 0 for i in range(c)]
    selected = tuple(i for i, d in enumerate(full) if d != 1)
    moduli = tuple(full[i] for i in selected)
    factors = tuple(d for d in moduli if d > 1)
    free_rank = sum(1 for d in moduli if d == 0)
    to_canonical = IntMatrix([snf.U.row(i) for i in selected], cols=c)
    transform = IntMatrix(snf.U.to_lists(), cols=c)
    return AbelianStructure(factors, free_rank, to_canonical, moduli, selected, transform)


def assert_same_structure(got: AbelianStructure, want: AbelianStructure):
    assert got.to_canonical == want.to_canonical
    assert got.moduli == want.moduli
    assert got.selected == want.selected
    assert got.transform == want.transform
    assert got.invariant_factors == want.invariant_factors
    assert got.free_rank == want.free_rank
    assert got == want
    for m in (got.to_canonical, got.transform):
        assert all(type(x) is int for i in range(m.rows) for x in m.row(i))


@pytest.mark.parametrize("pnm", SMALL_K, ids=lambda pnm: "K:%d,%d,%d" % pnm)
def test_commutator_module_matches_full_smith_form(pnm):
    G = build_K(*pnm)
    want = reference_structure(brute.consistency_rows(G))
    assert want.free_rank == G.d - 1
    assert want.invariant_factors == ()
    want_ab = reference_structure(IntMatrix.diagonal([G.N, G.N]))
    assert_same_structure(G.abelianization(), want_ab)
    raw = brute.RawK(G)
    gens = [(1, 0, G._zero), (0, 1, G._zero)]
    gens += [raw.inv(g) for g in gens]
    rng = SplitMix64(1000 + G.d)
    for _ in range(40):
        h = (0, 0, G._zero)
        for _ in range(rng.randrange(17)):
            h = raw.mul(h, gens[rng.randrange(4)])
        g = G._make(*h)
        assert g.coords == want.canonical(h[2])
        assert G.abelianization().canonical(G.ab_vector(g)) == want_ab.canonical(G.ab_vector(g))


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_abelianization_matches_full_smith_form(name):
    spec = CATALOG[name]()
    G = ExtensionGroup(spec, name=name)
    relations, _ = abelianization_relations(spec)
    want = reference_structure(relations)
    assert_same_structure(G.abelianization(), want)
    rng = SplitMix64(2000 + len(name))
    for _ in range(40):
        v = G.ab_vector(random_word_element(G, rng, 16))
        assert G.abelianization().canonical(v) == want.canonical(v)


def reference_center_rank(spec) -> int:
    """The former body: n minus the rank of the stacked phi(q) - I, read
    from the full Smith form; n when Q is trivial."""
    if spec.q_size == 1:
        return spec.n
    blocks = [spec.phi[q] - IntMatrix.identity(spec.n) for q in range(1, spec.q_size)]
    stacked = blocks[0]
    for block in blocks[1:]:
        stacked = stacked.vstack(block)
    return spec.n - sum(1 for d in smith_normal_form(stacked).diagonal() if d != 0)


@pytest.mark.parametrize("name", sorted(WITH_PRODUCTS))
def test_center_rank_matches_full_smith_form(name):
    spec = WITH_PRODUCTS[name]()
    assert ExtensionGroup(spec, name=name).center_rank() == reference_center_rank(spec)
