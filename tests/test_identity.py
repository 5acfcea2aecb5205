"""Universal identities and torsion by evaluation, against the symbolic oracle.

``ExtensionGroup.verify_positive_identity_all`` evaluates the product of
conjugates of (q, a)^k at a = 0 and at each basis vector e_i, and
``torsion_witness`` reads N_q and c_q off (q, 0)^o and (q, e_i)^o.
``identity_symbolic`` keeps the formal-vector arithmetic they replace;
both must give the same verdicts and the same torsion witnesses.
"""

import functools

import pytest

from gentorsion.catalog import (
    FreeAbelExtInput,
    build_dihedral_infinite,
    build_free_abelianized_extension,
    build_klein_bottle,
    build_promislow,
    build_wreath,
    trivial_z_spec,
)
from gentorsion.extgroup import ExtElement, ExtensionGroup, direct_product
from gentorsion.gentor import SplitMix64, random_word_element

import identity_symbolic as symbolic

C2 = [[0, 1], [1, 0]]
C3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
C2xC2 = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
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
    "z": trivial_z_spec,
    "promislow_x_z": lambda: direct_product(build_promislow(), trivial_z_spec()),
    "dinf_x_klein": lambda: direct_product(build_dihedral_infinite(), build_klein_bottle()),
}


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


def test_torsion_witness_cases_cover_both_outcomes():
    found = {group(name).torsion_witness() is None for name in CATALOG_SPECS}
    assert found == {True, False}
