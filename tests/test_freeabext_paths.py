"""The path builder of F/[R,R] against the former Schreier rewriting.

``build_free_abelianized_extension`` reads phi, the cocycle and the
generators off paths of the Cayley graph of Q; ``freeabext_bruteforce``
keeps the builder that rewrote words letter by letter.  On every image
tuple of rank 1 and 2 over C2, C3, C4, C2^2, S3 and C2^3, and on a seeded
sample of rank 3, both must give equal specs or raise the same
``GroupInputError`` message.
"""

import itertools
import random

import pytest

from gentorsion.catalog import FreeAbelExtInput, build_free_abelianized_extension
from gentorsion.errors import GroupInputError

import freeabext_bruteforce as brute


def cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def product(a, b):
    m = len(b)
    return [[a[i // m][j // m] * m + b[i % m][j % m] for j in range(len(a) * m)]
            for i in range(len(a) * m)]


S3 = [[0, 1, 2, 3, 4, 5], [1, 2, 0, 5, 3, 4], [2, 0, 1, 4, 5, 3],
      [3, 4, 5, 0, 1, 2], [4, 5, 3, 2, 0, 1], [5, 3, 4, 1, 2, 0]]
GROUPS = {
    "C2": cyclic(2),
    "C3": cyclic(3),
    "C4": cyclic(4),
    "C2^2": product(cyclic(2), cyclic(2)),
    "S3": S3,
    "C2^3": product(product(cyclic(2), cyclic(2)), cyclic(2)),
}


def outcome(build, inp):
    try:
        return build(inp)
    except GroupInputError as exc:
        return str(exc)


def inputs():
    for name, table in GROUPS.items():
        for rank in (1, 2):
            for images in itertools.product(range(len(table)), repeat=rank):
                yield name, FreeAbelExtInput.build(rank, table, images)
    rng = random.Random(20406)
    for name, table in GROUPS.items():
        for _ in range(4):
            yield name, FreeAbelExtInput.build(3, table, [rng.randrange(len(table)) for _ in range(3)])


def test_path_builder_matches_schreier_rewriting():
    built = rejected = 0
    for name, inp in inputs():
        got = outcome(build_free_abelianized_extension, inp)
        assert got == outcome(brute.schreier_build, inp), (name, inp.rank, inp.images)
        if isinstance(got, str):
            rejected += 1
        else:
            built += 1
            assert got.n == len(inp.q_table) * (inp.rank - 1) + 1
    # both outcomes are exercised on every group's worth of inputs
    assert built > 50 and rejected > 50


NON_ASSOC = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]


@pytest.mark.parametrize("rank, table, images, message", [
    (0, cyclic(2), [], "free rank must be at least 1"),
    (2, cyclic(2), [1], "need exactly one image per free generator"),
    (1, cyclic(2), [2], "generator image outside the group"),
    (1, cyclic(2), [-1], "generator image outside the group"),
    (1, cyclic(4), [2], "generator images do not generate the target group"),
    (2, NON_ASSOC, [1, 1], "invalid multiplication table: associativity fails"),
])
def test_rejections_match_schreier_rewriting(rank, table, images, message):
    inp = FreeAbelExtInput.build(rank, table, images)
    with pytest.raises(GroupInputError) as new:
        build_free_abelianized_extension(inp)
    with pytest.raises(GroupInputError) as old:
        brute.schreier_build(inp)
    assert str(new.value) == str(old.value)
    assert str(new.value).startswith(message)
