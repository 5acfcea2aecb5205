"""Exact integer linear algebra: frozen examples, randomized oracles and properties."""

import hashlib
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from gentorsion.intlin import (
    AbelianStructure,
    _smith_eliminate,
    DimensionError,
    IntMatrix,
    cokernel_structure,
    element_order_in_cokernel,
    hermite_normal_form,
    smith_normal_form,
    solve_integer_linear,
    unimodular_inverse,
    xgcd,
)
from gentorsion.gentor import SplitMix64


def rand_matrix(rng, rows, cols, span=20):
    return IntMatrix(
        [[rng.randrange(2 * span + 1) - span for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def test_xgcd_examples():
    for a, b in [(12, 18), (-12, 18), (0, 5), (7, 0), (0, 0), (-4, -6)]:
        g, s, t = xgcd(a, b)
        assert g == gcd(a, b)
        assert s * a + t * b == g


def test_matrix_construction_errors():
    with pytest.raises(DimensionError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(DimensionError):
        IntMatrix([])
    empty = IntMatrix([], cols=3)
    assert empty.rows == 0 and empty.cols == 3


@pytest.mark.parametrize("value", [1.9, 1.0, "1", True], ids=repr)
def test_entry_points_refuse_non_integers(value):
    """Every public entry point that takes integers raises TypeError on a
    float, a str or a bool, as ``IntMatrix(data)`` does, instead of
    truncating it with ``int``."""
    structure = cokernel_structure(IntMatrix([[4]]))
    for call in (lambda: IntMatrix([[value]]),
                 lambda: solve_integer_linear(IntMatrix([[1]]), [value]),
                 lambda: IntMatrix.diagonal([value, 3]),
                 lambda: structure.lift([value])):
        with pytest.raises(TypeError):
            call()
    assert solve_integer_linear(IntMatrix([[1]]), [2]) == (2,)
    assert IntMatrix.diagonal([2, 3]).to_lists() == [[2, 0], [0, 3]]
    assert structure.canonical(structure.lift([3])) == (3,)


def test_matrix_ops():
    m = IntMatrix([[1, 2], [3, 4]])
    assert (m @ IntMatrix.identity(2)) == m
    assert m.mat_vec((1, 1)) == (3, 7)
    assert m.transpose().to_lists() == [[1, 3], [2, 4]]
    assert m.det() == -2
    assert not m.is_unimodular()
    assert IntMatrix([[2, 1], [1, 1]]).is_unimodular()


def test_hnf_identity_and_zero():
    h, u = hermite_normal_form(IntMatrix.identity(3))
    assert h == IntMatrix.identity(3)
    assert u == IntMatrix.identity(3)
    z = IntMatrix.zeros(2, 3)
    h, u = hermite_normal_form(z)
    assert h == z
    assert u == IntMatrix.identity(2)


def test_hnf_frozen_example():
    m = IntMatrix([[2, 4], [6, 8]])
    h, u = hermite_normal_form(m)
    assert u @ m == h
    assert u.is_unimodular()
    assert h.to_lists() == [[2, 0], [0, 4]]


def test_snf_frozen_examples():
    assert smith_normal_form(IntMatrix.identity(2)).diagonal() == (1, 1)
    assert smith_normal_form(IntMatrix([[0]])).diagonal() == (0,)
    d = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    assert d.diagonal() == (2, 4)
    assert d.satisfies(IntMatrix([[2, 4], [6, 8]]))


def test_snf_equal_entry_regression():
    # row and column passes used to cycle when an entry equals the pivot
    m = IntMatrix([[2, 0], [2, 2], [0, 2]])
    d = smith_normal_form(m)
    assert d.satisfies(m)
    assert d.diagonal() == (2, 2)


def test_solve_examples():
    assert solve_integer_linear(IntMatrix.identity(3), (4, -1, 0)) == (4, -1, 0)
    assert solve_integer_linear(IntMatrix([[2]]), (3,)) is None
    x = solve_integer_linear(IntMatrix([[2, 3]]), (1,))
    assert x is not None
    assert 2 * x[0] + 3 * x[1] == 1
    with pytest.raises(DimensionError):
        solve_integer_linear(IntMatrix([[1, 2]]), (1, 2))


def test_inconsistent_system_has_no_solution():
    """x = 1 and x = 2: a nonzero entry of U b on a zero row of D."""
    assert solve_integer_linear(IntMatrix([[1], [1]]), (1, 2)) is None
    assert solve_integer_linear(IntMatrix([[1], [1]]), (2, 2)) == (2,)


def test_unimodular_inverse():
    m = IntMatrix([[2, 1], [1, 1]])
    assert unimodular_inverse(m) @ m == IntMatrix.identity(2)
    with pytest.raises(DimensionError):
        unimodular_inverse(IntMatrix([[2, 0], [0, 1]]))


def test_cokernel_examples():
    free = cokernel_structure(IntMatrix([], cols=2))
    assert free.invariant_factors == () and free.free_rank == 2

    promislow_ab = cokernel_structure(IntMatrix([[4, 0], [0, 4]]))
    assert promislow_ab.invariant_factors == (4, 4)
    assert promislow_ab.free_rank == 0
    assert promislow_ab.exponent() == 4
    assert promislow_ab.order() == 16
    assert promislow_ab.describe() == "C4 x C4"

    klein_ab = cokernel_structure(IntMatrix([[2, -2]]))
    assert klein_ab.invariant_factors == (2,)
    assert klein_ab.free_rank == 1
    assert klein_ab.order() is None
    with pytest.raises(DimensionError):
        klein_ab.exponent()


def test_element_orders():
    s = cokernel_structure(IntMatrix([[4, 0], [0, 4]]))
    assert element_order_in_cokernel(s, (0, 0)) == 1
    assert element_order_in_cokernel(s, (1, 0)) == 4
    assert element_order_in_cokernel(s, (2, 2)) == 2
    free = cokernel_structure(IntMatrix([[2, 0]]))
    assert free.free_rank == 1
    hit = next(v for v in [(0, 1), (1, 0)] if element_order_in_cokernel(free, v) is None)
    assert element_order_in_cokernel(free, hit) is None
    with pytest.raises(DimensionError):
        element_order_in_cokernel(s, (1, 2, 3))


def test_canonical_and_lift_roundtrip():
    s = cokernel_structure(IntMatrix([[6, 0, 0], [0, 10, 0]]))
    rng = SplitMix64(31)
    for _ in range(50):
        v = tuple(rng.randrange(41) - 20 for _ in range(3))
        coords = s.canonical(v)
        lifted = s.lift(coords)
        assert s.canonical(lifted) == coords


def test_lift_inverse_is_kept_per_structure():
    """Lifting caches the inverse transform neither globally nor on the structure."""
    assert not hasattr(unimodular_inverse, "cache_info")
    rel = IntMatrix([[2, 4, 4], [-6, 6, 12], [4, 8, 8]])
    s, t = cokernel_structure(rel), cokernel_structure(rel)
    assert s == t and s.transform is not t.transform
    assert s.invariant_factors and s.free_rank
    rng = SplitMix64(8)
    for _ in range(20):
        coords = tuple(rng.randrange(31) - 15 for _ in s.selected)
        reduced = tuple(x % d if d else x for x, d in zip(coords, s.moduli))
        assert s.canonical(s.lift(coords)) == reduced
    assert not hasattr(s, "__dict__")


def _minor_gcd(m, k):
    g = 0
    for rows in combinations(range(m.rows), k):
        for cols in combinations(range(m.cols), k):
            g = gcd(g, m.submatrix(rows, cols).det())
    return g


def test_normal_forms_random_oracle():
    """SNF and HNF on 100 random matrices against the gcd-of-minors oracle."""
    rng = SplitMix64(20406)
    for trial in range(100):
        rows = 1 + rng.randrange(6)
        cols = 1 + rng.randrange(6)
        m = rand_matrix(rng, rows, cols)

        h, u = hermite_normal_form(m)
        assert u @ m == h
        assert abs(u.det()) == 1

        snf = smith_normal_form(m)
        assert snf.satisfies(m)
        assert abs(snf.U.det()) == 1
        assert abs(snf.V.det()) == 1
        diag = snf.diagonal()
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0

        prod = 1
        for k in range(1, min(rows, cols) + 1):
            prod *= diag[k - 1]
            assert prod == _minor_gcd(m, k)


# Digests of (U, D, V) on seeded matrices, recorded from the elimination
# that scanned the whole working submatrix for every pivot and swept it for
# divisibility under every pivot.  Stopping the scan at the first unit and
# skipping the sweep under a unit pivot must leave all three unchanged.
PINNED_ELIMINATIONS = {
    "units": ((-2, -1, -1, 0, 0, 0, 1, 1, 2), "f73faf65a7e6cae8"),
    "no units": ((-6, -4, -3, -2, 0, 0, 0, 2, 3, 4, 6), "9a303417ae359101"),
    "sparse": ((0,) * 9 + (1, -1, 1, -1, 2, 3, -5), "acbdd11f9266f287"),
}
PINNED_SHAPES = [(r, c) for r in (1, 2, 3, 5, 8) for c in (1, 2, 4, 7)] + [
    (12, 4), (4, 12), (10, 10)]


@pytest.mark.parametrize("family", PINNED_ELIMINATIONS)
def test_elimination_is_pinned(family):
    entries, digest = PINNED_ELIMINATIONS[family]
    rng = SplitMix64(len(family))
    h = hashlib.sha256()
    for rows, cols in PINNED_SHAPES:
        m = IntMatrix([[entries[rng.randrange(len(entries))] for _ in range(cols)]
                       for _ in range(rows)], cols=cols)
        snf = smith_normal_form(m)
        u, d, v = _smith_eliminate(m, track_v=False)
        assert (u, d, v) == (snf.U.to_lists(), snf.D.to_lists(), None)
        h.update(repr((snf.U, snf.D, snf.V)).encode())
    assert h.hexdigest()[:16] == digest


def test_solver_random():
    rng = SplitMix64(77)
    for _ in range(50):
        rows = 1 + rng.randrange(4)
        cols = 1 + rng.randrange(4)
        m = rand_matrix(rng, rows, cols, span=6)
        x = tuple(rng.randrange(9) - 4 for _ in range(cols))
        b = m.mat_vec(x)
        y = solve_integer_linear(m, b)
        assert y is not None
        assert m.mat_vec(y) == b


def test_order_consistency_with_solver():
    # order k means k*v is in the row space and j*v is not for proper divisors j
    rel = IntMatrix([[4, 0, 0], [0, 6, 0]])
    s = cokernel_structure(rel)
    rng = SplitMix64(5)
    rel_t = rel.transpose()
    for _ in range(30):
        v = tuple(rng.randrange(13) - 6 for _ in range(3))
        k = element_order_in_cokernel(s, v)
        if k is None:
            continue
        assert solve_integer_linear(rel_t, tuple(k * x for x in v)) is not None
        for j in range(1, k):
            if k % j == 0:
                assert solve_integer_linear(rel_t, tuple(j * x for x in v)) is None


def test_abelian_structure_is_frozen():
    s = cokernel_structure(IntMatrix([[2, 0]]))
    assert isinstance(s, AbelianStructure)
    with pytest.raises(AttributeError):
        s.free_rank = 5


# -- properties on small random matrices, empty shapes included -------------

prop_settings = settings(derandomize=True, deadline=None, max_examples=80)


@st.composite
def matrices(draw, max_side=5, span=12):
    rows = draw(st.integers(0, max_side))
    cols = draw(st.integers(0, max_side))
    entry = st.integers(-span, span)
    data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return IntMatrix(data, cols=cols)


def assert_int_matrix(m, rows, cols):
    assert (m.rows, m.cols) == (rows, cols)
    for i in range(m.rows):
        row = m.row(i)
        assert type(row) is tuple and len(row) == cols
        assert all(type(x) is int for x in row)


@prop_settings
@given(matrices())
def test_transpose_property(m):
    t = m.transpose()
    assert_int_matrix(t, m.cols, m.rows)
    assert t.transpose() == m
    assert all(t[j, i] == m[i, j] for i in range(m.rows) for j in range(m.cols))


@prop_settings
@given(matrices())
def test_hnf_property(m):
    h, u = hermite_normal_form(m)
    assert_int_matrix(h, m.rows, m.cols)
    assert_int_matrix(u, m.rows, m.rows)
    assert u @ m == h


@prop_settings
@given(matrices())
def test_snf_property(m):
    snf = smith_normal_form(m)
    assert_int_matrix(snf.U, m.rows, m.rows)
    assert_int_matrix(snf.D, m.rows, m.cols)
    assert_int_matrix(snf.V, m.cols, m.cols)
    assert snf.U @ m @ snf.V == snf.D
    assert all(snf.D[i, j] == 0 for i in range(m.rows) for j in range(m.cols) if i != j)
    diag = snf.diagonal()
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert (b % a == 0) if a else b == 0


@prop_settings
@given(matrices())
def test_cokernel_agrees_with_snf_property(m):
    s = cokernel_structure(m)
    snf = smith_normal_form(m.transpose())
    diag = snf.diagonal()
    assert s.invariant_factors == tuple(d for d in diag if d > 1)
    assert s.free_rank == m.cols - sum(1 for d in diag if d)
    assert s.transform == snf.U
    assert_int_matrix(s.transform, m.cols, m.cols)
    assert_int_matrix(s.to_canonical, len(s.selected), m.cols)
