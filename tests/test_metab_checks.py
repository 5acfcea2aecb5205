"""The exact K(p^n, p^m) torsion and centre checks against the brute force.

``MetabGroup`` decides torsion with one solve per line of (N/p) Z_N^2 in
M's canonical coordinates, and the centre with one rank test.  The
oracles in ``metab_bruteforce`` try every residue with stacked d x 5d
solves; both must give the same answers on every group with N <= 16.
"""

import pytest

from gentorsion.errors import TheoremViolationError
from gentorsion.gentor import SplitMix64
from gentorsion.metab import build_K

import metab_bruteforce as brute

SMALL = ((2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1), (2, 2, 2), (2, 1, 3))


def ring_mul(G, m, v):
    """m * v in the group ring, as a sum of shifted copies of m."""
    out = G._zero
    for i in range(G.qn):
        for j in range(G.qm):
            k = v[i * G.qm + j]
            if k:
                out = G._add(out, G._scale(G._shift(m, i, j), k))
    return out


def nonzero_residues(G):
    return [(a, b) for a in range(G.N) for b in range(G.N) if (a, b) != (0, 0)]


@pytest.mark.parametrize("pnm", SMALL, ids=lambda t: "K:%d,%d,%d" % t)
def test_checks_agree_with_brute_force(pnm):
    G = build_K(*pnm)
    old_torsion = brute.find_torsion(G)
    assert G.is_torsion_free() == (old_torsion == "free")
    assert (G.torsion_witness() is None) == (old_torsion == "free")
    assert G.has_trivial_center() == brute.check_center(G)


def test_torsion_residues_are_one_per_line():
    for pnm in ((2, 1, 1), (3, 1, 1), (5, 1, 1), (2, 2, 2)):
        G = build_K(*pnm)
        residues = G._torsion_residues()
        assert len(residues) == G.p + 1
        s = G.N // G.p
        lines = {frozenset(((k * a) % G.N, (k * b) % G.N) for k in range(1, G.p)) for a, b in residues}
        assert len(lines) == G.p + 1
        covered = set().union(*lines)
        assert covered == {(s * i, s * j) for i in range(G.p) for j in range(G.p)} - {(0, 0)}


@pytest.mark.parametrize("pnm", SMALL, ids=lambda t: "K:%d,%d,%d" % t)
def test_residue_power_agrees_with_affine_power(pnm):
    """m is built directly and c from one cover power; the oracle multiplies
    affine forms step by step.  m must match exactly, c modulo S."""
    G = build_K(*pnm)
    for a, b in nonzero_residues(G):
        m, c = G._residue_power(a, b)
        m_old, c_old = brute.residue_power(G, a, b)
        assert m == m_old, (a, b)
        assert G.module.canonical(c) == G.module.canonical(c_old), (a, b)


@pytest.mark.parametrize("pnm", ((2, 1, 1), (3, 1, 1)), ids=lambda t: "K:%d,%d,%d" % t)
def test_module_solve_agrees_with_stacked_solve(pnm):
    """The solution branch, which no torsion-free K reaches on its own.

    For every residue's power form c^{m v + c}, right-hand sides built as
    -(m w) + (element of S) must be solvable, random ones agree with the
    stacked solve, and every returned v must put m v + c into S.
    """
    G = build_K(*pnm)
    rng = SplitMix64(20406 + G.N)
    srows = brute.relation_columns(G)
    proj = G.module.to_canonical

    def rand_vec(width):
        return tuple(rng.randrange(7) - 3 for _ in range(width))

    for a, b in nonzero_residues(G):
        m, _ = G._residue_power(a, b)
        s = srows.mat_vec(rand_vec(srows.cols))
        seeded = G._add(G._neg(ring_mul(G, m, rand_vec(G.d))), s)
        for c, must_solve in ((seeded, True), (rand_vec(G.d), False)):
            new = G._solve_in_module(m, c)
            old = brute.stacked_solve(G, m, G._neg(c), srows)
            assert (new is None) == (old is None), (a, b, c)
            if must_solve:
                assert new is not None, (a, b, c)
            for v in (new, old):
                if v is not None:
                    assert not any(proj.mat_vec(G._add(ring_mul(G, m, v), c))), (a, b, c, v)


@pytest.mark.parametrize("pnm", ((2, 1, 1), (3, 1, 1)), ids=lambda t: "K:%d,%d,%d" % t)
def test_module_solve_on_random_multipliers(pnm):
    """Sums of one or two signed monomials give both outcomes; both solvers agree."""
    G = build_K(*pnm)
    rng = SplitMix64(7 + G.N)
    srows = brute.relation_columns(G)
    proj = G.module.to_canonical
    outcomes = set()
    for _ in range(40):
        m = G._zero
        for _ in range(1 + rng.randrange(2)):
            mono = G.monomial(rng.randrange(G.qn), rng.randrange(G.qm))
            m = G._add(m, G._scale(mono, 1 - 2 * rng.randrange(2)))
        c = tuple(rng.randrange(7) - 3 for _ in range(G.d))
        new = G._solve_in_module(m, c)
        old = brute.stacked_solve(G, m, G._neg(c), srows)
        assert (new is None) == (old is None), (m, c)
        outcomes.add(new is None)
        if new is not None:
            assert not any(proj.mat_vec(G._add(ring_mul(G, m, new), c))), (m, c, new)
    assert outcomes == {True, False}


def test_center_check_refuses_a_group_with_torsion():
    """The fixed-sublattice argument needs a torsion-free group."""
    G = build_K(2, 1, 1)
    G._torsion = G.collect([("x", 2)])  # pretend the torsion search found this
    with pytest.raises(TheoremViolationError):
        G.has_trivial_center()
