"""The exact K(p^n, p^m) torsion and centre checks against the brute force.

``MetabGroup`` decides torsion with one divisibility test per line of
(N/p) Z_N^2 in M's canonical coordinates, and the centre by the
augmentation of the consistency vectors.  The oracles in
``metab_bruteforce`` try every residue with stacked d x 5d solves; both
must give the same answers on every group with N <= 16.  No K has torsion
or a nontrivial centre, so the other outcome of each check is reached by
injecting relations into S: torsion at a chosen line residue, and relation
modules whose centre answer the oracle's rank test decides.
"""

import pytest

from gentorsion.errors import TheoremViolationError
from gentorsion.gentor import SplitMix64
from gentorsion.intlin import cokernel_structure
from gentorsion.metab import build_K

import metab_bruteforce as brute

SMALL = ((2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1), (2, 2, 2), (2, 1, 3))
INJECTED = ((2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1))
SHIFTED = ((2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1))


def group_id(pnm):
    return "K:%d,%d,%d" % pnm


def seed_of(pnm):
    p, n, m = pnm
    return 100 * p + 10 * n + m


def rand_vec(rng, width, spread=3):
    return tuple(rng.randrange(2 * spread + 1) - spread for _ in range(width))


def line_power(G, a, b):
    """(x^a y^b)^p as an element; its coords are the c of (x^a y^b c^v)^p = c^{p v + c}."""
    return G.pow(G._make(a, b, G._zero), G.p)


def set_relations(G, vectors):
    """Replace the generators of S and rebuild M from their shift closure."""
    G._relations = tuple(vectors)
    G.module = cokernel_structure(G._consistency_rows())


@pytest.mark.parametrize("pnm", SHIFTED, ids=group_id)
def test_shift_table_agrees_with_double_loop(pnm):
    """The table-driven shift against the old double loop, for every
    exponent pair with a in [-2 p^n, 2 p^n) and b in [-2 p^m, 2 p^m).
    The vector of distinct entries pins the whole permutation."""
    G = build_K(*pnm)
    rng = SplitMix64(3 + seed_of(pnm))
    vectors = (tuple(range(G.d)), rand_vec(rng, G.d), rand_vec(rng, G.d, spread=50))
    for a in range(-2 * G.qn, 2 * G.qn):
        for b in range(-2 * G.qm, 2 * G.qm):
            for v in vectors:
                assert G._shift(v, a, b) == brute.shift(G, v, a, b), (a, b, v)


@pytest.mark.parametrize("pnm", SMALL, ids=group_id)
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


@pytest.mark.parametrize("pnm", SMALL, ids=group_id)
def test_residue_power_agrees_with_affine_power(pnm):
    """On a line residue x^a y^b acts trivially on M: the oracle's affine
    power has m = p * 1 exactly, and its c is the library's power modulo S."""
    G = build_K(*pnm)
    for a, b in G._torsion_residues():
        m, c = brute.residue_power(G, a, b)
        assert m == G._scale(G.monomial(0, 0), G.p), (a, b)
        assert G.module.canonical(c) == line_power(G, a, b).coords, (a, b)


@pytest.mark.parametrize("pnm", SMALL, ids=group_id)
def test_line_residue_power_is_p_w_plus_c(pnm):
    """(x^a y^b c^v)^p = c^{p v + c} in canonical coordinates, for seeded v."""
    G = build_K(*pnm)
    rng = SplitMix64(31 + seed_of(pnm))
    for a, b in G._torsion_residues():
        c = line_power(G, a, b).coords
        for _ in range(4):
            w = rand_vec(rng, G.module.free_rank)
            got = G.pow(G._make(a, b, G.module.lift(w)), G.p).coords
            assert got == tuple(G.p * x + y for x, y in zip(w, c)), (a, b, w)


@pytest.mark.parametrize("pnm", INJECTED, ids=group_id)
def test_injected_torsion_has_a_witness(pnm):
    """Adding c + p u to S gives x^a y^b c^u order p at a chosen line residue.

    M then has torsion, and the divisibility test is exact when p divides
    every invariant factor (p v_i + c_i = 0 mod d_i is solvable iff p
    divides c_i), so only those draws are kept.  The witness found, at this
    residue or an earlier one, must have order p.
    """
    rng = SplitMix64(505 + seed_of(pnm))
    injected_kinds = set()
    kept = 0
    for _ in range(30):
        G = build_K(*pnm)
        residues = G._torsion_residues()
        a, b = residues[rng.randrange(len(residues))]
        c = line_power(G, a, b).raw
        u = rand_vec(rng, G.d)
        set_relations(G, G._relations + (G._add(c, G._scale(u, G.p)),))
        if any(f % G.p for f in G.module.invariant_factors):
            continue
        kept += 1
        assert G.pow(G._make(a, b, u), G.p) == G.identity()
        w = G.torsion_witness()
        assert w is not None, (a, b, u)
        assert w != G.identity() and G.pow(w, G.p) == G.identity(), (a, b, u)
        assert not G.is_torsion_free()
        injected_kinds.add(a == 0)
    assert kept >= 10
    assert injected_kinds == {True, False}


@pytest.mark.parametrize("pnm", INJECTED, ids=group_id)
def test_center_agrees_with_rank_test_on_injected_relations(pnm):
    """The augmentation test against the rank test on seeded relation modules.

    Half the vectors are v - X^i Y^j v, of augmentation 0, so both answers
    occur.  Only torsion-free modules are kept, where the rank test is
    exact.  The injected S need not come from a presentation, so the
    torsion precondition is taken as answered.
    """
    rng = SplitMix64(77 + seed_of(pnm))
    outcomes = set()
    for _ in range(60):
        G = build_K(*pnm)
        vectors = []
        for _ in range(1 + rng.randrange(3)):
            v = rand_vec(rng, G.d, spread=1)
            if rng.randrange(2):
                v = G._add(v, G._neg(G._shift(v, rng.randrange(G.qn), rng.randrange(G.qm))))
            vectors.append(v)
        set_relations(G, vectors)
        if G.module.invariant_factors:
            continue
        G._torsion = None
        trivial = G.has_trivial_center()
        assert trivial == brute.center_rank_test(G), vectors
        outcomes.add(trivial)
    assert outcomes == {True, False}


def test_center_check_refuses_a_group_with_torsion():
    """The fixed-sublattice argument needs a torsion-free group."""
    G = build_K(2, 1, 1)
    G._torsion = G.collect([("x", 2)])  # pretend the torsion search found this
    with pytest.raises(TheoremViolationError):
        G.has_trivial_center()
