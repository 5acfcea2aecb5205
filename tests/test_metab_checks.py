"""The K(p^n, p^m) build, arithmetic and exact checks against the brute force.

``MetabGroup`` checks on every build that the relation submodule S is
Z norm, keeps one reduced vector per element, decides torsion with one
divisibility test per line of (N/p) Z_N^2 in M's canonical coordinates,
and the centre by the augmentation of the consistency vectors.  The
oracles in ``metab_bruteforce`` multiply unreduced vectors and read
coordinates from the full shift closure of S, and try every residue with
stacked d x 5d solves; both must give the same answers on every group
with N <= 16.  Past that, products and inverses on five groups up to the
cap are compared with the oracle's multiplier, reduced to v_k - v_0,
and the one-pass inverse in the cover with the former body, a product
by x^-a y^-b negated.
The build's g3, g4 and consistency vectors are recollected
letter by letter with the oracle's multiplier on every group with
N <= 64, and on the same groups all four consistency vectors are
recollected in the cover as the power of the conjugate, (t^u)^N, where
the build takes w = 0 or the conjugate of the stated power, (t^N)^u.
The build makes (3 + P(p^m)) + (3 + P(p^n)) + 6 cover operations, P(k)
the products of ``power``.  No K has torsion or a nontrivial centre, so
the other outcome of each check is reached by injection: power relations
x^N or y^N set to p-th powers in M, and relation modules whose centre
answer the oracle's rank test decides.  A relator or conjugated power
relation that collects to a wrong exponent is a theorem violation with
or without ``-O``: the build raises, and no module of the package holds
an ``assert``.  Residue powers taken
in the cover and folded once agree with the group's ``pow`` on every
group with N <= 64, and on all 44 groups with the fold of x^{pa} y^{pb}
that the torsion search makes without a product; every shift getter
reads the rotated indices on all 44 groups, and a queried group is freed
on ``del`` with the cycle collector off.
"""

import ast
import gc
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from gentorsion import intlin, metab
from gentorsion.cli import run
from gentorsion.errors import TheoremViolationError
from gentorsion.gentor import (_UNSET, SplitMix64, conjugate, gen_exponent_bounds,
                               is_generalized_torsion, power, witness_construct)
from gentorsion.intlin import IntMatrix, cokernel_structure
from gentorsion.metab import SIZE_CAP, MetabGroup, _is_prime, build_K

import metab_bruteforce as brute

SMALL = ((2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1), (2, 2, 2), (2, 1, 3))
UP_TO_16 = SMALL + ((2, 3, 1),)
BEYOND_16 = ((2, 2, 4), (2, 4, 4), (13, 1, 1), (2, 1, 7), (2, 7, 1))
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
    """Replace the generators of S."""
    G._relations = tuple(vectors)


def groups_up_to(cap):
    """Every (p, n, m) with n, m >= 1 and N = p^(n+m) <= cap."""
    return [(p, n, s - n) for p in range(2, cap + 1) if _is_prime(p)
            for s in range(2, cap.bit_length()) if p**s <= cap for n in range(1, s)]


def test_every_group_under_the_cap_builds():
    """All 44 K with N <= SIZE_CAP pass the S = Z norm check, and M's
    canonical coordinates are the entries v_k - v_0 that elements store."""
    groups = groups_up_to(SIZE_CAP)
    assert len(groups) == 44
    assert len(groups_up_to(64)) == 20
    rng = SplitMix64(44)
    for pnm in groups:
        G = build_K(*pnm)
        module = brute.norm_module(G)
        assert module.free_rank == G.d - 1
        assert module.invariant_factors == ()
        v = rand_vec(rng, G.d)
        assert G._make(0, 0, tuple(v)).coords == module.canonical(v) == tuple(
            x - v[0] for x in v[1:]), pnm


def test_stated_abelianization_is_the_smith_cokernel():
    """G^ab = C_N x C_N is stated, not eliminated: on all 44 K it equals,
    field by field, the cokernel of diag(N, N) by Smith elimination, and
    reads seeded vectors and coordinates the same way."""
    rng = SplitMix64(22)
    for pnm in groups_up_to(SIZE_CAP):
        G = build_K(*pnm)
        stated = G.abelianization()
        eliminated = cokernel_structure(IntMatrix.diagonal([G.N, G.N]))
        for field in stated._fields:
            assert getattr(stated, field) == getattr(eliminated, field), (pnm, field)
        assert stated.describe() == f"C{G.N} x C{G.N}"
        for _ in range(5):
            v = rand_vec(rng, 2, spread=3 * G.N)
            assert stated.canonical(v) == eliminated.canonical(v), (pnm, v)
            assert stated.order_of(v) == eliminated.order_of(v), (pnm, v)
            assert stated.lift(v) == eliminated.lift(v), (pnm, v)


@pytest.mark.parametrize("pnm", [(2, 1, 1), (3, 1, 1), (2, 4, 4)], ids=group_id)
def test_no_K_structure_query_runs_a_smith_elimination(pnm, monkeypatch):
    """Build, G^ab, bounds, torsion, centre, membership and a witness,
    with every Smith elimination made to raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a K structure query ran a Smith elimination")

    monkeypatch.setattr(intlin, "_smith_eliminate", refuse)
    G = build_K(*pnm)
    assert G.abelianization().invariant_factors == (G.N, G.N)
    assert gen_exponent_bounds(G).upper == G.N
    assert G.is_torsion_free()
    assert G.has_trivial_center()
    g = G.mul(*(h for _, h in G.generators))
    assert is_generalized_torsion(G, g)
    assert witness_construct(G, g, base_word="x*y").length == G.N


@pytest.mark.parametrize("pnm", groups_up_to(64), ids=group_id)
def test_build_vectors_agree_with_letter_by_letter_collection(pnm):
    """g3, g4 and the consistency vectors against a linear product of the
    oracle's ``cover_mul``, which shares no multiplier with the build."""
    G = build_K(*pnm)
    assert (G.g3, G.g4, G._relations) == brute.build_vectors(G)


@pytest.mark.parametrize("pnm", groups_up_to(64), ids=group_id)
def test_consistency_vectors_match_full_collection(pnm):
    """The build takes w = 0 where a generator conjugates its own power
    and (t^N)^u for the mixed vectors; collecting all four (u^-1 t u)^N in
    the cover, u^u included, with the shared ``power`` and ``conjugate``
    gives the same vectors."""
    G = build_K(*pnm)
    z = G._zero
    cover = SimpleNamespace(identity=lambda: (0, 0, z), mul=G._raw_mul, inv=G._raw_inv)
    x, y = (1, 0, z), (0, 1, z)
    vectors = []
    for t, g in ((x, G.g3), (y, G.g4)):
        for u in (x, y):
            a, b, w = power(cover, conjugate(cover, t, u), G.N)
            assert (a, b) == (t[0] * G.N, t[1] * G.N)
            if u is t:
                assert tuple(w) == z
            vectors.append(G._add(G._add(g, w), G._neg(G._shift(g, u[0], u[1]))))
    assert tuple(vectors) == G._relations


def cover_products(k: int) -> int:
    """The products ``power`` makes for k >= 1."""
    return k.bit_length() - 2 + bin(k).count("1")


@pytest.mark.parametrize("pnm", groups_up_to(64), ids=group_id)
def test_build_makes_the_fewest_cover_operations(monkeypatch, pnm):
    """Each relator is one inverse, two products and a power of their
    product, 3 + P(steps), its last factor stated; each mixed consistency
    vector is one conjugation of a stated power, 3."""
    ops = []

    def counting(method):
        def counted(*args):
            ops.append(method)
            return method(*args)
        return counted

    monkeypatch.setattr(MetabGroup, "_raw_mul", counting(MetabGroup._raw_mul))
    monkeypatch.setattr(MetabGroup, "_raw_inv", counting(MetabGroup._raw_inv))
    G = build_K(*pnm)
    want = (3 + cover_products(G.qm)) + (3 + cover_products(G.qn)) + 6
    assert len(ops) == {(2, 1, 1): 14, (2, 1, 2): 15}.get(pnm, want) == want


@pytest.mark.parametrize("call", range(8))
@pytest.mark.parametrize("pnm", ((2, 1, 1), (3, 1, 1)), ids=group_id)
def test_build_rejects_a_relator_with_a_wrong_exponent(monkeypatch, pnm, call):
    """The build's collection steps are one ``power`` for each relator
    and one ``conjugate`` for each mixed consistency vector; the x-exponent
    (call < 4) or the y-exponent (call >= 4) off by one in step call % 4
    is a theorem violation, not an ``assert`` that ``-O`` strips."""
    steps = []

    def injecting(step):
        def off_by_one(*args):
            out = list(step(*args))
            steps.append(step)
            if len(steps) == call % 4 + 1:
                out[call // 4] += 1
            return tuple(out)
        return off_by_one

    monkeypatch.setattr(metab, "power", injecting(power))
    monkeypatch.setattr(metab, "conjugate", injecting(conjugate))
    with pytest.raises(TheoremViolationError, match="collects to"):
        build_K(*pnm)
    assert len(steps) == call % 4 + 1
    assert steps.count(power) == min(call % 4 + 1, 2)


def test_package_has_no_assert_statement():
    """Checks in the package raise, so ``python -O`` keeps them."""
    package = Path(metab.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, (path.name, lines)


def _not_a_multiple(G, vectors):
    return (G._add(vectors[0], G.monomial(1, 0)),) + vectors[1:]


@pytest.mark.parametrize("tamper", [
    _not_a_multiple,
    lambda G, vectors: tuple(G._scale(v, G.p) for v in vectors),
    lambda G, vectors: tuple(G._zero for _ in vectors),
], ids=["not-constant", "gcd-p", "zero"])
@pytest.mark.parametrize("pnm", ((2, 1, 1), (3, 1, 1)), ids=group_id)
def test_build_rejects_relations_other_than_z_norm(monkeypatch, pnm, tamper):
    """A consistency vector off the norm line, or multiples of gcd p or 0
    (M with torsion, or norm outside S), is a theorem violation."""
    collect = MetabGroup._consistency_vectors
    monkeypatch.setattr(MetabGroup, "_consistency_vectors",
                        lambda G, cover: tamper(G, collect(G, cover)))
    with pytest.raises(TheoremViolationError):
        build_K(*pnm)


@pytest.mark.parametrize("pnm", UP_TO_16, ids=group_id)
def test_norm_is_the_all_ones_vector(pnm):
    """The build compares the consistency vectors with multiples of
    (1,) * d, which is the norm Psi_{p^n}(X) Psi_{p^m}(Y)."""
    G = build_K(*pnm)
    assert brute.psi_product(G, G.qn, G.qm) == (1,) * G.d


def test_cli_exits_3_when_the_relations_are_not_z_norm(monkeypatch, capsys):
    collect = MetabGroup._consistency_vectors
    monkeypatch.setattr(MetabGroup, "_consistency_vectors",
                        lambda G, cover: _not_a_multiple(G, collect(G, cover)))
    assert run(["info", "K:2,1,1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal invariant violation:" in captured.err


@pytest.mark.parametrize("pnm", UP_TO_16, ids=group_id)
def test_arithmetic_agrees_with_unreduced_oracle(pnm):
    """Products and inverses of seeded normal forms against the unreduced
    arithmetic, with coordinates read from the full closure of S."""
    G = build_K(*pnm)
    raw = brute.RawK(G)
    rng = SplitMix64(7 + seed_of(pnm))

    def draw():
        return (rng.randrange(G.N), rng.randrange(G.N), rand_vec(rng, G.d))

    for _ in range(40):
        g, h = draw(), draw()
        assert G._make(*g).coords == raw.coords(g)
        for want, got in ((raw.mul(g, h), G.mul(G._make(*g), G._make(*h))),
                          (raw.inv(g), G.inv(G._make(*g)))):
            assert (got.alpha, got.beta, got.coords) == (want[0], want[1], raw.coords(want))


@pytest.mark.parametrize("pnm", BEYOND_16, ids=group_id)
def test_arithmetic_beyond_16_agrees_with_affine_oracle(pnm):
    """Products and inverses against the oracle's ``affine_mul``, past the
    Smith form of the closure: its constant part is reduced to v_k - v_0,
    which is M's canonical form because the build checked S = Z norm.

    Every product carries the master identity's correction (a2 b1 != 0),
    and the draws cover folding x (alpha1 + alpha2 >= N), folding y
    (beta1 + beta2 >= N), both and neither.
    """
    G = build_K(*pnm)
    N = G.N
    rng = SplitMix64(9 + seed_of(pnm))

    def exponents(fold):
        """(e1, e2) in [1, N)^2, with e1 + e2 >= N exactly when fold."""
        if fold:
            e1 = 1 + rng.randrange(N - 1)
            return e1, N - e1 + rng.randrange(e1)
        e1 = 1 + rng.randrange(N - 2)
        return e1, 1 + rng.randrange(N - 1 - e1)

    for i in range(32):
        fold_x, fold_y = bool(i % 2), bool(i // 2 % 2)
        (a1, a2), (b1, b2) = exponents(fold_x), exponents(fold_y)
        g, h = (a1, b1, rand_vec(rng, G.d)), (a2, b2, rand_vec(rng, G.d))
        assert a2 * b1 != 0 and (a1 + a2 >= N, b1 + b2 >= N) == (fold_x, fold_y)
        for want, got in ((brute.raw_mul(G, g, h), G.mul(G._make(*g), G._make(*h))),
                          (brute.raw_inv(G, g), G.inv(G._make(*g)))):
            assert (got.alpha, got.beta, got.coords) == (want[0], want[1],
                                                         brute.norm_coords(want[2]))


@pytest.mark.parametrize("pnm", BEYOND_16, ids=group_id)
def test_inverse_in_one_pass_agrees_with_oracle(pnm):
    """``_raw_inv`` shifts and negates v in one pass and subtracts it from
    the master identity's correction only when a b != 0.  In the cover it
    equals the former body, g (x^-a y^-b) negated, for exponents of every
    sign and size, a or b zero included; ``inv`` of a normal form agrees
    with the oracle's letter-by-letter inverse on each of the four cases
    a = 0 or not, b = 0 or not.
    """
    G = build_K(*pnm)
    N = G.N
    rng = SplitMix64(11 + seed_of(pnm))
    for i in range(32):
        keep_a, keep_b = bool(i % 2), bool(i // 2 % 2)
        a = (rng.randrange(4 * N) - 2 * N) * keep_a
        b = (rng.randrange(4 * N) - 2 * N) * keep_b
        v = rand_vec(rng, G.d)
        _, _, w = G._raw_mul((a, b, v), (-a, -b, G._zero))
        assert G._raw_inv((a, b, v)) == (-a, -b, [-x for x in w])
        alpha, beta = (1 + rng.randrange(N - 1)) * keep_a, (1 + rng.randrange(N - 1)) * keep_b
        want = brute.raw_inv(G, (alpha, beta, v))
        got = G.inv(G._make(alpha, beta, v))
        assert (got.alpha, got.beta, got.coords) == (want[0], want[1], brute.norm_coords(want[2]))


oracle_settings = settings(derandomize=True, deadline=None, max_examples=25)
letters = st.lists(st.integers(0, 3), max_size=12)


@pytest.mark.parametrize("pnm", UP_TO_16, ids=group_id)
def test_words_agree_with_unreduced_oracle(pnm):
    """Words in x, y and their inverses, multiplied out by both arithmetics:
    the product of two words and its inverse have the same normal form."""
    G = build_K(*pnm)
    raw = brute.RawK(G)
    raw_gens = [(1, 0, G._zero), (0, 1, G._zero)]
    raw_gens += [raw.inv(g) for g in raw_gens]
    gens = [e for _, e in G.generators]
    gens += [G.inv(e) for e in gens]

    def both(word):
        h, g = (0, 0, G._zero), G.identity()
        for i in word:
            h, g = raw.mul(h, raw_gens[i]), G.mul(g, gens[i])
        return h, g

    @oracle_settings
    @given(letters, letters)
    def check(u, w):
        (hu, gu), (hw, gw) = both(u), both(w)
        for want, got in ((raw.mul(hu, hw), G.mul(gu, gw)),
                          (raw.inv(raw.mul(hu, hw)), G.inv(G.mul(gu, gw)))):
            assert (got.alpha, got.beta, got.coords) == (want[0], want[1], raw.coords(want))

    check()


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


def test_shift_getters_read_the_rotated_indices():
    """On all 44 groups the getter of X^a Y^b, a rotation of the a = 0
    getter, reads entry i * qm + j from ((i - a) % qn) * qm + (j - b) % qm."""
    for pnm in groups_up_to(SIZE_CAP):
        G = build_K(*pnm)
        qn, qm = G.qn, G.qm
        indices = tuple(range(G.d))
        for a in range(qn):
            for b in range(qm):
                want = tuple(((i - a) % qn) * qm + (j - b) % qm
                             for i in range(qn) for j in range(qm))
                assert G._shifts[a * qm + b](indices) == want, (pnm, a, b)


@pytest.mark.parametrize("pnm", groups_up_to(64), ids=group_id)
def test_residue_power_in_the_cover_agrees_with_group_power(pnm):
    """Each line residue powered in the cover and folded once agrees with
    the group's ``pow``, which folds after every product."""
    G = build_K(*pnm)
    z = G._zero
    cover = SimpleNamespace(identity=lambda: (0, 0, z), mul=G._raw_mul, inv=G._raw_inv)
    for a, b in G._torsion_residues():
        assert G._make(*power(cover, (a, b, z), G.p)) == line_power(G, a, b), (a, b)


@pytest.mark.parametrize("pnm", groups_up_to(SIZE_CAP), ids=group_id)
def test_residue_power_is_the_fold_of_its_exponents(pnm, monkeypatch):
    """(x^a y^b)^p in the cover is x^{pa} y^{pb} up to a multiple of the
    norm, so folding x^{pa} y^{pb} gives it; the torsion search then makes
    no product, in the cover or in the group."""
    G = build_K(*pnm)
    cover, z = G._cover(), G._zero
    for a, b in G._torsion_residues():
        assert G._make(G.p * a, G.p * b, z) == G._make(*power(cover, (a, b, z), G.p)), (a, b)

    def refuse(*args):
        raise AssertionError("the torsion search made a product")

    monkeypatch.setattr(metab, "power", refuse)
    monkeypatch.setattr(MetabGroup, "_raw_mul", refuse)
    assert G._find_torsion() is None


@pytest.mark.parametrize("pnm", [(2, 1, 1), (3, 1, 1), (2, 4, 4)], ids=group_id)
def test_queried_group_is_freed_without_the_cycle_collector(pnm):
    """The build makes its cover per call, so a group holds no reference
    cycle and reference counting frees it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        G = build_K(*pnm)
        assert G.abelianization().invariant_factors == (G.N, G.N)
        assert gen_exponent_bounds(G).upper == G.N
        assert G.is_torsion_free()
        assert G.has_trivial_center()
        ref = weakref.ref(G)
        del G
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


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
        assert brute.norm_module(G).canonical(c) == line_power(G, a, b).coords, (a, b)


@pytest.mark.parametrize("pnm", SMALL, ids=group_id)
def test_line_residue_power_is_p_w_plus_c(pnm):
    """(x^a y^b c^v)^p = c^{p v + c} in canonical coordinates, for seeded v."""
    G = build_K(*pnm)
    module = brute.norm_module(G)
    rng = SplitMix64(31 + seed_of(pnm))
    for a, b in G._torsion_residues():
        c = line_power(G, a, b).coords
        for _ in range(4):
            w = rand_vec(rng, module.free_rank)
            got = G.pow(G._make(a, b, module.lift(w)), G.p).coords
            assert got == tuple(G.p * x + y for x, y in zip(w, c)), (a, b, w)


@pytest.mark.parametrize("pnm", INJECTED + ((5, 1, 1),), ids=group_id)
def test_injected_torsion_has_a_witness(pnm):
    """Setting g3, g4 or both to p u after the build makes x^N = c^{p u}
    (or y^N) a p-th power in M, so some line residue has a witness.

    The witness found must have order p, and over the draws it must occur
    both at residues with a = 0 and with a != 0.
    """
    rng = SplitMix64(505 + seed_of(pnm))
    kinds = set()
    for _ in range(12):
        G = build_K(*pnm)
        which = rng.randrange(3)
        if which != 1:
            G.g3 = G._scale(rand_vec(rng, G.d), G.p)
        if which != 0:
            G.g4 = G._scale(rand_vec(rng, G.d), G.p)
        G._torsion = _UNSET
        w = G.torsion_witness()
        assert w is not None, which
        assert w != G.identity() and G.pow(w, G.p) == G.identity(), which
        assert not G.is_torsion_free()
        kinds.add(w.alpha == 0)
    assert kinds == {True, False}


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
        if brute.closure_module(G).invariant_factors:
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
