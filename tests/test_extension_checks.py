"""Extension checks on a generating set of Q against the full checks.

``validate_extension``, ``abelianization_relations`` and
``ExtensionGroup.center_rank`` quantify over a generating set S of the
point group (``point_generating_set``).  ``extension_bruteforce`` keeps the
former checks over every pair and triple; both must accept the same specs,
give the same G^ab on catalog specs and products up to |Q| = 16, and agree
on ``ok`` when one entry of a catalog spec is corrupted.  The centre rank,
read off G^ab with no elimination of its own, must equal the oracle's
rank of the fixed sublattice on those specs, on the wreaths of C2, C3,
C4, C2^2 and S3, and on every rank-1 and rank-2 free abelianized
extension over them.  G^ab is compared through orders only, each side
reading its own presentation, so neither column layout is pinned.  The library's
failure lines are the oracle's lines whose last index lies in S, in the
oracle's order.  ``build_wreath`` and ``build_free_abelianized_extension``
check their table alone before building; each rejects exactly the
single-entry corruptions of a small group table whose regular
representation spec the full checks reject.

``ExtensionGroup.mul``/``inv`` run on the gather layers of phi and the
point inverses stored at build; they must give the elements the product
and inverse formulas give through ``IntMatrix.mat_vec``
(``brute.formula_mul``/``formula_inv``) on every spec above, on
promislow^3, on a finite C2 spec with n = 0, on a p6 group whose rows
are not signed permutations and on freeabext of rank 6 over C2, whose
phi(1) has one dense row.  The phi of the named catalog groups are one
layer each and p6's take two.  Validation applies phi(s) in its sparse
form (``_sparse``) with ``_times``, to the rows of phi(q) for the
anti-homomorphism and to the distinct factor-set vectors for the
cocycle; ``_times`` must give the rows of ``@`` and the columns of
``mat_vec`` on every pair of phi, reading one row of M per nonzero
entry of phi(s).  Corrupting p6, freeabext C3, the dense-row freeabext
and promislow in a dense basis (``brute.conjugated``) runs that check on
rows with several entries.

A valid spec takes no determinant and finds S once; a zero phi(q), the
n = 0 spec and the 14 distinct factor-set vectors of freeabext S3 are
judged as the full checks judge them.  ``build_wreath`` and
``direct_product`` build from checked ints, and must give the specs
``ExtensionSpec.build`` gives on the same lists.  A seeded change of
lattice basis leaves validation and every ``info`` answer unchanged.
Malformed shapes (the table against q_size, the count and size of phi,
the factor set's array and vectors, the generators' indices and vectors)
get the oracle's lines, and as JSON exit 2 from ``validate`` and ``info``.
A wreath table above ``WREATH_CAP`` is refused before its table check.
Every extension group the CLI resolves is validated exactly once.
"""

import json
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from gentorsion.catalog import (
    FreeAbelExtInput,
    build_dihedral_infinite,
    build_free_abelianized_extension,
    build_klein_bottle,
    build_promislow,
    build_wreath,
)
from gentorsion import catalog, extgroup, gentor
from gentorsion.cli import resolve_group, run
from gentorsion.errors import GroupInputError
from gentorsion.extgroup import (
    ExtElement,
    ExtensionGroup,
    ExtensionSpec,
    abelianization_relations,
    direct_product,
    point_generating_set,
    spec_from_dict,
    spec_to_dict,
    validate_extension,
    _rows,
    _sparse,
    _times,
)
from gentorsion import intlin
from gentorsion.gentor import SplitMix64, random_word_element
from gentorsion.intlin import IntMatrix, cokernel_structure, unimodular_inverse

import extension_bruteforce as brute

C2 = [[0, 1], [1, 0]]
C3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
S3 = [[0, 1, 2, 3, 4, 5], [1, 2, 0, 5, 3, 4], [2, 0, 1, 4, 5, 3],
      [3, 4, 5, 0, 1, 2], [4, 5, 3, 2, 0, 1], [5, 3, 4, 1, 2, 0]]
NON_ASSOC = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]


def freeabext(table, images, rank=2):
    return build_free_abelianized_extension(FreeAbelExtInput.build(rank, table, images))


SPECS = {
    "dinf": build_dihedral_infinite,
    "klein": build_klein_bottle,
    "promislow": build_promislow,
    "wreath C3": lambda: build_wreath(C3),
    "wreath S3": lambda: build_wreath(S3),
    "freeabext C3": lambda: freeabext(C3, [1, 1]),
    "freeabext S3": lambda: freeabext(S3, [1, 3]),
    "dinf x wreath C3": lambda: direct_product(build_dihedral_infinite(), build_wreath(C3)),
    "promislow x klein": lambda: direct_product(build_promislow(), build_klein_bottle()),
    "wreath S3 x dinf": lambda: direct_product(build_wreath(S3), build_dihedral_infinite()),
    "promislow x promislow": lambda: direct_product(build_promislow(), build_promislow()),
    "dinf x klein x dinf x dinf": lambda: direct_product(
        direct_product(build_dihedral_infinite(), build_klein_bottle()),
        direct_product(build_dihedral_infinite(), build_dihedral_infinite())),
}
BUILT = {name: build() for name, build in SPECS.items()}

C4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
C2_2 = [[i ^ j for j in range(4)] for i in range(4)]
CENTRE_TABLES = {"C2": C2, "C3": C3, "C4": C4, "C2^2": C2_2, "S3": S3}


def centre_specs():
    """The wreaths of the five tables, and every rank-1 and rank-2 free
    abelianized extension over them whose images generate."""
    out = {f"wreath {name}": build_wreath(table) for name, table in CENTRE_TABLES.items()}
    for name, table in CENTRE_TABLES.items():
        for rank in (1, 2):
            for images in product(range(len(table)), repeat=rank):
                try:
                    spec = build_free_abelianized_extension(
                        FreeAbelExtInput.build(rank, table, images))
                except GroupInputError:  # the images do not generate
                    continue
                out[f"freeabext {name} {images}"] = spec
    return out


CENTRE = {**BUILT, **centre_specs()}


def p6_spec():
    """The split group Z^2 x| C6 with phi(k) = M^k, M = [[1, -1], [1, 0]]
    (the rotation of the hexagonal lattice): rows with two nonzero
    entries, which no named catalog group has."""
    table = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    rotation = IntMatrix([[1, -1], [1, 0]])
    phi = [IntMatrix.identity(2)]
    for _ in range(5):
        phi.append(phi[-1] @ rotation)
    coc = [[[0, 0]] * 6 for _ in range(6)]
    gens = [("t1", (0, [1, 0])), ("t2", (0, [0, 1])), ("r", (1, [0, 0]))]
    return ExtensionSpec.build(table, phi, coc, gens)


def finite_c2_spec():
    """C2 with n = 0: every lattice vector and layer tuple is empty."""
    return ExtensionSpec.build(C2, [[], []], [[(), ()], [(), ()]], [("a", (1, ()))])


P6 = p6_spec()


def dense_spec(spec, seed):
    """``spec`` in the lattice basis of ``brute.seeded_unimodular(n, seed)``."""
    u = brute.seeded_unimodular(spec.n, seed)
    return brute.conjugated(spec, u, unimodular_inverse(u))


# promislow in a basis where its phi take one to three layers
DENSE = dense_spec(BUILT["promislow"], 0)
# n = 11; phi(1) has 21 nonzero entries, 11 of them in one row
DENSE_ROW = freeabext(C2, [1] * 6, rank=6)


def reaches_all(table, gens) -> bool:
    """Whether right products of gens from 0 reach every index."""
    seen, todo = {0}, [0]
    while todo:
        x = todo.pop()
        for s in gens:
            if table[x][s] not in seen:
                seen.add(table[x][s])
                todo.append(table[x][s])
    return len(seen) == len(table)


def assert_generating_set(spec):
    gens = point_generating_set(spec)
    assert 0 not in gens and len(set(gens)) == len(gens)
    assert reaches_all(spec.q_table, gens)
    return gens


# -- the generating set ----------------------------------------------------


@pytest.mark.parametrize("name", sorted(SPECS))
def test_generating_set_of_catalog_specs(name):
    spec = BUILT[name]
    gens = assert_generating_set(spec)
    assert len(gens) <= max(1, spec.q_size.bit_length())
    assert list(gens) == sorted(gens)
    # the first generator with a nonzero point part is always kept
    first = next((g.q for _, g in spec.generator_names if g.q), None)
    assert first is None or first in gens


def test_generating_set_without_generators():
    spec = ExtensionSpec.build(NON_ASSOC, [[[1]]] * 3, [[(0,)] * 3 for _ in range(3)], [])
    assert assert_generating_set(spec) == (1,)


def test_generating_set_of_trivial_point_group():
    spec = ExtensionSpec.build([[0]], [[[1]]], [[(0,)]], [("z", (0, (1,)))])
    assert point_generating_set(spec) == ()


def test_generating_set_skips_identity_generators():
    spec = build_wreath(C3)  # t has point part 0, s1 and s2 are 1 and 2
    assert spec.generator_names[0][1].q == 0
    assert assert_generating_set(spec) == (1,)


def test_generating_set_completes_non_generating_generators():
    data = spec_to_dict(build_promislow())
    name, entry = next(iter(data["generators"].items()))
    data["generators"] = {name: entry}
    spec = spec_from_dict(data)
    gens = assert_generating_set(spec)
    assert entry["q"] in gens and len(gens) == 2
    assert not reaches_all(spec.q_table, [entry["q"]])


def test_generating_set_empty_table():
    assert point_generating_set(ExtensionSpec.build([], [], [], [])) == ()


# -- differential tests against the full checks ----------------------------


@pytest.mark.parametrize("name", sorted(SPECS))
def test_validation_matches_full_checks(name):
    spec = BUILT[name]
    assert spec.q_size <= 16
    assert validate_extension(spec).ok and brute.validate_extension(spec).ok


@pytest.mark.parametrize("name", sorted(SPECS))
def test_abelianization_matches_full_relations(name):
    spec = BUILT[name]
    G = ExtensionGroup(spec, name=name)
    got = G.abelianization()
    want = cokernel_structure(brute.abelianization_relations(spec))
    assert got.invariant_factors == want.invariant_factors
    assert got.free_rank == want.free_rank
    rng = SplitMix64(3000 + spec.q_size)
    elements = [g for _, g in G.generators] + [random_word_element(G, rng, 12) for _ in range(20)]
    for g, h in zip(elements, elements[1:] + elements[:1]):
        for x in (g, G.mul(g, G.inv(h))):
            assert got.order_of(G.ab_vector(x)) == want.order_of(brute.ab_vector(spec, x))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_ab_vector_is_homomorphism(name):
    spec = BUILT[name]
    G = ExtensionGroup(spec, name=name)
    ab = G.abelianization()
    rng = SplitMix64(4000 + spec.q_size)
    for _ in range(40):
        g, h = (ExtElement(rng.randrange(spec.q_size), tuple(rng.randrange(21) - 10
                                                             for _ in range(spec.n)))
                for _ in range(2))
        lhs = ab.canonical(G.ab_vector(G.mul(g, h)))
        rhs = ab.canonical(tuple(u + v for u, v in zip(G.ab_vector(g), G.ab_vector(h))))
        assert lhs == rhs


@pytest.mark.parametrize("name", sorted(CENTRE))
def test_center_rank_matches_all_rows(name):
    spec = CENTRE[name]
    assert ExtensionGroup(spec, name=name).center_rank() == brute.center_rank(spec)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_center_rank_reads_the_abelianization(name, monkeypatch):
    """Once G^ab is known, the centre rank needs no Smith elimination."""
    G = ExtensionGroup(BUILT[name], name=name)
    want = brute.center_rank(BUILT[name])
    G.abelianization()

    def refuse(*args, **kwargs):
        raise AssertionError("center_rank ran a Smith elimination")

    monkeypatch.setattr(intlin, "_smith_eliminate", refuse)
    assert G.center_rank() == want


def test_abelianization_row_count():
    for spec in BUILT.values():
        gens = point_generating_set(spec)
        k, width = len(gens), spec.n + len(gens)
        relations, images = abelianization_relations(spec)
        assert relations.cols == width
        # the |Q| - 1 tree rows vanish, and so does the r_0 row
        assert relations.rows <= spec.n * k + spec.q_size * k - (spec.q_size - 1)
        assert images[0] == (0,) * width
        for j, s in enumerate(gens):
            assert images[s] == tuple(int(i == spec.n + j) for i in range(width))


# -- corrupted specs -------------------------------------------------------

CORRUPTIBLE = {name: BUILT[name] for name in ("dinf", "klein", "promislow", "wreath C3",
                                               "wreath S3", "promislow x klein")}
CORRUPTIBLE["p6"] = P6
CORRUPTIBLE["freeabext C3"] = BUILT["freeabext C3"]
CORRUPTIBLE["promislow dense"] = DENSE
CORRUPTIBLE["freeabext C2 rank 6"] = DENSE_ROW
corrupt_settings = settings(derandomize=True, deadline=None, max_examples=150)


def checked_lines(spec, lines):
    """The oracle's failure lines that the library checks too: every line
    not naming a pair or triple, and those whose last index is in S."""
    gens = set(point_generating_set(spec))
    kept = []
    for line in lines:
        if line.endswith(")") and " at (" in line:
            *_, last = line[line.rindex("(") + 1:-1].split(",")
            if int(last) not in gens:
                continue
        kept.append(line)
    return kept


@corrupt_settings
@given(st.sampled_from(sorted(CORRUPTIBLE)), st.sampled_from(("table", "phi", "coc")),
       st.integers(0, 10**6), st.integers(-2, 2))
def test_single_entry_corruption_agrees_with_full_checks(name, kind, pick, delta):
    data = spec_to_dict(CORRUPTIBLE[name])
    qs, n = data["q_size"], data["n"]
    q, r = pick % qs, pick // qs % qs
    i, j = pick // qs ** 2 % n, pick // (qs ** 2 * n) % n
    if kind == "table":
        data["q_table"][q][r] = (data["q_table"][q][r] + delta) % qs
    elif kind == "phi":
        data["phi"][q][i][j] += delta
    else:
        data["coc"][q][r][i] += delta
    spec = spec_from_dict(data)
    got, want = validate_extension(spec), brute.validate_extension(spec)
    assert got.ok == want.ok
    assert list(got.failures) == checked_lines(spec, want.failures)


def test_broken_klein_names_the_checked_triple():
    data = spec_to_dict(build_klein_bottle())
    data["coc"][1][1] = [1, 1]
    report = validate_extension(spec_from_dict(data))
    assert report.failures == ("cocycle identity fails at (1,1,1)",)


def regular_spec(table):
    """Z wr Q's spec, built without any check: phi(q) sends e_h to e_{hq},
    the cocycle is zero."""
    n = len(table)
    phi = [[[int(table[h][q] == i) for h in range(n)] for i in range(n)] for q in range(n)]
    coc = [[[0] * n for _ in range(n)] for _ in range(n)]
    gens = [("t", (0, [int(h == 0) for h in range(n)]))]
    gens += [(f"s{q}", (q, [0] * n)) for q in range(1, n)]
    return ExtensionSpec.build(table, phi, coc, gens)


@pytest.mark.parametrize("table", [C2, C3, S3], ids=["C2", "C3", "S3"])
def test_wreath_table_check_agrees_with_full_checks(table):
    """``build_wreath`` checks its table alone; it rejects exactly the
    single-entry corruptions whose regular-representation spec the full
    checks reject, and builds the same spec otherwise."""
    n = len(table)
    rejected = 0
    for q in range(n):
        for r in range(n):
            for value in range(n):
                corrupted = [list(row) for row in table]
                corrupted[q][r] = value
                spec = regular_spec(corrupted)
                want = brute.validate_extension(spec)
                try:
                    got = build_wreath(corrupted)
                except GroupInputError as exc:
                    assert not want.ok
                    shown = "; ".join(validate_extension(spec).failures[:3])
                    assert str(exc) == "invalid multiplication table: " + shown
                    rejected += 1
                else:
                    assert want.ok and got == spec
    assert rejected == n * n * (n - 1)


@pytest.mark.parametrize("table, images", [(C2, [1, 1]), (C3, [1, 1]), (S3, [1, 3])],
                         ids=["C2", "C3", "S3"])
def test_freeabext_table_check_agrees_with_full_checks(table, images):
    """``build_free_abelianized_extension`` checks its table first, as
    ``build_wreath`` does: it rejects exactly the single-entry corruptions
    whose regular-representation spec the full checks reject, with the
    table lines of that spec's report, and builds the same spec otherwise."""
    n = len(table)
    built = freeabext(table, images)
    gens = tuple((f"f{i + 1}", ExtElement(q, (0,) * n)) for i, q in enumerate(images))
    rejected = 0
    for q in range(n):
        for r in range(n):
            for value in range(n):
                corrupted = [list(row) for row in table]
                corrupted[q][r] = value
                spec = regular_spec(corrupted)._replace(generator_names=gens)
                want = brute.validate_extension(spec)
                try:
                    got = freeabext(corrupted, images)
                except GroupInputError as exc:
                    assert not want.ok
                    shown = "; ".join(validate_extension(spec).failures[:3])
                    assert str(exc) == "invalid multiplication table: " + shown
                    rejected += 1
                else:
                    assert want.ok and got == built
    assert rejected == n * n * (n - 1)


# -- validation cost and its edge cases ------------------------------------


def elementary_abelian(k):
    return [[i ^ j for j in range(1 << k)] for i in range(1 << k)]


COUNTED = {**BUILT, "wreath C2^5": build_wreath(elementary_abelian(5)), "p6": P6,
           "promislow dense": DENSE, "finite C2": finite_c2_spec()}


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``IntMatrix.det`` and ``_generating_points`` calls."""
    counts = Counter()
    det, points = IntMatrix.det, extgroup._generating_points

    def counting_det(self):
        counts["det"] += 1
        return det(self)

    def counting_points(*args):
        counts["points"] += 1
        return points(*args)

    monkeypatch.setattr(IntMatrix, "det", counting_det)
    monkeypatch.setattr(extgroup, "_generating_points", counting_points)
    return counts


@pytest.mark.parametrize("name", sorted(COUNTED))
def test_valid_spec_takes_no_determinant(name, calls):
    """The catalog specs, those of the benchmark (the seven extension
    groups, and promislow x klein for the CLI) and Z wr C2^5 pass with no
    determinant, and S is found once for the table and phi checks."""
    assert validate_extension(COUNTED[name]).ok
    assert calls == {"points": 1}


def test_failing_phi_check_takes_every_determinant(calls):
    spec = ExtensionSpec.build(C2, [[[1, 0], [0, 1]], [[2, 0], [0, 1]]],
                               [[(0, 0)] * 2 for _ in range(2)], [("x", (1, (0, 0)))])
    assert validate_extension(spec).failures == ("phi(1) is not invertible over the integers",)
    assert calls == {"points": 1, "det": 2}


@pytest.mark.parametrize("name", ["klein", "promislow", "wreath S3", "p6", "promislow dense"])
def test_zero_phi_matches_full_checks(name):
    """A zero phi(q) is singular; with q in S its sparse form has no entry
    past the padded first column, and ``_times`` gives zero rows."""
    spec = COUNTED[name]
    for q in range(spec.q_size):
        data = spec_to_dict(spec)
        data["phi"][q] = [[0] * spec.n for _ in range(spec.n)]
        broken = spec_from_dict(data)
        got, want = validate_extension(broken), brute.validate_extension(broken)
        assert not got.ok
        assert list(got.failures) == checked_lines(broken, want.failures)
    get, co, rest = _sparse(IntMatrix.zeros(spec.n, spec.n))
    assert co == (0,) * spec.n and rest == ()
    assert _times((get, co, rest), _rows(spec.phi[0])) == ((0,) * spec.n,) * spec.n


def test_finite_spec_without_lattice():
    """n = 0: every phi is 0 x 0 and every vector empty."""
    spec = finite_c2_spec()
    assert validate_extension(spec).ok and brute.validate_extension(spec).ok
    G = ExtensionGroup(spec)
    assert G._acts_as_zero(G.transversal())
    data = spec_to_dict(spec)
    data["q_table"][1][1] = 1
    broken = spec_from_dict(data)
    assert validate_extension(broken).failures == \
        tuple(checked_lines(broken, brute.validate_extension(broken).failures))


def _dinf_with(**fields):
    return build_dihedral_infinite()._replace(**fields)


def _dinf_generators(**changed):
    return tuple((name, ExtElement(*changed.get(name, g)))
                 for name, g in build_dihedral_infinite().generator_names)


# malformed specs, each with whether it can be written as a JSON spec: a
# q_size that disagrees with the table stops in ``spec_from_dict``
MALFORMED = {
    "q_table rows": (lambda: _dinf_with(q_size=3), False),
    "phi count": (lambda: _dinf_with(phi=build_dihedral_infinite().phi[:1]), True),
    "phi size": (lambda: _dinf_with(phi=(IntMatrix.identity(1), IntMatrix.identity(2))), True),
    "phi not square": (lambda: _dinf_with(phi=(IntMatrix.identity(1), IntMatrix([[1, 0]]))), True),
    "coc rows": (lambda: _dinf_with(coc=build_dihedral_infinite().coc[:1]), True),
    "coc row length": (lambda: _dinf_with(coc=(((0,), (0,)), ((0,),))), True),
    "coc vector length": (lambda: _dinf_with(coc=(((0,), (0,)), ((0,), (0, 0)))), True),
    "generator point": (lambda: _dinf_with(generator_names=_dinf_generators(b=(2, (0,)))), True),
    "generator vector": (lambda: _dinf_with(generator_names=_dinf_generators(a=(0, (1, 0)))), True),
    "several": (lambda: _dinf_with(phi=build_dihedral_infinite().phi[:1],
                                   coc=(((0,), (0,)), ((0,), ())),
                                   generator_names=_dinf_generators(b=(-1, (0,)), a=(0, ()))),
                True),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_shapes_match_full_checks(name, tmp_path, capsys):
    """Every shape line is the oracle's; a JSON spec exits 2 from
    ``validate`` printing the lines, and from ``info`` with nothing on
    stdout."""
    build, as_json = MALFORMED[name]
    spec = build()
    report = validate_extension(spec)
    assert report.failures and report == brute.validate_extension(spec)
    if not as_json:
        return
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_dict(spec)))
    assert run(["validate", str(path)]) == 2
    assert capsys.readouterr().out == "valid=false\n" + "".join(
        f"failure: {line}\n" for line in report.failures)
    assert run(["info", f"spec:{path}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: invalid extension spec: ")


def test_spec_n_must_match_the_phi(tmp_path, capsys):
    data = spec_to_dict(build_dihedral_infinite())
    data["n"] = 2
    with pytest.raises(GroupInputError, match="n disagrees with the phi matrices"):
        spec_from_dict(data)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    for argv in (["validate", str(path)], ["info", f"spec:{path}"]):
        assert run(argv) == 2
        assert capsys.readouterr() == ("", "error: n disagrees with the phi matrices\n")


def test_many_distinct_factor_set_vectors():
    """freeabext over S3 has a factor set of 14 distinct vectors, more than
    |Q|; every single-entry change of it is judged as the full checks
    judge it."""
    spec = BUILT["freeabext S3"]
    assert len({v for row in spec.coc for v in row}) == 14
    for q in range(spec.q_size):
        for r in range(spec.q_size):
            data = spec_to_dict(spec)
            data["coc"][q][r][(q + r) % spec.n] += 1
            broken = spec_from_dict(data)
            want = brute.validate_extension(broken)
            assert list(validate_extension(broken).failures) == checked_lines(broken, want.failures)


# -- builders from checked ints ---------------------------------------------

BUILDER_TABLES = {"C2": C2, "C3": C3, "S3": S3, "C2^3": elementary_abelian(3)}


def assert_same_fields(got, want):
    assert type(got) is type(want)
    for field, x, y in zip(want._fields, got, want):
        assert x == y, field


@pytest.mark.parametrize("name", sorted(BUILDER_TABLES))
def test_wreath_equals_spec_built_from_lists(name):
    table = BUILDER_TABLES[name]
    spec = build_wreath(table)
    assert_same_fields(spec, regular_spec(table))
    assert all(type(row) is tuple for m in spec.phi for row in map(m.row, range(m.rows)))


def product_lists(spec1, spec2):
    """G1 x G2 as plain lists, index (i, j) at i |Q2| + j."""
    q2, n1, n2 = spec2.q_size, spec1.n, spec2.n
    pairs = [(i, j) for i in range(spec1.q_size) for j in range(q2)]
    table = [[spec1.q_table[i][k] * q2 + spec2.q_table[j][l] for k, l in pairs] for i, j in pairs]
    phi = [[list(r) + [0] * n2 for r in spec1.phi[i].to_lists()]
           + [[0] * n1 + list(r) for r in spec2.phi[j].to_lists()] for i, j in pairs]
    coc = [[list(spec1.coc[i][k]) + list(spec2.coc[j][l]) for k, l in pairs] for i, j in pairs]
    names = [name for name, _ in spec1.generator_names]
    gens = [(name, (g.q * q2, list(g.a) + [0] * n2)) for name, g in spec1.generator_names]
    for name, g in spec2.generator_names:
        while name in names:
            name += "2"
        names.append(name)
        gens.append((name, (g.q, [0] * n1 + list(g.a))))
    return ExtensionSpec.build(table, phi, coc, gens)


@pytest.mark.parametrize("name", sorted(BUILDER_TABLES))
def test_direct_product_equals_spec_built_from_lists(name):
    wreath = build_wreath(BUILDER_TABLES[name])
    for pair in ((wreath, build_klein_bottle()), (build_promislow(), wreath), (wreath, wreath)):
        assert_same_fields(direct_product(*pair), product_lists(*pair))
    spec = direct_product(wreath, wreath)
    assert len({id(v) for row in spec.coc for v in row}) == 1


# -- one validation per group ---------------------------------------------


def test_resolved_groups_are_validated_once(tmp_path, monkeypatch):
    """``ExtensionGroup`` alone validates: each address the CLI resolves
    to an extension group, file-built ones included, runs
    ``validate_extension`` exactly once."""
    wreath = tmp_path / "wreath.json"
    wreath.write_text(json.dumps(S3))
    top = tmp_path / "freeabext.json"
    top.write_text(json.dumps({"rank": 3, "q_table": S3, "images": [1, 3, 4]}))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(spec_to_dict(BUILT["promislow x klein"])))
    validate = extgroup.validate_extension
    calls = []

    def counting(spec):
        calls.append(spec)
        return validate(spec)

    # a builder that imported the name would call it through its own module
    for module in (extgroup, catalog):
        monkeypatch.setattr(module, "validate_extension", counting, raising=False)
    for address in ("dinf", "klein", "promislow", f"wreath:{wreath}", f"freeabext:{top}",
                    f"spec:{spec}"):
        calls.clear()
        G = resolve_group(address)
        assert calls == [G.spec], address


# -- a lattice basis change keeps every answer -----------------------------


def info(spec):
    """G^ab, torsion, centre rank and the exponent bracket."""
    G = ExtensionGroup(spec)
    ab = G.abelianization()
    bounds = gentor.gen_exponent_bounds(G) if ab.is_finite else None
    return ab.invariant_factors, ab.free_rank, G.is_torsion_free(), G.center_rank(), bounds


INFO = {name: info(spec) for name, spec in BUILT.items()}


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.sampled_from(sorted(BUILT)), st.integers(0, 2**32))
def test_basis_change_keeps_validation_and_info(name, seed):
    """phi -> U phi U^-1, coc -> U coc and a -> U a present the same group:
    the spec passes, as the full checks say, and its info is unchanged."""
    spec = dense_spec(BUILT[name], seed)
    assert validate_extension(spec).ok and brute.validate_extension(spec).ok
    assert info(spec) == INFO[name]


# -- the wreath size cap -----------------------------------------------------


def test_wreath_cap_refuses_before_building(monkeypatch):
    def refuse(*args):
        raise AssertionError("the table was checked")

    monkeypatch.setattr(catalog, "point_table_failures", refuse)
    cyclic = [[(i + j) % (catalog.WREATH_CAP + 1) for j in range(catalog.WREATH_CAP + 1)]
              for i in range(catalog.WREATH_CAP + 1)]
    with pytest.raises(GroupInputError, match="size cap"):
        build_wreath(cyclic)


def test_wreath_at_the_cap_builds():
    size = catalog.WREATH_CAP
    spec = build_wreath([[(i + j) % size for j in range(size)] for i in range(size)])
    assert spec.n == size and validate_extension(spec).ok


# -- element arithmetic on gather layers -----------------------------------


ARITHMETIC = {
    **BUILT,
    "promislow^3": direct_product(BUILT["promislow x promislow"], build_promislow()),
    "p6": P6,
    "promislow dense": DENSE,
    "finite C2": finite_c2_spec(),
    "freeabext C2 rank 6": DENSE_ROW,
}
GROUPS = {name: ExtensionGroup(spec, name=name) for name, spec in ARITHMETIC.items()}
word_settings = settings(derandomize=True, deadline=None, max_examples=200)


def test_p6_rows_are_not_permutations():
    rows = [row for m in ARITHMETIC["p6"].phi for row in m.to_lists()]
    assert max(sum(x != 0 for x in row) for row in rows) == 2


@pytest.mark.parametrize("name", sorted(ARITHMETIC))
def test_layer_count(name):
    """The phi of dinf, klein, promislow, the wreath products and their
    direct products are signed permutations, one layer each.  p6's
    rotations take two, the free abelianized extensions' phi up to three,
    as do promislow's in the dense basis, and the n = 0 spec's none; the
    rank-6 free abelianized extension over C2 pads to its dense row."""
    widths = {len(layers) for layers in GROUPS[name]._layers}
    dense = {"p6": {1, 2}, "freeabext C3": {1, 3}, "freeabext S3": {1, 3}, "finite C2": {0},
             "promislow dense": {1, 2, 3}, "freeabext C2 rank 6": {1, 11}}
    assert widths == dense.get(name, {1})


@pytest.mark.parametrize("name", sorted(ARITHMETIC))
def test_layered_product_is_matrix_product(name):
    """The anti-homomorphism check's rows of phi(s) phi(q), formed by
    ``_times`` from the sparse form of phi(s) and the rows of phi(q), are
    those of ``@`` for every pair; and with M the matrix whose columns
    are phi(q)'s columns and the all-ones vector, as the cocycle check
    forms it, the columns of phi(s) M are ``mat_vec``'s images of them."""
    spec = ARITHMETIC[name]
    for a in spec.phi:
        form = _sparse(a)
        for b in spec.phi:
            assert _times(form, _rows(b)) == _rows(a @ b)
            vectors = tuple(zip(*b.to_lists())) + ((1,) * spec.n,)
            if spec.n:  # with no rows, M has no columns to read back
                assert tuple(zip(*_times(form, tuple(zip(*vectors))))) == \
                    tuple(map(a.mat_vec, vectors))


class CountingRows:
    """A sequence of rows that counts the rows read from it."""

    def __init__(self, rows):
        self.rows, self.read = rows, 0

    def __getitem__(self, key):
        got = self.rows[key]
        self.read += len(got) if isinstance(key, slice) else 1
        return got

    def __len__(self):
        return len(self.rows)


@pytest.mark.parametrize("name", sorted(ARITHMETIC))
def test_times_reads_a_row_per_nonzero_entry(name):
    """``_times`` reads M's rows nnz(phi(s)) times: once per entry, not
    once per padded layer and row."""
    spec = ARITHMETIC[name]
    last = _rows(spec.phi[-1])
    for a in spec.phi:
        rows = CountingRows(last)
        assert _times(_sparse(a), rows) == _rows(a @ spec.phi[-1])
        assert rows.read == sum(x != 0 for row in _rows(a) for x in row)


@pytest.mark.parametrize("name", sorted(ARITHMETIC))
def test_arithmetic_matches_formula_on_every_point_pair(name):
    spec, G = ARITHMETIC[name], GROUPS[name]
    rng = SplitMix64(4000 + spec.q_size)

    def element(q):
        return ExtElement(q, tuple(rng.randrange(11) - 5 for _ in range(spec.n)))

    for gq in range(spec.q_size):
        g = element(gq)
        assert G.inv(g) == brute.formula_inv(spec, g)
        for hq in range(spec.q_size):
            h = element(hq)
            assert G.mul(g, h) == brute.formula_mul(spec, g, h)


@word_settings
@given(st.sampled_from(sorted(ARITHMETIC)),
       st.lists(st.tuples(st.integers(0, 10**6), st.booleans()), max_size=16))
def test_word_products_match_formula(name, word):
    spec, G = ARITHMETIC[name], GROUPS[name]
    gens = [g for _, g in spec.generator_names]
    got = want = G.identity()
    for pick, inverted in word:
        letter = gens[pick % len(gens)]
        got = G.mul(got, G.inv(letter) if inverted else letter)
        want = brute.formula_mul(spec, want, brute.formula_inv(spec, letter) if inverted else letter)
        assert got == want
        assert type(got) is ExtElement and type(got.a) is tuple
    assert G.inv(got) == brute.formula_inv(spec, want)
