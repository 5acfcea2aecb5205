"""Command-line interface, driven in-process through run()."""

import json
import time

import pytest

from gentorsion import catalog
from gentorsion.cli import DEFAULT_SEED, resolve_group, run
from gentorsion.extgroup import ExtElement, spec_to_dict
from gentorsion.catalog import build_dihedral_infinite, build_promislow
from gentorsion.words import eval_word, parse_word


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_list(capsys):
    code, out, err = invoke(capsys, "catalog", "list")
    assert code == 0
    for address in ["dinf", "klein", "promislow", "K:p,n,m", "gamma", "spec:"]:
        assert address in out


def test_info_promislow(capsys):
    code, out, _ = invoke(capsys, "info", "promislow")
    assert code == 0
    assert "group=promislow" in out
    assert "abelianization=C4 x C4" in out
    assert "translation_index=4" in out
    assert "torsion_free=true" in out
    assert "center_rank=0" in out
    assert "exponent_lower=4 exponent_upper=4 exact=true" in out


def test_info_metab(capsys):
    code, out, _ = invoke(capsys, "info", "K:2,1,1")
    assert code == 0
    assert "center_trivial=true" in out
    assert "abelianization=C4 x C4" in out
    assert "torsion_free=true" in out


def test_info_klein_reports_infinite_ab(capsys):
    code, out, _ = invoke(capsys, "info", "klein")
    assert code == 0
    assert "exponent_bounds=n/a" in out
    assert "free_rank=1" in out


def test_info_gamma(capsys):
    code, out, _ = invoke(capsys, "info", "gamma")
    assert code == 0
    assert "backend=group-ring" in out


def test_decide(capsys):
    code, out, _ = invoke(capsys, "decide", "promislow", "x")
    assert code == 0
    assert "generalized_torsion=true" in out
    assert "pi_order=4" in out

    code, out, _ = invoke(capsys, "decide", "klein", "y")
    assert code == 0
    assert "generalized_torsion=false" in out
    assert "pi_order=infinite" in out

    code, out, _ = invoke(capsys, "decide", "promislow", "[x,y]^2*x^4")
    assert code == 0
    assert "generalized_torsion=true" in out


def test_exponent(capsys):
    code, out, _ = invoke(capsys, "exponent", "promislow")
    assert code == 0
    assert "lower=4 upper=4 exact=true" in out

    code, out, _ = invoke(capsys, "exponent", "K:5,1,1")
    assert code == 0
    assert "lower=25 upper=25 exact=true" in out

    code, _, err = invoke(capsys, "exponent", "klein")
    assert code == 2
    assert "error:" in err


def test_witness_json_roundtrip(capsys):
    code, out, _ = invoke(capsys, "witness", "promislow", "x")
    assert code == 0
    payload = json.loads(out)
    assert payload["group"] == "promislow"
    assert payload["base_word"] == "x"
    assert payload["conjugator_words"] == ["1", "x", "y", "x*y"]
    assert payload["length"] == 4
    assert payload["verified"] is True

    G = resolve_group("promislow")
    base = ExtElement(payload["base"]["q"], tuple(payload["base"]["a"]))
    assert base == eval_word(G, parse_word("x"))
    prod = G.identity()
    for word, data in zip(payload["conjugator_words"], payload["conjugators"]):
        c = ExtElement(data["q"], tuple(data["a"]))
        assert c == eval_word(G, parse_word(word))
        prod = G.mul(prod, G.conj(base, c))
    assert prod == G.identity()


def test_witness_metab_payload(capsys):
    code, out, _ = invoke(capsys, "witness", "K:2,1,1", "x")
    assert code == 0
    payload = json.loads(out)
    assert payload["length"] == 4
    assert payload["verified"] is True
    assert {"alpha", "beta", "coords"} <= set(payload["base"])


def test_witness_search(capsys):
    code, out, _ = invoke(capsys, "witness", "promislow", "x", "--search")
    assert code == 0
    payload = json.loads(out)
    assert payload["length"] == 4
    assert payload["conjugator_words"] == ["1", "1", "y", "y"]

    code, out, _ = invoke(capsys, "witness", "promislow", "x", "--search", "--radius", "0")
    assert code == 0
    assert "result=absent" in out


# the note states an absolute answer unless the ball was searched
ABSENT_NOTES = {
    ("klein", "y"): "no product of conjugates of this element is 1, at any length",
    ("K:3,1,1", "x", "--max-k", "8", "--radius", "2"):
        "every identity has length divisible by pi_order=9, "
        "so none has length <= 8 for any conjugators",
    ("promislow", "x", "--radius", "0"): "no identity of length <= 8 over the radius-0 ball",
    ("promislow", "x", "--max-k", "4", "--radius", "0"):
        "no identity of length <= 4 over the radius-0 ball",
}


@pytest.mark.parametrize(
    "argv, reason",
    [
        (("klein", "y"), "not_generalized_torsion"),
        (("K:3,1,1", "x", "--max-k", "8", "--radius", "2"), "below_pi_order"),
        (("promislow", "x", "--radius", "0"), "exhausted"),
        # max_k equal to pi_order is searched, not ruled out
        (("promislow", "x", "--max-k", "4", "--radius", "0"), "exhausted"),
    ],
)
def test_witness_search_absent_reason(capsys, argv, reason):
    code, out, _ = invoke(capsys, "witness", *argv, "--search")
    assert code == 0
    lines = out.splitlines()
    assert lines == ["result=absent", f"reason={reason}", f"note={ABSENT_NOTES[argv]}"]


def test_witness_rejects_non_torsion(capsys):
    code, _, err = invoke(capsys, "witness", "klein", "y")
    assert code == 2
    assert "error:" in err


def test_identity_universal(capsys):
    code, out, _ = invoke(capsys, "identity", "promislow")
    assert code == 0
    assert "inner_exponent=2 conjugators=4 degree=8" in out
    assert "mode=universal" in out
    assert "verified=true" in out


def test_identity_sampled_default_seed(capsys):
    code, out, _ = invoke(capsys, "identity", "K:2,1,1", "--samples", "30")
    assert code == 0
    assert f"mode=sampled samples=30 seed={DEFAULT_SEED}" in out
    assert "verified=true" in out


def test_identity_sampled_backend_without_symbolic(capsys):
    # K is universal by default; --samples selects the sampled mode
    code, out, _ = invoke(capsys, "identity", "K:3,1,1", "--samples", "20")
    assert code == 0
    assert "inner_exponent=3 conjugators=9 degree=27" in out
    assert "mode=sampled" in out


def test_identity_gamma(capsys):
    # Gamma supplies its degree-16 identity through positive_identity();
    # it has no universal check, so only the sampled mode runs
    code, out, _ = invoke(capsys, "identity", "gamma")
    assert code == 0
    assert out.splitlines() == [
        "inner_exponent=1 conjugators=16 degree=16",
        f"mode=sampled samples=200 seed={DEFAULT_SEED}",
        "verified=true",
    ]
    code, _, err = invoke(capsys, "identity", "gamma", "--universal")
    assert code == 2
    assert "verify_positive_identity_all" in err


@pytest.mark.parametrize("group, header", [
    ("K:3,1,1", "inner_exponent=3 conjugators=9 degree=27"),
    ("K:2,1,1", "inner_exponent=2 conjugators=4 degree=8"),
], ids=["K:3,1,1", "K:2,1,1"])
def test_identity_universal_on_K(capsys, group, header):
    # K proves its identity by counting the conjugators' cosets, with the
    # flag and by default
    for argv in ((group, "--universal"), (group,)):
        code, out, _ = invoke(capsys, "identity", *argv)
        assert code == 0
        assert out.splitlines() == [header, "mode=universal", "verified=true"]


@pytest.mark.parametrize("group", ["gamma"])
def test_identity_universal_without_capability_prints_nothing(capsys, group):
    # the capability is checked before any output line
    code, out, err = invoke(capsys, "identity", group, "--universal")
    assert code == 2
    assert out == ""
    assert "verify_positive_identity_all" in err


@pytest.mark.parametrize("argv", [
    ("promislow", "--universal", "--samples", "0"),
    ("promislow", "--universal", "--seed", "5"),
    ("K:2,1,1", "--universal", "--samples", "5"),
    ("promislow", "--seed", "5"),  # universal by default, so the seed would be ignored
], ids="-".join)
def test_identity_rejects_sampling_flags_in_universal_mode(capsys, argv):
    code, out, err = invoke(capsys, "identity", *argv)
    assert code == 2
    assert out == ""
    assert "apply to sampled runs" in err


@pytest.mark.parametrize("flags", [("--max-k", "4"), ("--radius", "0"), ("--max-k", "8", "--radius", "3")],
                         ids="-".join)
def test_witness_rejects_search_bounds_without_search(capsys, flags):
    code, out, err = invoke(capsys, "witness", "promislow", "x", *flags)
    assert code == 2
    assert out == ""
    assert "need --search" in err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_identity_rejects_nonpositive_samples(capsys, samples):
    code, out, err = invoke(capsys, "identity", "K:2,1,1", "--samples", samples)
    assert code == 2
    assert out == ""
    assert "samples must be >= 1" in err


def test_identity_spec_without_full_generators(tmp_path, capsys):
    # the generators of this D_inf spec miss the coset of b; the universal
    # identity runs over the zero section and needs none
    data = spec_to_dict(build_dihedral_infinite())
    del data["generators"]["b"]
    path = tmp_path / "dinf_a.json"
    path.write_text(json.dumps(data))
    code, out, _ = invoke(capsys, "identity", f"spec:{path}")
    assert code == 0
    assert "mode=universal" in out
    assert "verified=true" in out
    code, _, err = invoke(capsys, "witness", f"spec:{path}", "a")
    assert code == 2
    assert "generators do not reach every coset" in err


def test_identity_sampled_spec_without_generators(tmp_path, capsys):
    # sampling needs a generator to draw words from; the universal run
    # evaluates over the zero section and needs none
    data = spec_to_dict(build_dihedral_infinite())
    data["generators"] = {}
    path = tmp_path / "dinf_bare.json"
    path.write_text(json.dumps(data))
    code, out, err = invoke(capsys, "identity", f"spec:{path}", "--samples", "5")
    assert code == 2 and out == ""
    assert "error:" in err and "generator" in err
    code, out, _ = invoke(capsys, "identity", f"spec:{path}")
    assert code == 0
    assert "verified=true" in out


def test_seed_precedence(capsys, monkeypatch):
    monkeypatch.setenv("GENTOR_SEED", "123")
    code, out, _ = invoke(capsys, "identity", "K:2,1,1", "--samples", "10")
    assert code == 0 and "seed=123" in out

    code, out, _ = invoke(capsys, "identity", "K:2,1,1", "--samples", "10", "--seed", "5")
    assert code == 0 and "seed=5" in out

    monkeypatch.setenv("GENTOR_SEED", "notanumber")
    code, _, err = invoke(capsys, "identity", "K:2,1,1", "--samples", "10")
    assert code == 2
    assert "GENTOR_SEED" in err


def test_validate(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(spec_to_dict(build_promislow())))
    code, out, _ = invoke(capsys, "validate", str(good))
    assert code == 0
    assert "valid=true" in out

    data = spec_to_dict(build_promislow())
    data["coc"][1][2][0] += 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, _ = invoke(capsys, "validate", str(bad))
    assert code == 2
    assert "valid=false" in out
    assert "failure:" in out


def _set_n(data):
    data["n"] = "x"


def _set_phi_entry(data):
    data["phi"][0][0][0] = "a"


def _set_generator_lattice_part(data):
    data["generators"]["a"]["a"] = 5


def _set(*path):
    """Corruption that puts the value ``path[-1]`` at ``path[:-1]``."""
    *keys, value = path

    def corrupt(data):
        target = data
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
    return corrupt


# each must be refused, not truncated (0.5 -> 0, 1.9 -> 1) or parsed ("-1")
NON_INTEGERS = [0.5, 1.9, 0.0, 1.0, "-1", "1", True, False, None]
SPEC_ENTRIES = [("generators", "a", "a", 0), ("generators", "b", "q"), ("coc", 1, 1, 0),
                ("q_table", 0, 0), ("phi", 1, 0, 0), ("n",), ("q_size",)]
NON_INTEGER_SPECS = [pytest.param(_set(*where, value), id="/".join(map(str, where)) + f"={value!r}")
                     for where in SPEC_ENTRIES for value in NON_INTEGERS]


@pytest.mark.parametrize("corrupt", [_set_n, _set_phi_entry, _set_generator_lattice_part,
                                     *NON_INTEGER_SPECS])
def test_malformed_spec_content(tmp_path, capsys, corrupt):
    # validate and spec: share one parser, so both take the exit-2 path
    data = spec_to_dict(build_dihedral_infinite())
    corrupt(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    for argv in (["validate", str(path)], ["info", f"spec:{path}"]):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: malformed group spec")


FREEABEXT = {"rank": 2, "q_table": [[0, 1], [1, 0]], "images": [1, 1]}


@pytest.mark.parametrize("value", NON_INTEGERS, ids=repr)
@pytest.mark.parametrize("kind, data, where", [
    ("wreath", [[0, 1], [1, 0]], (1, 0)),
    ("freeabext", FREEABEXT, ("images", 0)),
    ("freeabext", FREEABEXT, ("rank",)),
    ("freeabext", FREEABEXT, ("q_table", 1, 1)),
], ids=["wreath-table", "freeabext-images", "freeabext-rank", "freeabext-table"])
def test_file_addresses_reject_non_integer_entries(tmp_path, capsys, kind, data, where, value):
    data = json.loads(json.dumps(data))
    _set(*where, value)(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = invoke(capsys, "info", f"{kind}:{path}")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: expected")


def test_spec_file_address(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(spec_to_dict(build_promislow())))
    code, out, _ = invoke(capsys, "info", f"spec:{path}")
    assert code == 0
    assert "abelianization=C4 x C4" in out


def test_wreath_file_address(tmp_path, capsys):
    path = tmp_path / "c2.json"
    path.write_text("[[0, 1], [1, 0]]")
    code, out, _ = invoke(capsys, "info", f"wreath:{path}")
    assert code == 0
    assert "translation_index=2" in out

    code, out, _ = invoke(capsys, "decide", f"wreath:{path}", "t*t^s1")
    assert code == 0
    assert "generalized_torsion=false" in out

    code, out, _ = invoke(capsys, "decide", f"wreath:{path}", "t*(t^-1)^s1")
    assert code == 0
    assert "generalized_torsion=true" in out

    # G^ab is infinite and s1 lies outside A; the certificate still has
    # length [G:A] = 2
    code, out, _ = invoke(capsys, "witness", f"wreath:{path}", "s1")
    assert code == 0
    assert '"length": 2' in out
    assert json.loads(out)["conjugator_words"] == ["1", "s1"]


def test_freeabext_file_address(tmp_path, capsys):
    path = tmp_path / "f2c2.json"
    path.write_text(json.dumps({"rank": 2, "q_table": [[0, 1], [1, 0]], "images": [1, 1]}))
    code, out, _ = invoke(capsys, "info", f"freeabext:{path}")
    assert code == 0
    assert "free_rank=2" in out
    assert "exponent_bounds=n/a" in out

    code, out, _ = invoke(capsys, "decide", f"freeabext:{path}", "[f1,f2]")
    assert code == 0
    assert "generalized_torsion=true" in out


@pytest.mark.parametrize("table", [
    [[0, 1, 2], [1, 2, 0], [2, 1, 0]],
    [[0, 1, 2], [1, 0, 0], [2, 0, 1]],
    [[0, 1, 2], [1, 2, 0], [2, 0, 3]],
], ids=["not-associative", "no-inverse", "out-of-range"])
def test_freeabext_rejects_a_table_that_is_not_a_group(tmp_path, capsys, table):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rank": 2, "q_table": table, "images": [1, 1]}))
    code, out, err = invoke(capsys, "info", f"freeabext:{path}")
    assert code == 2 and out == ""
    assert err.startswith("error: invalid multiplication table")


def test_input_errors(tmp_path, capsys):
    code, _, err = invoke(capsys, "info", "nosuchgroup")
    assert code == 2 and "error:" in err

    code, _, err = invoke(capsys, "info", "K:2,1")
    assert code == 2 and "error:" in err

    code, _, err = invoke(capsys, "info", "K:a,b,c")
    assert code == 2 and "error:" in err

    code, _, err = invoke(capsys, "decide", "promislow", "x^")
    assert code == 2 and "error:" in err

    code, _, err = invoke(capsys, "decide", "promislow", "nope")
    assert code == 2 and "error:" in err

    code, out, err = invoke(capsys, "decide", "promislow", "x^\u00b2")
    assert code == 2 and out == ""
    assert "error:" in err and "position 2" in err

    code, _, err = invoke(capsys, "decide", "gamma", "e")
    assert code == 2 and "error:" in err

    code, _, err = invoke(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read" in err

    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    code, _, err = invoke(capsys, "validate", str(broken))
    assert code == 2 and "not valid JSON" in err


@pytest.mark.parametrize("argv", [
    ("info", "K:2,20000,1"),
    ("info", "K:3,9000,1"),
    ("info", "K:2305843009213693951,1,1"),
    ("decide", "promislow", "(" * 400 + "x" + ")" * 400),
    ("decide", "promislow", "[x," * 400 + "y" + "]" * 400),
    ("decide", "promislow", "x" + "^x" * 3000),
], ids=["K-deep-n", "K-long-N", "K-large-p", "parentheses", "commutators", "carets"])
def test_oversized_input_is_refused_quickly(capsys, argv):
    """Over-cap K addresses and over-deep words exit 2 within a second,
    with no traceback and no number that would not fit on a line."""
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert len(err) < 120


def test_over_cap_wreath_is_refused_quickly(tmp_path, capsys):
    """A wreath table above ``WREATH_CAP`` exits 2 before any matrix is formed."""
    size = catalog.WREATH_CAP + 1
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps([[(i + j) % size for j in range(size)] for i in range(size)]))
    start = time.perf_counter()
    code, out, err = invoke(capsys, "info", f"wreath:{path}")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == f"error: wreath point group of order {size} exceeds the size cap {size - 1}\n"


def test_over_cap_freeabext_is_refused_quickly(tmp_path, capsys):
    """Rank 80 over C2 (n = 159), the first rank over ``FREEABEXT_CAP``
    there, exits 2 before any tree path or matrix is formed."""
    path = tmp_path / "c2.json"
    path.write_text(json.dumps({"rank": 80, "q_table": [[0, 1], [1, 0]], "images": [1] * 80}))
    start = time.perf_counter()
    code, out, err = invoke(capsys, "info", f"freeabext:{path}")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == ("error: free abelianized extension with 50562 phi entries (|Q| n^2, n = 159) "
                   f"exceeds the size cap {catalog.FREEABEXT_CAP}\n")
    assert 2 * 157 ** 2 <= catalog.FREEABEXT_CAP < 2 * 159 ** 2


def test_large_power_in_gamma(capsys):
    # square-and-multiply: about 60 muls, not 10^9, before the capability error
    code, _, err = invoke(capsys, "decide", "gamma", "e^1000000000")
    assert code == 2 and "error:" in err
    gamma = resolve_group("gamma")
    assert eval_word(gamma, parse_word("e^1000000000")).ring.augmentation() == 10**9


def test_malformed_file_shapes(tmp_path, capsys):
    # Valid JSON of the wrong shape must hit the exit-2 input contract,
    # not leak a traceback.
    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps({"size": 2, "table": [[0, 1], [1, 0]]}))
    code, _, err = invoke(capsys, "info", f"wreath:{wrapped}")
    assert code == 2 and "error:" in err and "expected" in err

    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps([[0, "s"], [1, 0]]))
    code, _, err = invoke(capsys, "info", f"wreath:{ragged}")
    assert code == 2 and "error:" in err

    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps({"rank": 2, "q_table": [[0, 1], [1, 0]], "images": [[0, 1], [1, 0]]}))
    code, _, err = invoke(capsys, "info", f"freeabext:{nested}")
    assert code == 2 and "error:" in err and "images" in err

    missing = tmp_path / "missing_key.json"
    missing.write_text(json.dumps({"rank": 2, "q_table": [[0, 1], [1, 0]]}))
    code, _, err = invoke(capsys, "info", f"freeabext:{missing}")
    assert code == 2 and "error:" in err

    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps([1, 2, 3]))
    code, _, err = invoke(capsys, "info", f"spec:{bare}")
    assert code == 2 and "error:" in err


def test_empty_point_group(tmp_path, capsys):
    # an empty table has no identity: a validation failure, not a traceback
    spec = tmp_path / "empty.json"
    spec.write_text(json.dumps({"q_table": [], "phi": [], "coc": [], "generators": {}, "n": 0}))
    code, out, err = invoke(capsys, "validate", str(spec))
    assert code == 2 and err == ""
    assert out.splitlines() == ["valid=false", "failure: q_table is empty; index 0 must be the identity"]

    code, out, err = invoke(capsys, "info", f"spec:{spec}")
    assert code == 2 and out == ""
    assert err.startswith("error: invalid extension spec: q_table is empty")

    table = tmp_path / "empty_table.json"
    table.write_text("[]")
    code, out, err = invoke(capsys, "info", f"wreath:{table}")
    assert code == 2 and out == ""
    assert err.startswith("error: invalid multiplication table: q_table is empty")


def test_finite_group_without_lattice(tmp_path, capsys):
    # n = 0: the group is C2 itself, so its phi entries are 0x0 and every
    # element is torsion
    spec = tmp_path / "c2.json"
    spec.write_text(json.dumps({
        "q_size": 2, "q_table": [[0, 1], [1, 0]], "n": 0, "phi": [[], []],
        "coc": [[[], []], [[], []]], "generators": {"a": {"q": 1, "a": []}}}))
    assert invoke(capsys, "validate", str(spec)) == (0, "valid=true\n", "")

    code, out, err = invoke(capsys, "info", f"spec:{spec}")
    assert code == 0 and err == ""
    lines = out.splitlines()
    for line in ("abelianization=C2", "torsion_free=false", "center_rank=0"):
        assert line in lines

    code, out, err = invoke(capsys, "witness", f"spec:{spec}", "a")
    assert code == 0 and err == ""
    cert = json.loads(out)
    assert cert["length"] == 2 and cert["verified"] is True

    code, out, err = invoke(capsys, "identity", f"spec:{spec}")
    assert code == 0 and err == ""
    assert {"mode=universal", "verified=true"} <= set(out.splitlines())


def test_usage_errors(capsys):
    assert run([]) == 2
    capsys.readouterr()
    assert run(["decide"]) == 2
    capsys.readouterr()
    with_help = run(["--help"])
    capsys.readouterr()
    assert with_help == 0


def test_theorem_violation_exit_code(capsys, monkeypatch):
    monkeypatch.setattr("gentorsion.gentor.verify_identity_universal", lambda *a: False)
    code, out, err = invoke(capsys, "identity", "promislow")
    assert code == 3
    assert "internal invariant violation:" in err
