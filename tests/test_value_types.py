"""Value types: immutable records with the public fields, constructors
and reprs of the API, and namedtuple's behaviour (``_fields``,
``_replace``, pickling under every protocol, copying, tuple equality and
hashing); class-sensitive word nodes; and an import of the package that
makes no namedtuple and loads none of the heavy standard-library
modules."""

import copy
import os
import pickle
import subprocess
import sys
from collections import namedtuple

import pytest
from hypothesis import example, given, settings, strategies as st

from gentorsion.catalog import FreeAbelExtInput, build_casolo_gamma, build_promislow
from gentorsion.extgroup import ExtElement, ExtensionGroup, validate_extension
from gentorsion.gentor import ExponentBounds, WitnessCertificate, gen_exponent_bounds, witness_construct
from gentorsion.intlin import IntMatrix, cokernel_structure, smith_normal_form
from gentorsion.metab import build_K
from gentorsion.words import Comm, Conj, Gen, Ident, Mul, Pow, _Node, parse_word, print_word

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def samples():
    """One instance of every value type, paired with its field names in order."""
    P = ExtensionGroup(build_promislow(), name="promislow")
    x = dict(P.generators)["x"]
    gamma = build_casolo_gamma()
    K = build_K(2, 1, 1)
    x_word = Gen("x")
    return [
        (P.spec, ("q_size", "q_table", "n", "phi", "coc", "generator_names")),
        (validate_extension(P.spec), ("failures",)),
        (x, ("q", "a")),
        (gen_exponent_bounds(P), ("lower", "upper", "exact")),
        (witness_construct(P, x, "x"), ("base", "conjugators", "words", "length", "verified")),
        (smith_normal_form(IntMatrix([[2, 4], [6, 8]])), ("U", "D", "V")),
        (cokernel_structure(IntMatrix([[2, 4], [6, 8]])),
         ("invariant_factors", "free_rank", "to_canonical", "moduli", "selected", "transform")),
        (dict(K.generators)["x"], ("key", "alpha", "beta", "coords")),
        (FreeAbelExtInput.build(2, [[0, 1], [1, 0]], [1, 1]), ("rank", "q_table", "images")),
        (dict(gamma.generators)["e"].ring, ("items",)),
        (dict(gamma.generators)["e"], ("ring", "g", "h")),
        (x_word, ("name",)),
        (Ident(), ()),
        (Mul((x_word, x_word)), ("factors",)),
        (Pow(x_word, 2), ("base", "exp")),
        (Conj(x_word, x_word), ("base", "by")),
        (Comm(x_word, x_word), ("left", "right")),
    ]


SAMPLES = samples()
IDS = [type(v).__name__ for v, _ in SAMPLES]


def test_every_value_type_is_covered():
    assert set(IDS) == {
        "ExtensionSpec", "ValidationReport", "ExtElement", "ExponentBounds",
        "WitnessCertificate", "SmithDecomposition", "AbelianStructure", "MetabElement",
        "FreeAbelExtInput", "GroupRingElement", "GammaElement",
        "Gen", "Ident", "Mul", "Pow", "Conj", "Comm",
    }


@pytest.mark.parametrize("value, fields", SAMPLES, ids=IDS)
def test_positional_constructor_rebuilds_an_equal_value(value, fields):
    rebuilt = type(value)(*(getattr(value, f) for f in fields))
    assert rebuilt == value and hash(rebuilt) == hash(value)
    assert type(rebuilt) is type(value)


@pytest.mark.parametrize("value, fields", SAMPLES, ids=IDS)
def test_fields_cannot_be_assigned(value, fields):
    for name in fields or ("name",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)


@pytest.mark.parametrize("value, fields", SAMPLES, ids=IDS)
def test_fields_and_keyword_constructor(value, fields):
    cls = type(value)
    assert cls._fields == fields
    assert cls(**dict(zip(fields, value))) == value
    assert not hasattr(value, "__dict__")
    # fields are read through namedtuple's own C-level accessor
    reference = namedtuple(cls.__name__, fields)
    assert all(type(getattr(cls, f)) is type(getattr(reference, f)) for f in fields)


@pytest.mark.parametrize("value, fields", SAMPLES, ids=IDS)
def test_wrong_arity_is_a_type_error(value, fields):
    with pytest.raises(TypeError):
        type(value)(*value, None)
    if fields:
        with pytest.raises(TypeError):
            type(value)(*value[:-1])


@pytest.mark.parametrize("value, fields", SAMPLES, ids=IDS)
def test_repr_matches_namedtuple(value, fields):
    assert repr(value) == repr(namedtuple(type(value).__name__, fields)(*value))


@pytest.mark.parametrize("value, fields", SAMPLES, ids=IDS)
def test_replace(value, fields):
    assert value._replace() == value
    marker = ("replaced",)  # a tuple, which Mul keeps as it is
    for i, name in enumerate(fields):
        changed = value._replace(**{name: marker})
        assert type(changed) is type(value)
        assert getattr(changed, name) is marker
        assert changed[:i] + changed[i + 1:] == value[:i] + value[i + 1:]
    with pytest.raises(ValueError, match="unexpected field names"):
        value._replace(no_such_field=1)


@pytest.mark.parametrize("value, fields", SAMPLES, ids=IDS)
def test_pickle_and_copy_round_trips(value, fields):
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(0, pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(value), copy.deepcopy(value)]
    for other in copies:
        assert other == value and hash(other) == hash(value)
        assert type(other) is type(value)


@pytest.mark.parametrize("value, fields", SAMPLES, ids=IDS)
def test_equality_and_hash_against_the_plain_tuple(value, fields):
    plain = tuple(value)
    if isinstance(value, _Node):  # word nodes also compare their class
        assert value != plain and plain != value
    else:
        assert value == plain and plain == value and hash(value) == hash(plain)


def test_certificate_positional_constructor():
    P = ExtensionGroup(build_promislow(), name="promislow")
    cert = witness_construct(P, dict(P.generators)["x"], "x")
    copy = WitnessCertificate(cert.base, cert.conjugators, cert.words, cert.length, True)
    assert copy == cert


def test_reprs():
    assert repr(Gen("x")) == "Gen(name='x')"
    assert repr(Ident()) == "Ident()"
    assert repr(Pow(Gen("x"), -1)) == "Pow(base=Gen(name='x'), exp=-1)"
    assert repr(ExtElement(1, (0, 2))) == "ExtElement(q=1, a=(0, 2))"
    assert repr(ExponentBounds(4, 4, True)) == "ExponentBounds(lower=4, upper=4, exact=True)"


def test_word_nodes_compare_with_their_class():
    a, b = Gen("a"), Gen("b")
    assert Conj(a, b) != Comm(a, b) and not Conj(a, b) == Comm(a, b)
    assert hash(Conj(a, b)) != hash(Comm(a, b))
    assert Pow(a, 2) != Conj(a, 2)
    assert Gen("x") != ("x",) and ("x",) != Gen("x")
    assert hash(Gen("x")) != hash(("x",))
    assert Ident() != () and Mul((a, b)) != Comm(a, b)
    assert Mul([a, b]) == Mul((a, b)) and Mul([a, b]).factors == (a, b)
    assert {Conj(a, b): 1, Comm(a, b): 2}[Comm(a, b)] == 2


def test_ident_is_truthy():
    assert Ident()
    assert bool(Ident()) is True


# -- print/parse round trip --------------------------------------------------

names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True)
trees = st.recursive(
    st.one_of(names.map(Gen), st.just(Ident())),
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(Mul),
        st.builds(Pow, inner, st.integers(-12, 12)),
        st.builds(Conj, inner, inner),
        st.builds(Comm, inner, inner),
    ),
    max_leaves=12,
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(trees)
@example(Conj(Gen("x"), Ident()))  # printed "x^(1)"; "x^1" would read as a power
def test_parse_inverts_print(tree):
    assert parse_word(print_word(tree)) == tree


# -- import graph --------------------------------------------------------------

HEAVY = ("dataclasses", "typing", "inspect", "importlib.resources")


def test_cli_import_loads_no_heavy_module():
    """Without site packages, importing the CLI loads none of the modules
    whose import dominated a CLI run's start."""
    code = (f"import sys; sys.path.insert(0, {SRC!r}); import gentorsion.cli; "
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == []


def test_import_makes_no_namedtuple_call():
    """``import gentorsion.cli`` succeeds while ``collections.namedtuple``
    raises for every call made from the package's own modules."""
    code = "\n".join([
        "import sys",
        f"sys.path.insert(0, {SRC!r})",
        "import collections",
        "real = collections.namedtuple",
        "def refuse(*args, **kwargs):",
        "    if sys._getframe(1).f_globals['__name__'].startswith('gentorsion'):",
        "        raise AssertionError('namedtuple called from gentorsion')",
        "    return real(*args, **kwargs)",
        "collections.namedtuple = refuse",
        "import gentorsion.cli",
    ])
    subprocess.run([sys.executable, "-S", "-c", code], check=True)
