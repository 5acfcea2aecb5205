"""Word grammar: parse/print round trips and evaluation."""

import pytest

from gentorsion.errors import GroupInputError
from gentorsion.words import (
    MAX_DEPTH,
    Comm,
    Conj,
    Gen,
    Ident,
    Mul,
    Pow,
    WordSyntaxError,
    eval_word,
    parse_word,
    print_word,
    run_word,
)
from gentorsion.catalog import build_klein_bottle
from gentorsion.extgroup import ExtensionGroup
from gentorsion.gentor import SplitMix64


def test_parse_examples():
    assert parse_word("1") == Ident()
    assert parse_word("x") == Gen("x")
    assert parse_word("x*y") == Mul((Gen("x"), Gen("y")))
    assert parse_word("x^-1") == Pow(Gen("x"), -1)
    assert parse_word("x^y") == Conj(Gen("x"), Gen("y"))
    assert parse_word("[x,y]") == Comm(Gen("x"), Gen("y"))
    assert parse_word("(x*y)^2") == Pow(Mul((Gen("x"), Gen("y"))), 2)
    assert parse_word("[x^2,y*x]") == Comm(Pow(Gen("x"), 2), Mul((Gen("y"), Gen("x"))))


def test_parse_precedence():
    # power binds tighter than product
    assert parse_word("x*y^2") == Mul((Gen("x"), Pow(Gen("y"), 2)))
    # conjugation exponent must be atomic, products need parens
    assert parse_word("x^(y*z)") == Conj(Gen("x"), Mul((Gen("y"), Gen("z"))))
    # left-to-right chains flatten
    assert parse_word("x*y*z") == Mul((Gen("x"), Gen("y"), Gen("z")))


def test_parse_whitespace():
    assert parse_word(" x * y ") == parse_word("x*y")
    assert parse_word("x ^ 2") == parse_word("x^2")


def test_syntax_errors_carry_position():
    for text in ["", "x^", "(x", "x)", "*x", "x*", "[x y]", "x^^2", "2*x", "x$", "[x,]"]:
        with pytest.raises(WordSyntaxError) as info:
            parse_word(text)
        assert "position" in str(info.value)


@pytest.mark.parametrize("text", ["x^\u00b2", "x^\u0663", "x^2\u00b2"])
def test_only_ascii_digits_are_integers(text):
    # str.isdigit accepts these, int() does not; they are syntax errors
    with pytest.raises(WordSyntaxError) as info:
        parse_word(text)
    assert info.value.position == len(text) - 1


def wrapped(k):
    """A word of depth k that alternates parentheses and carets, so the
    brackets open around any token stay near k / 2."""
    word = "x^y" if k % 2 else "x"
    for _ in range(k // 2):
        word = f"({word})^y"
    return word


def conjugators(k):
    """A word of depth k whose depth is in its nested conjugators."""
    word = "x^y" if k % 2 else "y"
    for _ in range(k // 2):
        word = f"x^({word})"
    return word


# depth k words, and where a word of depth MAX_DEPTH + 1 passes the bound
DEEP = {
    "parentheses": (lambda k: "(" * k + "x" + ")" * k, lambda text: MAX_DEPTH),
    "commutators": (lambda k: "[x," * k + "y" + "]" * k, lambda text: 3 * MAX_DEPTH),
    "conjugates": (lambda k: "x" + "^x" * k, lambda text: 1 + 2 * MAX_DEPTH),
    "powers": (lambda k: "x" + "^-1" * k, lambda text: 1 + 3 * MAX_DEPTH),
    "wrapped": (wrapped, lambda text: len(text) - 2),
    "conjugators": (conjugators, lambda text: 1),
    "bracketed chain": (lambda k: "[x,y" + "^x" * (k - 1) + "]", lambda text: 0),
    "product": (lambda k: "(x*y" + "^x" * (k - 1) + ")", lambda text: 0),
}


@pytest.mark.parametrize("kind", DEEP)
def test_depth_bound(kind):
    deep, passed_at = DEEP[kind]
    tree = parse_word(deep(MAX_DEPTH))
    assert parse_word(print_word(tree)) == tree
    text = deep(MAX_DEPTH + 1)
    with pytest.raises(WordSyntaxError, match="deeper than") as info:
        parse_word(text)
    assert info.value.position == passed_at(text)
    with pytest.raises(WordSyntaxError):
        parse_word(deep(3000))


def test_long_flat_words_are_shallow():
    # depth counts nesting, not length
    for factor in ("(x)", "[x,y]", "x^y^-1"):
        text = "*".join([factor] * 3 * MAX_DEPTH)
        assert parse_word(text) == Mul((parse_word(factor),) * 3 * MAX_DEPTH)


def test_deep_words_evaluate():
    G = ExtensionGroup(build_klein_bottle(), name="klein")
    gens = dict(G.generators)
    x, y = gens["x"], gens["y"]
    comm = y
    for _ in range(50):
        comm = G.mul(G.mul(G.inv(x), G.inv(comm)), G.mul(x, comm))
    assert eval_word(G, parse_word(DEEP["commutators"][0](50))) == comm
    # conjugation by y inverts x
    assert eval_word(G, parse_word(DEEP["conjugates"][0](50).replace("^x", "^y"))) == x
    assert eval_word(G, parse_word(wrapped(50))) == G.inv(x)
    assert eval_word(G, parse_word(DEEP["parentheses"][0](50))) == x
    assert eval_word(G, parse_word(DEEP["powers"][0](MAX_DEPTH))) == x


def test_print_examples():
    assert print_word(Ident()) == "1"
    assert print_word(Mul((Gen("x"), Pow(Gen("y"), -1)))) == "x*y^-1"
    assert print_word(Conj(Gen("x"), Mul((Gen("y"), Gen("z"))))) == "x^(y*z)"
    assert print_word(Pow(Mul((Gen("x"), Gen("y"))), 3)) == "(x*y)^3"
    assert print_word(Comm(Gen("x"), Gen("y"))) == "[x,y]"


def random_tree(rng, depth):
    names = ["x", "y", "z"]
    pick = rng.randrange(6 if depth else 2)
    if pick == 0:
        return Gen(names[rng.randrange(3)])
    if pick == 1:
        return Ident()
    if pick == 2:
        k = 2 + rng.randrange(2)
        return Mul(tuple(random_tree(rng, depth - 1) for _ in range(k)))
    if pick == 3:
        e = rng.randrange(7) - 3
        return Pow(random_tree(rng, depth - 1), e)
    if pick == 4:
        return Conj(random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    return Comm(random_tree(rng, depth - 1), random_tree(rng, depth - 1))


def test_print_parse_roundtrip_random():
    rng = SplitMix64(123)
    for _ in range(200):
        tree = random_tree(rng, 3)
        assert parse_word(print_word(tree)) == tree


def test_eval_in_group():
    G = ExtensionGroup(build_klein_bottle(), name="klein")
    gens = dict(G.generators)
    x, y = gens["x"], gens["y"]
    assert eval_word(G, parse_word("x*x^-1")) == G.identity()
    assert eval_word(G, parse_word("x^y")) == G.inv(x)
    assert eval_word(G, parse_word("[x,y]")) == G.mul(G.mul(G.inv(x), G.inv(y)), G.mul(x, y))
    assert eval_word(G, parse_word("y^2")) == G.mul(y, y)
    assert eval_word(G, parse_word("y^-2*y^2")) == G.identity()


def test_eval_custom_bindings():
    G = ExtensionGroup(build_klein_bottle(), name="klein")
    gens = dict(G.generators)
    bound = eval_word(G, parse_word("g^2"), bindings={"g": gens["x"]})
    assert bound == G.pow(gens["x"], 2)
    with pytest.raises(GroupInputError):
        eval_word(G, parse_word("q"))


def test_power_zero_is_identity():
    G = ExtensionGroup(build_klein_bottle(), name="klein")
    assert eval_word(G, parse_word("x^0")) == G.identity()
    assert eval_word(G, parse_word("(x*y)^0")) == G.identity()


def test_run_word_formats_pairs():
    assert run_word([("x", 2), ("y", 0), ("y", -1)]) == "x^2*y^-1"
    assert run_word([]) == "1"
    assert parse_word(run_word([("x", 1), ("c", 3)])) == Mul((Gen("x"), Pow(Gen("c"), 3)))
