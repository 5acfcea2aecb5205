"""The bounded order search against the level-by-level brute force.

``gen_order_search`` tests only lengths divisible by the abelianization
lower bound, returns early when that bound exceeds ``max_k``, and meets
two half-depth levels in the middle.  ``search_bruteforce`` builds every
level up to ``max_k``; both must return the same certificate (words,
conjugators and length) or both None, and the fast search must do less
work.  The brute force builds its own ball and conjugates on every call,
so the ball that ``gen_order_search`` keeps per group, grown across radii
in whatever order the cases arrive, is checked too.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from gentorsion.catalog import (
    build_dihedral_infinite,
    build_K_group,
    build_klein_bottle,
    build_promislow,
)
from gentorsion.extgroup import ExtensionGroup
from gentorsion.gentor import (
    SplitMix64,
    _generator_ball,
    conjugate,
    gen_order_lower_bound,
    gen_order_search,
    power,
)
from gentorsion.words import eval_word, parse_word

import search_bruteforce as brute

BACKENDS = {
    "promislow": lambda: ExtensionGroup(build_promislow(), name="promislow"),
    "klein": lambda: ExtensionGroup(build_klein_bottle(), name="klein"),
    "dinf": lambda: ExtensionGroup(build_dihedral_infinite(), name="dinf"),
    "K:2,1,1": lambda: build_K_group(2, 1, 1),
}


@functools.cache
def backend(name):
    return BACKENDS[name]()


def random_word(G, rng):
    names = [n for n, _ in G.generators]
    letters = []
    for _ in range(1 + rng.randrange(6)):
        name = names[rng.randrange(len(names))]
        letters.append(name if rng.randrange(2) else f"{name}^-1")
    return "*".join(letters)


def assert_same_search(G, g, max_k, radius):
    fast = gen_order_search(G, g, max_k, radius)
    slow = brute.gen_order_search(G, g, max_k, radius)
    if slow is None:
        assert fast is None
        return False
    assert fast is not None
    assert fast.words == slow.words
    assert fast.conjugators == slow.conjugators
    assert fast.length == slow.length
    assert fast == slow
    return True


@pytest.mark.parametrize("name", BACKENDS)
def test_search_agrees_with_brute_force(name):
    G = backend(name)
    rng = SplitMix64(40701 + len(name))
    found = 0
    cases = 60
    for _ in range(cases):
        word = random_word(G, rng)
        g = eval_word(G, parse_word(word))
        max_k = 1 + rng.randrange(8)
        radius = rng.randrange(3)
        found += assert_same_search(G, g, max_k, radius)
    # both outcomes are exercised on every backend
    assert 0 < found < cases


letters = st.lists(st.tuples(st.integers(0, 7), st.booleans()), min_size=1, max_size=6)
search_settings = settings(derandomize=True, deadline=None, max_examples=25)


@pytest.mark.parametrize("name", BACKENDS)
def test_search_agrees_with_brute_force_property(name):
    G = backend(name)
    gens = [e for _, e in G.generators]

    @search_settings
    @given(letters, st.integers(1, 8), st.integers(0, 2))
    def check(w, max_k, radius):
        g = G.identity()
        for index, inverse in w:
            e = gens[index % len(gens)]
            g = G.mul(g, G.inv(e) if inverse else e)
        assert_same_search(G, g, max_k, radius)

    check()


@pytest.mark.parametrize("name", BACKENDS)
def test_stored_ball_is_the_breadth_first_ball(name):
    G = BACKENDS[name]()
    one = G.identity()
    for radius in (1, 0, 3, 2, 3):
        ball = _generator_ball(G, radius)
        assert [(w, x) for w, x, _ in ball] == brute.generator_ball(G, radius)
        assert all(G.mul(x, x_inv) == one for _, x, x_inv in ball)


# -- cost ------------------------------------------------------------------


class MulCounter:
    """A backend proxy that counts ``mul`` calls, conjugations included.

    The search keeps its ball in the proxy's own ``vars``, so every
    counter starts without one, whatever ran before on the wrapped group.
    """

    conj = conjugate
    pow = power

    def __init__(self, G):
        self.G = G
        self.generators = G.generators
        self.muls = 0

    def __getattr__(self, attr):
        return getattr(self.G, attr)

    def mul(self, g, h):
        self.muls += 1
        return self.G.mul(g, h)


@pytest.fixture(scope="module")
def k311():
    G = build_K_group(3, 1, 1)
    G.abelianization()
    return G


def test_search_below_lower_bound_makes_no_products(k311):
    x = k311.collect([("x", 1)])
    assert gen_order_lower_bound(k311, x) == 9
    counter = MulCounter(k311)
    assert gen_order_search(counter, x, max_k=8, radius=2) is None
    assert counter.muls == 0


def test_search_makes_fewer_products_than_brute_force(k311):
    x = k311.collect([("x", 1)])
    fast, slow = MulCounter(k311), MulCounter(k311)
    cert = gen_order_search(fast, x, max_k=9, radius=1)
    assert cert == brute.gen_order_search(slow, x, max_k=9, radius=1)
    assert cert.length == 9
    assert fast.muls < slow.muls


def test_second_search_makes_no_ball_products(k311):
    x = k311.collect([("x", 1)])
    ball_only = MulCounter(k311)
    _generator_ball(ball_only, 2)
    counter = MulCounter(k311)
    first = gen_order_search(counter, x, max_k=9, radius=2)
    ball = vars(counter)["_ball"]
    size = len(ball.entries)
    cold = counter.muls
    second = gen_order_search(counter, x, max_k=9, radius=2)
    assert second == first
    assert vars(counter)["_ball"] is ball and len(ball.entries) == size
    assert counter.muls - cold == cold - ball_only.muls


def test_smaller_radius_builds_nothing_new(k311):
    x = k311.collect([("x", 1)])
    wide, narrow = MulCounter(k311), MulCounter(k311)
    gen_order_search(wide, x, max_k=9, radius=2)
    gen_order_search(narrow, x, max_k=9, radius=1)
    size = len(vars(wide)["_ball"].entries)
    before = wide.muls, narrow.muls
    assert gen_order_search(wide, x, max_k=9, radius=1) == gen_order_search(
        narrow, x, max_k=9, radius=1
    )
    assert len(vars(wide)["_ball"].entries) == size
    assert wide.muls - before[0] == narrow.muls - before[1]


def test_odd_length_search_stops_early(k311):
    # radius 1, k = 9: 8 products build the ball and its inverses, 8 form
    # the conjugates (x^1 is x itself), of which 3 are distinct and make
    # up level 1 as they are.  The certificate 1^3 y^3 (y^-1)^3 has three
    # runs: 3 products form the z's, 2 form x^3 and 5 re-multiply it.
    # Levels 2 to 5 take the other 122, as level 5 stops at its first
    # state whose inverse lies in level 4.
    x = k311.collect([("x", 1)])
    counter = MulCounter(k311)
    cert = gen_order_search(counter, x, max_k=9, radius=1)
    assert cert.length == 9
    assert counter.muls == 148
