"""Workload ``order_search``: bounded minimal-order searches.

A fixed table of 25 searches: 13 find a certificate and 12 exhaust.  With
an odd count, p50 and p90 land inside one entry's block of samples rather
than between two entries.  Every exhausted entry has max_k below the abelianization lower bound, so
``None`` is the only correct answer, and each found length is the exact
generalized order.  The seed only orders the table within each cycle.
"""

from __future__ import annotations

from dataclasses import replace

from common import OK, Request, fail
from oracle import check_certificate

NAME = "order_search"
TRACE_CYCLES = 2

# (group, word, max_k, radius, expected length or None)
TABLE = (
    ("promislow", "x", 8, 3, 4),
    ("promislow", "x*y", 4, 2, 4),
    ("promislow", "[x,y]", 4, 2, 4),
    ("promislow", "x^2", 2, 2, 2),
    ("promislow", "y", 4, 2, 4),
    ("K:2,1,1", "x", 4, 2, 4),
    ("K:2,1,1", "x*y", 4, 2, 4),
    ("K:3,1,1", "x", 9, 1, 9),
    ("klein", "x", 4, 2, 2),
    ("klein", "x^3", 2, 1, 2),
    ("dinf", "a", 2, 1, 2),
    ("dinf", "b", 2, 1, 2),
    ("dinf", "a*b", 2, 1, 2),
    ("K:3,1,1", "x", 6, 2, None),
    ("K:3,1,1", "x", 5, 2, None),
    ("K:3,1,1", "x", 3, 3, None),
    ("K:3,1,1", "x*y", 4, 2, None),
    ("promislow", "y", 3, 2, None),
    ("promislow", "x*y", 3, 3, None),
    ("promislow", "x", 2, 3, None),
    ("K:2,1,1", "x", 3, 2, None),
    ("K:2,1,1", "y^-1", 3, 3, None),
    ("K:2,1,1", "x*y^2", 2, 2, None),
    ("klein", "x", 1, 2, None),
    ("dinf", "a", 1, 2, None),
)

# order of the word's image in G^ab, which divides every certificate length
LOWER_BOUND = {
    ("promislow", "x"): 4, ("promislow", "x*y"): 4, ("promislow", "[x,y]"): 1,
    ("promislow", "x^2"): 2, ("promislow", "y"): 4, ("K:2,1,1", "x"): 4,
    ("K:2,1,1", "x*y"): 4, ("K:3,1,1", "x"): 9, ("klein", "x"): 2, ("klein", "x^3"): 2,
    ("dinf", "a"): 2, ("dinf", "b"): 2, ("dinf", "a*b"): 2,
}


def build(gt):
    EG = gt.ExtensionGroup
    groups = {
        "promislow": EG(gt.build_promislow(), name="promislow"),
        "klein": EG(gt.build_klein_bottle(), name="klein"),
        "dinf": EG(gt.build_dihedral_infinite(), name="dinf"),
        "K:2,1,1": gt.build_K_group(2, 1, 1),
        "K:3,1,1": gt.build_K_group(3, 1, 1),
    }
    for G in groups.values():
        G.abelianization()
    return {"gt": gt, "groups": groups}


def make_cycle(rng, index):
    requests = [
        Request("", "search", group, (word, max_k, radius), length)
        for group, word, max_k, radius, length in TABLE
    ]
    rng.shuffle(requests)
    return [
        replace(r, rid=f"c{index}.{i}:search:{r.group}:{r.args[0]}:k{r.args[1]}r{r.args[2]}")
        for i, r in enumerate(requests)
    ]


def execute(state, request):
    gt = state["gt"]
    G = state["groups"][request.group]
    word, max_k, radius = request.args
    g = gt.eval_word(G, gt.parse_word(word))
    return g, gt.gen_order_search(G, g, max_k=max_k, radius=radius)


def check(state, request, answer):
    g, cert = answer
    if request.expect is None:
        return OK if cert is None else fail(f"found length {cert.length}, expected none")
    G = state["groups"][request.group]
    lower = LOWER_BOUND[(request.group, request.args[0])]
    return check_certificate(state["gt"], G, g, cert, lower, request.expect)


def describe(state, loop):
    found = sum(1 for row in TABLE if row[4] is not None)
    return {"found_share": found / len(TABLE), "exhausted_share": 1 - found / len(TABLE)}
