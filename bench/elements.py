"""Workload ``element_queries``: a warm library session.

Set-up builds ten groups once and computes their abelianizations, so the
Smith-form solver is idle while requests run.  Each request parses and
evaluates a seeded word and asks one engine question about it.
"""

from __future__ import annotations

from dataclasses import replace

from common import OK, Request, fail
from oracle import (
    C3_TABLE,
    GENERATORS,
    S3_TABLE,
    ab_is_finite,
    ab_order,
    check_certificate,
    random_word,
    torsion_word,
)

NAME = "element_queries"
TRACE_CYCLES = 10

LATTICE = (
    "promislow", "klein", "dinf", "wreath_c3", "wreath_s3",
    "freeabext_c3", "promislow_x_klein", "K:2,1,1", "K:3,1,1",
)
EXTENSIONS = LATTICE[:7]
EXPONENTS = {"promislow": 4, "dinf": 2, "K:2,1,1": 4, "K:3,1,1": 9}
# [G:A], the number of transversal conjugators
INDEX = {"promislow": 4, "klein": 2, "dinf": 2, "wreath_c3": 3, "wreath_s3": 6,
         "freeabext_c3": 3, "promislow_x_klein": 8}
SAMPLES = 4

# (kind, group, requests per cycle); the multiset is the same in every
# cycle, the seed picks the words, the order and the sampling seeds.
MIX = (
    [("decide", g, 4) for g in LATTICE]
    + [("witness", g, 3 if g in ("promislow", "K:2,1,1") else 2) for g in LATTICE]
    + [("exponent", g, 1) for g in EXPONENTS]
    + [("identity_universal", g, 1) for g in EXTENSIONS]
    + [("identity_sampled", g, n) for g, n in (("promislow", 1), ("K:2,1,1", 1), ("gamma", 2))]
)


def build(gt):
    EG = gt.ExtensionGroup
    groups = {
        "promislow": EG(gt.build_promislow(), name="promislow"),
        "klein": EG(gt.build_klein_bottle(), name="klein"),
        "dinf": EG(gt.build_dihedral_infinite(), name="dinf"),
        "wreath_c3": EG(gt.build_wreath(C3_TABLE), name="wreath_c3"),
        "wreath_s3": EG(gt.build_wreath(S3_TABLE), name="wreath_s3"),
        "freeabext_c3": EG(
            gt.build_free_abelianized_extension(gt.FreeAbelExtInput.build(2, C3_TABLE, [1, 1])),
            name="freeabext_c3",
        ),
        "promislow_x_klein": EG(
            gt.direct_product(gt.build_promislow(), gt.build_klein_bottle()),
            name="promislow_x_klein",
        ),
        "K:2,1,1": gt.build_K_group(2, 1, 1),
        "K:3,1,1": gt.build_K_group(3, 1, 1),
        "gamma": gt.build_casolo_gamma(),
    }
    for name in LATTICE:
        groups[name].abelianization()
    return {"gt": gt, "groups": groups}


def make_cycle(rng, index):
    requests = []
    for kind, group, count in MIX:
        for _ in range(count):
            requests.append(_request(rng, kind, group))
    rng.shuffle(requests)
    return [replace(r, rid=f"c{index}.{i}:{r.kind}:{r.group}") for i, r in enumerate(requests)]


def _request(rng, kind, group):
    if kind == "decide":
        word, sums = random_word(rng, GENERATORS[group])
        return Request("", kind, group, (word,), ab_order(group, sums) is not None)
    if kind == "witness":
        word, sums = torsion_word(rng, group)
        return Request("", kind, group, (word,), ab_order(group, sums))
    if kind == "exponent":
        e = EXPONENTS[group]
        return Request("", kind, group, (), (e, e, True))
    if kind == "identity_universal":
        # a shuffled transversal and a multiple of the holonomy exponent:
        # the conjugates of a translation commute, so the identity holds
        # exactly when G^ab is finite
        multiple = rng.randint(1, 3)
        order = list(range(INDEX[group]))
        rng.shuffle(order)
        return Request("", kind, group, (multiple, tuple(order)), ab_is_finite(group))
    choice = rng.randrange(3)
    return Request("", kind, group, (SAMPLES, rng.randrange(1 << 30), choice), True)


def execute(state, request):
    gt = state["gt"]
    G = state["groups"][request.group]
    kind = request.kind
    if kind == "decide":
        g = gt.eval_word(G, gt.parse_word(request.args[0]))
        return gt.is_generalized_torsion(G, g)
    if kind == "witness":
        word = request.args[0]
        g = gt.eval_word(G, gt.parse_word(word))
        return g, gt.witness_construct(G, g, base_word=word)
    if kind == "exponent":
        return gt.gen_exponent_bounds(G)
    if kind == "identity_universal":
        multiple, order = request.args
        reps = G.transversal()
        conjugators = [reps[i] for i in order]
        return gt.verify_identity_universal(G, multiple * G.holonomy_exponent(), conjugators)
    samples, seed, choice = request.args
    if request.group == "gamma":
        conjugators = G.identity_conjugators(G.sigma_candidates()[choice])
        return gt.verify_identity_sampled(G, 1, conjugators, samples, seed)
    k, conjugators = gt.positive_identity_witnesses(G)
    return gt.verify_identity_sampled(G, k, conjugators, samples, seed)


def check(state, request, answer):
    kind = request.kind
    if kind == "witness":
        g, cert = answer
        G = state["groups"][request.group]
        return check_certificate(state["gt"], G, g, cert, request.expect)
    if kind == "exponent":
        got = (answer.lower, answer.upper, answer.exact)
        return OK if got == request.expect else fail(f"bounds {got}, expected {request.expect}")
    if answer is not request.expect:
        return fail(f"answered {answer!r}, expected {request.expect!r}")
    return OK
