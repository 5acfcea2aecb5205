"""Workload ``metab_structure``: cold K(p^n, p^m) structure questions.

Every request builds its group from scratch and answers the full ``info``
set, so the torsion and centre loops and their Smith-form solves dominate.
Work moved into group construction shows here.
"""

from __future__ import annotations

from dataclasses import replace

from common import OK, Request, fail

NAME = "metab_structure"
TRACE_CYCLES = 1

# (p, n, m, requests per cycle): weighted toward small groups, and every
# group appears in each cycle of 110 requests.
SIZES = (
    (2, 1, 1, 91),
    (2, 1, 2, 6),
    (2, 2, 1, 6),
    (3, 1, 1, 4),
    (2, 2, 2, 1),
    (2, 1, 3, 1),
    (5, 1, 1, 1),
)


def build(gt):
    return {"gt": gt}


def _expected(p, n, m):
    # G^ab = C_N x C_N with N = p^(n+m); the group is torsion-free with
    # trivial centre, and its generalized exponent is exactly N.
    N = p ** (n + m)
    return ((N, N), 0, True, True, (N, N, True))


def make_cycle(rng, index):
    requests = []
    for p, n, m, count in SIZES:
        group = f"K:{p},{n},{m}"
        requests += [Request("", "info", group, (p, n, m), _expected(p, n, m))] * count
    rng.shuffle(requests)
    return [replace(r, rid=f"c{index}.{i}:info:{r.group}") for i, r in enumerate(requests)]


def execute(state, request):
    gt = state["gt"]
    K = gt.build_K_group(*request.args)
    ab = K.abelianization()
    bounds = gt.gen_exponent_bounds(K)
    return (
        ab.invariant_factors,
        ab.free_rank,
        K.is_torsion_free(),
        K.has_trivial_center(),
        (bounds.lower, bounds.upper, bounds.exact),
    )


def check(state, request, answer):
    if answer != request.expect:
        return fail(f"answered {answer}, expected {request.expect}")
    return OK
