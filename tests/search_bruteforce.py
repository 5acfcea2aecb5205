"""The level-by-level bounded search, kept as an oracle.

This is the breadth-first search ``gen_order_search`` once ran: it builds
every level up to ``max_k`` and tests the identity in each level whose
length the abelianization lower bound divides.  It needs no argument
beyond "the first state reached is reached by the least sequence", so the
tests compare the half-depth, lower-bound-stride search against it.
Every level is kept, so cost grows like |ball|^max_k; keep the cases small.
"""

from gentorsion.errors import GroupInputError, TheoremViolationError
from gentorsion.gentor import WitnessCertificate, _conjugate_set, _verify_product


def gen_order_search(G, g, max_k: int, radius: int):
    """Least k <= max_k with a trivial product of k conjugates, or None."""
    if radius < 0:
        raise GroupInputError(f"radius must be >= 0, got {radius}")
    if max_k < 1:
        raise GroupInputError(f"max_k must be >= 1, got {max_k}")
    lb = G.abelianization().order_of(G.ab_vector(g))
    if lb is None:
        return None

    conjugates = _conjugate_set(G, g, radius)
    ident = G.identity()
    # parents[k-1][state] = (state at level k-1, conjugate index) for the
    # first (lexicographically least) way to reach state with k factors
    parents = []
    current = {ident: None}
    found_k = None
    for k in range(1, max_k + 1):
        nxt = {}
        for state in current:
            for i, (_, _, c) in enumerate(conjugates):
                p = G.mul(state, c)
                if p not in nxt:
                    nxt[p] = (state, i)
        parents.append(nxt)
        current = nxt
        if k % lb == 0 and ident in nxt:
            found_k = k
            break
    if found_k is None:
        return None

    path = []
    state = ident
    for k in range(found_k - 1, -1, -1):
        prev_state, idx = parents[k][state]
        path.append(idx)
        state = prev_state
    path.reverse()
    words = tuple(conjugates[i][0] for i in path)
    xs = tuple(conjugates[i][1] for i in path)
    if not _verify_product(G, (g,), xs):
        raise TheoremViolationError("search reconstruction does not multiply to the identity")
    return WitnessCertificate(g, xs, words, found_k, True)
