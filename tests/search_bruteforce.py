"""The level-by-level bounded search, kept as an oracle.

This is the breadth-first search ``gen_order_search`` once ran: it builds
every level up to ``max_k`` and tests the identity in each level whose
length the abelianization lower bound divides.  It needs no argument
beyond "the first state reached is reached by the least sequence", so the
tests compare the half-depth, lower-bound-stride search against it.
Every level is kept, so cost grows like |ball|^max_k; keep the cases small.

The ball and the conjugates are built here, on every call, the way the
search built them before it kept a ball per group: a breadth-first walk
over the generators and their inverses, and ``conjugate`` for each ball
element.  So the stored ball, its reused inverses and the odd-length early
stop of ``gentor.gen_order_search`` are all checked against code they do
not share.
"""

from gentorsion.errors import GroupInputError, TheoremViolationError
from gentorsion.gentor import WitnessCertificate, _verify_product, conjugate


def generator_ball(G, radius: int):
    """Labeled ball of word length <= radius, breadth-first, deduplicated."""
    letters = []
    for name, e in G.generators:
        letters.append((name, e))
        letters.append((f"{name}^-1", G.inv(e)))
    seen = {G.identity()}
    frontier = [("1", G.identity())]
    out = [("1", G.identity())]
    for _ in range(radius):
        new_frontier = []
        for w, e in frontier:
            for lw, le in letters:
                p = G.mul(e, le)
                if p in seen:
                    continue
                seen.add(p)
                pw = lw if w == "1" else f"{w}*{lw}"
                new_frontier.append((pw, p))
                out.append((pw, p))
        frontier = new_frontier
    return out


def conjugate_set(G, g, radius: int):
    """Distinct conjugates g^x for x in the ball, first word wins."""
    out = []
    seen = set()
    for w, x in generator_ball(G, radius):
        c = conjugate(G, g, x)
        if c in seen:
            continue
        seen.add(c)
        out.append((w, x, c))
    return out


def gen_order_search(G, g, max_k: int, radius: int):
    """Least k <= max_k with a trivial product of k conjugates, or None."""
    if radius < 0:
        raise GroupInputError(f"radius must be >= 0, got {radius}")
    if max_k < 1:
        raise GroupInputError(f"max_k must be >= 1, got {max_k}")
    lb = G.abelianization().order_of(G.ab_vector(g))
    if lb is None:
        return None

    conjugates = conjugate_set(G, g, radius)
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
