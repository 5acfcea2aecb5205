"""The former F/[R,R] builder, by Schreier word rewriting, kept as an oracle.

``schreier_build`` is what ``catalog.build_free_abelianized_extension``
ran before it read the spec off paths of the Cayley graph of Q: it spells
each transversal element, Schreier generator, conjugate and cocycle as a
word in the free generators and rewrites the word letter by letter into
the non-tree edges it crosses.  The tests compare the path builder's spec
and its rejection messages against it.  It shares the table check, the
spec type and ``validate_extension`` with the library, and nothing of the
construction.
"""

from gentorsion.errors import GroupInputError, TheoremViolationError
from gentorsion.extgroup import ExtensionSpec, point_table_failures, validate_extension


def schreier_build(inp) -> ExtensionSpec:
    """F/[R,R] for F free of rank r and R the kernel of F ->> Q.

    The lattice is R/[R,R], free abelian on the non-tree Schreier
    generators (rank |Q|(r-1)+1).  Transversal words come from a
    breadth-first Schreier tree; the point action and cocycle are obtained
    by pushing W_q^-1 b W_q and W_{qq'}^-1 W_q W_{q'} through the Schreier
    rewriting map and abelianizing.

    The table is checked first, as ``build_wreath`` checks it; the spec is
    validated once built, and a failure there is a construction bug.
    """
    r = inp.rank
    table = inp.q_table
    size = len(table)
    failures = point_table_failures(table, inp.images)
    if failures:
        raise GroupInputError("invalid multiplication table: " + "; ".join(failures[:3]))
    if r < 1:
        raise GroupInputError("free rank must be at least 1")
    if len(inp.images) != r:
        raise GroupInputError("need exactly one image per free generator")
    for q in inp.images:
        if not 0 <= q < size:
            raise GroupInputError("generator image outside the group")
    inverse = [row.index(0) for row in table]

    # breadth-first Schreier tree; transversal words as (gen, +-1) lists.
    # A tree edge (q, i) is the edge q -> q * image(f_i), recorded when it
    # first reaches a coset (read backwards for an inverse step).
    words = {0: ()}
    tree_edges = set()
    frontier = [0]
    while frontier:
        nxt = []
        for q in frontier:
            for i, img in enumerate(inp.images):
                for sgn, target in ((1, table[q][img]), (-1, table[q][inverse[img]])):
                    if target not in words:
                        words[target] = words[q] + ((i, sgn),)
                        tree_edges.add((q, i) if sgn == 1 else (target, i))
                        nxt.append(target)
        frontier = nxt
    if len(words) != size:
        raise GroupInputError("generator images do not generate the target group")

    schreier = []
    index = {}
    for q in range(size):
        for i in range(r):
            if (q, i) not in tree_edges:
                index[(q, i)] = len(schreier)
                schreier.append((q, i))
    rank = len(schreier)
    if rank != size * (r - 1) + 1:
        raise TheoremViolationError(
            f"Schreier generator count {rank} differs from |Q|(r-1)+1 = {size * (r - 1) + 1}"
        )

    def rewrite(word):
        """Abelianized Schreier rewriting; returns (vector, end coset)."""
        vec = [0] * rank
        q = 0
        for i, sgn in word:
            if sgn == 1:
                edge = (q, i)
                q = table[q][inp.images[i]]
                if edge in index:
                    vec[index[edge]] += 1
            else:
                q = table[q][inverse[inp.images[i]]]
                edge = (q, i)
                if edge in index:
                    vec[index[edge]] -= 1
        return vec, q

    def inv_word(word):
        return tuple((i, -sgn) for i, sgn in reversed(word))

    phi = []
    for q in range(size):
        cols = []
        for b_q, b_i in schreier:
            # b as a word: W_{b_q} f_i W_{target}^-1
            target = table[b_q][inp.images[b_i]]
            b_word = words[b_q] + ((b_i, 1),) + inv_word(words[target])
            conj = inv_word(words[q]) + b_word + words[q]
            vec, end = rewrite(conj)
            if end != 0:
                raise TheoremViolationError("conjugated Schreier generator left the kernel")
            cols.append(vec)
        phi.append([[cols[j][i] for j in range(rank)] for i in range(rank)])

    coc = []
    for q1 in range(size):
        row = []
        for q2 in range(size):
            walk = words[q1] + words[q2]
            vec, end = rewrite(inv_word(words[table[q1][q2]]) + walk)
            if end != 0:
                raise TheoremViolationError("cocycle word left the kernel")
            row.append(vec)
        coc.append(row)

    generators = []
    for i, img in enumerate(inp.images):
        vec, end = rewrite(inv_word(words[img]) + ((i, 1),))
        if end != 0:
            raise TheoremViolationError("generator decomposition left the kernel")
        generators.append((f"f{i + 1}", (img, vec)))

    spec = ExtensionSpec.build(table, phi, coc, generators)
    report = validate_extension(spec)
    if not report.ok:
        raise TheoremViolationError(
            "Schreier construction produced an invalid extension: "
            + "; ".join(report.failures[:3])
        )
    return spec
