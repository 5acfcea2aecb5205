"""Full-pair and full-triple extension checks, kept as oracles.

``validate_extension`` is the library's former check: associativity of the
point-group table, the anti-homomorphism and the cocycle identity over
every pair and triple of Q, O(|Q|^3 n^2).  ``abelianization_relations`` is
the former presentation of G^ab, t = phi(q) t for every q and the product
rule r_q r_r = r_{qr} t^{coc(q,r)} for every pair, |Q|^2 + n |Q| + 1 rows;
``ab_vector`` is the image (a | e_q) of (q, a) in it.
``center_rank`` reads the fixed sublattice from phi(q) - I for every q.
``formula_mul`` and ``formula_inv`` are the former element arithmetic:
the product and inverse formulas of ``gentorsion.extgroup`` evaluated with
``IntMatrix.mat_vec`` and vector addition, reading the spec directly, where
``ExtensionGroup`` multiplies on the rows and inverses it stores at build.

``conjugated`` rewrites a spec in a new lattice basis, a -> U a for a
unimodular U (``seeded_unimodular``): phi(q) -> U phi(q) U^-1 and
coc -> U coc.  It presents the same group, with phi that are no longer
signed permutations.

The library checks and relates on a generating set of Q only, so the tests
compare it against these.  They share no code with the library beyond the
spec and report types and ``IntMatrix``.  The checks cost |Q|^3; keep them
to |Q| <= 16.
"""

import random

from gentorsion.extgroup import ExtElement, ExtensionSpec, ValidationReport
from gentorsion.intlin import IntMatrix, cokernel_structure


def _vadd(u, v):
    return tuple(x + y for x, y in zip(u, v))


def formula_mul(spec, g, h) -> ExtElement:
    """(q, a) (q', a') = (q q', coc(q, q') + phi(q') a + a')."""
    c = _vadd(spec.coc[g.q][h.q], spec.phi[h.q].mat_vec(g.a))
    return ExtElement(spec.q_table[g.q][h.q], _vadd(c, h.a))


def formula_inv(spec, g) -> ExtElement:
    """(q, a)^-1 = (q^-1, -coc(q, q^-1) - phi(q^-1) a), q^-1 read off the table."""
    qi = spec.q_table[g.q].index(0)
    c = _vadd(spec.coc[g.q][qi], spec.phi[qi].mat_vec(g.a))
    return ExtElement(qi, tuple(-x for x in c))


def validate_extension(spec) -> ValidationReport:
    bad = []
    qs = spec.q_size
    table = spec.q_table
    if len(table) != qs or any(len(row) != qs for row in table):
        return ValidationReport((f"q_table must be {qs}x{qs}",))
    if any(not (0 <= x < qs) for row in table for x in row):
        return ValidationReport(("q_table entries out of range",))
    for q in range(qs):
        if table[0][q] != q or table[q][0] != q:
            bad.append(f"index 0 is not the identity at q={q}")
    for q in range(qs):
        for r in range(qs):
            for s in range(qs):
                if table[table[q][r]][s] != table[q][table[r][s]]:
                    bad.append(f"associativity fails at ({q},{r},{s})")
    for q in range(qs):
        if all(table[q][r] != 0 for r in range(qs)):
            bad.append(f"no inverse for q={q}")
    if bad:
        return ValidationReport(tuple(bad))

    n = spec.n
    if len(spec.phi) != qs:
        bad.append("phi must assign one matrix per point-group index")
    else:
        for q, m in enumerate(spec.phi):
            if m.rows != n or m.cols != n:
                bad.append(f"phi({q}) is not {n}x{n}")
            elif abs(m.det()) != 1:
                bad.append(f"phi({q}) is not invertible over the integers")
        if not bad:
            if spec.phi[0] != IntMatrix.identity(n):
                bad.append("phi(0) must be the identity matrix")
            for q in range(qs):
                for r in range(qs):
                    if spec.phi[table[q][r]] != spec.phi[r] @ spec.phi[q]:
                        bad.append(f"phi is not an anti-homomorphism at ({q},{r})")
    if len(spec.coc) != qs or any(len(row) != qs for row in spec.coc):
        bad.append(f"coc must be a {qs}x{qs} array of vectors")
    else:
        for q in range(qs):
            for r in range(qs):
                if len(spec.coc[q][r]) != n:
                    bad.append(f"coc({q},{r}) has wrong length")
        if not bad:
            zero = (0,) * n
            for q in range(qs):
                if spec.coc[0][q] != zero or spec.coc[q][0] != zero:
                    bad.append(f"factor set is not normalized at q={q}")
            for q in range(qs):
                for r in range(qs):
                    for s in range(qs):
                        left = _vadd(spec.coc[table[q][r]][s], spec.phi[s].mat_vec(spec.coc[q][r]))
                        right = _vadd(spec.coc[q][table[r][s]], spec.coc[r][s])
                        if left != right:
                            bad.append(f"cocycle identity fails at ({q},{r},{s})")
    for name, g in spec.generator_names:
        if not (0 <= g.q < qs):
            bad.append(f"generator {name}: point index out of range")
        if len(g.a) != n:
            bad.append(f"generator {name}: vector has wrong length")
    return ValidationReport(tuple(bad))


def abelianization_relations(spec) -> IntMatrix:
    n, qs = spec.n, spec.q_size
    cols = n + qs
    rows = []
    for q in range(qs):
        m = spec.phi[q]
        for i in range(n):
            row = [0] * cols
            row[i] = 1
            for j in range(n):
                row[j] -= m[j, i]
            rows.append(row)
    for q in range(qs):
        for r in range(qs):
            row = [0] * cols
            for j in range(n):
                row[j] = -spec.coc[q][r][j]
            row[n + q] += 1
            row[n + r] += 1
            row[n + spec.q_table[q][r]] -= 1
            rows.append(row)
    last = [0] * cols
    last[n] = 1
    rows.append(last)
    return IntMatrix(rows, cols=cols)


def ab_vector(spec, g) -> tuple:
    return tuple(g.a) + tuple(int(q == g.q) for q in range(spec.q_size))


def center_rank(spec) -> int:
    ident = IntMatrix.identity(spec.n)
    rows = [row for q in range(1, spec.q_size) for row in (spec.phi[q] - ident).to_lists()]
    return cokernel_structure(IntMatrix(rows, cols=spec.n)).free_rank


def seeded_unimodular(n, seed) -> IntMatrix:
    """An n x n unimodular matrix: 3n row operations row_i += c row_j
    (i != j, c in {-2, -1, 1, 2}) on the identity, then one row negated,
    all drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    if n:
        k = rng.randrange(n)
        rows[k] = [-x for x in rows[k]]
    return IntMatrix(rows, cols=n)


def conjugated(spec, u, u_inv):
    """The spec in the lattice basis a -> u a; u_inv is u's inverse."""
    phi = [u @ m @ u_inv for m in spec.phi]
    coc = [[u.mat_vec(v) for v in row] for row in spec.coc]
    gens = [(name, (g.q, u.mat_vec(g.a))) for name, g in spec.generator_names]
    return ExtensionSpec.build(spec.q_table, phi, coc, gens)
