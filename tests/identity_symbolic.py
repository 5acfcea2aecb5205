"""The symbolic extension arithmetic, kept as an oracle.

``ExtensionGroup`` once decided universal identities and found torsion by
computing with (q, matrix, vector) triples that stand for (q, a) with a
formal lattice part a: (q, M, c) is the map a -> (q, M a + c).  The
library now evaluates the same affine maps at a = 0 and a = e_i with its
ordinary multiplication; the tests compare the two.  The bodies below are
the removed methods, with ``self`` renamed ``G``.
"""

from gentorsion.extgroup import ExtElement, _vadd, _vec, _vneg
from gentorsion.intlin import IntMatrix, solve_integer_linear


def symbolic_element(G, q: int):
    """(q, a) with formal a, as the triple (q, I, 0)."""
    return (q, IntMatrix.identity(G.spec.n), (0,) * G.spec.n)


def symbolic_mul(G, s1, s2):
    q1, m1, c1 = s1
    q2, m2, c2 = s2
    s = G.spec
    return (
        s.q_table[q1][q2],
        s.phi[q2] @ m1 + m2,
        _vadd(_vadd(s.coc[q1][q2], s.phi[q2].mat_vec(c1)), c2),
    )


def symbolic_mul_concrete_left(G, x: ExtElement, sym):
    q2, m, c = sym
    s = G.spec
    return (
        s.q_table[x.q][q2],
        m,
        _vadd(_vadd(s.coc[x.q][q2], s.phi[q2].mat_vec(x.a)), c),
    )


def symbolic_mul_concrete_right(G, sym, x: ExtElement):
    q1, m, c = sym
    s = G.spec
    return (
        s.q_table[q1][x.q],
        s.phi[x.q] @ m,
        _vadd(_vadd(s.coc[q1][x.q], s.phi[x.q].mat_vec(c)), x.a),
    )


def symbolic_conj(G, sym, x: ExtElement):
    return symbolic_mul_concrete_right(G, symbolic_mul_concrete_left(G, G.inv(x), sym), x)


def symbolic_pow(G, q: int, k: int):
    """(q, a)^k as (point part, N, c) with a formal, for k >= 0."""
    if k < 0:
        raise ValueError(f"symbolic_pow multiplies k >= 0 factors, got k = {k}")
    out = (0, IntMatrix.zeros(G.spec.n, G.spec.n), (0,) * G.spec.n)
    g = symbolic_element(G, q)
    for _ in range(k):
        out = symbolic_mul(G, out, g)
    return out


def verify_positive_identity_all(G, k: int, conjugators) -> bool:
    """True iff prod_j (g^k)^{x_j} = 1 for EVERY group element g.

    The base element is kept formal: for each point part q the product
    is computed with a as a symbolic vector, and the identity holds for
    all of G exactly when every resulting point part, matrix part, and
    constant part vanishes.
    """
    n = G.spec.n
    zero_m = IntMatrix.zeros(n, n)
    zero_v = (0,) * n
    for q in range(G.spec.q_size):
        base = symbolic_pow(G, q, k)
        total = None
        for x in conjugators:
            term = symbolic_conj(G, base, x)
            total = term if total is None else symbolic_mul(G, total, term)
        tq, tm, tc = total
        if tq != 0 or tm != zero_m or tc != zero_v:
            return False
    return True


def find_torsion(G):
    """``torsion_witness`` by the power recurrence: (q, a)^o = (0, N a + c)
    with N and c built one factor at a time."""
    s = G.spec
    for q in range(1, s.q_size):
        o = G.q_order(q)
        qacc = 0
        m = IntMatrix.zeros(s.n, s.n)
        c = (0,) * s.n
        for _ in range(o):
            m = s.phi[q] @ m + IntMatrix.identity(s.n)
            c = _vadd(s.coc[qacc][q], s.phi[q].mat_vec(c))
            qacc = s.q_table[qacc][q]
        assert qacc == 0
        x = solve_integer_linear(m, _vneg(c))
        if x is not None:
            return ExtElement(q, _vec(x))
    return None
