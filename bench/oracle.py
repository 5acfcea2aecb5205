"""Answer oracle: expected answers fixed in the benchmark, and checks that
re-multiply every certificate through the backend's public ``mul``/``conj``.

Nothing here trusts the library's own verification.  Decisions are checked
against the abelianization written down below for each group: an element
is generalized torsion exactly when its image in G^ab has finite order,
and that order divides every certificate length.
"""

from __future__ import annotations

from math import gcd, lcm

from common import OK, fail

C3_TABLE = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
# S3 with index 0 the identity; 1, 2 and 5 are the transpositions.
S3_TABLE = (
    (0, 1, 2, 3, 4, 5),
    (1, 0, 3, 2, 5, 4),
    (2, 4, 0, 5, 1, 3),
    (3, 5, 1, 4, 0, 2),
    (4, 2, 5, 0, 3, 1),
    (5, 3, 4, 1, 2, 0),
)


def _cyclic(gens, modulus):
    return tuple(({g: 1}, modulus) for g in gens)


# G^ab as coordinates of generator exponent sums: each entry is
# (coefficients, modulus), modulus 0 meaning a free coordinate.
ABELIANIZATION = {
    "promislow": _cyclic("xy", 4),
    "klein": (({"x": 1}, 2), ({"y": 1}, 0)),
    "dinf": _cyclic("ab", 2),
    "wreath_c3": (({"s1": 1, "s2": 2}, 3), ({"t": 1}, 0)),
    "wreath_s3": (({"s1": 1, "s2": 1, "s5": 1}, 2), ({"t": 1}, 0)),
    "freeabext_c3": (({"f1": 1}, 0), ({"f2": 1}, 0)),
    "promislow_x_klein": _cyclic("xy", 4) + (({"x2": 1}, 2), ({"y2": 1}, 0)),
    "K:2,1,1": _cyclic("xy", 4),
    "K:3,1,1": _cyclic("xy", 9),
}

GENERATORS = {
    "promislow": ("x", "y"),
    "klein": ("x", "y"),
    "dinf": ("a", "b"),
    "wreath_c3": ("t", "s1", "s2"),
    "wreath_s3": ("t", "s1", "s2", "s3", "s4", "s5"),
    "freeabext_c3": ("f1", "f2"),
    "promislow_x_klein": ("x", "y", "x2", "y2"),
    "K:2,1,1": ("x", "y"),
    "K:3,1,1": ("x", "y"),
}


def ab_order(group: str, sums: dict):
    """Order of the image in G^ab of an element with these generator
    exponent sums; None when it is infinite."""
    out = 1
    for coeffs, modulus in ABELIANIZATION[group]:
        value = sum(c * sums.get(g, 0) for g, c in coeffs.items())
        if modulus == 0:
            if value:
                return None
        else:
            out = lcm(out, modulus // gcd(modulus, value % modulus))
    return out


def ab_is_finite(group: str) -> bool:
    return all(modulus for _, modulus in ABELIANIZATION[group])


def random_word(rng, gens, max_factors: int = 6):
    """Seeded word text and its generator exponent sums.

    Factors are powers ``g^e``, commutators ``[g,h]`` and conjugates
    ``g^h``, so the parser sees all three forms.
    """
    sums = {}
    parts = []
    for _ in range(rng.randint(1, max_factors)):
        roll = rng.random()
        g = rng.choice(gens)
        h = rng.choice([x for x in gens if x != g])
        if roll < 0.7:
            e = rng.choice((-3, -2, -1, 1, 1, 2, 3))
            parts.append(g if e == 1 else f"{g}^{e}")
            sums[g] = sums.get(g, 0) + e
        elif roll < 0.85:
            parts.append(f"[{g},{h}]")
        else:
            parts.append(f"{g}^{h}")
            sums[g] = sums.get(g, 0) + 1
    return "*".join(parts), sums


def torsion_word(rng, group: str):
    """Seeded word whose image in G^ab has finite order.

    Each free coordinate of G^ab has a single generator; a closing power of
    that generator cancels the coordinate.
    """
    text, sums = random_word(rng, GENERATORS[group])
    for coeffs, modulus in ABELIANIZATION[group]:
        if modulus == 0:
            (g, _), = coeffs.items()
            if sums.get(g, 0):
                text += f"*{g}^{-sums[g]}"
                sums[g] = 0
    return text, sums


def check_certificate(gt, G, g, cert, lower_bound, expected_length=None):
    """Re-multiply a witness certificate: the product of g conjugated by
    each conjugator must be the identity, each conjugator word must
    evaluate to its conjugator, and the length must be a multiple of the
    abelianization lower bound (or equal ``expected_length``)."""
    if cert is None:
        return fail("no certificate")
    if cert.base != g:
        return fail("certificate is for another element")
    n = len(cert.conjugators)
    if not n or cert.length != n or len(cert.words) != n:
        return fail(f"inconsistent certificate length {cert.length}")
    if expected_length is not None and n != expected_length:
        return fail(f"length {n}, expected {expected_length}")
    if lower_bound is None or n % lower_bound:
        return fail(f"length {n} is not a multiple of the G^ab order {lower_bound}")
    product = G.identity()
    for x in cert.conjugators:
        product = G.mul(product, G.conj(g, x))
    if product != G.identity():
        return fail("product of conjugates is not the identity")
    for word, x in zip(cert.words, cert.conjugators):
        if gt.eval_word(G, gt.parse_word(word)) != x:
            return fail(f"conjugator word {word!r} does not evaluate to its conjugator")
    return OK


def tamper_self_check(gt) -> str | None:
    """A certificate with one conjugator changed must be rejected.

    Returns None when the oracle catches it, else a message.
    """
    G = gt.ExtensionGroup(gt.build_promislow(), name="promislow")
    gens = dict(G.generators)
    g = gens["x"]
    cert = gt.witness_construct(G, g, base_word="x")
    if check_certificate(gt, G, g, cert, 4, 4).failed:
        return "oracle rejected a valid certificate"
    # the changed word still names the changed conjugator, so only the
    # re-multiplied product can expose it
    changed = cert.conjugators[:-1] + (G.mul(cert.conjugators[-1], gens["y"]),)
    words = cert.words[:-1] + (f"{cert.words[-1]}*y",)
    tampered = type(cert)(cert.base, changed, words, cert.length, True)
    verdict = check_certificate(gt, G, g, tampered, 4, 4)
    if not verdict.reason.startswith("product"):
        return f"oracle did not reject the tampered product ({verdict.reason or 'accepted'})"
    return None
