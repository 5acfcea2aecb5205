"""The former Gamma arithmetic, kept as an oracle.

``formula_mul`` and ``formula_inv`` evaluate the product and inverse of
Gamma = (ZP) x| (P x P) as the library once did: translate the ring part
by a left factor key by key and sort (``translate``), scale it by the sign
of the right factor (``GroupRingElement.scaled``), and add by collecting
both item lists again (``GroupRingElement.__add__``, that is ``from_pairs``).
``CasoloGroup`` now moves the keys straight into one dict and sorts once,
so the tests compare the two.
"""

from gentorsion.catalog import GammaElement, GroupRingElement


def translate(G, g, r) -> GroupRingElement:
    """g r: every key of r multiplied on the left by g."""
    return GroupRingElement(tuple(sorted((G.P.mul(g, key), c) for key, c in r.items)))


def formula_mul(G, a, b) -> GammaElement:
    """(r, g, h) (r', g', h') = (r + sign(h) g r', g g', h h')."""
    ring = a.ring + translate(G, a.g, b.ring).scaled(G.sign(a.h))
    return GammaElement(ring, G.P.mul(a.g, b.g), G.P.mul(a.h, b.h))


def formula_inv(G, a) -> GammaElement:
    """(r, g, h)^-1 = (-sign(h^-1) g^-1 r, g^-1, h^-1)."""
    gi = G.P.inv(a.g)
    hi = G.P.inv(a.h)
    return GammaElement(translate(G, gi, a.ring).scaled(-G.sign(hi)), gi, hi)
