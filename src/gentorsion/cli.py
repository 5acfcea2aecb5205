"""Command-line interface.

Groups are addressed by catalog name (``dinf``, ``klein``, ``promislow``,
``gamma``), by family (``K:p,n,m``), or by file (``wreath:<table.json>``,
``freeabext:<input.json>``, ``spec:<extension.json>``).  Elements are
given as words over the group's named generators, e.g. ``x^2*y`` or
``[x,y]^-1``.

Exit codes: 0 on success (including boolean answers), 2 on invalid input
or spec, 3 when an internal invariant is violated (a result that would
contradict the underlying theory, always a bug).

Randomized commands take ``--seed``; without it the ``GENTOR_SEED``
environment variable applies, then a fixed default.  The effective seed
is echoed so runs can be reproduced.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import catalog, gentor
from .errors import BackendCapabilityError, GroupInputError, TheoremViolationError
from .extgroup import ExtElement, ExtensionGroup, spec_from_dict, validate_extension
from .metab import MetabElement
from .words import WordSyntaxError, eval_word, parse_word

DEFAULT_SEED = 20406

CATALOG = (
    ("dinf", "infinite dihedral group, Z by C2"),
    ("klein", "Klein bottle group, Z^2 by C2"),
    ("promislow", "Promislow group, Z^3 by C2 x C2"),
    ("K:p,n,m", "metabelian K(p^n, p^m), e.g. K:2,1,1"),
    ("wreath:<table.json>", "Z wr Q for a finite Q given as a multiplication table"),
    ("freeabext:<input.json>", "free abelianized extension from {rank, q_table, images}"),
    ("spec:<extension.json>", "any extension spec file"),
    ("gamma", "group-ring backend (ZP) x| (P x P), sampled checks only"),
)


def resolve_group(address: str):
    if address == "dinf":
        return ExtensionGroup(catalog.build_dihedral_infinite(), name="dinf")
    if address == "klein":
        return ExtensionGroup(catalog.build_klein_bottle(), name="klein")
    if address == "promislow":
        return ExtensionGroup(catalog.build_promislow(), name="promislow")
    if address == "gamma":
        return catalog.build_casolo_gamma()
    if address.startswith("K:"):
        parts = address[2:].split(",")
        if len(parts) != 3:
            raise GroupInputError("K groups are addressed as K:p,n,m")
        try:
            p, n, m = (int(t) for t in parts)
        except ValueError:
            raise GroupInputError("K group parameters must be integers") from None
        return catalog.build_K_group(p, n, m)
    if address.startswith("wreath:"):
        path = address[len("wreath:"):]
        table = _load_json(path)
        with _shape_errors(path, "a square multiplication table of integers"):
            spec = catalog.build_wreath(table)
        return ExtensionGroup(spec, name=address)
    if address.startswith("freeabext:"):
        path = address[len("freeabext:"):]
        data = _load_json(path)
        with _shape_errors(path, "an object with rank, q_table, and integer images"):
            inp = catalog.FreeAbelExtInput.build(data["rank"], data["q_table"], data["images"])
            spec = catalog.build_free_abelianized_extension(inp)
        return ExtensionGroup(spec, name=address)
    if address.startswith("spec:"):
        path = address[len("spec:"):]
        return ExtensionGroup(spec_from_dict(_load_json(path)), name=address)
    raise GroupInputError(f"unknown group address {address!r}")


@contextlib.contextmanager
def _shape_errors(path: str, expected: str):
    # Builders validate content; this converts raw shape errors from
    # malformed JSON into the exit-2 input contract.
    try:
        yield
    except GroupInputError:
        raise
    except (TypeError, ValueError, KeyError, AttributeError) as exc:
        raise GroupInputError(f"{path}: expected {expected} ({exc!r})") from None


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise GroupInputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise GroupInputError(f"{path} is not valid JSON: {exc}") from None


def _element_json(e):
    if isinstance(e, ExtElement):
        return {"q": e.q, "a": list(e.a)}
    if isinstance(e, MetabElement):
        return {"alpha": e.alpha, "beta": e.beta, "coords": list(e.coords)}
    return {"repr": repr(e)}


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("GENTOR_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise GroupInputError(f"GENTOR_SEED must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def _cmd_catalog(args) -> int:
    for name, blurb in CATALOG:
        print(f"{name:26} {blurb}")
    return 0


def _cmd_info(args) -> int:
    G = resolve_group(args.group)
    print(f"group={getattr(G, 'name', args.group)}")
    if not hasattr(G, "abelianization"):
        print("backend=group-ring (exact arithmetic and sampled checks only)")
        return 0
    ab = G.abelianization()
    print(f"abelianization={ab.describe()}")
    print(f"invariant_factors={list(ab.invariant_factors)} free_rank={ab.free_rank}")
    print(f"translation_index={G.translation_index()}")
    print(f"torsion_free={str(G.is_torsion_free()).lower()}")
    if hasattr(G, "center_rank"):
        print(f"center_rank={G.center_rank()}")
    elif hasattr(G, "has_trivial_center"):
        print(f"center_trivial={str(G.has_trivial_center()).lower()}")
    if ab.is_finite:
        b = gentor.gen_exponent_bounds(G)
        print(f"exponent_lower={b.lower} exponent_upper={b.upper} exact={str(b.exact).lower()}")
    else:
        print("exponent_bounds=n/a (infinite abelianization)")
    return 0


def _cmd_decide(args) -> int:
    G = resolve_group(args.group)
    g = eval_word(G, parse_word(args.word))
    ans = gentor.is_generalized_torsion(G, g)
    order = G.abelianization().order_of(G.ab_vector(g))
    print(f"generalized_torsion={str(ans).lower()}")
    print(f"pi_order={'infinite' if order is None else order}")
    return 0


def _cmd_witness(args) -> int:
    if not args.search and (args.max_k is not None or args.radius is not None):
        raise GroupInputError("--max-k and --radius bound a search; they need --search")
    G = resolve_group(args.group)
    g = eval_word(G, parse_word(args.word))
    if args.search:
        max_k = 8 if args.max_k is None else args.max_k
        radius = 3 if args.radius is None else args.radius
        cert = gentor.gen_order_search(G, g, max_k=max_k, radius=radius)
        if cert is None:
            order = G.abelianization().order_of(G.ab_vector(g))
            if order is None:
                reason = "not_generalized_torsion"
                note = "no product of conjugates of this element is 1, at any length"
            elif max_k < order:
                reason = "below_pi_order"
                note = (f"every identity has length divisible by pi_order={order}, "
                        f"so none has length <= {max_k} for any conjugators")
            else:
                reason = "exhausted"
                note = f"no identity of length <= {max_k} over the radius-{radius} ball"
            print("result=absent")
            print(f"reason={reason}")
            print(f"note={note}")
            return 0
    else:
        cert = gentor.witness_construct(G, g, base_word=args.word)
    payload = {
        "group": getattr(G, "name", args.group),
        "base_word": args.word,
        "conjugator_words": list(cert.words),
        "length": cert.length,
        "verified": cert.verified,
        "base": _element_json(cert.base),
        "conjugators": [_element_json(c) for c in cert.conjugators],
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_exponent(args) -> int:
    G = resolve_group(args.group)
    b = gentor.gen_exponent_bounds(G)
    print(f"lower={b.lower} upper={b.upper} exact={str(b.exact).lower()}")
    return 0


def _cmd_identity(args) -> int:
    G = resolve_group(args.group)
    universal = args.universal or (
        args.samples is None and hasattr(G, "verify_positive_identity_all")
    )
    if universal and (args.samples is not None or args.seed is not None):
        raise GroupInputError("--samples and --seed apply to sampled runs; this run is universal")
    if not universal:
        samples = args.samples if args.samples is not None else 200
        seed = _seed(args)
    k, conjugators = gentor.positive_identity_witnesses(G)
    # verify before printing, so a capability or input error leaves stdout empty
    if universal:
        ok = gentor.verify_identity_universal(G, k, conjugators)
        mode = "mode=universal"
    else:
        ok = gentor.verify_identity_sampled(G, k, conjugators, samples, seed)
        mode = f"mode=sampled samples={samples} seed={seed}"
    print(f"inner_exponent={k} conjugators={len(conjugators)} degree={k * len(conjugators)}")
    print(mode)
    print(f"verified={str(ok).lower()}")
    if not ok:
        raise TheoremViolationError("constructed positive identity failed verification")
    return 0


def _cmd_validate(args) -> int:
    data = _load_json(args.spec)
    spec = spec_from_dict(data)
    report = validate_extension(spec)
    if report.ok:
        print("valid=true")
        return 0
    print("valid=false")
    for failure in report.failures:
        print(f"failure: {failure}")
    return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gentorsion",
        description="Generalized torsion in abelian-by-finite groups: "
        "decision, certificates, exponent bounds, positive identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list addressable groups")
    p.add_argument("action", choices=["list"])
    p.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser("info", help="abelianization, index, torsion, center, bounds")
    p.add_argument("group")
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("decide", help="is the element generalized torsion")
    p.add_argument("group")
    p.add_argument("word")
    p.set_defaults(fn=_cmd_decide)

    p = sub.add_parser("witness", help="certificate: product of conjugates equal to 1")
    p.add_argument("group")
    p.add_argument("word")
    p.add_argument("--search", action="store_true", help="bounded minimal-order search")
    p.add_argument("--max-k", type=int, default=None, dest="max_k", help="with --search (default 8)")
    p.add_argument("--radius", type=int, default=None, help="with --search (default 3)")
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("exponent", help="generalized exponent bounds")
    p.add_argument("group")
    p.set_defaults(fn=_cmd_exponent)

    p = sub.add_parser("identity", help="build and verify the positive identity")
    p.add_argument("group")
    p.add_argument("--universal", action="store_true")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_identity)

    p = sub.add_parser("validate", help="validate an extension spec file")
    p.add_argument("spec")
    p.set_defaults(fn=_cmd_validate)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return 2 if code else 0
    try:
        return args.fn(args)
    except (GroupInputError, BackendCapabilityError, WordSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TheoremViolationError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
