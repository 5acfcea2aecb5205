"""Command-line interface.

Groups are addressed by catalog name (``dinf``, ``klein``, ``promislow``,
``gamma``), by family (``K:p,n,m``), or by file (``wreath:<table.json>``,
``freeabext:<input.json>``, ``spec:<extension.json>``).  Elements are
given as words over the group's named generators, e.g. ``x^2*y`` or
``[x,y]^-1``.

Exit codes: 0 on success (including boolean answers), 2 on invalid input
or spec, 3 when an internal invariant is violated (a result that would
contradict the underlying theory, always a bug), 120 when the reader of
stdout has gone (a broken pipe), without a traceback.

``main``, the console-script entry point, ends the process by ``os._exit``
once both standard streams are flushed, skipping interpreter finalization;
``run`` is the same command in process, returning its exit code.

Randomized commands take ``--seed``; without it the ``GENTOR_SEED``
environment variable applies, then a fixed default.  The effective seed
is echoed so runs can be reproduced.
"""

from __future__ import annotations

import contextlib
import os
import sys
from types import SimpleNamespace

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
    # json is imported where JSON is read or written, not at the top: most
    # commands need neither, and start-up is most of what they cost
    import json

    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise GroupInputError(f"cannot read {path}: {exc}") from None
    # json.loads finds the UTF encoding of bytes itself (RFC 8259), so the
    # locale plays no part; a bad encoding, a nesting too deep to recurse
    # into and an integer over the int-string limit are all ValueError or
    # RecursionError
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as exc:
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
    import json

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


_GROUP = ("group", "group address, as listed by `gentorsion catalog list`", None)
_WORD = ("word", "element as a word over the group's generators, e.g. 'x^2*y'", None)

# The command table.  Each subcommand has its handler, its help line, its
# positionals and its options.  A positional is (name, help, the values it
# allows or None).  An option is (flag, int or bool, help): int takes one
# integer value, bool is a flag; its field is the flag's name with "-" as
# "_", None (int) or False (bool) when not given.  Every subcommand also
# takes -h/--help.  ``_parse`` and the help text read only this table.
COMMANDS = {
    "catalog": (_cmd_catalog, "list addressable groups",
                (("action", "'list' prints every group address", ("list",)),), ()),
    "info": (_cmd_info, "abelianization, index, torsion, center, bounds", (_GROUP,), ()),
    "decide": (_cmd_decide, "is the element generalized torsion", (_GROUP, _WORD), ()),
    "witness": (_cmd_witness, "certificate: product of conjugates equal to 1", (_GROUP, _WORD), (
        ("--search", bool, "bounded minimal-order search"),
        ("--max-k", int, "with --search (default 8)"),
        ("--radius", int, "with --search (default 3)"),
    )),
    "exponent": (_cmd_exponent, "generalized exponent bounds", (_GROUP,), ()),
    "identity": (_cmd_identity, "build and verify the positive identity", (_GROUP,), (
        ("--universal", bool, "verify over every element (the default where the group can)"),
        ("--samples", int, "verify on this many sampled elements (default 200)"),
        ("--seed", int, f"seed of a sampled run (default GENTOR_SEED, then {DEFAULT_SEED})"),
    )),
    "validate": (_cmd_validate, "validate an extension spec file",
                 (("spec", "extension spec JSON file", None),), ()),
}

DESCRIPTION = ("Generalized torsion in abelian-by-finite groups: "
               "decision, certificates, exponent bounds, positive identities.")
HELP_OPTION = ("-h, --help", "show this help message and exit")


class _Exit(Exception):
    """Parsing ends the run: code 0 with help text for stdout, or code 2
    with the usage line and the reason for stderr."""

    def __init__(self, code: int, text: str):
        super().__init__(text)
        self.code = code
        self.text = text


def _field(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _metavar(flag: str, kind) -> str:
    return flag if kind is bool else f"{flag} {_field(flag).upper()}"


def _usage(name=None) -> str:
    if name is None:
        return "usage: gentorsion [-h] {" + ",".join(COMMANDS) + "} ..."
    _, _, positionals, options = COMMANDS[name]
    words = ["usage: gentorsion", name, "[-h]"]
    words += [f"[{_metavar(flag, kind)}]" for flag, kind, _ in options]
    words += ["{" + ",".join(allowed) + "}" if allowed else arg for arg, _, allowed in positionals]
    return " ".join(words)


def _help(name=None) -> str:
    if name is None:
        about = DESCRIPTION
        sections = [("commands", [(cmd, entry[1]) for cmd, entry in COMMANDS.items()]),
                    ("options", [HELP_OPTION])]
    else:
        _, about, positionals, options = COMMANDS[name]
        sections = [("positional arguments", [(arg, text) for arg, text, _ in positionals]),
                    ("options", [HELP_OPTION] + [(_metavar(flag, kind), text)
                                                 for flag, kind, text in options])]
    width = max(len(label) for _, rows in sections for label, _ in rows) + 2
    lines = [_usage(name), "", about]
    for title, rows in sections:
        lines += ["", f"{title}:"] + [f"  {label:{width}}{text}" for label, text in rows]
    return "\n".join(lines)


def _usage_error(name, reason: str) -> _Exit:
    prog = "gentorsion" if name is None else f"gentorsion {name}"
    return _Exit(2, f"{_usage(name)}\n{prog}: error: {reason}")


def _is_negative_number(token: str) -> bool:
    # argparse's ^-\d+$|^-\d*\.\d+$, whose $ also matches before a final newline
    body = token[1:-1] if token.endswith("\n") else token[1:]
    whole, dot, frac = body.partition(".")
    if not dot:
        return whole.isdecimal()
    return (not whole or whole.isdecimal()) and frac.isdecimal()


def _option(name, token: str, flags):
    """Read ``token``, which comes before any ``--``, as argparse did for a
    parser with the long options ``flags`` and the short option -h: None
    for a positional or an option's value, else (flag, the value given
    after "=" or None), flag None for an unknown option.  A long option may
    be abbreviated to any prefix that names one flag."""
    if token[:1] != "-" or token == "-":
        return None
    if token[:2] == "--":
        head, eq, value = token.partition("=")
        found = [head] if head in flags else [flag for flag in flags if flag.startswith(head)]
        if len(found) > 1:
            raise _usage_error(name, f"ambiguous option: {token} could match {', '.join(found)}")
        if found:
            return found[0], value if eq else None
    elif token[:2] == "-h":
        return "--help", token[2:] or None
    if _is_negative_number(token) or " " in token:
        return None
    return None, None


def _parse_command(name: str, argv: list) -> SimpleNamespace:
    """The fields of subcommand ``name`` from the arguments after it."""
    _, _, positionals, options = COMMANDS[name]
    kinds = {"--help": bool, **{flag: kind for flag, kind, _ in options}}
    # "--" ends the options; argparse read every token before it first,
    # so an ambiguous abbreviation fails even after --help
    end = argv.index("--") if "--" in argv else len(argv)
    read = [_option(name, token, kinds) for token in argv[:end]]
    read += ["--"] + [None] * (len(argv) - end - 1)
    fields = {arg: None for arg, _, _ in positionals}
    fields.update((_field(flag), None if kind is int else False) for flag, kind, _ in options)
    given, unknown = 0, []
    i = 0
    while i < len(argv):
        token, option = argv[i], read[i]
        i += 1
        if option == "--":
            continue
        if option is None:
            if given == len(positionals):
                unknown.append(token)
                continue
            arg, _, allowed = positionals[given]
            if allowed and token not in allowed:
                choices = ", ".join(map(repr, allowed))
                raise _usage_error(name, f"argument {arg}: invalid choice: {token!r} "
                                         f"(choose from {choices})")
            fields[arg] = token
            given += 1
            continue
        flag, value = option
        if flag is None:
            unknown.append(token)
        elif kinds[flag] is bool:
            if value is not None:
                raise _usage_error(name, f"argument {flag}: ignored explicit argument {value!r}")
            if flag == "--help":
                raise _Exit(0, _help(name))
            fields[_field(flag)] = True
        else:
            if value is None:
                if i == len(argv) or read[i] is not None:
                    raise _usage_error(name, f"argument {flag}: expected one argument")
                value = argv[i]
                i += 1
            try:
                fields[_field(flag)] = int(value)
            except ValueError:
                raise _usage_error(name, f"argument {flag}: invalid int value: {value!r}") from None
    if given < len(positionals):
        missing = ", ".join(arg for arg, _, _ in positionals[given:])
        raise _usage_error(name, f"the following arguments are required: {missing}")
    if unknown:
        raise _usage_error(name, f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(**fields)


def _parse(argv):
    """The command name and its fields for ``argv``, read as the former
    argparse parser read it; raises ``_Exit`` for help or a usage error."""
    argv = list(sys.argv[1:] if argv is None else argv)
    unknown = []
    i = 0
    while i < len(argv) and argv[i] != "--":
        option = _option(None, argv[i], ("--help",))
        if option is None:
            break
        flag, value = option
        if flag is None:
            unknown.append(argv[i])
        elif value is not None:
            raise _usage_error(None, f"argument -h/--help: ignored explicit argument {value!r}")
        else:
            raise _Exit(0, _help())
        i += 1
    if i == len(argv):
        raise _usage_error(None, "the following arguments are required: command")
    name = argv[i]
    if name not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        raise _usage_error(None, f"argument command: invalid choice: {name!r} (choose from {choices})")
    args = _parse_command(name, argv[i + 1:])
    if unknown:
        raise _usage_error(None, f"unrecognized arguments: {' '.join(unknown)}")
    return name, args


def run(argv=None) -> int:
    try:
        name, args = _parse(argv)
    except _Exit as stop:
        print(stop.text, file=sys.stderr if stop.code else sys.stdout)
        return stop.code
    try:
        return COMMANDS[name][0](args)
    except (GroupInputError, BackendCapabilityError, WordSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TheoremViolationError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    """Run the command in ``sys.argv`` and end the process with its exit code.

    Once both standard streams are flushed, the process ends by
    ``os._exit``.  Interpreter finalization (module teardown, the final
    garbage collection, atexit handlers) would take longer than importing
    the package, after the answer is out.  Skipping it loses nothing: the
    package registers no atexit handler, starts no thread and closes every
    file it opens by ``with``.  An exception other than ``BrokenPipeError``
    escaping ``run`` takes the normal path: traceback, exit 1.  When the
    reader of stdout has gone, whether a print or the final flush meets the
    broken pipe, the run exits 120, the status the interpreter gives when
    its own final flush fails, and prints no traceback.
    """
    try:
        code = run()
        for stream in (sys.stdout, sys.stderr):
            # a stream closed at start (e.g. under >&-) is None
            if stream is not None:
                stream.flush()
    except BrokenPipeError:
        # As the SIGPIPE note of the signal docs advises, point fd 1 at
        # devnull so that no later flush retries the pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        code = 120
    os._exit(code)


if __name__ == "__main__":
    main()
