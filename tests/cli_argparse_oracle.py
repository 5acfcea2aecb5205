"""The former argparse parser of the CLI, kept as an oracle.

``build_parser`` is what ``cli.run`` parsed its arguments with before the
command table and ``cli._parse`` replaced argparse: the same subcommands,
positionals, choices and options, less the handlers, which the parser
only passed through.  ``oracle_parse`` runs it on one argv and reports
what argparse did; the tests compare ``cli._parse`` against it.
"""

import argparse
import contextlib
import io


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gentorsion",
        description="Generalized torsion in abelian-by-finite groups: "
        "decision, certificates, exponent bounds, positive identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list addressable groups")
    p.add_argument("action", choices=["list"])

    p = sub.add_parser("info", help="abelianization, index, torsion, center, bounds")
    p.add_argument("group")

    p = sub.add_parser("decide", help="is the element generalized torsion")
    p.add_argument("group")
    p.add_argument("word")

    p = sub.add_parser("witness", help="certificate: product of conjugates equal to 1")
    p.add_argument("group")
    p.add_argument("word")
    p.add_argument("--search", action="store_true", help="bounded minimal-order search")
    p.add_argument("--max-k", type=int, default=None, dest="max_k", help="with --search (default 8)")
    p.add_argument("--radius", type=int, default=None, help="with --search (default 3)")

    p = sub.add_parser("exponent", help="generalized exponent bounds")
    p.add_argument("group")

    p = sub.add_parser("identity", help="build and verify the positive identity")
    p.add_argument("group")
    p.add_argument("--universal", action="store_true")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("validate", help="validate an extension spec file")
    p.add_argument("spec")

    return parser


def oracle_parse(argv):
    """What argparse made of ``argv``: ``("parsed", command, fields)``,
    ``("help",)`` where it printed help and exited 0, or ``("error",)``
    where it exited 2 with nothing on stdout."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            namespace = build_parser().parse_args(list(argv))
    except SystemExit as exc:
        if exc.code == 0:
            assert out.getvalue().startswith("usage: gentorsion") and not err.getvalue()
            return ("help",)
        assert exc.code == 2 and not out.getvalue()
        assert err.getvalue().startswith("usage: gentorsion")
        return ("error",)
    fields = vars(namespace)
    return ("parsed", fields.pop("command"), fields)
