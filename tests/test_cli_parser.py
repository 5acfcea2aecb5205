"""The CLI's command-table parser against the argparse parser it replaced.

Every argv of the corpus must give the same command and fields as the
oracle's namespace, fail (exit 2) exactly where argparse failed, or print
help exactly where argparse did.  The corpus holds the argvs of
``tests/test_cli.py``, the commands of ``bench/clirun.py``, the
``gentorsion`` lines of the CI workflow, and spellings the oracle accepts
or refuses: ``=`` forms, abbreviations, options around positionals,
``--`` and negative values.

Two argparse 3.11 readings of ``--`` are left out, which later Pythons
changed: a ``--`` after the last positional, and a second ``--``.
"""

import ast
import itertools
import re
import shlex
from pathlib import Path

import pytest

from cli_argparse_oracle import oracle_parse
from gentorsion import cli
from test_cli import USAGE_ERRORS

ROOT = Path(__file__).resolve().parent.parent

# test_cli.py's argvs, a file argument written FILE
TEST_CLI = [
    ["catalog", "list"],
    ["info", "promislow"], ["info", "K:2,1,1"], ["info", "klein"], ["info", "gamma"],
    ["decide", "promislow", "x"], ["decide", "klein", "y"], ["decide", "promislow", "[x,y]^2*x^4"],
    ["exponent", "promislow"], ["exponent", "K:5,1,1"], ["exponent", "klein"],
    ["witness", "promislow", "x"], ["witness", "K:2,1,1", "x"], ["witness", "klein", "y"],
    ["witness", "promislow", "x", "--search"],
    ["witness", "promislow", "x", "--search", "--radius", "0"],
    ["witness", "klein", "y", "--search"],
    ["witness", "K:3,1,1", "x", "--max-k", "8", "--radius", "2", "--search"],
    ["witness", "promislow", "x", "--radius", "0", "--search"],
    ["witness", "promislow", "x", "--max-k", "4", "--radius", "0", "--search"],
    ["witness", "promislow", "x", "--max-k", "4"],
    ["witness", "promislow", "x", "--radius", "0"],
    ["witness", "promislow", "x", "--max-k", "8", "--radius", "3"],
    ["identity", "promislow"], ["identity", "gamma"], ["identity", "gamma", "--universal"],
    ["identity", "K:2,1,1", "--samples", "30"], ["identity", "K:3,1,1", "--samples", "20"],
    ["identity", "K:3,1,1", "--universal"], ["identity", "K:3,1,1"],
    ["identity", "K:2,1,1", "--universal"], ["identity", "K:2,1,1"],
    ["identity", "promislow", "--universal", "--samples", "0"],
    ["identity", "promislow", "--universal", "--seed", "5"],
    ["identity", "K:2,1,1", "--universal", "--samples", "5"],
    ["identity", "promislow", "--seed", "5"],
    ["identity", "K:2,1,1", "--samples", "0"], ["identity", "K:2,1,1", "--samples", "-3"],
    ["identity", "K:2,1,1", "--samples", "10"],
    ["identity", "K:2,1,1", "--samples", "10", "--seed", "5"],
    ["identity", "spec:FILE"], ["identity", "spec:FILE", "--samples", "5"],
    ["witness", "spec:FILE", "a"], ["validate", "FILE"], ["info", "spec:FILE"],
    ["info", "wreath:FILE"], ["info", "freeabext:FILE"],
    ["decide", "wreath:FILE", "t*t^s1"], ["decide", "wreath:FILE", "t*(t^-1)^s1"],
    ["witness", "wreath:FILE", "s1"], ["decide", "freeabext:FILE", "[f1,f2]"],
    ["info", "nosuchgroup"], ["info", "K:2,1"], ["info", "K:a,b,c"],
    ["decide", "promislow", "x^"], ["decide", "promislow", "nope"],
    ["decide", "promislow", "x^²"], ["decide", "gamma", "e"],
    ["decide", "gamma", "e^1000000000"],
    ["info", "K:2,20000,1"], ["info", "K:3,9000,1"], ["info", "K:2305843009213693951,1,1"],
    ["decide", "promislow", "(" * 400 + "x" + ")" * 400],
    ["decide", "promislow", "[x," * 400 + "y" + "]" * 400],
    ["decide", "promislow", "x" + "^x" * 3000],
    *map(list, USAGE_ERRORS),
    ["--help"], ["-h"], ["--he"], ["--bogus", "-h"],
    *([name, "--help", *args] for name, args in [
        ("catalog", ["list"]), ("info", ["promislow"]), ("decide", ["promislow"] * 2),
        ("witness", ["promislow"] * 2), ("exponent", ["promislow"]), ("identity", ["promislow"]),
        ("validate", ["promislow"])]),
    *([name, *args, "-h"] for name, args in [
        ("catalog", ["list"]), ("info", ["promislow"]), ("decide", ["promislow"] * 2),
        ("witness", ["promislow"] * 2), ("exponent", ["promislow"]), ("identity", ["promislow"]),
        ("validate", ["promislow"])]),
]


def _clirun_argvs():
    """The argv of every command in ``bench/clirun.py``'s ``COMMANDS``."""
    tree = ast.parse((ROOT / "bench" / "clirun.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "COMMANDS")
    return [ast.literal_eval(entry.elts[1]) for entry in table.elts]


def _workflow_argvs():
    """The arguments of every ``gentorsion`` command in the CI workflow,
    each shell variable written FILE and redirections (``>&-``,
    ``2>FILE``) left out."""
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    commands = re.findall(r"(?:^\s*|\$\(|timeout \d+ |-m )gentorsion(?:\.cli)? ([^|)\n]*)",
                          text, re.MULTILINE)
    return [[token for token in shlex.split(re.sub(r"\$\w+", "FILE", command))
             if not re.match(r"\d*[<>]", token)] for command in commands]


def _spellings(flag, value):
    """Ways to write one option: whole, every abbreviation argparse took
    or refused, and for an int option its value after "=" or missing."""
    prefixes = [flag[:n] for n in range(3, len(flag) + 1)]
    if value is None:
        return [[p] for p in prefixes] + [[flag + "=1"]]
    return ([[p, value] for p in prefixes] + [[p + "=" + value] for p in prefixes]
            + [[flag], [flag, "x"], [flag, "-" + value], [flag + "="]])


def _arrangements(name, positionals, options):
    """Every order of the options around the positionals, which keep
    their own order; then each spelling of each option in place."""
    out = []
    for order in itertools.permutations(options):
        for slots in itertools.combinations(range(len(order) + len(positionals)), len(order)):
            units, opts, poss = [], iter(order), iter(positionals)
            for i in range(len(order) + len(positionals)):
                units.append(next(opts) if i in slots else [next(poss)])
            out.append([name, *itertools.chain(*units)])
    for i, option in enumerate(options):
        flag, value = option[0], (option[1] if len(option) > 1 else None)
        for spelling in _spellings(flag, value):
            out.append([name, *positionals, *itertools.chain(*options[:i]), *spelling,
                        *itertools.chain(*options[i + 1:])])
    return out


SPELLINGS = [
    *_arrangements("witness", ["promislow", "x"], [["--search"], ["--max-k", "8"], ["--radius", "3"]]),
    *_arrangements("identity", ["K:2,1,1"], [["--universal"], ["--samples", "5"], ["--seed", "3"]]),
    # "--" ends the options
    ["decide", "promislow", "--", "x"], ["decide", "--", "promislow", "x"],
    ["info", "--", "promislow"], ["witness", "--search", "--", "promislow", "x"],
    ["identity", "--samples", "5", "--", "K:2,1,1"], ["identity", "K:2,1,1", "--", "--universal"],
    ["witness", "promislow", "--max-k", "4", "--", "x", "--search"],
    ["identity", "K:2,1,1", "--samples", "--", "5"], ["catalog", "--", "list"],
    ["witness", "--", "-x", "-y"],
    # negative numbers are values and positionals, other dashed words options
    ["identity", "K:2,1,1", "--samples", "-3"], ["identity", "K:2,1,1", "--samples=-3"],
    ["identity", "K:2,1,1", "--seed", "-0"], ["decide", "promislow", "-3"],
    ["decide", "promislow", "-.5"], ["decide", "promislow", "-x"], ["decide", "promislow", "- x"],
    ["decide", "promislow", "-"], ["decide", "", ""], ["identity", "K:2,1,1", "--seed", " 7 "],
    # errors: no command, unknown command, positionals missing or extra, unknown options
    [], ["--"], ["frobnicate"], ["-3"], ["--bogus"], ["info", "promislow", "klein"],
    ["exponent"], ["validate"], ["validate", "a", "b"], ["catalog"], ["catalog", "list", "list"],
    ["catalog", "foo", "--help"], ["catalog", "--help", "foo"], ["info", "promislow", "--bogus"],
    ["info", "--bogus", "--help"], ["identity", "K:2,1,1", "--help", "--s"],
    ["identity", "K:2,1,1", "--sa", "1", "--see", "2", "--u"], ["identity", "--=1", "K:2,1,1"],
    ["info", "promislow", "-hx"], ["info", "promislow", "--help=x"], ["--h", "info"],
    ["info", "-h", "--bogus"], ["identity", "K:2,1,1", "--seed", "3", "--seed", "4"],
]

CORPUS = [*TEST_CLI, *_clirun_argvs(), *_workflow_argvs(), *SPELLINGS]


def _parse(argv):
    """``cli._parse`` in the oracle's terms."""
    try:
        name, args = cli._parse(list(argv))
    except cli._Exit as stop:
        assert stop.text.startswith("usage: gentorsion")
        return ("help",) if stop.code == 0 else ("error",)
    return ("parsed", name, vars(args))


def test_corpus_reaches_every_outcome_and_source():
    outcomes = {oracle_parse(argv)[0] for argv in CORPUS}
    assert outcomes == {"parsed", "help", "error"}
    assert len(_clirun_argvs()) == 25
    workflow = _workflow_argvs()
    assert ["catalog", "list"] in workflow and ["info", "K:2,4,4"] in workflow


@pytest.mark.parametrize("argv", CORPUS, ids=lambda argv: " ".join(argv)[:60] or "<none>")
def test_parser_agrees_with_argparse(argv):
    assert _parse(argv) == oracle_parse(argv)
