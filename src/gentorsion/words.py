"""Parsing, printing, and evaluation of group words.

Grammar (precedence high to low):

    atom  := name | "1" | "(" expr ")" | "[" expr "," expr "]"
    power := atom ("^" (integer | atom))*
    expr  := power ("*" power)*

``a^n`` with integer n is the n-th power; ``a^b`` with a word b is the
conjugate b^-1 * a * b; ``[a,b]`` is the commutator a^-1 * b^-1 * a * b.
The caret chains to the left: ``x^y^2`` is ``(x^y)^2``.  The literal ``1``
is the identity; no other bare integer is a valid atom.

A word nests at most ``MAX_DEPTH`` levels: each parenthesis, bracket and
caret adds one to what it encloses or raises, so ``((x))`` and ``x^y^2``
are two deep.  A deeper word is a WordSyntaxError at the token that
passes the bound; parsing, printing and evaluation recurse no further.

Trees round-trip: parse_word(print_word(t)) == t for every tree whose
products have at least two factors, with no simplification performed by
either direction.
"""

from __future__ import annotations

from ._record import Record
from .errors import GroupInputError


MAX_DEPTH = 100  # deepest accepted nesting of a parsed word


class WordSyntaxError(ValueError):
    """Malformed word text; ``position`` is the offending character index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class _Node(Record):
    """Shared base of the word nodes.

    Nodes are records, but equality and hashing also see the class, so
    ``Conj(a, b) != Comm(a, b)`` and ``Gen("x") != ("x",)``; every node is
    truthy, ``Ident()`` included.
    """

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash((type(self), tuple(self)))

    def __bool__(self):
        return True


class Gen(_Node, fields="name"):
    __slots__ = ()


class Ident(_Node, fields=""):
    __slots__ = ()


class Mul(_Node, fields="factors"):
    __slots__ = ()

    def __new__(cls, factors):
        return tuple.__new__(cls, (tuple(factors),))


class Pow(_Node, fields="base exp"):
    __slots__ = ()


class Conj(_Node, fields="base by"):
    __slots__ = ()


class Comm(_Node, fields="left right"):
    __slots__ = ()


# str.isdigit also accepts characters such as "²" that int() rejects
_DIGITS = frozenset("0123456789")


def _tokenize(text: str):
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
        elif ch in _DIGITS:
            j = i + 1
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            toks.append(("int", text[i:j], i))
            i = j
        elif ch in "*^()[],-":
            toks.append((ch, ch, i))
            i += 1
        else:
            raise WordSyntaxError(f"unexpected character {ch!r}", i)
    toks.append(("end", "", len(text)))
    return toks


def _bound(depth: int, at: int) -> int:
    if depth > MAX_DEPTH:
        raise WordSyntaxError(f"word nested deeper than {MAX_DEPTH} levels", at)
    return depth


class _Parser:
    """Recursive descent; each rule returns (tree, depth).  ``open``, the
    brackets around the current token, bounds the depth before recursing."""

    def __init__(self, toks):
        self.toks = toks
        self.pos = 0
        self.open = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise WordSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def atom(self):
        kind, value, at = self.peek()
        if kind == "name":
            self.take()
            return Gen(value), 0
        if kind == "int":
            self.take()
            if value != "1":
                raise WordSyntaxError("the only integer atom is the identity 1", at)
            return Ident(), 0
        if kind not in ("(", "["):
            raise WordSyntaxError(f"expected an atom, found {value!r}", at)
        self.take()
        self.open = _bound(self.open + 1, at)
        node, depth = self.expr()
        if kind == "[":
            self.take(",")
            right, d_right = self.expr()
            node, depth = Comm(node, right), max(depth, d_right)
        self.take(")" if kind == "(" else "]")
        self.open -= 1
        return node, _bound(depth + 1, at)

    def power(self):
        node, depth = self.atom()
        while self.peek()[0] == "^":
            caret = self.take()[2]
            kind, value, at = self.peek()
            if kind == "-":
                self.take()
                tok = self.take("int")
                node = Pow(node, -int(tok[1]))
            elif kind == "int":
                self.take()
                node = Pow(node, int(value))
            else:
                by, d_by = self.atom()
                node, depth = Conj(node, by), max(depth, d_by)
            depth = _bound(depth + 1, caret)
        return node, depth

    def expr(self):
        parts = [self.power()]
        while self.peek()[0] == "*":
            self.take()
            parts.append(self.power())
        if len(parts) == 1:
            return parts[0]
        factors, depths = zip(*parts)
        return Mul(factors), max(depths)


def parse_word(text: str):
    """Parse ``text`` into a word tree; raises WordSyntaxError."""
    parser = _Parser(_tokenize(text))
    tree, _ = parser.expr()
    kind, value, at = parser.peek()
    if kind != "end":
        raise WordSyntaxError(f"trailing input {value!r}", at)
    return tree


def _print_atomic(node) -> str:
    """Render a conjugating word: parenthesized unless it parses as an atom
    after a caret.  ``1`` there would read as the exponent 1, so the
    identity is parenthesized too."""
    out = print_word(node)
    if isinstance(node, (Gen, Comm)):
        return out
    return f"({out})"


def print_word(node) -> str:
    if isinstance(node, Gen):
        return node.name
    if isinstance(node, Ident):
        return "1"
    if isinstance(node, Comm):
        return f"[{print_word(node.left)},{print_word(node.right)}]"
    if isinstance(node, Pow):
        base = print_word(node.base)
        if isinstance(node.base, Mul):
            base = f"({base})"
        return f"{base}^{node.exp}"
    if isinstance(node, Conj):
        base = print_word(node.base)
        if isinstance(node.base, Mul):
            base = f"({base})"
        return f"{base}^{_print_atomic(node.by)}"
    if isinstance(node, Mul):
        parts = []
        for f in node.factors:
            text = print_word(f)
            if isinstance(f, Mul):
                text = f"({text})"
            parts.append(text)
        return "*".join(parts)
    raise TypeError(f"not a word node: {node!r}")


def eval_word(group, node, bindings=None):
    """Evaluate a word tree to a group element.

    ``bindings`` maps generator names to elements; by default the group's
    own generator table is used.
    """
    if bindings is None:
        bindings = dict(group.generators)
    return _eval(group, node, bindings)


def _eval(group, node, bindings):
    if isinstance(node, Gen):
        try:
            return bindings[node.name]
        except KeyError:
            raise GroupInputError(f"unknown generator {node.name!r}") from None
    if isinstance(node, Ident):
        return group.identity()
    if isinstance(node, Mul):
        out = _eval(group, node.factors[0], bindings)
        for f in node.factors[1:]:
            out = group.mul(out, _eval(group, f, bindings))
        return out
    if isinstance(node, Pow):
        return group.pow(_eval(group, node.base, bindings), node.exp)
    if isinstance(node, Conj):
        return group.conj(_eval(group, node.base, bindings), _eval(group, node.by, bindings))
    if isinstance(node, Comm):
        a = _eval(group, node.left, bindings)
        b = _eval(group, node.right, bindings)
        # a^-1 b^-1 a b as (b a)^-1 (a b): one inverse where two would do
        return group.mul(group.inv(group.mul(b, a)), group.mul(a, b))
    raise TypeError(f"not a word node: {node!r}")


def run_word(pairs) -> str:
    """Format [(name, exponent), ...] as a word string, e.g. "x^2*y".

    Zero exponents are dropped; an empty product renders as "1".  The
    output always parses back with parse_word.
    """
    parts = []
    for name, exp in pairs:
        if exp == 0:
            continue
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(parts) if parts else "1"
