"""Boolean targeting expressions: parsing, evaluation, and edge generation.

Grammar (whitespace-insensitive, keywords are reserved words):

    expr   := term ('OR' term)*
    term   := factor ('AND' factor)*
    factor := 'NOT' factor
            | '(' expr ')'
            | 'TRUE'
            | attr '=' value
            | attr 'IN' '{' value (',' value)* '}'
    attr, value := [A-Za-z0-9_]+

An expression nests at most `MAX_NESTING` levels: each 'NOT' and each
'(' not yet closed is one level.  This bounds the recursion of the parser
and of every walk of the tree.

Evaluation is over attribute maps (string -> string).  An attribute that is
absent from the map is "unknown" and fails every positive predicate, so a
user of unknown gender is not eligible for a male-targeted contract; NOT is
classical negation of that result.

Everything here is a pure function over immutable trees: safe for
unrestricted concurrent use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Union


class TargetingSyntaxError(ValueError):
    """Raised on malformed targeting text; carries the byte offset."""

    def __init__(self, message: str, offset: int, expected: Iterable[str] = ()):
        self.offset = offset
        self.expected = sorted(set(expected))
        detail = f"{message} at offset {offset}"
        if self.expected:
            detail += f" (expected one of: {', '.join(self.expected)})"
        super().__init__(detail)


@dataclass(frozen=True)
class TrueExpr:
    pass


@dataclass(frozen=True)
class Equals:
    attr: str
    value: str


@dataclass(frozen=True)
class In:
    attr: str
    values: frozenset


@dataclass(frozen=True)
class Not:
    child: "TargetingExpr"


@dataclass(frozen=True)
class And:
    children: tuple


@dataclass(frozen=True)
class Or:
    children: tuple


TargetingExpr = Union[TrueExpr, Equals, In, Not, And, Or]

MAX_NESTING = 100

_KEYWORDS = {"AND", "OR", "NOT", "IN", "TRUE"}
_TOKEN_RE = re.compile(r"\s*(?:(?P<word>[A-Za-z0-9_]+)|(?P<punct>[=(){},]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise TargetingSyntaxError(
                f"unexpected character {stripped[0]!r}", bad_at,
                ["identifier", "(", ")", "{", "}", ",", "="])
        if m.group("word") is not None:
            word = m.group("word")
            kind = word if word in _KEYWORDS else "WORD"
            tokens.append((kind, word, m.start("word")))
        else:
            p = m.group("punct")
            tokens.append((p, p, m.start("punct")))
        pos = m.end()
    tokens.append(("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0
        self.depth = 0          # the 'NOT's and open '('s around the next factor

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        if tok[0] != "EOF":
            self.idx += 1
        return tok

    def expect(self, kind: str, expected_desc: str):
        tok = self.peek()
        if tok[0] != kind:
            raise TargetingSyntaxError(
                f"got {tok[1]!r}" if tok[0] != "EOF" else "unexpected end of input",
                tok[2], [expected_desc])
        return self.advance()

    def parse(self) -> TargetingExpr:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "EOF":
            raise TargetingSyntaxError(
                f"trailing input {tok[1]!r}", tok[2], ["OR", "AND", "end of input"])
        return node

    def expr(self) -> TargetingExpr:
        children = [self.term()]
        while self.peek()[0] == "OR":
            self.advance()
            children.append(self.term())
        return children[0] if len(children) == 1 else Or(tuple(children))

    def term(self) -> TargetingExpr:
        children = [self.factor()]
        while self.peek()[0] == "AND":
            self.advance()
            children.append(self.factor())
        return children[0] if len(children) == 1 else And(tuple(children))

    def factor(self) -> TargetingExpr:
        tok = self.peek()
        if tok[0] in ("NOT", "("):
            if self.depth == MAX_NESTING:
                raise TargetingSyntaxError(
                    f"{tok[1]!r} nests deeper than {MAX_NESTING} levels", tok[2])
            self.advance()
            self.depth += 1
            if tok[0] == "NOT":
                node = Not(self.factor())
            else:
                node = self.expr()
                self.expect(")", ")")
            self.depth -= 1
            return node
        if tok[0] == "TRUE":
            self.advance()
            return TrueExpr()
        if tok[0] == "WORD":
            attr = self.advance()[1]
            op = self.peek()
            if op[0] == "=":
                self.advance()
                value = self.expect("WORD", "value")[1]
                return Equals(attr, value)
            if op[0] == "IN":
                self.advance()
                self.expect("{", "{")
                values = [self.expect("WORD", "value")[1]]
                while self.peek()[0] == ",":
                    self.advance()
                    values.append(self.expect("WORD", "value")[1])
                self.expect("}", "}")
                return In(attr, frozenset(values))
            raise TargetingSyntaxError(
                f"got {op[1]!r}" if op[0] != "EOF" else "unexpected end of input",
                op[2], ["=", "IN"])
        raise TargetingSyntaxError(
            f"got {tok[1]!r}" if tok[0] != "EOF" else "unexpected end of input",
            tok[2], ["NOT", "(", "TRUE", "attribute"])


def parse_targeting(text: str) -> TargetingExpr:
    """Parse targeting text into an expression tree.

    Raises TargetingSyntaxError (with byte offset and expected-token set)
    on malformed input, nesting deeper than `MAX_NESTING` included, and
    TypeError if `text` is not a string.
    """
    if not isinstance(text, str):
        raise TypeError(f"targeting must be a string, got {text!r}")
    return _Parser(text).parse()


# Precedence levels used when unparsing: OR < AND < NOT < atoms.
_PREC = {Or: 1, And: 2, Not: 3}


def unparse(expr: TargetingExpr) -> str:
    """Render an expression back to grammar text (canonical spacing)."""
    return _render(expr, 0)


def _render(expr: TargetingExpr, parent_prec: int) -> str:
    if isinstance(expr, TrueExpr):
        return "TRUE"
    if isinstance(expr, Equals):
        return f"{expr.attr} = {expr.value}"
    if isinstance(expr, In):
        vals = ", ".join(sorted(expr.values))
        return f"{expr.attr} IN {{{vals}}}"
    prec = _PREC[type(expr)]
    if isinstance(expr, Not):
        # 'NOT NOT x' needs no parentheses, which would count as nesting.
        body = f"NOT {_render(expr.child, prec - 1)}"
    else:
        sep = " OR " if isinstance(expr, Or) else " AND "
        body = sep.join(_render(c, prec) for c in expr.children)
    return f"({body})" if prec <= parent_prec else body


def eligible(attrs: Mapping[str, str], expr: TargetingExpr) -> bool:
    """Evaluate an attribute map against a targeting expression.

    Absent attributes fail Equals/In; NOT is classical negation.
    """
    kind = type(expr)
    if kind is Equals:
        return attrs.get(expr.attr) == expr.value
    if kind is And:
        for child in expr.children:
            if not eligible(attrs, child):
                return False
        return True
    if kind is In:
        return attrs.get(expr.attr) in expr.values
    if kind is Or:
        for child in expr.children:
            if eligible(attrs, child):
                return True
        return False
    if kind is Not:
        return not eligible(attrs, expr.child)
    if kind is TrueExpr:
        return True
    raise TypeError(f"not a targeting expression: {expr!r}")


def build_edges(supply_nodes, contracts):
    """Compute the eligibility edge set between supply nodes and contracts.

    Returns [(supply_id, contract_id)] sorted by id pair, containing exactly
    the pairs for which the node's attributes satisfy the contract targeting.
    """
    edges = []
    for node in supply_nodes:
        for contract in contracts:
            if eligible(node.attributes, contract.targeting):
                edges.append((node.id, contract.id))
    edges.sort()
    return edges
