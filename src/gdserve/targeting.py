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

`eligible` walks one tree for one map.  `AttributeIndex` evaluates a tree
once for a whole list of maps, as set algebra over int bitsets (a bitmap
index): bit k of a set stands for map k, and each (attribute, value) item
has the set of the maps that hold it.  `Equals` is its item's set, `In` the
union of its items' sets, `And`/`Or` the intersection/union of the
children's sets, `Not` the complement within all maps, and `TRUE` all maps.
This is exact: a map holds `attr = v` if and only if its bit is in the set
of the item (attr, v), and a map without `attr` is in no set of `attr`, so
each predicate's set is the maps for which `eligible` returns True, and the
connectives are the set forms of AND, OR and NOT on those results.
`build_edges` evaluates each contract's targeting once over the supply
nodes this way.

Everything here is a pure function over immutable trees, and an
`AttributeIndex` is not changed once built: safe for unrestricted
concurrent use.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, List, Mapping, Sequence, Union


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
_TOKEN_RE = re.compile(r"(?P<word>[A-Za-z0-9_]+)|(?P<punct>[=(){},])|(?P<bad>\S)")


def _tokenize(text: str):
    """(kind, text, offset) per token, then an EOF token; whitespace
    separates tokens and is otherwise skipped."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        tok, group = m.group(), m.lastgroup
        if group == "word":
            tokens.append((tok if tok in _KEYWORDS else "WORD", tok, m.start()))
        elif group == "punct":
            tokens.append((tok, tok, m.start()))
        else:
            raise TargetingSyntaxError(
                f"unexpected character {tok!r}", m.start(),
                ["identifier", "(", ")", "{", "}", ",", "="])
    tokens.append(("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
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


class AttributeIndex:
    """One int bitset per (attribute, value) item of a list of attribute
    maps: bit k is set when map k holds the item.

    `matches(expr)` is the bitset of the maps that satisfy `expr`: bit k is
    `eligible(maps[k], expr)` (see the module docstring for why).  Building
    the index and each evaluation cost time linear in the number of maps.
    """

    def __init__(self, maps: Sequence[Mapping[str, str]]):
        holders = defaultdict(list)
        for k, attrs in enumerate(maps):
            for item in attrs.items():
                holders[item].append(k)
        nbytes = (len(maps) + 7) >> 3
        self.all = (1 << len(maps)) - 1
        self.bits = {item: _bitset(ks, nbytes) for item, ks in holders.items()}

    def matches(self, expr: TargetingExpr) -> int:
        """The bitset of the maps that satisfy `expr`.  Raises TypeError
        on any node that is not an expression, wherever it sits."""
        kind = type(expr)
        if kind is Equals:
            return self.bits.get((expr.attr, expr.value), 0)
        if kind is In:
            acc = 0
            for value in expr.values:
                acc |= self.bits.get((expr.attr, value), 0)
            return acc
        if kind is And:
            acc = self.all
            for child in expr.children:
                acc &= self.matches(child)
            return acc
        if kind is Or:
            acc = 0
            for child in expr.children:
                acc |= self.matches(child)
            return acc
        if kind is Not:
            return self.all & ~self.matches(expr.child)
        if kind is TrueExpr:
            return self.all
        raise TypeError(f"not a targeting expression: {expr!r}")


def _bitset(positions: List[int], nbytes: int) -> int:
    """The int whose set bits are `positions`, built in one pass over a
    byte buffer (OR-ing bits one at a time into an int is quadratic)."""
    buf = bytearray(nbytes)
    for k in positions:
        buf[k >> 3] |= 1 << (k & 7)
    return int.from_bytes(buf, "little")


def members(bits: int) -> List[int]:
    """The positions of the set bits of `bits` >= 0, ascending."""
    digits = bin(bits)[:1:-1]       # bit k is digits[k]
    out = []
    k = digits.find("1")
    while k >= 0:
        out.append(k)
        k = digits.find("1", k + 1)
    return out


def build_edges(supply_nodes, contracts):
    """Compute the eligibility edge set between supply nodes and contracts.

    Returns [(supply_id, contract_id)] sorted by id pair, containing exactly
    the pairs for which the node's attributes satisfy the contract targeting.
    Each contract's targeting is evaluated once over all the nodes
    (`AttributeIndex`); both arguments are read in one pass.
    """
    nodes = list(supply_nodes)
    index = AttributeIndex([node.attributes for node in nodes])
    of_node = [[] for _ in nodes]
    for contract in contracts:
        cid = contract.id
        for k in members(index.matches(contract.targeting)):
            of_node[k].append(cid)
    # Node by node, as a double loop would list them: inputs in id order
    # give an already sorted list.
    edges = [(node.id, cid) for node, cids in zip(nodes, of_node) for cid in cids]
    edges.sort()
    return edges
