"""Parser for textual TP set queries and generalized joins.

Accepts SQL-style keywords and the paper's algebra symbols
interchangeably::

    c EXCEPT (a UNION b)
    c − (a ∪ b)
    c - (a | b)
    r LEFT OUTER JOIN s ON (item)
    r ⟕ s ON item
    r ANTI JOIN s

Operator precedence follows SQL: joins bind tightest (they live in the
FROM clause), then INTERSECT, then UNION and EXCEPT, which associate to
the left at the same level.  Parentheses override as usual.

Every stage after the parser walks the tree recursively, so a query may
nest at most :data:`MAX_QUERY_DEPTH` levels: the parser counts, as it
builds each node, the open parentheses around it plus the height of its
subtree, and refuses a deeper query with :class:`QueryParseError`.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple, Optional

from ..core.errors import QueryParseError
from .ast import JoinNode, QueryNode, RelationRef, SelectionNode, SetOpNode

__all__ = ["MAX_QUERY_DEPTH", "parse_query", "strip_explain_prefix"]

#: The deepest query every front door runs: ``db.query`` at both
#: optimize levels, ``EXPLAIN``, ``create_view`` and a served session
#: each recurse once or more per level, under the interpreter's default
#: recursion limit.  A chain ``a | b | …`` of n operands is n levels deep,
#: and so is a leaf inside n - 1 parentheses.  The parser's own descent
#: takes four frames per parenthesis and gives out first, near 240
#: levels when called from a test (CPython 3.11 and 3.12); 200 leaves a
#: caller some 150 frames.
MAX_QUERY_DEPTH = 200

#: ``EXPLAIN <query>`` — the SQL-style prefix form of ``db.explain``.
#: Requires trailing content, so a relation named ``explain`` remains
#: referencable as a bare query.
_EXPLAIN_PREFIX = re.compile(r"^\s*EXPLAIN\s+(?=\S)", re.IGNORECASE)


def strip_explain_prefix(text: str) -> Optional[str]:
    """The query after a leading ``EXPLAIN`` keyword, or ``None``.

    >>> strip_explain_prefix("EXPLAIN c - (a | b)")
    'c - (a | b)'
    >>> strip_explain_prefix("c - (a | b)") is None
    True
    """
    match = _EXPLAIN_PREFIX.match(text)
    if match is None:
        return None
    return text[match.end():]

#: Join keywords that may also appear as bare-word selection values.
_KEYWORD_KINDS = frozenset(
    {"join", "left", "right_kw", "full", "outer", "anti", "on"}
)


def _to_number(text: str):
    return float(text) if "." in text else int(text)


class _Token(NamedTuple):
    kind: str
    text: str


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<lbracket>\[)
  | (?P<rbracket>\])
  | (?P<eq>=)
  | (?P<union>∪|\bUNION\b|\bunion\b|\|)
  | (?P<intersect>∩|\bINTERSECT\b|\bintersect\b|&)
  | (?P<string>'[^']*')
  | (?P<number>−?\d+\.\d+|−?\d+)
  | (?P<except>−|\bEXCEPT\b|\bexcept\b|\bMINUS\b|\bminus\b|-)
  | (?P<comma>,)
  | (?P<join>⋈|\bJOIN\b|\bjoin\b)
  | (?P<ljoin>⟕)
  | (?P<rjoin>⟖)
  | (?P<fjoin>⟗)
  | (?P<ajoin>▷)
  | (?P<left>\bLEFT\b|\bleft\b)
  | (?P<right_kw>\bRIGHT\b|\bright\b)
  | (?P<full>\bFULL\b|\bfull\b)
  | (?P<outer>\bOUTER\b|\bouter\b)
  | (?P<anti>\bANTI\b|\banti\b)
  | (?P<on>\bON\b|\bon\b)
  | (?P<name>[A-Za-z_][A-Za-z0-9_.]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> Iterator[_Token]:
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise QueryParseError(
                f"unexpected character at {text[pos:pos + 10]!r}"
            )
        pos = match.end()
        kind = match.lastgroup
        if kind != "ws":
            yield _Token(kind, match.group())
    yield _Token("eof", "")


class _Parser:
    def __init__(self, text: str) -> None:
        self._tokens = list(_tokenize(text))
        self._index = 0
        self._open = 0  # parentheses open around the next node

    def _level(self, height: int) -> int:
        """``height`` — a node's subtree height — unless the node, with
        the parentheses open around it, nests past the limit."""
        depth = self._open + height
        if depth > MAX_QUERY_DEPTH:
            raise QueryParseError(
                f"query nests {depth} levels deep, past the limit of {MAX_QUERY_DEPTH}"
            )
        return height

    def _peek(self) -> _Token:
        return self._tokens[self._index]

    def _advance(self) -> _Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def parse(self) -> QueryNode:
        query, _ = self._union_level()
        if self._peek().kind != "eof":
            raise QueryParseError(f"trailing input: {self._peek().text!r}")
        return query

    def _union_level(self) -> tuple[QueryNode, int]:
        node, height = self._intersect_level()
        while self._peek().kind in ("union", "except"):
            op = "union" if self._advance().kind == "union" else "except"
            right, right_height = self._intersect_level()
            height = self._level(max(height, right_height) + 1)
            node = SetOpNode(op, node, right)
        return node, height

    def _intersect_level(self) -> tuple[QueryNode, int]:
        node, height = self._join_level()
        while self._peek().kind == "intersect":
            self._advance()
            right, right_height = self._join_level()
            height = self._level(max(height, right_height) + 1)
            node = SetOpNode("intersect", node, right)
        return node, height

    def _join_level(self) -> tuple[QueryNode, int]:
        node, height = self._atom()
        while True:
            kind = self._join_kind()
            if kind is None:
                return node, height
            right, right_height = self._atom()
            height = self._level(max(height, right_height) + 1)
            node = JoinNode(kind, node, right, self._on_clause())

    def _join_kind(self) -> Optional[str]:
        """Consume a join operator spelling, if one is next.

        Recognized: ``JOIN`` / ``⋈`` (inner), ``LEFT [OUTER] JOIN`` /
        ``⟕``, ``RIGHT [OUTER] JOIN`` / ``⟖``, ``FULL [OUTER] JOIN`` /
        ``⟗``, ``ANTI JOIN`` / ``▷``.
        """
        token = self._peek()
        symbols = {
            "join": "inner",
            "ljoin": "left_outer",
            "rjoin": "right_outer",
            "fjoin": "full_outer",
            "ajoin": "anti",
        }
        if token.kind in ("ljoin", "rjoin", "fjoin", "ajoin", "join"):
            self._advance()
            return symbols[token.kind]
        words = {"left": "left_outer", "right_kw": "right_outer", "full": "full_outer"}
        if token.kind in words:
            self._advance()
            if self._peek().kind == "outer":
                self._advance()
            if self._advance().kind != "join":
                raise QueryParseError(
                    f"expected JOIN after {token.text!r} in join operator"
                )
            return words[token.kind]
        if token.kind == "anti":
            self._advance()
            if self._advance().kind != "join":
                raise QueryParseError("expected JOIN after ANTI in join operator")
            return "anti"
        return None

    def _on_clause(self) -> Optional[tuple[str, ...]]:
        """``ON a, b`` or ``ON (a, b)`` — explicit join attributes."""
        if self._peek().kind != "on":
            return None
        self._advance()
        parenthesized = self._peek().kind == "lpar"
        if parenthesized:
            self._advance()
        names = [self._attribute_name()]
        while self._peek().kind == "comma":
            self._advance()
            names.append(self._attribute_name())
        if parenthesized and self._advance().kind != "rpar":
            raise QueryParseError("missing closing parenthesis in ON clause")
        return tuple(names)

    def _attribute_name(self) -> str:
        token = self._advance()
        if token.kind != "name" and token.kind not in _KEYWORD_KINDS:
            raise QueryParseError(
                f"ON clause expects an attribute name, got {token.text!r}"
            )
        return token.text

    def _atom(self) -> tuple[QueryNode, int]:
        token = self._advance()
        if token.kind == "lpar":
            self._open += 1
            self._level(1)
            node: QueryNode
            node, height = self._union_level()
            self._open -= 1
            closing = self._advance()
            if closing.kind != "rpar":
                raise QueryParseError("missing closing parenthesis")
        elif token.kind == "name" or token.kind in _KEYWORD_KINDS:
            # Join keywords are not reserved as relation names: a
            # catalog relation called "left" or "on" stays referencable
            # (the join operator position is unambiguous — it follows a
            # complete atom).
            node, height = RelationRef(token.text), self._level(1)
        else:
            raise QueryParseError(f"unexpected token {token.text!r}")
        # Postfix selections: r[product='milk'][store='hb'] …
        while self._peek().kind == "lbracket":
            height = self._level(height + 1)
            node = self._selection(node)
        return node, height

    def _selection(self, child: QueryNode) -> SelectionNode:
        self._advance()  # consume '['
        attribute = self._advance()
        if attribute.kind != "name" and attribute.kind not in _KEYWORD_KINDS:
            raise QueryParseError(
                f"selection expects an attribute name, got {attribute.text!r}"
            )
        if self._advance().kind != "eq":
            raise QueryParseError("selection expects '=' after the attribute")
        value = self._selection_value()
        if self._advance().kind != "rbracket":
            raise QueryParseError("missing closing ']' in selection")
        return SelectionNode(child, attribute.text, value)

    def _selection_value(self) -> object:
        token = self._advance()
        if token.kind == "string":
            return token.text[1:-1]
        if token.kind == "number":
            return _to_number(token.text)
        if token.kind == "except" and token.text == "-":
            follow = self._advance()
            if follow.kind != "number":
                raise QueryParseError("expected a number after '-' in selection")
            value = _to_number(follow.text)
            return -value
        if token.kind == "name" or token.kind in _KEYWORD_KINDS:
            # Bare-word string value; join keywords are not reserved here.
            return token.text
        raise QueryParseError(f"bad selection value {token.text!r}")


def parse_query(text: str) -> QueryNode:
    """Parse a TP set query conforming to the Def. 4 grammar.

    >>> str(parse_query("c - (a | b)"))
    '(c − (a ∪ b))'
    """
    return _Parser(text).parse()
