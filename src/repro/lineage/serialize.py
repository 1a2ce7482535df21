"""Process-boundary lineage serialization (DESIGN.md §4.1).

Interning is per-process, so lineage crossing a process boundary must be
rebuilt *through the interning constructors* on the receiving side —
that is what keeps identity equality (and with it batch deduplication
and the O(1) metadata) intact after transport.  Two forms exist:

* **Pickle** — every node's ``__reduce__`` rebuilds through its
  constructor, so ``pickle.loads`` re-interns automatically.  Right for
  incidental transport (deep copies, stored relations), but it pays a
  Python-level callback per node on *both* sides.
* **The batch codec here** — the explicit form the write-ahead log,
  checkpoints and read replicas carry lineage in.  A batch of formulas is
  flattened into one node table in dependency order, with shared
  subformulas (ubiquitous in set-operation lineage, where adjacent
  windows reuse the same operands) encoded **once**; every table entry
  is a plain tuple of tags, strings and integer back-references, so the
  actual pickling runs at C speed.  Decoding replays the table through
  ``Var``/``Not``/``And``/``Or`` — one interning constructor call per
  *distinct* node — and is therefore also how the receiver re-interns.

The codec is exact: tables are emitted by walking real formula objects,
so decoding reproduces the identical (already-normalized) structure —
no smart-constructor re-normalization is involved, and
``decode_batch(encode_batch(fs))`` returns formulas that are
`is`-identical to ``fs`` within one process.
"""

from __future__ import annotations

from typing import Sequence

from .formula import And, Lineage, Not, Or, Var

__all__ = ["decode_batch", "decode_lineage", "encode_batch", "encode_lineage"]

#: One encoded node: ("v", name) | ("!", child) | ("&", *children) |
#: ("|", *children), children as indexes into the node table.
EncodedNode = tuple
#: A batch on the wire: (node table, root indexes).
EncodedBatch = tuple[list[EncodedNode], list[int]]


def encode_batch(formulas: Sequence[Lineage]) -> EncodedBatch:
    """Flatten formulas into a shared node table plus root indexes."""
    index: dict[Lineage, int] = {}
    nodes: list[EncodedNode] = []

    def encode(formula: Lineage) -> int:
        i = index.get(formula)
        if i is not None:
            return i
        kind = type(formula)
        if kind is Var:
            node: EncodedNode = ("v", formula.name)
        elif kind is Not:
            node = ("!", encode(formula.child))
        elif kind is And:
            node = ("&",) + tuple(encode(child) for child in formula.children)
        elif kind is Or:
            node = ("|",) + tuple(encode(child) for child in formula.children)
        else:
            raise TypeError(f"cannot serialize lineage node {formula!r}")
        i = len(nodes)
        nodes.append(node)
        index[formula] = i
        return i

    roots = [encode(formula) for formula in formulas]
    # ``encode`` names itself, so it and everything it closes over — the
    # index of every node of the batch — would wait for the cyclic
    # collector (a checkpoint's worth of entries per checkpoint).
    del encode
    return nodes, roots


def decode_batch(nodes: Sequence[EncodedNode], roots: Sequence[int]) -> list[Lineage]:
    """Replay a node table through the interning constructors.

    The table is in dependency order (children precede parents), so one
    forward pass materializes every node exactly once — re-interned in
    the decoding process.
    """
    decoded: list[Lineage] = []
    append = decoded.append
    for node in nodes:
        tag = node[0]
        if tag == "v":
            append(Var(node[1]))
        elif tag == "!":
            append(Not(decoded[node[1]]))
        elif tag == "&":
            append(And(tuple(decoded[i] for i in node[1:])))
        else:
            append(Or(tuple(decoded[i] for i in node[1:])))
    return [decoded[i] for i in roots]


def encode_lineage(formula: Lineage) -> EncodedBatch:
    """Single-formula convenience wrapper over :func:`encode_batch`."""
    return encode_batch((formula,))


def decode_lineage(encoded: EncodedBatch) -> Lineage:
    """Inverse of :func:`encode_lineage`."""
    nodes, roots = encoded
    return decode_batch(nodes, roots)[0]
