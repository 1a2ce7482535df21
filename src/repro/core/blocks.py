"""Columnar blocks: the packed-array layout of sorted tuple runs (DESIGN.md §15).

A :class:`ColumnarBlock` stores one ``(F, Ts)``-sorted run of TP tuples
as columns instead of objects:

* ``starts`` / ``ends`` — the interval end points, packed into
  ``array('q')`` (one machine int64 each, exposable as zero-copy
  ``memoryview`` buffers);
* ``fact_codes`` — an ``array('q')`` of indexes into ``facts``, the
  block's dictionary of *distinct* facts in first-appearance order.
  Because the run is sorted, first-appearance order **is** ascending
  ``fact_lt`` order, so comparing codes of one block is comparing facts;
* ``lineage_codes`` — an ``array('q')`` of indexes into ``lineages``,
  the distinct *interned* lineage objects of the run.  On the wire the
  lineage column is the PR 4 batch codec's node table
  (:func:`repro.lineage.serialize.encode_batch`), so a decoded block
  re-interns through the same constructor replay the parallel engine
  uses — identity equality survives transport;
* ``probs`` — the materialized marginals (``None`` where not yet
  valuated), kept as a plain tuple because it is never swept over.

The sweep kernels (:mod:`repro.exec.block_kernels`) run over the integer
columns alone and only touch ``facts``/``lineages`` when decoding emitted
windows; :class:`TPTuple` objects are constructed at the result boundary
only.  Two blocks are swept against each other through
:func:`unify_fact_codes`, which merges their (sorted, distinct) fact
dictionaries into one joint code space where ``==`` on codes is fact
equality and ``<`` is :func:`~repro.core.sorting.fact_lt`.

Time points must fit a signed 64-bit int — the only domain restriction
the columnar layout adds over the tuple path (the seams fall back to the
tuple kernels on overflow rather than fail).
"""

from __future__ import annotations

from array import array
from typing import Optional, Sequence

from ..lineage.formula import Lineage
from ..lineage.serialize import EncodedBatch, decode_batch, encode_batch
from .schema import Fact
from .sorting import fact_lt
from .tuple import TPTuple, tuples_from_rows

__all__ = ["ColumnarBlock", "unify_fact_codes"]

#: A block on the wire: (facts, fact codes, starts, ends, probs, lineage
#: node table + root indexes) — every field either a plain tuple or raw
#: little-endian int64 bytes, so pickling runs at C speed.
WireBlock = tuple


class ColumnarBlock:
    """One sorted tuple run in columnar form.  See the module docstring."""

    __slots__ = ("facts", "fact_codes", "starts", "ends", "lineages", "lineage_codes", "probs")

    facts: list[Fact]
    fact_codes: "array[int]"
    starts: "array[int]"
    ends: "array[int]"
    lineages: list[Lineage]
    lineage_codes: "array[int]"
    probs: tuple[Optional[float], ...]

    def __init__(
        self,
        facts: list[Fact],
        fact_codes: "array[int]",
        starts: "array[int]",
        ends: "array[int]",
        lineages: list[Lineage],
        lineage_codes: "array[int]",
        probs: tuple[Optional[float], ...],
    ) -> None:
        self.facts = facts
        self.fact_codes = fact_codes
        self.starts = starts
        self.ends = ends
        self.lineages = lineages
        self.lineage_codes = lineage_codes
        self.probs = probs

    @classmethod
    def from_tuples(cls, tuples: Sequence[TPTuple]) -> "ColumnarBlock":
        """Encode a ``(F, Ts)``-sorted run into columns.

        Raises ``OverflowError`` when a time point does not fit int64;
        callers that cannot rule that out catch it and stay on the
        tuple path.
        """
        n = len(tuples)
        facts: list[Fact] = []
        fact_index: dict[Fact, int] = {}
        lineages: list[Lineage] = []
        lineage_index: dict[Lineage, int] = {}
        fact_codes = array("q", bytes(8 * n))
        lineage_codes = array("q", bytes(8 * n))
        starts = array("q", bytes(8 * n))
        ends = array("q", bytes(8 * n))
        probs: list[Optional[float]] = [None] * n
        for i, t in enumerate(tuples):
            fact = t.fact
            code = fact_index.get(fact)
            if code is None:
                code = fact_index[fact] = len(facts)
                facts.append(fact)
            fact_codes[i] = code
            lam = t.lineage
            code = lineage_index.get(lam)
            if code is None:
                code = lineage_index[lam] = len(lineages)
                lineages.append(lam)
            lineage_codes[i] = code
            interval = t.interval
            starts[i] = interval.start
            ends[i] = interval.end
            probs[i] = t.p
        return cls(facts, fact_codes, starts, ends, lineages, lineage_codes, tuple(probs))

    def __len__(self) -> int:
        return len(self.starts)

    # ------------------------------------------------------------------
    # zero-copy column access
    # ------------------------------------------------------------------
    def interval_views(self) -> tuple[memoryview, memoryview]:
        """``(starts, ends)`` as read-only int64 memoryviews."""
        return memoryview(self.starts).toreadonly(), memoryview(self.ends).toreadonly()

    # ------------------------------------------------------------------
    # result-boundary reconstruction
    # ------------------------------------------------------------------
    def tuples(self) -> list[TPTuple]:
        """Rebuild the run — field-identical to the encoded tuples, with
        lineage `is`-identical (the column holds the interned objects)."""
        return tuples_from_rows(
            zip(
                map(self.facts.__getitem__, self.fact_codes),
                map(self.lineages.__getitem__, self.lineage_codes),
                self.starts,
                self.ends,
            ),
            self.probs,
        )

    # ------------------------------------------------------------------
    # wire / spill form
    # ------------------------------------------------------------------
    def encode(self) -> WireBlock:
        """The block as plain tuples, bytes and the PR 4 lineage table."""
        encoded: EncodedBatch = encode_batch(self.lineages)
        return (
            tuple(self.facts),
            self.fact_codes.tobytes(),
            self.starts.tobytes(),
            self.ends.tobytes(),
            tuple(self.lineage_codes),
            self.probs,
            encoded,
        )

    @classmethod
    def decode(cls, wire: WireBlock) -> "ColumnarBlock":
        """Inverse of :meth:`encode`; re-interns the lineage column."""
        facts, fact_bytes, start_bytes, end_bytes, lineage_codes, probs, encoded = wire
        fact_codes = array("q")
        fact_codes.frombytes(fact_bytes)
        starts = array("q")
        starts.frombytes(start_bytes)
        ends = array("q")
        ends.frombytes(end_bytes)
        nodes, roots = encoded
        lineages = decode_batch(nodes, roots)
        return cls(
            list(facts),
            fact_codes,
            starts,
            ends,
            lineages,
            array("q", lineage_codes),
            tuple(probs),
        )


def unify_fact_codes(
    facts_r: Sequence[Fact], facts_s: Sequence[Fact]
) -> tuple[list[int], list[int]]:
    """Merge two sorted distinct-fact dictionaries into one code space.

    Returns per-side translation tables ``(map_r, map_s)`` assigning each
    local fact code a joint code such that, across both blocks, joint
    codes are equal iff the facts are equal and ``<`` iff
    :func:`fact_lt` — the two predicates the LAWA sweep asks of facts.
    The merge runs once per *distinct* fact; every per-row comparison in
    the sweep afterwards is machine-int.
    """
    nr, ns = len(facts_r), len(facts_s)
    map_r = [0] * nr
    map_s = [0] * ns
    i = j = code = 0
    while i < nr and j < ns:
        fr, fs = facts_r[i], facts_s[j]
        if fr == fs:
            map_r[i] = map_s[j] = code
            i += 1
            j += 1
        elif fact_lt(fr, fs):
            map_r[i] = code
            i += 1
        else:
            map_s[j] = code
            j += 1
        code += 1
    while i < nr:
        map_r[i] = code
        i += 1
        code += 1
    while j < ns:
        map_s[j] = code
        j += 1
        code += 1
    return map_r, map_s
