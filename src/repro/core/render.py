"""ASCII timeline rendering — the paper's Fig. 2/4/6 pictures, in text.

Because TP relations are duplicate-free, all tuples of one (relation,
fact) pair fit on a single line without collisions, which makes compact
Gantt-style diagrams possible::

    >>> from repro import TPRelation
    >>> a = TPRelation.from_rows("a", ("product",), [("milk", 2, 10, 0.3)])
    >>> c = TPRelation.from_rows("c", ("product",),
    ...     [("milk", 1, 4, 0.6), ("milk", 6, 8, 0.7)])
    >>> print(render_timeline([c, a], fact=("milk",)))
    time       1 2 3 4 5 6 7 8 9
    c 'milk'   [c1..). . [c2). .
    a 'milk'   . [a1............)

Used by the examples and handy in notebooks/debugging; the functions are
pure string builders and fully unit-tested.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .relation import TPRelation
from .schema import Fact
from .window import LineageWindow

__all__ = ["render_timeline", "render_windows"]

_DEFAULT_CELL = 2  # characters per time point


def _axis(lo: int, hi: int, cell: int) -> str:
    cells = []
    for t in range(lo, hi):
        label = str(t)
        cells.append(label[-(cell - 1):].rjust(cell - 1) + " ")
    return "".join(cells).rstrip()


def _lane(
    tuples: Sequence, lo: int, hi: int, label_of, cell: int
) -> str:
    """One text lane: '[' at start, ')' before end, label inside, '.' gaps."""
    width = (hi - lo) * cell
    lane = [" "] * width
    for t in sorted(tuples, key=lambda t: t.start):
        start = (t.start - lo) * cell
        end = (t.end - lo) * cell - 1
        lane[start] = "["
        lane[end] = ")"
        label = label_of(t)
        space = end - start - 1
        text = (label[:space]).ljust(space, ".") if space > 0 else ""
        for offset, ch in enumerate(text):
            lane[start + 1 + offset] = ch
    # Mark uncovered points with a centred dot for readability.
    for t in range(lo, hi):
        offset = (t - lo) * cell
        if all(ch == " " for ch in lane[offset : offset + cell]):
            lane[offset] = "."
    return "".join(lane).rstrip()


def render_timeline(
    relations: Iterable[TPRelation],
    *,
    fact: Optional[Fact] = None,
    width_limit: int = 400,
    cell: int = _DEFAULT_CELL,
) -> str:
    """Draw the tuples of several relations on one shared time axis.

    Parameters
    ----------
    fact:
        Restrict to one fact (like the paper's per-product figures);
        ``None`` draws one lane per (relation, fact) pair.
    width_limit:
        Guard against accidentally rendering huge time ranges.
    """
    relations = list(relations)
    lanes: list[tuple[str, list]] = []
    lo: Optional[int] = None
    hi: Optional[int] = None
    for relation in relations:
        facts = [fact] if fact is not None else sorted(relation.facts())
        for f in facts:
            members = [t for t in relation if t.fact == f]
            if not members:
                continue
            fact_text = ",".join(repr(v) for v in f)
            lanes.append((f"{relation.name} {fact_text}", members))
            for t in members:
                lo = t.start if lo is None else min(lo, t.start)
                hi = t.end if hi is None else max(hi, t.end)
    if lo is None or hi is None:
        return "(empty timeline)"
    if (hi - lo) * cell > width_limit:
        raise ValueError(
            f"time range [{lo},{hi}) too wide to render "
            f"(limit {width_limit} chars); slice the relations first"
        )

    label_width = max(len("time"), *(len(label) for label, _ in lanes))
    lines = ["time".ljust(label_width) + "   " + _axis(lo, hi, cell)]
    for label, members in lanes:
        lane = _lane(members, lo, hi, lambda t: str(t.lineage), cell)
        lines.append(label.ljust(label_width) + "   " + lane)
    return "\n".join(lines)


def render_windows(
    windows: Iterable[LineageWindow],
    *,
    width_limit: int = 600,
    cell: int = 8,
) -> str:
    """Draw a sequence of lineage-aware windows (one lane per fact).

    Accepted/rejected filtering is the caller's business; this shows the
    raw window partition the way Fig. 6 annotates it.
    """
    windows = list(windows)
    if not windows:
        return "(no windows)"
    lo = min(w.win_ts for w in windows)
    hi = max(w.win_te for w in windows)
    if (hi - lo) * cell > width_limit:
        raise ValueError(
            f"window range [{lo},{hi}) too wide to render (limit {width_limit})"
        )

    by_fact: dict = {}
    for w in windows:
        by_fact.setdefault(w.fact, []).append(w)

    # Adjacent windows share their boundary bar, like the paper's Fig. 6.
    lines = ["time   " + _axis(lo, hi, cell)]
    for fact in sorted(by_fact):
        group = sorted(by_fact[fact], key=lambda w: w.win_ts)
        width = (hi - lo) * cell + 1
        lane = [" "] * width
        for w in group:
            start = (w.win_ts - lo) * cell
            end = (w.win_te - lo) * cell
            lane[start] = "|"
            lane[end] = "|"
            lam_r = "∅" if w.lam_r is None else str(w.lam_r)
            lam_s = "∅" if w.lam_s is None else str(w.lam_s)
            text = f"{lam_r};{lam_s}"
            space = end - start - 1
            body = text[:space].center(space) if space > 0 else ""
            for offset, ch in enumerate(body):
                if body[offset] != " ":
                    lane[start + 1 + offset] = ch
        fact_text = ",".join(repr(v) for v in fact)
        lines.append(fact_text + "   " + "".join(lane).rstrip())
    return "\n".join(lines)
