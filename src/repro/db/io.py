"""Serialization of TP relations.

Two formats:

* **CSV** — human-editable, for base relations and spreadsheets.  Columns
  are the fact attributes followed by ``lineage``, ``ts``, ``te``, ``p``.
  Lineage round-trips through the textual parser, so derived relations
  work too; the event map travels in a sidecar ``<file>.events.csv``
  unless every lineage is atomic (base relation — events are implied).
* **JSON** — one self-contained document with schema, tuples and events;
  the format used by the benchmark harness to cache generated datasets.

Both savers write atomically (DESIGN.md §11): the complete file is
built as ``<name>.tmp`` beside the target, fsynced, then
:func:`os.replace`\\ d into place — a crash mid-save leaves either the
previous file intact or the new one, never a torn half of each.  The
boundaries announce themselves to the fault-injection hook
(:mod:`repro.store.faultpoints`) so the crash harness can prove it.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from itertools import count
from pathlib import Path
from typing import Iterator, Mapping, Optional, TextIO, Union

from ..core.relation import TPRelation
from ..core.schema import TPSchema, coerce_value, make_fact
from ..core.tuple import check_intervals, lineage_text, time_point, tuples_from_rows
from ..lineage.formula import Var
from ..lineage.parser import parse_lineage
from ..store.faultpoints import trip

__all__ = ["save_json", "load_json", "save_csv", "load_csv"]

_PathLike = Union[str, Path]


@contextmanager
def _atomic_writer(path: Path) -> Iterator[TextIO]:
    """Write ``path`` via a fsynced temp file and :func:`os.replace`.

    A crash before the replace leaves the previous file untouched (plus
    a dead ``.tmp`` the next save overwrites); after it, the new file is
    complete.  There is no observable in-between state.
    """
    tmp = path.with_name(path.name + ".tmp")
    trip("io.save.begin")
    with tmp.open("w", newline="") as handle:
        yield handle
        trip("io.save.written")
        handle.flush()
        os.fsync(handle.fileno())
    trip("io.save.synced")
    os.replace(tmp, path)
    trip("io.save.replaced")


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------
def save_json(relation: TPRelation, path: _PathLike) -> None:
    """Write a relation (schema, tuples, events) to one JSON document."""
    document = {
        "name": relation.name,
        "attributes": list(relation.schema.attributes),
        "tuples": [
            {
                "fact": list(t.fact),
                "lineage": lineage_text(t),
                "ts": t.start,
                "te": t.end,
                "p": t.p,
            }
            for t in relation
        ],
        "events": relation.events,
    }
    with _atomic_writer(Path(path)) as handle:
        handle.write(json.dumps(document, ensure_ascii=False, indent=1))


def load_json(path: _PathLike) -> TPRelation:
    """Load a relation previously written by :func:`save_json`."""
    document = json.loads(Path(path).read_text())
    rows = [
        (item["fact"], item["lineage"], item["ts"], item["te"], item["p"])
        for item in document["tuples"]
    ]
    return _validated(
        document["name"], TPSchema(tuple(document["attributes"])), rows,
        document["events"], path,
    )


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------
def save_csv(relation: TPRelation, path: _PathLike) -> None:
    """Write a relation to CSV (+ sidecar events file when needed)."""
    path = Path(path)
    with _atomic_writer(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(list(relation.schema.attributes) + ["lineage", "ts", "te", "p"])
        for t in relation:
            writer.writerow(
                [*t.fact, lineage_text(t), t.start, t.end, "" if t.p is None else t.p]
            )
    sidecar = path.with_suffix(path.suffix + ".events.csv")
    if not _all_atomic(relation):
        with _atomic_writer(sidecar) as handle:
            writer = csv.writer(handle)
            writer.writerow(["event", "p"])
            for name, p in sorted(relation.events.items()):
                writer.writerow([name, p])
    else:
        # All-atomic relations imply their event map; a sidecar left over
        # from a previous save of derived content would silently override
        # the tuples' own probabilities on the next load_csv.
        sidecar.unlink(missing_ok=True)


def load_csv(path: _PathLike, *, name: str | None = None) -> TPRelation:
    """Load a relation written by :func:`save_csv`.

    When every lineage is a bare variable (base relation), the event map
    is reconstructed from the tuples' own probabilities; otherwise the
    sidecar events file is required.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if header[-4:] != ["lineage", "ts", "te", "p"]:
            raise ValueError(
                f"{path} does not look like a TP relation CSV "
                f"(trailing columns {header[-4:]!r})"
            )
        schema = TPSchema(tuple(header[:-4]))
        arity = schema.arity
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: row {len(rows)} has {len(row)} fields, "
                    f"expected {len(header)}"
                )
            lineage_text, ts, te, p_text = row[arity:]
            rows.append((
                [coerce_value(v) for v in row[:arity]], lineage_text, ts, te,
                float(p_text) if p_text else None,
            ))

    sidecar = path.with_suffix(path.suffix + ".events.csv")
    events = None
    if sidecar.exists():
        events = {}
        with sidecar.open(newline="") as handle:
            reader = csv.reader(handle)
            next(reader)
            for event, p in reader:
                events[event] = float(p)
    return _validated(
        name if name is not None else path.stem, schema, rows, events, path
    )


def _validated(
    name: str,
    schema: TPSchema,
    rows: list[tuple],
    events: Optional[Mapping[str, float]],
    path: _PathLike,
) -> TPRelation:
    """The file loaders' one path from ``(fact values, lineage text, ts,
    te, p)`` rows to a relation, checked throughout: atomic fact values,
    integer time points (:func:`repro.core.tuple.time_point`) and
    ``ts < te`` here; arity, every lineage variable (compound ones
    included) in ``events``, each ``p`` in range and duplicate-freeness
    by the validating constructor.  Without ``events`` every lineage must
    be a variable with a probability, and the map is implied.
    """
    values, texts, ts_values, te_values, probs = zip(*rows) if rows else ((),) * 5
    facts = list(map(make_fact, values))
    lineages = list(map(parse_lineage, texts))
    starts = list(map(time_point, ts_values, count()))
    ends = list(map(time_point, te_values, count()))
    check_intervals(starts, ends)
    if events is None:
        if not all(
            type(lineage) is Var and p is not None
            for lineage, p in zip(lineages, probs)
        ):
            raise ValueError(
                f"{path} has compound lineage but no sidecar "
                f"{Path(path).name}.events.csv with event probabilities"
            )
        events = {lineage.name: p for lineage, p in zip(lineages, probs)}
    tuples = tuples_from_rows(zip(facts, lineages, starts, ends), probs)
    return TPRelation(name, schema, tuples, events)


def _all_atomic(relation: TPRelation) -> bool:
    # Read off the slot: a deferred row (None there) stands for a
    # connective, so it is not atomic, and its node stays unbuilt.
    return all(type(t._lineage) is Var for t in relation)
