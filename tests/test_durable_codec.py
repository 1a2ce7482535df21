"""The columnar tuple codec of the WAL and checkpoints (DESIGN.md §11.1).

A stored tuple travels as five flat values — its fact (run-length
encoded), ``Ts``, ``Te``, ``p`` and a lineage root that is a ``Var``'s
name or an index into one node table of the other lineages.  These tests
hold the codec to exactness (``lineage is``, ``repr(p)``, sidecar-only
events, ``removed_events``), hold the format version to a typed refusal
that leaves the directory untouched, and hold a checkpoint's verify to a
read-back that compares what it wrote and builds no tuple.
"""

from __future__ import annotations

import pickle
import struct
import tempfile
import tracemalloc
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TPRelation, tp_union
from repro.core.errors import TPError
from repro.db import TPDatabase
from repro.store import (
    DEFAULT_SEGMENT_CAPACITY,
    FormatVersionError,
    SegmentStore,
    StorePersistence,
    load_checkpoint,
    recover_store,
    scan_wal,
    store_state,
    write_checkpoint,
)
from repro.store import checkpoint as checkpoint_module
from repro.store import wal as wal_module
from repro.store.wal import decode_tuples, encode_tuples

from .strategies import tp_relation


def same_tuples(got, expected) -> None:
    """Tuple for tuple: fact, the very lineage node, end points, exact p."""
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.fact == b.fact
        assert a.lineage is b.lineage
        assert (a.start, a.end) == (b.start, b.end)
        assert repr(a.p) == repr(b.p)


def same_changesets(got, expected) -> None:
    assert [c.epoch for c in got] == [c.epoch for c in expected]
    for a, b in zip(got, expected):
        same_tuples(a.inserted, b.inserted)
        same_tuples(a.deleted, b.deleted)
        assert a.events == b.events
        assert a.removed_events == b.removed_events
        assert a.counter == b.counter


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    r=tp_relation("r", max_intervals=6),
    s=tp_relation("s", max_intervals=6),
    derived=st.booleans(),
    p=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
)
def test_columns_round_trip_through_the_wal_and_a_checkpoint(r, s, derived, p):
    """A store of base tuples (``Var`` roots, no node table) or of a
    derived relation (node-table roots) comes back exactly: from the
    columns, from a checkpoint with a sidecar-only event, and from the WAL
    records of a transaction that deletes a fact's last tuples and one that
    re-inserts them (``removed_events``)."""
    relation = tp_union(r, s) if derived else r
    store = SegmentStore.from_relation(relation)
    tuples = list(store.iter_sorted())
    columns = encode_tuples(tuples)
    facts, lengths, _, _, _, nodes, roots = columns
    assert len(facts) == len(store.facts()) and sum(lengths) == len(tuples)
    if not derived:
        assert nodes == [] and all(type(root) is str for root in roots)
    same_tuples(decode_tuples(*columns), tuples)
    store.events["ghost"] = 0.1 + 0.2  # referenced by no stored lineage

    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch) / "r"
        manager = StorePersistence.attach(store, directory, checkpoint_every=None)
        restored = load_checkpoint(next(directory.glob("*.ckpt"))).restore()
        assert store_state(restored) == store_state(store)
        same_tuples(list(restored.iter_sorted()), tuples)

        facts = store.facts()
        gone = store.delete_where(lambda t: t.fact == facts[0]) if facts else None
        back = store.insert(
            [(*t.fact, t.start, t.end, p) for t in gone.deleted] if gone
            else [("w", 0, 1, p)]
        )
        manager.flush()
        logged = [gone, back] if gone else [back]
        assert not gone or gone.removed_events or derived
        same_changesets(scan_wal(directory / "wal.log").changesets, logged)
        recovered, report = recover_store(directory)
        assert report.replayed == len(logged)
        assert store_state(recovered) == store_state(store)
        manager.close()


def test_the_runs_are_the_fact_groups_of_a_checkpoint(tmp_path):
    """In ``(F, Ts)`` order each run is one fact group, and the decoded
    rows of a run share one fact object."""
    store = SegmentStore("r", ("k",))
    store.insert([(k, t, t + 1, 0.5) for k in "abc" for t in range(0, 10, 2)])
    path = write_checkpoint(store, tmp_path)
    facts, lengths, *_ = checkpoint_module._read_record(path)[7]
    assert facts == [("a",), ("b",), ("c",)] and lengths == [5, 5, 5]
    tuples = load_checkpoint(path).tuples
    assert len({id(t.fact) for t in tuples}) == 3


@pytest.mark.parametrize(
    "columns, complaint",
    [
        ((["x"], [2], [0], [1], [0.5], [], ["a"]), "cover"),
        ((["x"], [1], [0, 2], [1], [0.5], [], ["a"]), "length"),
        ((["x"], [1], [3], [1], [0.5], [], ["a"]), "start < end"),
        ((["x"], [1], [0], [1], [0.5], [], [0]), "index"),
        ((["x"], [1], [0], [1], [0.5], [], [None]), "neither"),
        ((["x"], [1], [0], [1], [0.5], [], [True]), "neither"),
        ((["x", "y"], [1, 0], [0], [1], [0.5], [], ["a"]), "cover"),
    ],
)
def test_columns_that_disagree_are_refused(columns, complaint):
    with pytest.raises(ValueError, match=complaint):
        decode_tuples(*columns)


# ----------------------------------------------------------------------
# the format version
# ----------------------------------------------------------------------
def frame(magic: bytes, *payloads: object) -> bytes:
    """A file of the given magic and CRC-framed pickled records, by hand."""
    out = magic
    for obj in payloads:
        payload = pickle.dumps(obj, protocol=4)
        out += struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
    return out


#: A store holding ``("milk", 2, 10, 0.3)`` as the row-tuple format
#: (version 1) wrote it: a checkpoint at epoch 1 ...
OLD_CHECKPOINT = frame(
    b"TPCKPT\r\n",
    ("ckpt", 1, "r", ("product",), DEFAULT_SEGMENT_CAPACITY, 1, 1,
     ((("milk",), 2, 10, 0.3),), [("v", "r_n1")], (0,), (("r_n1", 0.3),)),
)
#: ... and a WAL holding the transaction that inserted it.
OLD_WAL = frame(
    b"TPWAL\r\n\x00",
    ("meta", 1, "r", ("product",), DEFAULT_SEGMENT_CAPACITY),
    ("cs", 1, 1, 1, 1, ((("milk",), 2, 10, 0.3),), [("v", "r_n1")], (0,),
     (("r_n1", 0.3),), ()),
)


def tree_bytes(root: Path) -> dict:
    return {str(path.relative_to(root)): path.read_bytes() for path in root.rglob("*")
            if path.is_file()}


@pytest.mark.parametrize("old", ["checkpoint", "wal", "both"])
def test_an_old_format_is_refused_and_the_directory_left_as_it_was(tmp_path, old):
    """Skipping the file as a damaged candidate, or truncating the WAL as
    a torn tail, would silently drop committed data."""
    store_dir = tmp_path / "data" / "r"
    store_dir.mkdir(parents=True)
    if old in ("checkpoint", "both"):
        (store_dir / "checkpoint-0000000000000001.ckpt").write_bytes(OLD_CHECKPOINT)
    if old in ("wal", "both"):
        (store_dir / "wal.log").write_bytes(OLD_WAL)
    named = "checkpoint-0000000000000001.ckpt" if old != "wal" else "wal.log"
    before = tree_bytes(tmp_path)
    for attempt in (
        lambda: recover_store(store_dir),
        lambda: StorePersistence.open(store_dir),
        lambda: TPDatabase(data_dir=tmp_path / "data"),
    ):
        with pytest.raises(FormatVersionError, match=f"{named}: .* version 1, expected 2") as raised:
            attempt()
        assert isinstance(raised.value, TPError) and raised.value.version == 1
        assert tree_bytes(tmp_path) == before


# ----------------------------------------------------------------------
# the verify
# ----------------------------------------------------------------------
def test_a_checkpoint_that_reads_back_unequal_is_refused(tmp_path, monkeypatch):
    """A writer that writes other columns than it verifies makes
    ``checkpoint()`` raise before the rename: the WAL is not rotated, the
    older checkpoint stays the newest, and recovery is exact."""
    store = SegmentStore("r", ("product",))
    store.insert([("milk", 2, 10, 0.3), ("chips", 4, 7, 0.8)])
    directory = tmp_path / "r"
    manager = StorePersistence.attach(store, directory, checkpoint_every=None)
    store.insert([("soda", 1, 4, 0.6)])
    manager.flush()
    before = tree_bytes(directory)
    real = checkpoint_module._payload

    def skewed(record: tuple) -> bytes:
        facts, lengths, starts, ends, probs, nodes, roots = record[7]
        probs = [p / 2 for p in probs]
        return real(record[:7] + ((facts, lengths, starts, ends, probs, nodes, roots),)
                    + record[8:])

    monkeypatch.setattr(checkpoint_module, "_payload", skewed)
    with pytest.raises(ValueError, match="reads back unequal"):
        manager.checkpoint()
    assert tree_bytes(directory) == before
    monkeypatch.undo()
    recovered, report = recover_store(directory)
    assert report.checkpoint_epoch == 1 and report.replayed == 1
    assert store_state(recovered) == store_state(store)
    manager.close()


#: ``checkpoint()``'s tracemalloc peak per row of the 20 000-row base
#: store below: 268 B measured (CPython 3.11, x86-64), plus about 15 %.
#: Decoding the whole store into tuples to verify it peaked at 606 B.
PEAK_BYTES_PER_ROW = 308


def test_a_checkpoint_builds_no_tuple_and_stays_under_its_memory_ceiling(
    tmp_path, monkeypatch
):
    rows = [(f"k{k:04d}", t * 4, t * 4 + 3, 0.5 + (k + t) % 7 / 16)
            for k in range(400) for t in range(50)]
    # A name no other test uses: a variable another test left interned
    # would hold its own copy of the name, which the event map does not
    # share, and the pickle would carry both.
    relation = TPRelation.from_rows("ceiling", ("k",), rows)
    store = SegmentStore.from_relation(relation)
    manager = StorePersistence.attach(store, tmp_path / "r", checkpoint_every=None)
    store.insert([("k0000", 10**6, 10**6 + 1, 0.5)])
    manager.flush()

    def refuse(*args, **kwargs):
        raise AssertionError("a checkpoint's verify built tuples")

    monkeypatch.setattr(wal_module, "decode_tuples", refuse)
    monkeypatch.setattr(wal_module, "tuples_from_rows", refuse)
    tracemalloc.start()
    try:
        manager.checkpoint()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / len(store) < PEAK_BYTES_PER_ROW
    monkeypatch.undo()
    recovered, report = recover_store(tmp_path / "r")
    assert report.replayed == 0 and store_state(recovered) == store_state(store)
    manager.close()
