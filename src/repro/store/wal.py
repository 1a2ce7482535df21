"""Checksummed write-ahead log of committed ChangeSets (DESIGN.md §12).

One WAL file per :class:`~repro.store.SegmentStore`.  The file is a
fixed 8-byte magic followed by length-prefixed, CRC32-checksummed
records; the first record carries the store metadata (name, attributes,
segment capacity), every later record one committed transaction —
exactly one record per epoch, in epoch order::

    file   := MAGIC  record*
    record := u32 payload_length | u32 crc32(payload) | payload

Payloads are plain-data structures (tags, strings, integers, floats,
tuples) pickled at C speed; lineage is flattened through the PR 4 batch
codec (:mod:`repro.lineage.serialize`) — one shared node table per
record, replayed through the interning constructors on decode, so
recovered tuples carry *re-interned* lineage with identity equality
intact.

The torn-write rule: a record is **committed** iff its length prefix,
checksum and payload are all fully on disk and the checksum verifies.
:func:`scan_wal` walks records in order and stops at the first record
that is short, corrupt, or out of epoch sequence; everything before is
the durable prefix, everything from there on is a torn tail the
recovery path truncates (never a crash, never silent corruption).

Durability modes: ``commit`` fsyncs after every append (a committed
transaction survives power loss); ``batch`` leaves flushing to the OS
(bounded loss window, no fsync on the commit path); ``off`` means no
WAL exists at all.  All writes go through an unbuffered file handle, so
even in ``batch`` mode a record is handed to the kernel whole.

Every write/fsync/rename boundary announces itself via
:func:`repro.store.faultpoints.trip` — the seam the deterministic
crash harness injects simulated power loss through.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from pathlib import Path
from typing import BinaryIO, Optional, Sequence, Union

from ..core.tuple import TPTuple, check_intervals, tuples_from_rows
from ..lineage.serialize import decode_batch, encode_batch
from .faultpoints import trip
from .segment import ChangeSet, SegmentStore

__all__ = [
    "DURABILITY_LEVELS",
    "WalMeta",
    "WriteAheadLog",
    "parse_durability",
    "scan_wal",
]

_PathLike = Union[str, Path]

#: Supported durability levels, in "how durable" order: ``off`` keeps
#: everything in memory (no persistence code runs at all), ``batch``
#: logs every commit but lets the OS schedule the flush, ``commit``
#: fsyncs the log before a transaction reports success.
DURABILITY_LEVELS = ("off", "batch", "commit")

#: ``\r\n`` inside the magic catches text-mode transfer mangling early.
MAGIC = b"TPWAL\r\n\x00"
_HEADER = struct.Struct("<II")  # payload length, crc32(payload)

#: Payload format version — bump on incompatible layout changes.
_VERSION = 1


def parse_durability(text: str, *, source: str = "durability") -> str:
    """Validate a durability level, rejecting unknown values."""
    if text not in DURABILITY_LEVELS:
        raise ValueError(
            f"{source} must be one of {', '.join(DURABILITY_LEVELS)}, "
            f"got {text!r}"
        )
    return text


class WalMeta:
    """The store metadata carried by a WAL (and checkpoint) header."""

    __slots__ = ("name", "attributes", "segment_capacity")

    def __init__(
        self, name: str, attributes: Sequence[str], segment_capacity: int
    ) -> None:
        self.name = name
        self.attributes = tuple(attributes)
        self.segment_capacity = segment_capacity

    @classmethod
    def of(cls, store: SegmentStore) -> "WalMeta":
        return cls(store.name, store.schema.attributes, store.segment_capacity)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WalMeta)
            and self.name == other.name
            and self.attributes == other.attributes
            and self.segment_capacity == other.segment_capacity
        )

    def __repr__(self) -> str:
        return (
            f"WalMeta({self.name!r}, {self.attributes!r}, "
            f"capacity={self.segment_capacity})"
        )


# ----------------------------------------------------------------------
# payload codec (plain data in, plain data out — pickled at C speed)
# ----------------------------------------------------------------------
def encode_tuples(tuples: Sequence[TPTuple]) -> tuple:
    """Flatten tuples into (rows, node table, roots) — shared lineage."""
    rows = tuple(
        (t.fact, t.interval.start, t.interval.end, t.p) for t in tuples
    )
    nodes, roots = encode_batch([t.lineage for t in tuples])
    return rows, nodes, tuple(roots)


def decode_tuples(rows: Sequence, nodes: Sequence, roots: Sequence) -> list[TPTuple]:
    """Rebuild tuples through the trusted slot writers (DESIGN.md §6.3),
    replaying lineage through the interning codec.  A record is not a
    sweep's output, so its intervals are still checked to be non-empty."""
    if not rows:
        return []
    facts, starts, ends, probs = zip(*rows)
    check_intervals(starts, ends)
    lineages = decode_batch(nodes, roots)
    return tuples_from_rows(zip(facts, lineages, starts, ends), probs)


def _meta_payload(meta: WalMeta) -> bytes:
    return pickle.dumps(
        ("meta", _VERSION, meta.name, meta.attributes, meta.segment_capacity),
        protocol=4,
    )


def _changeset_payload(changeset: ChangeSet) -> bytes:
    tuples = changeset.inserted + changeset.deleted
    rows, nodes, roots = encode_tuples(tuples)
    return pickle.dumps(
        (
            "cs",
            _VERSION,
            changeset.epoch,
            changeset.counter,
            len(changeset.inserted),
            rows,
            nodes,
            roots,
            tuple(sorted(changeset.events.items())),
            tuple(changeset.removed_events),
        ),
        protocol=4,
    )


def _decode_payload(payload: bytes):
    """One record's object: a :class:`WalMeta` or a :class:`ChangeSet`.

    Raises on any structural problem — the scanner treats a payload
    that unpickles to garbage the same as one whose checksum failed.
    """
    obj = pickle.loads(payload)
    tag = obj[0]
    if tag == "meta":
        _, version, name, attributes, capacity = obj
        if version != _VERSION:
            raise ValueError(f"unsupported WAL version {version}")
        return WalMeta(name, attributes, capacity)
    if tag == "cs":
        (_, version, epoch, counter, n_inserted, rows, nodes, roots,
         events, removed) = obj
        if version != _VERSION:
            raise ValueError(f"unsupported WAL version {version}")
        tuples = decode_tuples(rows, nodes, roots)
        return ChangeSet(
            epoch,
            tuple(tuples[:n_inserted]),
            tuple(tuples[n_inserted:]),
            dict(events),
            tuple(removed),
            counter,
        )
    raise ValueError(f"unknown WAL record tag {tag!r}")


def _record_bytes(payload: bytes) -> tuple[bytes, bytes]:
    return _HEADER.pack(len(payload), zlib.crc32(payload)), payload


# ----------------------------------------------------------------------
# scanning (the read half of recovery)
# ----------------------------------------------------------------------
class WalScan:
    """The durable prefix of a WAL file, plus where the tail tore.

    ``valid_length`` is the byte offset of the last committed record's
    end — the truncation point for a damaged tail.  ``damage`` is
    ``None`` for a clean file, otherwise a short description of why the
    scan stopped (torn record, checksum mismatch, epoch gap…).
    """

    __slots__ = ("meta", "changesets", "valid_length", "damage")

    def __init__(self, meta, changesets, valid_length, damage) -> None:
        self.meta: Optional[WalMeta] = meta
        self.changesets: list[ChangeSet] = changesets
        self.valid_length: int = valid_length
        self.damage: Optional[str] = damage

    @property
    def last_epoch(self) -> Optional[int]:
        return self.changesets[-1].epoch if self.changesets else None


def scan_wal(path: _PathLike) -> WalScan:
    """Walk a WAL file and return its committed prefix.

    Never raises on damaged content: a missing/empty/garbage file is an
    empty log, a torn or corrupt record ends the committed prefix, and a
    record whose epoch does not follow its predecessor's is treated as
    corruption (the commit protocol writes epochs contiguously, so a
    gap can only be damage).
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return WalScan(None, [], 0, "missing")
    if len(data) < len(MAGIC):
        return WalScan(None, [], 0, "no magic" if data else None)
    if data[: len(MAGIC)] != MAGIC:
        return WalScan(None, [], 0, "bad magic")

    meta: Optional[WalMeta] = None
    changesets: list[ChangeSet] = []
    offset = len(MAGIC)
    damage: Optional[str] = None
    while offset < len(data):
        if offset + _HEADER.size > len(data):
            damage = "torn record header"
            break
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > len(data):
            damage = "torn record payload"
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            damage = "checksum mismatch"
            break
        try:
            obj = _decode_payload(payload)
        except Exception:
            damage = "undecodable payload"
            break
        if isinstance(obj, WalMeta):
            if meta is not None:
                damage = "duplicate metadata record"
                break
            meta = obj
        else:
            if meta is None:
                damage = "changeset before metadata"
                break
            previous = changesets[-1].epoch if changesets else None
            if previous is not None and obj.epoch != previous + 1:
                damage = (
                    f"epoch gap ({previous} -> {obj.epoch})"
                )
                break
            changesets.append(obj)
        offset = end
    return WalScan(meta, changesets, offset, damage)


# ----------------------------------------------------------------------
# the appender
# ----------------------------------------------------------------------
class WriteAheadLog:
    """Append-only writer over one store's WAL file.

    Registered as a **store consumer** (it exposes ``seen_epoch``): the
    change-log pruning of :meth:`SegmentStore.prune_consumed` then never
    drops a ChangeSet the log has not flushed yet, even when the store
    is mutated directly (bypassing the database facade) — the changes
    wait in the store's in-memory log until the next :meth:`sync_from`
    drains them.

    ``fsync=True`` is the ``commit`` durability level; ``False`` is
    ``batch`` (explicit :meth:`flush` or checkpoint rotation syncs).
    """

    def __init__(
        self,
        path: _PathLike,
        meta: WalMeta,
        *,
        fsync: bool = True,
        seen_epoch: int = 0,
    ) -> None:
        self.path = Path(path)
        self.meta = meta
        self.fsync = fsync
        self.seen_epoch = seen_epoch
        self._file: Optional[BinaryIO] = None
        if not self.path.exists() or self.path.stat().st_size == 0:
            self._initialize()
        else:
            self._file = open(self.path, "ab", buffering=0)

    def _initialize(self) -> None:
        """Write a fresh file: magic plus the metadata record."""
        trip("wal.init.begin")
        self._file = open(self.path, "wb", buffering=0)
        header, payload = _record_bytes(_meta_payload(self.meta))
        self._file.write(MAGIC + header + payload)
        trip("wal.init.written")
        os.fsync(self._file.fileno())
        trip("wal.init.synced")

    # -- writes --------------------------------------------------------
    def append(self, changeset: ChangeSet) -> None:
        """Append one committed transaction (fault-pointed, torn-write
        faithful: header and payload halves are separate writes)."""
        assert self._file is not None, "WAL is closed"
        if changeset.epoch <= self.seen_epoch:
            raise ValueError(
                f"WAL {self.path.name} already holds epoch {self.seen_epoch}; "
                f"refusing to append epoch {changeset.epoch}"
            )
        trip("wal.append.begin")
        header, payload = _record_bytes(_changeset_payload(changeset))
        self._file.write(header)
        trip("wal.append.header")
        mid = len(payload) // 2
        self._file.write(payload[:mid])
        trip("wal.append.partial")
        self._file.write(payload[mid:])
        trip("wal.append.record")
        if self.fsync:
            os.fsync(self._file.fileno())
            trip("wal.append.synced")
        self.seen_epoch = changeset.epoch

    def sync_from(self, store: SegmentStore) -> int:
        """Drain the store's in-memory change log into the file.

        Returns the number of records appended.  Called by the
        persistence manager after every database-level commit — and,
        because the WAL is a registered consumer, any commits made
        *around* the manager are still waiting here untouched."""
        changesets = store.changes_since(self.seen_epoch)
        for changeset in changesets:
            self.append(changeset)
        if changesets:
            store.prune_consumed()
        return len(changesets)

    def rotate(self, seen_epoch: int) -> None:
        """Atomically replace the file with a fresh, empty log.

        Called after a checkpoint covering ``seen_epoch``: every logged
        record is ≤ that epoch, so the log's content is dead weight.
        The replacement is built complete in a temp file and renamed
        over — a crash at any boundary leaves either the old log (whose
        stale records recovery skips past the checkpoint) or the new
        one, never a half-truncated file."""
        assert self._file is not None, "WAL is closed"
        trip("wal.rotate.begin")
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb", buffering=0) as handle:
            header, payload = _record_bytes(_meta_payload(self.meta))
            handle.write(MAGIC + header + payload)
            trip("wal.rotate.written")
            os.fsync(handle.fileno())
        trip("wal.rotate.synced")
        self._file.close()
        self._file = None
        os.replace(tmp, self.path)
        trip("wal.rotate.renamed")
        _fsync_directory(self.path.parent)
        trip("wal.rotate.done")
        self._file = open(self.path, "ab", buffering=0)
        self.seen_epoch = seen_epoch

    def flush(self) -> None:
        """Force everything appended so far onto disk (batch mode)."""
        if self._file is not None:
            os.fsync(self._file.fileno())
            trip("wal.flush.synced")

    def close(self) -> None:
        if self._file is not None:
            os.fsync(self._file.fileno())
            self._file.close()
            self._file = None

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({str(self.path)!r}, seen_epoch={self.seen_epoch}, "
            f"fsync={self.fsync})"
        )


def truncate_wal(path: _PathLike, valid_length: int) -> None:
    """Cut a damaged tail off a WAL file (recovery's repair step)."""
    with open(path, "r+b") as handle:
        handle.truncate(valid_length)
        os.fsync(handle.fileno())
    trip("wal.truncate.done")


def _fsync_directory(directory: Path) -> None:
    """Flush a rename to disk (best effort on platforms without dir fds)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
