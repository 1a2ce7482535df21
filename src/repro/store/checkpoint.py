"""Atomic full-store checkpoints (DESIGN.md §12).

A checkpoint is one self-contained snapshot of a
:class:`~repro.store.SegmentStore` — schema, every tuple (lineage via
the batch codec), the event map, the epoch it covers and the identifier
counter — in a single CRC32-stamped file::

    file := MAGIC | u32 payload_length | u32 crc32(payload) | payload

Checkpoints are written with the classic atomic-replace protocol: the
complete file is built as ``<name>.tmp`` in the same directory, fsynced,
then :func:`os.replace`\\ d into its final name
``checkpoint-<epoch16>.ckpt`` and the directory fsynced.  A crash at
*any* boundary therefore leaves either the previous checkpoint (plus a
dead ``.tmp`` the next writer overwrites) or the new one — never a
half-written file under the real name.  Recovery scans all
``checkpoint-*.ckpt`` files and loads the newest one whose checksum
verifies, so even a checkpoint corrupted after the fact (bit rot,
truncation) degrades to the previous one plus a longer WAL replay
rather than failing.
"""

from __future__ import annotations

import os
import pickle
import re
import struct
import zlib
from pathlib import Path
from typing import Optional, Union

from .faultpoints import trip
from .segment import SegmentStore
from .wal import WalMeta, decode_tuples, encode_tuples, _fsync_directory

__all__ = [
    "Checkpoint",
    "checkpoint_path",
    "latest_checkpoint",
    "load_checkpoint",
    "write_checkpoint",
]

_PathLike = Union[str, Path]

MAGIC = b"TPCKPT\r\n"
_HEADER = struct.Struct("<II")
_VERSION = 1

#: ``checkpoint-<zero-padded epoch>.ckpt`` — zero padding keeps
#: lexicographic and numeric order identical, handy for humans and
#: directory listings alike.
_NAME_RE = re.compile(r"^checkpoint-(\d{16})\.ckpt$")


class Checkpoint:
    """One decoded checkpoint: the store state it restores to."""

    __slots__ = ("meta", "epoch", "counter", "tuples", "events", "path")

    def __init__(self, meta, epoch, counter, tuples, events, path) -> None:
        self.meta: WalMeta = meta
        self.epoch: int = epoch
        self.counter: int = counter
        self.tuples = tuples
        self.events: dict = events
        self.path: Optional[Path] = path

    def restore(self) -> SegmentStore:
        """Rebuild the checkpointed store (epoch and counter included)."""
        return SegmentStore.restore(
            self.meta.name,
            self.meta.attributes,
            self.tuples,
            self.events,
            epoch=self.epoch,
            counter=self.counter,
            segment_capacity=self.meta.segment_capacity,
        )


def checkpoint_path(directory: _PathLike, epoch: int) -> Path:
    return Path(directory) / f"checkpoint-{epoch:016d}.ckpt"


def write_checkpoint(store: SegmentStore, directory: _PathLike) -> Path:
    """Snapshot the store atomically; returns the final checkpoint path.

    The store's ``_counter`` is part of the snapshot: a store restored
    from it mints exactly the identifiers the live store would have.
    """
    directory = Path(directory)
    rows, nodes, roots = encode_tuples(list(store.iter_sorted()))
    payload = pickle.dumps(
        (
            "ckpt",
            _VERSION,
            store.name,
            store.schema.attributes,
            store.segment_capacity,
            store.epoch,
            store._counter,
            rows,
            nodes,
            roots,
            tuple(sorted(store.events.items())),
        ),
        protocol=4,
    )
    final = checkpoint_path(directory, store.epoch)
    tmp = final.with_name(final.name + ".tmp")
    trip("ckpt.begin")
    with open(tmp, "wb", buffering=0) as handle:
        handle.write(MAGIC)
        handle.write(_HEADER.pack(len(payload), zlib.crc32(payload)))
        handle.write(payload)
        trip("ckpt.written")
        os.fsync(handle.fileno())
    trip("ckpt.synced")
    os.replace(tmp, final)
    trip("ckpt.renamed")
    _fsync_directory(directory)
    trip("ckpt.done")
    return final


def load_checkpoint(path: _PathLike) -> Checkpoint:
    """Decode one checkpoint file; raises ``ValueError`` when invalid."""
    path = Path(path)
    data = path.read_bytes()
    if len(data) < len(MAGIC) + _HEADER.size or data[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path.name}: not a checkpoint file")
    length, crc = _HEADER.unpack_from(data, len(MAGIC))
    start = len(MAGIC) + _HEADER.size
    payload = memoryview(data)[start : start + length]
    if len(payload) != length:
        raise ValueError(f"{path.name}: truncated checkpoint payload")
    if zlib.crc32(payload) != crc:
        raise ValueError(f"{path.name}: checkpoint checksum mismatch")
    obj = pickle.loads(payload)
    if obj[0] != "ckpt" or obj[1] != _VERSION:
        raise ValueError(f"{path.name}: unsupported checkpoint format")
    # Every commit-triggered checkpoint is re-read here to verify it, at
    # the store's largest: hold the file's bytes, the unpickled tables and
    # the decoded tuples one after the other, not all at once.
    del data, payload
    (_, _, name, attributes, capacity, epoch, counter,
     rows, nodes, roots, events) = obj
    del obj
    events = dict(events)
    return Checkpoint(
        WalMeta(name, attributes, capacity),
        epoch,
        counter,
        decode_tuples(rows, nodes, roots),
        events,
        path,
    )


def latest_checkpoint(directory: _PathLike) -> Optional[Checkpoint]:
    """The newest checkpoint in the directory that decodes cleanly.

    Invalid or torn files (including leftover ``.tmp`` files, which are
    never even considered) are skipped, falling back to the next-newest
    — a corrupt latest checkpoint costs WAL replay time, not data.
    """
    directory = Path(directory)
    candidates: list[tuple[int, Path]] = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return None
    for name in names:
        match = _NAME_RE.match(name)
        if match:
            candidates.append((int(match.group(1)), directory / name))
    for _, path in sorted(candidates, reverse=True):
        try:
            return load_checkpoint(path)
        except (OSError, ValueError):
            continue
    return None


def prune_checkpoints(directory: _PathLike, keep_epoch: int) -> None:
    """Delete checkpoint files older than the one covering ``keep_epoch``."""
    directory = Path(directory)
    for name in os.listdir(directory):
        match = _NAME_RE.match(name)
        if match and int(match.group(1)) < keep_epoch:
            try:
                os.unlink(directory / name)
            except OSError:
                pass
    trip("ckpt.pruned")
