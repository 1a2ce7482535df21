"""Crash recovery and the per-store durability manager (DESIGN.md §11).

Recovery is a two-phase state machine:

1. **Checkpoint phase** — load the newest checkpoint in the store's
   directory that decodes cleanly (:func:`repro.store.checkpoint
   .latest_checkpoint`); corrupt or torn candidates are skipped, not
   fatal.  No checkpoint at all means the store started empty and the
   WAL is the whole history.
2. **Replay phase** — scan the WAL's committed prefix
   (:func:`repro.store.wal.scan_wal`) and replay, in order, every
   record whose epoch succeeds the restored state
   (:meth:`SegmentStore.replay_changeset`).  Records at or below the
   checkpoint epoch are skipped (a crash between checkpoint rename and
   WAL rotation leaves them behind, legitimately); a torn or corrupt
   tail is **truncated to the last committed record**, losing at most
   the transaction that was in flight when the crash hit — never
   committed state, and never raising.

Recovery is idempotent: it only reads, plus the one truncation repair,
so running it twice produces bit-identical stores (the harness asserts
exactly this).

:class:`StorePersistence` is the manager the database facade drives:
it owns the store's directory, appends every committed ChangeSet to the
WAL (draining through the consumer protocol, so nothing is ever pruned
unflushed), checkpoints every ``checkpoint_every`` commits — verifying
the new checkpoint reads back equal to what was written *before*
rotating the WAL away — and recovers on open.  A checkpoint or WAL
record of another format version is refused at open with
:class:`~repro.store.wal.FormatVersionError`, the directory untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .checkpoint import latest_checkpoint, prune_checkpoints, write_checkpoint
from .faultpoints import trip
from .segment import SegmentStore
from .wal import WalMeta, WriteAheadLog, scan_wal, truncate_wal

__all__ = [
    "RecoveryError",
    "RecoveryReport",
    "StorePersistence",
    "recover_store",
    "store_state",
]

_PathLike = Union[str, Path]

#: The WAL file name inside a store's durability directory.
WAL_NAME = "wal.log"

#: Default commits between automatic checkpoints.
DEFAULT_CHECKPOINT_EVERY = 256


class RecoveryError(RuntimeError):
    """The directory holds no recoverable store state at all."""


@dataclass(frozen=True)
class RecoveryReport:
    """What recovery found and did — surfaced for logging and tests."""

    directory: str
    checkpoint_epoch: Optional[int]
    replayed: int
    truncated_bytes: int
    damage: Optional[str]
    epoch: int

    def __str__(self) -> str:
        ckpt = (
            f"checkpoint@{self.checkpoint_epoch}"
            if self.checkpoint_epoch is not None
            else "no checkpoint"
        )
        tail = f", truncated {self.truncated_bytes}B ({self.damage})" if self.damage else ""
        return (
            f"recovered {self.directory}: {ckpt} + {self.replayed} WAL "
            f"record(s) -> epoch {self.epoch}{tail}"
        )


def store_state(store: SegmentStore) -> tuple:
    """The canonical comparable state of a store — the bit-identity
    relation the crash harness and benchmarks assert with: name, schema,
    epoch, identifier counter, every tuple (fact, lineage, interval,
    probability) in ``(F, Ts)`` order, and the event map."""
    return (
        store.name,
        store.schema.attributes,
        store.epoch,
        store._counter,
        tuple(
            (t.fact, str(t.lineage), t.start, t.end, t.p)
            for t in store.iter_sorted()
        ),
        tuple(sorted(store.events.items())),
    )


def recover_store(
    directory: _PathLike,
) -> tuple[SegmentStore, RecoveryReport]:
    """Rebuild a store from its directory (checkpoint + WAL replay).

    Raises :class:`RecoveryError` only when the directory holds neither
    a loadable checkpoint nor a WAL with a readable metadata record —
    i.e. when there is nothing to recover (a crash before the store's
    very first durable write legitimately leaves this state; the caller
    treats it as "the store never existed").
    """
    directory = Path(directory)
    checkpoint = latest_checkpoint(directory)
    wal_path = directory / WAL_NAME
    scan = scan_wal(wal_path)

    if checkpoint is not None:
        store = checkpoint.restore()
        checkpoint_epoch: Optional[int] = checkpoint.epoch
    elif scan.meta is not None:
        meta = scan.meta
        store = SegmentStore(
            meta.name, meta.attributes, segment_capacity=meta.segment_capacity
        )
        checkpoint_epoch = None
    else:
        raise RecoveryError(
            f"{directory}: no valid checkpoint and no readable WAL metadata"
        )

    replayed = 0
    damage = scan.damage
    for changeset in scan.changesets:
        if changeset.epoch <= store.epoch:
            continue  # covered by the checkpoint (stale, un-rotated log)
        if changeset.epoch != store.epoch + 1:
            # A committed record the restored state cannot reach — only
            # possible when an older WAL survived next to a newer
            # checkpoint whose intermediate records were rotated away.
            # The checkpoint state is complete in itself; the orphaned
            # tail is dropped like damage.
            damage = damage or (
                f"epoch {changeset.epoch} unreachable from {store.epoch}"
            )
            break
        store.replay_changeset(changeset)
        replayed += 1

    truncated = 0
    if scan.damage is not None and wal_path.exists():
        size = wal_path.stat().st_size
        if size > scan.valid_length:
            truncated = size - scan.valid_length
            truncate_wal(wal_path, scan.valid_length)

    report = RecoveryReport(
        directory=str(directory),
        checkpoint_epoch=checkpoint_epoch,
        replayed=replayed,
        truncated_bytes=truncated,
        damage=damage,
        epoch=store.epoch,
    )
    return store, report


class StorePersistence:
    """One store's durability manager: WAL draining plus checkpoints.

    The WAL object is registered as a store *consumer*, so the store's
    in-memory change log never prunes a transaction the file has not
    absorbed — commits made directly on the store (bypassing the
    database facade) simply wait until the next :meth:`on_commit`,
    :meth:`flush` or :meth:`checkpoint` drains them.
    """

    def __init__(
        self,
        store: SegmentStore,
        directory: Path,
        wal: WriteAheadLog,
        *,
        durability: str = "commit",
        checkpoint_every: Optional[int] = DEFAULT_CHECKPOINT_EVERY,
    ) -> None:
        self.store = store
        self.directory = directory
        self.wal = wal
        self.durability = durability
        self.checkpoint_every = checkpoint_every
        self._since_checkpoint = 0
        store.register_consumer(wal)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def attach(
        cls,
        store: SegmentStore,
        directory: _PathLike,
        *,
        durability: str = "commit",
        checkpoint_every: Optional[int] = DEFAULT_CHECKPOINT_EVERY,
    ) -> "StorePersistence":
        """Start persisting a live store into a fresh directory.

        The commit order is what makes a crash at any point recoverable
        to a consistent state: the **seed checkpoint is written before
        the WAL exists**, so recovery can never see a WAL whose epoch-0
        base state is missing.  A store that is empty at epoch 0 skips
        the seed checkpoint — the WAL alone reconstructs it.
        """
        directory = Path(directory)
        if directory.exists() and any(directory.iterdir()):
            raise ValueError(
                f"{directory} is not empty — use StorePersistence.open() "
                f"to resume an existing store"
            )
        directory.mkdir(parents=True, exist_ok=True)
        if len(store) or store.epoch or store.events:
            write_checkpoint(store, directory)
        wal = WriteAheadLog(
            directory / WAL_NAME,
            WalMeta.of(store),
            fsync=durability == "commit",
            seen_epoch=store.epoch,
        )
        return cls(
            store,
            directory,
            wal,
            durability=durability,
            checkpoint_every=checkpoint_every,
        )

    @classmethod
    def open(
        cls,
        directory: _PathLike,
        *,
        durability: str = "commit",
        checkpoint_every: Optional[int] = DEFAULT_CHECKPOINT_EVERY,
    ) -> tuple["StorePersistence", RecoveryReport]:
        """Recover the store in ``directory`` and resume logging to it."""
        directory = Path(directory)
        store, report = recover_store(directory)
        wal_path = directory / WAL_NAME
        scan = scan_wal(wal_path)
        wal = WriteAheadLog(
            wal_path,
            WalMeta.of(store),
            fsync=durability == "commit",
            seen_epoch=store.epoch,
        )
        # The file's durable tail must sit exactly at the store's epoch
        # for appends to stay contiguous; when it does not (no metadata
        # record at all, or a tail older/newer than the recovered state)
        # start a fresh log — the recovered state already covers it.
        tail = scan.changesets[-1].epoch if scan.changesets else None
        if scan.meta is None or (tail is not None and tail != store.epoch):
            wal.rotate(store.epoch)
        self = cls(
            store,
            directory,
            wal,
            durability=durability,
            checkpoint_every=checkpoint_every,
        )
        return self, report

    # ------------------------------------------------------------------
    # the commit path
    # ------------------------------------------------------------------
    def on_commit(self) -> int:
        """Drain newly committed transactions into the WAL.

        Called by the database facade after every transaction; appends
        (and, at the ``commit`` level, fsyncs) every change set the WAL
        has not absorbed yet, then checkpoints if the log grew past
        ``checkpoint_every`` commits."""
        appended = self.wal.sync_from(self.store)
        self._since_checkpoint += appended
        if (
            self.checkpoint_every is not None
            and self._since_checkpoint >= self.checkpoint_every
        ):
            self.checkpoint()
        return appended

    def checkpoint(self) -> Path:
        """Write a checkpoint now, then rotate the WAL.

        :func:`write_checkpoint` reads the file back and compares it with
        what it wrote before the rename, and raises on a mismatch; the
        rotation happens only after that — a checkpoint that cannot be
        loaded must never become the only copy of the data."""
        self.wal.sync_from(self.store)
        if self.durability != "commit":
            self.wal.flush()
        path = write_checkpoint(self.store, self.directory)
        trip("ckpt.verified")
        self.wal.rotate(self.store.epoch)
        prune_checkpoints(self.directory, self.store.epoch)
        self._since_checkpoint = 0
        return path

    def flush(self) -> None:
        """Drain pending commits and force the log onto disk."""
        self.wal.sync_from(self.store)
        self.wal.flush()

    def close(self) -> None:
        """Drain, sync and release the log file."""
        self.wal.sync_from(self.store)
        self.wal.close()

    def __repr__(self) -> str:
        return (
            f"StorePersistence({self.store.name!r} @ {str(self.directory)!r}, "
            f"{self.durability}, wal_epoch={self.wal.seen_epoch})"
        )
