"""Deterministic crash fault injection over the durability layer (§11).

The harness enumerates *every* write/fsync/rename boundary a workload
crosses (dry-run with a counting hook), then re-runs the workload once
per boundary with a simulated crash injected exactly there.  After each
crash the store is recovered from disk and held against an in-memory
oracle that saw only the committed prefix:

* a transaction whose WAL record was fully written (the
  ``wal.append.record`` boundary was crossed) must survive recovery
  bit-identically — facts, intervals, re-interned lineage, event map,
  epoch and identifier counter;
* a transaction cut anywhere earlier must vanish completely (its torn
  record is truncated, never half-applied);
* recovering twice must equal recovering once (idempotence), and the
  recovered store must accept further transactions.

Because :class:`SimulatedCrash` only stops the *process'* execution —
the kernel keeps every byte already handed to the unbuffered file — the
committed prefix is exactly determined by which boundaries were crossed,
making the oracle deterministic rather than probabilistic.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.database import TPDatabase
from repro.store import (
    SegmentStore,
    SimulatedCrash,
    StorePersistence,
    fault_hook,
    recover_store,
    scan_wal,
    store_state,
    write_checkpoint,
)
from repro.store.recovery import RecoveryError

SEED_ROWS = [("milk", 2, 10, 0.3), ("chips", 4, 7, 0.8)]
FACTS = ("milk", "chips", "soda", "beer")


# ----------------------------------------------------------------------
# workload scripts: intents resolved deterministically against the store
# ----------------------------------------------------------------------
def _resolve_step(store: SegmentStore, intent: dict) -> tuple[list, list]:
    """Turn a step intent into concrete insert/delete rows.

    Pure function of the store's current content, so the oracle run and
    every crash run resolve identically up to the crash point.  Inserts
    are placed past the store's current time span, which keeps every
    script applicable (duplicate-freeness can't be violated)."""
    existing = list(store.iter_sorted())
    deletes: list = []
    for pick in intent["delete_picks"]:
        if existing:
            t = existing[pick % len(existing)]
            row = (*t.fact, t.start, t.end)
            if row not in deletes:
                deletes.append(row)
    base = max((t.end for t in existing), default=0)
    inserts = [
        (fact, base + offset + i * 20, base + offset + i * 20 + length, p)
        for i, (offset, length, fact, p) in enumerate(intent["inserts"])
    ]
    return inserts, deletes


@st.composite
def crash_script(draw, max_steps: int = 3):
    """Random transaction intents, including delete-everything sweeps
    and delete+re-insert of the same fact (``removed_events`` replay)."""
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_steps))):
        steps.append(
            {
                "delete_picks": draw(
                    st.lists(st.integers(min_value=0, max_value=20), max_size=2)
                ),
                "inserts": draw(
                    st.lists(
                        st.tuples(
                            st.integers(min_value=0, max_value=5),
                            st.integers(min_value=1, max_value=4),
                            st.sampled_from(FACTS),
                            st.floats(min_value=0.05, max_value=0.95).map(
                                lambda x: round(x, 3)
                            ),
                        ),
                        max_size=2,
                    )
                ),
            }
        )
    return steps


#: The fixed script the exhaustive boundary sweep runs: four steps mixing
#: inserts, targeted deletes and a delete+re-insert, sized so the
#: ``checkpoint_every=2`` auto-checkpoint (and its WAL rotation) fires
#: mid-workload — every fault point of every protocol gets crossed.
FIXED_SCRIPT = [
    {"delete_picks": [], "inserts": [(0, 3, "soda", 0.5), (2, 2, "beer", 0.4)]},
    {"delete_picks": [0, 1], "inserts": [(1, 4, "milk", 0.7)]},
    {"delete_picks": [0], "inserts": [(0, 2, "soda", 0.6)]},
    {"delete_picks": [], "inserts": [(3, 1, "chips", 0.9)]},
]


class CrashHook:
    """Counts fault points; crashes at the ``crash_at``-th (1-based).

    The counters update *before* the crash decision: a trip marks a
    boundary whose preceding operation already completed, so a crash at
    ``wal.append.record`` still counts that record as committed and a
    crash at ``ckpt.renamed`` still counts the checkpoint as durable.
    """

    def __init__(self, crash_at: int | None = None) -> None:
        self.crash_at = crash_at
        self.count = 0
        self.committed = 0
        self.base_durable = False

    def __call__(self, name: str) -> None:
        self.count += 1
        if name == "wal.append.record":
            self.committed += 1
        if name == "ckpt.renamed":
            self.base_durable = True
        if self.count == self.crash_at:
            raise SimulatedCrash(f"{name} (boundary #{self.count})")


def _run_workload(
    data_dir: Path, script: list, hook: CrashHook, *, durability: str = "commit"
) -> None:
    """The workload under test: seed a relation, convert it to a durable
    store, run the script's transactions, close cleanly."""
    db = None
    try:
        with fault_hook(hook):
            db = TPDatabase(
                data_dir=data_dir, durability=durability, checkpoint_every=2
            )
            db.create_relation("r", ("product",), SEED_ROWS)
            db.store("r")  # convert: seed checkpoint + WAL creation
            for intent in script:
                inserts, deletes = _resolve_step(db.store("r"), intent)
                db.apply("r", inserts=inserts, deletes=deletes)
            db.close()
    finally:
        # Release file handles without draining: a real crash would not
        # get to flush the lost tail either.
        if db is not None:
            for persistence in db._persistence.values():
                handle = persistence.wal._file
                if handle is not None:
                    handle.close()
                    persistence.wal._file = None


def _oracle_states(script: list) -> list:
    """Store states after 0, 1, 2, … committed transactions (in memory)."""
    db = TPDatabase()
    db.create_relation("r", ("product",), SEED_ROWS)
    store = db.store("r")
    states = [store_state(store)]
    for intent in script:
        inserts, deletes = _resolve_step(store, intent)
        changeset = db.apply("r", inserts=inserts, deletes=deletes)
        if changeset:  # exactly the transactions that produce a WAL record
            states.append(store_state(store))
    return states


def _verify_crash_recovery(
    data_dir: Path, hook: CrashHook, oracle: list, *, durability: str = "commit"
) -> None:
    """Recovered state == oracle at the committed prefix; twice == once;
    and the recovered store accepts further transactions."""
    once = TPDatabase(data_dir=data_dir, durability=durability)
    twice = TPDatabase(data_dir=data_dir, durability=durability)
    try:
        if not hook.base_durable:
            # Crash before the seed checkpoint's rename: nothing durable
            # ever existed, so the store must be cleanly absent.
            assert hook.committed == 0
            assert "r" not in once._stores and not once.recovery_reports
            return
        assert hook.committed < len(oracle)
        expected = oracle[hook.committed]
        assert store_state(once._stores["r"]) == expected
        assert store_state(twice._stores["r"]) == expected  # idempotent
        # The recovered store must be fully live: append one more
        # transaction and survive another reopen.
        once.insert("r", [("post", 1000, 1005, 0.5)])
        after = store_state(once._stores["r"])
        once.close()
        again = TPDatabase(data_dir=data_dir, durability=durability)
        try:
            assert store_state(again._stores["r"]) == after
        finally:
            again.close()
    finally:
        once.close()
        twice.close()


def _sweep(tmp_path: Path, script: list, *, durability: str = "commit") -> None:
    """Dry-run to count boundaries, then one crash run per boundary."""
    dry = CrashHook(crash_at=None)
    _run_workload(tmp_path / "dry", script, dry, durability=durability)
    assert dry.count > 0
    oracle = _oracle_states(script)
    for boundary in range(1, dry.count + 1):
        data_dir = tmp_path / f"crash-{boundary:03d}"
        hook = CrashHook(crash_at=boundary)
        with pytest.raises(SimulatedCrash):
            _run_workload(data_dir, script, hook, durability=durability)
        _verify_crash_recovery(data_dir, hook, oracle, durability=durability)


class TestCrashSweep:
    def test_dry_run_matches_oracle(self, tmp_path):
        """Sanity: without any crash, disk state equals the final oracle."""
        _run_workload(tmp_path / "d", FIXED_SCRIPT, CrashHook(None))
        store, report = recover_store(tmp_path / "d" / "r")
        assert report.damage is None and report.truncated_bytes == 0
        assert store_state(store) == _oracle_states(FIXED_SCRIPT)[-1]

    def test_every_boundary_commit_mode(self, tmp_path):
        _sweep(tmp_path, FIXED_SCRIPT, durability="commit")

    def test_every_boundary_batch_mode(self, tmp_path):
        """``batch`` skips per-commit fsync; the simulated-crash model
        (no kernel loss) keeps the same committed-prefix oracle."""
        _sweep(tmp_path, FIXED_SCRIPT, durability="batch")

    @given(script=crash_script())
    @settings(max_examples=6, deadline=None)
    def test_every_boundary_random_scripts(self, script, tmp_path_factory):
        _sweep(tmp_path_factory.mktemp("crash"), script)


class TestRecoveryEdgeCases:
    def _durable_store(self, directory, *, rows=3, checkpoint_every=None):
        store = SegmentStore("e", ("k",))
        persistence = StorePersistence.attach(
            store, directory, checkpoint_every=checkpoint_every
        )
        for i in range(rows):
            store.insert([(f"k{i}", i * 10, i * 10 + 5, 0.5)])
            persistence.on_commit()
        return store, persistence

    def test_empty_directory_is_not_a_store(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(RecoveryError):
            recover_store(tmp_path / "empty")
        db = TPDatabase(data_dir=tmp_path)  # skips it instead of failing
        assert not db.recovery_reports
        db.close()

    def test_zero_length_wal_with_checkpoint(self, tmp_path):
        store, persistence = self._durable_store(tmp_path / "e")
        write_checkpoint(store, tmp_path / "e")
        persistence.close()
        (tmp_path / "e" / "wal.log").write_bytes(b"")
        recovered, report = recover_store(tmp_path / "e")
        assert store_state(recovered) == store_state(store)
        assert report.replayed == 0

    def test_zero_length_wal_without_checkpoint(self, tmp_path):
        (tmp_path / "e").mkdir()
        (tmp_path / "e" / "wal.log").write_bytes(b"")
        with pytest.raises(RecoveryError):
            recover_store(tmp_path / "e")

    def test_checkpoint_only_no_wal(self, tmp_path):
        store, persistence = self._durable_store(tmp_path / "e")
        write_checkpoint(store, tmp_path / "e")
        persistence.close()
        (tmp_path / "e" / "wal.log").unlink()
        recovered, report = recover_store(tmp_path / "e")
        assert store_state(recovered) == store_state(store)
        assert report.checkpoint_epoch == store.epoch

    def test_wal_only_no_checkpoint(self, tmp_path):
        """A store created empty never wrote a seed checkpoint: the WAL
        alone must reconstruct it, including deletes."""
        store, persistence = self._durable_store(tmp_path / "e")
        store.delete([("k1", 10, 15)])
        persistence.on_commit()
        persistence.close()
        assert not list((tmp_path / "e").glob("checkpoint-*"))
        recovered, report = recover_store(tmp_path / "e")
        assert report.checkpoint_epoch is None
        assert store_state(recovered) == store_state(store)

    def test_garbage_suffix_truncated(self, tmp_path):
        store, persistence = self._durable_store(tmp_path / "e")
        persistence.close()
        wal = tmp_path / "e" / "wal.log"
        good = wal.read_bytes()
        wal.write_bytes(good + b"\x99" * 17)
        recovered, report = recover_store(tmp_path / "e")
        assert store_state(recovered) == store_state(store)
        assert report.truncated_bytes == 17
        assert wal.read_bytes() == good  # repaired in place
        _, second = recover_store(tmp_path / "e")
        assert second.damage is None and second.truncated_bytes == 0

    def test_corrupt_mid_record_byte_drops_only_the_tail(self, tmp_path):
        store, persistence = self._durable_store(tmp_path / "e", rows=3)
        state_before_last = None
        # Rebuild the two-commit state the corruption should land us on.
        oracle = SegmentStore("e", ("k",))
        for i in range(2):
            oracle.insert([(f"k{i}", i * 10, i * 10 + 5, 0.5)])
        state_before_last = store_state(oracle)
        persistence.close()
        wal = tmp_path / "e" / "wal.log"
        data = bytearray(wal.read_bytes())
        data[-5] ^= 0xFF  # flip a byte inside the last record's payload
        wal.write_bytes(bytes(data))
        recovered, report = recover_store(tmp_path / "e")
        assert "checksum mismatch" in (report.damage or "")
        assert store_state(recovered) == state_before_last

    def test_checkpoint_newer_than_wal_tail(self, tmp_path):
        """An old WAL next to a newer checkpoint (rotation lost to a
        crash, or a damaged-then-truncated log): the checkpoint wins,
        and reopening rotates so appends stay contiguous."""
        store, persistence = self._durable_store(tmp_path / "e", rows=2)
        wal = tmp_path / "e" / "wal.log"
        old_wal = wal.read_bytes()  # tail at epoch 2
        store.insert([("k9", 90, 95, 0.5)])
        persistence.on_commit()
        write_checkpoint(store, tmp_path / "e")  # covers epoch 3
        persistence.close()
        wal.write_bytes(old_wal)  # resurrect the stale log
        recovered, report = recover_store(tmp_path / "e")
        assert report.checkpoint_epoch == 3 and report.replayed == 0
        assert store_state(recovered) == store_state(store)
        reopened, _ = StorePersistence.open(tmp_path / "e")
        reopened.store.insert([("k10", 100, 105, 0.5)])
        reopened.on_commit()
        final = store_state(reopened.store)
        reopened.close()
        again, report = recover_store(tmp_path / "e")
        assert store_state(again) == final and report.damage is None

    def test_delete_reinsert_replays_removed_events(self, tmp_path):
        """Deleting a fact's last tuple removes its lineage event; the
        replayed log must remove (and re-mint) the same events, and the
        restored counter must keep post-recovery identifiers collision
        free with the in-memory twin."""
        disk = TPDatabase(data_dir=tmp_path / "d")
        memory = TPDatabase()
        for db in (disk, memory):
            db.create_relation("r", ("product",), SEED_ROWS)
            db.insert("r", [("soda", 1, 4, 0.5)])
            db.delete("r", [("soda", 1, 4), ("milk", 2, 10)])
            db.insert("r", [("soda", 1, 4, 0.6), ("milk", 2, 10, 0.2)])
        disk.close()
        recovered = TPDatabase(data_dir=tmp_path / "d")
        assert store_state(recovered._stores["r"]) == store_state(
            memory._stores["r"]
        )
        # Same next identifier on both sides, or lineage would diverge.
        recovered.insert("r", [("beer", 7, 9, 0.8)])
        memory.insert("r", [("beer", 7, 9, 0.8)])
        assert store_state(recovered._stores["r"]) == store_state(
            memory._stores["r"]
        )
        recovered.close()

    def test_views_resolve_freshness_after_recovery(self, tmp_path):
        db = TPDatabase(data_dir=tmp_path / "d")
        db.create_relation("a", ("product",), SEED_ROWS)
        db.create_relation("b", ("product",), [("milk", 5, 9, 0.6)])
        db.insert("a", [("soda", 1, 3, 0.4)])
        db.create_view("v", "a | b")
        before = db.query("v").to_table()
        db.close()

        recovered = TPDatabase(data_dir=tmp_path / "d")
        recovered.create_view("v", "a | b")  # views are redeclared, not persisted
        assert recovered.query("v").to_table() == before
        recovered.delete("a", [("soda", 1, 3)])
        assert not recovered.view("v").is_fresh()
        after = recovered.query("v").to_table()  # deferred: refresh on read
        assert after != before
        recovered.close()
        # ...and the post-recovery transaction itself was durable.
        final = TPDatabase(data_dir=tmp_path / "d")
        final.create_view("v", "a | b")
        assert final.query("v").to_table() == after
        final.close()

    def test_scan_reports_structured_damage(self, tmp_path):
        wal = tmp_path / "wal.log"
        wal.write_bytes(b"NOTAWAL!" + b"\x00" * 8)
        assert scan_wal(wal).damage == "bad magic"
        assert scan_wal(tmp_path / "absent.log").damage == "missing"
