"""Mutable TP storage and incremental view maintenance.

The serving layer of the reproduction (DESIGN.md §9): mutable base
relations stored as fact-group-keyed, time-partitioned segments
(:class:`SegmentStore`), batched insert/delete transactions with a
replayable change log (:class:`ChangeSet`, :class:`Delta`), and
materialized views (:class:`MaterializedView`) kept consistent by
delta-scoped partial re-sweeps of the LAWA / generalized-window kernels
instead of full recomputation.

>>> from repro.store import SegmentStore, MaterializedView
>>> from repro.query.parser import parse_query
>>> a = SegmentStore("a", ("product",))
>>> _ = a.insert([("milk", 2, 10, 0.3), ("chips", 4, 7, 0.8)])
>>> b = SegmentStore("b", ("product",))
>>> _ = b.insert([("milk", 5, 9, 0.6)])
>>> v = MaterializedView("v", parse_query("a | b"), {"a": a, "b": b})
>>> len(v.relation())
4
>>> _ = a.delete([("chips", 4, 7)])
>>> v.is_fresh()
False
>>> len(v.relation())  # deferred policy: refreshed on read
3
"""

from .checkpoint import (
    Checkpoint,
    latest_checkpoint,
    load_checkpoint,
    write_checkpoint,
)
from .delta import Delta, load_delta, save_delta
from .faultpoints import SimulatedCrash, fault_hook, set_fault_hook
from .maintenance import (
    MaintenanceStrategy,
    get_maintenance_strategy,
    maintenance_strategies,
)
from .recovery import (
    RecoveryError,
    RecoveryReport,
    StorePersistence,
    recover_store,
    store_state,
)
from .stats import StoreStatistics
from .segment import (
    DEFAULT_SEGMENT_CAPACITY,
    ChangeSet,
    Region,
    SegmentStore,
    SnapshotUnavailableError,
)
from .view import REFRESH_POLICIES, MaterializedView
from .wal import (
    DURABILITY_LEVELS,
    FormatVersionError,
    WalMeta,
    WriteAheadLog,
    parse_durability,
    scan_wal,
)

__all__ = [
    "ChangeSet",
    "Checkpoint",
    "DEFAULT_SEGMENT_CAPACITY",
    "DURABILITY_LEVELS",
    "FormatVersionError",
    "Delta",
    "MaintenanceStrategy",
    "MaterializedView",
    "REFRESH_POLICIES",
    "RecoveryError",
    "RecoveryReport",
    "Region",
    "SegmentStore",
    "SimulatedCrash",
    "SnapshotUnavailableError",
    "StorePersistence",
    "StoreStatistics",
    "WalMeta",
    "WriteAheadLog",
    "fault_hook",
    "get_maintenance_strategy",
    "latest_checkpoint",
    "load_checkpoint",
    "load_delta",
    "maintenance_strategies",
    "parse_durability",
    "recover_store",
    "save_delta",
    "scan_wal",
    "set_fault_hook",
    "store_state",
    "write_checkpoint",
]
