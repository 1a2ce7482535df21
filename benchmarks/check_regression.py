"""CI benchmark-regression gate.

Compares a fresh smoke-scale benchmark run against the committed
full-scale records (``BENCH_pr1.json``, ``BENCH_pr2.json``) using
**machine-independent ratios**: absolute timings vary wildly across CI
runners, but the ratio of the optimized kernel to its in-process
reference path measures the same code on the same machine in the same
process, so it is stable —

* PR 1: fused kernel vs. unfused LawaSweep reference
  (``fused.min_s / unfused.min_s`` per workload/operation);
* PR 2: generalized-window join kernel vs. naive sweepline
  (``gtwindow.min_s / naive.min_s`` per workload/kind);
* PR 3: incremental view refresh vs. full recompute.  Unlike the
  kernel/reference pairs above, this ratio is *scale-dependent* (the
  incremental advantage grows with relation size, so a smoke ratio is
  systematically worse than the committed full-scale one); the gate is
  therefore an absolute floor — the smoke run's
  ``recompute.min_s / incremental.min_s`` speedup must stay above
  ``--pr3-min-speedup`` on every workload.  The committed full-scale
  record's ≥5x acceptance bar is asserted by ``bench_pr3.py`` itself at
  scale 1.0.
* PR 6: durability overhead.  The ``batch.min_s / off.min_s`` ratio of
  the ``wal_commit`` workload (WAL append without fsync vs. the pure
  in-memory commit path) is same-machine, same-process; the gate is an
  absolute ceiling — the smoke ratio must stay below
  ``--pr6-max-overhead``.  ``commit`` mode is fsync-bound (a property
  of the runner's disk, not the code) and reported informationally;
  like the PR 5 gate this one is CPU-gated (< 2 CPUs: skipped).
* PR 5: cost-based optimizer vs. unoptimized plans.  The
  ``unoptimized.min_s / optimized.min_s`` speedup is same-machine,
  same-process; the floor (``--pr5-min-speedup``) gates the
  ``pushdown_*`` workloads only (the flattening-only workload's payoff
  is scale-dependent and reported informationally) and is CPU-gated:
  skipped when the smoke runner has < 2 CPUs, where single-run
  wall-clock ratios are too noisy to fail a build on.

* SUITE: the unified scenario benchmark suite (``benchmarks/suite.py``,
  PR 7).  Machine-independent checks always run — the smoke
  ``BENCH_suite.smoke.json`` must be schema-valid, record
  ``equivalence.asserted`` for every scenario, and contain every
  scenario of the committed ``BENCH_suite.json``.  The per-scenario
  ratio gates (``--suite-max-slowdown``: the ``safe`` optimize level
  and the store backend must not lose more than that factor against
  their reference configurations) are CPU-gated like PR 5/6 and
  disabled entirely when the flag is 0 (the CI smoke's "zeroed
  thresholds" mode).

The job fails when a smoke ratio exceeds ``tolerance`` times the
committed ratio — i.e. the kernel lost more than that factor against
its reference since the record was taken.  Entries whose smoke timings
are below ``--min-seconds`` are skipped: at smoke scale the smallest
workloads finish in microseconds and their ratios are noise.

Run (as CI does)::

    python benchmarks/check_regression.py \
        --pr1-committed BENCH_pr1.json --pr1-smoke BENCH_pr1.smoke.json \
        --pr2-committed BENCH_pr2.json --pr2-smoke BENCH_pr2.smoke.json \
        --pr3-committed BENCH_pr3.json --pr3-smoke BENCH_pr3.smoke.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def _ratio(entry: dict, fast: str, reference: str, min_seconds: float):
    """kernel/reference warm-minimum ratio, or None when below noise."""
    fast_s = entry[fast]["min_s"]
    ref_s = entry[reference]["min_s"]
    if fast_s < min_seconds or ref_s < min_seconds:
        return None
    return fast_s / ref_s


def check_speedup_floor(
    committed: dict,
    smoke: dict,
    fast: str,
    reference: str,
    min_speedup: float,
    min_seconds: float,
    label: str,
) -> list[str]:
    """Absolute gate: reference/fast speedup must stay above a floor.

    Iterates the *committed* record's workloads so a smoke run that
    silently stopped emitting one cannot pass vacuously."""
    failures: list[str] = []
    for key in committed["timings"]:
        entry = smoke["timings"].get(key)
        if entry is None:
            failures.append(f"{label} {key}: missing from the smoke run")
            print(f"  {label} {key}: MISSING from smoke run")
            continue
        fast_s = entry[fast]["min_s"]
        ref_s = entry[reference]["min_s"]
        if fast_s < min_seconds and ref_s < min_seconds:
            print(f"  {label} {key}: below {min_seconds}s — skipped (noise)")
            continue
        speedup = ref_s / fast_s if fast_s > 0 else float("inf")
        verdict = "ok" if speedup >= min_speedup else "REGRESSION"
        print(
            f"  {label} {key}: {reference}/{fast} speedup {speedup:.2f}x "
            f"(floor {min_speedup}x) {verdict}"
        )
        if speedup < min_speedup:
            failures.append(
                f"{label} {key}: speedup {speedup:.2f}x < floor {min_speedup}x"
            )
    return failures


def check(
    committed: dict,
    smoke: dict,
    fast: str,
    reference: str,
    tolerance: float,
    min_seconds: float,
    label: str,
) -> list[str]:
    failures: list[str] = []
    for key, smoke_entry in smoke["timings"].items():
        committed_entry = committed["timings"].get(key)
        if committed_entry is None:
            print(f"  {label} {key}: no committed record — skipped")
            continue
        smoke_ratio = _ratio(smoke_entry, fast, reference, min_seconds)
        committed_ratio = _ratio(committed_entry, fast, reference, min_seconds)
        if smoke_ratio is None or committed_ratio is None:
            print(f"  {label} {key}: below {min_seconds}s — skipped (noise)")
            continue
        limit = committed_ratio * tolerance
        verdict = "ok" if smoke_ratio <= limit else "REGRESSION"
        print(
            f"  {label} {key}: {fast}/{reference} smoke {smoke_ratio:.3f} "
            f"vs committed {committed_ratio:.3f} (limit {limit:.3f}) {verdict}"
        )
        if smoke_ratio > limit:
            failures.append(
                f"{label} {key}: ratio {smoke_ratio:.3f} > "
                f"{tolerance}x committed {committed_ratio:.3f}"
            )
    return failures


def check_optimizer_speedup(
    committed: dict,
    smoke: dict,
    min_speedup: float,
    min_seconds: float,
) -> list[str]:
    """PR-5 gate: optimized-vs-unoptimized speedup floor, CPU-gated.

    Iterates the committed record's workloads (a smoke run that silently
    dropped one cannot pass vacuously).  Only ``pushdown_*`` workloads
    are gated — they are the ones the optimizer must win outright;
    everything else is printed informationally."""
    cpu_count = smoke.get("meta", {}).get("cpu_count", 0)
    if cpu_count < 2:
        print(
            f"  pr5: smoke runner has {cpu_count} CPU(s) — optimizer "
            f"speedup floor skipped (needs >= 2 for stable ratios)"
        )
        return []
    failures: list[str] = []
    for key in committed["timings"]:
        entry = smoke["timings"].get(key)
        gated = key.startswith("pushdown")
        if entry is None:
            if gated:
                failures.append(f"pr5 {key}: missing from the smoke run")
                print(f"  pr5 {key}: MISSING from smoke run")
            continue
        unopt_s = entry["unoptimized"]["min_s"]
        opt_s = entry["optimized"]["min_s"]
        if unopt_s < min_seconds:
            print(f"  pr5 {key}: below {min_seconds}s — skipped (noise)")
            continue
        speedup = unopt_s / opt_s if opt_s > 0 else float("inf")
        if not gated:
            print(f"  pr5 {key}: speedup {speedup:.2f}x (informational)")
            continue
        verdict = "ok" if speedup >= min_speedup else "REGRESSION"
        print(
            f"  pr5 {key}: unoptimized/optimized speedup {speedup:.2f}x "
            f"(floor {min_speedup}x) {verdict}"
        )
        if speedup < min_speedup:
            failures.append(
                f"pr5 {key}: speedup {speedup:.2f}x < floor {min_speedup}x"
            )
    return failures


def check_wal_overhead(
    committed: dict,
    smoke: dict,
    max_overhead: float,
    min_seconds: float,
) -> list[str]:
    """PR-6 gate: batch-WAL/off per-commit overhead ceiling, CPU-gated.

    Iterates the committed record's workloads (a smoke run that silently
    dropped ``wal_commit`` cannot pass vacuously).  Only the fsync-free
    ``batch`` mode is gated; ``commit`` is disk-bound and printed
    informationally."""
    cpu_count = smoke.get("meta", {}).get("cpu_count", 0)
    if cpu_count < 2:
        print(
            f"  pr6: smoke runner has {cpu_count} CPU(s) — WAL overhead "
            f"ceiling skipped (needs >= 2 for stable ratios)"
        )
        return []
    failures: list[str] = []
    for key in committed["timings"]:
        if key != "wal_commit":
            continue
        entry = smoke["timings"].get(key)
        if entry is None:
            failures.append(f"pr6 {key}: missing from the smoke run")
            print(f"  pr6 {key}: MISSING from smoke run")
            continue
        off_s = entry["off"]["min_s"]
        batch_s = entry["batch"]["min_s"]
        if off_s < min_seconds:
            print(f"  pr6 {key}: below {min_seconds}s — skipped (noise)")
            continue
        overhead = batch_s / off_s if off_s > 0 else float("inf")
        commit_overhead = entry.get("overhead_commit_vs_off", "?")
        verdict = "ok" if overhead <= max_overhead else "REGRESSION"
        print(
            f"  pr6 {key}: batch/off overhead {overhead:.2f}x "
            f"(ceiling {max_overhead}x; commit/off {commit_overhead}x "
            f"informational) {verdict}"
        )
        if overhead > max_overhead:
            failures.append(
                f"pr6 {key}: batch/off overhead {overhead:.2f}x > "
                f"ceiling {max_overhead}x"
            )
    return failures


def check_suite(
    committed: dict,
    smoke: dict,
    max_slowdown: float,
    min_seconds: float,
) -> list[str]:
    """Scenario-suite gate: schema + equivalence always, ratios CPU-gated.

    Machine-independent part (always enforced): the smoke record must be
    schema-valid (``schema_version``, per-scenario ``equivalence`` and
    ``timings`` blocks), every scenario must record
    ``equivalence.asserted == true`` (the suite refuses to time
    non-equivalent configurations, so a record without the flag was not
    produced by the suite), and every committed scenario must be present
    (a smoke run that silently dropped one cannot pass vacuously).

    CPU-gated part (skipped below 2 CPUs, or when ``max_slowdown`` is 0
    — the "zeroed thresholds" smoke mode): per scenario, the ``safe``
    optimize level, the serving result cache and the serving replica
    tier must not be more than ``max_slowdown`` times slower than their
    reference configurations (``speedup_safe`` / ``speedup_cache`` /
    ``speedup_replicas`` ``>= 1/max_slowdown``; the replica ratio is
    requests/s rather than ``min_s`` — its timed region also pays the
    fork/stop lifecycle) and
    the store backend must not be more than ``max_slowdown`` times
    slower than the immutable relation
    (``overhead_store_vs_relation <= max_slowdown``).
    Durability ratios are printed informationally — their honest values
    are runner-dependent (disk) and gated by the dedicated PR-6 record
    instead.
    """
    failures: list[str] = []
    if smoke.get("schema_version") != committed.get("schema_version"):
        failures.append(
            f"suite: smoke schema_version {smoke.get('schema_version')!r} != "
            f"committed {committed.get('schema_version')!r}"
        )
        return failures
    scenarios = smoke.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios:
        failures.append("suite: smoke record has no scenarios")
        return failures
    for name, entry in scenarios.items():
        equivalence = entry.get("equivalence", {})
        if equivalence.get("asserted") is not True:
            failures.append(f"suite {name}: equivalence not asserted")
        timings = entry.get("timings", {})
        if not timings or not all(
            isinstance(config.get("min_s"), (int, float))
            for config in timings.values()
        ):
            failures.append(f"suite {name}: missing or malformed timings")
    for name in committed.get("scenarios", {}):
        if name not in scenarios:
            failures.append(f"suite {name}: missing from the smoke run")
            print(f"  suite {name}: MISSING from smoke run")
    cpu_count = smoke.get("meta", {}).get("cpu_count", 0)
    if max_slowdown <= 0:
        print(
            "  suite: ratio gates disabled (--suite-max-slowdown 0); "
            "schema + equivalence checks only"
        )
        return failures
    if cpu_count < 2:
        print(
            f"  suite: smoke runner has {cpu_count} CPU(s) — ratio gates "
            f"skipped (needs >= 2 for stable ratios)"
        )
        return failures
    for name, entry in scenarios.items():
        timings = entry.get("timings", {})
        reference = entry.get("equivalence", {}).get("reference")
        ref_s = timings.get(reference, {}).get("min_s", 0.0)
        if ref_s < min_seconds:
            print(f"  suite {name}: below {min_seconds}s — skipped (noise)")
            continue
        ratios = entry.get("ratios", {})
        for key, value in sorted(ratios.items()):
            if key in (
                "speedup_safe",
                "speedup_cache",
                "speedup_replicas",
            ):
                floor = 1.0 / max_slowdown
                verdict = "ok" if value >= floor else "REGRESSION"
                print(
                    f"  suite {name}: {key} {value:.3f}x "
                    f"(floor {floor:.3f}x) {verdict}"
                )
                if value < floor:
                    failures.append(
                        f"suite {name}: {key} {value:.3f}x < floor {floor:.3f}x"
                    )
            elif key == "overhead_store_vs_relation":
                verdict = "ok" if value <= max_slowdown else "REGRESSION"
                print(
                    f"  suite {name}: {key} {value:.3f}x "
                    f"(ceiling {max_slowdown}x) {verdict}"
                )
                if value > max_slowdown:
                    failures.append(
                        f"suite {name}: {key} {value:.3f}x > "
                        f"ceiling {max_slowdown}x"
                    )
            else:
                print(f"  suite {name}: {key} {value:.3f}x (informational)")
    return failures


def build_parser() -> argparse.ArgumentParser:
    """The gate's CLI (exposed for the doc-consistency tests)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pr1-committed", type=Path, default=Path("BENCH_pr1.json"))
    parser.add_argument("--pr1-smoke", type=Path, required=True)
    parser.add_argument("--pr2-committed", type=Path, default=Path("BENCH_pr2.json"))
    parser.add_argument("--pr2-smoke", type=Path, required=True)
    parser.add_argument("--pr3-committed", type=Path, default=Path("BENCH_pr3.json"))
    parser.add_argument("--pr3-smoke", type=Path, default=None)
    parser.add_argument("--pr3-min-speedup", type=float, default=3.0)
    parser.add_argument("--pr5-committed", type=Path, default=Path("BENCH_pr5.json"))
    parser.add_argument("--pr5-smoke", type=Path, default=None)
    parser.add_argument("--pr5-min-speedup", type=float, default=1.2)
    parser.add_argument("--pr6-committed", type=Path, default=Path("BENCH_pr6.json"))
    parser.add_argument("--pr6-smoke", type=Path, default=None)
    parser.add_argument("--pr6-max-overhead", type=float, default=10.0)
    parser.add_argument("--suite-committed", type=Path, default=Path("BENCH_suite.json"))
    parser.add_argument("--suite-smoke", type=Path, default=None)
    parser.add_argument("--suite-max-slowdown", type=float, default=3.0)
    parser.add_argument("--tolerance", type=float, default=1.5)
    parser.add_argument("--min-seconds", type=float, default=0.002)
    return parser


def main() -> int:
    args = build_parser().parse_args()

    failures: list[str] = []
    print("PR1 (fused LAWA kernel vs unfused reference):")
    failures += check(
        _load(args.pr1_committed),
        _load(args.pr1_smoke),
        "fused",
        "unfused",
        args.tolerance,
        args.min_seconds,
        "pr1",
    )
    print("PR2 (generalized-window joins vs naive sweepline):")
    failures += check(
        _load(args.pr2_committed),
        _load(args.pr2_smoke),
        "gtwindow",
        "naive",
        args.tolerance,
        args.min_seconds,
        "pr2",
    )
    if args.pr3_smoke is not None:
        committed_pr3 = _load(args.pr3_committed)
        committed_speedups = ", ".join(
            f"{key} {entry.get('speedup_incremental', '?')}x"
            for key, entry in committed_pr3["timings"].items()
        )
        print(
            f"PR3 (incremental view refresh vs full recompute; "
            f"committed full-scale: {committed_speedups}):"
        )
        failures += check_speedup_floor(
            committed_pr3,
            _load(args.pr3_smoke),
            "incremental",
            "recompute",
            args.pr3_min_speedup,
            args.min_seconds,
            "pr3",
        )
    if args.pr5_smoke is not None:
        committed_pr5 = _load(args.pr5_committed)
        committed_meta = committed_pr5.get("meta", {})
        print(
            f"PR5 (cost-based optimizer vs unoptimized plans; committed "
            f"record taken on {committed_meta.get('cpu_count', '?')} CPU(s), "
            f"best pushdown speedup "
            f"{committed_meta.get('best_pushdown_speedup', '?')}x, bar "
            f"{committed_meta.get('speedup_bar', '?')}):"
        )
        failures += check_optimizer_speedup(
            committed_pr5,
            _load(args.pr5_smoke),
            args.pr5_min_speedup,
            args.min_seconds,
        )
    if args.pr6_smoke is not None:
        committed_pr6 = _load(args.pr6_committed)
        committed_meta = committed_pr6.get("meta", {})
        print(
            f"PR6 (WAL durability overhead; committed record taken on "
            f"{committed_meta.get('cpu_count', '?')} CPU(s), batch/off "
            f"{committed_meta.get('batch_overhead', '?')}x, bar "
            f"{committed_meta.get('overhead_bar', '?')}):"
        )
        failures += check_wal_overhead(
            committed_pr6,
            _load(args.pr6_smoke),
            args.pr6_max_overhead,
            args.min_seconds,
        )
    if args.suite_smoke is not None:
        committed_suite = _load(args.suite_committed)
        committed_meta = committed_suite.get("meta", {})
        print(
            f"SUITE (scenario benchmark suite; committed record taken on "
            f"{committed_meta.get('cpu_count', '?')} CPU(s) at scale "
            f"{committed_meta.get('scale', '?')}, seed "
            f"{committed_meta.get('seed', '?')}):"
        )
        failures += check_suite(
            committed_suite,
            _load(args.suite_smoke),
            args.suite_max_slowdown,
            args.min_seconds,
        )
    if failures:
        print("\nbenchmark regressions detected:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nno benchmark regressions.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
