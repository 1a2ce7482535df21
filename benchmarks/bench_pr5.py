"""PR-5 performance record: cost-based optimizer vs. unoptimized plans.

Regenerates ``BENCH_pr5.json`` with wall-clock timings of
``TPDatabase.query(optimize='safe')`` against the unoptimized plan on
pushdown-heavy workloads (DESIGN.md §11):

* ``pushdown_select_union`` — a selective σ over a 3-way union chain
  plus a difference; the optimizer pushes the selection to the scans
  (sweeping ~1/F of every input) and flattens the chain into one
  multiway sweep;
* ``pushdown_join_filter`` — a join-key selection over a 20k-tuple
  generalized join; pushed into both sides, the per-key sweep touches a
  single key group;
* ``flatten_multiway_chain`` — a 4-way union chain with no selection:
  the flattening-only payoff (single-pass multiway sweep).

Before any number is published the optimized output is asserted
equivalent to the unoptimized one — same tuples, same intervals, same
probabilities, and (safe level) identical interned lineages.  Each
round clears the valuation memo before both runs, so neither side
inherits the other's warm cache; relation statistics are computed once
outside the clock (they are cached per relation / maintained
incrementally in production, so a per-query recompute would be
dishonest in the other direction).

The PR-5 acceptance bar — ≥ ``REQUIRED_SPEEDUP``x on at least one
pushdown workload — is asserted when the machine has ≥ 2 CPUs at
``--scale 1.0`` (mirroring how ``bench_pr4.py`` CPU-gates its bar for
timing stability on starved runners); on smaller machines the honest
ratios are recorded and the bar reported as skipped.

Run:  PYTHONPATH=src python benchmarks/bench_pr5.py [--scale F] [--out P]

CI runs a smoke scale and gates on the optimized/unoptimized ratio via
``benchmarks/check_regression.py`` (skipping runners with < 2 CPUs).
"""

from __future__ import annotations

import os
import random
from pathlib import Path

from repro import TPRelation
from repro.datasets import generate_join_pair
from repro.db import TPDatabase
from repro.query import relation_stats

try:  # package context: python -m benchmarks.bench_pr5, pytest
    from ._shared import (
        assert_bit_identical,
        environment_meta,
        make_parser,
        timed,
        warm_stats,
        write_record,
    )
except ImportError:  # script context: python benchmarks/bench_pr5.py
    from _shared import (
        assert_bit_identical,
        environment_meta,
        make_parser,
        timed,
        warm_stats,
        write_record,
    )

ROUNDS = 3
REQUIRED_SPEEDUP = 1.5

UNION_NOMINAL = 30_000  # tuples per relation in the union chain
UNION_FACTS = 150
JOIN_NOMINAL = 20_000
JOIN_KEYS = 100


def _chained_relation(name: str, n_tuples: int, n_facts: int, seed: int) -> TPRelation:
    """Per-fact disjoint interval chains — duplicate-free by construction."""
    rng = random.Random(seed)
    per_fact = -(-n_tuples // n_facts)
    rows = []
    for fact_index in range(n_facts):
        cursor = rng.randrange(4)
        for _ in range(per_fact):
            length = rng.randint(1, 4)
            rows.append(
                (f"g{fact_index}", cursor, cursor + length, rng.uniform(0.05, 0.95))
            )
            cursor += length + rng.randint(0, 3)
    return TPRelation.from_rows(name, ("g",), rows)


def _run_workload(label: str, db: TPDatabase, query: str) -> dict:
    unoptimized = lambda: db.query(query)  # noqa: E731
    optimized = lambda: db.query(query, optimize="safe")  # noqa: E731

    # Warm sorts, interning, statistics and plan caches outside the clock.
    reference = timed(unoptimized)[1]
    assert_bit_identical(timed(optimized)[1], reference, label)

    samples: dict[str, list[float]] = {"unoptimized": [], "optimized": []}
    for _ in range(ROUNDS):
        # Alternate inside each round for thermal fairness.
        samples["unoptimized"].append(timed(unoptimized)[0])
        samples["optimized"].append(timed(optimized)[0])

    entry: dict = {"result_tuples": len(reference), "query": query}
    for key, times in samples.items():
        entry[key] = warm_stats(times)
    if entry["optimized"]["min_s"] > 0:
        entry["speedup_optimized"] = round(
            entry["unoptimized"]["min_s"] / entry["optimized"]["min_s"], 2
        )
    return entry


def run(scale: float) -> dict:
    cpu_count = os.cpu_count() or 1
    bar_active = scale == 1.0 and cpu_count >= 2
    results: dict = {
        "meta": environment_meta(
            scale=scale,
            rounds=ROUNDS,
            required_speedup=REQUIRED_SPEEDUP,
            speedup_bar=(
                "asserted"
                if bar_active
                else f"skipped ({cpu_count} CPU(s) available, scale {scale}; "
                f"the >= {REQUIRED_SPEEDUP}x bar needs >= 2 CPUs at scale 1.0 "
                f"for stable timings — honest ratios recorded regardless)"
            ),
            methodology=(
                "Each workload runs TPDatabase.query with optimize='off' "
                "and optimize='safe' on the same catalog; the optimized "
                "output is asserted equivalent (tuples, intervals, "
                "identical interned lineages, float-equal probabilities) "
                "before timing.  Rounds alternate the two paths and clear "
                "the valuation memo before every timed run; min over "
                "rounds is reported.  Statistics are computed once "
                "outside the clock (cached per immutable relation, "
                "incrementally maintained for stores)."
            ),
        ),
        "timings": {},
    }

    n = max(512, int(UNION_NOMINAL * scale))
    facts = max(8, int(UNION_FACTS * min(1.0, n / UNION_NOMINAL)))
    db = TPDatabase()
    for i in range(4):
        db.register(_chained_relation(f"r{i + 1}", n, facts, seed=i))
    for i in range(4):  # warm the lazy statistics outside the clock
        relation_stats(db.relation(f"r{i + 1}"))

    label = "pushdown_select_union"
    results["timings"][label] = _run_workload(
        label, db, "((r1 | r2) | r3)[g='g7'] - r4[g='g7']"
    )
    results["timings"][label]["n_tuples_per_side"] = n

    label = "flatten_multiway_chain"
    results["timings"][label] = _run_workload(label, db, "r1 | r2 | r3 | r4")
    results["timings"][label]["n_tuples_per_side"] = n

    nj = max(512, int(JOIN_NOMINAL * scale))
    keys = max(8, int(JOIN_KEYS * min(1.0, nj / JOIN_NOMINAL)))
    rj, sj = generate_join_pair(nj, n_keys=keys, seed=0)
    jdb = TPDatabase()
    jdb.register(rj.rename("r"))
    jdb.register(sj.rename("s"))
    relation_stats(jdb.relation("r")), relation_stats(jdb.relation("s"))
    label = "pushdown_join_filter"
    results["timings"][label] = _run_workload(
        label, jdb, "(r JOIN s ON key)[key='k7']"
    )
    results["timings"][label]["n_tuples_per_side"] = nj

    best = max(
        (
            entry.get("speedup_optimized", 0.0)
            for key, entry in results["timings"].items()
            if key.startswith("pushdown")
        ),
        default=0.0,
    )
    results["meta"]["best_pushdown_speedup"] = best
    if bar_active:
        assert best >= REQUIRED_SPEEDUP, (
            f"no pushdown workload reached the {REQUIRED_SPEEDUP}x acceptance "
            f"bar (best: {best}x on {cpu_count} CPUs)"
        )
    return results


def main() -> None:
    parser = make_parser(
        __doc__, Path(__file__).resolve().parent.parent / "BENCH_pr5.json"
    )
    args = parser.parse_args()
    results = run(args.scale)
    write_record(results, args.out)
    print(f"wrote {args.out}  (cpu_count={results['meta']['cpu_count']})")
    for key, entry in results["timings"].items():
        print(
            f"  {key}: unoptimized min {entry['unoptimized']['min_s']}s  "
            f"optimized min {entry['optimized']['min_s']}s  "
            f"({entry.get('speedup_optimized', '?')}x)"
        )


if __name__ == "__main__":
    main()
