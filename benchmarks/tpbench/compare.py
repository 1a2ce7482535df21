"""``compare A.json… -- B.json…``: judge two sets of saved runs.

Each file is one run's ``--out`` record.  Per (workload, end-to-end
metric) the report gives each side's median and quartiles, the ratio of
the medians with its base, the bound from ``BENCHMARK.json`` and a
verdict:

``regressed``   B's median is worse than A's by more than the bound;
``unresolved``  either side's run-to-run spread (quartile distance over
                median) is wider than the bound, so the bound cannot be
                checked;
``improved``    B is better by more than A's own spread;
``unchanged``   otherwise.

Exits non-zero on any ``regressed`` and when B failed a larger share of
its operations than A.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def load(paths: list[str]) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        runs[record["workload"]].append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, _mid, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def verdict(a, b, better: str, bound: float) -> str:
    (a_low, a_mid, a_high), (b_low, b_mid, b_high) = a, b
    a_spread = (a_high - a_low) / a_mid
    b_spread = (b_high - b_low) / b_mid
    worse_by = (b_mid - a_mid) / a_mid if better == "lower" else (a_mid - b_mid) / a_mid
    if worse_by > bound:
        return "regressed"
    if max(a_spread, b_spread) > bound:
        return "unresolved"
    if -worse_by > a_spread and -worse_by > 0:
        return "improved"
    return "unchanged"


def failed_share(records: list[dict]) -> float:
    return sum(r["failed"] for r in records) / sum(r["attempted"] for r in records)


def main(argv: list[str], declared: list[dict]) -> int:
    """``declared`` is the ``end_to_end`` list of ``BENCHMARK.json``."""
    if "--" not in argv:
        print("usage: compare A.json... -- B.json...", file=sys.stderr)
        return 2
    split = argv.index("--")
    side_a, side_b = load(argv[:split]), load(argv[split + 1:])
    status = 0
    for workload in sorted(set(side_a) & set(side_b)):
        records_a, records_b = side_a[workload], side_b[workload]
        print(f"== {workload}  (A: {len(records_a)} runs, B: {len(records_b)} runs)")
        for entry in declared:
            name = entry["name"]
            a = quartiles([r["metrics"][name]["value"] for r in records_a])
            b = quartiles([r["metrics"][name]["value"] for r in records_b])
            word = verdict(a, b, entry["better"], entry["bound"])
            if word == "regressed":
                status = 1
            print(
                f"  {name:16s} A {a[1]:12.4f} [{a[0]:.4f}, {a[2]:.4f}]  "
                f"B {b[1]:12.4f} [{b[0]:.4f}, {b[2]:.4f}]  "
                f"B/A {b[1] / a[1]:.4f} (base {a[1]:.4f} {entry['unit']})  "
                f"bound {entry['bound']:.2f} {entry['better']}-is-better  {word}"
            )
        share_a, share_b = failed_share(records_a), failed_share(records_b)
        print(f"  failed share     A {share_a:.6f}  B {share_b:.6f}")
        if share_b > share_a:
            print("  failed share rose: regressed")
            status = 1
    return status
