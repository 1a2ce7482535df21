"""A tour of query safety and probability computation (Section V-B).

Demonstrates the machinery behind Theorem 1 and Corollary 1:

1. non-repeating queries produce one-occurrence-form (1OF) lineage, whose
   probabilities factorize in linear time;
2. repeated subgoals entangle lineage variables — the paper's
   (r1 ∪ r2) − (r1 ∩ r3) example is #P-hard in general — and the engine
   transparently switches to exact Shannon valuation;
3. Monte-Carlo estimation brackets the exact value when formulas get wide.

Run:  python examples/query_safety_tour.py
"""

from __future__ import annotations

import random

from repro import Method, probability
from repro.db import TPDatabase
from repro.lineage import is_one_occurrence_form
from repro.prob import probability_montecarlo


def main() -> None:
    db = TPDatabase()
    db.create_relation("r1", ("item",), [("widget", 0, 10, 0.5)])
    db.create_relation("r2", ("item",), [("widget", 3, 12, 0.4)])
    db.create_relation("r3", ("item",), [("widget", 5, 15, 0.9)])

    print("=== A safe (non-repeating) query ===")
    safe = "r1 - (r2 | r3)"
    print(db.explain(safe))
    result = db.query(safe)
    print()
    print(result.to_table())
    for t in result:
        assert is_one_occurrence_form(t.lineage)
    print("every lineage is in 1OF ✓ (Theorem 1)")

    print("\n=== The paper's #P-hard shape: (r1 ∪ r2) − (r1 ∩ r3) ===")
    hard = "(r1 | r2) - (r1 & r3)"
    print(db.explain(hard))
    result = db.query(hard)
    print()
    print(result.to_table())
    entangled = [t for t in result if not is_one_occurrence_form(t.lineage)]
    print(f"{len(entangled)} of {len(result)} lineages are NOT in 1OF — the")
    print("executor valuated them exactly via Shannon expansion.")

    print("\n=== Valuation methods on one entangled lineage ===")
    t = max(entangled, key=lambda t: len(str(t.lineage)))
    events = result.events
    print(f"lineage: {t.lineage}")
    exact_shannon = probability(t.lineage, events, method=Method.SHANNON)
    estimate = probability_montecarlo(
        t.lineage, events, samples=100_000, rng=random.Random(42)
    )
    print(f"Shannon expansion : {exact_shannon:.6f}")
    print(
        f"Monte Carlo       : {estimate.estimate:.6f} "
        f"(95% CI ±{estimate.half_width:.6f}, {estimate.samples} samples)"
    )
    assert estimate.low <= exact_shannon <= estimate.high

    print("\n=== Why the 1OF fast path would be wrong here ===")
    naive = probability(t.lineage, events, method=Method.ONE_OCCURRENCE) if (
        is_one_occurrence_form(t.lineage)
    ) else None
    if naive is None:
        print(
            "probability(…, method=ONE_OCCURRENCE) refuses the formula — the\n"
            "factorized rule P(f∧g)=P(f)·P(g) needs variable-disjoint "
            "subformulas."
        )


if __name__ == "__main__":
    main()
