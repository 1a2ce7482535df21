"""Quickstart — the paper's supermarket scenario (Fig. 1), end to end.

A supermarket records products bought (a), products ordered online (b),
and products in stock (c), each with validity intervals and confidence.
The query Q = c −Tp (a ∪Tp b) asks, per day: with which probability is a
product in stock while no client wants to buy or order it?

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import tp_except, tp_intersect, tp_union
from repro.db import TPDatabase


def build_database() -> TPDatabase:
    """The three relations of Fig. 1a, verbatim."""
    db = TPDatabase()
    db.create_relation(
        "a",  # productsBought
        ("product",),
        [("milk", 2, 10, 0.3), ("chips", 4, 7, 0.8), ("dates", 1, 3, 0.6)],
    )
    db.create_relation(
        "b",  # productsOrdered
        ("product",),
        [("milk", 5, 9, 0.6), ("chips", 3, 6, 0.9)],
    )
    db.create_relation(
        "c",  # productsInStock
        ("product",),
        [
            ("milk", 1, 4, 0.6),
            ("milk", 6, 8, 0.7),
            ("chips", 4, 5, 0.7),
            ("chips", 7, 9, 0.8),
        ],
    )
    return db


def main() -> None:
    db = build_database()

    print("=== Input relations (Fig. 1a) ===")
    for name in ("a", "b", "c"):
        print(f"\n{name}:")
        print(db.relation(name).to_table())

    print("\n=== The paper's query:  Q = c −Tp (a ∪Tp b)  (Fig. 1b/1c) ===")
    print(db.explain("c - (a | b)"))
    result = db.query("c - (a | b)")
    print()
    print(result.to_table())

    print("\n=== All three set operations on a and c (Fig. 3) ===")
    a, c = db.relation("a"), db.relation("c")
    for label, op in (
        ("a ∪Tp c", tp_union),
        ("a −Tp c", tp_except),
        ("a ∩Tp c", tp_intersect),
    ):
        print(f"\n{label}:")
        print(op(a, c).to_table())

    print("\n=== Reading one answer tuple ===")
    milk = [t for t in result if t.fact == ("milk",) and t.start == 2]
    (t,) = milk
    print(
        f"('milk', {t.lineage}, {t.interval}, {t.p:g}) — with probability "
        f"{t.p:g}, milk is in stock but neither bought nor ordered on days "
        f"{t.start}..{t.end - 1}."
    )

    outer_join_example(db)
    store_and_views_tour(db)
    optimizer_and_explain_tour(db)
    performance_notes(db)
    persistence_tour()


def outer_join_example(db) -> None:
    """Generalized windows: outer joins keep partner-less tuples.

    ``stock LEFT OUTER JOIN prices ON product`` keeps every stock tuple:
    matched rows carry λstock∧λprice over the pair overlap, and
    null-padded rows carry λstock∧¬(λprice₁∨…) — the probability that
    the product is in stock while *no* price record exists.  The same
    machinery drives RIGHT/FULL OUTER JOIN and ANTI JOIN.
    """
    db.create_relation(
        "prices",
        ("product", "price"),
        [("milk", 2, 3, 8, 0.8), ("beer", 1, 0, 5, 0.6)],
    )
    db.catalog.register(db.relation("c").rename("stock"), replace=True)

    print("\n=== Outer join:  stock ⟕ prices  (generalized windows) ===")
    print(db.explain("stock LEFT OUTER JOIN prices ON product"))
    result = db.query("stock LEFT OUTER JOIN prices ON product")
    print()
    print(result.to_table())
    print(
        "rows with price=None carry λstock∧¬λprice — the product is in "
        "stock but has no valid price record."
    )

    print("\n=== Anti join:  stock ▷ prices  (no price record at all) ===")
    print(db.query("stock ANTI JOIN prices ON product").to_table())


def store_and_views_tour(db) -> None:
    """Mutable storage and incremental views (DESIGN.md §9).

    The supermarket keeps serving while data changes: the first
    ``insert``/``delete`` turns a relation into a mutable
    :class:`~repro.store.SegmentStore` (fact-partitioned, time-segmented,
    batched transactions), and a materialized view keeps the paper's
    query continuously answered — mutations mark dirty (fact, time-range)
    regions, and a refresh re-sweeps only those regions, widened to
    window boundaries, splicing the result into the cached output.
    """
    print("\n=== Mutable store: insert → deferred refresh → query ===")

    # The paper's query as a continuously maintained view.  'deferred'
    # (the default) refreshes on read; 'eager' refreshes on every write;
    # 'manual' only on an explicit refresh().
    view = db.create_view("q", "c - (a | b)", policy="deferred")
    print(f"created {view!r}")

    # A delivery arrives (stock c) and a client buys dates (a) — one
    # batched transaction each.  Eager views would refresh right here.
    db.insert("c", [("dates", 2, 6, 0.9)])
    db.apply("a", inserts=[("dates", 4, 7, 0.5)], deletes=[("dates", 1, 3)])
    print(f"after two transactions the view is stale: fresh={view.is_fresh()}")

    # Reading the view triggers the deferred incremental refresh: only
    # the dates region is re-swept, the milk/chips windows are reused
    # (their materialized probabilities survive the splice untouched).
    print(db.query("q").to_table())

    # The planner reads fresh views instead of recomputing: the original
    # query now plans as a single scan of q.
    print(db.explain("c - (a | b)").splitlines()[2].strip(), "← plan of the raw query")


def optimizer_and_explain_tour(db) -> None:
    """The cost-based optimizer and EXPLAIN (DESIGN.md §10).

    ``optimize='safe'`` enumerates lineage-identical rewrites —
    selection pushdown to the scans (through set operations *and*
    joins), flattening ∪/∩ chains into n-ary nodes (run as a left fold
    of the binary sweep), inner-join reassociation — scores them by estimated sweep rows from the
    statistics catalog, and runs the cheapest.  ``EXPLAIN`` (as a query
    prefix, or ``db.explain``) renders the chosen plan with the
    estimates next to the actual row counts, so you can see both what
    the optimizer picked and how honest its model was.
    """
    print("\n=== Cost-based optimizer: which products sold while in stock? ===")
    query = "((a | b) & c)[product='milk']"

    print("\nUnoptimized, the selection filters the full sweep output:")
    print(db.explain(query, optimize="off"))

    print("\nOptimized, the selection runs at the scans (EXPLAIN prefix form,")
    print("estimates vs. actuals — the plan executed once to report them):")
    print(db.query(f"EXPLAIN {query}", optimize="safe"))

    result = db.query(query, optimize="safe")
    plain = db.query(query)
    print(f"\nsame answer either way: {result.equivalent_to(plain)}")
    print(
        "'aggressive' additionally fuses difference chains, "
        "(q − r) − s → q − (r ∪ s): same facts, intervals and "
        "probabilities, different lineage form."
    )


def performance_notes(db) -> None:
    """Sortedness propagation and batch valuation.

    Set operations run a fused kernel (sort → LAWA → λ-filter → λ-concat
    → valuation in one loop).  Two properties matter at scale:

    * **Sortedness.**  Relations cache their (F, Ts) order, and every
      set-operation output is *born sorted* — chained operations never
      re-sort.  If your loader already emits (F, Ts) order, construct
      with ``TPRelation(..., assume_sorted=True)`` to skip even the
      first sort.
    * **Batch valuation.**  Lineage formulas are hash-consed, so a
      result's repeated lineages are one object each, valuated once per
      batch; nothing is kept after it.  Observe the repeats with
      ``valuation_cache_stats()``.
    """
    from repro import clear_valuation_cache, tp_union, valuation_cache_stats

    a, c = db.relation("a"), db.relation("c")

    print("\n=== Performance: sortedness propagation ===")
    u = tp_union(a, c)
    print(f"result born sorted: {u.is_sorted_by_fact_ts}")
    chained = tp_union(u, c)  # input already sorted — no re-sort happens
    print(f"chained result sorted too: {chained.is_sorted_by_fact_ts}")

    print("\n=== Performance: batch valuation ===")
    clear_valuation_cache()
    again = tp_union(a, c)  # one batch: each distinct lineage valuated once
    print(f"valuated {valuation_cache_stats()['misses']} distinct lineages "
          f"for {len(again)} tuples")
    print(f"repeat bit-identical: {again.equivalent_to(u)}")


def persistence_tour() -> None:
    """Durability (DESIGN.md §11): WAL, checkpoints, crash recovery.

    Pass ``data_dir`` and every committed transaction is appended to a
    checksummed write-ahead log (fsynced at the default ``commit``
    durability); periodic checkpoints bound replay time.  Reopening the
    same directory recovers every store — after a clean close *or* a
    crash, where a torn trailing record is detected by checksum and
    truncated, losing at most the in-flight transaction.
    """
    import tempfile
    from pathlib import Path

    from repro.db import TPDatabase

    print("\n=== Durability: write-ahead log + crash recovery ===")
    data_dir = Path(tempfile.mkdtemp(prefix="tpdb-quickstart-"))
    with TPDatabase(data_dir=data_dir) as db:
        db.create_relation("inv", ("product",), [("milk", 2, 10, 0.3)])
        db.insert("inv", [("beer", 3, 8, 0.5)])  # logged + fsynced
        db.delete("inv", [("milk", 2, 10)])
        db.checkpoint("inv")  # snapshot, then the WAL rotates
        db.insert("inv", [("soda", 1, 4, 0.9)])  # replayed from the WAL tail
        expected = db.relation("inv").to_table()

    with TPDatabase(data_dir=data_dir) as reopened:
        report = reopened.recovery_reports["inv"]
        print(f"recovery: {report}")
        same = reopened.relation("inv").to_table() == expected
        print(f"recovered relation identical: {same}")
        print(reopened.relation("inv").to_table())


if __name__ == "__main__":
    main()
