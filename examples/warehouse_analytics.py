"""Warehouse analytics — the §VIII future-work operators in action.

Beyond set operations, the library implements the relational-algebra
extensions the paper names as future work: TP equi-join, projection with
duplicate elimination, and constant-space streaming operators.  This
example runs all of them over a small warehouse scenario.

Run:  python examples/warehouse_analytics.py
"""

from __future__ import annotations

from repro import TPRelation
from repro.algebra import stream_intersect, tp_join, tp_project
from repro.core.sorting import sort_tuples


def main() -> None:
    # Stock levels per (item, shelf): facts carry two attributes.
    stock = TPRelation.from_rows(
        "stock",
        ("item", "shelf"),
        [
            ("milk", "S1", 0, 40, 0.9),
            ("milk", "S2", 20, 60, 0.8),
            ("chips", "S1", 10, 50, 0.7),
            ("beer", "S3", 0, 30, 0.95),
        ],
    )
    # Purchase orders per (item, qty).
    orders = TPRelation.from_rows(
        "orders",
        ("item", "qty"),
        [
            ("milk", 12, 25, 55, 0.6),
            ("chips", 30, 5, 35, 0.8),
            ("beer", 6, 40, 70, 0.5),
        ],
    )

    print("=== TP join: which orders can be served from which shelf? ===")
    serviceable = tp_join(stock, orders, on=("item",))
    print(serviceable.to_table())

    print("\n=== TP projection: item availability across shelves ===")
    availability = tp_project(stock, ["item"])
    print(availability.to_table())
    milk = [t for t in availability if t.fact == ("milk",)]
    overlap = [t for t in milk if "∨" in str(t.lineage)]
    if overlap:
        t = overlap[0]
        print(
            f"\nduring {t.interval} milk is on either shelf with "
            f"p={t.p:.2f} (lineage {t.lineage}) — projection OR-combines "
            f"the contributing shelves."
        )

    print("\n=== Streaming intersection (constant-space pipeline) ===")
    shelf_s1 = stock.select(shelf="S1")
    shelf_s2 = stock.select(shelf="S2")
    s1_items = tp_project(shelf_s1, ["item"], materialize=False)
    s2_items = tp_project(shelf_s2, ["item"], materialize=False)
    stream = stream_intersect(
        iter(sort_tuples(s1_items.tuples)), iter(sort_tuples(s2_items.tuples))
    )
    for t in stream:
        print(f"  on both shelves: {t.fact[0]} over {t.interval} ({t.lineage})")


if __name__ == "__main__":
    main()
