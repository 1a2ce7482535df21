"""Golden-file tests pinning the ``EXPLAIN`` rendering.

Each case renders the full report — chosen plan, per-node estimate
fields, actual row counts under ``analyze=True``, the optimizer header,
the static analysis — against the paper's Fig. 1 relations and compares
it byte-for-byte with a committed golden file, so any plan or estimate
regression shows up as a readable diff.

Regenerate after an intentional change with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_explain_golden.py
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.db import TPDatabase

GOLDEN_DIR = Path(__file__).parent / "golden"
UPDATE = os.environ.get("REPRO_UPDATE_GOLDEN") == "1"


def build_db() -> TPDatabase:
    db = TPDatabase()
    db.create_relation(
        "a",
        ("product",),
        [("milk", 2, 10, 0.3), ("chips", 4, 7, 0.8), ("dates", 1, 3, 0.6)],
    )
    db.create_relation(
        "b", ("product",), [("milk", 5, 9, 0.6), ("chips", 3, 6, 0.9)]
    )
    db.create_relation(
        "c",
        ("product",),
        [
            ("milk", 1, 4, 0.6),
            ("milk", 6, 8, 0.7),
            ("chips", 4, 5, 0.7),
            ("chips", 7, 9, 0.8),
        ],
    )
    db.create_relation(
        "prices",
        ("product", "price"),
        [("milk", 2, 3, 8, 0.8), ("beer", 1, 0, 5, 0.6)],
    )
    return db


CASES = {
    "paper_query_off": lambda db: db.explain("c - (a | b)", optimize="off"),
    "paper_query_safe_analyze": lambda db: db.explain(
        "c - (a | b)", optimize="safe", analyze=True
    ),
    "pushdown_safe_analyze": lambda db: db.explain(
        "((a | b) | c)[product='milk']", optimize="safe", analyze=True
    ),
    "join_pushdown_safe": lambda db: db.explain(
        "(c JOIN prices ON product)[product='milk']", optimize="safe"
    ),
    "explain_prefix_query": lambda db: db.query(
        "EXPLAIN c - (a | b)", optimize="safe"
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_explain_matches_golden(name):
    text = CASES[name](build_db())
    assert isinstance(text, str)
    path = GOLDEN_DIR / f"{name}.txt"
    if UPDATE:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text + "\n")
    expected = path.read_text()
    assert text + "\n" == expected, (
        f"EXPLAIN output drifted from {path.name}; re-run with "
        f"REPRO_UPDATE_GOLDEN=1 if the change is intentional"
    )


def test_estimate_fields_present():
    """The fields the golden files pin, asserted structurally too (so a
    bulk regeneration cannot silently drop them)."""
    text = build_db().explain("c - (a | b)", optimize="safe", analyze=True)
    assert "optimizer: safe — plan " in text
    assert "est rows=" in text and "cost=" in text
    assert "actual rows=" in text
    assert text.count("actual rows=") >= 4  # every node reports actuals
