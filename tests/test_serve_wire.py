"""Wire identity of encoded cache hits (DESIGN.md §12.2).

A query reply is no longer ``json.dumps`` over the whole payload: the
result-cache entry keeps the relation's canonical JSON fragment as
bytes and ``encode_line`` splices it into the small per-request
envelope.  These tests pin that the spliced line is *byte for byte* the
line the plain canonical encoder would have produced — for hits and
misses, with and without a request id, for empty results, non-ASCII
facts and the ``∧ ∨ ¬`` lineage glyphs — and that every other reply kind
still goes through the plain encoder.
"""

from __future__ import annotations

import asyncio
import gc
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import TPDatabase
from repro.lineage import Or, intern_stats
from repro.serve import QueryService
from repro.serve.protocol import encode_line, relation_payload
from repro.serve.server import ServeServer

from .strategies import tp_relation_pair

QUERIES = ("r | s", "r & s", "r - s", "(r - s) | (s & r)", "(r | s)[fact='x']")


def plain_line(payload: dict) -> bytes:
    """The canonical encoding every reply had before fragments existed."""
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
        + "\n"
    ).encode("utf-8")


def served_lines(db: TPDatabase, requests: list[dict]) -> list[tuple[dict, bytes]]:
    """Each request through ``ServeServer``'s dispatch and encoder — the
    reply payload and the line a socket would carry (no socket needed)."""

    async def main() -> list[tuple[dict, bytes]]:
        server = ServeServer(db)
        try:
            session = server.service.open_session()
            out = []
            for request in requests:
                payload, _closing = await server._respond(
                    session, json.dumps(request).encode("utf-8") + b"\n"
                )
                out.append((payload, encode_line(payload)))
            return out
        finally:
            await server.aclose()

    return asyncio.run(main())


def expected_query_line(db: TPDatabase, text: str, cached: bool, request_id=None) -> bytes:
    """The oracle line, built from an independent in-process execution."""
    service = QueryService(db, cache_size=0)
    response = service.execute(service.open_session(), text, optimize="safe")
    payload = {
        "ok": True,
        "cached": cached,
        "epochs": response.epoch_key,
        "relation": relation_payload(response.relation),
    }
    if request_id is not None:
        payload["id"] = request_id
    return plain_line(payload)


def _db(r, s) -> TPDatabase:
    db = TPDatabase()
    db.register(r)
    db.register(s)
    return db


@settings(max_examples=25, deadline=None)
@given(
    pair=tp_relation_pair(),
    text=st.sampled_from(QUERIES),
    request_id=st.one_of(st.none(), st.integers(0, 99), st.text(max_size=4)),
)
def test_spliced_line_equals_the_canonical_encoding(pair, text, request_id):
    request = {"op": "query", "q": text, "optimize": "safe"}
    if request_id is not None:
        request["id"] = request_id
    (miss, miss_line), (hit, hit_line) = served_lines(_db(*pair), [request, request])
    assert (miss["cached"], hit["cached"]) == (False, True)
    assert type(hit["relation"]) is bytes  # the fragment, not a dict
    oracle = _db(*pair)
    assert miss_line == expected_query_line(oracle, text, False, request_id)
    assert hit_line == expected_query_line(oracle, text, True, request_id)
    # A hit and a miss differ in nothing but the flag.
    assert miss_line.replace(b'"cached":false', b'"cached":true', 1) == hit_line
    assert hit["relation"] is miss["relation"], "the fragment is rendered once"


def _glyph_db() -> TPDatabase:
    db = TPDatabase()
    db.create_relation(
        "a", ("product",), [("mjölk", 2, 10, 0.3), ("牛乳", 4, 7, 0.8), ("Ω≠", 1, 3, 0.5)]
    )
    db.create_relation(
        "b", ("product",), [("mjölk", 5, 12, 0.5), ("牛乳", 1, 9, 0.4)]
    )
    return db


def test_non_ascii_facts_and_lineage_glyphs_splice_byte_identically():
    text = "(a - b) | (b & a)"
    request = {"op": "query", "q": text, "optimize": "safe", "id": "ü"}
    (_, miss_line), (_, hit_line) = served_lines(_glyph_db(), [request, request])
    rendered = "".join(row[3] for row in json.loads(hit_line)["relation"]["rows"])
    assert {"∧", "∨", "¬"} <= set(rendered)
    assert "mjölk" in {row[0][0] for row in json.loads(hit_line)["relation"]["rows"]}
    assert miss_line == expected_query_line(_glyph_db(), text, False, "ü")
    assert hit_line == expected_query_line(_glyph_db(), text, True, "ü")


def test_an_empty_result_splices_byte_identically():
    db = TPDatabase()
    db.create_relation("a", ("product",), [("milk", 2, 10, 0.3)])
    db.create_relation("b", ("product",), [("beer", 5, 12, 0.5)])
    request = {"op": "query", "q": "a & b"}
    (_, miss_line), (_, hit_line) = served_lines(db, [request, request])
    assert json.loads(hit_line)["relation"]["rows"] == []
    for line, cached in ((miss_line, False), (hit_line, True)):
        assert line == plain_line({
            "ok": True, "cached": cached, "epochs": (("const", "a"), ("const", "b")),
            "relation": {"attributes": ["product"], "rows": []},
        })


def test_other_reply_kinds_go_through_the_plain_encoder():
    db = _glyph_db()
    requests = [
        {"op": "query", "q": "EXPLAIN a | b", "optimize": "safe", "id": 1},
        {"op": "query", "q": "nope | a", "id": 2},
        {"op": "commit", "relation": "a", "inserts": [["öl", 3, 8, 0.5]], "id": 3},
        {"op": "create", "relation": "c", "attributes": ["product"], "rows": []},
        {"op": "begin"},
        {"op": "stats"},
        {"op": "ping", "id": 4},
    ]
    replies = served_lines(db, requests)
    assert [payload["ok"] for payload, _ in replies] == [True, False, True, True, True, True, True]
    for payload, line in replies:
        assert type(payload.get("relation")) is not bytes
        assert line == plain_line(payload)


def test_results_bytes_counts_the_fragments_held():
    db = _glyph_db()
    service = QueryService(db)
    session = service.open_session()
    response = service.execute(session, "a | b")
    # Nothing has gone on the wire yet: no fragment is held.
    assert service.stats()["results"]["bytes"] == 0
    fragment = response.result.fragment()
    assert json.loads(fragment) == json.loads(json.dumps(relation_payload(response.relation)))
    assert service.stats()["results"]["bytes"] == len(fragment)
    service.execute(session, "a & b").result.fragment()
    assert service.stats()["results"]["bytes"] > len(fragment)
    service.results.clear()
    assert service.stats()["results"]["bytes"] == 0


def test_stats_report_the_collector_and_the_object_graph():
    """``memory``: counters a running server can be asked for, so the
    collector's share of its time needs no profiler to see."""
    db = _glyph_db()
    service = QueryService(db)
    before = service.stats()["memory"]
    assert len(before["gc_collections"]) == 3
    response = service.execute(service.open_session(), "a | b")
    # Serving builds no node; reading rows' lineage up to the first
    # disjunction does, so the counter has one to report.
    assert any(isinstance(t.lineage, Or) for t in response.relation)
    gc.collect()
    after = service.stats()["memory"]
    assert after["gc_collections"][2] == before["gc_collections"][2] + 1
    assert all(x >= y for x, y in zip(after["gc_collections"], before["gc_collections"]))
    assert after["lineage_nodes"] == intern_stats()
    assert after["lineage_nodes"]["or"] > 0
    # No valuation outlives its batch, so there is no memo to report.
    assert set(after) == {"gc_collections", "lineage_nodes"}
    assert json.loads(encode_line({"ok": True, "stats": service.stats()}))["stats"]["memory"]


def test_stats_list_every_view_with_its_maintenance_counters():
    """``views``: a refresh that re-sweeps far more rows than a commit
    changed shows in a running server's ``stats`` reply."""
    db = _glyph_db()
    view = db.create_view("v", "a - b", policy="eager")
    service = QueryService(db)
    before = service.stats()["views"]["v"]
    assert before == view.stats() and before["refreshes"] == 0
    service.commit(service.open_session(), "a", inserts=[("mjölk", 20, 22, 0.5)])
    after = json.loads(encode_line({"ok": True, "stats": service.stats()}))["stats"]
    assert after["views"]["v"]["refreshes"] == 1
    assert after["views"]["v"]["rows_reswept"] == before["rows_reswept"] + 1
