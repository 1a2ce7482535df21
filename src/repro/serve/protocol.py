"""The wire protocol: newline-delimited JSON requests and responses.

One JSON object per line, UTF-8, ``\\n``-terminated.  Every request
carries an ``op`` and may carry a client-chosen ``id``, echoed verbatim
in the response so pipelined clients can match answers to questions.
Responses always carry ``ok``; failures carry ``error`` with the
exception's class name and message, and the connection stays usable —
a bad query must not cost the client its session.

Operations::

    {"op": "ping"}
    {"op": "query",  "q": "a | b", "optimize": "safe"}  # or "off" (default)
    {"op": "commit", "relation": "a", "inserts": [...], "deletes": [...]}
    {"op": "create", "relation": "a", "attributes": [...], "rows": [...]}
    {"op": "begin"}                      # re-pin the session to now
    {"op": "epochs"}                     # the session's epoch signature
    {"op": "stats"}                      # cache counters, sessions, memory, pids
    {"op": "close"}                      # goodbye (server closes after reply)

A ``query`` whose text carries the ``EXPLAIN`` prefix returns the plan
report under ``"explain"`` instead of ``"relation"``.  Relations are
serialized in sorted ``(F, Ts)`` order with lineage rendered to its
canonical string — deliberately canonical, so "bit-identical responses"
is a meaningful equality across server and oracle.

A relation is encoded **once**: :func:`relation_fragment` renders its
canonical JSON object to bytes, the result cache keeps those bytes
beside the relation, and :func:`encode_line` splices them into each
reply's small envelope — a cache hit costs a buffer copy, not a walk
over the rows (DESIGN.md §12.2).
"""

from __future__ import annotations

import json
from typing import Any, Optional

from ..core.relation import TPRelation
from ..core.tuple import lineage_text

__all__ = [
    "ProtocolError",
    "decode_line",
    "encode_line",
    "error_payload",
    "relation_fragment",
    "relation_payload",
]

#: Operations a conforming client may send.
OPS = ("ping", "query", "commit", "create", "begin", "epochs", "stats", "close")

#: Byte cap for one request/response line (also the reader's buffer limit).
MAX_LINE_BYTES = 8 * 1024 * 1024


class ProtocolError(ValueError):
    """The client sent something that is not a well-formed request."""


def decode_line(line: bytes) -> dict[str, Any]:
    """Parse one request line into its object form.

    The ``op`` is not checked here: the server dispatches on it after
    reading the ``id``, so a request with an unknown or missing op still
    gets its id echoed in the error reply.
    """
    try:
        request = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from None
    if not isinstance(request, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(request).__name__}"
        )
    return request


def _canonical(value: Any) -> bytes:
    """The canonical JSON encoding: sorted keys, compact separators."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), default=repr
    ).encode("utf-8")


def encode_line(payload: dict[str, Any]) -> bytes:
    """Serialize one response object to its wire line.

    ``sort_keys`` plus compact separators make the encoding canonical:
    equal payloads produce equal bytes, which is what the stress harness
    compares.  Values outside JSON's types fall back to ``repr`` — both
    sides of any equality check pass through this same encoder.

    A ``bytes`` value under ``"relation"`` is a :func:`relation_fragment`
    — already canonical JSON — and is spliced in rather than re-encoded.
    ``relation`` sorts after every other key of a query reply
    (``cached`` / ``epochs`` / ``id`` / ``ok``), so appending it as the
    last member yields exactly the bytes ``sort_keys`` would have.
    """
    fragment = payload.get("relation")
    if type(fragment) is not bytes:
        return _canonical(payload) + b"\n"
    envelope = {key: value for key, value in payload.items() if key != "relation"}
    if not envelope or max(envelope) > "relation":
        raise ValueError(
            "an encoded relation can only be spliced in as the last key "
            f"of a non-empty envelope, got keys {sorted(payload)}"
        )
    return _canonical(envelope)[:-1] + b',"relation":' + fragment + b"}\n"


def relation_payload(relation: TPRelation) -> dict[str, Any]:
    """A relation's canonical JSON form: schema plus sorted, valued rows,
    each lineage written by :func:`~repro.core.tuple.lineage_text` — a
    deferred row's text comes from its operands, its node stays unbuilt."""
    return {
        "attributes": list(relation.schema.attributes),
        "rows": [
            [list(t.fact), t.start, t.end, lineage_text(t), t.p]
            for t in relation.sorted_tuples()
        ],
    }


def relation_fragment(relation: TPRelation) -> bytes:
    """:func:`relation_payload` in its canonical wire encoding — the
    bytes :func:`encode_line` splices into a query reply."""
    return _canonical(relation_payload(relation))


def error_payload(exc: BaseException, request_id: Optional[Any]) -> dict[str, Any]:
    """The failure response for an exception, echoing the request id."""
    payload: dict[str, Any] = {
        "ok": False,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    if request_id is not None:
        payload["id"] = request_id
    return payload
