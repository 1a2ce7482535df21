"""The validated batch loader equals the row-at-a-time definition.

``TPRelation.from_rows`` builds every base tuple through the trusted slot
writers and checks each row in the same loop (DESIGN.md §6.3).  The
reference below is the definition it replaced: each row through the
validating ``make_fact`` / ``Interval`` / ``TPTuple`` constructors, then
duplicate-freeness over the ``(F, Ts, Te)`` order.  For any rows both
must agree — the same tuples in the same order, the same interned
lineage objects, the same event map — and for every invalid-row kind
both must raise the same exception type naming the same row.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import (
    DuplicateFactError,
    Interval,
    InvalidFactError,
    InvalidIntervalError,
    InvalidProbabilityError,
    TPError,
    TPRelation,
    base_tuple,
)
from repro.core.schema import make_fact
from repro.core.tuple import TPTuple, base_tuples
from repro.db import TPDatabase, load_csv, load_json, save_csv
from repro.lineage import Var


def reference(name: str, arity: int, rows: list) -> tuple[list[TPTuple], dict]:
    """One row at a time through the validating constructors.

    Raises the exception type the batch path must raise, with the
    identifier(s) of the offending row(s) as its arguments."""
    tuples, events = [], {}
    for index, row in enumerate(rows):
        identifier = f"{name}{index + 1}"
        values = list(row)
        try:
            if len(values) != arity + 3:
                raise InvalidFactError
            try:
                fact = make_fact(values[:arity])
            except TypeError:
                raise InvalidFactError from None
            ts, te, p = values[arity:]
            interval = Interval(int(ts), int(te))
            if isinstance(p, (bool, str, bytes, bytearray)):
                raise InvalidProbabilityError
            p = float(p)
            if not 0.0 < p <= 1.0:
                raise InvalidProbabilityError
        except (TypeError, ValueError) as exc:
            raise type(exc)(identifier) from None
        tuples.append(TPTuple(fact, Var(identifier), interval, p))
        events[identifier] = p
    ordered = sorted(tuples, key=lambda t: (t.fact, t.start, t.end))
    for prev, curr in zip(ordered, ordered[1:]):
        if prev.fact == curr.fact and curr.start < prev.end:
            raise DuplicateFactError(str(prev.lineage), str(curr.lineage))
    return tuples, events


def named_rows(message: str, name: str) -> tuple[str, ...]:
    """The row identifiers an error message names, in order."""
    return tuple(re.findall(rf"\b{name}\d+\b", message))


#: Each column holds one type, so every sort in the reference is defined.
COLUMNS = (st.sampled_from(["x", "y"]), st.sampled_from([7, 8]))
NOT_ATOMIC = st.sampled_from([None, ("x",), ["y"], 1.5j])
GOOD_P = st.floats(min_value=0.01, max_value=1.0)
BAD_P = st.sampled_from([0.0, -0.5, 1.5, float("nan")])


@st.composite
def row(draw, arity: int, bad: bool):
    """A row, clean unless ``bad`` — then possibly wrong in any one or
    more ways: its width, a fact value, its interval, its probability."""
    fact = [
        draw(st.one_of(column, NOT_ATOMIC) if bad else column)
        for column in COLUMNS[:arity]
    ]
    ts = draw(st.integers(min_value=0, max_value=30))
    te = ts + draw(st.integers(min_value=-2 if bad else 1, max_value=6))
    p = draw(st.one_of(GOOD_P, BAD_P) if bad else GOOD_P)
    values = [*fact, ts, te, p]
    if bad and draw(st.integers(min_value=0, max_value=9)) == 0:
        values = values[:-1] if draw(st.booleans()) else values + [0]
    return tuple(values)


@st.composite
def rows_of(draw):
    arity = draw(st.integers(min_value=1, max_value=2))
    bad = draw(st.booleans())
    return arity, draw(st.lists(row(arity, bad), max_size=12))


@given(rows_of())
def test_batch_loader_equals_the_row_at_a_time_definition(case):
    arity, rows = case
    attributes = ("f", "g")[:arity]
    try:
        expected = reference("a", arity, rows)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)) as raised:
            TPRelation.from_rows("a", attributes, rows)
        assert type(raised.value) is type(exc)
        assert named_rows(str(raised.value), "a") == exc.args
        return
    relation = TPRelation.from_rows("a", attributes, rows)
    tuples, events = expected
    assert list(relation) == tuples
    for t, u in zip(relation, tuples):
        assert t.lineage is u.lineage
    assert relation.events == events


@given(st.lists(row(1, bad=False), max_size=8))
def test_base_tuple_is_the_one_row_case(rows):
    identifiers = [f"r{i}" for i in range(len(rows))]
    tuples, events = base_tuples(rows, 1, identifiers)
    for t, (value, ts, te, p), identifier in zip(tuples, rows, identifiers):
        one = base_tuple((value,), identifier, Interval(ts, te), p)
        assert one == t and one.lineage is t.lineage
        assert events[identifier] == one.p


@pytest.mark.parametrize(
    "bad, error",
    [
        (("x", 5), InvalidFactError),  # width
        ((["x"], 1, 5, 0.5), InvalidFactError),  # non-atomic value
        (("x", 5, 5, 0.5), InvalidIntervalError),  # ts >= te
        (("x", 1, 5, 1.5), ValueError),  # p out of range
        (("x", 1, 5, 0.0), ValueError),
        (("x", 4, 9, 0.5), DuplicateFactError),  # overlaps a2
    ],
)
def test_each_invalid_row_kind_names_its_row(bad, error):
    rows = [("y", 0, 3, 0.5), ("x", 1, 5, 0.5), bad]
    with pytest.raises(error) as raised:
        TPRelation.from_rows("a", ("k",), rows)
    assert "a3" in named_rows(str(raised.value), "a")


#: Rows every front door refuses with a typed error naming the row,
#: where a bare builtin exception escaped before.
HOSTILE_ROWS = {
    "infinite-start": ((float("-inf"), 4, 0.5), InvalidIntervalError),
    "infinite-end": ((0, float("inf"), 0.5), InvalidIntervalError),
    "nan-end": ((0, float("nan"), 0.5), InvalidIntervalError),
    "one-field-short": ((0, 4), InvalidFactError),
    "one-field-over": ((0, 4, 0.5, 0.5), InvalidFactError),
    "list-value": ((["v"], 0, 4, 0.5), InvalidFactError),
    "dict-value": (({"v": 1}, 0, 4, 0.5), InvalidFactError),
    "none-value": ((None, 0, 4, 0.5), InvalidFactError),
}


def hostile(case: str) -> tuple[tuple, type]:
    """The hostile row of ``case`` over ``(k, v)``: ``('y', …)`` with
    its fields, or with its ``v`` value when the case replaces one."""
    fields, error = HOSTILE_ROWS[case]
    if case.endswith("-value"):
        return ("y", *fields), error
    return ("y", "w", *fields), error


@pytest.mark.parametrize("case", sorted(HOSTILE_ROWS))
class TestHostileRowsAreTypedRefusals:
    def test_create_relation(self, case):
        row, error = hostile(case)
        db = TPDatabase()
        with pytest.raises(error, match=r"\ba2\b") as raised:
            db.create_relation("a", ("k", "v"), [("x", "v", 0, 4, 0.5), row])
        assert isinstance(raised.value, TPError)
        assert "a" not in db.catalog

    def test_apply(self, case):
        row, error = hostile(case)
        db = TPDatabase()
        db.create_relation("a", ("k", "v"), [("x", "v", 0, 4, 0.5)])
        epoch = db.store("a").epoch
        with pytest.raises(error) as raised:
            db.insert("a", [row])
        assert isinstance(raised.value, TPError)
        assert db.store("a").epoch == epoch
        assert [t.fact for t in db.relation("a")] == [("x", "v")]


class TestAColumnOfTwoKindsIsRefused:
    """``('x', 1)`` and ``('y', 'z')``: the first column decides every
    comparison within the relation, so no sort meets ``1`` and ``'z'``;
    a later operation would, against any fact ``('x', …)``."""

    ROWS = [("x", 1, 0, 4, 0.5), ("y", "z", 0, 4, 0.5)]

    def test_create_relation(self):
        db = TPDatabase()
        with pytest.raises(InvalidFactError, match=r"\ba2\b.*'z'.*\ba1\b.*column 1"):
            db.create_relation("a", ("k", "v"), self.ROWS)
        assert "a" not in db.catalog

    def test_numbers_of_any_type_are_one_kind(self):
        rows = [("x", 1, 0, 4, 0.5), ("y", 2.5, 0, 4, 0.5), ("z", True, 0, 4, 0.5)]
        assert len(TPRelation.from_rows("a", ("k", "v"), rows)) == 3

    def test_apply(self):
        db = TPDatabase()
        db.create_relation("a", ("k", "v"), self.ROWS[:1])
        epoch = db.store("a").epoch
        with pytest.raises(InvalidFactError, match=r"rejects insert \('y', 'z'\).*column 1"):
            db.insert("a", [("w", 2, 0, 4, 0.5)] + self.ROWS[1:])
        assert db.store("a").epoch == epoch
        assert [t.fact for t in db.relation("a")] == [("x", 1)]
        db.delete("a", [("x", 1, 0, 4)])
        db.insert("a", self.ROWS[1:])  # an empty store takes either kind
        assert [t.fact for t in db.relation("a")] == [("y", "z")]


# ----------------------------------------------------------------------
# the file loaders validate too
# ----------------------------------------------------------------------
class TestFileLoadersValidate:
    def test_overlapping_csv_rows_are_refused(self, tmp_path):
        """Before, this file loaded and its union with ``('a', 1, 3)``
        silently dropped x1's ``[5, 10)``."""
        path = tmp_path / "r.csv"
        path.write_text("k,lineage,ts,te,p\na,x1,1,10,0.5\na,x2,5,12,0.4\n")
        with pytest.raises(DuplicateFactError, match="x1 and x2"):
            load_csv(path)

    def test_out_of_range_probability_is_refused(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("k,lineage,ts,te,p\na,x1,1,10,1.5\n")
        with pytest.raises(ValueError, match="probability"):
            load_csv(path)

    def test_empty_interval_is_refused(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("k,lineage,ts,te,p\na,x1,4,4,0.5\n")
        with pytest.raises(InvalidIntervalError):
            load_csv(path)

    def test_ragged_row_is_refused(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("k,lineage,ts,te,p\na,x1,4,9\n")
        with pytest.raises(ValueError, match="fields"):
            load_csv(path)

    def test_compound_lineage_needs_its_events(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("k,lineage,ts,te,p\na,x1∧y1,1,10,0.25\n")
        (tmp_path / "r.csv.events.csv").write_text("event,p\nx1,0.5\n")
        with pytest.raises(KeyError, match="y1"):
            load_csv(path)

    def test_derived_csv_with_sidecar_round_trips(self, rel_a, rel_b, rel_c, tmp_path):
        from repro import tp_except, tp_intersect, tp_union

        # (c ∖ (a ∪ b)) ∩ (a ∪ b) holds contradictions: rows of p = 0.
        either = tp_union(rel_a, rel_b)
        result = tp_intersect(tp_except(rel_c, either), either)
        assert any(t.p == 0.0 for t in result)
        path = tmp_path / "q.csv"
        save_csv(result, path)
        assert (tmp_path / "q.csv.events.csv").exists()
        loaded = load_csv(path)
        assert loaded.equivalent_to(result)
        assert loaded.events == result.events

    def test_json_overlap_is_refused(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(
            '{"name": "r", "attributes": ["k"], "events": {"x1": 0.5, "x2": 0.4},'
            ' "tuples": [{"fact": ["a"], "lineage": "x1", "ts": 1, "te": 10, "p": 0.5},'
            ' {"fact": ["a"], "lineage": "x2", "ts": 5, "te": 12, "p": 0.4}]}'
        )
        with pytest.raises(DuplicateFactError):
            load_json(path)

    def test_json_fractional_time_point_is_refused(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(
            '{"name": "r", "attributes": ["k"], "events": {"x1": 0.5},'
            ' "tuples": [{"fact": ["a"], "lineage": "x1", "ts": 0.5, "te": 3.7, "p": 0.5}]}'
        )
        with pytest.raises(InvalidIntervalError, match="0.5"):
            load_json(path)


# ----------------------------------------------------------------------
# time points are integers: nothing is truncated on the way in
# ----------------------------------------------------------------------
#: ``int()`` would once have turned each of these into a different point.
NOT_A_TIME_POINT = [True, False, 0.5, 3.7, -1.5]


def bad_row(value: object, position: str) -> tuple:
    return ("b", value, 9, 0.5) if position == "ts" else ("b", -5, value, 0.5)


@pytest.mark.parametrize("position", ["ts", "te"])
@pytest.mark.parametrize("value", NOT_A_TIME_POINT, ids=repr)
class TestNonIntegerTimePointsAreRefused:
    def test_from_rows(self, value, position):
        with pytest.raises(InvalidIntervalError, match=r"\ba2\b.*time point") as raised:
            TPRelation.from_rows("a", ("k",), [("a", 0, 3, 0.5), bad_row(value, position)])
        assert repr(value) in str(raised.value)

    def test_create_relation(self, value, position):
        db = TPDatabase()
        with pytest.raises(InvalidIntervalError, match="time point"):
            db.create_relation("r", ("k",), [bad_row(value, position)])
        assert "r" not in db.catalog

    def test_apply(self, value, position):
        db = TPDatabase()
        db.create_relation("r", ("k",), [("a", 0, 3, 0.5)])
        before = sorted((t.fact, t.start, t.end) for t in db.relation("r"))
        with pytest.raises(InvalidIntervalError, match="time point"):
            db.apply("r", inserts=[bad_row(value, position)])
        delete = ("a", value, 3) if position == "ts" else ("a", 0, value)
        with pytest.raises(InvalidIntervalError, match="time point"):
            db.apply("r", deletes=[delete])
        assert sorted((t.fact, t.start, t.end) for t in db.relation("r")) == before

    def test_served_create(self, value, position):
        from tests.test_serve_wire import served_lines

        request = {
            "op": "create", "relation": "c", "attributes": ["k"],
            "rows": [list(bad_row(value, position))],
        }
        ((payload, _line),) = served_lines(TPDatabase(), [request])
        assert payload["ok"] is False
        assert payload["error"]["type"] == "InvalidIntervalError"
        assert "time point" in payload["error"]["message"]


@pytest.mark.parametrize("ts, te", [(2, 9), (2.0, 9.0), (-5.0, 2)])
def test_integral_time_points_load_as_before(ts, te):
    db = TPDatabase()
    db.create_relation("r", ("k",), [("a", ts, te, 0.5)])
    db.apply("r", inserts=[("b", ts, te, 0.5)])
    db.apply("r", deletes=[("a", ts, te)])
    (t,) = db.relation("r")
    assert (t.fact, t.start, t.end) == (("b",), int(ts), int(te))
    assert type(t.start) is int and type(t.end) is int


# ----------------------------------------------------------------------
# a probability is a number: nothing is converted on the way in
# ----------------------------------------------------------------------
#: ``float()`` would once have loaded each of these (``True`` as 1.0).
NOT_A_PROBABILITY = [True, False, "0.5", "1", b"0.5"]


@pytest.mark.parametrize("value", NOT_A_PROBABILITY, ids=repr)
class TestBoolAndTextProbabilitiesAreRefused:
    def test_from_rows(self, value):
        with pytest.raises(InvalidProbabilityError, match=r"\ba2\b.*probability") as raised:
            TPRelation.from_rows("a", ("k",), [("a", 0, 3, 0.5), ("b", 0, 3, value)])
        assert repr(value) in str(raised.value)

    def test_create_relation(self, value):
        db = TPDatabase()
        with pytest.raises(InvalidProbabilityError, match="probability"):
            db.create_relation("r", ("k",), [("a", 0, 3, value)])
        assert "r" not in db.catalog

    def test_apply(self, value):
        db = TPDatabase()
        db.create_relation("r", ("k",), [("a", 0, 3, 0.5)])
        with pytest.raises(InvalidProbabilityError, match="probability"):
            db.apply("r", inserts=[("b", 0, 3, value)])
        assert [t.fact for t in db.relation("r")] == [("a",)]


def test_a_served_bool_probability_is_refused():
    from tests.test_serve_wire import served_lines

    request = {
        "op": "create", "relation": "c", "attributes": ["k"],
        "rows": [["a", 0, 3, True]],
    }
    ((payload, _line),) = served_lines(TPDatabase(), [request])
    assert payload["ok"] is False
    assert payload["error"]["type"] == "InvalidProbabilityError"


@pytest.mark.parametrize("p", [1.5, 0.0, -0.5, float("nan")], ids=repr)
def test_an_out_of_range_probability_is_a_typed_value_error(p):
    with pytest.raises(InvalidProbabilityError, match=r"\ba1\b.*\(0, 1\]") as raised:
        TPRelation.from_rows("a", ("k",), [("a", 0, 3, p)])
    assert isinstance(raised.value, ValueError)


@pytest.mark.parametrize("p", [1, 0.5, 1.0])
def test_numeric_probabilities_load_as_before(p):
    relation = TPRelation.from_rows("a", ("k",), [("a", 0, 3, p)])
    assert relation.events == {"a1": float(p)} and type(relation.events["a1"]) is float


# ----------------------------------------------------------------------
# a fact value equal to itself: NaN would slip past the duplicate check
# ----------------------------------------------------------------------
def nan_rows() -> list[tuple]:
    """Two overlapping rows of "one" fact, each with its own NaN object
    (``nan != nan``, so their facts never compared equal)."""
    return [(float("nan"), 1, 5, 0.5), (float("nan"), 3, 7, 0.5)]


class TestNaNFactValuesAreRefused:
    def test_from_rows(self):
        with pytest.raises(InvalidFactError, match=r"\ba1\b.*nan") as raised:
            TPRelation.from_rows("a", ("k",), nan_rows())
        assert isinstance(raised.value, TPError)
        assert isinstance(raised.value, ValueError)

    def test_create_relation(self):
        db = TPDatabase()
        with pytest.raises(InvalidFactError, match=r"\br1\b.*nan"):
            db.create_relation("r", ("k", "v"), [("a", float("nan"), 0, 3, 0.5)])
        assert "r" not in db.catalog

    def test_apply(self):
        db = TPDatabase()
        db.create_relation("r", ("k",), [(1.5, 0, 3, 0.5)])
        with pytest.raises(InvalidFactError, match="nan"):
            db.apply("r", inserts=[(float("nan"), 0, 3, 0.5)])
        assert [t.fact for t in db.relation("r")] == [(1.5,)]


# ----------------------------------------------------------------------
# facts that do not order against each other: a typed refusal, no trace
# ----------------------------------------------------------------------
class TestUnorderableFactsAreRefused:
    """A column holding ``'x'`` and ``1.5`` cannot be sorted: the sort's
    ``TypeError`` becomes one :class:`InvalidFactError` naming the row,
    and a refused transaction leaves its store as it was."""

    def test_from_rows(self):
        with pytest.raises(InvalidFactError, match=r"\ba2\b.*1\.5.*\ba1\b") as raised:
            TPRelation.from_rows("a", ("k",), [("x", 0, 4, 0.5), (1.5, 0, 4, 0.5)])
        assert isinstance(raised.value, TPError)

    def test_from_rows_names_a_later_column(self):
        rows = [("x", 1, 0, 4, 0.5), ("x", "z", 0, 4, 0.5)]
        with pytest.raises(InvalidFactError, match=r"\ba2\b"):
            TPRelation.from_rows("a", ("k", "v"), rows)

    def test_create_relation(self):
        db = TPDatabase()
        with pytest.raises(InvalidFactError, match=r"\ba2\b"):
            db.create_relation("a", ("k",), [("x", 0, 4, 0.5), (1.5, 0, 4, 0.5)])
        assert "a" not in db.catalog

    @pytest.mark.parametrize(
        "inserts",
        [[(1.5, 0, 4, 0.5)], [("y", 0, 4, 0.5), (2, 1, 3, 0.5)]],
        ids=["alone", "after-a-good-row"],
    )
    def test_apply(self, inserts):
        db = TPDatabase()
        db.create_relation("b", ("k",), [("x", 0, 4, 0.5)])
        store = db.store("b")
        epoch = store.epoch
        with pytest.raises(InvalidFactError, match=r"rejects insert \((1\.5|2),\)") as raised:
            db.insert("b", inserts)
        # One error: the rollback does not raise a second while handling it.
        assert type(raised.value.__context__) is TypeError
        assert raised.value.__context__.__context__ is None
        assert store.epoch == epoch
        assert [t.fact for t in db.relation("b")] == [("x",)]
        db.insert("b", [("w", 0, 4, 0.5)])  # the store still orders its facts
        assert [t.fact for t in db.query("b")] == [("w",), ("x",)]

    def test_apply_to_an_empty_store(self):
        db = TPDatabase()
        db.create_relation("b", ("k",), [("x", 0, 4, 0.5)])
        db.delete("b", [("x", 0, 4)])
        with pytest.raises(InvalidFactError, match=r"rejects insert \('y',\)"):
            db.insert("b", [(1.5, 0, 4, 0.5), ("y", 0, 4, 0.5)])
        assert len(db.relation("b")) == 0
        db.insert("b", [("y", 0, 4, 0.5)])
        assert [t.fact for t in db.relation("b")] == [("y",)]
