"""Tests for the window value object, error hierarchy, and display glue."""

from __future__ import annotations

import pytest

from repro import (
    DuplicateFactError,
    Interval,
    InvalidIntervalError,
    LineageWindow,
    QueryParseError,
    SchemaMismatchError,
    TPError,
    UnknownRelationError,
    UnknownVariableError,
    UnsupportedOperationError,
    ValuationError,
)
from repro.lineage import Var


class TestLineageWindow:
    def test_interval_property(self):
        window = LineageWindow(("milk",), 2, 4, Var("c1"), Var("a1"))
        assert window.interval == Interval(2, 4)

    def test_str_with_both_lineages(self):
        window = LineageWindow(("milk",), 2, 4, Var("c1"), Var("a1"))
        assert str(window) == "('milk', [2,4), λr=c1, λs=a1)"

    def test_str_with_null_side(self):
        window = LineageWindow(("milk",), 1, 2, Var("c1"), None)
        assert "λs=null" in str(window)

    def test_frozen(self):
        window = LineageWindow(("milk",), 1, 2, None, Var("a1"))
        with pytest.raises(AttributeError):
            window.win_ts = 5  # type: ignore[misc]

    def test_hashable(self):
        w1 = LineageWindow(("milk",), 1, 2, None, Var("a1"))
        w2 = LineageWindow(("milk",), 1, 2, None, Var("a1"))
        assert len({w1, w2}) == 1


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            InvalidIntervalError,
            DuplicateFactError,
            SchemaMismatchError,
            UnknownRelationError,
            UnknownVariableError,
            UnsupportedOperationError,
            QueryParseError,
            ValuationError,
        ],
    )
    def test_all_derive_from_tp_error(self, exc):
        assert issubclass(exc, TPError)

    def test_value_errors_catchable_as_such(self):
        assert issubclass(InvalidIntervalError, ValueError)
        assert issubclass(DuplicateFactError, ValueError)
        assert issubclass(QueryParseError, ValueError)

    def test_lookup_errors_catchable_as_such(self):
        assert issubclass(UnknownRelationError, KeyError)
        assert issubclass(UnknownVariableError, KeyError)

    def test_unsupported_is_not_implemented(self):
        assert issubclass(UnsupportedOperationError, NotImplementedError)

    def test_one_handler_catches_everything(self, rel_a):
        from repro import tp_set_operation

        with pytest.raises(TPError):
            tp_set_operation("xor", rel_a, rel_a)
        with pytest.raises(TPError):
            Interval(5, 5)


class TestPackageSurface:
    def test_version(self):
        import repro

        assert repro.__version__

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_docstring_example(self):
        """The module docstring example must stay correct."""
        import doctest

        import repro

        results = doctest.testmod(repro, verbose=False)
        assert results.failed == 0

    def test_algebra_exports(self):
        from repro import tp_join, tp_project  # noqa: F401
