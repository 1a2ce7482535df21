"""Tests for the algorithm registry and the Table II support matrix."""

from __future__ import annotations

import pytest

from repro import UnsupportedOperationError
from repro.baselines import (
    algorithms_supporting,
    all_algorithms,
    get_algorithm,
    paper_algorithms,
    render_support_matrix,
    support_matrix,
)


class TestRegistry:
    def test_paper_order(self):
        assert [a.name for a in paper_algorithms()] == [
            "LAWA",
            "NORM",
            "TPDB",
            "OIP",
            "TI",
        ]

    def test_all_includes_extras(self):
        names = {a.name for a in all_algorithms()}
        assert "SWEEP" in names

    def test_extras_not_in_paper_matrix(self):
        assert set(support_matrix(paper_only=True)) == {
            "LAWA",
            "NORM",
            "TPDB",
            "OIP",
            "TI",
        }

    def test_get_algorithm_case_insensitive(self):
        assert get_algorithm("lawa").name == "LAWA"
        assert get_algorithm("Ti").name == "TI"

    def test_get_algorithm_unknown(self):
        with pytest.raises(UnsupportedOperationError):
            get_algorithm("POSTGRES")

    def test_fresh_instances(self):
        assert get_algorithm("OIP") is not get_algorithm("OIP")


class TestTable2:
    """The exact content of Table II ("Approach Overview")."""

    def test_matrix_matches_paper(self):
        matrix = support_matrix()
        assert matrix == {
            "LAWA": {"union": True, "intersect": True, "except": True},
            "NORM": {"union": True, "intersect": True, "except": True},
            "TPDB": {"union": True, "intersect": True, "except": False},
            "OIP": {"union": False, "intersect": True, "except": False},
            "TI": {"union": False, "intersect": True, "except": False},
        }

    def test_intersection_most_supported(self):
        matrix = support_matrix()
        by_op = {
            op: sum(row[op] for row in matrix.values())
            for op in ("union", "intersect", "except")
        }
        assert by_op["intersect"] == 5
        assert by_op["except"] == 2  # least-supported operation
        assert by_op["union"] == 3

    def test_algorithms_supporting(self):
        assert [a.name for a in algorithms_supporting("except")] == ["LAWA", "NORM"]
        assert [a.name for a in algorithms_supporting("union")] == [
            "LAWA",
            "NORM",
            "TPDB",
        ]
        assert len(algorithms_supporting("intersect", paper_only=False)) == 6

    def test_render(self):
        text = render_support_matrix()
        assert "LAWA" in text and "✓" in text and "✗" in text
        lawa_line = next(l for l in text.splitlines() if l.startswith("LAWA"))
        assert "✗" not in lawa_line
