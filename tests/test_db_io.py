"""Round-trip tests for relation serialization (JSON and CSV)."""

from __future__ import annotations

import pytest

from repro import tp_except, tp_union
from repro.db import load_csv, load_json, save_csv, save_json


class TestJson:
    def test_round_trip_base(self, rel_a, tmp_path):
        path = tmp_path / "a.json"
        save_json(rel_a, path)
        loaded = load_json(path)
        assert loaded.equivalent_to(rel_a)
        assert loaded.name == rel_a.name
        assert loaded.events == rel_a.events

    def test_round_trip_derived(self, rel_a, rel_b, rel_c, tmp_path):
        result = tp_except(rel_c, tp_union(rel_a, rel_b))
        path = tmp_path / "q.json"
        save_json(result, path)
        loaded = load_json(path)
        assert loaded.equivalent_to(result)
        assert loaded.events == result.events

    def test_schema_preserved(self, rel_a, tmp_path):
        path = tmp_path / "a.json"
        save_json(rel_a, path)
        assert load_json(path).schema == rel_a.schema


class TestCsv:
    def test_round_trip_base_no_sidecar(self, rel_a, tmp_path):
        path = tmp_path / "a.csv"
        save_csv(rel_a, path)
        assert not (tmp_path / "a.csv.events.csv").exists()
        loaded = load_csv(path, name="a")
        assert loaded.equivalent_to(rel_a)
        assert loaded.events == rel_a.events

    def test_round_trip_derived_with_sidecar(self, rel_a, rel_c, tmp_path):
        result = tp_except(rel_a, rel_c)
        path = tmp_path / "diff.csv"
        save_csv(result, path)
        assert (tmp_path / "diff.csv.events.csv").exists()
        loaded = load_csv(path)
        assert loaded.equivalent_to(result)

    def test_missing_sidecar_rejected(self, rel_a, rel_c, tmp_path):
        result = tp_except(rel_a, rel_c)
        path = tmp_path / "diff.csv"
        save_csv(result, path)
        (tmp_path / "diff.csv.events.csv").unlink()
        with pytest.raises(ValueError, match="sidecar"):
            load_csv(path)

    def test_stale_sidecar_removed_on_resave(self, rel_a, rel_c, tmp_path):
        """Re-saving all-atomic content must drop a stale events sidecar.

        Without the cleanup, the derived save's sidecar survives the
        re-save and silently overrides the base tuples' probabilities on
        the next load."""
        path = tmp_path / "rel.csv"
        save_csv(tp_except(rel_a, rel_c), path)  # derived: writes sidecar
        sidecar = tmp_path / "rel.csv.events.csv"
        assert sidecar.exists()
        save_csv(rel_a, path)  # base: all lineages atomic
        assert not sidecar.exists()
        loaded = load_csv(path, name="a")
        assert loaded.equivalent_to(rel_a)
        assert loaded.events == rel_a.events

    def test_name_defaults_to_stem(self, rel_a, tmp_path):
        path = tmp_path / "warehouse.csv"
        save_csv(rel_a, path)
        assert load_csv(path).name == "warehouse"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bogus.csv"
        path.write_text("x,y,z\n1,2,3\n")
        with pytest.raises(ValueError, match="TP relation CSV"):
            load_csv(path)

    def test_numeric_fact_values_coerced(self, tmp_path):
        from repro import TPRelation

        r = TPRelation.from_rows(
            "sensors", ("sensor_id", "reading"), [(7, 21.5, 1, 3, 0.9)]
        )
        path = tmp_path / "sensors.csv"
        save_csv(r, path)
        loaded = load_csv(path)
        (t,) = list(loaded)
        assert t.fact == (7, 21.5)


class TestAtomicSaves:
    """Crash fault injection over the atomic save protocol (§11).

    A simulated crash at every write/fsync/replace boundary must leave
    the *previous* file contents fully readable — never a torn file —
    and only the crash after ``os.replace`` exposes the new contents.
    """

    BOUNDARIES = ["io.save.begin", "io.save.written", "io.save.synced"]

    @pytest.mark.parametrize("boundary", BOUNDARIES)
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_crash_before_replace_keeps_old_file(
        self, rel_a, rel_b, tmp_path, boundary, fmt
    ):
        from repro.store import SimulatedCrash, fault_hook

        save = save_json if fmt == "json" else save_csv
        load = load_json if fmt == "json" else load_csv
        path = tmp_path / f"rel.{fmt}"
        save(rel_a, path)

        def hook(name: str) -> None:
            if name == boundary:
                raise SimulatedCrash(boundary)

        with fault_hook(hook):
            with pytest.raises(SimulatedCrash):
                save(rel_b, path)
        assert load(path).equivalent_to(rel_a)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_crash_after_replace_exposes_new_file(
        self, rel_a, rel_b, tmp_path, fmt
    ):
        from repro.store import SimulatedCrash, fault_hook

        save = save_json if fmt == "json" else save_csv
        load = load_json if fmt == "json" else load_csv
        path = tmp_path / f"rel.{fmt}"
        save(rel_a, path)

        def hook(name: str) -> None:
            if name == "io.save.replaced":
                raise SimulatedCrash(name)

        with fault_hook(hook):
            with pytest.raises(SimulatedCrash):
                save(rel_b, path)
        assert load(path).equivalent_to(rel_b)

    def test_dead_tmp_file_is_overwritten_by_next_save(self, rel_a, tmp_path):
        path = tmp_path / "rel.json"
        tmp = tmp_path / "rel.json.tmp"
        tmp.write_text("garbage from a crashed save")
        save_json(rel_a, path)
        assert not tmp.exists()
        assert load_json(path).equivalent_to(rel_a)
