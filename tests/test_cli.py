"""Tests for the command-line entry points (repro.db, repro.bench)."""

from __future__ import annotations

import pytest

from repro.bench.__main__ import main as bench_main
from repro.db import TPDatabase, load_csv, load_json, save_csv, save_json
from repro.db.__main__ import main as db_main


@pytest.fixture
def relation_files(rel_a, rel_c, tmp_path):
    a_path = tmp_path / "a.csv"
    c_path = tmp_path / "c.json"
    save_csv(rel_a, a_path)
    save_json(rel_c, c_path)
    return a_path, c_path


class TestDbCli:
    def test_query_to_stdout(self, relation_files, capsys):
        a_path, c_path = relation_files
        code = db_main(
            ["--load", f"a={a_path}", "--load", f"c={c_path}", "--query", "a & c"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "a1∧c1" in out

    def test_explain(self, relation_files, capsys):
        a_path, c_path = relation_files
        code = db_main(
            ["--load", f"a={a_path}", "--load", f"c={c_path}", "--explain", "a - c"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Except[LAWA]" in out
        assert "PTIME" in out

    def test_algorithm_option(self, relation_files, capsys):
        a_path, c_path = relation_files
        code = db_main(
            [
                "--load",
                f"a={a_path}",
                "--load",
                f"c={c_path}",
                "--query",
                "a & c",
                "--algorithm",
                "NORM",
            ]
        )
        assert code == 0

    def test_output_json(self, relation_files, tmp_path, capsys):
        a_path, c_path = relation_files
        out_path = tmp_path / "result.json"
        db_main(
            [
                "--load",
                f"a={a_path}",
                "--load",
                f"c={c_path}",
                "--query",
                "a | c",
                "--out",
                str(out_path),
            ]
        )
        result = load_json(out_path)
        assert len(result) == 9  # Fig. 3 union row count

    def test_apply_delta_before_query(self, relation_files, tmp_path, capsys):
        a_path, c_path = relation_files
        delta = tmp_path / "delta.csv"
        delta.write_text(
            "op,product,ts,te,p\n"
            "+,beer,1,6,0.5\n"
            "-,chips,4,7,\n"
        )
        code = db_main(
            [
                "--load", f"a={a_path}",
                "--load", f"c={c_path}",
                "--apply", f"a={delta}",
                "--query", "a | a",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "applied delta.csv to a: +1 -1" in out
        assert "beer" in out and "chips" not in out

    def test_apply_unknown_relation_rejected(self, relation_files, tmp_path):
        a_path, _ = relation_files
        delta = tmp_path / "delta.csv"
        delta.write_text("op,product,ts,te,p\n+,beer,1,6,0.5\n")
        with pytest.raises(SystemExit, match="no loaded relation"):
            db_main(["--load", f"a={a_path}", "--apply", f"nope={delta}",
                     "--query", "a"])

    def test_bad_apply_spec(self, relation_files):
        a_path, _ = relation_files
        with pytest.raises(SystemExit):
            db_main(["--load", f"a={a_path}", "--apply", "just-a-path.csv",
                     "--query", "a"])

    def test_bad_load_spec(self):
        with pytest.raises(SystemExit):
            db_main(["--load", "just-a-path.csv", "--query", "a"])

    def test_bad_format(self, tmp_path):
        bogus = tmp_path / "rel.parquet"
        bogus.write_text("")
        with pytest.raises(SystemExit):
            db_main(["--load", f"r={bogus}", "--query", "r"])

    def test_query_required(self, relation_files):
        a_path, _ = relation_files
        with pytest.raises(SystemExit):
            db_main(["--load", f"a={a_path}"])


class TestDbCliOutput:
    """--out files hold exactly the relation the query computes in-process."""

    def _query_to(self, relation_files, tmp_path, out_name, *extra):
        a_path, c_path = relation_files
        out_path = tmp_path / out_name
        code = db_main(
            [
                "--load", f"a={a_path}",
                "--load", f"c={c_path}",
                "--query", "a | c",
                "--out", str(out_path),
                *extra,
            ]
        )
        assert code == 0
        return out_path

    def _in_process(self, relation_files):
        a_path, c_path = relation_files
        db = TPDatabase()
        db.register(load_csv(a_path, name="a"))
        db.register(load_json(c_path).rename("c"))
        return db.query("a | c")

    def test_json_roundtrip_matches_in_process_query(self, relation_files, tmp_path, capsys):
        written = load_json(self._query_to(relation_files, tmp_path, "out.json"))
        expected = self._in_process(relation_files)
        assert len(written) == len(expected) == 9  # Fig. 3 union row count
        assert written.equivalent_to(expected.rename(written.name), tol=0.0)

    def test_csv_output_is_reproducible(self, relation_files, tmp_path, capsys):
        first = self._query_to(relation_files, tmp_path, "first.csv")
        second = self._query_to(relation_files, tmp_path, "second.csv")
        expected = tmp_path / "expected.csv"
        save_csv(self._in_process(relation_files).rename("expected"), expected)
        assert first.read_text() == second.read_text() == expected.read_text()

    def test_json_output_after_apply_delta(self, relation_files, tmp_path, capsys):
        a_path, c_path = relation_files
        delta = tmp_path / "delta.csv"
        delta.write_text(
            "op,product,ts,te,p\n"
            "+,beer,1,6,0.5\n"
            "-,chips,4,7,\n"
        )
        out_path = tmp_path / "result.json"
        code = db_main(
            [
                "--load", f"a={a_path}",
                "--load", f"c={c_path}",
                "--apply", f"a={delta}",
                "--query", "a | a",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "applied delta.csv to a: +1 -1" in out
        result = load_json(out_path)
        facts = {t.fact[0] for t in result}
        assert "beer" in facts and "chips" not in facts

    def test_optimized_json_equals_unoptimized(self, relation_files, tmp_path, capsys):
        off = load_json(self._query_to(relation_files, tmp_path, "off.json"))
        safe = load_json(
            self._query_to(relation_files, tmp_path, "safe.json", "--optimize", "safe")
        )
        assert safe.equivalent_to(off.rename(safe.name), tol=0.0)


class TestDbCliOptimize:
    """--optimize {off,safe} and the EXPLAIN query prefix."""

    def _out(self, relation_files, tmp_path, name, *extra):
        a_path, c_path = relation_files
        out_path = tmp_path / name
        code = db_main(
            [
                "--load", f"a={a_path}",
                "--load", f"c={c_path}",
                "--query", "(a | c)[product='milk'] - c",
                "--out", str(out_path),
                *extra,
            ]
        )
        assert code == 0
        return out_path

    def test_safe_output_identical_to_off(self, relation_files, tmp_path, capsys):
        off = self._out(relation_files, tmp_path, "off.csv")
        safe = self._out(relation_files, tmp_path, "safe.csv", "--optimize", "safe")
        assert off.read_text() == safe.read_text()

    def test_invalid_level_rejected(self, relation_files, capsys):
        a_path, _ = relation_files
        with pytest.raises(SystemExit):
            db_main(
                ["--load", f"a={a_path}", "--query", "a", "--optimize", "fast"]
            )
        err = capsys.readouterr().err
        assert "--optimize must be one of off, safe, got 'fast'" in err
        assert "'fast'" in err

    # The removed third level's name is split in two literals so the CI
    # grep that keeps it out of src/, tests/ and examples/ stays empty;
    # that step's comment names this exemption.
    @pytest.mark.parametrize("level", ["aggress" "ive", "True", "1"])
    def test_retired_level_spellings_rejected(self, relation_files, capsys, level):
        """The removed third level and the bool spellings name no level."""
        a_path, _ = relation_files
        with pytest.raises(SystemExit):
            db_main(["--load", f"a={a_path}", "--query", "a", "--optimize", level])
        err = capsys.readouterr().err
        assert f"--optimize must be one of off, safe, got {level!r}" in err

    def test_empty_level_rejected(self, relation_files, capsys):
        a_path, _ = relation_files
        with pytest.raises(SystemExit):
            db_main(["--load", f"a={a_path}", "--query", "a", "--optimize", ""])
        assert "must be one of off, safe, got ''" in capsys.readouterr().err

    def test_explain_prefix_prints_report(self, relation_files, capsys):
        a_path, c_path = relation_files
        code = db_main(
            [
                "--load", f"a={a_path}",
                "--load", f"c={c_path}",
                "--query", "EXPLAIN a & c",
                "--optimize", "safe",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "optimizer: safe" in out
        assert "est rows=" in out
        assert "actual rows=" in out  # the prefix form runs the plan

    def test_explain_flag_reports_level(self, relation_files, capsys):
        a_path, c_path = relation_files
        code = db_main(
            [
                "--load", f"a={a_path}",
                "--load", f"c={c_path}",
                "--explain", "(a | c)[product='milk']",
                "--optimize", "safe",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "optimizer: safe — plan " in out
        assert "Select[product='milk']" in out  # pushdown visible in the plan


class TestBenchCli:
    def test_table2_only(self, tmp_path, capsys):
        code = bench_main(["table2", "--outdir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "table2.txt").exists()
        assert "LAWA" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            bench_main(["fig99", "--outdir", str(tmp_path)])


class TestDbCliExplainOut:
    def test_explain_query_with_out_rejected(self, relation_files, tmp_path, capsys):
        a_path, _ = relation_files
        out_path = tmp_path / "result.json"
        with pytest.raises(SystemExit):
            db_main(
                [
                    "--load", f"a={a_path}",
                    "--query", "EXPLAIN a | a",
                    "--out", str(out_path),
                ]
            )
        assert "cannot be combined with an EXPLAIN query" in capsys.readouterr().err
        assert not out_path.exists()
