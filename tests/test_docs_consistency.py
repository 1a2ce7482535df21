"""Docs stay honest: every CLI flag the documentation names must exist.

The front-door docs (README.md, docs/benchmarks.md) promise specific
command-line flags.  These tests extract every ``--flag`` token from the
markdown and check it against the real argparse surfaces — so a renamed
or removed option cannot linger in the documentation, and the flags the
README is required to document are actually documented.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path
from unittest import mock

import pytest

from benchmarks.tpbench import run as tpbench_run
from repro.bench.__main__ import build_parser as bench_parser
from repro.db.__main__ import build_parser as db_parser
from repro.serve.__main__ import build_parser as serve_parser

REPO = Path(__file__).resolve().parent.parent
README = REPO / "README.md"
BENCH_DOC = REPO / "docs" / "benchmarks.md"
DESIGN = REPO / "DESIGN.md"

FLAG = re.compile(r"(?<![\w-])(--[a-z][a-z0-9-]*)")

#: The flags the README is required to document: the db CLI's query and
#: durability options and the serving CLI.
REQUIRED_IN_README = {
    "--optimize",
    "--explain",
    "--data-dir",
    "--durability",
    "--port",
    "--request-timeout",
    "--cache-size",
}


def documented_flags(path: Path) -> set[str]:
    return set(FLAG.findall(path.read_text()))


def tpbench_parser() -> argparse.ArgumentParser:
    """tpbench's parser, which its ``parse_args`` builds and parses in one
    call: stubbing the parse step hands back the parser itself."""
    with mock.patch.object(
        argparse.ArgumentParser, "parse_args", lambda parser, argv=None: parser
    ):
        return tpbench_run.parse_args([])


def real_flags() -> set[str]:
    flags: set[str] = set()
    for parser in (db_parser(), serve_parser(), bench_parser(), tpbench_parser()):
        for action in parser._actions:
            flags.update(s for s in action.option_strings if s.startswith("--"))
    return flags


def test_front_door_documents_exist():
    assert README.is_file(), "README.md is the repository's front door"
    assert BENCH_DOC.is_file(), "docs/benchmarks.md is the methodology page"
    design = DESIGN.read_text()
    assert "## §13" in design, "DESIGN.md must cover the workload generator (§13)"
    assert "## §14" in design, "DESIGN.md must cover the query service (§14)"


@pytest.mark.parametrize("path", [README, BENCH_DOC], ids=lambda p: p.name)
def test_every_documented_flag_is_real(path):
    ghosts = documented_flags(path) - real_flags()
    assert not ghosts, f"{path.name} documents flags that do not exist: {sorted(ghosts)}"


def test_readme_documents_the_required_flags():
    missing = REQUIRED_IN_README - documented_flags(README)
    assert not missing, f"README.md must document: {sorted(missing)}"


def test_readme_points_to_the_methodology_page():
    text = README.read_text()
    assert "docs/benchmarks.md" in text
    assert "benchmarks/tpbench/run.py" in text


def test_design_cross_links_the_methodology_page():
    assert "docs/benchmarks.md" in DESIGN.read_text()
