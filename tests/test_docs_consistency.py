"""Docs stay honest: every CLI flag the documentation names must exist.

The front-door docs (README.md, docs/benchmarks.md) promise specific
command-line flags.  These tests extract every ``--flag`` token from the
markdown and check it against the real argparse surfaces — so a renamed
or removed option cannot linger in the documentation, and the flags the
README is required to document are actually documented.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from benchmarks.check_regression import build_parser as regression_parser
from benchmarks.suite import build_parser as suite_parser
from repro.bench.__main__ import build_parser as bench_parser
from repro.db.__main__ import build_parser as db_parser
from repro.serve.__main__ import build_parser as serve_parser

REPO = Path(__file__).resolve().parent.parent
README = REPO / "README.md"
BENCH_DOC = REPO / "docs" / "benchmarks.md"
DESIGN = REPO / "DESIGN.md"

FLAG = re.compile(r"(?<![\w-])(--[a-z][a-z0-9-]*)")

#: The flags the README is required to document (PR-7 acceptance, plus
#: the PR-8 serving CLI and the PR-10 replica tier).
REQUIRED_IN_README = {
    "--optimize",
    "--explain",
    "--data-dir",
    "--durability",
    "--port",
    "--request-timeout",
    "--cache-size",
    "--replicas",
}


def documented_flags(path: Path) -> set[str]:
    return set(FLAG.findall(path.read_text()))


def real_flags() -> set[str]:
    flags: set[str] = set()
    for parser in (
        db_parser(),
        serve_parser(),
        suite_parser(),
        regression_parser(),
        bench_parser(),
    ):
        for action in parser._actions:
            flags.update(s for s in action.option_strings if s.startswith("--"))
    return flags


def test_front_door_documents_exist():
    assert README.is_file(), "README.md is the repository's front door"
    assert BENCH_DOC.is_file(), "docs/benchmarks.md is the methodology page"
    design = DESIGN.read_text()
    assert "## §13" in design, "DESIGN.md must cover the suite (§13)"
    assert "## §14" in design, "DESIGN.md must cover the query service (§14)"
    assert "## §16" in design, "DESIGN.md must cover the read-replica tier (§16)"


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
    assert "benchmarks.suite" in text


def test_design_cross_links_the_methodology_page():
    assert "docs/benchmarks.md" in DESIGN.read_text()
