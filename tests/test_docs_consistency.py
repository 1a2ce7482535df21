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
    assert "`tests/test_mode_matrix.py`" in design, (
        "DESIGN.md must name the mode matrix, the one differential harness"
    )
    assert "## §12 The concurrent query service" in design, (
        "DESIGN.md must cover the query service (§12)"
    )


#: Where DESIGN.md sections are cited; every citation must resolve.
CITING_PATHS = (
    "src", "tests", "examples", "docs", "README.md", ".github", ".claude", "DESIGN.md",
)

CITATION = re.compile(r"§(\d+(?:\.\d+)?)")
HEADING = re.compile(r"^#{2,3} §(\d+(?:\.\d+)?) ", re.M)


def citing_files():
    for name in CITING_PATHS:
        path = REPO / name
        if path.is_file():
            yield path
        elif path.is_dir():
            for child in sorted(path.rglob("*")):
                if child.is_file() and child.suffix in (".py", ".md", ".txt", ".yml"):
                    yield child


def test_every_design_citation_resolves():
    """Every arabic section number cited in the code, tests, examples,
    docs, README, CI and DESIGN.md itself names a heading of DESIGN.md."""
    headings = set(HEADING.findall(DESIGN.read_text()))
    dangling = [
        f"{path.relative_to(REPO)}:{lineno}: §{number}"
        for path in citing_files()
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        for number in CITATION.findall(line)
        if number not in headings
    ]
    assert not dangling, "citations of missing DESIGN.md sections:\n" + "\n".join(dangling)


def test_design_sections_are_numbered_without_gaps():
    """Sections run §1, §2, … and each one's subsections §N.1, §N.2, …
    in order, so a deleted section leaves no hole in the numbering."""
    numbers = [tuple(map(int, n.split("."))) for n in HEADING.findall(DESIGN.read_text())]
    expected = []
    section = 0
    for number in numbers:
        if len(number) == 1:
            section += 1
            expected.append((section,))
        else:
            sub = expected[-1][1] + 1 if len(expected[-1]) == 2 else 1
            expected.append((section, sub))
    assert numbers == expected


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


#: Where markdown pages are named; every named page must exist.
NAMING_DIRS = ("src", "tests", "benchmarks", "docs")
MD_PATH = re.compile(r"[\w./-]*\w\.md\b")


def test_every_named_markdown_page_exists():
    """A ``*.md`` path named in the code, tests, benchmarks or docs is a
    file of the repository: a path with a directory part relative to the
    root or to the naming file, a bare name anywhere in the tree (three
    citations once sent readers to an experiments page that never
    existed)."""
    pages = {
        path.name
        for path in REPO.rglob("*.md")
        if not any(part.startswith(".") for part in path.relative_to(REPO).parts)
    }
    dangling = []
    for root in NAMING_DIRS:
        for path in sorted((REPO / root).rglob("*")):
            if not path.is_file() or path.suffix not in (".py", ".md", ".txt", ".yml"):
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                for named in MD_PATH.findall(line):
                    if "/" in named:
                        found = (REPO / named).is_file() or (path.parent / named).is_file()
                    else:
                        found = named in pages
                    if not found:
                        dangling.append(f"{path.relative_to(REPO)}:{lineno}: {named}")
    assert not dangling, "named markdown pages that do not exist:\n" + "\n".join(dangling)


PY_PATH = re.compile(r"[\w.-]+(?:/[\w.-]+)+\.py\b")
#: Where a named ``*.py`` path may be relative to: the root, ``src/``
#: and the package (DESIGN.md names modules as ``core/setops.py``).
PY_ROOTS = (REPO, REPO / "src", REPO / "src" / "repro")


def test_every_named_python_path_exists():
    """A ``*.py`` path with a directory part that DESIGN.md or README.md
    names is a file of the repository (three DESIGN.md sections went on
    citing per-PR benchmark scripts long after they were deleted)."""
    dangling = [
        f"{doc.name}:{lineno}: {named}"
        for doc in (DESIGN, README)
        for lineno, line in enumerate(doc.read_text().splitlines(), 1)
        for named in PY_PATH.findall(line)
        if not any((root / named).is_file() for root in PY_ROOTS)
    ]
    assert not dangling, "named Python files that do not exist:\n" + "\n".join(dangling)
