"""The examples and the benchmark stay in step with the library's surface.

Two guards against API drift: every example script runs to completion
(each one asserts its own worked numbers), and every name that an
example or a ``benchmarks/tpbench`` module imports from ``repro``
still exists where it is imported from.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def _guarded(tree: ast.AST) -> set[int]:
    """Ids of the import nodes inside a ``try`` that catches ImportError:
    optional imports, allowed to be missing."""
    guarded: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and any(
            isinstance(handler.type, ast.Name)
            and handler.type.id in ("ImportError", "ModuleNotFoundError")
            for handler in node.handlers
        ):
            guarded.update(id(inner) for stmt in node.body for inner in ast.walk(stmt))
    return guarded


def repro_imports(path: Path) -> list[tuple[str, str | None]]:
    """Every ``(module, name)`` that ``path`` imports from ``repro``
    unconditionally; ``name`` is None for a plain ``import repro.x``."""
    found: list[tuple[str, str | None]] = []
    tree = ast.parse(path.read_text(), filename=str(path))
    guarded = _guarded(tree)
    for node in ast.walk(tree):
        if id(node) in guarded:
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "repro" or node.module.startswith("repro."):
                found.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend(
                (alias.name, None)
                for alias in node.names
                if alias.name == "repro" or alias.name.startswith("repro.")
            )
    return found


IMPORTING = [
    path
    for path in EXAMPLES + sorted((REPO / "benchmarks" / "tpbench").glob("*.py"))
    if repro_imports(path)
]


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run(
        [sys.executable, str(path)],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip(), f"{path.name} printed nothing"


@pytest.mark.parametrize(
    "path", IMPORTING, ids=lambda p: str(p.relative_to(REPO).with_suffix(""))
)
def test_imported_repro_names_exist(path):
    missing = []
    for module_name, name in repro_imports(path):
        module = importlib.import_module(module_name)
        if name is not None and not hasattr(module, name):
            try:
                importlib.import_module(f"{module_name}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{module_name}.{name}")
    assert not missing, f"{path.name} imports names that do not exist: {missing}"


def test_every_example_is_covered():
    """The examples directory is not empty and every example imports
    the library, so the two guards above see all of them."""
    assert EXAMPLES
    assert set(EXAMPLES) <= set(IMPORTING)
