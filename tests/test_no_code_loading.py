"""Stored artifacts load without executing code.

Every file the library writes is JSON or NDJSON, and every run
recomputes what it needs in-process. This scan keeps it that way: no
module under ``src/repro`` may import a serialiser that can execute
code or rebuild arbitrary objects on load.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.campaign import CampaignRunner
from repro.fleet import FleetRunner

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Serialisers whose load path can run code or build arbitrary objects.
FORBIDDEN = {"pickle", "shelve", "marshal"}


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module.split(".")[0]


def test_no_module_imports_a_code_loading_serialiser():
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) > 50  # the scan really walks the package
    offenders = [
        f"{path.relative_to(SRC)}: {name}"
        for path in paths
        for name in _imported_modules(ast.parse(path.read_text()))
        if name in FORBIDDEN
    ]
    assert offenders == []


@pytest.mark.parametrize(
    "runner, option",
    [
        (CampaignRunner, "schedule_cache_dir"),
        (FleetRunner, "schedule_cache_dir"),
        (FleetRunner, "checkpoint_dir"),
    ],
)
def test_no_runner_option_persists_run_state(runner, option, tmp_path):
    """A run keeps its schedules and trackers in memory: no runner
    accepts a directory to store them in."""
    with pytest.raises(TypeError, match=option):
        runner(**{option: tmp_path})
    assert list(tmp_path.iterdir()) == []
