"""The package names that perfbench/run.py wraps in its traced passes still exist.

A traced run looks each name up with ``getattr`` and reports the metrics
built on a missing one as ``absent``: a renamed or deleted name silently
drops a declared per-layer metric from the traced result.

A short traced run must also end with its result: a last stdout line that
strict JSON accepts.  Anything the package prints, or a thread or exit hook
writes, after that line would leave the run without a readable result.
"""

from __future__ import annotations

import ast
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bihyper

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def _assigned(name):
    """The literal value assigned to ``name`` at the top level of run.py."""
    for node in ast.parse(RUN.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{RUN.name} assigns no {name}")


def test_traced_boundaries_exist():
    inner = _assigned("INNER")
    assert inner
    for module, attribute, span, metrics in inner:
        assert hasattr(getattr(bihyper, module), attribute), (span, metrics)


def test_enumerator_still_takes_threads():
    # without it the traced result lacks colorings.parallel_speedup
    assert "threads" in inspect.signature(bihyper.enumerate_strict_colorings).parameters


def test_enumerator_survives_a_wrapped_partition(monkeypatch):
    # a traced pass rebinds colorings.Partition to a plain function
    original = bihyper.colorings.Partition
    monkeypatch.setattr(bihyper.colorings, "Partition", lambda *a, **k: original(*a, **k))
    report = bihyper.enumerate_strict_colorings(bihyper.build_hypergraph(4), limit=3)
    assert [p.labels for p in report.colorings] == [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)]
    assert all(type(p) is original for p in report.colorings)


def _refuse_constant(name):
    raise ValueError(f"strict JSON has no {name}")


@pytest.mark.parametrize("workload", ["settle", "verify-sweep", "spectrum"])
def test_traced_run_ends_with_a_strict_json_result(tmp_path, workload):
    # a copy of perfbench/ next to a link to src/, so the run's output files
    # land under tmp_path and the checkout is left as it was
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in RUN.parent.glob("*.py"):
        shutil.copy(path, bench / path.name)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "absent []" in lines
    result = json.loads(lines[-1], parse_constant=_refuse_constant)
    assert result["correct"] is True and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted({m["name"] for m in declared} - set(result["metrics"])) == []
