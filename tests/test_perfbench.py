"""The package names that perfbench/run.py wraps in its traced passes still exist.

A traced run looks each name up with ``getattr`` and reports the metrics
built on a missing one as ``absent``: a renamed or deleted name silently
drops a declared per-layer metric from the traced result.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import bihyper

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


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
