"""Which exceptions the CLI treats as usage errors, and the refusal path end to end.

A ``ValueError`` from anywhere under a command is a usage error: ``main``
prints ``error: <message>`` and returns 2.  Any other exception is an
internal fault and propagates out of ``main``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bihyper.cli
from bihyper.cli import main
from bihyper.construction import construct
from bihyper.serialization import serialize


def _raise(exc):
    def certify(*args, **kwargs):
        raise exc
    return certify


class TestRefusalBoundary:
    def test_value_error_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(bihyper.cli, "certify_lower_bound", _raise(ValueError("x")))
        assert main(["min-search", "--set", "3,2"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: x\n")

    @pytest.mark.parametrize("exc", [AssertionError("internal"), RuntimeError("internal")])
    def test_internal_faults_propagate(self, capsys, monkeypatch, exc):
        monkeypatch.setattr(bihyper.cli, "certify_lower_bound", _raise(exc))
        with pytest.raises(type(exc), match="^internal$"):
            main(["min-search", "--set", "3,2"])
        assert capsys.readouterr().err == ""

    def test_max_vertices_default_is_left_to_the_library(self, monkeypatch):
        seen = []

        def certify(spec, v_max, **kwargs):
            seen.append(v_max)
            raise ValueError("stop")
        monkeypatch.setattr(bihyper.cli, "certify_lower_bound", certify)
        main(["min-search", "--set", "4,2"])
        main(["min-search", "--set", "4,2", "--max-vertices", "5"])
        assert seen == [None, 5]


@pytest.mark.parametrize("labeled", [False, True])
def test_document_without_metadata_is_a_usage_error(tmp_path, capsys, labeled):
    doc = json.loads(serialize(construct([3, 2]) if labeled else construct([3, 2]).hypergraph))
    del doc["metadata"]
    path = tmp_path / "h.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--set", "3,2"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {path}: metadata: missing required field\n")


def test_module_entry_point_exits_2_on_a_refusal():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "bihyper", "formula", "--set", "4,x"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: cannot parse feasible set '4,x'; expected e.g. '5,3,2'\n"
