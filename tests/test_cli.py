from __future__ import annotations

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from bihyper.cli import build_parser, main
from bihyper.construction import construct
from bihyper.model import build_hypergraph
from bihyper.serialization import serialize


def write_construction(tmp_path, values, variant="auto", name="h.json"):
    path = tmp_path / name
    path.write_text(serialize(construct(values, variant)))
    return str(path)


def write_garbage(tmp_path, name="garbage.json"):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe")
    return str(path)


def assert_one_error_line(capsys, text):
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert text in captured.err
    assert captured.out == ""


class TestFormula:
    def test_prints_minimum_size(self, capsys):
        assert main(["formula", "--set", "4,2"]) == 0
        assert capsys.readouterr().out.strip() == "8"

    def test_invalid_set(self, capsys):
        assert main(["formula", "--set", "4,x"]) == 2
        assert main(["formula", "--set", "3"]) == 2


class TestConstruct:
    def test_writes_file(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        assert main(["construct", "--set", "3,2", "--out", str(out)]) == 0
        assert "6 vertices" in capsys.readouterr().out
        assert json.loads(out.read_text())["vertex_count"] == 6

    def test_stdout_default(self, capsys):
        assert main(["construct", "--set", "4,2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["vertex_count"] == 8

    def test_unproven_note(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        assert main(["construct", "--set", "4,2", "--variant", "II", "--out", str(out)]) == 0
        assert "unproven regime" in capsys.readouterr().out

    def test_drop_special(self, capsys):
        assert main(["construct", "--set", "4,2", "--drop-special"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["c_edges"]) == len(construct([4, 2]).hypergraph.c_edges) - 1

    @pytest.mark.parametrize("out", ["missing/x.json", "."])
    def test_unwritable_out(self, tmp_path, capsys, out):
        # a missing directory or a directory as the target is an input error, not a refutation
        target = str(tmp_path / out)
        assert main(["construct", "--set", "4,2", "--out", target]) == 2
        assert_one_error_line(capsys, f"cannot write {target}")


class TestSpectrum:
    def test_table(self, tmp_path, capsys):
        path = write_construction(tmp_path, [3, 2])
        assert main(["spectrum", path]) == 0
        out = capsys.readouterr().out
        assert "strict colorings: 2" in out
        assert "feasible set: {2, 3}" in out

    def test_json(self, tmp_path, capsys):
        path = write_construction(tmp_path, [4, 2])
        assert main(["spectrum", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"vertex_count": 8, "upper_chromatic": 4, "counts": [0, 1, 0, 1],
                        "feasible": [2, 4], "strict_colorings": 2, "nodes_explored": 75}

    def test_threads_flag(self, tmp_path, capsys):
        # spectrum has no --threads: the enumerator is serial
        path = write_construction(tmp_path, [4, 2])
        assert main(["spectrum", path, "--json", "--threads", "2"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["spectrum", "/no/such/file.json"]) == 2

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one(self, tmp_path, capsys, threads):
        # with no --threads option, a value below one is a usage error too
        path = write_construction(tmp_path, [3, 2])
        assert main(["spectrum", path, "--threads", threads]) == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err
        assert captured.out == ""

    def test_non_utf8_file(self, tmp_path, capsys):
        path = write_garbage(tmp_path)
        assert main(["spectrum", path]) == 2
        assert_one_error_line(capsys, f"cannot read {path}")


class TestVerify:
    def test_verified_prints_witnesses_with_labels(self, tmp_path, capsys):
        path = write_construction(tmp_path, [3, 2])
        assert main(["verify", path, "--set", "3,2"]) == 0
        out = capsys.readouterr().out
        assert "yes" in out
        assert "(1,1,0)" in out
        assert out.count("classes:") == 2

    def test_refuted(self, tmp_path, capsys):
        path = write_construction(tmp_path, [3, 2])
        assert main(["verify", path, "--set", "4,2"]) == 1
        assert "no" in capsys.readouterr().out

    def test_refuted_deleted_variant(self, tmp_path, capsys):
        path = write_construction(tmp_path, [3, 2], variant="II")
        assert main(["verify", path, "--set", "3,2"]) == 1
        assert "two distinct strict 2-colorings" in capsys.readouterr().out

    def test_boolean_edge_vertex_is_a_usage_error(self, tmp_path, capsys):
        doc = json.loads(serialize(construct([3, 2])))
        doc["c_edges"][0] = [True, False, 2]
        path = tmp_path / "h.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path), "--set", "3,2"]) == 2
        assert "an edge must be a list of integers" in capsys.readouterr().err

    def test_non_utf8_file(self, tmp_path, capsys):
        # an unreadable file is an input error (2), not a refuted claim (1)
        path = write_garbage(tmp_path)
        assert main(["verify", path, "--set", "3,2"]) == 2
        assert_one_error_line(capsys, f"cannot read {path}")


class TestMinSearch:
    def test_certified_none(self, capsys):
        assert main(["min-search", "--set", "3,2", "--max-vertices", "4"]) == 0
        out = capsys.readouterr().out
        assert "certified-none" in out
        assert "v=3: examined 2" in out
        assert "v=4: examined 16" in out

    def test_full_six_vertex_scan(self, capsys):
        assert main(["min-search", "--set", "4,2", "--max-vertices", "6"]) == 0
        out = capsys.readouterr().out
        assert "v=6: examined 1048576 instances" in out
        assert "certified-none" in out

    @pytest.mark.parametrize("flag", [["--iso"], ["--threads", "2"]])
    def test_removed_flags_are_usage_errors(self, capsys, flag):
        assert main(["min-search", "--set", "3,2", "--max-vertices", "4", *flag]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_budget_abort_and_resume(self, capsys):
        assert main(["min-search", "--set", "3,2", "--max-vertices", "4",
                     "--budget", "10"]) == 3
        out = capsys.readouterr().out
        assert "aborted-budget" in out
        assert "--resume 4:8" in out
        assert main(["min-search", "--set", "3,2", "--max-vertices", "4",
                     "--resume", "4:8"]) == 0

    def test_env_budget_override(self, capsys, monkeypatch):
        monkeypatch.setenv("BIHYPER_BUDGET", "10")
        assert main(["min-search", "--set", "3,2", "--max-vertices", "4"]) == 3
        monkeypatch.setenv("BIHYPER_BUDGET", "not-a-number")
        assert main(["min-search", "--set", "3,2", "--max-vertices", "4"]) == 2

    def test_default_max_vertices(self, capsys):
        assert main(["min-search", "--set", "3,2"]) == 0
        out = capsys.readouterr().out
        assert "v=4: examined 16" in out and "v=5" not in out

    def test_bad_resume(self, capsys):
        assert main(["min-search", "--set", "3,2", "--resume", "nope"]) == 2

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one(self, capsys, monkeypatch, budget):
        assert main(["min-search", "--set", "3,2", "--max-vertices", "4",
                     "--budget", budget]) == 2
        monkeypatch.setenv("BIHYPER_BUDGET", budget)
        assert main(["min-search", "--set", "3,2", "--max-vertices", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: budget must be at least 1")
        assert "resume" not in captured.out

    def test_empty_vertex_range(self, capsys):
        assert main(["min-search", "--set", "3,2", "--max-vertices", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: max vertex count 2")
        assert "verdict" not in captured.out

    @pytest.mark.parametrize("cursor", ["9:0", "2:0", "4:1000000"])
    def test_resume_outside_range(self, capsys, cursor):
        assert main(["min-search", "--set", "3,2", "--max-vertices", "4",
                     "--resume", cursor]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: resume cursor")
        assert "verdict" not in captured.out


class TestIsocheck:
    def test_identity_map(self, tmp_path, capsys):
        p1 = write_construction(tmp_path, [3, 2], name="a.json")
        p2 = write_construction(tmp_path, [3, 2], name="b.json")
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps([[i, i] for i in range(6)]))
        assert main(["isocheck", p1, p2, "--map", str(mapping)]) == 0

    def test_non_isomorphism_map(self, tmp_path, capsys):
        p1 = write_construction(tmp_path, [3, 2], name="a.json")
        p2 = write_construction(tmp_path, [3, 2], name="b.json")
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps([[i, (i + 1) % 6] for i in range(6)]))
        assert main(["isocheck", p1, p2, "--map", str(mapping)]) == 1

    def test_vertex_mapped_twice(self, tmp_path, capsys):
        # dict() used to keep the last pair, accepting this map as the identity
        path = tmp_path / "h.json"
        path.write_text(serialize(build_hypergraph(2, [[0, 1]])))
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps([[0, 1], [0, 0], [1, 1]]))
        assert main(["isocheck", str(path), str(path), "--map", str(mapping)]) == 2
        captured = capsys.readouterr()
        assert "vertex 0 is mapped more than once" in captured.err
        assert captured.out == ""

    def test_bad_map_file(self, tmp_path, capsys):
        p1 = write_construction(tmp_path, [3, 2], name="a.json")
        mapping = tmp_path / "map.json"
        mapping.write_text('{"0": 0}')
        assert main(["isocheck", p1, p1, "--map", str(mapping)]) == 2

    @pytest.mark.parametrize("garbled", ["file1", "map"])
    def test_non_utf8_file(self, tmp_path, capsys, garbled):
        p1 = write_construction(tmp_path, [3, 2], name="a.json")
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps([[i, i] for i in range(6)]))
        garbage = write_garbage(tmp_path)
        args = [garbage, p1, "--map", str(mapping)] if garbled == "file1" \
            else [p1, p1, "--map", garbage]
        assert main(["isocheck", *args]) == 2
        assert_one_error_line(capsys, "cannot read")


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["formula", "--set", "4,2", "--wat"]) == 2

    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_readme_usage_matches_the_parser(self):
        # every "bihyper <command>" line of the README's command-line block names a
        # subcommand, and every --flag on it is one of that subcommand's options
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = re.search(r"## Command line\n+```\n(.*?)```", readme, re.S).group(1)
        subparsers = next(action.choices for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        lines = [line for line in block.splitlines() if line.startswith("bihyper ")]
        assert lines
        for line in lines:
            words = shlex.split(line.split("#")[0])
            assert words[1] in subparsers, line
            options = subparsers[words[1]]._option_string_actions
            flags = [w.strip("[]") for w in words[2:] if w.lstrip("[").startswith("--")]
            assert [f for f in flags if f not in options] == [], line
