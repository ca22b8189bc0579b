from __future__ import annotations

import argparse
import json
import re
import shlex
import sys
from math import comb
from pathlib import Path
from time import perf_counter

import pytest

from bihyper import cli
from bihyper.cli import build_parser, main
from bihyper.colorings import OneRealizationCertificate
from bihyper.construction import FeasibleSpec, construct
from bihyper.minimality import VERDICT_WITNESS, SearchReport
from bihyper.model import Partition, build_bi_hypergraph, build_hypergraph
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

    @pytest.mark.parametrize("text", ["3,,2", "4,2,", "1_0,2", "\uff14,2"])
    def test_malformed_entry(self, capsys, text):
        assert main(["formula", "--set", text]) == 2
        assert_one_error_line(capsys, f"cannot parse feasible set {text!r}")


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
                        "feasible": [2, 4], "strict_colorings": 2, "nodes_explored": 52}

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
        assert "vertex True is not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("bi", False, "claims not bi but C- and D-families are equal"),
        ("metadata", {"feasible_set": "4,2", "variant": "II"}, "unproven_regime reads false"),
    ])
    def test_document_field_disagreeing_with_its_content(self, tmp_path, capsys, field, value,
                                                         message):
        doc = json.loads(serialize(construct([4, 2], "II")))
        doc[field] = value
        path = tmp_path / "h.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path), "--set", "4,2"]) == 2
        assert_one_error_line(capsys, message)

    @pytest.mark.parametrize("key, value, message", [
        ("unproven_regime", "false", 'unproven_regime is written only as "true"'),
        ("note", 1, "unknown key 'note'"),
        ("feasible_set", "2, 4", "feasible_set '2, 4' is written '4,2'"),
    ])
    def test_metadata_that_would_not_round_trip_is_a_usage_error(self, tmp_path, capsys, key,
                                                                  value, message):
        doc = json.loads(serialize(construct([4, 2])))
        doc["metadata"][key] = value
        path = tmp_path / "h.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path), "--set", "4,2"]) == 2
        assert_one_error_line(capsys, message)

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

    def test_profile_rules_settle_four_two(self, capsys):
        # v=7 holds 2**35 masks; the profile rules settle it without a scan
        start = perf_counter()
        assert main(["min-search", "--set", "4,2"]) == 0
        assert perf_counter() - start < 1.0
        out = capsys.readouterr().out
        assert "v=3: examined 2 instances (class-count)\n" in out
        assert "v=6: examined 1048576 instances\n" in out
        assert "v=7: examined 34359738368 instances (profile-rules)\n" in out
        assert "verdict: certified-none" in out

    def test_counts_past_the_decimal_digit_limit(self, capsys):
        # 2**C(46,3) has 4,570 decimal digits: more than str() converts by default
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert main(["min-search", "--set", "64,2"]) == 0
            sixty_four = capsys.readouterr().out
            assert main(["min-search", "--set", "24,2", "--resume", "46:5"]) == 0
            resumed = capsys.readouterr().out
        finally:
            sys.set_int_max_str_digits(limit)
        assert "v=6: examined 1048576 instances (class-count)\n" in sixty_four
        assert f"v=45: examined {1 << comb(45, 3)} instances (class-count)\n" in sixty_four
        assert "v=46: examined 2**15180 instances (class-count)\n" in sixty_four
        assert "v=127: examined 2**333375 instances (profile-rules)\n" in sixty_four
        assert sixty_four.endswith("verdict: certified-none (bound for {64,2} is 128)\n")
        assert "v=46: examined 2**15180 - 5 instances (profile-rules)\n" in resumed
        assert resumed.endswith("v=47: examined 2**16215 instances (profile-rules)\n"
                                "verdict: certified-none (bound for {24,2} is 48)\n")

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

    def test_budget_comes_only_from_the_flag(self, capsys, monkeypatch):
        # BIHYPER_BUDGET is not read: only --budget sets the budget
        monkeypatch.setenv("BIHYPER_BUDGET", "10")
        assert main(["min-search", "--set", "3,2", "--max-vertices", "4"]) == 0
        assert "certified-none" in capsys.readouterr().out
        assert main(["min-search", "--set", "3,2", "--max-vertices", "4",
                     "--budget", "10"]) == 3
        assert "resume with --resume 4:8\n" in capsys.readouterr().out

    def test_default_max_vertices(self, capsys):
        assert main(["min-search", "--set", "3,2"]) == 0
        out = capsys.readouterr().out
        assert "v=4: examined 16" in out and "v=5" not in out

    def test_bad_resume(self, capsys):
        assert main(["min-search", "--set", "3,2", "--resume", "nope"]) == 2

    @pytest.mark.parametrize("cursor", ["4:1_0", "4:\uff18", "4:", ":8", "4:8:0", "4:-8", "+4:8"])
    def test_resume_takes_only_ascii_decimal_parts(self, capsys, cursor):
        # int() read "4:1_0" as mask 10 and "4:\uff18" as mask 8
        assert main(["min-search", "--set", "3,2", "--max-vertices", "4",
                     "--resume", cursor]) == 2
        assert_one_error_line(capsys, f"--resume expects V:MASK, got {cursor!r}")

    def test_resume_parts_may_carry_spaces(self, capsys):
        assert main(["min-search", "--set", "3,2", "--max-vertices", "4",
                     "--resume", " 4 : 8 "]) == 0
        assert "v=4: examined 8 instances\n" in capsys.readouterr().out

    def test_witness_at_the_bound(self, capsys):
        # {3,2} is the one set whose optimum, 6, lies above the formula's 5
        assert main(["min-search", "--set", "3,2", "--max-vertices", "6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-4:] == [
            "verdict: witness-found (bound for {3,2} is 5)",
            "witness on 6 vertices (at/above the bound): edges [(0, 1, 2), (0, 1, 3), "
            "(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 4), (1, 2, 3), (1, 2, 4), "
            "(1, 3, 4)]",
            "    2 classes: 0 1 | 2 3 4 5",
            "    3 classes: 0 1 | 2 3 4 | 5"]

    def test_witness_below_the_bound_refutes(self, capsys, monkeypatch):
        h = build_bi_hypergraph(4, [[0, 1, 2]])
        witnesses = (Partition((0, 0, 1, 1)), Partition((0, 0, 1, 2)))
        cert = OneRealizationCertificate(True, (2, 3), witnesses=witnesses)
        report = SearchReport(FeasibleSpec((3, 2)), (3, 4), {3: 2, 4: 16}, [(h, cert)],
                              VERDICT_WITNESS, 18)
        monkeypatch.setattr(cli, "certify_lower_bound", lambda *args, **kwargs: report)
        assert main(["min-search", "--set", "3,2"]) == 1
        assert capsys.readouterr().out.splitlines()[-3:] == [
            "witness on 4 vertices (below the bound!): edges [(0, 1, 2)]",
            "    2 classes: 0 1 | 2 3",
            "    3 classes: 0 1 | 2 | 3"]

    def test_max_witnesses_below_one(self, capsys):
        assert main(["min-search", "--set", "3,2", "--max-vertices", "4",
                     "--max-witnesses", "0"]) == 2
        assert_one_error_line(capsys, "max_witnesses must be at least 1")

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one(self, capsys, budget):
        assert main(["min-search", "--set", "3,2", "--max-vertices", "4",
                     "--budget", budget]) == 2
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

    def test_map_of_the_wrong_length(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        path.write_text(serialize(build_hypergraph(3, [[0, 1]])))
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps([[0, 1], [1, 0]]))
        assert main(["isocheck", str(path), str(path), "--map", str(mapping)]) == 2
        assert_one_error_line(capsys, "bijection spans 2 vertices; hypergraphs have 3")

    def test_bad_map_file(self, tmp_path, capsys):
        p1 = write_construction(tmp_path, [3, 2], name="a.json")
        mapping = tmp_path / "map.json"
        mapping.write_text('{"0": 0}')
        assert main(["isocheck", p1, p1, "--map", str(mapping)]) == 2

    @pytest.mark.parametrize("pair", [[1, 1.7], ["1", True], [1, True], [1.0, 1]])
    def test_non_integer_map_entry(self, tmp_path, capsys, pair):
        # int() used to read each of these as [1, 1] and report "isomorphic"
        path = tmp_path / "h.json"
        path.write_text(serialize(build_hypergraph(2, [[0, 1]])))
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps([[0, 0], pair]))
        assert main(["isocheck", str(path), str(path), "--map", str(mapping)]) == 2
        assert_one_error_line(capsys, "is not an integer")

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
        # subcommand, and every --flag on it is one of that subcommand's options;
        # the other way round, every subcommand has a line and every option is listed
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = re.search(r"## Command line\n+```\n(.*?)```", readme, re.S).group(1)
        subparsers = next(action.choices for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        lines = [line for line in block.splitlines() if line.startswith("bihyper ")]
        assert lines
        listed = {}
        for line in lines:
            words = shlex.split(line.split("#")[0])
            assert words[1] in subparsers, line
            options = subparsers[words[1]]._option_string_actions
            flags = [w.strip("[]") for w in words[2:] if w.lstrip("[").startswith("--")]
            assert [f for f in flags if f not in options] == [], line
            listed.setdefault(words[1], set()).update(flags)
        assert sorted(listed) == sorted(subparsers)
        for name, command in subparsers.items():
            options = {o for o in command._option_string_actions if o.startswith("--")}
            assert sorted(options - {"--help"} - listed[name]) == [], name
