from __future__ import annotations

import hashlib
import json
import random
import re
from itertools import chain, combinations

import pytest
from hypothesis import given, settings, strategies as st

from bihyper import model, serialization
from bihyper.construction import LabeledVertex, construct
from bihyper.model import build_bi_hypergraph, build_hypergraph
from bihyper.serialization import FORMAT_VERSION, parse, serialize

from conftest import random_mixed_hypergraph


class TestRoundTrip:
    def test_plain_hypergraphs(self):
        cases = [
            build_bi_hypergraph(3, [[0, 1, 2]]),
            build_hypergraph(5, [[0, 1], [2, 3, 4]], [[0, 4]]),
            build_hypergraph(0),
            build_hypergraph(4),
        ]
        for h in cases:
            text = serialize(h)
            assert parse(text) == h
            assert serialize(parse(text)) == text

    def test_labeled_constructions(self):
        for values, variant in (([4, 2], "I"), ([3, 2], "II"), ([5, 3, 2], "I"),
                                ([4, 3, 2], "auto"), ([4, 2], "II")):
            built = construct(values, variant)
            text = serialize(built)
            again = parse(text)
            assert again == built
            assert serialize(again) == text

    def test_random_instances(self, rng):
        for _ in range(50):
            h = random_mixed_hypergraph(rng, v_min=1, v_max=8)
            assert parse(serialize(h)) == h

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 6), st.data())
    def test_every_accepted_hypergraph_round_trips(self, v, data):
        # a vertex the builder accepts must be one the parser accepts back
        vertex = st.integers(-1, v) | st.sampled_from([False, True, 1.0, 2.5, "a", None, [0]])
        family = st.lists(st.lists(vertex, max_size=4), max_size=5)
        try:
            h = build_hypergraph(v, data.draw(family), data.draw(family))
        except ValueError:
            return
        assert parse(serialize(h)) == h

    def test_unproven_flag_round_trips(self):
        built = construct([4, 2], "II")
        assert built.unproven_regime
        assert parse(serialize(built)).unproven_regime

    def test_text_is_valid_json_with_fixed_keys(self):
        doc = json.loads(serialize(construct([4, 2])))
        assert list(doc) == ["format_version", "bi", "vertex_count", "s",
                             "labels", "c_edges", "d_edges", "metadata"]
        assert doc["format_version"] == FORMAT_VERSION


class TestDeterminism:
    def test_equal_values_equal_text(self):
        a = serialize(construct([5, 3, 2]))
        b = serialize(construct([5, 3, 2]))
        assert a == b

    def test_distinct_values_distinct_text(self, rng):
        seen = {}
        for _ in range(40):
            h = random_mixed_hypergraph(rng, v_min=1, v_max=6)
            text = serialize(h)
            if text in seen:
                assert seen[text] == h
            seen[text] = h
        assert len({serialize(h) for h in seen.values()}) == len(set(seen.values()))


    def test_construction_bytes_are_pinned(self):
        # sha256 of the documents for every S with n1 <= 8, every variant, with
        # and without the special edge, as written before the single-call encoder
        digest = hashlib.sha256()
        for size in range(2, 8):
            for values in combinations(range(8, 1, -1), size):
                for variant in ("auto", "I", "II"):
                    for drop in (False, True):
                        built = construct(values, variant, drop_special=drop)
                        digest.update(serialize(built).encode())
        assert digest.hexdigest() == \
            "dbccf75f06413d887362a34ff7c75c97f7211874be41482fc3ee6e58ed94af0f"

    def test_auto_construction_bytes_are_pinned_for_n1_nine_to_twelve(self):
        # sha256 of the default build's document for each of the 1,916 S with
        # 9 <= n1 <= 12, in the order n1, then class count, then combinations
        digest = hashlib.sha256()
        count = 0
        for n1 in range(9, 13):
            for k in range(1, n1 - 1):
                for rest in combinations(range(n1 - 1, 1, -1), k):
                    digest.update(serialize(construct((n1,) + rest)).encode())
                    count += 1
        assert count == 1916
        assert digest.hexdigest() == \
            "75f0bc2433a69490a00bad0ce80a3064e2cabf55e9f5a973d977d5b36b725abd"


class TestParseErrors:
    def test_malformed_syntax_names_position(self):
        with pytest.raises(ValueError, match="line"):
            parse("{ not json }")

    def test_index_out_of_range_names_edge(self):
        text = serialize(build_bi_hypergraph(3, [[0, 1, 2]]))
        broken = text.replace("[0,1,2]", "[0,1,9]")
        with pytest.raises(ValueError, match="9 out of range"):
            parse(broken)

    def test_bi_claim_mismatch(self):
        doc = json.loads(serialize(build_hypergraph(3, [[0, 1, 2]], [])))
        doc["bi"] = True
        with pytest.raises(ValueError, match="families differ"):
            parse(json.dumps(doc))

    @pytest.mark.parametrize("value", [build_bi_hypergraph(3, [[0, 1, 2]]), build_hypergraph(4),
                                       construct([4, 2])])
    def test_not_bi_claim_with_equal_families(self, value):
        # accepted before, and written back with "bi": true, so the bytes did not round-trip
        doc = json.loads(serialize(value))
        doc["bi"] = False
        with pytest.raises(ValueError, match="^bi: document claims not bi but C- and D-families "
                                             "are equal$"):
            parse(json.dumps(doc))

    def test_unproven_flag_missing(self):
        # variant II of {4,2} is refuted; without the flag it parsed as proven
        doc = json.loads(serialize(construct([4, 2], "II")))
        assert doc["metadata"].pop("unproven_regime") == "true"
        with pytest.raises(ValueError, match="^metadata: unproven_regime reads false, but "
                                             "variant II of 4,2 is unproven$"):
            parse(json.dumps(doc))

    @pytest.mark.parametrize("values, variant", [([5, 4, 2], "auto"), ([4, 2], "I")])
    def test_unproven_flag_on_a_proven_build(self, values, variant):
        doc = json.loads(serialize(construct(values, variant)))
        doc["metadata"]["unproven_regime"] = "true"
        with pytest.raises(ValueError, match="^metadata: unproven_regime reads true, but "
                                             "variant I+ of .* is proven$"):
            parse(json.dumps(doc))

    def test_duplicate_labels(self):
        text = serialize(construct([4, 2]))
        broken = text.replace("[1,1,1]", "[1,1,0]", 1)
        with pytest.raises(ValueError, match="duplicate"):
            parse(broken)

    def test_wrong_label_width(self):
        doc = json.loads(serialize(construct([4, 2])))
        doc["labels"][0] = [1, 1, 0, 0]
        with pytest.raises(ValueError, match=r"labels\[0\]"):
            parse(json.dumps(doc))

    def test_label_coordinate_beyond_target_bound(self):
        doc = json.loads(serialize(construct([4, 2])))
        doc["labels"][-1] = [9, 2, 1]
        with pytest.raises(ValueError, match="exceed the per-position bounds"):
            parse(json.dumps(doc))

    def test_boolean_vertex_in_edge(self):
        # JSON booleans load as bool, a subclass of int; they must not pass as vertices 1 and 0
        doc = json.loads(serialize(build_bi_hypergraph(3, [[0, 1, 2]])))
        doc["c_edges"] = doc["d_edges"] = [[True, False, 2]]
        message = r"edges: bi-edge \[True, False, 2\]: vertex True is not an integer"
        with pytest.raises(ValueError, match=message):
            parse(json.dumps(doc))

    def test_boolean_label_entry(self):
        doc = json.loads(serialize(construct([3, 2])))
        pos = doc["labels"].index([1, 1, 0])
        doc["labels"][pos] = [True, True, 0]
        with pytest.raises(ValueError, match=rf"labels\[{pos}\]: expected a list of 3 integers"):
            parse(json.dumps(doc))

    def test_unsupported_version(self):
        doc = json.loads(serialize(build_hypergraph(2)))
        doc["format_version"] = 99
        with pytest.raises(ValueError, match="version"):
            parse(json.dumps(doc))

    def test_missing_field(self):
        doc = json.loads(serialize(build_hypergraph(2)))
        del doc["vertex_count"]
        with pytest.raises(ValueError, match="vertex_count"):
            parse(json.dumps(doc))

    @pytest.mark.parametrize("labeled, key, value", [
        # each parsed before, and serialize dropped the key when writing back
        (False, "x", 1), (False, "s", 7), (True, "x", 1), (True, "format", 1)])
    def test_top_level_key_serialize_never_writes(self, labeled, key, value):
        doc = json.loads(serialize(construct([4, 2]) if labeled else build_hypergraph(2)))
        doc[key] = value
        kind = "labeled" if labeled else "plain"
        with pytest.raises(ValueError, match=f"^{key}: not a field of a {kind} document$"):
            parse(json.dumps(doc))

    def test_label_count_must_match_the_vertex_count(self):
        doc = json.loads(serialize(construct([3, 2])))
        del doc["labels"][-1]
        with pytest.raises(ValueError, match="^labels: 5 labels for 6 vertices$"):
            parse(json.dumps(doc))

    def test_s_must_match_the_feasible_set(self):
        doc = json.loads(serialize(construct([3, 2])))
        doc["s"] = 3
        doc["labels"] = [row[:-1] + [1] + row[-1:] for row in doc["labels"]]
        with pytest.raises(ValueError, match="^s: 3 does not match the 2 counts in metadata$"):
            parse(json.dumps(doc))

    def test_labeled_doc_needs_s(self):
        doc = json.loads(serialize(construct([4, 2])))
        del doc["s"]
        with pytest.raises(ValueError, match="^s: missing required field"):
            parse(json.dumps(doc))

    def test_labeled_doc_needs_metadata(self):
        doc = json.loads(serialize(construct([4, 2])))
        del doc["metadata"]["feasible_set"]
        with pytest.raises(ValueError, match="feasible_set"):
            parse(json.dumps(doc))

    @pytest.mark.parametrize("labeled", [False, True])
    def test_document_needs_metadata(self, labeled):
        # a plain document without the key parsed before, and serialize added it back
        doc = json.loads(serialize(construct([4, 2]) if labeled else build_hypergraph(2)))
        del doc["metadata"]
        with pytest.raises(ValueError, match="^metadata: missing required field$"):
            parse(json.dumps(doc))

    @pytest.mark.parametrize("variant, key, value, message", [
        # each parsed before, and serialize dropped or rewrote the value
        ("I", "unproven_regime", "false", 'unproven_regime is written only as "true", '
                                          "got 'false'"),
        ("I", "note", 1, "unknown key 'note'"),
        ("I", "feasible_set", "2, 4", "feasible_set '2, 4' is written '4,2'"),
        ("II", "unproven_regime", True, "unproven_regime must be a string, got bool"),
        ("I", "variant", 1, "variant must be a string, got int"),
        ("I", "feasible_set", "4,x", "cannot parse feasible set '4,x'"),
        ("I", "feasible_set", "4,,2", "cannot parse feasible set '4,,2'"),
        ("I", "feasible_set", "4,2,", "cannot parse feasible set '4,2,'"),
        ("I", "variant", "III", "unknown variant 'III'"),
    ])
    def test_metadata_that_would_not_round_trip(self, variant, key, value, message):
        doc = json.loads(serialize(construct([4, 2], variant)))
        doc["metadata"][key] = value
        with pytest.raises(ValueError, match="^metadata: " + re.escape(message)):
            parse(json.dumps(doc))

    @pytest.mark.parametrize("metadata", [{"note": 1}, {"feasible_set": "3,2", "variant": "I"}])
    def test_plain_document_has_no_metadata(self, metadata):
        doc = json.loads(serialize(build_bi_hypergraph(3, [[0, 1, 2]])))
        doc["metadata"] = metadata
        with pytest.raises(ValueError, match=r"^metadata: a document without labels has none"):
            parse(json.dumps(doc))


class TestNormalizationOnParse:
    def test_unsorted_labels_are_reordered(self):
        built = construct([4, 2])
        doc = json.loads(serialize(built))
        # swap two label rows and remap the edges to match, so the document
        # is equivalent but not normalized
        doc["labels"][0], doc["labels"][1] = doc["labels"][1], doc["labels"][0]
        swap = {0: 1, 1: 0}
        for key in ("c_edges", "d_edges"):
            doc[key] = [[swap.get(v, v) for v in e] for e in doc[key]]
        again = parse(json.dumps(doc))
        assert again == built
        assert serialize(again) == serialize(built)

    def test_unsorted_edges_normalize(self):
        doc = json.loads(serialize(build_bi_hypergraph(4, [[0, 1, 3], [0, 1, 2]])))
        doc["c_edges"] = [[3, 1, 0], [2, 1, 0]]
        doc["d_edges"] = [[0, 1, 3], [0, 2, 1]]
        h = parse(json.dumps(doc))
        assert h.c_edges == ((0, 1, 2), (0, 1, 3)) == h.d_edges

    def test_bi_rows_are_normalized_once(self):
        # equal C and D rows share one normalized family, also after a label reorder
        built = construct([4, 2])
        doc = json.loads(serialize(built))
        h = parse(json.dumps(doc)).hypergraph
        assert h == built.hypergraph and h.c_edges is h.d_edges
        doc["labels"][0], doc["labels"][1] = doc["labels"][1], doc["labels"][0]
        doc["c_edges"] = doc["d_edges"] = [[{0: 1, 1: 0}.get(v, v) for v in e]
                                           for e in doc["c_edges"]]
        h = parse(json.dumps(doc)).hypergraph
        assert h == built.hypergraph and h.c_edges is h.d_edges

    @pytest.mark.parametrize("c_rows, d_rows, message", [
        ([[0, 0, 1]], [[0, 0, 1]], r"edges: bi-edge \[0, 0, 1\]: repeated vertex"),
        ([[0, 1, 2]], [[0, 1, 5]], r"edges: D-edge \[0, 1, 5\]: vertex 5 out of range"),
        ([[0, 1, 7]], [[0, 1, 5]], r"edges: C-edge \[0, 1, 7\]: vertex 7 out of range"),
    ])
    def test_row_diagnostics_keep_their_order(self, c_rows, d_rows, message):
        doc = json.loads(serialize(build_bi_hypergraph(3, [[0, 1, 2]])))
        doc["c_edges"], doc["d_edges"] = c_rows, d_rows
        with pytest.raises(ValueError, match=message):
            parse(json.dumps(doc))


# JSON values near the document's own shapes, so mutations reach deep checks
_ATOMS = (st.integers(-2, 9) | st.sampled_from([None, True, False, 2.5, 1e400, "", "I", "II",
                                                "true", "4,2", "4.5,2", "3,x", "5,4,2"])
          | st.text(max_size=4))
_VALUES = st.recursive(_ATOMS, lambda inner: st.lists(inner, max_size=4)
                       | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                       max_leaves=10)
_DOCUMENTS = [serialize(build_bi_hypergraph(3, [[0, 1, 2]])), serialize(build_hypergraph(2)),
              serialize(construct([3, 2])), serialize(construct([4, 3, 2]))]


def _mutate(data, node) -> None:
    """Replace, delete, insert or descend into one entry of a dict or list."""
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    action = data.draw(st.sampled_from(["replace", "delete", "insert", "descend"]))
    if action == "insert" or not keys:
        if isinstance(node, dict):
            node[data.draw(st.sampled_from(["s", "labels", "metadata", "x"]))] = data.draw(_VALUES)
        else:
            node.insert(data.draw(st.integers(0, len(node))), data.draw(_VALUES))
        return
    key = data.draw(st.sampled_from(keys))
    if action == "descend" and isinstance(node[key], (dict, list)):
        _mutate(data, node[key])
    elif action == "delete":
        del node[key]
    else:
        node[key] = data.draw(_VALUES)


class TestParseFuzz:
    """Whatever text arrives, parse either returns a value or raises ValueError."""

    @staticmethod
    def _parse_or_refuse(text):
        try:
            value = parse(text)
        except ValueError:
            return
        assert parse(serialize(value)) == value

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=40) | _VALUES.map(json.dumps))
    def test_arbitrary_text(self, text):
        self._parse_or_refuse(text)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(_DOCUMENTS), st.integers(1, 4), st.data())
    def test_mutated_documents(self, text, rounds, data):
        doc = json.loads(text)
        for _ in range(rounds):
            _mutate(data, doc)
        self._parse_or_refuse(json.dumps(doc))

    @pytest.mark.parametrize("text", ["[" * 100_000, '{"a":' * 100_000, "9" * 5000],
                             ids=["deep-array", "deep-object", "long-integer"])
    def test_text_json_cannot_load(self, text):
        with pytest.raises(ValueError, match="malformed document"):
            parse(text)

    @pytest.mark.parametrize("s", [-1, 0, 1])
    def test_label_width_below_a_spec(self, s):
        doc = {"format_version": 1, "bi": True, "vertex_count": 1, "s": s,
               "labels": [[1] * (s + 1)], "c_edges": [], "d_edges": [],
               "metadata": {"feasible_set": "3,2", "variant": "I"}}
        with pytest.raises(ValueError, match="^s: "):
            parse(json.dumps(doc))


def _edge_list(doc: dict, key: str) -> list[list[int]]:
    """``serialization._edge_list`` before the edge rows went straight to the builders."""
    from bihyper.serialization import _integers, _take

    raw = _take(doc, key, (list,))
    if set(map(type, raw)) <= {list} and set(map(type, chain.from_iterable(raw))) <= {int}:
        return raw
    for pos, edge in enumerate(raw):
        if not isinstance(edge, list) or not _integers(edge):
            raise ValueError(f"{key}[{pos}]: an edge must be a list of integers")
    return raw


def _build(vertex_count: int, c_rows: list, d_rows: list) -> model.MixedHypergraph:
    """``serialization._build`` as it was beside ``_edge_list``."""
    if c_rows != d_rows:
        return build_hypergraph(vertex_count, c_rows, d_rows)
    family = model._normalize_family(c_rows, vertex_count, "C")
    return model._normalized_hypergraph(vertex_count, family, family)


def _reference_parse(text):
    """``parse`` as it was before the bulk label check: one LabeledVertex per label row."""
    from bihyper.construction import FeasibleSpec, LabeledHypergraph, LabeledVertex
    from bihyper.serialization import _integers, _take

    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"malformed document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("malformed document: top level must be an object")
    version = _take(doc, "format_version", (int,))
    if version != FORMAT_VERSION:
        raise ValueError(f"format_version: unsupported version {version}")
    bi = _take(doc, "bi", (bool,))
    vertex_count = _take(doc, "vertex_count", (int,))
    if vertex_count < 0:
        raise ValueError("vertex_count: must be nonnegative")
    try:
        h = _build(vertex_count, _edge_list(doc, "c_edges"), _edge_list(doc, "d_edges"))
    except ValueError as exc:
        raise ValueError(f"edges: {exc}") from exc
    if bi and not h.is_bi():
        raise ValueError("bi: document claims bi but C- and D-families differ")
    metadata = _take(doc, "metadata", (dict,), required=False) or {}
    raw_labels = _take(doc, "labels", (list,), required=False)
    if raw_labels is None:
        return h
    s = _take(doc, "s", (int,))
    if s < 2:
        raise ValueError(f"s: a labeled document needs at least 2 class counts, got {s}")
    if len(raw_labels) != vertex_count:
        raise ValueError(f"labels: {len(raw_labels)} labels for {vertex_count} vertices")
    labels = []
    for pos, entry in enumerate(raw_labels):
        if not isinstance(entry, list) or len(entry) != s + 1 or not _integers(entry):
            raise ValueError(f"labels[{pos}]: expected a list of {s + 1} integers")
        try:
            labels.append(LabeledVertex(tuple(entry[:-1]), entry[-1]))
        except ValueError as exc:
            raise ValueError(f"labels[{pos}]: {exc}") from exc
    if len(set(labels)) != len(labels):
        raise ValueError("labels: duplicate labels")
    try:
        spec = FeasibleSpec.from_string(str(metadata["feasible_set"]))
        variant = str(metadata["variant"])
    except KeyError as exc:
        raise ValueError(f"metadata: labeled documents need {exc.args[0]}") from exc
    if variant not in ("I", "II"):
        raise ValueError(f"metadata: unknown variant {variant!r}")
    if spec.s != s:
        raise ValueError(f"s: {s} does not match the {spec.s} counts in metadata")
    for pos, label in enumerate(labels):
        if any(x > bound for x, bound in zip(label.coords, spec.values)):
            raise ValueError(
                f"labels[{pos}]: coordinates {label.coords} exceed the per-position "
                f"bounds {spec.values}")
    rank = sorted(range(vertex_count), key=lambda i: labels[i].full)
    new_of_old = {old: new for new, old in enumerate(rank)}
    if rank != list(range(vertex_count)):
        c_rows = [[new_of_old[v] for v in e] for e in h.c_edges]
        h = _build(vertex_count, c_rows,
                   c_rows if h.is_bi() else [[new_of_old[v] for v in e] for e in h.d_edges])
        labels = [labels[old] for old in rank]
    return LabeledHypergraph(
        h, tuple(labels), spec, variant,
        unproven_regime=str(metadata.get("unproven_regime", "")).lower() == "true")


_LABELED = [serialize(construct(values, variant))
            for values, variant in (([3, 2], "I"), ([3, 2], "II"), ([4, 2], "I"),
                                    ([5, 3, 2], "I"), ([4, 3, 2], "II"), ([6, 5, 3], "II"),
                                    ([5, 4, 3, 2], "auto"))]
_ENTRIES = [True, False, 1.0, 2.5, "1", None, 0, -1, -4, 1, 2, 3, 99]


def _mutate_label_rows(data, doc) -> None:
    """One mutation of the label rows: a wrong width, a bad entry, flag or
    coordinate, a coordinate above its bound, a duplicate row, or a shuffle
    of the rows with the edges remapped to match."""
    rows = doc["labels"]
    kind = data.draw(st.sampled_from(["width", "entry", "flag", "coordinate", "bound",
                                      "duplicate", "shuffle"]))
    pos = data.draw(st.integers(0, len(rows) - 1))
    row = rows[pos]
    bounds = [int(x) for x in doc["metadata"]["feasible_set"].split(",")]
    # Earlier width mutations may have made the row shorter or longer than s + 1;
    # a mutation that needs a position the row (or the bounds) lacks leaves it alone.
    if kind == "width":
        rows[pos] = row[:-1] if data.draw(st.booleans()) else row + [1]
    elif kind == "entry" and row:
        row[data.draw(st.integers(0, len(row) - 1))] = data.draw(st.sampled_from(_ENTRIES))
    elif kind == "flag" and row:
        row[-1] = data.draw(st.sampled_from([2, -1]))
    elif kind == "coordinate" and len(row) >= 2:
        row[data.draw(st.integers(0, len(row) - 2))] = data.draw(st.sampled_from([0, -1, -7]))
    elif kind == "bound" and min(len(row) - 1, len(bounds)) >= 1:
        j = data.draw(st.integers(0, min(len(row) - 1, len(bounds)) - 1))
        row[j] = bounds[j] + data.draw(st.integers(1, 3))
    elif kind == "duplicate":
        rows[pos] = list(rows[data.draw(st.integers(0, len(rows) - 1))])
    elif kind == "shuffle":
        order = data.draw(st.permutations(range(len(rows))))  # new vertex i is old order[i]
        new_of_old = {old: new for new, old in enumerate(order)}
        doc["labels"] = [rows[old] for old in order]
        for key in ("c_edges", "d_edges"):
            doc[key] = [[new_of_old[v] for v in e] for e in doc[key]]


# Edge values near and far from valid vertices; 1.0 and True compare equal to 1
_EDGE_VALUES = [True, False, None, 1.0, 2.5, "1", "", {}, {"0": 1}, [0, 1], [], 10**30]


def _random_row(rng, n):
    row = [rng.randrange(-1, n + 2) for _ in range(rng.choice((0, 1, 2, 3, 3, 3, 4)))]
    if rng.random() < 0.15 and row:
        row[rng.randrange(len(row))] = rng.choice(_EDGE_VALUES)
    return row if rng.random() > 0.03 else rng.choice(_EDGE_VALUES)


def _random_edge_document(rng):
    """A plain document whose rows are often valid, equal in about 40 % of documents, and
    sometimes equal to the C rows only as Python compares them, by a 1.0 or True."""
    n = rng.randrange(0, 7)
    c_rows = [_random_row(rng, n) for _ in range(rng.randrange(0, 5))]
    roll = rng.random()
    if roll < 0.4:
        d_rows = json.loads(json.dumps(c_rows))
    elif roll < 0.5:
        d_rows = [[{0: False, 1: rng.choice((True, 1.0))}.get(v, v) if type(v) is int else v
                   for v in row] if isinstance(row, list) else row for row in c_rows]
    else:
        d_rows = [_random_row(rng, n) for _ in range(rng.randrange(0, 5))]
    doc = {"format_version": 1, "bi": c_rows == d_rows, "vertex_count": n,
           "c_edges": c_rows, "d_edges": d_rows, "metadata": {}}
    if rng.random() < 0.02:
        doc[rng.choice(("c_edges", "d_edges"))] = rng.choice(_EDGE_VALUES[:-3])
    return doc


class TestEdgeRowsToBuilders:
    """The builders accept exactly the edge rows the old type pass and private
    bi path accepted, with the same values; only the messages differ."""

    def test_outcomes_match_the_type_pass(self):
        rng = random.Random(3401)
        accepted = 0
        for _ in range(4000):
            doc = _random_edge_document(rng)
            try:
                expected = _build(doc["vertex_count"], _edge_list(doc, "c_edges"),
                                  _edge_list(doc, "d_edges"))
            except ValueError:
                expected = None
            if expected is not None:  # so that only the edge path can refuse the document
                doc["bi"] = expected.is_bi()
            try:
                h = parse(json.dumps(doc))
            except ValueError:
                assert expected is None, doc
                continue
            assert h == expected, doc
            accepted += 1
            if doc["c_edges"] == doc["d_edges"]:
                assert h.c_edges is h.d_edges
        assert accepted > 400


class TestBulkLabelCheck:
    """The bulk label check gives the per-label loop's value or its first message."""

    @staticmethod
    def _outcome(parser, text):
        try:
            return "value", parser(text)
        except ValueError as exc:
            return "error", str(exc)

    def test_unmutated_documents(self):
        for text in _LABELED:
            assert self._outcome(parse, text) == self._outcome(_reference_parse, text)
            assert serialize(parse(text)) == text

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(_LABELED), st.integers(1, 3), st.data())
    def test_mutated_label_rows(self, text, rounds, data):
        doc = json.loads(text)
        for _ in range(rounds):
            _mutate_label_rows(data, doc)
        mutated = json.dumps(doc)
        assert self._outcome(parse, mutated) == self._outcome(_reference_parse, mutated)


class TestWorkDoneOnce:
    """Guards against checking or encoding again what the program has just built."""

    @staticmethod
    def _counter(monkeypatch, owners, name):
        calls = []
        for owner in owners:
            original = getattr(owner, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        return calls

    def _normalize_calls(self, monkeypatch):
        return self._counter(monkeypatch, (model,), "_normalize_family")

    def test_construct_does_not_normalize_its_family(self, monkeypatch):
        calls = self._normalize_calls(monkeypatch)
        for values in ([4, 2], [5, 4, 3, 2], [12, 7, 3]):
            construct(values)
        assert calls == []

    def test_parse_normalizes_a_bi_family_once(self, monkeypatch):
        texts = [serialize(construct([6, 5, 3])), serialize(build_bi_hypergraph(4, [[0, 1, 2]]))]
        calls = self._normalize_calls(monkeypatch)
        for text in texts:
            calls.clear()
            parse(text)
            assert len(calls) == 1

    def test_serialize_encodes_a_bi_family_once(self, monkeypatch):
        calls = self._counter(monkeypatch, (serialization,), "_inline")
        serialize(build_bi_hypergraph(4, [[0, 1, 2], [1, 2, 3]]))
        assert len(calls) == 1
        calls.clear()
        serialize(construct([5, 3, 2]))  # the labels, then the one family
        assert len(calls) == 2

    def test_label_checks_do_not_grow_with_the_build(self, monkeypatch):
        # only the special-edge and deleted-vertex helpers build labels through the
        # checking constructor; the 8 and 48 generated labels are wrapped as they are
        calls = self._counter(monkeypatch, (LabeledVertex,), "__init__")
        construct([4, 2])
        small = len(calls)
        calls.clear()
        construct([24, 2])
        assert len(calls) == small
