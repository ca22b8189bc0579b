from __future__ import annotations

import os
import re
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from bihyper.colorings import (chromatic_spectrum, enumerate_strict_colorings,
                               is_one_realization)
from bihyper.construction import (FeasibleSpec, LabeledHypergraph, LabeledVertex,
                                  _coordinate_rule_edges, canonical_coloring,
                                  canonical_colorings, construct, deleted_label, min_size,
                                  reduction_bijection, special_edge_labels)
from bihyper.minimality import _partition_table, certify_lower_bound
from bihyper.model import (build_bi_hypergraph, check_isomorphism_under_map,
                           induced_subhypergraph, is_proper)
from bihyper.serialization import parse, serialize

from conftest import all_partitions


def all_specs(n1_max: int, sizes=(2, 3, 4)) -> list[FeasibleSpec]:
    out = []
    for size in sizes:
        for values in combinations(range(n1_max, 1, -1), size):
            out.append(FeasibleSpec(values))
    return out


def two_values_per_position(fulls) -> list[tuple[int, int, int]]:
    """Every triple of rows showing exactly two values in each column, in combinations
    order, by direct scan."""
    return [(a, b, c) for a, b, c in combinations(range(len(fulls)), 3)
            if all(len({x, y, z}) == 2 for x, y, z in zip(fulls[a], fulls[b], fulls[c]))]


def coordinate_rule_oracle(labels) -> set[tuple[int, int, int]]:
    """Every triple of labels with exactly two distinct values per position."""
    return set(two_values_per_position([label.full for label in labels]))


class TestFeasibleSpec:
    def test_coercion_sorts(self):
        assert FeasibleSpec.of({2, 4}).values == (4, 2)
        assert FeasibleSpec.of([2, 3, 5]).values == (5, 3, 2)
        assert FeasibleSpec.from_string("5,3,2").values == (5, 3, 2)

    @pytest.mark.parametrize("text", ["2,3,5", " 2, 5 ,3 ", "3,\t5,2"])
    def test_from_string_takes_any_order_and_spaces(self, text):
        assert FeasibleSpec.from_string(text).values == (5, 3, 2)

    @pytest.mark.parametrize("text", [
        "3,,2", "5,3,2,", ",3,2", "", " ",  # empty entries
        "1_0,2", "3,1_0",  # digit separators, which int() reads
        "\uff14,2", "3,\u0662",  # non-ASCII digits, which int() reads
        "-3,2", "+4,2", "4,2.0"])
    def test_from_string_takes_only_ascii_decimal_entries(self, text):
        message = re.escape(f"cannot parse feasible set {text!r}")
        with pytest.raises(ValueError, match="^" + message):
            FeasibleSpec.from_string(text)

    def test_needs_two_counts(self):
        with pytest.raises(ValueError, match="two class counts"):
            FeasibleSpec((3,))

    def test_strictly_decreasing(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            FeasibleSpec((3, 3))
        with pytest.raises(ValueError, match="strictly decreasing"):
            FeasibleSpec.of([4, 4, 2])

    def test_one_coloring_targets_rejected(self):
        with pytest.raises(ValueError, match="strict 1-coloring"):
            FeasibleSpec((3, 1))

    @pytest.mark.parametrize("call", [
        lambda: min_size([4.5, 2]),
        lambda: certify_lower_bound([4.0, 2], 4),
        lambda: construct([4.0, 2]),
        lambda: FeasibleSpec([3, True]),
        lambda: min_size([4, "2"]),
        lambda: construct([None, 2]),
        lambda: certify_lower_bound([4, "x"]),
    ], ids=["min_size-float", "certify-float", "construct-float", "spec-bool",
            "min_size-str", "construct-none", "certify-str"])
    def test_non_integer_counts_rejected(self, call):
        with pytest.raises(ValueError, match="class counts must be integers"):
            call()

    def test_tail(self):
        assert FeasibleSpec((5, 3, 2)).tail() == FeasibleSpec((3, 2))
        with pytest.raises(ValueError):
            FeasibleSpec((4, 2)).tail()


class TestMinSize:
    def test_known_values(self):
        assert min_size([4, 2]) == 8
        assert min_size([3, 2]) == 5
        assert min_size([5, 4, 2]) == 9

    def test_case_split(self):
        for spec in all_specs(8):
            expected = 2 * spec.n1 - (1 if spec.n2 == spec.n1 - 1 else 0)
            assert min_size(spec) == expected

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            min_size([3])
        with pytest.raises(ValueError):
            min_size([4, 1])


class TestConstructI:
    def test_labels_for_four_two(self):
        built = construct([4, 2], "I")
        expected = {(1, 1, 0), (1, 1, 1), (2, 2, 0), (2, 2, 1),
                    (2, 1, 0), (3, 1, 0), (3, 2, 1), (4, 2, 1)}
        assert {l.full for l in built.labels} == expected
        assert built.vertex_count == 8
        # labels sorted by full tuple, flag last
        fulls = [l.full for l in built.labels]
        assert fulls == sorted(fulls)

    def test_special_edge(self):
        assert tuple(l.full for l in special_edge_labels([4, 2])) == \
            ((1, 1, 0), (2, 1, 0), (2, 2, 0))
        built = construct([4, 2], "I")
        index = built.label_index()
        special = tuple(sorted(index[l] for l in special_edge_labels([4, 2])))
        assert special in built.hypergraph.c_edges

    def test_drop_special(self):
        full = construct([4, 2], "I")
        dropped = construct([4, 2], "I", drop_special=True)
        assert len(dropped.hypergraph.c_edges) == len(full.hypergraph.c_edges) - 1
        assert set(dropped.hypergraph.c_edges) < set(full.hypergraph.c_edges)

    def test_size_law(self):
        for spec in all_specs(8):
            assert construct(spec, "I").vertex_count == 2 * spec.n1
            assert construct(spec, "II").vertex_count == 2 * spec.n1 - 1

    def test_coordinate_rule_soundness(self):
        for spec in (FeasibleSpec((4, 2)), FeasibleSpec((5, 3, 2)), FeasibleSpec((5, 4, 3, 2))):
            built = construct(spec, "I")
            index = built.label_index()
            special = tuple(sorted(index[l] for l in special_edge_labels(spec)))
            width = spec.s + 1
            for e in built.hypergraph.c_edges:
                fulls = [built.labels[v].full for v in e]
                distinct = [len({f[j] for f in fulls}) for j in range(width)]
                if e == special:
                    assert distinct[-1] == 1
                    assert all(d == 2 for d in distinct[:-1])
                else:
                    assert all(d == 2 for d in distinct)

    def test_coordinate_rule_completeness(self):
        # every triple the rule admits is an edge, and nothing else but the special edge is
        for spec in all_specs(9, sizes=range(2, 9)):
            built = construct(spec, "I")
            expected = coordinate_rule_oracle(built.labels)
            index = built.label_index()
            special = tuple(sorted(index[l] for l in special_edge_labels(spec)))
            assert set(built.hypergraph.c_edges) == expected | {special}
            assert set(construct(spec, "I", drop_special=True).hypergraph.c_edges) == expected

    @pytest.mark.parametrize("values", [
        (16, 2), (24, 7), (32, 31),  # two counts
        (16, 15, 4), (32, 31, 9, 2), (24, 23, 22, 2),  # n2 == n1 - 1, three or more
        (16, 9, 5, 3), (24, 12, 6, 4, 2), (32, 17, 5),
    ], ids=str)
    @pytest.mark.parametrize("variant, drop", [("I", False), ("II", False), ("auto", True)])
    def test_coordinate_rule_completeness_beyond_the_digests(self, values, variant, drop):
        # the byte digests stop at n1 = 12; past them the edges must still be exactly
        # the brute-force triples, plus the special edge whenever its labels survive
        built = construct(values, variant, drop_special=drop)
        index = built.label_index()
        expected = coordinate_rule_oracle(built.labels)
        special = [index.get(l) for l in special_edge_labels(built.spec)]
        if not drop and None not in special:
            expected.add(tuple(sorted(special)))
        assert set(built.hypergraph.c_edges) == expected

    def test_is_bi_and_3_uniform(self):
        h = construct([5, 3, 2]).hypergraph
        assert h.is_bi() and set(map(len, h.c_edges)) == {3}


class TestVariants:
    def test_auto_prefers_verified_variant(self):
        assert construct([4, 2]).variant == "I"
        assert construct([3, 2]).variant == "I"          # two counts: deletion unsound
        assert construct([4, 3, 2]).variant == "II"
        assert construct([6, 5, 3]).variant == "II"
        assert construct([5, 3, 2]).variant == "I"

    def test_variant_ii_deletes_designated_vertex(self):
        built = construct([3, 2], "II")
        assert built.vertex_count == 5
        assert deleted_label([3, 2]).full == (2, 1, 0)
        assert deleted_label([3, 2]) not in built.labels
        assert {l.full for l in built.labels} == \
            {(1, 1, 0), (1, 1, 1), (2, 2, 0), (2, 2, 1), (3, 2, 1)}

    def test_unproven_regime_flags(self):
        assert construct([4, 2], "II").unproven_regime      # n2 != n1-1
        assert construct([3, 2], "II").unproven_regime      # two counts only
        assert not construct([4, 3, 2], "II").unproven_regime
        assert not construct([4, 2], "I").unproven_regime

    def test_two_count_deleted_variant_gains_extra_colorings(self):
        # frozen from an independent sweep of all 1024 bi-hypergraphs on 5
        # vertices: no one-realization of {3,2} exists there at all, and the
        # deleted-vertex build has five strict 2-colorings
        assert chromatic_spectrum(construct([3, 2], "II").hypergraph).counts == (0, 5, 1)
        assert chromatic_spectrum(construct([4, 3], "II").hypergraph).counts == (0, 8, 1, 1)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            construct([4, 2], "III")

    @staticmethod
    def _variant_ii_by_deletion(spec, drop_special):
        # variant I with its designated vertex, (n2, 1, ..., 1; 0), deleted afterwards
        full = construct(spec, "I", drop_special=drop_special)
        gone = LabeledVertex((spec.n2,) + (1,) * (spec.s - 1), 0)
        keep = [i for i, label in enumerate(full.labels) if label != gone]
        assert len(keep) == full.vertex_count - 1
        h, _ = induced_subhypergraph(full.hypergraph, keep)
        sound = spec.n2 == spec.n1 - 1 and spec.s >= 3
        return LabeledHypergraph(h, tuple(full.labels[i] for i in keep), spec, "II",
                                 unproven_regime=not sound)

    def test_direct_variant_ii_equals_deletion_from_variant_i(self):
        for spec in all_specs(9, sizes=range(2, 9)):
            for drop_special in (False, True):
                expected = self._variant_ii_by_deletion(spec, drop_special)
                assert construct(spec, "II", drop_special=drop_special) == expected
                auto = construct(spec, drop_special=drop_special)
                if auto.variant == "II":
                    assert auto == expected
                else:
                    assert auto == construct(spec, "I", drop_special=drop_special)

    def test_forced_variant_ii_on_two_counts_drops_the_special_edge(self):
        # for s = 2 the deleted vertex (n2, 1; 0) is on the special edge
        for spec in all_specs(9, sizes=(2,)):
            assert deleted_label(spec) in special_edge_labels(spec)
            built = construct(spec, "II")
            assert built == construct(spec, "II", drop_special=True)
            assert built == self._variant_ii_by_deletion(spec, True)


class TestCanonicalColorings:
    def test_four_two_first_coordinate(self):
        built = construct([4, 2], "I")
        p = canonical_coloring(built, 1)
        by_label = {frozenset(built.labels[v].full for v in cl) for cl in p.classes()}
        assert by_label == {
            frozenset({(1, 1, 0), (1, 1, 1)}),
            frozenset({(2, 2, 0), (2, 2, 1), (2, 1, 0)}),
            frozenset({(3, 1, 0), (3, 2, 1)}),
            frozenset({(4, 2, 1)}),
        }
        assert p.class_count == 4

    def test_four_two_second_coordinate(self):
        built = construct([4, 2], "I")
        assert canonical_coloring(built, 2).class_count == 2

    def test_deleted_variant_coloring(self):
        built = construct([3, 2], "II")
        assert built.vertex_count == 5
        assert canonical_coloring(built, 1).class_count == 3

    def test_always_proper(self):
        for values in ([4, 2], [5, 4], [5, 3, 2], [5, 4, 3, 2]):
            built = construct(values)
            for i in range(1, built.spec.s + 1):
                p = canonical_coloring(built, i)
                assert is_proper(built.hypergraph, p)
                assert p.class_count == built.spec.values[i - 1]

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            canonical_coloring(construct([4, 2]), 3)

    @pytest.mark.parametrize("index", [True, 1.0, "1"])
    def test_non_int_index_is_refused(self, index):
        # True read as coordinate 1; 1.0 and "1" raised TypeError
        with pytest.raises(ValueError, match="coordinate index .* is not an integer"):
            canonical_coloring(construct([4, 2]), index)

    def test_invariant_checks_survive_optimized_mode(self):
        # under python -O an assert is gone; the invariant checks must still raise
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys\n"
                "from bihyper import construction\n"
                "construction.is_proper = lambda h, p: False\n"
                "try:\n"
                "    construction.canonical_coloring(construction.construct([4, 2]), 1)\n"
                "except RuntimeError as exc:\n"
                "    print(sys.flags.optimize, exc)\n")
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "1 canonical coloring is improper"

    def test_unused_coordinate_value_is_an_empty_canonical_class(self):
        # relabel the one vertex with first coordinate 4 to 3: class 4 of
        # coordinate 1 is then empty, which the invariant check must name
        built = construct([4, 2])
        labels = tuple(LabeledVertex(tuple(3 if c == 4 else c for c in v.coords), v.flag)
                       for v in built.labels)
        assert 4 in {v.coords[0] for v in built.labels}
        broken = LabeledHypergraph(built.hypergraph, labels, built.spec, built.variant)
        with pytest.raises(RuntimeError, match="a canonical class is unexpectedly empty"):
            canonical_coloring(broken, 1)


class TestOneRealizationDeskScale:
    def test_small_specs_realize_exactly_their_counts(self):
        for spec in all_specs(5, sizes=(2, 3, 4)):
            built = construct(spec)
            rep = enumerate_strict_colorings(built.hypergraph)
            assert rep.feasible == tuple(sorted(spec.values))
            assert all(c <= 1 for c in rep.spectrum.counts)
            assert set(rep.colorings) == set(canonical_colorings(built))

    def test_sweep_up_to_n1_10_is_one_realization(self):
        for spec in all_specs(10, sizes=range(2, 10)):
            built = construct(spec)
            cert = is_one_realization(built.hypergraph, spec.values)
            assert cert.ok, (spec.values, cert.failure)
            assert list(cert.witnesses) == sorted(canonical_colorings(built),
                                                  key=lambda p: p.class_count)

    def test_min_size_matches_auto_except_refuted_regime(self):
        for spec in all_specs(10, sizes=range(2, 10)):
            built = construct(spec)
            if spec.s == 2 and spec.n2 == spec.n1 - 1:
                # the construction uses one vertex more than the formula here.  Only
                # for {3,2} is the formula's value exhaustively unattainable; for
                # n >= 4, A(p_n) over the R3 profile (3, 2, ..., 2, 1, 1) attains it
                assert built.vertex_count == min_size(spec) + 1
            else:
                assert built.vertex_count == min_size(spec)


class TestReduction:
    @staticmethod
    def _tail_blocks(spec):
        # the subset by blocks: the tail's extra vertex with its first
        # coordinate repeated, then coordinate blocks 2..s of the parent
        n, s = spec.values, spec.s
        wanted = {(n[1],) + n[1:] + (1,)}
        for t in range(2, s):
            for x in range(n[t], n[t - 1]):
                wanted.add((x,) * t + (1,) * (s - t) + (0,))
                wanted.add((x,) * t + n[t:] + (1,))
        wanted.update((j,) * s + (b,) for j in range(1, n[-1] + 1) for b in (0, 1))
        return wanted

    def test_subset_is_first_two_coordinates_equal(self):
        specs = all_specs(10, sizes=range(3, 10))
        assert len(specs) == 466
        for spec in specs:
            r = reduction_bijection(spec)
            first_two_equal = {v for v, l in enumerate(r.parent.labels)
                               if l.coords[0] == l.coords[1]}
            assert set(r.subset) == first_two_equal
            assert {r.parent.labels[v].full for v in r.subset} == self._tail_blocks(spec)
            assert len(r.subset) == 2 * spec.n2  # twice the second-largest count
            assert check_isomorphism_under_map(r.restricted, r.target.hypergraph, r.bijection)

    def test_coordinate_drop_is_isomorphism(self):
        for values in ([5, 3, 2], [4, 3, 2], [5, 4, 3, 2], [6, 4, 2]):
            r = reduction_bijection(values)
            assert check_isomorphism_under_map(r.restricted, r.target.hypergraph, r.bijection)

    def test_image_is_tail_construction(self):
        r = reduction_bijection([5, 3, 2])
        assert r.target.spec == FeasibleSpec((3, 2))
        mapped = {r.target.labels[r.bijection(i)].full for i in range(len(r.subset))}
        assert mapped == {l.full for l in r.target.labels}

    def test_two_counts_rejected(self):
        with pytest.raises(ValueError, match="three"):
            reduction_bijection([4, 2])


class TestLabeledVertex:
    def test_validation(self):
        with pytest.raises(ValueError):
            LabeledVertex((1, 2), 2)
        with pytest.raises(ValueError):
            LabeledVertex((0, 1), 0)
        with pytest.raises(ValueError, match="flag must be 0 or 1"):
            LabeledVertex((1, 2), True)
        with pytest.raises(ValueError, match="coordinates must be integers"):
            LabeledVertex((1.0, 2), 0)
        with pytest.raises(ValueError, match="coordinates must be integers"):
            LabeledVertex((True, 2), 0)
        with pytest.raises(ValueError, match="coordinates must be integers"):
            LabeledVertex(("2", 1), 0)
        assert str(LabeledVertex((2, 1), 0)) == "(2,1,0)"

    @staticmethod
    def _reference_error(coords, flag):
        # the constructor's checks before they became C-level passes
        coords = tuple(coords)
        if type(flag) is not int or flag not in (0, 1):
            return f"flag must be 0 or 1, got {flag}"
        if any(type(x) is not int for x in coords):
            return f"coordinates must be integers, got {coords}"
        if any(x < 1 for x in coords):
            return f"coordinates must be >= 1, got {coords}"
        return None

    @pytest.mark.parametrize("coords, flag", [
        ((1.0, 2), 0), ((True, 2), 0), ((2, False), 1), (("2", 1), 0), ((None,), 0),
        ((0, 1), 0), ((1, -3), 1), ((0, 1.5), 0), ((0, 1), 2), ((1, 2), -1),
        ((1, 2), True), ((1, 2), 1.0), ((1, "x"), 5), ((), 0), ((1, 2), 1), ((4, 4, 4), 0),
    ])
    def test_messages_match_the_per_coordinate_checks(self, coords, flag):
        expected = self._reference_error(coords, flag)
        for given in (coords, list(coords), iter(coords)):
            if expected is None:
                assert LabeledVertex(given, flag).full == tuple(coords) + (flag,)
            else:
                with pytest.raises(ValueError) as caught:
                    LabeledVertex(given, flag)
                assert str(caught.value) == expected

    def test_drop_first(self):
        assert LabeledVertex((3, 3, 2), 1).drop_first() == LabeledVertex((3, 2), 1)


class TestTrustedPaths:
    """``construct`` and ``parse`` wrap the edges and labels they built or checked
    without checking them again; the values must equal what the checking
    constructors make of them."""

    @staticmethod
    def _assert_as_if_checked(built):
        h = built.hypergraph
        assert h == build_bi_hypergraph(h.vertex_count, h.c_edges)
        assert built.labels == tuple(LabeledVertex(l.coords, l.flag) for l in built.labels)

    def test_auto_builds_up_to_n1_12(self):
        specs = all_specs(12, sizes=range(2, 12))
        assert len(specs) == 2036
        for spec in specs:
            built = construct(spec)
            self._assert_as_if_checked(built)
            self._assert_as_if_checked(parse(serialize(built)))

    def test_forced_variants_up_to_n1_8(self):
        for spec in all_specs(8, sizes=range(2, 8)):
            for variant, drop in (("I", False), ("II", False), ("auto", True)):
                built = construct(spec, variant, drop_special=drop)
                self._assert_as_if_checked(built)
                self._assert_as_if_checked(parse(serialize(built)))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 6).flatmap(lambda width: st.lists(
        st.tuples(*[st.integers(1, 4)] * width), min_size=1, max_size=16, unique=True)))
    # pivot edge cases: the most-varied column is the last one; two columns tie as
    # pivot; one column is constant (no edges); a single row; width 1, two values
    @example([(1, 1, 1), (1, 1, 2), (1, 2, 3), (2, 2, 1), (2, 1, 4), (2, 2, 2)])
    @example([(1, 1), (1, 2), (2, 1), (2, 2)])
    @example([(2, 1, 1), (2, 2, 1), (2, 1, 2), (2, 2, 3)])
    @example([(3, 1, 4)])
    @example([(1,), (2,)])
    def test_coordinate_rule_matches_a_brute_force_scan(self, fulls):
        # any distinct labels, not only constructions: the per-pair scan, which stops
        # at the first empty mask, must emit exactly the two-values-per-position
        # triples, in combinations order
        assert _coordinate_rule_edges(fulls) == two_values_per_position(fulls)


class TestCoordinateRuleOnRepeatedRows:
    """The rule is total: equal rows, which no construction builds, still end every scan."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda width: st.lists(
        st.tuples(*[st.integers(1, 3)] * width), min_size=1, max_size=12)))
    @example([(1, 1), (1, 1), (2, 2)])
    @example([(1,)] * 5)
    # pivot edge cases, as in TestTrustedPaths, with repeated rows
    @example([(1, 1, 1), (1, 1, 2), (1, 1, 1), (2, 2, 3), (2, 1, 2), (1, 2, 3)])
    @example([(1, 2), (2, 1), (1, 2), (2, 2), (2, 1)])
    @example([(3, 1), (3, 2), (3, 1), (3, 3)])
    @example([(1, 1)])
    @example([(1,), (2,), (1,), (2,), (2,)])
    def test_matches_a_brute_force_scan(self, fulls):
        assert _coordinate_rule_edges(fulls) == two_values_per_position(fulls)

    @pytest.mark.parametrize("v", range(3, 8))
    def test_partition_table_is_its_complement(self, v):
        # the minimality scan's table marks a triple bad unless it shows exactly two
        # classes; over one column of class labels that is the rule's complement
        triples = {t: i for i, t in enumerate(combinations(range(v), 3))}
        expected = Counter()
        for p in all_partitions(v):
            good = sum(1 << triples[t] for t in _coordinate_rule_edges(
                [(label,) for label in p.labels]))
            expected[((1 << len(triples)) - 1) ^ good, p.class_count] += 1
        assert Counter(_partition_table(v)) == expected
