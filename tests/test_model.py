from __future__ import annotations

import copy
import pickle
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from bihyper.construction import LabeledVertex
from bihyper.model import (MixedHypergraph, Partition, VertexBijection, _normalized_hypergraph,
                           _unchecked_records, build_bi_hypergraph, build_hypergraph,
                           check_isomorphism_under_map, induced_subhypergraph, is_proper)

from conftest import all_bi_hypergraphs, all_partitions


def bi(v, edges):
    return build_bi_hypergraph(v, edges)


class TestBuildHypergraph:
    def test_smallest_bi_hypergraph(self):
        h = build_hypergraph(3, [[0, 1, 2]], [[0, 1, 2]])
        assert h.vertex_count == 3
        assert h.c_edges == ((0, 1, 2),)
        assert h.is_bi()
        assert set(h.c_edges) & set(h.d_edges) == {(0, 1, 2)}

    def test_edgeless_is_bi(self):
        h = build_hypergraph(5)
        assert h.is_bi()

    def test_family_dedup(self):
        h = build_hypergraph(3, [[0, 1, 2], [2, 1, 0]], [])
        assert h.c_edges == ((0, 1, 2),)
        assert not h.is_bi()

    def test_out_of_range_index(self):
        with pytest.raises(ValueError, match=r"vertex 9 out of range"):
            build_hypergraph(3, [[0, 1, 9]], [])

    def test_repeated_vertex(self):
        with pytest.raises(ValueError, match="repeated vertex"):
            build_hypergraph(3, [], [[0, 0, 1]])

    def test_too_small_edge(self):
        with pytest.raises(ValueError, match="at least 2"):
            build_hypergraph(3, [[0]], [])

    @pytest.mark.parametrize("vertex", [False, True, 1.0, "a", None, [1]])
    def test_non_integer_vertex(self, vertex):
        with pytest.raises(ValueError, match="is not an integer"):
            build_hypergraph(5, [[3, vertex, 4]], [])
        with pytest.raises(ValueError, match="is not an integer"):
            build_bi_hypergraph(5, [[vertex, 4]])

    def test_negative_vertex_count(self):
        with pytest.raises(ValueError, match="nonnegative"):
            build_hypergraph(-1)
        with pytest.raises(ValueError, match="nonnegative"):
            build_bi_hypergraph(-1, [])

    @pytest.mark.parametrize("count", [2.0, 3.5, True, False, "3", None])
    def test_non_integer_vertex_count(self, count):
        # serialize would write 2.0 or true, which parse refuses
        for make in (lambda: build_hypergraph(count), lambda: build_hypergraph(count, [[0, 1]]),
                     lambda: build_bi_hypergraph(count, []), lambda: MixedHypergraph(count)):
            with pytest.raises(ValueError, match="vertex_count must be a nonnegative int"):
                make()

    def test_unnormalized_direct_construction_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            MixedHypergraph(3, ((1, 0, 2),), ())

    def test_general_mixed_edges(self):
        h = build_hypergraph(4, [[0, 1]], [[1, 2, 3], [0, 2]])
        assert not h.is_bi()
        assert set(h.c_edges) & set(h.d_edges) == set()

    @pytest.mark.parametrize("build,message", [
        (lambda: build_hypergraph(3, [5]), "C-edge 5: an edge must be an iterable"),
        (lambda: build_hypergraph(3, [], [[0, 1], 7]), "D-edge 7: an edge must be an iterable"),
        (lambda: build_bi_hypergraph(3, [None]), "bi-edge None: an edge must be an iterable"),
    ], ids=["C-int", "D-int", "bi-none"])
    def test_non_iterable_edge(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


def _per_edge_family(family, vertex_count, kind):
    """The per-edge check, one row at a time, that the bulk family check must agree with."""
    edges = set()
    for raw in family:
        try:
            verts = list(raw)
        except TypeError:
            raise ValueError(
                f"{kind}-edge {raw!r}: an edge must be an iterable of vertex indices") from None
        if not set(map(type, verts)) <= {int}:
            bad = next(v for v in verts if type(v) is not int)
            raise ValueError(f"{kind}-edge {verts}: vertex {bad!r} is not an integer")
        if len(set(verts)) != len(verts):
            raise ValueError(f"{kind}-edge {verts}: repeated vertex inside the edge")
        if len(verts) < 2:
            raise ValueError(f"{kind}-edge {verts}: an edge needs at least 2 vertices")
        for v in verts:
            if not (0 <= v < vertex_count):
                raise ValueError(
                    f"{kind}-edge {sorted(verts)}: vertex {v} out of range for "
                    f"vertex_count={vertex_count}")
        edges.add(tuple(sorted(verts)))
    return tuple(sorted(edges))


def _outcome(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


class TestFamilyValidation:
    """Families are checked in bulk, with a per-edge fallback naming the first bad edge."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bulk_check_agrees_with_the_per_edge_check(self, data):
        v = data.draw(st.integers(2, 6))
        rows = data.draw(st.lists(
            st.lists(st.integers(0, v - 1), min_size=2, max_size=min(4, v), unique=True),
            max_size=6))
        # spoil a few rows: a bad entry, a repeated vertex, a short row or no row at all
        bad = st.one_of(st.sampled_from([-1, v]), st.integers(-3, -1), st.integers(v, v + 2),
                        st.booleans(),
                        st.floats(-1, v), st.none(), st.text(max_size=1))
        for _ in range(data.draw(st.integers(0, 2)) if rows else 0):
            pos = data.draw(st.integers(0, len(rows) - 1))
            row = rows[pos]
            how = data.draw(st.sampled_from(["entry", "repeat", "short", "not a row"]))
            if how == "entry" and isinstance(row, list) and row:
                row[data.draw(st.integers(0, len(row) - 1))] = data.draw(bad)
            elif how == "repeat" and isinstance(row, list) and row:
                row.append(row[0])
            elif how == "short" and isinstance(row, list):
                del row[data.draw(st.integers(0, 1)):]
            elif how == "not a row":
                rows[pos] = data.draw(st.one_of(st.integers(), st.none()))
        lazy_rows = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
        lazy_family = data.draw(st.booleans())

        def family():
            # fresh each call: a generator row or family is spent once read
            out = [(x for x in r) if lazy and isinstance(r, list) else r
                   for r, lazy in zip(rows, lazy_rows)]
            return iter(out) if lazy_family else out

        for kind, build in (
                ("C", lambda: build_hypergraph(v, family()).c_edges),
                ("D", lambda: build_hypergraph(v, (), family()).d_edges),
                ("bi", lambda: build_bi_hypergraph(v, family()).c_edges)):
            assert _outcome(build) == _outcome(lambda: _per_edge_family(family(), v, kind))


    @pytest.mark.parametrize("spoiled", [
        [0, -1, 2], [0, 5, 2], [0, True, 2], [0, 1.0, 2], [0, None, 2], [0, "1", 2],
        [0, 2, 0], [3], [], 7, None])
    @pytest.mark.parametrize("lazy", [False, True])
    def test_one_spoiled_row_is_named(self, spoiled, lazy):
        # one bad row among good ones, each of them lazy or not
        def family():
            rows = [[0, 1, 2], [3, 4], spoiled, [1, 4, 3]]
            return (iter(r) if lazy and isinstance(r, list) else r for r in rows)
        for kind, build in (("C", lambda: build_hypergraph(5, family()).c_edges),
                            ("bi", lambda: build_bi_hypergraph(5, family()).c_edges)):
            expected = _outcome(lambda: _per_edge_family(family(), 5, kind))
            assert isinstance(expected, str) and _outcome(build) == expected


class TestInducedSubhypergraph:
    def test_edge_not_contained_drops(self):
        h = bi(3, [[0, 1, 2]])
        sub, translation = induced_subhypergraph(h, [0, 1])
        assert sub.vertex_count == 2
        assert sub.c_edges == () and sub.d_edges == ()
        assert translation == {0: 0, 1: 1}

    def test_full_subset_is_identity(self):
        h = build_hypergraph(4, [[0, 1, 2], [1, 2, 3]], [[0, 3]])
        sub, _ = induced_subhypergraph(h, range(4))
        assert sub == h

    def test_reindexing(self):
        h = build_hypergraph(5, [[1, 3, 4]], [[1, 3]])
        sub, translation = induced_subhypergraph(h, [4, 1, 3])
        assert translation == {1: 0, 3: 1, 4: 2}
        assert sub.c_edges == ((0, 1, 2),)
        assert sub.d_edges == ((0, 1),)

    def test_subset_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            induced_subhypergraph(bi(3, []), [0, 5])

    @pytest.mark.parametrize("subset", [[True, 0, 2], [0, 1.0], ["0"], [1, True]])
    def test_non_int_subset_vertex_is_refused(self, subset):
        # [True, 0, 2] used to return a translation keyed by True
        with pytest.raises(ValueError, match="is not an integer"):
            induced_subhypergraph(bi(3, [[0, 1, 2]]), subset)


class TestTrustedBuilders:
    """The builders skip the constructor's check; their values must be the checked ones."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_builders_equal_the_checked_constructor(self, data):
        v = data.draw(st.integers(2, 7))
        edge = st.lists(st.integers(0, v - 1), min_size=2, max_size=min(4, v), unique=True)
        c = data.draw(st.lists(edge, max_size=8))
        d = data.draw(st.lists(edge, max_size=8))
        c += [e[::-1] for e in c[:3]]  # duplicates, listed in reverse
        subset = data.draw(st.lists(st.integers(0, v - 1), max_size=v))
        built = [build_hypergraph(v, c, d), build_bi_hypergraph(v, c)]
        built += [induced_subhypergraph(h, subset)[0] for h in built]
        for h in built:
            checked = MixedHypergraph(h.vertex_count, h.c_edges, h.d_edges)
            assert h == checked and hash(h) == hash(checked)
            assert pickle.loads(pickle.dumps(h)) == h

    @pytest.mark.parametrize("rebuild", [lambda h: pickle.loads(pickle.dumps(h)), copy.copy,
                                         copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
    def test_copies_rerun_the_constructor_checks(self, rebuild):
        # the trusted builder vouches for nothing past itself: a copy is checked again
        h = _normalized_hypergraph(3, ((2, 1, 0),), ())
        with pytest.raises(ValueError, match="C-edge family is not normalized"):
            rebuild(h)

    def test_unchecked_records_fill_each_field_from_its_column(self):
        made = _unchecked_records(LabeledVertex, 2, [(1, 2), (3,)], iter([0, 1]))
        assert made == (LabeledVertex((1, 2), 0), LabeledVertex((3,), 1))
        assert [type(p) for p in _unchecked_records(Partition, 1, [(0, 1)])] == [Partition]
        assert _unchecked_records(Partition, 0, []) == ()


class TestPartition:
    def test_canonical_relabeling(self):
        assert Partition((2, 2, 0, 1)).labels == (0, 0, 1, 2)
        assert Partition(("b", "b", "a")).labels == (0, 0, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Partition(())
        with pytest.raises(ValueError):
            Partition(iter(()))

    def test_str_lists_the_classes(self):
        assert str(Partition((0, 1, 0))) == "{0 2 | 1}"
        assert str(Partition((7,))) == "{0}"

    def test_any_iterable_of_labels(self):
        # a one-shot iterator is read once, not emptied by a first pass
        assert Partition(iter([5, 5, 2])) == Partition((0, 0, 1)) == Partition([9, 9, 3])

    def test_canonical_uniqueness_small(self):
        # distinct set partitions of <= 6 points have distinct encodings,
        # and any relabeling of the classes canonicalizes identically
        for n in range(1, 7):
            parts = all_partitions(n)
            assert len(set(parts)) == len(parts)
            for p in parts[:: max(1, len(parts) // 17)]:
                k = p.class_count
                for perm in list(permutations(range(k)))[:6]:
                    relabeled = tuple(perm[c] for c in p.labels)
                    assert Partition(relabeled) == p

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=9))
    def test_canonical_form_is_idempotent(self, labels):
        p = Partition(tuple(labels))
        assert Partition(p.labels).labels == p.labels
        assert min(p.labels) == 0
        assert set(p.labels) == set(range(p.class_count))

    def test_merge_examples(self):
        p = Partition((0, 1, 2, 2))
        assert p.merge_classes(0, 1) == Partition((0, 0, 1, 1))
        q = Partition((0, 0, 1))
        assert q.merge_classes(0, 1) == Partition((0, 0, 0))

    def test_merge_drops_exactly_one_class(self):
        for n in range(2, 6):
            for p in all_partitions(n):
                for a in range(p.class_count):
                    for b in range(a + 1, p.class_count):
                        assert p.merge_classes(a, b).class_count == p.class_count - 1

    def test_merge_errors(self):
        p = Partition((0, 1))
        with pytest.raises(ValueError, match="unknown class label"):
            p.merge_classes(0, 5)
        with pytest.raises(ValueError, match="itself"):
            p.merge_classes(1, 1)

    @pytest.mark.parametrize("a, b", [(1.0, 0), (0, True), ("1", 0)])
    def test_merge_rejects_non_int_labels(self, a, b):
        # 1.0 == 1 passed the range check and merged class 1 into class 0
        with pytest.raises(ValueError, match="is not an integer"):
            Partition((0, 1, 1)).merge_classes(a, b)


class TestIsProper:
    def test_bi_edge_two_classes(self):
        h = bi(3, [[0, 1, 2]])
        assert is_proper(h, Partition((0, 0, 1)))

    def test_bi_edge_monochromatic_fails_d_side(self):
        h = bi(3, [[0, 1, 2]])
        assert not is_proper(h, Partition((0, 0, 0)))

    def test_bi_edge_rainbow_fails_c_side(self):
        h = bi(3, [[0, 1, 2]])
        assert not is_proper(h, Partition((0, 1, 2)))

    def test_domain_mismatch(self):
        with pytest.raises(ValueError, match="covers"):
            is_proper(bi(3, []), Partition((0, 1)))

    def test_general_c_and_d_edges(self):
        h = build_hypergraph(4, [[0, 1, 2, 3]], [[0, 1]])
        assert is_proper(h, Partition((0, 1, 0, 1)))
        assert not is_proper(h, Partition((0, 0, 1, 1)))  # D-edge {0,1} same class
        assert not is_proper(h, Partition((0, 1, 2, 3)))  # C-edge rainbow

    def test_bi_edge_characterization_exhaustive(self):
        # proper <=> every bi-edge meets exactly 2 classes, over every
        # 3-uniform bi-hypergraph and partition on up to 5 vertices
        for v in (3, 4, 5):
            parts = all_partitions(v)
            for h in all_bi_hypergraphs(v):
                for p in parts:
                    expected = all(len({p.labels[x] for x in e}) == 2 for e in h.c_edges)
                    assert is_proper(h, p) == expected


class TestSingletonMerge:
    def test_merging_two_singletons_stays_proper(self):
        # any strict coloring of a 3-uniform bi-hypergraph with two
        # singleton classes merges into a strict coloring one class down
        checked = 0
        for v in (3, 4):
            for h in all_bi_hypergraphs(v):
                for p in all_partitions(v):
                    if not is_proper(h, p):
                        continue
                    singles = [c for c, cl in enumerate(p.classes()) if len(cl) == 1]
                    for a_pos in range(len(singles)):
                        for b_pos in range(a_pos + 1, len(singles)):
                            merged = p.merge_classes(singles[a_pos], singles[b_pos])
                            assert is_proper(h, merged)
                            assert merged.class_count == p.class_count - 1
                            checked += 1
        assert checked == 33  # every merge opportunity in the v <= 4 stream

    def test_merge_never_breaks_c_side(self):
        # C-edges keep their repeated class under any merge
        h = build_hypergraph(5, [[0, 1, 2], [2, 3, 4], [0, 4]], [])
        for p in all_partitions(5):
            if not is_proper(h, p):
                continue
            for a in range(p.class_count):
                for b in range(a + 1, p.class_count):
                    assert is_proper(h, p.merge_classes(a, b))


class TestVertexBijection:
    def test_validation(self):
        with pytest.raises(ValueError):
            VertexBijection((0, 0, 1))
        assert VertexBijection.from_mapping({0: 1, 1: 0}).forward == (1, 0)
        with pytest.raises(ValueError):
            VertexBijection.from_mapping({1: 0, 2: 1})

    @pytest.mark.parametrize("forward", [(0.0, 1), (True, False), (1, "0")])
    def test_non_int_entries_are_refused(self, forward):
        with pytest.raises(ValueError, match="is not an integer"):
            VertexBijection(forward)

    @pytest.mark.parametrize("mapping", [{0: 1, True: 0}, {0: 1.0, 1: 0}, {"0": 0}])
    def test_non_int_mapping_entries_are_refused(self, mapping):
        with pytest.raises(ValueError, match="is not an integer"):
            VertexBijection.from_mapping(mapping)

    def test_forward_is_stored_as_a_tuple(self):
        listed = VertexBijection([1, 0])
        assert listed.forward == (1, 0) and listed == VertexBijection((1, 0))
        assert hash(listed) == hash(VertexBijection((1, 0)))
        assert VertexBijection(iter([0, 2, 1])).forward == (0, 2, 1)

    def test_identity_map_is_isomorphism(self):
        h = build_hypergraph(4, [[0, 1, 2]], [[1, 2, 3]])
        ident = VertexBijection(tuple(range(4)))
        assert check_isomorphism_under_map(h, h, ident)

    def test_edge_image_missing(self):
        h1 = bi(3, [[0, 1, 2]])
        h2 = bi(3, [])
        assert not check_isomorphism_under_map(h1, h2, VertexBijection((0, 1, 2)))

    def test_families_tracked_separately(self):
        h1 = build_hypergraph(3, [[0, 1, 2]], [])
        h2 = build_hypergraph(3, [], [[0, 1, 2]])
        assert not check_isomorphism_under_map(h1, h2, VertexBijection((0, 1, 2)))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            check_isomorphism_under_map(bi(3, []), bi(4, []), VertexBijection((0, 1, 2)))

    def test_bijection_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="^bijection spans 2 vertices; hypergraphs have 3$"):
            check_isomorphism_under_map(bi(3, []), bi(3, []), VertexBijection((1, 0)))

    def test_nontrivial_isomorphism(self):
        h1 = bi(4, [[0, 1, 2]])
        h2 = bi(4, [[1, 2, 3]])
        rot = VertexBijection((1, 2, 3, 0))
        assert check_isomorphism_under_map(h1, h2, rot)
        assert not check_isomorphism_under_map(h1, h2, VertexBijection((0, 1, 2, 3)))
