from __future__ import annotations

import hashlib
import importlib.util
import os
import pickle
import random
import subprocess
import sys
import time
from collections import Counter, deque
from itertools import chain, combinations, islice, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bihyper.colorings import (ChromaticSpectrum, _leaf_tables, _Searcher,
                               chromatic_spectrum, enumerate_strict_colorings,
                               is_one_realization, iter_strict_colorings)
from bihyper.construction import canonical_colorings, construct
from bihyper.model import Partition, build_bi_hypergraph, build_hypergraph, is_proper

from conftest import (BELL, brute_force_colorings, random_mixed_hypergraph,
                      stirling_row)


def _degree_order(h):
    """The default vertex order before the edge-closing one: descending edge
    degree, ties by index.  Digests pinned before that order pass it explicitly."""
    edges = h.c_edges if h.c_edges == h.d_edges else set(h.c_edges) | set(h.d_edges)
    degree = Counter(chain.from_iterable(edges))
    return tuple(sorted(range(h.vertex_count), key=degree.__getitem__, reverse=True))


class TestSpectrumType:
    def test_trailing_zeros_trimmed(self):
        s = ChromaticSpectrum((1, 0, 2, 0, 0))
        assert s.counts == (1, 0, 2)
        assert s.upper_chromatic == 3
        assert s.feasible == (1, 3)
        assert s.total == 3
        assert s.r(2) == 0 and s.r(3) == 2 and s.r(9) == 0

    def test_empty(self):
        s = ChromaticSpectrum(())
        assert s.upper_chromatic == 0 and s.total == 0 and s.feasible == ()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ChromaticSpectrum((1, -1))

    @pytest.mark.parametrize("counts", [(1.5,), (True,), (0, 2.0), ("1",)])
    def test_non_int_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="spectrum count .* is not an integer"):
            ChromaticSpectrum(counts)

    @pytest.mark.parametrize("k", [True, 1.5, "2"])
    def test_non_int_class_count_rejected(self, k):
        with pytest.raises(ValueError, match="class count .* is not an integer"):
            ChromaticSpectrum((1, 2)).r(k)


class TestSmallExamples:
    def test_edgeless_three_vertices(self):
        rep = enumerate_strict_colorings(build_hypergraph(3))
        assert len(rep.colorings) == 5  # B(3)
        assert rep.spectrum.counts == (1, 3, 1)

    def test_edgeless_four_vertices(self):
        assert chromatic_spectrum(build_hypergraph(4)).counts == (1, 7, 6, 1)

    def test_single_bi_edge(self):
        h = build_bi_hypergraph(3, [[0, 1, 2]])
        rep = enumerate_strict_colorings(h)
        # oracle: of the 5 partitions of 3 points, exactly the three
        # 2-class splits keep the edge on exactly two classes
        assert rep.colorings == tuple(brute_force_colorings(h))
        assert rep.spectrum.counts == (0, 3)
        assert rep.feasible == (2,)

    def test_single_d_edge(self):
        h = build_hypergraph(3, [], [[0, 1, 2]])
        # only the monochromatic partition fails
        assert chromatic_spectrum(h).counts == (0, 3, 1)

    def test_uncolorable_instance(self):
        # C-edge wants a repeat among 3 vertices; the three D-pairs forbid every repeat
        h = build_hypergraph(3, [[0, 1, 2]], [[0, 1], [0, 2], [1, 2]])
        assert brute_force_colorings(h) == []
        rep = enumerate_strict_colorings(h)
        assert rep.colorings == () and rep.feasible == ()
        assert rep.spectrum.counts == ()

    def test_empty_hypergraph(self):
        rep = enumerate_strict_colorings(build_hypergraph(0))
        assert rep.colorings == () and rep.spectrum.counts == ()

    def test_edgeless_rows_match_stirling(self):
        for v in range(1, 8):
            assert chromatic_spectrum(build_hypergraph(v)).counts == stirling_row(v)


class TestConstructedExamples:
    def test_two_count_construction_realizes_both(self):
        rep = enumerate_strict_colorings(construct([4, 2]).hypergraph)
        assert len(rep.colorings) == 2
        assert rep.feasible == (2, 4)
        assert rep.spectrum.counts == (0, 1, 0, 1)

    def test_colorings_are_sorted_and_canonical(self):
        rep = enumerate_strict_colorings(construct([5, 3, 2]).hypergraph)
        encodings = [p.labels for p in rep.colorings]
        assert encodings == sorted(encodings)
        assert all(Partition(p.labels) == p for p in rep.colorings)


class TestOracleEquivalence:
    def test_exact_set_equality_random_instances(self, rng):
        for _ in range(60):
            h = random_mixed_hypergraph(rng, v_min=1, v_max=7)
            rep = enumerate_strict_colorings(h)
            assert list(rep.colorings) == brute_force_colorings(h)
            assert rep.spectrum.total == len(rep.colorings)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_exact_set_equality_generated(self, data):
        v = data.draw(st.integers(1, 5))
        pool = [e for size in (2, 3) if size <= v for e in combinations(range(v), size)]
        c = data.draw(st.lists(st.sampled_from(pool), max_size=5)) if pool else []
        d = data.draw(st.lists(st.sampled_from(pool), max_size=5)) if pool else []
        h = build_hypergraph(v, c, d)
        assert list(enumerate_strict_colorings(h).colorings) == brute_force_colorings(h)

    def test_restriction_of_strict_coloring_is_proper(self, rng):
        # a strict coloring restricted to an induced subhypergraph stays proper
        from bihyper.model import induced_subhypergraph
        for _ in range(25):
            h = random_mixed_hypergraph(rng, v_min=2, v_max=6)
            subset = [v for v in range(h.vertex_count) if rng.random() < 0.6]
            if not subset:
                continue
            sub, _ = induced_subhypergraph(h, subset)
            for p in iter_strict_colorings(h):
                assert is_proper(sub, Partition([p.labels[v] for v in sorted(subset)]))


class TestProperties:
    @staticmethod
    def _instance(data):
        v = data.draw(st.integers(2, 6))
        pool = [e for size in (2, 3) if size <= v for e in combinations(range(v), size)]
        c = data.draw(st.lists(st.sampled_from(pool), max_size=6))
        d = data.draw(st.lists(st.sampled_from(pool), max_size=6))
        return v, pool, c, d

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_adding_an_edge_never_adds_a_coloring(self, data):
        v, pool, c, d = self._instance(data)
        edge = data.draw(st.sampled_from(pool))
        role = data.draw(st.sampled_from("CDB"))
        before = set(iter_strict_colorings(build_hypergraph(v, c, d)))
        after = set(iter_strict_colorings(build_hypergraph(
            v, c + [edge] * (role in "CB"), d + [edge] * (role in "DB"))))
        assert after <= before

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_spectrum_is_invariant_under_relabeling(self, data):
        v, _, c, d = self._instance(data)
        perm = data.draw(st.permutations(range(v)))
        relabel = lambda fam: [[perm[u] for u in e] for e in fam]
        assert chromatic_spectrum(build_hypergraph(v, relabel(c), relabel(d))) == \
            chromatic_spectrum(build_hypergraph(v, c, d))


class TestKernel:
    def test_nodes_explored_is_pinned(self):
        edgeless = enumerate_strict_colorings(build_hypergraph(10))
        assert edgeless.nodes_explored == 142_417
        assert edgeless.spectrum.total == 115_975
        built = construct([10, 9, 2]).hypergraph
        assert built.vertex_count == 19
        degree = _degree_order(built)
        assert enumerate_strict_colorings(built, order=degree).nodes_explored == 2_610
        assert enumerate_strict_colorings(built).nodes_explored == 165

    def test_long_path_is_searched_without_recursion(self):
        # the recursive kernel raised RecursionError above about 1,000 vertices
        h = build_hypergraph(1200, [(i, i + 1) for i in range(1199)])
        rep = enumerate_strict_colorings(h)
        assert rep.spectrum.counts == (1,)
        assert rep.nodes_explored == 2_399


class _EdgeByEdge(_Searcher):
    """The kernel's walk with each mask found by testing every class on every closing edge."""

    def __init__(self, h, order):
        super().__init__(h, order)
        depth_of = {v: depth for depth, v in enumerate(self.order)}
        self.checks = [[] for _ in self.order]
        for e in set(h.c_edges) | set(h.d_edges):
            self.checks[max(map(depth_of.__getitem__, e))].append(
                (e, e in h.c_edges, e in h.d_edges))

    def _kernel(self):
        return self._allowed

    def _allowed(self, depth, used):
        labels, v = self.labels, self.order[depth]
        kept, allowed = labels[v], 0
        for c in range(used + 1):
            labels[v] = c
            if all(not (is_c and len({labels[u] for u in e}) == len(e))
                   and not (is_d and len({labels[u] for u in e}) == 1)
                   for e, is_c, is_d in self.checks[depth]):
                allowed |= 1 << c
        labels[v] = kept
        return allowed


def _walk_nodes(searcher) -> int:
    """``nodes_explored`` of a full walk, one step per last-level parent with a leaf."""
    deque(searcher.walk(), maxlen=0)
    return searcher.nodes


def _small_constructions():
    """``(S, hypergraph)`` for every S with n1 <= 8, built as auto, without the
    special edge and as variant II; the hypergraph is the exception if the build
    raised one."""
    for n1 in range(3, 9):
        for k in range(1, n1 - 1):
            for rest in combinations(range(n1 - 1, 1, -1), k):
                spec = (n1, *rest)
                for kwargs in ({}, {"drop_special": True}, {"variant": "II"}):
                    try:
                        yield spec, construct(spec, **kwargs).hypergraph
                    except Exception as exc:
                        yield spec, exc


class TestBiEdgeFastPath:
    """3-vertex bi-edges take a pair-list path in the kernel; it must change no result."""

    def test_certificates_and_walks_are_pinned(self):
        # every S with n1 <= 8, built as auto, without the special edge and as
        # variant II, which cover the success, failure and counterexample branches;
        # under the degree order and under the default
        digests, checked = {"degree": hashlib.sha256(), "default": hashlib.sha256()}, 0
        for spec, h in _small_constructions():
            checked += 1
            for name, order in (("degree", _degree_order(h)), ("default", None)):
                digest = digests[name]
                if isinstance(h, Exception):  # pinned by its repr
                    digest.update(repr(h).encode())
                    continue
                digest.update(repr(is_one_realization(h, spec, order)).encode())
                digest.update(str(_walk_nodes(_Searcher(h, order))).encode())
        assert checked == 360
        assert digests["degree"].hexdigest() == \
            "f599bf983cfd3ed15396741eaa48a2ad82a9f633c33d1caa6b770fa03e7c6e63"
        assert digests["default"].hexdigest() == \
            "f8591d8e508d7eb3a231cb4ce5d7696ad64dafd8bf319b5c94214249bf9ced45"

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bi_hypergraphs_match_the_oracles(self, data):
        v = data.draw(st.integers(1, 7))
        sizes = data.draw(st.sampled_from([(3,), (2, 3, 3, 4)]))  # 3-uniform or not
        pool = [e for size in sizes if size <= v for e in combinations(range(v), size)]
        edges = data.draw(st.lists(st.sampled_from(pool), max_size=8)) if pool else []
        h = build_bi_hypergraph(v, edges)
        rep = enumerate_strict_colorings(h)
        assert list(rep.colorings) == brute_force_colorings(h)
        # the same families as two equal but distinct objects
        apart = build_hypergraph(v, edges, [list(e) for e in edges])
        assert apart == h and (apart.c_edges is not apart.d_edges or not edges)
        assert enumerate_strict_colorings(apart).nodes_explored == rep.nodes_explored
        order = _Searcher(h).order
        assert _walk_nodes(_Searcher(h, order)) == _walk_nodes(_EdgeByEdge(h, order))


def is_restricted_growth(labels) -> bool:
    """Whether each label is at most one above every label before it, starting from 0."""
    top = -1
    for c in labels:
        if c > top + 1:
            return False
        top = max(top, c)
    return True


def _rank_loop_tables(pattern: bytes, mask: int) -> list[bytes]:
    """The leaf tables as a per-rank loop builds them: a reference for ``_leaf_tables``."""
    tables = []
    for x in range(mask.bit_length()):
        if mask >> x & 1:
            first = dict.fromkeys(pattern.replace(b"\xff", bytes((x,))))
            table = bytearray(256)
            for rank, c in enumerate(first):
                table[c] = rank
            table[255] = table[x]
            tables.append(bytes(table))
    return tables


class TestCanonicalOutput:
    """Reported colorings skip Partition's relabeling, so pin that they are canonical."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_reported_partitions_equal_their_rebuilt_form(self, rng, threads):
        for _ in range(6):
            h = random_mixed_hypergraph(rng, v_min=2, v_max=8)
            order = list(range(h.vertex_count))
            rng.shuffle(order)
            for p in enumerate_strict_colorings(h, order=order, threads=threads).colorings:
                rebuilt = Partition(p.labels)
                assert p == rebuilt and p.labels == rebuilt.labels
                assert hash(p) == hash(rebuilt)
                assert pickle.loads(pickle.dumps(p)) == rebuilt

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_leaf_tables_canonicalize_every_leaf(self, data):
        # parents as the walk leaves them: restricted-growth labels in a shuffled
        # search order, the hole byte 255 at its last vertex; a report shares its
        # merge tables across parents, so these do too
        merges = {}
        for _ in range(data.draw(st.integers(1, 4))):
            n = data.draw(st.integers(1, 12))
            order = data.draw(st.permutations(range(n)))
            labels, used = [255] * n, 0
            for v in order[:-1]:
                labels[v] = data.draw(st.integers(0, used))
                used += labels[v] == used
            parent = bytes(labels)
            pattern = bytes(dict.fromkeys(parent))
            every = (2 << used) - 1
            tables = _leaf_tables(pattern, every, merges)
            assert len(tables) == used + 1
            for x, (table, old) in enumerate(zip(tables, _rank_loop_tables(pattern, every))):
                leaf = [x if c == 255 else c for c in labels]
                assert parent.translate(table) == bytes(Partition(leaf).labels)
                # bytes outside the pattern map to themselves here and to 0 in
                # the loop; a parent holds none, so no translate reads them
                assert [table[c] for c in pattern] == [old[c] for c in pattern]
            # a partial mask keeps its classes' tables, ascending
            mask = data.draw(st.integers(1, every))
            assert _leaf_tables(pattern, mask, merges) == [
                t for x, t in enumerate(tables) if mask >> x & 1]

    def test_lazy_colorings_are_restricted_growth(self, rng):
        for _ in range(20):
            h = random_mixed_hypergraph(rng, v_min=1, v_max=8)
            order = list(range(h.vertex_count))
            rng.shuffle(order)
            for p in iter_strict_colorings(h, order):
                assert is_restricted_growth(p.labels)
                assert p == Partition(p.labels)

    @pytest.mark.parametrize("threads,instances", [(1, 40), (2, 3)])
    def test_bulk_report_matches_the_lazy_canonical_walk(self, rng, threads, instances):
        # the byte encoder against the lazy path, which canonicalizes through Partition
        for _ in range(instances):
            h = random_mixed_hypergraph(rng, v_min=1, v_max=8)
            order = list(range(h.vertex_count))
            rng.shuffle(order)
            # the last vertex in the order is the hole of every parent: put the
            # first and the last index there too
            orders = [order] + [[v for v in order if v != last] + [last]
                                for last in (0, h.vertex_count - 1)]
            for order in orders:
                lazy = sorted(p.labels for p in iter_strict_colorings(h, order))
                spectrum = ChromaticSpectrum.from_class_counts(max(labels) + 1 for labels in lazy)
                nodes = _walk_nodes(_Searcher(h, order))
                for limit in (None, 0, 1, 3):
                    rep = enumerate_strict_colorings(h, limit=limit, order=order, threads=threads)
                    assert [p.labels for p in rep.colorings] == lazy[:limit]
                    assert rep.spectrum == spectrum and rep.feasible == spectrum.feasible
                    assert rep.nodes_explored == nodes

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_few_vertices_match_the_serial_report(self, rng, n, threads):
        # threads is accepted and has no effect: the report must not change
        instances = [build_hypergraph(n)] + [random_mixed_hypergraph(rng, v_min=n, v_max=n)
                                             for _ in range(3)]
        for h in instances:
            oracle = brute_force_colorings(h)
            for limit in (None, 0):
                rep = enumerate_strict_colorings(h, limit=limit, threads=threads)
                if threads == 1:
                    assert list(rep.colorings) == oracle[:limit]
                    assert rep.spectrum == ChromaticSpectrum.from_class_counts(
                        p.class_count for p in oracle)
                else:
                    assert rep == enumerate_strict_colorings(h, limit=limit)

    @pytest.mark.parametrize("n", [256, 257])
    def test_label_byte_boundary(self, n):
        # up to 256 vertices the labels are carried as bytes, above that as tuples
        pairs = list(combinations(range(n), 2))
        complete = enumerate_strict_colorings(build_hypergraph(n, [], pairs))
        assert [p.labels for p in complete.colorings] == [tuple(range(n))]
        assert complete.spectrum.counts == (0,) * (n - 1) + (1,)
        # without the D-pair (0, 1), vertices 0 and 1 may also share a class
        rep = enumerate_strict_colorings(build_hypergraph(n, [], pairs[1:]))
        assert [p.labels for p in rep.colorings] == [(0, 0) + tuple(range(1, n - 1)),
                                                     tuple(range(n))]
        assert rep.spectrum.counts == (0,) * (n - 2) + (1, 1)
        assert all(p == Partition(p.labels) for p in rep.colorings)

    def test_hole_merges_into_rank_255(self):
        # vertex 0 is the hole, at rank 0, and vertex 255 holds rank 255: sharing
        # its class merges the last rank into the first
        n = 256
        h = build_hypergraph(n, [], [e for e in combinations(range(n), 2) if e != (0, 255)])
        rep = enumerate_strict_colorings(h, order=tuple(range(1, n)) + (0,))
        assert [p.labels for p in rep.colorings] == [tuple(range(n - 1)) + (0,),
                                                     tuple(range(n))]
        assert rep.spectrum.counts[-3:] == (0, 1, 1)
        assert rep.nodes_explored == 32_896

    def test_more_than_255_classes(self):
        # complete D-graph: only the all-distinct coloring; labels must not be capped at a byte
        n = 300
        h = build_hypergraph(n, [], combinations(range(n), 2))
        rep = enumerate_strict_colorings(h, order=reversed(range(n)))
        assert [p.labels for p in rep.colorings] == [tuple(range(n))]
        assert rep.nodes_explored == n * (n + 1) // 2 == 45_150

    def test_over_256_vertices_walks_once(self, monkeypatch):
        # rows, spectrum and nodes come from one lazy walk: 0, 1 and 2 may share classes
        n = 257
        h = build_hypergraph(n, [], [e for e in combinations(range(n), 2) if e[1] > 2])
        lazy = sorted(p.labels for p in iter_strict_colorings(h))
        counted = enumerate_strict_colorings(h, limit=0)
        built = []

        class Counting(_Searcher):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr("bihyper.colorings._Searcher", Counting)
        for limit in (None, 2):
            built.clear()
            rep = enumerate_strict_colorings(h, limit=limit)
            assert len(built) == 1
            assert rep.spectrum == counted.spectrum
            assert rep.spectrum.counts[-3:] == (1, 3, 1)
            assert rep.nodes_explored == counted.nodes_explored
            assert [p.labels for p in rep.colorings] == lazy[:limit]


_EACH_ORDER_ENTRY_POINT = pytest.mark.parametrize("call", [
    lambda h, order: enumerate_strict_colorings(h, order=order),
    lambda h, order: iter_strict_colorings(h, order),
    lambda h, order: is_one_realization(h, [2], order),
], ids=["enumerate", "iter", "is_one_realization"])


class TestOrderAndDeterminism:
    def test_any_vertex_order_gives_same_colorings(self, rng):
        for _ in range(10):
            h = random_mixed_hypergraph(rng, v_min=2, v_max=6)
            baseline = enumerate_strict_colorings(h).colorings
            for _ in range(10):
                order = list(range(h.vertex_count))
                rng.shuffle(order)
                assert enumerate_strict_colorings(h, order=order).colorings == baseline

    def test_repeated_runs_identical(self):
        h = construct([5, 3, 2]).hypergraph
        a = enumerate_strict_colorings(h)
        b = enumerate_strict_colorings(h)
        assert a == b

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            enumerate_strict_colorings(build_hypergraph(3), order=[0, 0, 1])

    @pytest.mark.parametrize("order", [[1.0, 0], [True, 0], [1, False], ["1", 0]])
    @_EACH_ORDER_ENTRY_POINT
    def test_non_integer_order_rejected(self, call, order):
        # sorted([1.0, 0]) and sorted([True, 0]) both equal [0, 1]
        with pytest.raises(ValueError, match="order must be a permutation of the vertex indices"):
            call(build_hypergraph(2, [], [[0, 1]]), order)

    @pytest.mark.parametrize("order", [[5], ["x"], [0]])
    @_EACH_ORDER_ENTRY_POINT
    def test_order_is_checked_without_vertices(self, call, order):
        # the hypergraph without vertices has no search, but its order is still checked
        with pytest.raises(ValueError, match="order must be a permutation of the vertex indices"):
            call(build_hypergraph(0), order)

    def test_empty_order_of_the_empty_hypergraph(self):
        h = build_hypergraph(0)
        assert enumerate_strict_colorings(h, order=[]) == enumerate_strict_colorings(h)
        assert list(iter_strict_colorings(h, ())) == []
        assert _Searcher(h).order == ()

    @pytest.mark.parametrize("limit", [-1, -15])
    def test_negative_limit_rejected(self, limit):
        # a slice would silently drop colorings from the end
        with pytest.raises(ValueError, match="limit"):
            enumerate_strict_colorings(build_hypergraph(4), limit=limit)

    @pytest.mark.parametrize("limit", [2.5, 1.0, "2", True])
    def test_non_integer_limit_rejected(self, limit):
        with pytest.raises(ValueError, match="limit must be an integer"):
            enumerate_strict_colorings(build_hypergraph(4), limit=limit)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match="threads"):
            enumerate_strict_colorings(build_hypergraph(4), threads=threads)

    @pytest.mark.parametrize("threads", [2.5, 2.0, "2", True, None])
    def test_non_integer_threads_rejected(self, threads):
        with pytest.raises(ValueError, match="threads must be an integer"):
            enumerate_strict_colorings(build_hypergraph(4), threads=threads)

    def test_limit_caps_collection_not_counting(self):
        rep = enumerate_strict_colorings(build_hypergraph(4), limit=3)
        assert len(rep.colorings) == 3
        assert rep.spectrum.total == BELL[4]
        uncapped = enumerate_strict_colorings(build_hypergraph(4))
        assert rep.colorings == uncapped.colorings[:3]

    def test_spectrum_consistency(self, rng):
        for _ in range(20):
            h = random_mixed_hypergraph(rng, v_min=1, v_max=6)
            rep = enumerate_strict_colorings(h)
            assert rep.spectrum.total == len(rep.colorings)
            if rep.colorings:
                assert rep.spectrum.upper_chromatic == max(p.class_count for p in rep.colorings)
            assert rep.feasible == tuple(sorted({p.class_count for p in rep.colorings}))


class TestParallel:
    def test_worker_count_does_not_change_report(self, rng):
        # threads is accepted and has no effect: the search is serial
        instances = [construct([4, 2]).hypergraph,
                     construct([4, 3, 2]).hypergraph,
                     build_hypergraph(5)]
        instances += [random_mixed_hypergraph(rng, v_min=2, v_max=7) for _ in range(3)]
        for h in instances:
            sequential = enumerate_strict_colorings(h)
            parallel = enumerate_strict_colorings(h, threads=3)
            assert sequential == parallel

    def test_import_does_not_load_the_pool(self):
        # the search is serial: neither import nor a call with threads > 1 loads a pool
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys, bihyper\n"
                "bihyper.enumerate_strict_colorings(bihyper.build_hypergraph(6), threads=2)\n"
                "print(sorted(m for m in sys.modules\n"
                "             if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"

    def test_import_loads_only_json_beyond_a_bare_interpreter(self):
        # every module import pulls in is paid by each CLI launch and by setup_s
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))

        def loaded(statement):
            code = f"import sys\n{statement}\nprint('\\n'.join(sys.modules))"
            return set(subprocess.run([sys.executable, "-c", code], env=env,
                                      capture_output=True, text=True,
                                      check=True).stdout.split())

        added = loaded("import bihyper") - loaded("pass")
        allowed = {"__future__", "json", "json.decoder", "json.encoder", "json.scanner",
                   "_json", "struct", "_struct"}  # struct: reports unpack their rows in C
        assert "bihyper.model" in added
        assert sorted(m for m in added
                      if m not in allowed and m.split(".")[0] != "bihyper") == []


def _spectrum_pool():
    """The benchmark's fixed pool of spectrum instances, from perfbench/population.py."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "population.py"
    spec = importlib.util.spec_from_file_location("_perfbench_population", path)
    population = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(population)
    return population.spectrum_pool()


def test_reports_are_pinned_on_a_spectrum_pool_subset():
    # digests of the reports' reprs as the per-leaf canonicalizer produced
    # them, in full and in count mode, under the degree order; then under the
    # default, where only nodes_explored may differ
    digest, counted, default = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for v, c_edges, d_edges in _spectrum_pool()[::20]:
        h = build_hypergraph(v, c_edges, d_edges)
        degree = _degree_order(h)
        report = enumerate_strict_colorings(h, order=degree)
        digest.update(repr(report).encode())
        counted.update(repr(enumerate_strict_colorings(h, limit=0, order=degree)).encode())
        planned = enumerate_strict_colorings(h)
        assert planned.colorings == report.colorings and planned.spectrum == report.spectrum
        default.update(repr(planned).encode())
    assert digest.hexdigest() == \
        "ed30edce96dcccc7cd3330df9cfbb734b9febfc2b558ec34c4a8a420e91869c2"
    assert counted.hexdigest() == \
        "c89c619f85a40956a053e43d07bd5311d85065f0caf2ee980f9044f7bd89c0b5"
    assert default.hexdigest() == \
        "bed36527a83c2c646794abc10b4d8b937f09d90d4ae42ed0114d826883dde9eb"


def _pin_population(rng: random.Random, count: int):
    """``count`` random mixed hypergraphs on 1..10 vertices with C-, D- and
    bi-edges of sizes 2..4, each with a shuffled vertex order."""
    for _ in range(count):
        v = rng.randint(1, 10)
        pool = [e for size in (2, 3, 4) if size <= v for e in combinations(range(v), size)]
        c_edges, d_edges = [], []
        for e in rng.sample(pool, min(len(pool), rng.randint(v // 2, 2 * v))):
            role = rng.random()  # C-only below 0.4, D-only from 0.7, bi between
            if role < 0.7:
                c_edges.append(e)
            if role >= 0.4:
                d_edges.append(e)
        order = list(range(v))
        rng.shuffle(order)
        yield build_hypergraph(v, c_edges, d_edges), order


def test_full_reports_are_pinned_on_random_hypergraphs():
    # every report, in full, as a prefix and in count mode, under the degree
    # order and a shuffled order; the digest was taken from the per-parent
    # encoder.  The default order's reports have a digest of their own
    digest, default, checked = hashlib.sha256(), hashlib.sha256(), 0
    for h, order in _pin_population(random.Random("full-report-pin"), 90):
        for o in (_degree_order(h), order):
            for limit in (None, 0, 3):
                checked += 1
                digest.update(repr(enumerate_strict_colorings(h, limit=limit, order=o)).encode())
        for limit in (None, 0, 3):
            default.update(repr(enumerate_strict_colorings(h, limit=limit)).encode())
    assert checked == 540
    assert digest.hexdigest() == \
        "50547dd52cdc399c0661f35ad0766ec8b6ced5848ea34915fce810866dc99ab4"
    assert default.hexdigest() == \
        "6ee3cc21ad196455301afe9b96d4747fc34a8d1a7ed13eb22946a7c5e9987455"


def _closing_order_reference(h):
    """The edge-closing order straight from its rule, every vertex rescored at every depth."""
    n = h.vertex_count
    if not n:
        return ()
    edges_of = {v: [] for v in range(n)}
    for e in set(h.c_edges) | set(h.d_edges):
        for v in e:
            edges_of[v].append(e)
    last = _degree_order(h)[-1]
    placed, order = set(), []

    def score(v):
        return (sum(all(u in placed for u in e if u != v) for e in edges_of[v]),
                sum(any(u in placed for u in e) for e in edges_of[v]),
                len(edges_of[v]), -v)

    for _ in range(n - 1):
        order.append(max((v for v in range(n) if v not in placed and v != last), key=score))
        placed.add(order[-1])
    return (*order, last)


class TestEdgeClosingOrder:
    """The default order closes edges early and keeps the degree order's last vertex."""

    def test_matches_the_rule(self, rng):
        for _ in range(150):
            h = random_mixed_hypergraph(rng, v_min=0, v_max=10)
            assert _Searcher(h).order == _closing_order_reference(h)
        for spec in ([4, 2], [10, 9, 2], [12, 5, 2], [20, 19]):
            h = construct(spec).hypergraph
            assert _Searcher(h).order == _closing_order_reference(h)

    def test_matches_the_rule_on_larger_hypergraphs(self, rng):
        for _ in range(100):
            h = random_mixed_hypergraph(rng, v_min=2, v_max=10)
            assert _Searcher(h).order == _closing_order_reference(h)
        for bi in (False, True):
            v = 120
            edges = [rng.sample(range(v), 3 if bi else rng.choice((2, 3, 4)))
                     for _ in range(2 * v)]
            h = (build_bi_hypergraph(v, edges) if bi
                 else build_hypergraph(v, edges[::2], edges[1::2]))
            assert _Searcher(h).order == _closing_order_reference(h)

    def test_matches_the_rule_on_hubs_and_long_paths(self):
        # a hub raises every other vertex at once; a path raises one per depth
        for h in (build_hypergraph(301, (), [(0, i) for i in range(1, 301)]),
                  build_hypergraph(300, [(i, i + 1) for i in range(299)], ()),
                  construct([40, 39]).hypergraph):
            assert _Searcher(h).order == _closing_order_reference(h)

    def test_planning_stays_fast_at_scale(self):
        # one argmin per depth makes planning quadratic in n; a loose bound
        # that a cubic planner would break on these
        for h in (build_hypergraph(1_200, [(i, i + 1) for i in range(1_199)], ()),
                  build_hypergraph(2_000, [(0, i) for i in range(1, 2_000)], ()),
                  construct([64, 2]).hypergraph):
            start = time.perf_counter()
            _Searcher(h)
            assert time.perf_counter() - start < 1.0

    def test_edgeless_order_is_the_index_order(self):
        assert _Searcher(build_hypergraph(7)).order == tuple(range(7))

    def test_reports_and_certificates_do_not_depend_on_it(self):
        # every S with n1 <= 8 in the three builds: the same colorings and
        # spectrum, and the same certificate where it succeeds
        for spec, h in _small_constructions():
            if isinstance(h, Exception):
                continue
            degree = _degree_order(h)
            planned = enumerate_strict_colorings(h)
            kept = enumerate_strict_colorings(h, order=degree)
            assert (planned.colorings, planned.spectrum) == (kept.colorings, kept.spectrum)
            cert, kept = is_one_realization(h, spec), is_one_realization(h, spec, degree)
            assert cert.ok == kept.ok
            if cert:
                assert cert == kept

    def test_last_vertex_is_the_degree_orders(self):
        # the last-level parents depend only on the last vertex, so the
        # spectrum workload's row work is the same as under the degree order
        for v, c_edges, d_edges in _spectrum_pool()[::20]:
            h = build_hypergraph(v, c_edges, d_edges)
            assert _Searcher(h).order[-1] == _degree_order(h)[-1]

    def test_large_constructions_verify_quickly(self):
        # under the degree order each of these takes hours; n1 = 64 takes milliseconds
        nodes, start = [], time.perf_counter()
        for spec in ([24, 2], [24, 23], [24, 16, 8, 2]):
            h = construct(spec).hypergraph
            assert is_one_realization(h, spec)
            nodes.append(_walk_nodes(_Searcher(h)))
        assert time.perf_counter() - start < 1.0
        assert nodes == [752, 1_208, 1_295]


class TestLaziness:
    """The lazy path stops where its caller does; finishing these searches would never end."""

    def test_edgeless_refutation_stops_at_the_second_two_coloring(self):
        cert = is_one_realization(build_hypergraph(40), [1, 2])
        assert cert.failure == "two distinct strict 2-colorings exist"
        assert [p.labels for p in cert.counterexamples] == [
            (0,) * 39 + (1,), (0,) * 38 + (1, 0)]

    def test_first_colorings_of_a_large_edgeless_hypergraph(self):
        first = list(islice(iter_strict_colorings(build_hypergraph(300)), 3))
        assert [p.labels for p in first] == [
            (0,) * 300, (0,) * 299 + (1,), (0,) * 298 + (1, 0)]

    def test_long_d_path_is_refuted_by_a_three_coloring(self):
        h = build_hypergraph(300, [], [(i, i + 1) for i in range(299)])
        cert = is_one_realization(h, [2])
        assert cert.failure == "a strict 3-coloring exists but 3 is not in the target set"
        (p,) = cert.counterexamples
        assert p.class_count == 3 and is_proper(h, p)


class TestOneRealization:
    def test_construction_passes_with_witnesses(self):
        built = construct([4, 2])
        cert = is_one_realization(built.hypergraph, {2, 4})
        assert cert and cert.ok
        assert len(cert.witnesses) == 2
        assert [w.class_count for w in cert.witnesses] == [2, 4]
        assert set(cert.witnesses) == set(canonical_colorings(built))

    def test_repeated_class_count_refutes(self):
        h = build_bi_hypergraph(3, [[0, 1, 2]])
        cert = is_one_realization(h, {2})
        assert not cert
        assert "two distinct strict 2-colorings" in cert.failure
        assert len(cert.counterexamples) == 2
        a, b = cert.counterexamples
        assert a != b and a.class_count == b.class_count == 2

    def test_missing_class_count_refutes(self):
        cert = is_one_realization(construct([4, 2]).hypergraph, {2, 3, 4})
        assert not cert
        assert "k in [3]" in cert.failure

    def test_unexpected_class_count_refutes(self):
        cert = is_one_realization(construct([4, 2]).hypergraph, {4})
        assert not cert
        assert "not in the target set" in cert.failure
        assert cert.counterexamples[0].class_count == 2

    @pytest.mark.parametrize("h,target,failure,counterexamples", [
        (build_bi_hypergraph(3, [[0, 1, 2]]), {2},
         "two distinct strict 2-colorings exist", [(0, 0, 1), (0, 1, 0)]),
        (construct([4, 2]).hypergraph, {4},
         "a strict 2-coloring exists but 2 is not in the target set",
         [(0, 0, 0, 1, 1, 0, 1, 1)]),
        (construct([3, 2], "II").hypergraph, {3, 2},
         "two distinct strict 2-colorings exist", [(0, 0, 1, 1, 1), (0, 1, 0, 1, 0)]),
        (construct([5, 3, 2]).hypergraph, {5, 2},
         "a strict 3-coloring exists but 3 is not in the target set",
         [(0, 0, 1, 1, 1, 0, 2, 0, 2, 2)]),
    ])
    def test_refutation_evidence_is_pinned(self, h, target, failure, counterexamples):
        cert = is_one_realization(h, target)
        assert not cert.ok and cert.witnesses == ()
        assert cert.failure == failure
        assert [p.labels for p in cert.counterexamples] == counterexamples

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            is_one_realization(build_hypergraph(3), [])
        with pytest.raises(ValueError):
            is_one_realization(build_hypergraph(3), [0, 2])

    @pytest.mark.parametrize("target", [[2.0, 3], ["2", "x"], ["2", 3], [True, 2], [None]])
    def test_non_integer_target_rejected(self, target):
        with pytest.raises(ValueError, match="target must be a nonempty set of integers >= 1"):
            is_one_realization(build_hypergraph(3), target)

    @pytest.mark.parametrize("target", [[2, 3, 2.0], [3, 2, True], [1, True]])
    def test_target_check_ignores_entry_order(self, target):
        # 2.0 == 2 and True == 1, so a set taken first kept whichever entry came first
        h = construct([3, 2]).hypergraph
        for entries in permutations(target):
            with pytest.raises(ValueError, match="target must be a nonempty set of integers"):
                is_one_realization(h, entries)
        assert is_one_realization(h, [3, 2, 3]).ok
