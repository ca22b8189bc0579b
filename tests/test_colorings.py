from __future__ import annotations

import hashlib
import importlib.util
import os
import pickle
import random
import subprocess
import sys
from collections import deque
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bihyper.colorings import (ChromaticSpectrum, _Searcher,
                               chromatic_spectrum, default_vertex_order,
                               enumerate_strict_colorings, feasible_set, is_one_realization,
                               iter_strict_colorings)
from bihyper.construction import canonical_colorings, construct
from bihyper.model import Partition, build_bi_hypergraph, build_hypergraph, is_proper

from conftest import (BELL, brute_force_colorings, random_mixed_hypergraph,
                      stirling_row)


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
        assert feasible_set(h) == (2,)

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
                assert is_proper(sub, p.restrict(subset))


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
        assert enumerate_strict_colorings(built).nodes_explored == 2_610

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
    """``nodes_explored`` of a full walk, one leaf per coloring."""
    deque(searcher.walk(), maxlen=0)
    return searcher.nodes


class TestBiEdgeFastPath:
    """3-vertex bi-edges take a pair-list path in the kernel; it must change no result."""

    def test_certificates_and_walks_are_pinned(self):
        # every S with n1 <= 8, built as auto, without the special edge and as
        # variant II, which cover the success, failure and counterexample branches
        digest, checked = hashlib.sha256(), 0
        for n1 in range(3, 9):
            for k in range(1, n1 - 1):
                for rest in combinations(range(n1 - 1, 1, -1), k):
                    spec = (n1, *rest)
                    for kwargs in ({}, {"drop_special": True}, {"variant": "II"}):
                        checked += 1
                        try:
                            h = construct(spec, **kwargs).hypergraph
                        except Exception as exc:  # pinned by its repr
                            digest.update(repr(exc).encode())
                            continue
                        digest.update(repr(is_one_realization(h, spec)).encode())
                        searcher = _Searcher(h, default_vertex_order(h))
                        digest.update(str(_walk_nodes(searcher)).encode())
        assert checked == 360
        assert digest.hexdigest() == \
            "f599bf983cfd3ed15396741eaa48a2ad82a9f633c33d1caa6b770fa03e7c6e63"

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
        order = default_vertex_order(h)
        assert _walk_nodes(_Searcher(h, order)) == _walk_nodes(_EdgeByEdge(h, order))


def is_restricted_growth(labels) -> bool:
    """Whether each label is at most one above every label before it, starting from 0."""
    top = -1
    for c in labels:
        if c > top + 1:
            return False
        top = max(top, c)
    return True


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
        for _ in range(instances):
            h = random_mixed_hypergraph(rng, v_min=1, v_max=8)
            order = list(range(h.vertex_count))
            rng.shuffle(order)
            # the last vertex in the order is the hole of every parent: put the
            # first and the last index there too
            orders = [order] + [[v for v in order if v != last] + [last]
                                for last in (0, h.vertex_count - 1)]
            for order in orders:
                searcher = _Searcher(h, order)
                lazy = sorted(searcher.canonical())
                spectrum = ChromaticSpectrum.from_class_counts(max(labels) + 1 for labels in lazy)
                for limit in (None, 0, 1, 3):
                    rep = enumerate_strict_colorings(h, limit=limit, order=order, threads=threads)
                    assert [p.labels for p in rep.colorings] == lazy[:limit]
                    assert rep.spectrum == spectrum and rep.feasible == spectrum.feasible
                    assert rep.nodes_explored == searcher.nodes

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

    def test_more_than_255_classes(self):
        # complete D-graph: only the all-distinct coloring; labels must not be capped at a byte
        n = 300
        h = build_hypergraph(n, [], combinations(range(n), 2))
        rep = enumerate_strict_colorings(h, order=reversed(range(n)))
        assert [p.labels for p in rep.colorings] == [tuple(range(n))]
        assert rep.nodes_explored == n * (n + 1) // 2 == 45_150


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
                   "_json"}
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
    # them, in full and in count mode
    digest, counted = hashlib.sha256(), hashlib.sha256()
    for v, c_edges, d_edges in _spectrum_pool()[::20]:
        h = build_hypergraph(v, c_edges, d_edges)
        digest.update(repr(enumerate_strict_colorings(h)).encode())
        counted.update(repr(enumerate_strict_colorings(h, limit=0)).encode())
    assert digest.hexdigest() == \
        "ed30edce96dcccc7cd3330df9cfbb734b9febfc2b558ec34c4a8a420e91869c2"
    assert counted.hexdigest() == \
        "c89c619f85a40956a053e43d07bd5311d85065f0caf2ee980f9044f7bd89c0b5"


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
