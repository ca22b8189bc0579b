"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines; every
criterion carries its stated time budget, measured with wall clocks here.
"""

from __future__ import annotations

import random
import time
from itertools import combinations
from math import comb

from bihyper.colorings import enumerate_strict_colorings
from bihyper.construction import (FeasibleSpec, canonical_colorings, construct,
                                  min_size, reduction_bijection)
from bihyper.minimality import (VERDICT_NONE, VERDICT_WITNESS, certify_lower_bound,
                                enumerate_bi_hypergraphs)
from bihyper.model import build_hypergraph, check_isomorphism_under_map, is_proper
from bihyper.serialization import parse, serialize

from conftest import brute_force_colorings, random_mixed_hypergraph, stirling_row


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _specs(n1_max: int, sizes) -> list[FeasibleSpec]:
    return [FeasibleSpec(values) for size in sizes
            for values in combinations(range(n1_max, 1, -1), size)]


def test_criterion_1_minimum_size_formula():
    start = time.perf_counter()
    got = (min_size([4, 2]), min_size([3, 2]), min_size([5, 4, 2]))
    elapsed = time.perf_counter() - start
    ok = got == (8, 5, 9)
    _report("criterion 1 (size formula)", ok,
            f"min_size values {got}, expected (8, 5, 9), {elapsed:.4f}s")


def test_criterion_2_construction_sizes():
    start = time.perf_counter()
    failures = []
    specs = _specs(8, sizes=(2, 3, 4))
    for spec in specs:
        if construct(spec, "I").vertex_count != 2 * spec.n1:
            failures.append((spec.values, "I"))
        if construct(spec, "II").vertex_count != 2 * spec.n1 - 1:
            failures.append((spec.values, "II"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    _report("criterion 2 (construction sizes)", ok,
            f"{len(specs)} specs x 2 variants, failures={failures}, {elapsed:.2f}s (budget 1 s)")


def test_criterion_3_one_realizations_at_desk_scale():
    start = time.perf_counter()
    specs = _specs(6, sizes=(2, 3, 4, 5))
    failures = []
    for spec in specs:
        built = construct(spec)
        report = enumerate_strict_colorings(built.hypergraph)
        expected = tuple(sorted(spec.values))
        if not (len(report.colorings) == spec.s
                and set(report.colorings) == set(canonical_colorings(built))
                and report.feasible == expected
                and all(c in (0, 1) for c in report.spectrum.counts)):
            failures.append(spec.values)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    _report("criterion 3 (one-realizations, n1 <= 6)", ok,
            f"{len(specs)} specs, failures={failures}, {elapsed:.2f}s (budget 300 s)")


def test_criterion_4_lower_bound_certification_and_singleton_merge():
    start = time.perf_counter()
    full = certify_lower_bound([3, 2], 4)
    certified = (full.verdict == VERDICT_NONE
                 and full.instances_examined == {3: 2, 4: 16})

    # across the complete v <= 5 stream: every strict
    # coloring with two singleton classes stays strict after merging them
    merges = checked = 0
    merge_ok = True
    for v in (3, 4, 5):
        for h in enumerate_bi_hypergraphs(v):
            checked += 1
            for p in enumerate_strict_colorings(h).colorings:
                singles = [c for c, cl in enumerate(p.classes()) if len(cl) == 1]
                for i in range(len(singles)):
                    for j in range(i + 1, len(singles)):
                        merged = p.merge_classes(singles[i], singles[j])
                        merge_ok &= (is_proper(h, merged)
                                     and merged.class_count == p.class_count - 1)
                        merges += 1
    elapsed = time.perf_counter() - start
    ok = certified and merge_ok and merges > 0 and checked == 2 + 16 + 1024 and elapsed < 10.0
    _report("criterion 4 (lower-bound certification + singleton merges)", ok,
            f"v<=4 exhaustive: none of the 18 instances (2 on 3 vertices, 16 on 4) one-realize {{3,2}}; "
            f"singleton-merge property held on {merges} merges over {checked} instances, {elapsed:.2f}s (budget 10 s)")


def test_criterion_5_reduction_isomorphism():
    start = time.perf_counter()
    results = {}
    for values in ([5, 3, 2], [4, 3, 2]):
        r = reduction_bijection(values)
        results[tuple(values)] = check_isomorphism_under_map(
            r.restricted, r.target.hypergraph, r.bijection)
    elapsed = time.perf_counter() - start
    ok = all(results.values()) and elapsed < 1.0
    _report("criterion 5 (reduction isomorphism)", ok,
            f"coordinate drop is an isomorphism for {results}, {elapsed:.2f}s (budget 1 s)")


def test_criterion_6_enumerator_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20260809)
    mismatches = 0
    for _ in range(200):
        h = random_mixed_hypergraph(rng, v_min=1, v_max=8)
        if list(enumerate_strict_colorings(h).colorings) != brute_force_colorings(h):
            mismatches += 1
    stirling_ok = all(
        enumerate_strict_colorings(build_hypergraph(v)).spectrum.counts == stirling_row(v)
        for v in range(1, 10))
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and stirling_ok and elapsed < 120.0
    _report("criterion 6 (oracle equivalence)", ok,
            f"200 random instances, {mismatches} mismatches; edgeless spectra match "
            f"partition-count rows up to 9 vertices: {stirling_ok}, {elapsed:.2f}s (budget 120 s)")


def test_criterion_7_determinism_and_round_trip():
    start = time.perf_counter()
    round_trip_ok = True
    for spec in _specs(8, sizes=(2, 3, 4)):
        for variant in ("I", "II"):
            built = construct(spec, variant)
            text = serialize(built)
            round_trip_ok &= parse(text) == built and serialize(parse(text)) == text

    # the enumerator is serial and ``threads`` has no effect, so this pins that
    # every accepted threads value gives the same report
    rng = random.Random(7)
    threads_ok = True
    samples = [construct([5, 3, 2]).hypergraph, construct([6, 5, 4]).hypergraph]
    samples += [random_mixed_hypergraph(rng, v_min=3, v_max=7) for _ in range(3)]
    for h in samples:
        threads_ok &= (enumerate_strict_colorings(h)
                       == enumerate_strict_colorings(h, threads=2)
                       == enumerate_strict_colorings(h, threads=4))
    elapsed = time.perf_counter() - start
    ok = round_trip_ok and threads_ok
    _report("criterion 7 (round-trip + determinism)", ok,
            f"serialize/parse identity on all constructed instances: {round_trip_ok}; "
            f"reports identical for threads=1/2/4: {threads_ok}, {elapsed:.2f}s")


def test_criterion_8_exhaustive_lower_bounds_to_six_vertices():
    start = time.perf_counter()
    specs = _specs(6, sizes=(2, 3, 4, 5))
    failures = []
    for spec in specs:
        v_max = min(6, min_size(spec) - 1)
        report = certify_lower_bound(spec, v_max)
        if (report.verdict != VERDICT_NONE
                or report.instances_examined[v_max] != 1 << comb(v_max, 3)):
            failures.append((spec.values, v_max, report.verdict))
    hunt = certify_lower_bound([3, 2], 6, max_witnesses=10 ** 6)
    witnesses_ok = (hunt.verdict == VERDICT_WITNESS and len(hunt.witnesses) == 7140
                    and all(h.vertex_count == 6 and cert.ok for h, cert in hunt.witnesses))
    elapsed = time.perf_counter() - start
    ok = len(specs) == 26 and not failures and witnesses_ok and elapsed < 20.0
    _report("criterion 8 (exhaustive lower bounds to 6 vertices)", ok,
            f"{len(specs)} specs with n1 <= 6 certified-none at min(6, min_size - 1), "
            f"failures={failures}; {len(hunt.witnesses)} six-vertex one-realizations of "
            f"{{3,2}} (expected 7140), {elapsed:.2f}s (budget 20 s)")
