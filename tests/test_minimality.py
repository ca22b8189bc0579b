from __future__ import annotations

import sys
from itertools import combinations, permutations
from math import comb
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from bihyper import minimality
from bihyper.colorings import (ChromaticSpectrum, OneRealizationCertificate, chromatic_spectrum,
                               enumerate_strict_colorings, is_one_realization)
from bihyper.construction import FeasibleSpec, construct, min_size
from bihyper.minimality import (METHOD_CLASS_COUNT, METHOD_PROFILE_RULES, METHOD_SCAN,
                                VERDICT_ABORTED, VERDICT_NONE, VERDICT_WITNESS, _block_passes,
                                _mask_to_hypergraph, _method, _partition_table, _profile_rules,
                                _proper_on_a, _scan_range, _sliced_table, certify_lower_bound)
from bihyper.model import Partition
from conftest import all_bi_hypergraphs, random_mixed_hypergraph, shuffled_copy


class TestStream:
    def test_counts(self):
        # the test-side stream and the scan's masks list the same instances in one order
        for v, total in ((3, 2), (4, 16), (5, 1024)):
            stream = list(all_bi_hypergraphs(v))
            assert len(stream) == total
            rebuilt = [_mask_to_hypergraph(v, mask) for mask in range(total)]
            assert stream == rebuilt
            assert all(h.c_edges is h.d_edges for h in rebuilt)

    def test_instances_are_bi_and_3_uniform(self):
        for mask in range(16):
            h = _mask_to_hypergraph(4, mask)
            assert h.is_bi() and set(map(len, h.c_edges)) <= {3} and h.vertex_count == 4

    def test_spectrum_is_isomorphism_invariant(self, rng):
        for _ in range(10):
            h = random_mixed_hypergraph(rng, v_min=3, v_max=6)
            base = chromatic_spectrum(h)
            copy, _ = shuffled_copy(rng, h)
            assert chromatic_spectrum(copy) == base


def _mask_of(h):
    """The stream mask of a 3-uniform bi-hypergraph."""
    triple_index = {t: i for i, t in enumerate(combinations(range(h.vertex_count), 3))}
    return sum(1 << triple_index[e] for e in h.c_edges)


class TestCertify:
    def test_no_small_one_realization_of_three_two(self):
        report = certify_lower_bound([3, 2], 4)
        assert report.verdict == VERDICT_NONE
        assert report.vertex_counts_searched == (3, 4)
        assert report.instances_examined == {3: 2, 4: 16}
        assert report.masks_processed == 18
        assert report.witnesses == []

    def test_hunt_at_formula_size_finds_nothing_for_three_two(self):
        # the formula says 5, but the exhaustive stream refutes attainability
        report = certify_lower_bound([3, 2], 5)
        assert report.verdict == VERDICT_NONE
        assert report.instances_examined[5] == 1024

    def test_hunt_finds_witness_when_stream_reaches_one(self):
        # no valid target is one-realized below 6 vertices, so use the resume
        # cursor to park the v=6 stream right on the verified 6-vertex build
        built = construct([3, 2])
        report = certify_lower_bound([3, 2], 6, resume=(6, _mask_of(built.hypergraph)), budget=1)
        assert report.verdict == VERDICT_WITNESS
        h, cert = report.witnesses[0]
        assert h == built.hypergraph
        assert cert.ok
        fresh = is_one_realization(h, [3, 2])
        assert fresh.ok and fresh.witnesses == cert.witnesses

    def test_budget_abort_and_resume(self):
        full = certify_lower_bound([3, 2], 4)
        partial = certify_lower_bound([3, 2], 4, budget=10)
        assert partial.verdict == VERDICT_ABORTED
        assert partial.masks_processed == 10
        assert partial.cursor == (4, 8)
        resumed = certify_lower_bound([3, 2], 4, resume=partial.cursor)
        assert resumed.verdict == VERDICT_NONE
        merged = {v: partial.instances_examined[v] + resumed.instances_examined[v]
                  for v in full.instances_examined}
        assert merged == full.instances_examined
        assert partial.masks_processed + resumed.masks_processed == full.masks_processed

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_is_refused(self, budget):
        # a budget of 0 used to abort at cursor (3, 0): a resume that never progresses
        with pytest.raises(ValueError, match="budget"):
            certify_lower_bound([3, 2], 4, budget=budget)
        report = certify_lower_bound([3, 2], 4, budget=1)
        assert report.verdict == VERDICT_ABORTED
        assert report.cursor == (3, 1)
        assert report.masks_processed == 1

    @pytest.mark.parametrize("v_max", [2, 0, -1])
    def test_empty_vertex_range_is_refused(self, v_max):
        # used to report certified-none after searching no vertex count
        with pytest.raises(ValueError, match="nothing to search"):
            certify_lower_bound([3, 2], v_max)
        assert certify_lower_bound([3, 2], 3).vertex_counts_searched == (3,)

    def test_default_v_max_is_one_below_formula(self):
        report = certify_lower_bound([3, 2], budget=10_000)
        assert report.vertex_counts_searched == (3, 4)

    def test_witness_stop_counts_to_the_end_of_its_chunk(self):
        # chunks of 4096 masks start at the resume cursor: the first {3,2}
        # witness after 400573 is at 401849, and the search still processes
        # the whole chunk [400573, 404669) before it stops
        report = certify_lower_bound([3, 2], 6, resume=(6, 400573))
        assert report.verdict == VERDICT_WITNESS
        assert report.masks_processed == 4096
        assert report.instances_examined == {3: 0, 4: 0, 5: 0, 6: 4096}
        assert report.cursor is None
        assert [_mask_of(h) for h, cert in report.witnesses] == [401849]
        three = certify_lower_bound([3, 2], 6, resume=(6, 400573), max_witnesses=3)
        assert three.verdict == VERDICT_WITNESS
        assert three.masks_processed == 4096
        assert [_mask_of(h) for h, cert in three.witnesses] == [401849, 402105, 402235]

    def test_witness_in_a_budget_cut_chunk(self):
        # the budget ends the only chunk at 403670, past the witness at 401849
        report = certify_lower_bound([3, 2], 6, resume=(6, 399670), budget=4000)
        assert report.verdict == VERDICT_WITNESS
        assert report.masks_processed == 4000
        assert report.instances_examined[6] == 4000
        assert [_mask_of(h) for h, cert in report.witnesses] == [401849]

    @pytest.mark.parametrize("cursor", [(9, 0), (2, 0), (4, 10 ** 6), (4, 16), (4, -1)])
    def test_resume_cursor_outside_range_is_refused(self, cursor):
        # a cursor past the range used to certify-none after examining nothing
        with pytest.raises(ValueError, match="resume cursor"):
            certify_lower_bound([3, 2], 4, resume=cursor)

    @pytest.mark.parametrize("cursor", [(3,), (3, 0, 0), (4.0, 0), (4, 1.0), (True, 0), (4, "1"),
                                        5, 4.0])
    def test_malformed_resume_cursor_is_refused(self, cursor):
        with pytest.raises(ValueError, match="resume must be a"):
            certify_lower_bound([3, 2], 4, resume=cursor)

    @pytest.mark.parametrize("name,value", [
        ("budget", 10.0), ("budget", True), ("budget", "10"),
        ("v_max", 4.0), ("v_max", True), ("max_witnesses", 1.0), ("max_witnesses", True)])
    def test_non_integer_arguments_are_refused(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            certify_lower_bound([3, 2], **{"v_max": 4, name: value})

    def test_max_witnesses_below_one(self):
        with pytest.raises(ValueError, match="^max_witnesses must be at least 1$"):
            certify_lower_bound([3, 2], 4, max_witnesses=0)

    def test_last_mask_is_a_valid_cursor(self):
        report = certify_lower_bound([3, 2], 4, resume=(4, 15))
        assert report.verdict == VERDICT_NONE
        assert report.instances_examined == {3: 0, 4: 1}


class TestPartitionTable:
    def test_one_row_per_set_partition(self):
        assert [len(_partition_table(v)) for v in (3, 4, 5, 6)] == [5, 15, 52, 203]

    def test_rows_tally_to_the_enumerated_spectrum(self):
        # every instance with v <= 5: 2 + 16 + 1024 = 1042 masks
        checked = 0
        for v in (3, 4, 5):
            table = _partition_table(v)
            for mask, h in enumerate(all_bi_hypergraphs(v)):
                tally = ChromaticSpectrum.from_class_counts(k for bad, k in table if not mask & bad)
                assert tally.counts == enumerate_strict_colorings(h).spectrum.counts
                checked += 1
        assert checked == 1042

    def test_table_hit_the_enumerator_refutes_is_an_error(self, monkeypatch):
        mask = _mask_of(construct([3, 2]).hypergraph)
        refuted = OneRealizationCertificate(False, (2, 3), failure="forced refutation")
        monkeypatch.setattr(minimality, "is_one_realization", lambda h, target: refuted)
        with pytest.raises(AssertionError, match="disagree"):
            certify_lower_bound([3, 2], 6, resume=(6, mask), budget=1)


def _table_says_one_realization(table, mask, wanted):
    """The per-mask table walk the bit-sliced scan replaced, kept as its oracle."""
    seen = set()
    for bad, k in table:
        if not mask & bad:
            if k in seen or k not in wanted:
                return False
            seen.add(k)
    return len(seen) == len(wanted)


# the 26 target sets with n1 <= 6, then single counts: {2} is one-realized by
# 10 masks at v=5, so not every v <= 5 ok-set is empty
TARGETS = [values for size in range(2, 6) for values in combinations(range(6, 1, -1), size)]
SINGLE_COUNTS = [(k,) for k in range(2, 7)]


class TestSlicedScan:
    def test_indicator_marks_offsets_missing_the_low_bad_bits(self):
        for v in (3, 4, 5, 6):
            width, rows = _sliced_table(v)
            assert width == min(comb(v, 3), 12)
            table = _partition_table(v)
            assert len(rows) == len(table)
            for (blocked_high, indicator, k), (bad, k_table) in zip(rows, table):
                assert (blocked_high, k) == (bad >> width, k_table)
                bad_low = bad & ((1 << width) - 1)
                assert indicator < 1 << (1 << width)
                assert all((indicator >> i & 1) == (i & bad_low == 0)
                           for i in range(1 << width))

    def test_ok_sets_match_the_per_mask_walk_up_to_five_vertices(self):
        assert len(TARGETS) == 26
        checked = hits = 0
        for v in (3, 4, 5):
            table = _partition_table(v)
            total = 1 << comb(v, 3)
            assert _sliced_table(v)[0] == total.bit_length() - 1  # one block holds them all
            for values in TARGETS + SINGLE_COUNTS:
                expected = sum(1 << mask for mask in range(total)
                               if _table_says_one_realization(table, mask, set(values)))
                assert _block_passes(v, 0, values) == expected, (v, values)
                checked += total
                hits += expected.bit_count()
        assert checked == 1042 * (26 + 5)
        assert hits == 10  # the v=5 one-realizations of {2}

    @pytest.mark.parametrize("values", [(3, 2), (4, 2), (4, 3, 2), (5, 3), (6, 4, 2), (2,), (3,)])
    def test_ok_sets_match_on_unaligned_six_vertex_ranges(self, values):
        table = _partition_table(6)
        built = _mask_of(construct([3, 2]).hypergraph)
        for start, stop in ((4095, 4097), (1, 8193), (built - 5000, built + 3001),
                            ((1 << 20) - 4097, (1 << 20) - 1)):
            found = _scan_range(6, start, stop, values)
            expected = [mask for mask in range(start, stop)
                        if _table_says_one_realization(table, mask, set(values))]
            assert [_mask_of(h) for h, cert in found] == expected
            assert all(cert.ok for h, cert in found)
            if values == (3, 2) and start <= built < stop:
                assert built in expected


class TestWitnessHunt:
    def test_six_vertex_witness_for_three_two_exists(self):
        # the verified construction on 6 vertices is in the v=6 stream; spot
        # it directly rather than walking all 2^20 masks
        built = construct([3, 2])
        assert built.vertex_count == 6
        assert is_one_realization(built.hypergraph, [3, 2]).ok


def _specs_with_n1(n1):
    """Every target set whose largest count is ``n1``: 2**(n1 - 2) - 1 of them."""
    return [FeasibleSpec((n1,) + rest) for size in range(1, n1 - 1)
            for rest in combinations(range(n1 - 1, 1, -1), size)]


def _scan_only(spec, v_max, budget=minimality.DEFAULT_BUDGET, max_witnesses=1):
    """``certify_lower_bound`` without its bounds: every vertex count is scanned mask by mask."""
    examined, witnesses, processed = {}, [], 0
    for v in range(3, v_max + 1):
        examined[v] = 0
        total = 1 << comb(v, 3)
        end = min(total, budget - processed)
        for a in range(0, end, minimality._CHUNK):
            b = min(a + minimality._CHUNK, end)
            witnesses += _scan_range(v, a, b, spec.values)
            examined[v] += b - a
            processed += b - a
            if len(witnesses) >= max_witnesses:
                return VERDICT_WITNESS, examined, processed, witnesses[:max_witnesses], None
        if end < total:
            return VERDICT_ABORTED, examined, processed, witnesses, (v, end)
    return VERDICT_WITNESS if witnesses else VERDICT_NONE, examined, processed, witnesses, None


def _refuted_by_bound(spec, v):
    """Whether the class count or the profile rules, at any ``v``, refute ``spec`` on ``v``."""
    return v < spec.n1 or (v < 2 * spec.n1 and _profile_rules(spec.n1, v) not in spec.values)


class TestBounds:
    def test_rules_agree_with_the_scan_up_to_six_vertices(self):
        cases = [(spec, v) for n1 in range(3, 7) for spec in _specs_with_n1(n1)
                 for v in range(3, 7)]
        assert len(cases) == 104
        refuted = 0
        for spec, v in cases:
            if _refuted_by_bound(spec, v):
                refuted += 1
                assert _scan_range(v, 0, 1 << comb(v, 3), spec.values) == [], (spec, v)
            else:
                # the bounds settle every v below min_size; the rest is the scan's
                assert v >= min_size(spec), (spec, v)
        # all but {3,2} at v=5 (R3 needs 2 absent; only the scan refutes it) and at v=6
        assert refuted == 102
        assert len(_scan_range(6, 0, 1 << 20, (3, 2))) == 7140  # the bounds are no claim here

    def test_methods_by_vertex_count(self):
        assert [_method((4, 2), v) for v in range(3, 9)] == (
            [METHOD_CLASS_COUNT] + [METHOD_SCAN] * 3 + [METHOD_PROFILE_RULES, METHOD_SCAN])
        # R3 at v = 2*n1 - 1 refutes only sets without n1 - 1
        assert _profile_rules(4, 7) == 3 and _profile_rules(4, 6) is None
        assert _method((4, 3), 7) == _method((4, 3, 2), 7) == METHOD_SCAN
        assert _method((5, 3, 2), 9) == METHOD_PROFILE_RULES
        assert _method((5, 4), 8) == METHOD_PROFILE_RULES and _method((5, 4), 9) == METHOD_SCAN

    @pytest.mark.parametrize("v_max", [3, 4, 5, 6])
    def test_reports_equal_a_scan_only_loop(self, v_max):
        # every S with n1 <= 9, the settle workload's population
        for spec in [spec for n1 in range(3, 10) for spec in _specs_with_n1(n1)]:
            report = certify_lower_bound(spec, v_max)
            verdict, examined, processed, witnesses, cursor = _scan_only(spec, v_max)
            assert (report.verdict, report.instances_examined, report.masks_processed,
                    report.witnesses, report.cursor) == (
                        verdict, examined, processed, witnesses, cursor), spec
            assert report.settled_by == {v: _method(spec.values, v) for v in range(3, v_max + 1)}

    def test_default_range_is_settled_for_n1_four_to_ten(self):
        _profile_rules.cache_clear()
        start = perf_counter()
        specs = [spec for n1 in range(4, 11) for spec in _specs_with_n1(n1)]
        reports = [certify_lower_bound(spec) for spec in specs]
        elapsed = perf_counter() - start
        assert len(specs) == 501
        for spec, report in zip(specs, reports):
            counts = tuple(range(3, min_size(spec)))
            assert report.verdict == VERDICT_NONE, spec
            assert report.vertex_counts_searched == counts
            assert report.instances_examined == {v: 1 << comb(v, 3) for v in counts}
            assert report.masks_processed == sum(1 << comb(v, 3) for v in counts)
            assert report.settled_by == {
                v: METHOD_CLASS_COUNT if v < spec.n1 else
                METHOD_SCAN if v <= 6 else METHOD_PROFILE_RULES for v in counts}
        assert elapsed <= 5.0, elapsed

    def test_a_failing_rule_check_raises(self, monkeypatch):
        _profile_rules.cache_clear()
        monkeypatch.setattr(minimality, "_proper_on_a", lambda labels, coloring: False)
        try:
            with pytest.raises(AssertionError, match="fail their check"):
                certify_lower_bound([4, 2])
        finally:
            _profile_rules.cache_clear()

    def test_a_profile_no_rule_matches_raises(self):
        # at v = 2*n1 the profile (2, 2, 2) has no singleton, so no rule applies
        with pytest.raises(AssertionError, match="matches no rule"):
            _profile_rules(3, 6)

    def test_rules_agree_with_a_per_profile_check(self):
        # every (n1, v) the rules can settle up to n1 = 16, against every profile
        cases = [(n1, v) for n1 in range(3, 17) for v in range(max(7, n1), 2 * n1)]
        assert len(cases) == 124
        _profile_rules.cache_clear()
        start = perf_counter()
        for n1, v in cases:
            assert _profile_rules(n1, v) == _profile_rules_oracle(n1, v), (n1, v)
        assert perf_counter() - start <= 2.0

    def test_sixty_four_two_is_settled_fast_from_cold_caches(self):
        for cached in (_profile_rules, _partition_table, _sliced_table, minimality._triples):
            cached.cache_clear()
        start = perf_counter()
        report = certify_lower_bound([64, 2])
        elapsed = perf_counter() - start
        assert report.verdict == VERDICT_NONE
        assert report.vertex_counts_searched == tuple(range(3, 128))
        assert report.settled_by == {v: METHOD_CLASS_COUNT if v < 64 else METHOD_PROFILE_RULES
                                     for v in range(3, 128)}
        assert report.instances_examined[127] == 1 << comb(127, 3)
        assert elapsed < 1.0, elapsed

    def test_repr_prints_counts_past_the_decimal_digit_limit(self):
        # 2**C(46,3) has 4,570 decimal digits: more than str() converts by default
        report = certify_lower_bound([24, 2])
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            text = repr(report)
        finally:
            sys.set_int_max_str_digits(limit)
        assert f"45: {1 << comb(45, 3)}, 46: 2**15180, 47: 2**16215}}" in text
        assert text.startswith("SearchReport(spec=FeasibleSpec(values=(24, 2)), ")
        assert text.endswith(", 47: 'profile-rules'})")

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_class_level_test_matches_the_triple_definition(self, data):
        # p by its labels, so its classes need not be consecutive; p has two or more classes
        labels = data.draw(st.lists(st.integers(0, 4), min_size=2, max_size=9).filter(
            lambda labels: len(set(labels)) >= 2))
        coloring = data.draw(st.lists(st.integers(0, 3), min_size=len(labels),
                                      max_size=len(labels)))
        assert _proper_on_a(labels, coloring) == _two_coloured(_a_of(labels), coloring)


def _profiles(v, parts, largest):
    """The partitions of the integer ``v`` into ``parts`` non-increasing parts <= ``largest``."""
    if parts == 0:
        if v == 0:
            yield ()
        return
    for first in range(min(largest, v - parts + 1), 0, -1):
        for rest in _profiles(v - first, parts - 1, first):
            yield (first,) + rest


def _a_of(labels):
    """``A(p)`` by its definition: each triple of two vertices of one class and one outside it."""
    v = len(labels)
    return [(x, y, z) for x, y in combinations(range(v), 2) if labels[x] == labels[y]
            for z in range(v) if labels[z] != labels[x]]


def _two_coloured(triples, coloring):
    """Whether ``coloring`` gives every triple exactly two colours."""
    return all(len({coloring[x], coloring[y], coloring[z]}) == 2 for x, y, z in triples)


def _merged(labels, a, b):
    return labels[:b] + [labels[a]] + labels[b + 1:]


def _profile_rules_oracle(n1, v):
    """R1-R3 checked on every profile of ``n1`` classes on ``v`` vertices, triple by triple."""
    lacking = None
    for profile in _profiles(v, n1, v):
        labels = [c for c, size in enumerate(profile) for _ in range(size)]
        s = profile.count(1)
        u = v - s
        if s >= 3:
            colorings, k = [_merged(labels, u, u + 1), _merged(labels, u, u + 2)], n1 - 1
        elif s in (1, 2) and set(profile[:-s]) == {2}:
            split = [x % 2 for x in range(u)] + [0] * s
            colorings, k = [split, split[:-1] + [1]], 2
        elif s == 2 and profile[0] == 3 and set(profile[1:-2]) <= {2}:
            colorings, k, lacking = [_merged(labels, v - 2, v - 1)], n1 - 1, n1 - 1
        else:
            raise AssertionError(f"profile {profile} matches no rule")
        a_p = _a_of(labels)
        assert len({Partition(c) for c in colorings}) == len(colorings), profile
        assert {Partition(c).class_count for c in colorings} == {k}, profile
        assert all(_two_coloured(a_p, c) for c in colorings), profile
    return lacking


class TestBoundBudget:
    def test_bounds_consume_no_budget(self):
        # used to abort at cursor (3, 1): every v here is below n1 = 9
        report = certify_lower_bound([9, 2], 5, budget=1)
        assert report.verdict == VERDICT_NONE
        assert report.masks_processed == 1042
        assert set(report.settled_by.values()) == {METHOD_CLASS_COUNT}

    def test_budget_counts_masks_scanned(self):
        report = certify_lower_bound([4, 2], budget=1)
        assert report.verdict == VERDICT_ABORTED
        assert report.cursor == (4, 1)
        assert report.instances_examined == {3: 2, 4: 1, 5: 0, 6: 0, 7: 0}
        assert report.masks_processed == 3
        assert report.settled_by == {3: METHOD_CLASS_COUNT, 4: METHOD_SCAN}
        resumed = certify_lower_bound([4, 2], resume=report.cursor)
        assert resumed.verdict == VERDICT_NONE
        assert report.masks_processed + resumed.masks_processed == sum(
            1 << comb(v, 3) for v in range(3, 8))

    @pytest.mark.parametrize("spec,v_max,cursor,method", [
        ([4, 2], 7, (7, 5), METHOD_PROFILE_RULES), ([9, 2], 5, (4, 3), METHOD_CLASS_COUNT)])
    def test_resume_inside_a_settled_range_covers_its_rest(self, spec, v_max, cursor, method):
        v, mask = cursor
        report = certify_lower_bound(spec, v_max, resume=cursor, budget=1)
        assert report.verdict == VERDICT_NONE
        assert report.instances_examined[v] == (1 << comb(v, 3)) - mask
        assert report.masks_processed == sum(report.instances_examined.values())
        assert report.settled_by[v] == method and min(report.settled_by) == v
