from __future__ import annotations

from itertools import combinations, permutations
from math import comb

import pytest

from bihyper import minimality
from bihyper.colorings import (ChromaticSpectrum, OneRealizationCertificate, chromatic_spectrum,
                               enumerate_strict_colorings, is_one_realization)
from bihyper.construction import construct
from bihyper.minimality import (VERDICT_ABORTED, VERDICT_NONE, VERDICT_WITNESS, _block_passes,
                                _mask_to_hypergraph, _partition_table, _scan_range, _sliced_table,
                                certify_lower_bound)
from conftest import all_bi_hypergraphs, random_mixed_hypergraph, shuffled_copy


class TestStream:
    def test_counts(self):
        # the test-side stream and the scan's masks list the same instances in one order
        for v, total in ((3, 2), (4, 16), (5, 1024)):
            stream = list(all_bi_hypergraphs(v))
            assert len(stream) == total
            assert stream == [_mask_to_hypergraph(v, mask) for mask in range(total)]

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
