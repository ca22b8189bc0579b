"""Exhaustive search for one-realizations among small 3-uniform bi-hypergraphs.

Every 3-uniform bi-hypergraph on ``v`` vertices is a subset of the
``C(v,3)`` vertex triples, encoded as a bitmask over the lexicographically
sorted triple list.  Only ``certify_lower_bound`` is public: a mask becomes
a hypergraph only when the table below says it may be a one-realization.

Two bounds settle every mask of a vertex count ``v`` at once, for ``S``
with largest count ``n1``.  The class count (any ``v``): below ``n1``
vertices no partition has ``n1`` classes.  The profile rules (``7 <= v <=
2*n1 - 1``) rest on a lemma: if ``M`` one-realizes ``S`` with
``n1``-coloring ``p``, every edge of ``M`` lies in ``A(p)``, the triples
``p`` 2-colours (two vertices of one class, one of another), so every
strict coloring of ``A(p)`` is one of ``M``; two with one count, or one
with a count outside ``S``, refute ``S``.  The profile of ``p`` (its class
sizes, non-increasing) has ``s >= 1`` singletons and ``e = v + s - 2*n1
<= s - 1`` vertices beyond one pair per larger class.  R1 (``s >= 3``):
merging the first singleton with the second, or with the third, gives two
``(n1-1)``-colorings.  R2 (``s <= 2``, ``e = 0``): two 2-colorings split
every pair and place the last singleton apart.  R3 (``s = 2``, ``e = 1``):
merging the singletons gives an ``(n1-1)``-coloring, which refutes ``S``
exactly when ``n1 - 1`` is not in ``S``.  R2 and R3 have one profile each,
and an R1 merge keeps every larger class alone in its colour, so each
``s`` is checked once, on ``(2 + e, 2, ..., 2, 1, ..., 1)``, by one count
per class and colour: a coloring is proper on ``A(p)`` exactly when no
colour repeated in a class occurs outside it, and a class shows two
colours only if the coloring has two in all.  A profile no rule covers,
or a failed check, raises.

Every other ``v``, and every ``v <= 6``, is scanned mask by mask.
Certification is bit-sliced over a table built once per ``v``: one row per
set partition of the ``v`` vertices (the strict colorings of the edgeless
hypergraph, from the search kernel itself), holding its class count and a
bitmask of the triples it does not 2-colour (the rainbow and the
monochromatic ones).  A partition is a strict coloring of mask ``M`` exactly
when ``M`` misses that bitmask.  The masks of an aligned block of up to
``2**12`` instances become the bit positions of one integer; each row colours
either none of them or exactly those in a precomputed subset indicator, so a
few big-integer operations per row find, for the whole block at once, the
instances with no out-of-target coloring and one coloring per target count.
Each of those is rebuilt as a hypergraph and certified again by
``is_one_realization``; only that enumerator's certificate is ever reported.

A bound-settled ``v`` is counted in ``instances_examined`` and
``masks_processed`` as a scan of it would be, but only scanned masks count
against the budget.  Runs are resumable from a ``(v, mask)`` cursor.  The
scan is serial, in chunks of ``2**12`` masks counted from the start cursor;
a witness hunt stops at the end of the chunk that reaches its quota, so
``masks_processed`` counts that whole chunk.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from functools import cache
from itertools import combinations
from math import comb

from .colorings import OneRealizationCertificate, is_one_realization, iter_strict_colorings
from .construction import FeasibleSpec, min_size
from .model import MixedHypergraph, Partition, _normalized_hypergraph, _Record

DEFAULT_BUDGET = 10_000_000
_CHUNK = 4096

VERDICT_NONE = "certified-none"
VERDICT_WITNESS = "witness-found"
VERDICT_ABORTED = "aborted-budget"

METHOD_SCAN = "mask-scan"
METHOD_CLASS_COUNT = "class-count"
METHOD_PROFILE_RULES = "profile-rules"


@cache
def _triples(v: int) -> tuple[tuple[int, int, int], ...]:
    return tuple(combinations(range(v), 3))


def _mask_to_hypergraph(v: int, mask: int) -> MixedHypergraph:
    family = tuple(t for i, t in enumerate(_triples(v)) if mask >> i & 1)
    return _normalized_hypergraph(v, family, family)  # combinations emits sorted triples


class SearchReport(_Record):
    """Outcome of a lower-bound certification or witness hunt; mutable, so unhashable.

    ``settled_by`` maps each vertex count the run reached to how it was
    covered: ``"mask-scan"``, ``"class-count"`` or ``"profile-rules"``.
    """

    spec: FeasibleSpec
    vertex_counts_searched: tuple[int, ...]
    instances_examined: dict[int, int]
    witnesses: list[tuple[MixedHypergraph, OneRealizationCertificate]]
    verdict: str
    masks_processed: int
    cursor: tuple[int, int] | None
    settled_by: dict[int, str]

    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, spec, vertex_counts_searched, instances_examined, witnesses, verdict,
                 masks_processed, cursor=None, settled_by=None) -> None:
        self.spec = spec
        self.vertex_counts_searched = vertex_counts_searched
        self.instances_examined = instances_examined
        self.witnesses = witnesses
        self.verdict = verdict
        self.masks_processed = masks_processed
        self.cursor = cursor
        self.settled_by = {} if settled_by is None else settled_by

    def __repr__(self) -> str:
        # counts past the decimal digit limit of str print as the CLI prints them
        fields = dict(zip(self.__match_args__, self._values(self)))
        fields["instances_examined"] = {v: _Bare(_count(n))
                                        for v, n in self.instances_examined.items()}
        fields["masks_processed"] = _Bare(_count(self.masks_processed))
        return f"SearchReport({', '.join(map('{}={!r}'.format, fields, fields.values()))})"


def _count(n: int) -> str:
    """``n`` in decimal, or as ``2**k - d`` when ``str`` refuses that many digits."""
    try:
        return str(n)
    except ValueError:
        k = (n - 1).bit_length()  # the least k with n <= 2**k
        if n == 1 << k:
            return f"2**{k}"
        rest = _count((1 << k) - n)
        return f"2**{k} - {rest}" if rest.isdigit() else f"2**{k} - ({rest})"


class _Bare(str):
    """Text that a container's ``repr`` shows without quotes."""

    __repr__ = str.__str__


@cache
def _partition_table(v: int) -> tuple[tuple[int, int], ...]:
    """``(bad_mask, class_count)`` for every set partition of ``v`` vertices, cached per ``v``.

    Bit ``i`` of ``bad_mask`` is set when the partition leaves triple ``i``
    rainbow or monochromatic, i.e. fails to 2-colour it.
    """
    triples = _triples(v)
    rows = []
    for p in iter_strict_colorings(MixedHypergraph(v, (), ())):
        labels = p.labels
        bad = 0
        for i, (a, b, c) in enumerate(triples):
            if len({labels[a], labels[b], labels[c]}) != 2:
                bad |= 1 << i
        rows.append((bad, p.class_count))
    return tuple(rows)


@cache
def _sliced_table(v: int) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """``(width, rows)`` for scanning aligned blocks of ``2**width`` masks, cached per ``v``.

    Row ``(blocked_high, indicator, k)`` mirrors partition-table row ``(bad, k)``:
    in the block of masks with ``mask >> width == H`` the partition colours
    none when ``H & blocked_high``, else exactly the offsets ``i`` set in
    ``indicator``, those with ``i & bad == 0``.
    """
    width = min(comb(v, 3), _CHUNK.bit_length() - 1)
    rows = []
    for bad, k in _partition_table(v):
        indicator = 1
        for i in range(width):
            if not bad >> i & 1:
                indicator |= indicator << (1 << i)
        rows.append((bad >> width, indicator, k))
    return width, tuple(rows)


def _block_passes(v: int, high: int, values: tuple[int, ...]) -> int:
    """Bitset of the offsets in block ``high`` that the table says one-realize ``values``."""
    once, twice, fail = dict.fromkeys(values, 0), dict.fromkeys(values, 0), 0
    for blocked_high, indicator, k in _sliced_table(v)[1]:
        if high & blocked_high:
            continue
        if k in once:
            twice[k] |= once[k] & indicator
            once[k] |= indicator
        else:
            fail |= indicator
    passes = ~fail
    for k in values:
        passes &= once[k] & ~twice[k]
    return passes


def _scan_range(v: int, start: int, stop: int, values: tuple[int, ...]
                ) -> list[tuple[MixedHypergraph, OneRealizationCertificate]]:
    """Check masks in [start, stop) block by block; returns the certified witnesses by mask."""
    width = _sliced_table(v)[0]
    witnesses = []
    for base in range(start >> width << width, stop, 1 << width):
        live = (1 << min(stop, base + (1 << width)) - base) - (1 << max(start, base) - base)
        hits = _block_passes(v, base >> width, values) & live
        while hits:
            mask = base + (hits & -hits).bit_length() - 1
            hits &= hits - 1
            h = _mask_to_hypergraph(v, mask)
            cert = is_one_realization(h, values)
            if not cert.ok:
                raise AssertionError(
                    f"partition table and enumerator disagree on v={v} mask={mask}: "
                    f"{cert.failure}")
            witnesses.append((h, cert))
    return witnesses


def _proper_on_a(labels: list[int], coloring: list[int]) -> bool:
    """Whether ``coloring`` is proper on ``A(p)``; ``p`` has ``labels`` and two or more classes."""
    total = Counter(coloring)
    inside = Counter(zip(labels, coloring))  # the vertices of each (class, colour)
    # a class may show two colours only in a 2-coloring; a repeated one occurs nowhere else
    return ((len(total) <= 2 or len(inside) == len(set(labels)))
            and all(n == 1 or total[c] == n for (_, c), n in inside.items()))


def _merged(labels: list[int], a: int, b: int) -> list[int]:
    return labels[:b] + [labels[a]] + labels[b + 1:]


@cache
def _profile_rules(n1: int, v: int) -> int | None:
    """Refute by R1-R3 every profile of an ``n1``-coloring of ``v <= 2*n1 - 1`` vertices.

    Returns ``n1 - 1`` when the R3 profile occurs, so the refutation holds
    only for target sets without ``n1 - 1``, else ``None``.  Raises
    ``AssertionError`` when a profile matches no rule or a rule's colorings
    are not distinct, proper on ``A(p)`` and of the rule's class count.
    """
    lacking = None
    for s in range(max(0, 2 * n1 - v), n1 + (v == n1)):  # the s that some profile has
        e = v + s - 2 * n1
        profile = [2] * (n1 - s) + [1] * s
        profile[0] += e
        labels = [c for c, size in enumerate(profile) for _ in range(size)]
        u = v - s  # the first singleton
        if s >= 3:  # R1
            colorings, k = [_merged(labels, u, u + 1), _merged(labels, u, u + 2)], n1 - 1
        elif s and not e:  # R2
            split = [x % 2 for x in range(u)] + [0] * s
            colorings, k = [split, split[:-1] + [1]], 2
        elif s == 2 and e == 1:  # R3
            colorings, k, lacking = [_merged(labels, v - 2, v - 1)], n1 - 1, n1 - 1
        else:
            raise AssertionError(f"profile {tuple(profile)} of {n1} classes on {v} vertices "
                                 f"matches no rule")
        partitions = set(map(Partition, colorings))
        if not (len(partitions) == len(colorings) and {p.class_count for p in partitions} == {k}
                and all(_proper_on_a(labels, c) for c in colorings)):
            raise AssertionError(f"the rule's colorings fail their check on profile "
                                 f"{tuple(profile)} of {n1} classes on {v} vertices")
    return lacking


def _method(values: tuple[int, ...], v: int) -> str:
    """How ``v`` vertices are covered for the target ``values``: by a bound, or by the scan."""
    n1 = values[0]
    if v < n1:
        return METHOD_CLASS_COUNT
    # up to 6 vertices the scan is cheap, so it stays the independent check there
    if 7 <= v < 2 * n1 and _profile_rules(n1, v) not in values:
        return METHOD_PROFILE_RULES
    return METHOD_SCAN


def certify_lower_bound(spec: FeasibleSpec | Iterable[int], v_max: int | None = None, *,
                        budget: int = DEFAULT_BUDGET,
                        resume: tuple[int, int] | None = None,
                        max_witnesses: int = 1) -> SearchReport:
    """Search every 3-uniform bi-hypergraph on 3..v_max vertices for one-realizations.

    A ``v_max`` below the known optimum certifies the lower bound when the
    verdict is ``certified-none``; running at the optimum instead hunts for
    witnesses.  A vertex count below ``max(spec)``, or one from 7 to
    ``2*max(spec) - 1`` that the profile rules refute, is settled whole
    without a scan, and ``settled_by`` names the method used for each.  The
    budget counts masks scanned; exceeding it aborts with a resumable
    ``(v, mask)`` cursor.  A ``budget``, ``v_max`` or ``max_witnesses`` that
    is not an ``int``, a ``resume`` that is not a tuple or list of two
    ``int``s, a budget below 1, a ``v_max`` below 3 (an empty search range)
    and a ``resume`` cursor outside the search range raise ``ValueError``.
    The search stops at the end of the chunk in which ``max_witnesses``
    one-realizations are in hand.
    """
    spec = FeasibleSpec.of(spec)
    if v_max is None:
        v_max = min_size(spec) - 1
    for name, value in (("max_witnesses", max_witnesses), ("budget", budget), ("v_max", v_max)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if max_witnesses < 1:
        raise ValueError("max_witnesses must be at least 1")
    if budget < 1:
        raise ValueError(f"budget must be at least 1 mask, got {budget}")
    if v_max < 3:
        raise ValueError(f"max vertex count {v_max} leaves nothing to search: "
                         f"3-uniform instances start at 3 vertices")
    counts = tuple(range(3, v_max + 1))
    if resume is None:
        start_v, start_mask = 3, 0
    elif (not isinstance(resume, (tuple, list)) or len(resume) != 2
          or not set(map(type, resume)) <= {int}):
        raise ValueError(f"resume must be a (v, mask) pair of integers, got {resume!r}")
    else:
        start_v, start_mask = resume
        if start_v not in counts:
            raise ValueError(f"resume cursor vertex count {start_v} is outside 3..{v_max}")
        if not 0 <= start_mask < 1 << comb(start_v, 3):
            raise ValueError(f"resume cursor mask {start_mask} is outside "
                             f"[0, 2**{comb(start_v, 3)}) for v={start_v}")
    examined = dict.fromkeys(counts, 0)
    settled_by: dict[int, str] = {}
    witnesses: list[tuple[MixedHypergraph, OneRealizationCertificate]] = []
    scanned = 0
    for v in range(start_v, v_max + 1):
        total = 1 << comb(v, 3)
        start = start_mask if v == start_v else 0
        settled_by[v] = method = _method(spec.values, v)
        if method != METHOD_SCAN:
            examined[v] = total - start
            continue
        end = min(total, start + budget - scanned)
        for a in range(start, end, _CHUNK):
            b = min(a + _CHUNK, end)
            witnesses += _scan_range(v, a, b, spec.values)
            examined[v] += b - a
            scanned += b - a
            if len(witnesses) >= max_witnesses:
                return SearchReport(spec, counts, examined, witnesses[:max_witnesses],
                                    VERDICT_WITNESS, sum(examined.values()), None, settled_by)
        if end < total:
            return SearchReport(spec, counts, examined, witnesses, VERDICT_ABORTED,
                                sum(examined.values()), (v, end), settled_by)
    verdict = VERDICT_WITNESS if witnesses else VERDICT_NONE
    return SearchReport(spec, counts, examined, witnesses, verdict, sum(examined.values()),
                        None, settled_by)
