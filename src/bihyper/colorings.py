"""Exhaustive enumeration of strict colorings, spectra and feasible sets.

The search assigns vertices depth-first in a fixed order.  Each vertex
takes either a class already in use or the single next fresh class, so
every set partition is generated exactly once regardless of class
relabeling.  Each edge is checked exactly once, when the last of its
vertices in the order is assigned: at that depth the edges it closes narrow
the vertex's candidate classes to a bitmask.  A C-edge whose other vertices
lie in pairwise distinct classes restricts the vertex to those classes (for
a 2-vertex C-edge, to its partner's class); a D-edge whose other vertices
all share class x forbids x.  For a 3-vertex bi-edge with others in classes
a and b this reads: a == b forbids a, otherwise the vertex must take a or
b, which rules out exactly the monochromatic and rainbow assignments.  The
paper's constructions, 3-uniform bi-hypergraphs, have only such edges: for
them each depth keeps its closing edges as a list of ``(a, b)`` vertex pairs
with a kernel of its own, which returns 0 as soon as a pair empties the
mask.  Any other hypergraph takes the general loop, and pays nothing for
the pair kernel.  The classes left in the mask are tried in ascending order
by an iterative walk with an explicit stack, so search depth is not bounded
by Python's recursion limit.  ``nodes_explored`` counts the classes offered
at every visited depth, pruned or not.

Correctness is independent of the vertex order; the default order
(descending edge degree, ties by index) just makes the pruning bite early.
The search's labels are restricted-growth in search order, not in index
order, so a k-coloring's labels are ``0..k-1``.  A report is built one
last-level parent at a time: a parent assigns every vertex but the last one
in the order, ``u``, whose allowed classes are its leaves.  The parent is
copied to ``bytes`` with the hole byte 255 at ``u`` (labels are below n, so
a byte holds them when n <= 256; larger n takes the lazy per-leaf path).
Its classes by first vertex in index order, the hole among them, form its
pattern, one longer than its class count.  For each (pattern, allowed
classes) pair, and few occur, one 256-byte table per allowed class ``x``
ranks the leaf's classes ``0, 1, ...`` and sends the hole to the rank of
``x``, so one C-level ``translate`` gives each leaf's canonical
restricted-growth form in index order.  The spectrum is tallied per parent.
Colorings are reported sorted by their encodings (for equal-length
``bytes`` memcmp order is tuple order), so reports are deterministic; only
the kept rows become tuples and Partitions.  A spectrum-only call
(``limit=0``) tallies the parents and builds no row.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain

from .model import (MixedHypergraph, Partition, _canonical_partition, _canonical_partitions,
                    _Record)

_HOLE = 255  # the last vertex's byte in a parent's labels


class ChromaticSpectrum(_Record):
    """Counts of strict colorings per class count.

    ``counts[k-1]`` is the number of strict k-colorings, as unordered
    partitions.  Trailing zeros are trimmed, so the vector length is the
    upper chromatic number; a hypergraph with no strict coloring at all has
    an empty vector.
    """

    counts: tuple[int, ...]

    def __init__(self, counts: Iterable[int]) -> None:
        counts = tuple(counts)
        if any(c < 0 for c in counts):
            raise ValueError("spectrum counts must be nonnegative")
        while counts and counts[-1] == 0:
            counts = counts[:-1]
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_class_counts(cls, class_counts: Iterable[int]) -> "ChromaticSpectrum":
        tally = Counter(class_counts)
        return cls(tuple(tally[k] for k in range(1, max(tally, default=0) + 1)))

    @property
    def upper_chromatic(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def feasible(self) -> tuple[int, ...]:
        return tuple(k for k, c in enumerate(self.counts, start=1) if c > 0)

    def r(self, k: int) -> int:
        return self.counts[k - 1] if 1 <= k <= len(self.counts) else 0


class EnumerationReport(_Record):
    """Every strict coloring of a hypergraph, plus derived aggregates.

    ``colorings`` holds canonical partitions in lexicographic encoding
    order; when a collection limit was given it may be a prefix of the full
    list, but ``spectrum`` always counts everything.
    """

    colorings: tuple[Partition, ...]
    spectrum: ChromaticSpectrum
    feasible: tuple[int, ...]
    nodes_explored: int

    def __init__(self, colorings, spectrum, feasible, nodes_explored) -> None:
        object.__setattr__(self, "colorings", colorings)
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "feasible", feasible)
        object.__setattr__(self, "nodes_explored", nodes_explored)


class _Searcher:
    """Backtracking state: one instance per (hypergraph, vertex order)."""

    def __init__(self, h: MixedHypergraph, order: Sequence[int]):
        self.n = h.vertex_count
        self.order = tuple(order)
        depth_of = [0] * self.n
        for depth, v in enumerate(self.order):
            depth_of[v] = depth
        # closing[d]: the edges whose last vertex in the order sits at depth d, as
        # (other vertices, is_c, is_d), or as the pair of other vertices if bi_3_uniform
        self.closing: list[list[tuple]] = [[] for _ in self.order]
        self.bi_3_uniform = h.is_bi() and h.is_3_uniform()
        if self.bi_3_uniform:
            for a, b, c in h.c_edges:
                da, db, dc = depth_of[a], depth_of[b], depth_of[c]
                pair = (a, b) if dc > da and dc > db else (a, c) if db > da else (b, c)
                self.closing[max(da, db, dc)].append(pair)
        else:
            merged: dict[tuple[int, ...], list[bool]] = {}
            for e in h.c_edges:
                merged.setdefault(e, [False, False])[0] = True
            for e in h.d_edges:
                merged.setdefault(e, [False, False])[1] = True
            for e, (is_c, is_d) in merged.items():
                last = max(e, key=depth_of.__getitem__)
                others = tuple(u for u in e if u != last)
                self.closing[depth_of[last]].append((others, is_c, is_d))
        self.labels = [-1] * self.n
        self.nodes = 0

    def _kernel(self) -> Callable[[int, int], int]:
        """The mask function for this hypergraph's form of ``closing``."""
        return self._pair_allowed if self.bi_3_uniform else self._allowed

    def _allowed(self, depth: int, used: int) -> int:
        """Bitmask of the classes ``0..used`` that the edges closing at ``depth`` permit."""
        labels = self.labels
        allowed = (2 << used) - 1
        for others, is_c, is_d in self.closing[depth]:
            if len(others) == 2:
                la = labels[others[0]]
                lb = labels[others[1]]
                if la == lb:
                    if is_d:
                        allowed &= ~(1 << la)
                elif is_c:
                    allowed &= (1 << la) | (1 << lb)
                continue
            seen = 0
            for u in others:
                seen |= 1 << labels[u]
            if is_c and seen.bit_count() == len(others):
                allowed &= seen
            if is_d and not seen & (seen - 1):
                allowed &= ~seen
        return allowed

    def _pair_allowed(self, depth: int, used: int) -> int:
        """``_allowed`` when every closing edge is a 3-vertex bi-edge, kept as a pair."""
        labels = self.labels
        allowed = (2 << used) - 1
        for a, b in self.closing[depth]:
            la = labels[a]
            lb = labels[b]
            if la == lb:
                allowed &= ~(1 << la)
            else:
                allowed &= (1 << la) | (1 << lb)
            if not allowed:
                return 0
        return allowed

    def walk(self, stop: int | None = None) -> Iterator[list[int]]:
        """Yield ``self.labels`` at every proper assignment of the first ``stop`` vertices.

        The yielded list is live: it changes as the walk resumes.
        """
        order, labels, allowed_at = self.order, self.labels, self._kernel()
        stop = self.n if stop is None else stop
        depth = used = 0
        nodes = 1
        candidates = [0] * stop
        used_at = [0] * stop
        candidates[0] = allowed_at(0, 0)
        while depth >= 0:
            mask = candidates[depth]
            if not mask:
                depth -= 1
                continue
            low = mask & -mask
            candidates[depth] = mask ^ low
            c = low.bit_length() - 1
            labels[order[depth]] = c
            used = used_at[depth]
            if c == used:
                used += 1
            if depth + 1 == stop:
                self.nodes += nodes
                nodes = 0
                yield labels
                continue
            depth += 1
            nodes += used + 1
            candidates[depth] = allowed_at(depth, used)
            used_at[depth] = used
        self.nodes += nodes

    def leaves(self, collect: bool = True) -> tuple[list[int], list[bytes]]:
        """``counts[k]``, the number of k-colorings, and the colorings' rows.

        The rows are canonical labels as ``bytes``, built only if
        ``collect`` (which needs n <= 256), one ``translate`` per leaf.
        """
        n = self.n
        counts = [0] * (n + 1)
        rows: list[bytes] = []
        cache: dict[tuple[bytes, int], list[bytes]] = {}
        allowed_at = self._kernel()
        self.labels[self.order[-1]] = _HOLE if collect else -1
        for labels in self.walk(n - 1) if n > 1 else (self.labels,):
            if collect:
                holed = bytes(labels)
                pattern = bytes(dict.fromkeys(holed))
                used = len(pattern) - 1
            else:
                used = max(labels) + 1
            mask = allowed_at(n - 1, used)
            self.nodes += used + 1
            fresh = mask >> used  # 1 if the last vertex may open class ``used``
            counts[used] += mask.bit_count() - fresh
            counts[used + 1] += fresh
            if collect:
                tables = cache.get((pattern, mask))
                if tables is None:
                    tables = cache[pattern, mask] = _leaf_tables(pattern, mask)
                rows.extend(map(holed.translate, tables))
        return counts, rows

    def canonical(self) -> Iterator[tuple[int, ...]]:
        """Yield the labels of every coloring, one at a time, in canonical form.

        Each yielded tuple is the restricted-growth encoding in vertex index
        order, exactly what ``Partition(labels).labels`` would hold, so it
        may be wrapped by ``model._canonical_partition`` unchecked.  The
        classes of a leaf, listed by first appearance in index order, pick a
        table, cached per pattern for this walk, that ranks them ``0, 1, ...``.
        """
        ranks: dict[tuple[int, ...], Callable[[int], int]] = {}
        for labels in self.walk():
            first = tuple(dict.fromkeys(labels))
            rank = ranks.get(first)
            if rank is None:
                rank = ranks[first] = _rank_table(first).__getitem__
            yield tuple(map(rank, labels))

    def colorings(self) -> Iterator[Partition]:
        """Every strict coloring, lazily, in search order."""
        return map(_canonical_partition, self.canonical())


def default_vertex_order(h: MixedHypergraph) -> tuple[int, ...]:
    """Descending edge degree, ties by index."""
    edges = h.c_edges if h.c_edges == h.d_edges else set(h.c_edges) | set(h.d_edges)
    degree = Counter(chain.from_iterable(edges))
    # a reverse sort is stable, so equal degrees stay in index order
    return tuple(sorted(range(h.vertex_count), key=degree.__getitem__, reverse=True))


def _resolve_order(h: MixedHypergraph, order: Sequence[int] | None) -> tuple[int, ...]:
    if order is None:
        return default_vertex_order(h)
    order = tuple(order)
    if sorted(order) != list(range(h.vertex_count)):
        raise ValueError("order must be a permutation of the vertex indices")
    return order


def iter_strict_colorings(h: MixedHypergraph,
                          order: Sequence[int] | None = None) -> Iterator[Partition]:
    """Lazily yield strict colorings in search order; each partition appears exactly once."""
    if h.vertex_count == 0:
        return iter(())
    return _Searcher(h, _resolve_order(h, order)).colorings()


def _rank_table(first: Sequence[int]) -> list[int]:
    """``table[c]`` is the rank of class ``c`` in ``first``, a leaf's classes by first vertex."""
    table = [0] * len(first)
    for i, c in enumerate(first):
        table[c] = i
    return table


def _leaf_tables(pattern: bytes, mask: int) -> list[bytes]:
    """Per class ``x`` in ``mask``, ascending: the table that ranks the classes
    of ``pattern`` with the hole set to ``x``, and sends the hole to ``x``'s rank."""
    tables = []
    for x in range(mask.bit_length()):
        if mask >> x & 1:
            first = bytes(dict.fromkeys(pattern.replace(bytes((_HOLE,)), bytes((x,)))))
            table = bytearray(_rank_table(first)).ljust(256, b"\0")
            table[_HOLE] = table[x]
            tables.append(bytes(table))
    return tables


def enumerate_strict_colorings(h: MixedHypergraph,
                               limit: int | None = None,
                               order: Sequence[int] | None = None,
                               threads: int = 1) -> EnumerationReport:
    """Enumerate all strict colorings of ``h`` as canonical set partitions.

    Parameters
    ----------
    h:
        Normalized mixed hypergraph.
    limit:
        Caps how many colorings are collected in the report; counting for
        the spectrum always covers everything.  ``0`` counts only, and
        builds no coloring at all; a negative value is refused.
    order:
        Optional vertex order override; any permutation yields the same
        coloring set.
    threads:
        Accepted and validated (an ``int`` of at least 1), with no effect:
        the search is serial.  It is kept only for the benchmark's
        ``colorings.parallel_speedup`` probe, until that metric is dropped.
    """
    if limit is not None and type(limit) is not int:
        raise ValueError(f"limit must be an integer or None, got {limit!r}")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    if type(threads) is not int:
        raise ValueError(f"threads must be an integer, got {threads!r}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    n = h.vertex_count
    if n == 0:
        return EnumerationReport((), ChromaticSpectrum(()), (), 0)
    resolved = _resolve_order(h, order)
    collect = limit != 0 and n <= 256
    searcher = _Searcher(h, resolved)
    counts, rows = searcher.leaves(collect=collect)
    if limit != 0 and n > 256:  # labels above 255 do not fit a byte
        rows = list(_Searcher(h, resolved).canonical())
    rows.sort()
    if limit is not None:
        del rows[limit:]
    if collect:
        rows = list(map(tuple, rows))
    spectrum = ChromaticSpectrum(tuple(counts[1:]))
    return EnumerationReport(_canonical_partitions(rows), spectrum, spectrum.feasible,
                             searcher.nodes)


def chromatic_spectrum(h: MixedHypergraph) -> ChromaticSpectrum:
    return enumerate_strict_colorings(h, limit=0).spectrum


def feasible_set(h: MixedHypergraph) -> tuple[int, ...]:
    return enumerate_strict_colorings(h, limit=0).feasible


class OneRealizationCertificate(_Record):
    """Outcome of a one-realization check, with the evidence that decides it.

    On success ``witnesses`` holds exactly one strict coloring per target
    class count.  On failure ``failure`` describes the first violation
    found and ``counterexamples`` carries the partitions exhibiting it
    (two colorings with the same class count, or one with a class count
    outside the target set; empty when a target count is simply missing).
    """

    ok: bool
    target: tuple[int, ...]
    witnesses: tuple[Partition, ...]
    failure: str | None
    counterexamples: tuple[Partition, ...]

    def __init__(self, ok, target, witnesses=(), failure=None, counterexamples=()) -> None:
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "witnesses", witnesses)
        object.__setattr__(self, "failure", failure)
        object.__setattr__(self, "counterexamples", counterexamples)

    def __bool__(self) -> bool:
        return self.ok


def is_one_realization(h: MixedHypergraph, target: Iterable[int],
                       order: Sequence[int] | None = None) -> OneRealizationCertificate:
    """Whether the feasible set of ``h`` is exactly ``target`` with one coloring per count.

    The enumeration stops as soon as a refutation is certain: a second
    coloring at some class count, or any coloring whose class count lies
    outside the target set.
    """
    wanted = set(target)
    if not wanted or not set(map(type, wanted)) <= {int} or min(wanted) < 1:
        raise ValueError("target must be a nonempty set of integers >= 1")
    goal = tuple(sorted(wanted))
    seen: dict[int, Partition] = {}
    for p in iter_strict_colorings(h, order):
        k = p.class_count
        if k not in wanted:
            return OneRealizationCertificate(
                False, goal,
                failure=f"a strict {k}-coloring exists but {k} is not in the target set",
                counterexamples=(p,))
        if k in seen:
            return OneRealizationCertificate(
                False, goal,
                failure=f"two distinct strict {k}-colorings exist",
                counterexamples=(seen[k], p))
        seen[k] = p
    missing = [k for k in goal if k not in seen]
    if missing:
        return OneRealizationCertificate(
            False, goal,
            failure=f"no strict k-coloring exists for k in {missing}")
    return OneRealizationCertificate(
        True, goal, witnesses=tuple(seen[k] for k in goal))
