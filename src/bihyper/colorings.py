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

Correctness is independent of the vertex order; the default order just
makes the pruning bite early.  It closes edges as soon as it can: each
depth takes the unplaced vertex that closes the most edges, then touches
the most edges that hold a placed vertex, then has the highest degree, the
lowest index on ties.  The last depth is reserved for the vertex of least
degree, the highest index on ties, which is the vertex a descending-degree
order puts last; the last-level parents depend only on that vertex.  The
searcher plans this order in the pass that fills the closing lists: each
placement updates only its own edges' ranks, and each depth takes one
C-level ``min`` over the unplaced vertices' ranks, so planning is quadratic
in n, which stays in milliseconds at the sizes the constructions reach.

The search's labels are restricted-growth in search order, not in index
order, so a k-coloring's labels are ``0..k-1``.  There is one walk: it stops
at each last-level parent, which assigns every vertex but the last one in
the order, ``u``, and yields the parent's class count with the mask of
classes ``u`` may take, its leaves, unless that mask is empty.  The lazy
path (``iter_strict_colorings``, ``is_one_realization``) gives ``u`` each
class in the mask, ascending, and builds the public ``Partition``, which
canonicalizes; so it keeps the search order and stops as early as its
caller does.  A report tallies the spectrum per parent and, when it needs
rows, only records the parent: copied to ``bytes`` with the hole byte 255
at ``u`` (labels are below n, so a byte holds them when n <= 256; larger n
takes its rows from one walk of the lazy path, and tallies its spectrum
over them), beside its mask.  After the walk, C-level passes encode all
parents in bulk.  A parent's classes by first vertex in index order, the
hole among them, form its pattern, one longer than its class count.  For
each distinct (pattern, allowed classes) pair, and few occur, one
``bytes.maketrans`` ranks the pattern's classes ``0, 1, ...``, the hole a
class of its own: the fresh class's table.  A merge table joining the
hole's rank to an existing class's makes that class's, so one C-level
``translate`` gives each leaf's canonical restricted-growth form in index
order.  Reports sort colorings by encoding (memcmp order on equal-length
``bytes`` is tuple order), so they are deterministic; only kept rows become
tuples, by one ``iter_unpack``, and Partitions; ``limit=0`` builds no row.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain
from operator import attrgetter
from struct import iter_unpack

from . import model
from .model import MixedHypergraph, Partition, _check_ints, _Record, _unchecked_records

_HOLE = 255  # the last vertex's byte in a parent's labels
_RANKS = bytes(range(256))  # the identity table; its prefixes are ranks 0, 1, ...


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
        _check_ints(counts, "spectrum count")
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
        _check_ints((k,), "class count")
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
    """Backtracking state: one instance per (hypergraph, vertex order).

    Without an ``order`` it plans the edge-closing order of the module
    docstring in the pass that fills ``closing``; ``order`` holds the order
    used either way.  That order is internal: callers fix one with ``order=``.
    """

    def __init__(self, h: MixedHypergraph, order: Sequence[int] | None = None):
        n = self.n = h.vertex_count
        # a bi-hypergraph's families are equal, so its C-edges show 3-uniformity
        self.bi_3_uniform = pairs = h.is_bi() and {3}.issuperset(map(len, h.c_edges))
        # link[v]: the edges of v; as the pair of other vertices if bi_3_uniform,
        # the entry ``closing`` keeps for an edge that v closes
        link: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
        if pairs:
            for a, b, c in h.c_edges:
                link[a].append((b, c))
                link[b].append((a, c))
                link[c].append((a, b))
        else:
            flags: dict[tuple[int, ...], list[bool]] = {}  # edge -> [is_c, is_d]
            for e in h.c_edges:
                flags.setdefault(e, [False, False])[0] = True
            for e in h.d_edges:
                flags.setdefault(e, [False, False])[1] = True
            for e in flags:
                for v in e:
                    link[v].append(e)
        # rank[v] = v - n * (closes * top**2 + touches * top + degree), where v
        # would close ``closes`` edges and touches ``touches`` edges that hold a
        # placed vertex, each at most the degree, below ``top``: the least rank
        # is the vertex to place next.  With a given order nothing reads it
        degree = list(map(len, link))
        top = max(degree, default=0) + 1
        touch = top * n
        close = top * touch
        rank = [v - d * n for v, d in enumerate(degree)]
        placed = [False] * n
        planning = order is None
        if planning:
            # the degree order's last vertex (least degree, highest index) stays
            # last, so the last-level parents are the ones that order has; each
            # other depth takes the least rank over the rest, one C-level ``min``
            # per depth, so planning is quadratic in n
            last = max(range(n), key=rank.__getitem__, default=-1)
            unplaced = set(range(n)) - {last}
            order = []
        # closing[d]: the edges whose last vertex sits at depth d, as the pair of
        # other vertices if bi_3_uniform, else as (others, is_c, is_d)
        closing: list[list[tuple]] = []
        for depth in range(n):
            if not planning:
                v = order[depth]
            else:  # the rest is empty only at the last depth
                v = min(map(rank.__getitem__, unplaced)) % n if unplaced else last
                unplaced.discard(v)
                order.append(v)
            placed[v] = True
            closes = []
            # per edge of v: with every other vertex placed, v closes it; with one
            # left, that one would close it; placed first, v makes the others touch it
            if pairs:
                for pair in link[v]:
                    a, b = pair
                    if placed[a]:
                        if placed[b]:
                            closes.append(pair)
                        else:
                            rank[b] -= close
                    elif placed[b]:
                        rank[a] -= close
                    else:
                        rank[a] -= touch
                        rank[b] -= touch
            else:
                for e in link[v]:
                    free = []
                    for u in e:
                        if not placed[u]:
                            free.append(u)
                    if not free:
                        j = e.index(v)
                        closes.append((e[:j] + e[j + 1:], *flags[e]))
                        continue
                    if len(free) == 1:
                        (u,) = free
                        # in a 2-vertex edge v is also the first placed
                        rank[u] -= close + touch if len(e) == 2 else close
                    elif len(free) == len(e) - 1:
                        for u in free:
                            rank[u] -= touch
            closing.append(closes)
        self.closing = closing
        self.order = tuple(order)
        self.labels = [-1] * n
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

    def walk(self) -> Iterator[tuple[int, int]]:
        """Yield ``(used, mask)`` at every last-level parent with a leaf.

        A last-level parent assigns every vertex but the last one in the
        order; ``used`` is its class count and ``mask``, never 0, the classes
        the last vertex may take.  ``self.labels`` holds the parent, live: it
        changes as the walk resumes, and the last vertex's entry is the
        caller's.
        """
        order, labels, allowed_at = self.order, self.labels, self._kernel()
        last = self.n - 1
        if not last:  # one vertex: the empty assignment is the only parent
            self.nodes += 1
            mask = allowed_at(0, 0)
            if mask:
                yield 0, mask
            return
        depth = used = 0
        nodes = 1
        candidates = [0] * last
        used_at = [0] * last
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
            nodes += used + 1
            if depth + 1 == last:
                mask = allowed_at(last, used)
                if mask:
                    self.nodes += nodes
                    nodes = 0
                    yield used, mask
                continue
            depth += 1
            candidates[depth] = allowed_at(depth, used)
            used_at[depth] = used
        self.nodes += nodes

    def leaves(self, collect: bool = True) -> tuple[list[int], list[bytes]]:
        """``counts[k]``, the number of k-colorings, and the colorings' rows.

        The rows are canonical labels as ``bytes``, built only if
        ``collect`` (which needs n <= 256).  The walk only records each
        parent and its mask; C-level passes then find the patterns, build
        the tables once per distinct (pattern, mask) and each merge table
        once, and ``translate`` every parent by each of its tables.
        """
        counts = [0] * (self.n + 1)
        parents: list[bytes] = []
        masks: list[int] = []
        labels = self.labels
        labels[self.order[-1]] = _HOLE
        for used, mask in self.walk():
            fresh = mask >> used  # 1 if the last vertex may open class ``used``
            counts[used] += mask.bit_count() - fresh
            counts[used + 1] += fresh
            if collect:
                parents.append(bytes(labels))
                masks.append(mask)
        keys = list(zip(map(bytes, map(dict.fromkeys, parents)), masks))
        merges: dict[tuple[int, int], bytes] = {}
        tables = {key: _leaf_tables(*key, merges) for key in set(keys)}
        return counts, list(chain.from_iterable(map(
            map, map(attrgetter("translate"), parents), map(tables.__getitem__, keys))))

    def colorings(self) -> Iterator[Partition]:
        """Every strict coloring, lazily, in search order."""
        labels, u = self.labels, self.order[-1]
        for _, mask in self.walk():
            while mask:
                low = mask & -mask
                mask ^= low
                labels[u] = low.bit_length() - 1
                yield Partition(labels)


def _checked_order(h: MixedHypergraph, order: Sequence[int] | None) -> tuple[int, ...] | None:
    """``order`` as a tuple, or ``None`` for the default; anything else is refused."""
    if order is None:
        return None
    order = tuple(order)
    if not set(map(type, order)) <= {int} or sorted(order) != list(range(h.vertex_count)):
        raise ValueError("order must be a permutation of the vertex indices")
    return order


def iter_strict_colorings(h: MixedHypergraph,
                          order: Sequence[int] | None = None) -> Iterator[Partition]:
    """Lazily yield strict colorings in search order; each partition appears exactly once."""
    order = _checked_order(h, order)
    if h.vertex_count == 0:
        return iter(())
    return _Searcher(h, order).colorings()


def _leaf_tables(pattern: bytes, mask: int, merges: dict) -> list[bytes]:
    """Per class ``x`` in ``mask``, ascending: the table that ranks the classes
    of ``pattern`` with the hole set to ``x``, and sends the hole to ``x``'s rank:
    ``fresh``, the hole a class of its own, through the merge table (kept in
    ``merges``) joining the hole's rank to ``x``'s.  Other bytes: unspecified."""
    used = len(pattern) - 1
    fresh = bytes.maketrans(pattern, _RANKS[:used + 1])
    h = fresh[_HOLE]
    tables = []
    for x in range(used):
        if mask >> x & 1:
            key = h, fresh[x]
            if key not in merges:
                lo, hi = sorted(key)
                merges[key] = _RANKS[:hi] + bytes((lo,)) + _RANKS[hi:-1]
            tables.append(fresh.translate(merges[key]))
    if mask >> used:
        tables.append(fresh)
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
    order = _checked_order(h, order)
    n = h.vertex_count
    if n == 0:
        return EnumerationReport((), ChromaticSpectrum(()), (), 0)
    collect = limit != 0 and n <= 256
    searcher = _Searcher(h, order)
    if limit != 0 and n > 256:  # labels above 255 do not fit a byte: one lazy walk
        rows = [p.labels for p in searcher.colorings()]
        spectrum = ChromaticSpectrum.from_class_counts(map(len, map(set, rows)))
    else:
        counts, rows = searcher.leaves(collect=collect)
        spectrum = ChromaticSpectrum(tuple(counts[1:]))
    rows.sort()
    if limit is not None:
        del rows[limit:]
    if collect:
        rows = list(iter_unpack(f"{n}B", b"".join(rows)))
    # model.Partition: a profiler may rebind this module's Partition to a wrapper
    return EnumerationReport(_unchecked_records(model.Partition, len(rows), rows), spectrum,
                             spectrum.feasible, searcher.nodes)


def chromatic_spectrum(h: MixedHypergraph) -> ChromaticSpectrum:
    return enumerate_strict_colorings(h, limit=0).spectrum


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
    entries = tuple(target)
    if not entries or not set(map(type, entries)) <= {int} or min(entries) < 1:
        raise ValueError("target must be a nonempty set of integers >= 1")
    wanted = set(entries)
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
