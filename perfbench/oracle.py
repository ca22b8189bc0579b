"""Brute-force partition filter, written independently of bihyper.

It lists every set partition of ``0..n-1`` as a restricted-growth string
and keeps the ones that satisfy every edge, with no pruning and no shared
code with the library's search.  It is the untimed oracle the benchmark
checks the library's answers against, so it favours plainness over speed:
use it on at most ten vertices.
"""

from __future__ import annotations

from itertools import combinations


def set_partitions(n: int):
    """Yield every set partition of ``0..n-1`` as a tuple of class labels."""
    labels = [0] * n

    def extend(pos: int, used: int):
        if pos == n:
            yield tuple(labels)
            return
        for c in range(used + 1):
            labels[pos] = c
            yield from extend(pos + 1, used + (c == used))

    if n == 0:
        return
    yield from extend(1, 1)


def proper(labels, c_edges, d_edges) -> bool:
    """C-edges need a repeated class, D-edges two distinct classes."""
    for e in c_edges:
        if len({labels[v] for v in e}) == len(e):
            return False
    for e in d_edges:
        if len({labels[v] for v in e}) == 1:
            return False
    return True


def spectrum(n: int, c_edges, d_edges) -> tuple[int, ...]:
    """Strict colorings per class count, trailing zeros trimmed."""
    counts = [0] * (n + 1)
    for labels in set_partitions(n):
        if proper(labels, c_edges, d_edges):
            counts[max(labels) + 1] += 1
    counts = counts[1:]
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def is_one_realization(n: int, edges, target) -> bool:
    """Whether the bi-hypergraph on ``edges`` has one coloring per target count, and no other."""
    counts = spectrum(n, edges, edges)
    wanted = set(target)
    return all((counts[k - 1] if k <= len(counts) else 0) == (1 if k in wanted else 0)
               for k in range(1, max(len(counts), max(wanted)) + 1))


def triples_of_mask(v: int, mask: int) -> list[tuple[int, int, int]]:
    """The 3-uniform bi-edge set that bit ``i`` of ``mask`` selects, over lexicographic triples."""
    return [t for i, t in enumerate(combinations(range(v), 3)) if mask >> i & 1]
