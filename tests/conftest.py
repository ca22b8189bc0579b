"""Shared brute-force oracles and instance generators.

The oracles here deliberately avoid the package's pruned search: colorings
are checked by filtering every set partition, and counting facts come from
the classical recurrences, so enumerator results are confronted with an
independent path.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from bihyper.model import (MixedHypergraph, Partition, build_bi_hypergraph, build_hypergraph,
                           is_proper)

# Bell numbers B(0)..B(9)
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]


def all_partitions(n: int) -> list[Partition]:
    """Every set partition of 0..n-1, by direct restricted-growth recursion."""
    out: list[Partition] = []

    def rec(prefix: list[int], used: int) -> None:
        if len(prefix) == n:
            out.append(Partition(tuple(prefix)))
            return
        for c in range(used + 1):
            prefix.append(c)
            rec(prefix, max(used, c + 1))
            prefix.pop()

    if n > 0:
        rec([], 0)
    return out


def stirling_row(n: int) -> tuple[int, ...]:
    """(S(n,1), ..., S(n,n)) via S(m,k) = S(m-1,k-1) + k*S(m-1,k)."""
    row = [1]
    for m in range(2, n + 1):
        row = [(row[k - 2] if k >= 2 else 0) + (k * row[k - 1] if k <= m - 1 else 0)
               for k in range(1, m + 1)]
    return tuple(row)


def brute_force_colorings(h: MixedHypergraph) -> list[Partition]:
    """The strict colorings of ``h`` by filtering all partitions."""
    return sorted((p for p in all_partitions(h.vertex_count) if is_proper(h, p)),
                  key=lambda p: p.labels)


def all_bi_hypergraphs(v: int):
    """Every 3-uniform bi-hypergraph on ``v`` vertices, by ascending edge mask.

    Bit ``i`` of a mask selects the ``i``-th triple in lexicographic order,
    the order of the minimality scan's masks.
    """
    triples = [(a, b, c) for a in range(v) for b in range(a + 1, v) for c in range(b + 1, v)]
    for mask in range(1 << len(triples)):
        yield build_bi_hypergraph(v, [t for i, t in enumerate(triples) if mask >> i & 1])


def random_mixed_hypergraph(rng: random.Random, v_min: int = 1,
                            v_max: int = 8) -> MixedHypergraph:
    """A random instance with a mix of C-only, D-only and bi edges of sizes 2..4."""
    v = rng.randint(v_min, v_max)
    pool = [list(e) for size in (2, 3, 3, 4) if size <= v
            for e in combinations(range(v), size)]
    rng.shuffle(pool)
    c_edges, d_edges = [], []
    for e in pool[:rng.randint(0, min(len(pool), 8))]:
        role = rng.random()
        if role < 0.4:
            c_edges.append(e)
        elif role < 0.7:
            d_edges.append(e)
        else:
            c_edges.append(e)
            d_edges.append(e)
    return build_hypergraph(v, c_edges, d_edges)


def shuffled_copy(rng: random.Random, h: MixedHypergraph) -> tuple[MixedHypergraph, list[int]]:
    """Relabel ``h`` by a random vertex permutation; returns (copy, forward map)."""
    perm = list(range(h.vertex_count))
    rng.shuffle(perm)
    relabel = lambda fam: [[perm[v] for v in e] for e in fam]
    return build_hypergraph(h.vertex_count, relabel(h.c_edges), relabel(h.d_edges)), perm


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0105)
