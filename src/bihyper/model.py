"""Value types for mixed hypergraphs and set-partition colorings.

Vertices are dense integer indices ``0..n-1``.  A mixed hypergraph carries
two edge families over them: C-edges, satisfied by a coloring when at least
two of their vertices share a class, and D-edges, satisfied when at least
two of their vertices lie in different classes.  An edge present in both
families is a bi-edge; when the families coincide the structure is a
bi-hypergraph.  Colorings are unordered set partitions, stored in a
canonical restricted-growth encoding so equal partitions compare equal.

Everything here is an immutable value, so instances may be shared
freely.  The package's record types derive from ``_Record``.  Each
annotates its fields in order and writes an ``__init__`` that stores each
field once with ``object.__setattr__``; the base compares and hashes
instances of one class by their field tuple, prints them as
``Name(field=value, ...)``, refuses assignment and rebuilds a pickled or
copied record through its own checked constructor.  It generates no code
per class, so the import that every CLI launch pays stays cheap.  Records
made in bulk skip their checks through one maker, ``_unchecked_records``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Collection, Iterable, Mapping
from itertools import chain, repeat
from operator import attrgetter


class _Record:
    """Value semantics over the fields a subclass annotates, in order."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        if fields:  # a subclass that annotates nothing keeps its parent's fields
            get = attrgetter(*fields)
            cls.__match_args__ = fields
            # the field tuple; attrgetter returns a lone field bare
            cls._values = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self.__match_args__, self._values(self))
        return f"{self.__class__.__qualname__}({', '.join(fields)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # pickle, copy and deepcopy rebuild through the checked constructor
        return type(self), self._values(self)


def _unchecked_records(cls: type, count: int, *columns: Iterable) -> tuple:
    """Make ``count`` records of a slotted ``cls``, filling field ``i`` from ``columns[i]``.

    Trusted path: nothing is checked, so the caller vouches for every value
    (a canonical ``Partition`` row, say).  ``object.__new__`` makes the
    records and each slot's descriptor fills them, past the refusing
    ``__setattr__``, by C-level ``map`` calls with no Python frame per record.
    """
    records = tuple(map(object.__new__, repeat(cls, count)))
    for name, column in zip(cls.__match_args__, columns):
        deque(map(getattr(cls, name).__set__, records, column), maxlen=0)
    return records


def _check_ints(values: Collection, what: str) -> None:
    """Refuse any entry that is not an ``int`` (a ``bool`` is not one)."""
    if not set(map(type, values)) <= {int}:
        bad = next(x for x in values if type(x) is not int)
        raise ValueError(f"{what} {bad!r} is not an integer")


def _normalize_family(family: Iterable[Iterable[int]], vertex_count: int,
                      kind: str) -> tuple[tuple[int, ...], ...]:
    """Validate a family into sorted, distinct, increasing, in-range index tuples.

    Every public way to make a hypergraph passes here, so this also refuses
    a ``vertex_count`` that is not a nonnegative ``int`` (a ``bool`` is not
    one: ``serialize`` would write it as ``true``).  The rows are read once
    and checked in bulk by C-level passes (int vertices, 2 or more per row,
    none repeated, all in range).  If a row cannot be read or a check fails,
    the per-edge loop, which applies the same checks, names the first bad edge.
    """
    if type(vertex_count) is not int or vertex_count < 0:
        raise ValueError(f"vertex_count must be a nonnegative int, got {vertex_count!r}")
    raws = list(family)
    rows: list[list] = []
    try:
        rows.extend(map(list, raws))  # on a TypeError, keeps the rows read before it
    except TypeError:
        pass
    flat = list(chain.from_iterable(rows))
    if (len(rows) == len(raws) and set(map(type, flat)) <= {int}
            and min(map(len, rows), default=2) >= 2 and sum(map(len, map(set, rows))) == len(flat)
            and min(flat, default=0) >= 0 and max(flat, default=-1) < vertex_count):
        deque(map(list.sort, rows), maxlen=0)  # the rows are this call's own copies
        # dict.fromkeys keeps the input order, so sorting a sorted family is linear
        return tuple(sorted(dict.fromkeys(map(tuple, rows))))
    for raw, verts in zip(raws, rows + [None]):
        if verts is None:  # reading this row raised TypeError
            raise ValueError(f"{kind}-edge {raw!r}: an edge must be an iterable of vertex indices")
        _check_ints(verts, f"{kind}-edge {verts}: vertex")
        if len(set(verts)) != len(verts):
            raise ValueError(f"{kind}-edge {verts}: repeated vertex inside the edge")
        if len(verts) < 2:
            raise ValueError(f"{kind}-edge {verts}: an edge needs at least 2 vertices")
        for v in verts:
            if not (0 <= v < vertex_count):
                raise ValueError(
                    f"{kind}-edge {sorted(verts)}: vertex {v} out of range for "
                    f"vertex_count={vertex_count}")
    raise AssertionError(f"{kind}-edge family failed the bulk check, but no edge is at fault")


class MixedHypergraph(_Record):
    """A vertex count plus C-edge and D-edge families, in normalized form.

    Edges are strictly increasing index tuples and each family is sorted
    lexicographically with no duplicates; use :func:`build_hypergraph` to
    normalize and validate arbitrary input.
    """

    vertex_count: int
    c_edges: tuple[tuple[int, ...], ...]
    d_edges: tuple[tuple[int, ...], ...]

    def __init__(self, vertex_count: int, c_edges=(), d_edges=()) -> None:
        for kind, family in (("C", c_edges), ("D", d_edges)):
            if family != _normalize_family(family, vertex_count, kind):
                raise ValueError(
                    f"{kind}-edge family is not normalized; build with build_hypergraph()")
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "c_edges", c_edges)
        object.__setattr__(self, "d_edges", d_edges)

    def is_bi(self) -> bool:
        return self.c_edges == self.d_edges


def _normalized_hypergraph(vertex_count: int, c_edges: tuple[tuple[int, ...], ...],
                           d_edges: tuple[tuple[int, ...], ...]) -> MixedHypergraph:
    """Wrap edge families as a MixedHypergraph without normalizing them again.

    Trusted path: the caller guarantees that each family is already in the
    form ``_normalize_family`` returns for ``vertex_count`` (a sorted tuple
    of distinct, strictly increasing, in-range index tuples), which also
    vouches for ``vertex_count``.  Nothing is checked, so any other input
    yields a value the public constructor would have rejected.  Arbitrary
    families go through :func:`build_hypergraph`.
    """
    h = object.__new__(MixedHypergraph)
    object.__setattr__(h, "vertex_count", vertex_count)
    object.__setattr__(h, "c_edges", c_edges)
    object.__setattr__(h, "d_edges", d_edges)
    return h


def build_hypergraph(vertex_count: int,
                     c_edges: Iterable[Iterable[int]] = (),
                     d_edges: Iterable[Iterable[int]] = ()) -> MixedHypergraph:
    """Validate, deduplicate and sort the edge families into a hypergraph."""
    return _normalized_hypergraph(
        vertex_count,
        _normalize_family(c_edges, vertex_count, "C"),
        _normalize_family(d_edges, vertex_count, "D"),
    )


def build_bi_hypergraph(vertex_count: int,
                        edges: Iterable[Iterable[int]]) -> MixedHypergraph:
    """Build a hypergraph whose C- and D-families are the same edge set."""
    family = _normalize_family(edges, vertex_count, "bi")
    return _normalized_hypergraph(vertex_count, family, family)


def induced_subhypergraph(
        h: MixedHypergraph,
        subset: Iterable[int]) -> tuple[MixedHypergraph, dict[int, int]]:
    """Restrict ``h`` to ``subset``, keeping edges entirely inside it.

    Vertices are reindexed against the sorted subset; the returned dict
    translates old indices to new ones.
    """
    subset = tuple(subset)
    _check_ints(subset, "subset vertex")
    keep = sorted(set(subset))
    for v in keep:
        if not (0 <= v < h.vertex_count):
            raise ValueError(f"subset vertex {v} out of range for vertex_count={h.vertex_count}")
    old_to_new = {v: i for i, v in enumerate(keep)}
    inside = set(keep)

    # The relabel is increasing, so kept edges stay increasing and in order.
    def translate(family: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(map(old_to_new.__getitem__, e)) for e in family
                     if inside.issuperset(e))

    c_edges = translate(h.c_edges)
    d_edges = c_edges if h.d_edges == h.c_edges else translate(h.d_edges)
    return _normalized_hypergraph(len(keep), c_edges, d_edges), old_to_new


class Partition(_Record):
    """A set partition of ``0..n-1`` in canonical restricted-growth form.

    ``labels[v]`` is the class of vertex ``v``; scanning vertices in index
    order, each new class first appears as the smallest unused label.  Any
    label sequence is canonicalized on construction, so two Partition
    values are equal iff they denote the same set partition.
    """

    labels: tuple[int, ...]
    __slots__ = ("labels", "__weakref__")

    def __init__(self, labels: Iterable[int]) -> None:
        labels = tuple(labels)
        if not labels:
            raise ValueError("a partition needs at least one vertex")
        relabel: dict[object, int] = {}
        for x in labels:
            if x not in relabel:
                relabel[x] = len(relabel)
        object.__setattr__(self, "labels", tuple(relabel[x] for x in labels))

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def class_count(self) -> int:
        return max(self.labels) + 1

    def classes(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.class_count)]
        for v, c in enumerate(self.labels):
            out[c].append(v)
        return tuple(tuple(cl) for cl in out)

    def merge_classes(self, a: int, b: int) -> "Partition":
        """Union classes ``a`` and ``b``; the class count drops by exactly one."""
        _check_ints((a, b), "class label")
        k = self.class_count
        for label in (a, b):
            if not (0 <= label < k):
                raise ValueError(f"unknown class label {label} (classes are 0..{k - 1})")
        if a == b:
            raise ValueError("cannot merge a class with itself")
        return Partition(tuple(a if c == b else c for c in self.labels))

    def __str__(self) -> str:
        return "{" + " | ".join(" ".join(str(v) for v in cl) for cl in self.classes()) + "}"


def is_proper(h: MixedHypergraph, partition: Partition) -> bool:
    """Whether every C-edge has a repeated class and every D-edge two distinct ones.

    For a 3-vertex bi-edge this is exactly: the edge meets two classes.
    """
    if partition.size != h.vertex_count:
        raise ValueError(
            f"partition covers {partition.size} vertices; hypergraph has {h.vertex_count}")
    labels = partition.labels
    for e in h.c_edges:
        if len({labels[v] for v in e}) == len(e):
            return False
    for e in h.d_edges:
        if len({labels[v] for v in e}) == 1:
            return False
    return True


class VertexBijection(_Record):
    """A bijection between two vertex sets of equal size; ``forward[v]`` is the image of ``v``."""

    forward: tuple[int, ...]

    def __init__(self, forward: Iterable[int]) -> None:
        forward = tuple(forward)
        _check_ints(forward, "vertex")
        if sorted(forward) != list(range(len(forward))):
            raise ValueError("forward map is not a bijection onto 0..n-1")
        object.__setattr__(self, "forward", forward)

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, int]) -> "VertexBijection":
        _check_ints(mapping, "vertex")
        n = len(mapping)
        if set(mapping) != set(range(n)):
            raise ValueError("mapping domain is not a dense vertex range 0..n-1")
        return cls(tuple(mapping[v] for v in range(n)))

    def __call__(self, v: int) -> int:
        return self.forward[v]


def check_isomorphism_under_map(h1: MixedHypergraph, h2: MixedHypergraph,
                                bijection: VertexBijection) -> bool:
    """Whether the supplied bijection carries the edge families of h1 exactly onto h2's."""
    if h1.vertex_count != h2.vertex_count:
        raise ValueError("hypergraphs have different vertex counts; no bijection exists")
    if len(bijection.forward) != h1.vertex_count:
        raise ValueError(
            f"bijection spans {len(bijection.forward)} vertices; hypergraphs have "
            f"{h1.vertex_count}")
    f = bijection.forward

    def image(family: tuple[tuple[int, ...], ...]) -> set[tuple[int, ...]]:
        return {tuple(sorted(f[v] for v in e)) for e in family}

    return (image(h1.c_edges) == set(h2.c_edges)
            and image(h1.d_edges) == set(h2.d_edges))
