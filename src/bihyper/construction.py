"""Minimum-size 3-uniform bi-hypergraphs hitting a prescribed feasible set.

Given target class counts ``n1 > n2 > ... > ns >= 2``, vertices are
(s+1)-tuples ``(x1, ..., xs, b)`` with ``1 <= xi <= ni`` and a bit ``b``.
The vertex set is one set of labels, listed as the paper defines them and
checked by one count: ``2*n1`` distinct.  Bi-edges are all vertex triples
showing exactly two distinct values in every tuple position, plus one
explicit special edge that is monochromatic in the bit position.  Variant I uses ``2*n1`` vertices and
is always a one-realization; variant II deletes one designated vertex,
reaching ``2*n1 - 1``, and stays a one-realization when ``n2 == n1 - 1``
and there are at least three class counts.

Labels travel as plain full tuples, flag last, from that set to the
edges.  The coordinate rule scans only the pairs sharing a value in one
pivot column, so its cost is bound by its output, about ``N**2 / 2``
triples on ``N`` vertices.  ``construct`` checks nothing twice that it has
just built: the rule sorts its triples once, so the family is wrapped
through the trusted ``model._normalized_hypergraph``, and the labels
through the trusted ``_labeled_vertices``, which ``parse`` also uses once
its own label checks have passed.  Values from outside still go through
``build_bi_hypergraph`` and the ``LabeledVertex`` constructor.

Grouping vertices by their i-th coordinate always yields a strict
ni-coloring (the i-th canonical coloring); at desk scale the enumerator
confirms these are the only strict colorings, i.e. the construction is a
one-realization of the target set.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from itertools import combinations
from operator import gt, itemgetter

from .model import (MixedHypergraph, Partition, VertexBijection, _check_ints,
                    _normalized_hypergraph, _Record, _unchecked_records, induced_subhypergraph,
                    is_proper)

VARIANTS = ("I", "II")


def _decimals(text: str, sep: str) -> list[int]:
    """The ``sep``-separated entries of ``text``: ASCII decimal digits, spaces around each."""
    entries = text.split(sep)
    if not (text.isascii() and all(map(str.isdigit, map(str.strip, entries)))):
        raise ValueError(f"{text!r} is not a list of decimal numbers")
    return list(map(int, entries))  # past the decimal digit limit, int raises ValueError


class FeasibleSpec(_Record):
    """Target feasible set as a strictly decreasing tuple ``n1 > ... > ns >= 2``."""

    values: tuple[int, ...]

    def __init__(self, values: Iterable[int]) -> None:
        values = tuple(values)
        if not set(map(type, values)) <= {int}:
            raise ValueError(f"class counts must be integers, got {values}")
        if len(values) < 2:
            raise ValueError("a feasible-set target needs at least two class counts")
        if not all(map(gt, values, values[1:])):
            raise ValueError(f"class counts must be strictly decreasing, got {values}")
        if values[-1] < 2:
            raise ValueError(
                "class counts below 2 are not realizable: every bi-edge forces at "
                "least two classes, so no bi-hypergraph with edges has a strict 1-coloring")
        object.__setattr__(self, "values", values)

    @classmethod
    def of(cls, value: "FeasibleSpec | Iterable[int]") -> "FeasibleSpec":
        """Coerce an iterable of distinct integers, in any order, to a spec."""
        if isinstance(value, FeasibleSpec):
            return value
        counts = tuple(value)
        try:
            counts = tuple(sorted(counts, reverse=True))
        except TypeError:  # unorderable counts, which the constructor refuses by type
            pass
        return cls(counts)

    @classmethod
    def from_string(cls, text: str) -> "FeasibleSpec":
        try:
            counts = _decimals(text, ",")
        except ValueError:
            raise ValueError(f"cannot parse feasible set {text!r}; expected e.g. '5,3,2'")
        return cls.of(counts)

    @property
    def s(self) -> int:
        return len(self.values)

    @property
    def n1(self) -> int:
        return self.values[0]

    @property
    def n2(self) -> int:
        return self.values[1]

    def tail(self) -> "FeasibleSpec":
        """The spec with the largest count dropped; needs at least three counts."""
        if self.s < 3:
            raise ValueError("tail needs a spec with at least three class counts")
        return FeasibleSpec(self.values[1:])

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.values)


class LabeledVertex(_Record):
    """Coordinate tuple plus bit flag naming one vertex of the construction."""

    coords: tuple[int, ...]
    flag: int
    __slots__ = ("coords", "flag", "__weakref__")

    def __init__(self, coords: Iterable[int], flag: int) -> None:
        coords = tuple(coords)
        if type(flag) is not int or flag not in (0, 1):
            raise ValueError(f"flag must be 0 or 1, got {flag}")
        if not set(map(type, coords)) <= {int}:
            raise ValueError(f"coordinates must be integers, got {coords}")
        if min(coords, default=1) < 1:
            raise ValueError(f"coordinates must be >= 1, got {coords}")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "flag", flag)

    @property
    def full(self) -> tuple[int, ...]:
        """The complete (s+1)-tuple with the flag last; also the sort key."""
        return self.coords + (self.flag,)

    def drop_first(self) -> "LabeledVertex":
        return LabeledVertex(self.coords[1:], self.flag)

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.full) + ")"


def _labeled_vertices(fulls: list[tuple[int, ...]]) -> tuple[LabeledVertex, ...]:
    """Wrap every full tuple (flag last) as a LabeledVertex without checking it.

    Trusted path: the caller guarantees that each tuple holds ``int``
    coordinates >= 1 followed by a flag in {0, 1}, as ``construct`` builds
    them and as ``parse`` has checked them.
    """
    return _unchecked_records(LabeledVertex, len(fulls), map(itemgetter(slice(-1)), fulls),
                              map(itemgetter(-1), fulls))


class LabeledHypergraph(_Record):
    """A constructed bi-hypergraph together with its vertex labels.

    ``labels[i]`` names vertex ``i``; labels are sorted by their full
    tuple, so indices are deterministic.  ``unproven_regime`` marks a
    variant II build outside its verified regime (``n2 == n1 - 1`` with at
    least three class counts), where one-realization is not established.
    """

    hypergraph: MixedHypergraph
    labels: tuple[LabeledVertex, ...]
    spec: FeasibleSpec
    variant: str
    unproven_regime: bool

    def __init__(self, hypergraph, labels, spec, variant, unproven_regime=False) -> None:
        object.__setattr__(self, "hypergraph", hypergraph)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "unproven_regime", unproven_regime)

    @property
    def vertex_count(self) -> int:
        return self.hypergraph.vertex_count

    def label_index(self) -> dict[LabeledVertex, int]:
        return {label: i for i, label in enumerate(self.labels)}


def min_size(spec: FeasibleSpec | Iterable[int]) -> int:
    """The paper's closed form for the minimum vertex count of a one-realization.

    Equals ``2*n1 - 1`` when ``n2 == n1 - 1`` and ``2*n1`` otherwise.  That
    is the minimum for every target set but one: for ``{3,2}`` it gives 5,
    and the optimum is 6 (no 5-vertex instance one-realizes ``{3,2}``).
    """
    spec = FeasibleSpec.of(spec)
    return 2 * spec.n1 - (spec.n2 + 1) // spec.n1


def _variant_i_labels(spec: FeasibleSpec) -> list[tuple[int, ...]]:
    """Variant I's ``2*n1`` full labels (flag last), sorted.

    The extra vertex ``(n1, ..., ns, 1)``; for each ``t < s`` and each value
    ``n(t+1) <= x < nt`` the pair ``(x^t, 1, ..., 1, 0)`` and
    ``(x^t, n(t+1), ..., ns, 1)``; and ``(j, ..., j, b)`` for ``1 <= j <= ns``
    and both flags.  That lists ``2*n1 + 1`` labels, so ``2*n1`` distinct ones
    means exactly one collision: ``(ns, ..., ns, 1)``, listed by ``t = s - 1``
    and by ``j = ns``.
    """
    n, s = spec.values, spec.s
    labels = {n + (1,)}
    for t in range(1, s):
        for x in range(n[t], n[t - 1]):
            labels.add((x,) * t + (1,) * (s - t) + (0,))
            labels.add((x,) * t + n[t:] + (1,))
    labels.update((j,) * s + (b,) for j in range(1, n[-1] + 1) for b in (0, 1))
    if len(labels) != 2 * spec.n1:
        raise RuntimeError(f"built {len(labels)} vertices, expected {2 * spec.n1}")
    return sorted(labels)


def special_edge_labels(spec: FeasibleSpec) -> tuple[LabeledVertex, LabeledVertex, LabeledVertex]:
    """The one bi-edge added outside the coordinate rule (flag-monochromatic)."""
    spec = FeasibleSpec.of(spec)
    s, ns = spec.s, spec.values[-1]
    return (LabeledVertex((1,) * s, 0),
            LabeledVertex((ns,) * (s - 1) + (1,), 0),
            LabeledVertex((ns,) * s, 0))


def deleted_label(spec: FeasibleSpec) -> LabeledVertex:
    """The vertex variant II removes."""
    spec = FeasibleSpec.of(spec)
    return LabeledVertex((spec.n2,) + (1,) * (spec.s - 1), 0)


def _coordinate_rule_edges(fulls: list[tuple[int, ...]]) -> list[tuple[int, int, int]]:
    """Every triple ``a < b < c`` of full label tuples showing two distinct values in
    each position, sorted.

    An edge shows exactly two values in each column, so in any column exactly
    one of its three pairs shares a value.  The pivot is the column with the
    fewest such pairs, ``sum(C(g, 2))`` over its value classes of sizes ``g``
    (the lowest index on a tie); scanning only the pairs ``p < q`` sharing a
    pivot value finds each edge exactly once, equal and width-1 rows included.
    ``rows[i][j]`` masks the vertices whose j-th entry equals vertex i's.  A
    pair's mask starts as the vertices outside its pivot class; at position j
    with masks ``A`` and ``B`` the third vertex must differ from both when the
    values are equal (clear ``A``) and repeat one otherwise (AND with
    ``A | B``).  Disjoint masks have ``A ^ B == A | B``, so each position is
    one step, ``mask &= A ^ B or ~A``, until the mask empties.
    """
    holders: list[dict[int, int]] = [{} for _ in fulls[0]]
    for i, full in enumerate(fulls):
        bit = 1 << i
        for column, x in zip(holders, full):
            column[x] = column.get(x, 0) | bit
    rows = [tuple(map(dict.__getitem__, holders, full)) for full in fulls]
    pivot = min(range(len(holders)),
                key=lambda j: sum(m.bit_count() ** 2 for m in holders[j].values()))
    classes: dict[int, list[int]] = {}
    for i, full in enumerate(fulls):
        classes.setdefault(full[pivot], []).append(i)
    edges, everyone = [], (1 << len(rows)) - 1
    for members in classes.values():
        for p, q in combinations(members, 2):
            mask = everyone ^ rows[p][pivot]
            for A, B in zip(rows[p], rows[q]):
                mask &= A ^ B or ~A
                if not mask:
                    break
            while mask:
                low = mask & -mask
                r = low.bit_length() - 1
                edges.append((r, p, q) if r < p else (p, r, q) if r < q else (p, q, r))
                mask ^= low
    edges.sort()
    return edges


def _variant_ii_sound(spec: FeasibleSpec) -> bool:
    # With only two class counts the deleted vertex is what pins down the
    # 2-colorings; removing it admits extra ones (exhaustively confirmed:
    # no 5-vertex bi-hypergraph one-realizes {3,2} at all).  Three or more
    # counts keep the full tail structure intact, and the deletion is safe.
    return spec.n2 == spec.n1 - 1 and spec.s >= 3


def _unproven_regime(spec: FeasibleSpec, variant: str) -> bool:
    """Whether a build of ``variant`` for ``spec`` lies outside its verified regime."""
    return variant == "II" and not _variant_ii_sound(spec)


def construct(spec: FeasibleSpec | Iterable[int], variant: str = "auto",
              drop_special: bool = False) -> LabeledHypergraph:
    """Build the labeled bi-hypergraph realizing ``spec``.

    ``variant="auto"`` picks the smallest construction verified to be a
    one-realization: II when ``n2 == n1 - 1`` and there are at least three
    class counts, I otherwise.  Variant II can be forced for any spec but
    is flagged ``unproven_regime`` outside that region (for two counts it
    demonstrably gains extra 2-colorings).  It is built directly on its
    ``2*n1 - 1`` kept labels, and keeps the special edge only when all three
    of its labels survive (for two counts it holds the deleted vertex).
    ``drop_special`` omits the explicit flag-monochromatic edge, for probing
    how much the coordinate rule alone pins down.
    """
    spec = FeasibleSpec.of(spec)
    if variant == "auto":
        variant = "II" if _variant_ii_sound(spec) else "I"
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected I, II or auto")

    fulls = _variant_i_labels(spec)
    if variant == "II":  # built directly on the kept vertices
        deleted = deleted_label(spec).full
        if deleted not in fulls:
            raise RuntimeError("variant II expected to delete exactly one vertex")
        fulls.remove(deleted)
    edges = _coordinate_rule_edges(fulls)
    index = dict(zip(fulls, range(len(fulls))))
    special = [index.get(v.full) for v in special_edge_labels(spec)]
    if not drop_special and None not in special:  # for s = 2 variant II deletes one
        special = tuple(sorted(special))
        at = bisect_left(edges, special)  # the rule's edges are already sorted
        if edges[at:at + 1] == [special]:
            raise RuntimeError("special edge already produced by the coordinate rule")
        edges.insert(at, special)

    # The rule emits distinct increasing in-range triples in sorted order, so the
    # family is already normalized; so are the generated labels.
    family = tuple(edges)
    return LabeledHypergraph(
        _normalized_hypergraph(len(fulls), family, family), _labeled_vertices(fulls), spec,
        variant, unproven_regime=_unproven_regime(spec, variant))


def canonical_coloring(built: LabeledHypergraph, i: int) -> Partition:
    """The strict coloring grouping vertices by their i-th coordinate (1-based)."""
    spec = built.spec
    _check_ints((i,), "coordinate index")
    if not (1 <= i <= spec.s):
        raise ValueError(f"coordinate index {i} out of range 1..{spec.s}")
    column = [label.coords[i - 1] for label in built.labels]
    if set(column) != set(range(1, spec.values[i - 1] + 1)):
        raise RuntimeError("a canonical class is unexpectedly empty")
    partition = Partition(column)
    if not is_proper(built.hypergraph, partition):
        raise RuntimeError("canonical coloring is improper")
    return partition


def canonical_colorings(built: LabeledHypergraph) -> tuple[Partition, ...]:
    return tuple(canonical_coloring(built, i) for i in range(1, built.spec.s + 1))


class ReductionMap(_Record):
    """The coordinate-dropping isomorphism witness for a spec with s >= 3.

    ``subset`` lists the parent vertices whose first two coordinates agree;
    ``restricted`` is the parent induced on them, and ``bijection`` maps it
    onto ``target`` (the variant I build for the tail spec) by dropping the
    first coordinate of every label.
    """

    parent: LabeledHypergraph
    subset: tuple[int, ...]
    restricted: MixedHypergraph
    target: LabeledHypergraph
    bijection: VertexBijection

    def __init__(self, parent, subset, restricted, target, bijection) -> None:
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "restricted", restricted)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "bijection", bijection)


def reduction_bijection(spec: FeasibleSpec | Iterable[int]) -> ReductionMap:
    """Build the subset and bijection relating a spec to its tail construction."""
    spec = FeasibleSpec.of(spec)
    if spec.s < 3:
        raise ValueError(
            "reduction needs at least three class counts; dropping the largest "
            "must leave a valid target")
    parent = construct(spec, "I")

    subset = tuple(i for i, label in enumerate(parent.labels)
                   if label.coords[0] == label.coords[1])
    restricted, old_to_new = induced_subhypergraph(parent.hypergraph, subset)
    target = construct(spec.tail(), "I")
    target_index = target.label_index()
    forward = [0] * len(subset)
    for old in subset:
        image = parent.labels[old].drop_first()
        if image not in target_index:
            raise RuntimeError(f"dropped label {image} is not a vertex of the target")
        forward[old_to_new[old]] = target_index[image]
    return ReductionMap(parent, subset, restricted, target, VertexBijection(tuple(forward)))
