"""Versioned structured-text interchange format for hypergraphs.

Documents are JSON with a fixed key order, sorted edge lists and vertices
ordered by their full label tuple (flag last), so serialization is
deterministic and ``parse(serialize(x)) == x`` holds byte-for-byte once a
value is normalized.  Labeled constructions embed their label tuples and
enough metadata to rebuild the construction record; plain hypergraphs
carry only indices.  ``serialize`` writes the lines straight from the
value, each list of rows by one encoder call; a bi family is encoded once
and written for both edge keys.

``parse`` trusts nothing in a document: every field is checked, a field
``serialize`` never writes (``s`` on a plain document included) is
refused, and the ``bi`` and ``unproven_regime`` fields must agree with
what the families and ``(variant, spec)`` imply.  The edge rows go straight
to the model's public builders, which check each row once and name a bad
edge; equal C and D rows become one bi family, shared by both.  The
metadata is required and holds exactly what ``serialize`` writes: nothing
for a plain document; for a labeled one the strings ``feasible_set`` (as
``str(spec)`` writes it), ``variant`` and, only when it reads ``"true"``,
``unproven_regime``.  What ``parse`` normalizes by design is order: edges,
the vertices within an edge, and label rows may come unsorted, and are
written back sorted.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import gt, itemgetter, le

from .construction import (VARIANTS, FeasibleSpec, LabeledHypergraph, LabeledVertex,
                           _labeled_vertices, _unproven_regime)
from .model import MixedHypergraph, build_bi_hypergraph, build_hypergraph

FORMAT_VERSION = 1
_PLAIN_KEYS = {"format_version", "bi", "vertex_count", "c_edges", "d_edges", "metadata"}


def _inline(rows) -> str:
    # Rows hold only ints, so "],[" occurs only between rows.
    return json.dumps(rows, separators=(",", ":")).replace("],[", "], [")


def serialize(value: MixedHypergraph | LabeledHypergraph) -> str:
    """Render a hypergraph as deterministic structured text."""
    labeled = isinstance(value, LabeledHypergraph)
    h = value.hypergraph if labeled else value
    bi = h.is_bi()
    lines = [f'  "format_version": {FORMAT_VERSION},', f'  "bi": {json.dumps(bi)},',
             f'  "vertex_count": {h.vertex_count},']
    metadata = {}
    if labeled:
        rows = [label.full for label in value.labels]
        lines += [f'  "s": {value.spec.s},', f'  "labels": {_inline(rows)},']
        metadata = {"feasible_set": str(value.spec), "variant": value.variant}
        if value.unproven_regime:
            metadata["unproven_regime"] = "true"
    c_text = _inline(h.c_edges)
    lines += [f'  "c_edges": {c_text},', f'  "d_edges": {c_text if bi else _inline(h.d_edges)},',
              f'  "metadata": {json.dumps(metadata)}']
    return "{\n" + "\n".join(lines) + "\n}\n"


def _take(doc: dict, key: str, types: tuple, required: bool = True):
    if key not in doc:
        if required:
            raise ValueError(f"{key}: missing required field")
        return None
    value = doc[key]
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise ValueError(f"{key}: expected {' or '.join(t.__name__ for t in types)}, "
                         f"got {type(value).__name__}")
    return value


def _integers(values) -> bool:
    """Whether every entry is a JSON integer; ``true`` and ``false`` load as bool, not int."""
    return set(map(type, values)) <= {int}


def _build(vertex_count: int, c_rows: list, d_rows: list) -> MixedHypergraph:
    """One bi family for rows equal as JSON (in Python, 1 == 1.0 == True), else two."""
    if c_rows == d_rows:
        h = build_bi_hypergraph(vertex_count, c_rows)  # passes int lists only, so d_rows are lists
        if _integers(chain.from_iterable(d_rows)):
            return h
    return build_hypergraph(vertex_count, c_rows, d_rows)


def parse(text: str) -> MixedHypergraph | LabeledHypergraph:
    """Parse a document back into a normalized value.

    Raises ValueError with a line diagnostic for malformed syntax and a
    field diagnostic for semantic problems (a bad edge, named by the model's
    builders, duplicate labels, a bi claim with mismatched families, ...).
    Label rows are checked in bulk by C-level passes (width, int entries,
    flags in {0, 1}, coordinates >= 1, duplicates, per-position bounds); only
    when a pass fails does a per-label loop run, to name the first bad label.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, overlong integers, deep nesting
        raise ValueError(f"malformed document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("malformed document: top level must be an object")
    kind = "labeled" if "labels" in doc else "plain"
    unknown = doc.keys() - _PLAIN_KEYS - ({"s", "labels"} if kind == "labeled" else set())
    if unknown:
        raise ValueError(f"{min(unknown)}: not a field of a {kind} document")

    version = _take(doc, "format_version", (int,))
    if version != FORMAT_VERSION:
        raise ValueError(f"format_version: unsupported version {version}")
    bi = _take(doc, "bi", (bool,))
    vertex_count = _take(doc, "vertex_count", (int,))
    if vertex_count < 0:
        raise ValueError("vertex_count: must be nonnegative")

    try:
        h = _build(vertex_count, _take(doc, "c_edges", (list,)), _take(doc, "d_edges", (list,)))
    except ValueError as exc:
        raise ValueError(f"edges: {exc}") from exc
    if bi != h.is_bi():
        raise ValueError("bi: document claims bi but C- and D-families differ" if bi else
                         "bi: document claims not bi but C- and D-families are equal")

    metadata = _take(doc, "metadata", (dict,))
    raw_labels = _take(doc, "labels", (list,), required=False)
    if raw_labels is None:
        if metadata:
            raise ValueError(f"metadata: a document without labels has none, "
                             f"got {sorted(metadata)}")
        return h

    s = _take(doc, "s", (int,))
    if s < 2:
        raise ValueError(f"s: a labeled document needs at least 2 class counts, got {s}")
    if len(raw_labels) != vertex_count:
        raise ValueError(f"labels: {len(raw_labels)} labels for {vertex_count} vertices")
    if not (set(map(type, raw_labels)) <= {list} and set(map(len, raw_labels)) <= {s + 1}
            and set(map(type, chain.from_iterable(raw_labels))) <= {int}
            and set(map(itemgetter(-1), raw_labels)) <= {0, 1}
            and min(chain.from_iterable(map(itemgetter(slice(-1)), raw_labels)), default=1) >= 1):
        for pos, entry in enumerate(raw_labels):
            if not isinstance(entry, list) or len(entry) != s + 1 or not _integers(entry):
                raise ValueError(f"labels[{pos}]: expected a list of {s + 1} integers")
            try:
                LabeledVertex(entry[:-1], entry[-1])
            except ValueError as exc:
                raise ValueError(f"labels[{pos}]: {exc}") from exc
    fulls = list(map(tuple, raw_labels))
    if len(set(fulls)) != len(fulls):
        raise ValueError("labels: duplicate labels")

    for key, value in metadata.items():
        if key not in ("feasible_set", "variant", "unproven_regime"):
            raise ValueError(f"metadata: unknown key {key!r}")
        if type(value) is not str:
            raise ValueError(f"metadata: {key} must be a string, got {type(value).__name__}")
    for key in ("feasible_set", "variant"):
        if key not in metadata:
            raise ValueError(f"metadata: labeled documents need {key}")
    written = metadata["feasible_set"]
    try:
        spec = FeasibleSpec.from_string(written)
    except ValueError as exc:
        raise ValueError(f"metadata: {exc}") from exc
    if written != str(spec):
        raise ValueError(f"metadata: feasible_set {written!r} is written {str(spec)!r}")
    variant = metadata["variant"]
    if variant not in VARIANTS:
        raise ValueError(f"metadata: unknown variant {variant!r}")
    if spec.s != s:
        raise ValueError(f"s: {s} does not match the {spec.s} counts in metadata")
    flag = metadata.get("unproven_regime", "true")
    if flag != "true":
        raise ValueError(f'metadata: unproven_regime is written only as "true", got {flag!r}')
    unproven = _unproven_regime(spec, variant)
    claimed = "unproven_regime" in metadata
    if claimed != unproven:
        raise ValueError(f"metadata: unproven_regime reads {str(claimed).lower()}, but "
                         f"variant {variant} of {spec} is {'unproven' if unproven else 'proven'}")
    if not all(map(le, map(max, zip(*fulls)), spec.values)):
        for pos, full in enumerate(fulls):
            if any(map(gt, full, spec.values)):
                raise ValueError(
                    f"labels[{pos}]: coordinates {full[:-1]} exceed the per-position "
                    f"bounds {spec.values}")

    # Normalize vertex order to the sorted labels, remapping edges to match.
    rank = sorted(range(vertex_count), key=fulls.__getitem__)
    if rank != list(range(vertex_count)):
        new_of_old = {old: new for new, old in enumerate(rank)}
        c_rows = [[new_of_old[v] for v in e] for e in h.c_edges]
        h = _build(vertex_count, c_rows,
                   c_rows if h.is_bi() else [[new_of_old[v] for v in e] for e in h.d_edges])
        fulls = [fulls[old] for old in rank]

    return LabeledHypergraph(h, _labeled_vertices(fulls), spec, variant, unproven)
