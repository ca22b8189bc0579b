"""Value semantics of the package's eleven record types, and its pinned public names.

Each record is built by keyword with its documented field names and
defaults, and must compare, hash, print, freeze, pickle and copy as a value.
``SearchReport`` is the one mutable record: assignable and unhashable.
"""

from __future__ import annotations

import copy
import pickle
import weakref

import pytest

import bihyper
from bihyper import (ChromaticSpectrum, EnumerationReport, FeasibleSpec, LabeledHypergraph,
                     LabeledVertex, MixedHypergraph, OneRealizationCertificate, Partition,
                     ReductionMap, SearchReport, VertexBijection, colorings, construct,
                     minimality, model, serialization)


def _edge():
    return MixedHypergraph(vertex_count=3, c_edges=((0, 1, 2),), d_edges=((0, 1, 2),))


def _labeled():
    labels = (LabeledVertex(coords=[1], flag=0), LabeledVertex(coords=(1,), flag=1),
              LabeledVertex(coords=(2,), flag=0))
    return LabeledHypergraph(hypergraph=_edge(), labels=labels,
                             spec=FeasibleSpec(values=[3, 2]), variant="I",
                             unproven_regime=False)


# name -> (factory building a fresh instance by keyword, pinned repr)
RECORDS = {
    "ChromaticSpectrum": (
        lambda: ChromaticSpectrum(counts=[1, 3, 0, 0]),
        "ChromaticSpectrum(counts=(1, 3))"),
    "EnumerationReport": (
        lambda: EnumerationReport(colorings=(Partition((0, 1)),),
                                  spectrum=ChromaticSpectrum((0, 1)), feasible=(2,),
                                  nodes_explored=3),
        "EnumerationReport(colorings=(Partition(labels=(0, 1)),), "
        "spectrum=ChromaticSpectrum(counts=(0, 1)), feasible=(2,), nodes_explored=3)"),
    "OneRealizationCertificate": (
        lambda: OneRealizationCertificate(ok=False, target=(2, 3)),
        "OneRealizationCertificate(ok=False, target=(2, 3), witnesses=(), failure=None, "
        "counterexamples=())"),
    "FeasibleSpec": (
        lambda: FeasibleSpec(values=[4, 2]),
        "FeasibleSpec(values=(4, 2))"),
    "LabeledVertex": (
        lambda: LabeledVertex(coords=[2, 1], flag=1),
        "LabeledVertex(coords=(2, 1), flag=1)"),
    "LabeledHypergraph": (
        _labeled,
        "LabeledHypergraph(hypergraph=MixedHypergraph(vertex_count=3, c_edges=((0, 1, 2),), "
        "d_edges=((0, 1, 2),)), labels=(LabeledVertex(coords=(1,), flag=0), "
        "LabeledVertex(coords=(1,), flag=1), LabeledVertex(coords=(2,), flag=0)), "
        "spec=FeasibleSpec(values=(3, 2)), variant='I', unproven_regime=False)"),
    "ReductionMap": (
        lambda: ReductionMap(parent=_labeled(), subset=(0, 2), restricted=MixedHypergraph(2),
                             target=_labeled(), bijection=VertexBijection((1, 0))),
        "ReductionMap(parent=LabeledHypergraph(hypergraph=MixedHypergraph(vertex_count=3, "
        "c_edges=((0, 1, 2),), d_edges=((0, 1, 2),)), labels=(LabeledVertex(coords=(1,), "
        "flag=0), LabeledVertex(coords=(1,), flag=1), LabeledVertex(coords=(2,), flag=0)), "
        "spec=FeasibleSpec(values=(3, 2)), variant='I', unproven_regime=False), "
        "subset=(0, 2), restricted=MixedHypergraph(vertex_count=2, c_edges=(), d_edges=()), "
        "target=LabeledHypergraph(hypergraph=MixedHypergraph(vertex_count=3, "
        "c_edges=((0, 1, 2),), d_edges=((0, 1, 2),)), labels=(LabeledVertex(coords=(1,), "
        "flag=0), LabeledVertex(coords=(1,), flag=1), LabeledVertex(coords=(2,), flag=0)), "
        "spec=FeasibleSpec(values=(3, 2)), variant='I', unproven_regime=False), "
        "bijection=VertexBijection(forward=(1, 0)))"),
    "SearchReport": (
        lambda: SearchReport(spec=FeasibleSpec((3, 2)), vertex_counts_searched=(3, 4),
                             instances_examined={3: 2, 4: 16}, witnesses=[],
                             verdict="certified-none", masks_processed=18, cursor=None,
                             settled_by={3: "mask-scan", 4: "mask-scan"}),
        "SearchReport(spec=FeasibleSpec(values=(3, 2)), vertex_counts_searched=(3, 4), "
        "instances_examined={3: 2, 4: 16}, witnesses=[], verdict='certified-none', "
        "masks_processed=18, cursor=None, settled_by={3: 'mask-scan', 4: 'mask-scan'})"),
    "MixedHypergraph": (
        lambda: MixedHypergraph(3),
        "MixedHypergraph(vertex_count=3, c_edges=(), d_edges=())"),
    "Partition": (
        lambda: Partition(labels=[7, 7, 3]),
        "Partition(labels=(0, 0, 1))"),
    "VertexBijection": (
        lambda: VertexBijection(forward=(2, 0, 1)),
        "VertexBijection(forward=(2, 0, 1))"),
}
FROZEN = sorted(set(RECORDS) - {"SearchReport"})


def test_every_record_is_covered():
    exported = {name for name in bihyper.__all__
                if hasattr(getattr(bihyper, name), "__match_args__")}
    assert exported == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_is_pinned(name):
    factory, text = RECORDS[name]
    assert repr(factory()) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_instances_compare_equal(name):
    factory, _ = RECORDS[name]
    a, b = factory(), factory()
    assert a is not b and a == b and not a != b
    assert a != repr(a) and a != object()


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_hash_and_refuse_assignment(name):
    factory, _ = RECORDS[name]
    a, b = factory(), factory()
    assert hash(a) == hash(b) and len({a, b}) == 1
    field = type(a).__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def test_search_report_is_mutable_and_unhashable():
    report = RECORDS["SearchReport"][0]()
    report.verdict = "aborted"
    report.cursor = (4, 7)
    assert (report.verdict, report.cursor) == ("aborted", (4, 7))
    assert report != RECORDS["SearchReport"][0]()
    with pytest.raises(TypeError):
        hash(report)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_pickle_round_trip(name):
    value = RECORDS[name][0]()
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(value), copy.deepcopy(value)]
    for twin in copies:
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)


def test_partition_is_a_slotted_value():
    # Partition keeps its labels in a slot; weak references, the refused
    # writes and value semantics must survive that and any round trip
    p = Partition((0, 1, 0))
    assert weakref.ref(p)() is p
    for write in (lambda: setattr(p, "labels", (0, 0, 0)), lambda: setattr(p, "other", 1),
                  lambda: delattr(p, "labels")):
        with pytest.raises(AttributeError):
            write()
    assert p.labels == (0, 1, 0)
    fresh = Partition(p.labels)
    twins = [pickle.loads(pickle.dumps(p, protocol))
             for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in twins + [copy.copy(p), copy.deepcopy(p)]:
        assert twin == fresh and hash(twin) == hash(fresh)


def test_labeled_vertex_is_a_slotted_value():
    # LabeledVertex keeps its fields in slots, and construct and parse fill them
    # past the constructor; both kinds must behave as the checked value does
    built = construct([3, 2]).labels[1]
    fresh = LabeledVertex((1, 1), 1)
    for v in (built, fresh):
        assert weakref.ref(v)() is v
        for write in (lambda: setattr(v, "flag", 0), lambda: setattr(v, "other", 1),
                      lambda: delattr(v, "coords")):
            with pytest.raises(AttributeError):
                write()
        assert v == fresh and hash(v) == hash(fresh) and repr(v) == repr(fresh)
        twins = [pickle.loads(pickle.dumps(v, protocol))
                 for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins + [copy.copy(v), copy.deepcopy(v)]:
            assert type(twin) is LabeledVertex and twin == fresh and hash(twin) == hash(fresh)


def test_positional_construction_and_defaults():
    h = MixedHypergraph(4, ((0, 1, 2),))
    assert (h.c_edges, h.d_edges) == (((0, 1, 2),), ())
    cert = OneRealizationCertificate(True, (2,), (Partition((0, 1)),))
    assert (cert.failure, cert.counterexamples, bool(cert)) == (None, (), True)
    labeled = _labeled()
    assert LabeledHypergraph(labeled.hypergraph, labeled.labels, labeled.spec, "I") == labeled
    report = SearchReport(FeasibleSpec((3, 2)), (3,), {3: 2}, [], "certified-none", 2)
    assert (report.cursor, report.settled_by) == (None, {})


def test_fields_match_by_position():
    match FeasibleSpec((5, 3, 2)):
        case FeasibleSpec(values):
            assert values == (5, 3, 2)
    match LabeledVertex((2, 1), 0):
        case LabeledVertex(coords, flag):
            assert (coords, flag) == ((2, 1), 0)


PUBLIC_NAMES = [
    "ChromaticSpectrum", "DEFAULT_BUDGET", "EnumerationReport", "FORMAT_VERSION", "FeasibleSpec",
    "LabeledHypergraph", "LabeledVertex", "MixedHypergraph", "OneRealizationCertificate",
    "Partition", "ReductionMap", "SearchReport", "VERDICT_ABORTED", "VERDICT_NONE",
    "VERDICT_WITNESS", "VertexBijection", "build_bi_hypergraph", "build_hypergraph",
    "canonical_coloring", "canonical_colorings", "certify_lower_bound",
    "check_isomorphism_under_map", "chromatic_spectrum", "construct", "deleted_label",
    "enumerate_strict_colorings", "induced_subhypergraph", "is_one_realization", "is_proper",
    "iter_strict_colorings", "min_size", "parse", "reduction_bijection", "serialize",
    "special_edge_labels",
]

# names deleted because nothing in the package used them, each with its old owner
DELETED = [
    (minimality, "enumerate_bi_hypergraphs"), (minimality, "DEFAULT_VERTEX_CAP"),
    (model, "strict_class_count"), (model, "ImproperColoringError"),
    (MixedHypergraph, "bi_edges"), (MixedHypergraph, "is_3_uniform"),
    (Partition, "restrict"), (VertexBijection, "inverse"),
    (LabeledHypergraph, "index_of"), (serialization, "HypergraphDocument"),
    (colorings, "feasible_set"), (colorings, "default_vertex_order"),
]


def test_public_surface_is_pinned():
    # growing the surface has to be deliberate: extend this list with the export
    assert sorted(bihyper.__all__) == PUBLIC_NAMES
    assert len(set(bihyper.__all__)) == len(bihyper.__all__)
    assert all(hasattr(bihyper, name) for name in bihyper.__all__)
    for owner, name in DELETED:
        assert not hasattr(owner, name), (owner, name)
        assert not hasattr(bihyper, name), name
