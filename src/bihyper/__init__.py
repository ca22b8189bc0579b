"""Exact coloring toolkit for mixed hypergraphs.

Build minimum 3-uniform bi-hypergraphs whose strict colorings hit a
prescribed set of class counts exactly once each, enumerate chromatic
spectra by pruned exhaustive search, and certify minimality over all small
instances.
"""

from .colorings import (ChromaticSpectrum, EnumerationReport,
                        OneRealizationCertificate, chromatic_spectrum,
                        enumerate_strict_colorings, is_one_realization,
                        iter_strict_colorings)
from .construction import (FeasibleSpec, LabeledHypergraph, LabeledVertex,
                           ReductionMap, canonical_coloring, canonical_colorings,
                           construct, deleted_label, min_size, reduction_bijection,
                           special_edge_labels)
from .minimality import (DEFAULT_BUDGET, SearchReport, VERDICT_ABORTED,
                         VERDICT_NONE, VERDICT_WITNESS, certify_lower_bound)
from .model import (MixedHypergraph, Partition, VertexBijection, build_bi_hypergraph,
                    build_hypergraph, check_isomorphism_under_map, induced_subhypergraph,
                    is_proper)
from .serialization import FORMAT_VERSION, parse, serialize

__version__ = "0.1.0"

__all__ = [
    "ChromaticSpectrum", "EnumerationReport", "OneRealizationCertificate",
    "chromatic_spectrum", "enumerate_strict_colorings", "is_one_realization",
    "iter_strict_colorings",
    "FeasibleSpec", "LabeledHypergraph", "LabeledVertex", "ReductionMap",
    "canonical_coloring", "canonical_colorings", "construct", "deleted_label",
    "min_size", "reduction_bijection", "special_edge_labels",
    "DEFAULT_BUDGET", "SearchReport", "VERDICT_ABORTED", "VERDICT_NONE",
    "VERDICT_WITNESS", "certify_lower_bound",
    "MixedHypergraph", "Partition", "VertexBijection", "build_bi_hypergraph",
    "build_hypergraph", "check_isomorphism_under_map", "induced_subhypergraph", "is_proper",
    "FORMAT_VERSION", "parse", "serialize",
]
