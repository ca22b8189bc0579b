"""The three workloads: seeded inputs, the timed op, and the untimed checks.

Each op is one closed-loop call sequence into bihyper's public names, made
through ``api``, a dict of callables that the traced run replaces with
wrapped ones.  ``check`` looks at an op's output after the timer stopped;
it returns the list of problems found (empty when the op is correct) and
the op's deterministic counts.  ``deep`` asks for the expensive
cross-check against the brute-force oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import oracle
import population

VERDICT_NONE = "certified-none"


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], list]
    describe: Callable[[object], object]   # JSON-able view of one input, for the digest
    api: tuple[tuple[str, str], ...]        # (bihyper attribute, span name) the op calls
    op: Callable[[dict, object], object]
    check: Callable[..., tuple[list[str], dict[str, int]]]
    deep_ops: int | None                    # ops cross-checked by the oracle; None = all


def _stratified(rng: random.Random, pairs, fraction: float) -> list:
    """Draw ``round(fraction * size)`` members of every stratum, then shuffle.

    ``pairs`` holds (item, stratum) pairs.  The draw's size and its mix of
    strata are the same for every seed; only the members differ.
    """
    strata: dict[object, list] = {}
    for item, stratum in pairs:
        strata.setdefault(stratum, []).append(item)
    chosen = []
    for stratum in sorted(strata):
        members = strata[stratum]
        chosen.extend(rng.sample(members, round(len(members) * fraction)))
    rng.shuffle(chosen)
    return chosen


# settle: about 41 % of the 247 target sets with n1 <= 9.  The instances
# scanned have at most 5 vertices, so an op's cost depends on S only through
# S & {2, 3, 4, 5}; that is the stratum.
SETTLE_V_MAX = 5
SETTLE_POPULATION = [(spec, tuple(sorted(set(spec) & {2, 3, 4, 5})))
                     for n1 in range(3, 10) for spec in population.specs(n1)]
SETTLE_FRACTION = 0.41
SETTLE_MASKS_CHECKED = 8


def _settle_op(api, spec):
    return api["certify_lower_bound"](spec, SETTLE_V_MAX)


def _settle_check(bh, spec, report, deep, rng):
    problems = []
    if report.verdict != VERDICT_NONE:
        problems.append(f"certify_lower_bound({spec}, {SETTLE_V_MAX}) gave {report.verdict}")
    if deep:
        for _ in range(SETTLE_MASKS_CHECKED):
            v = rng.randint(3, SETTLE_V_MAX)
            mask = rng.randrange(1 << (v * (v - 1) * (v - 2) // 6))
            if oracle.is_one_realization(v, oracle.triples_of_mask(v, mask), spec):
                problems.append(f"{spec}: oracle finds a one-realization at v={v} mask={mask}")
    return problems, {"minimality.instances": sum(report.instances_examined.values())}


# verify-sweep: a tenth of the 1,916 target sets with 9 <= n1 <= 12,
# stratified by the op's cost (see population.py).
VERIFY_FRACTION = 1 / 10


def _verify_op(api, spec):
    built = api["construct"](spec)
    text = api["serialize"](built)
    parsed = api["parse"](text)
    cert = api["is_one_realization"](parsed.hypergraph, spec)
    return built, text, parsed, cert


def _verify_check(bh, spec, result, deep, rng):
    built, text, parsed, cert = result
    h = parsed.hypergraph
    problems = []
    if not cert.ok:
        problems.append(f"construct({spec}) is not a one-realization: {cert.failure}")
    if deep:
        if parsed != built or bh.serialize(parsed) != text:
            problems.append(f"construct({spec}): parse/serialize does not round-trip")
        expected = sorted(bh.canonical_colorings(parsed), key=lambda p: p.class_count)
        if list(cert.witnesses) != expected:
            problems.append(f"construct({spec}): witnesses differ from canonical_colorings")
        for p in cert.witnesses:
            if not oracle.proper(p.labels, h.c_edges, h.d_edges):
                problems.append(f"construct({spec}): witness {p} is not proper")
    counts = {"construction.vertices": h.vertex_count, "construction.edges": len(h.c_edges),
              "serialization.bytes": len(text.encode())}
    return problems, counts


# spectrum: an eighth of the 1,200 pool instances, stratified by vertex
# count and search cost (see population.py).
SPECTRUM_FRACTION = 1 / 8
SPECTRUM_DEEP_OPS = 2


def _spectrum_op(api, h):
    return api["enumerate_strict_colorings"](h)


def _spectrum_check(bh, h, report, deep, rng):
    problems = []
    labels = [p.labels for p in report.colorings]
    if len(labels) != report.spectrum.total or labels != sorted(set(labels)):
        problems.append("colorings are not one sorted, duplicate-free list matching the spectrum")
    if deep:
        expected = oracle.spectrum(h.vertex_count, h.c_edges, h.d_edges)
        if tuple(report.spectrum.counts) != expected:
            problems.append(f"spectrum {report.spectrum.counts} != brute force {expected}")
    return problems, {"colorings.nodes": report.nodes_explored,
                      "colorings.colorings": report.spectrum.total}


def build(bh) -> dict[str, Workload]:
    """The workloads, bound to the imported bihyper package ``bh``."""

    def spectrum_inputs(seed):
        raws = _stratified(random.Random(seed), population.spectrum_population(),
                           SPECTRUM_FRACTION)
        return [bh.build_hypergraph(v, c, d) for v, c, d in raws]

    return {w.name: w for w in (
        Workload("settle",
                 lambda seed: _stratified(random.Random(seed), SETTLE_POPULATION,
                                          SETTLE_FRACTION),
                 list, (("certify_lower_bound", "minimality.certify_lower_bound"),),
                 _settle_op, _settle_check, None),
        Workload("verify-sweep",
                 lambda seed: _stratified(random.Random(seed), population.verify_population(),
                                          VERIFY_FRACTION),
                 list, (("construct", "construction.construct"),
                        ("serialize", "serialization.serialize"),
                        ("parse", "serialization.parse"),
                        ("is_one_realization", "colorings.is_one_realization")),
                 _verify_op, _verify_check, None),
        Workload("spectrum",
                 spectrum_inputs,
                 lambda h: [h.vertex_count, h.c_edges, h.d_edges],
                 (("enumerate_strict_colorings", "colorings.enumerate_strict_colorings"),),
                 _spectrum_op, _spectrum_check, SPECTRUM_DEEP_OPS),
    )}
