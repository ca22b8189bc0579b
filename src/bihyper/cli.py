"""Command-line front end.

Exit codes: 0 = claim verified / command succeeded, 1 = claim refuted
(a verification failed, or a witness turned up below the size bound),
2 = usage or input error, 3 = search aborted on budget.  ``--budget`` is
the one way to change min-search's default budget.  A usage error is a
``ValueError``, raised by the library for every input it refuses or here
for an unusable file or flag; ``main`` prints it as ``error: <message>``
and exits 2, and lets any other exception (an internal fault) propagate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .colorings import enumerate_strict_colorings, is_one_realization
from .construction import VARIANTS, FeasibleSpec, LabeledHypergraph, _decimals, construct, min_size
from .minimality import (DEFAULT_BUDGET, METHOD_SCAN, VERDICT_ABORTED, VERDICT_WITNESS,
                         _count, certify_lower_bound)
from .model import MixedHypergraph, Partition, VertexBijection, check_isomorphism_under_map
from .serialization import parse, serialize

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _load(path: str) -> MixedHypergraph | LabeledHypergraph:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")


def _plain(value: MixedHypergraph | LabeledHypergraph) -> MixedHypergraph:
    return value.hypergraph if isinstance(value, LabeledHypergraph) else value


def _vertex_name(value, v: int) -> str:
    return str(value.labels[v] if isinstance(value, LabeledHypergraph) else v)


def _print_partition(value, partition: Partition) -> None:
    classes = (" ".join(_vertex_name(value, v) for v in cl) for cl in partition.classes())
    print(f"    {partition.class_count} classes: " + " | ".join(classes))


def _cmd_formula(args) -> int:
    print(min_size(FeasibleSpec.from_string(args.set)))
    return EXIT_OK


def _cmd_construct(args) -> int:
    spec = FeasibleSpec.from_string(args.set)
    built = construct(spec, args.variant, drop_special=args.drop_special)
    text = serialize(built)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc}")
        note = " (unproven regime)" if built.unproven_regime else ""
        print(f"wrote variant {built.variant} construction for {{{spec}}} with "
              f"{built.vertex_count} vertices to {args.out}{note}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    value = _load(args.file)
    report = enumerate_strict_colorings(_plain(value), limit=0)
    spectrum = report.spectrum
    if args.json:
        print(json.dumps({
            "vertex_count": _plain(value).vertex_count,
            "upper_chromatic": spectrum.upper_chromatic,
            "counts": list(spectrum.counts),
            "feasible": list(report.feasible),
            "strict_colorings": spectrum.total,
            "nodes_explored": report.nodes_explored,
        }, indent=2))
        return EXIT_OK
    print(f"vertices: {_plain(value).vertex_count}")
    print(f"strict colorings: {spectrum.total}")
    print("k   r_k")
    for k, count in enumerate(spectrum.counts, start=1):
        print(f"{k:<3} {count}")
    feasible = ", ".join(str(k) for k in report.feasible)
    print(f"feasible set: {{{feasible}}}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    spec = FeasibleSpec.from_string(args.set)
    value = _load(args.file)
    cert = is_one_realization(_plain(value), spec.values)
    if cert.ok:
        print(f"one-realization of {{{spec}}}: yes")
        for witness in cert.witnesses:
            _print_partition(value, witness)
        return EXIT_OK
    print(f"one-realization of {{{spec}}}: no ({cert.failure})")
    for p in cert.counterexamples:
        _print_partition(value, p)
    return EXIT_REFUTED


def _cmd_min_search(args) -> int:
    spec = FeasibleSpec.from_string(args.set)
    bound = min_size(spec)
    resume = None
    if args.resume:
        try:
            v, mask = _decimals(args.resume, ":")
        except ValueError:
            raise ValueError(f"--resume expects V:MASK, got {args.resume!r}")
        resume = (v, mask)
    report = certify_lower_bound(spec, args.max_vertices, budget=args.budget, resume=resume,
                                 max_witnesses=args.max_witnesses)
    for v in report.vertex_counts_searched:
        method = report.settled_by.get(v, METHOD_SCAN)
        by = "" if method == METHOD_SCAN else f" ({method})"
        print(f"v={v}: examined {_count(report.instances_examined[v])} instances{by}")
    print(f"verdict: {report.verdict} (bound for {{{spec}}} is {bound})")
    if report.verdict == VERDICT_ABORTED:
        v, mask = report.cursor
        print(f"resume with --resume {v}:{mask}")
        return EXIT_BUDGET
    if report.verdict == VERDICT_WITNESS:
        for h, cert in report.witnesses:
            where = "below the bound!" if h.vertex_count < bound else "at/above the bound"
            print(f"witness on {h.vertex_count} vertices ({where}): edges {list(h.c_edges)}")
            for witness in cert.witnesses:
                _print_partition(h, witness)
        return EXIT_REFUTED if min(h.vertex_count for h, _ in report.witnesses) < bound else EXIT_OK
    return EXIT_OK


def _cmd_isocheck(args) -> int:
    h1 = _plain(_load(args.file1))
    h2 = _plain(_load(args.file2))
    try:
        raw = json.loads(Path(args.map).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read map {args.map}: {exc}")
    try:
        mapping: dict[int, int] = {}
        for a, b in raw:
            if a in mapping:
                raise ValueError(f"vertex {a!r} is mapped more than once")
            mapping[a] = b
        bijection = VertexBijection.from_mapping(mapping)
        ok = check_isomorphism_under_map(h1, h2, bijection)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{args.map}: expected a JSON list of [from, to] pairs: {exc}")
    print("isomorphic under the supplied map" if ok else "map does not preserve the edge families")
    return EXIT_OK if ok else EXIT_REFUTED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bihyper",
        description="Construct, enumerate and verify mixed-hypergraph colorings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("formula", help="print the minimum one-realization size for a set")
    p.add_argument("--set", required=True, metavar="N1,N2,...")
    p.set_defaults(func=_cmd_formula)

    p = sub.add_parser("construct", help="build a minimum one-realization and serialize it")
    p.add_argument("--set", required=True, metavar="N1,N2,...")
    p.add_argument("--variant", default="auto", choices=[*VARIANTS, "auto"])
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--drop-special", action="store_true",
                   help="omit the explicit flag-monochromatic edge")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("spectrum", help="enumerate strict colorings of a serialized hypergraph")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("verify", help="check a hypergraph is a one-realization of a set")
    p.add_argument("file")
    p.add_argument("--set", required=True, metavar="N1,N2,...")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("min-search", help="exhaustive small-instance one-realization search")
    p.add_argument("--set", required=True, metavar="N1,N2,...")
    p.add_argument("--max-vertices", type=int, default=None)
    p.add_argument("--resume", metavar="V:MASK")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help=f"masks scanned per run (default {DEFAULT_BUDGET})")
    p.add_argument("--max-witnesses", type=int, default=1)
    p.set_defaults(func=_cmd_min_search)

    p = sub.add_parser("isocheck", help="verify an explicit vertex bijection is an isomorphism")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--map", required=True, metavar="FILE",
                   help="JSON list of [from, to] vertex index pairs")
    p.set_defaults(func=_cmd_isocheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
