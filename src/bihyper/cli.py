"""Command-line front end.

Exit codes: 0 = claim verified / command succeeded, 1 = claim refuted
(a verification failed, or a witness turned up below the size bound),
2 = usage or input error, 3 = search aborted on budget.  The default
search budget can be overridden with the BIHYPER_BUDGET environment
variable or the --budget flag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .colorings import enumerate_strict_colorings, is_one_realization
from .construction import FeasibleSpec, LabeledHypergraph, construct, min_size
from .minimality import (DEFAULT_BUDGET, VERDICT_ABORTED, VERDICT_WITNESS,
                         certify_lower_bound)
from .model import MixedHypergraph, Partition, VertexBijection, check_isomorphism_under_map
from .serialization import parse, serialize

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

BUDGET_ENV = "BIHYPER_BUDGET"


class UsageError(Exception):
    pass


def _load(path: str) -> MixedHypergraph | LabeledHypergraph:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    try:
        return parse(text)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}")


def _plain(value: MixedHypergraph | LabeledHypergraph) -> MixedHypergraph:
    return value.hypergraph if isinstance(value, LabeledHypergraph) else value


def _vertex_name(value, v: int) -> str:
    if isinstance(value, LabeledHypergraph):
        return str(value.labels[v])
    return str(v)


def _print_partition(value, partition: Partition) -> None:
    classes = (" ".join(_vertex_name(value, v) for v in cl) for cl in partition.classes())
    print(f"    {partition.class_count} classes: " + " | ".join(classes))


def _default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{BUDGET_ENV}={raw!r} is not an integer")


def _spec(text: str) -> FeasibleSpec:
    try:
        return FeasibleSpec.from_string(text)
    except ValueError as exc:
        raise UsageError(str(exc))


def _cmd_formula(args) -> int:
    print(min_size(_spec(args.set)))
    return EXIT_OK


def _cmd_construct(args) -> int:
    spec = _spec(args.set)
    try:
        built = construct(spec, args.variant, drop_special=args.drop_special)
    except ValueError as exc:
        raise UsageError(str(exc))
    text = serialize(built)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}")
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
    spec = _spec(args.set)
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
    spec = _spec(args.set)
    bound = min_size(spec)
    v_max = args.max_vertices if args.max_vertices is not None else bound - 1
    resume = None
    if args.resume:
        try:
            v_part, mask_part = args.resume.split(":")
            resume = (int(v_part), int(mask_part))
        except ValueError:
            raise UsageError(f"--resume expects V:MASK, got {args.resume!r}")
    budget = args.budget if args.budget is not None else _default_budget()
    try:
        report = certify_lower_bound(spec, v_max, budget=budget, resume=resume,
                                     max_witnesses=args.max_witnesses)
    except ValueError as exc:
        raise UsageError(str(exc))
    for v in report.vertex_counts_searched:
        print(f"v={v}: examined {report.instances_examined[v]} instances")
    print(f"verdict: {report.verdict} (bound for {{{spec}}} is {bound})")
    if report.verdict == VERDICT_ABORTED:
        v, mask = report.cursor
        print(f"resume with --resume {v}:{mask}")
        return EXIT_BUDGET
    if report.verdict == VERDICT_WITNESS:
        below_bound = False
        for h, cert in report.witnesses:
            where = "below the bound!" if h.vertex_count < bound else "at/above the bound"
            below_bound = below_bound or h.vertex_count < bound
            print(f"witness on {h.vertex_count} vertices ({where}): edges {list(h.c_edges)}")
            for witness in cert.witnesses:
                _print_partition(h, witness)
        return EXIT_REFUTED if below_bound else EXIT_OK
    return EXIT_OK


def _cmd_isocheck(args) -> int:
    h1 = _plain(_load(args.file1))
    h2 = _plain(_load(args.file2))
    try:
        raw = json.loads(Path(args.map).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read map {args.map}: {exc}")
    try:
        mapping: dict[int, int] = {}
        for a, b in raw:
            if int(a) in mapping:
                raise ValueError(f"vertex {int(a)} is mapped more than once")
            mapping[int(a)] = int(b)
        bijection = VertexBijection.from_mapping(mapping)
        ok = check_isomorphism_under_map(h1, h2, bijection)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{args.map}: expected a JSON list of [from, to] pairs: {exc}")
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
    p.add_argument("--variant", default="auto", choices=["I", "II", "auto"])
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
    p.add_argument("--budget", type=int, default=None,
                   help=f"masks processed per run (default {DEFAULT_BUDGET} or ${BUDGET_ENV})")
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
