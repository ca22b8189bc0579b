"""Benchmark for bihyper: closed-loop workloads, timed end to end and per module.

Run from the repository root:

    python3 perfbench/run.py --workload settle --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py): ``settle`` (certify_lower_bound(S, 5) for a
seeded sample of target sets), ``verify-sweep`` (construct, serialize,
parse and is_one_realization) and ``spectrum`` (enumerate_strict_colorings
on sparse mixed hypergraphs, a seeded sample of a fixed pool).  One caller
issues each op after the previous one returned; there are no worker threads.

The fixed batch of ops is made from ``--seed`` and run in passes until
``--seconds`` is used up (at least one pass).  Every op's output is checked
after its timer stops; deterministic counts must repeat between passes and
between runs of the same code and seed (kept in perfbench/out/counts.json).

``--trace 0`` prints the end-to-end metrics.  On a shared host other
tenants can halve this process's speed for minutes at a time, so after
every op a fixed pure-Python reference kernel is timed too, and each op's
time is scaled by REFERENCE_S over the median reference time around it:
the ops' times as if the kernel took REFERENCE_S.  An op's latency is the
median of its scaled times over the passes; wall_s is the batch time, the
sum of those latencies, and op_p50_ms and op_p90_ms are their percentiles
over the ops (the sample count is the batch size, printed as
``op_samples``).  The ``env`` line gives the unscaled batch time and the
host's speed (REFERENCE_S over the median reference time).  setup_s is a
fresh interpreter until ``import bihyper`` returns, unscaled: the median of
launches made a few before each pass.  peak_rss_mb is this process's peak
resident memory.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics instead: span timings around calls into each module, the
counts, probes of CLI start-up and of two baseline enumerations, and the
tracing overhead (traced over untraced batch time).  ``*_ms`` layer metrics
are medians per call; ``*_s`` ones are seconds per pass.  A layer the
workload does not call reports 0; a metric whose wrapped name is gone from
the package is left out and named on the ``absent`` line.  The spans of the
last traced pass are written to perfbench/out/.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every check passed, 1 when one failed and 2 when bihyper cannot be
imported from ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import population
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_LAUNCHES = 9
SETUP_PER_PASS = 3  # untraced runs spread their set-up launches over the run
EDGELESS_COLORINGS = 115_975  # Bell(10): every partition of 10 vertices
C1092 = (10, 9, 2)
PARALLEL_INSTANCES = 4
IMPORT = ["-c", "import bihyper"]

# The reference kernel: fills a dict of tuple keys and list values, the
# allocation-heavy pure-Python work bihyper does, sharing no code with it.
# Untraced runs time it after every op and scale each op's time by
# REFERENCE_S over the reference times measured around it.  Other tenants
# of a shared host slow both by similar shares, so the scaled times move far
# less than the raw ones while the host's speed drifts; of the kernels
# tried, this one's slowdown tracked the ops' closest.
REFERENCE_ENTRIES = 8000
REFERENCE_S = 0.003
REFERENCE_WINDOW = 25  # reference timings on each side of an op that scale it

# Boundaries inside the package, wrapped in traced passes, and the metrics built on each.
INNER = (("minimality", "is_one_realization", "minimality.is_one_realization",
          ("minimality.check_s",)),
         ("minimality", "MixedHypergraph", "minimality.MixedHypergraph", ("model.hypergraph_s",)),
         ("colorings", "Partition", "colorings.Partition", ("model.partition_s",)))


def import_bihyper():
    """Import bihyper from this checkout's src/, or exit 2 without a result."""
    package = SRC / "bihyper"
    if (package / "__init__.py").is_file():
        sys.path.insert(0, str(SRC))
        import bihyper
        if Path(bihyper.__file__).resolve().parent == package.resolve():
            return bihyper
    print(f"perfbench: cannot import bihyper from {package}; run from a checkout of the "
          f"repository", file=sys.stderr)
    sys.exit(2)


def sha256_of(value) -> str:
    return hashlib.sha256(json.dumps(value, separators=(",", ":")).encode()).hexdigest()


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(list((SRC / "bihyper").rglob("*.py")) + list(HERE.glob("*.py"))):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def launch_times(args: list[str], count: int, expect: str | None = None) -> list[float]:
    """Wall times of ``count`` fresh interpreters running ``args``, one after another."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(count):
        start = perf_counter()
        done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=60)
        times.append(perf_counter() - start)
        if done.returncode != 0 or (expect is not None and done.stdout.strip() != expect):
            raise RuntimeError(f"{args} exited {done.returncode}: {done.stderr.strip()[-300:]}")
    return times


def launch_median(args: list[str], expect: str | None = None) -> float:
    """Median wall time of fresh interpreters running ``args``, after one warm-up launch."""
    return statistics.median(launch_times(args, SETUP_LAUNCHES + 1, expect)[1:])


def reference_s() -> float:
    """Seconds the reference kernel takes now."""
    start = perf_counter()
    table = {}
    for i in range(REFERENCE_ENTRIES):
        table[i, i * 7 % 13] = [i, i + 1]
    found = sum(len(v) for v in table.values())
    elapsed = perf_counter() - start
    if found != 2 * REFERENCE_ENTRIES:
        raise RuntimeError(f"reference kernel gave {found}, not {2 * REFERENCE_ENTRIES}")
    return elapsed


def scaled(times: list[float], refs: list[float]) -> list[float]:
    """Each of ``times``, times REFERENCE_S over the median of the ``refs`` next to it."""
    w = REFERENCE_WINDOW
    return [t * REFERENCE_S / statistics.median(refs[max(0, i - w):i + w + 1])
            for i, t in enumerate(times)]


def timed(fn, *args, **kwargs):
    start = perf_counter()
    result = fn(*args, **kwargs)
    return perf_counter() - start, result


def probes(bh, nproc: int, problems: list[str], absent: list[str]) -> dict[str, float]:
    """Traced-run probes: CLI start-up, edgeless v=10, construct([10, 9, 2]) and the pool."""
    m = {"cli.interpreter_s": launch_median(["-c", "pass"]),
         "cli.import_s": launch_median(IMPORT),
         "cli.formula_s": launch_median(["-m", "bihyper", "formula", "--set", "4,2"], "8")}

    edgeless = bh.build_hypergraph(10)
    runs = [timed(bh.enumerate_strict_colorings, edgeless) for _ in range(3)]
    report = runs[0][1]
    if report.spectrum.total != EDGELESS_COLORINGS:
        problems.append(f"edgeless v=10 has {report.spectrum.total} colorings, "
                        f"not {EDGELESS_COLORINGS}")
    m["colorings.edgeless10_ms"] = statistics.median(t for t, _ in runs) * 1e3
    m["colorings.edgeless10_nodes"] = report.nodes_explored
    m["colorings.edgeless10_colorings"] = report.spectrum.total

    built = bh.construct(C1092)
    runs = [timed(bh.enumerate_strict_colorings, built.hypergraph) for _ in range(9)]
    report = runs[0][1]
    if report.feasible != tuple(sorted(C1092)) or report.spectrum.total != len(C1092):
        problems.append(f"construct({list(C1092)}) has spectrum {report.spectrum.counts}")
    m["colorings.c1092_ms"] = statistics.median(t for t, _ in runs) * 1e3
    m["colorings.c1092_nodes"] = report.nodes_explored
    m["colorings.c1092_vertices"] = built.vertex_count

    if "threads" not in inspect.signature(bh.enumerate_strict_colorings).parameters:
        absent.append("colorings.parallel_speedup")
        return m
    # A fixed subset: the first 10-vertex instances of the spectrum pool.
    subset = [bh.build_hypergraph(v, c, d) for v, c, d in population.spectrum_pool()
              if v == 10][:PARALLEL_INSTANCES]
    threads = max(2, min(nproc, 4))
    serial, pooled = [], []
    for _ in range(3):
        one = [timed(bh.enumerate_strict_colorings, h) for h in subset]
        many = [timed(bh.enumerate_strict_colorings, h, threads=threads) for h in subset]
        if any(a.colorings != b.colorings for (_, a), (_, b) in zip(one, many)):
            problems.append(f"threads={threads} changed the colorings")
        serial.append(sum(t for t, _ in one))
        pooled.append(sum(t for t, _ in many))
    m["colorings.parallel_speedup"] = statistics.median(serial) / statistics.median(pooled)
    return m


def run_pass(bh, wl, inputs, api, deep, rng, problems, tracer=None, refs=None):
    """One pass over the batch; returns per-op seconds, the summed counts and failed ops.

    With ``refs`` given, the reference kernel is timed after each op and appended to it.
    """
    op = wl.op if tracer is None else tracer.wrap(wl.op, "op." + wl.name)
    durations = []
    counts: dict[str, int] = {}
    failed = 0
    for i, item in enumerate(inputs):
        if tracer is not None:
            tracer.op = i
        start = perf_counter()
        try:
            result = op(api, item)
        except Exception as exc:  # a failed op is counted, and the run goes on
            durations.append(perf_counter() - start)
            found, op_counts = [f"raised {exc!r}"], {}
        else:
            durations.append(perf_counter() - start)
            found, op_counts = wl.check(bh, item, result, i in deep, rng)
        problems.extend(f"op {i}: {p}" for p in found)
        failed += bool(found)
        for key, value in op_counts.items():
            counts[key] = counts.get(key, 0) + value
        if refs is not None:
            refs.append(reference_s())
    return durations, counts, failed


def layer_metrics(tr: tracing.Tracer, counts: dict[str, int]) -> dict[str, float]:
    def median_ms(name):
        d = tr.durations(name)
        return statistics.median(d) * 1e3 if d else 0.0

    def per(total, count, scale):
        return total / count * scale if count else 0.0

    nodes = counts.get("colorings.nodes", 0)
    instances = counts.get("minimality.instances", 0)
    return {
        "construction.construct_ms": median_ms("construction.construct"),
        "construction.vertices": counts.get("construction.vertices", 0),
        "construction.edges": counts.get("construction.edges", 0),
        "serialization.serialize_ms": median_ms("serialization.serialize"),
        "serialization.parse_ms": median_ms("serialization.parse"),
        "serialization.bytes": counts.get("serialization.bytes", 0),
        "colorings.verify_ms": median_ms("colorings.is_one_realization"),
        "colorings.enumerate_ms": median_ms("colorings.enumerate_strict_colorings"),
        "colorings.nodes": nodes,
        "colorings.colorings": counts.get("colorings.colorings", 0),
        "colorings.ns_per_node": per(tr.total("colorings.enumerate_strict_colorings")[1],
                                     nodes, 1e9),
        "model.partition_s": tr.total("colorings.Partition")[2],
        "minimality.settle_ms": median_ms("minimality.certify_lower_bound"),
        "minimality.instances": instances,
        "minimality.us_per_instance": per(tr.total("minimality.certify_lower_bound")[1],
                                          instances, 1e6),
        "minimality.check_s": tr.total("minimality.is_one_realization")[2],
        "model.hypergraph_s": tr.total("minimality.MixedHypergraph")[1],
    }


UNITS = {"colorings.ns_per_node": "ns", "minimality.us_per_instance": "us",
         "colorings.parallel_speedup": "ratio", "trace.overhead": "ratio"}
SUFFIX_UNITS = {"_ms": "ms", "_s": "s", "_mb": "MB"}


def unit_of(name: str) -> str:
    """Units follow the name's suffix; the other names are listed, and the rest are counts."""
    if name in UNITS:
        return UNITS[name]
    return next((u for suffix, u in SUFFIX_UNITS.items() if name.endswith(suffix)), "count")


def check_counts_repeat(key: str, counts: dict[str, int], problems: list[str]) -> None:
    """Compare the counts with an earlier run of the same code and seed, then record them."""
    path = OUT / "counts.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    if key in known and known[key] != counts:
        problems.append(f"counts differ from an earlier run of the same code and seed: "
                        f"{known[key]} then {counts}")
    known[key] = counts
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    tmp.replace(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("settle", "verify-sweep", "spectrum"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bh = import_bihyper()
    began = perf_counter()
    nproc = len(os.sched_getaffinity(0))
    wl = workloads.build(bh)[args.workload]
    inputs = wl.make_inputs(args.seed)
    inputs_digest = sha256_of([wl.describe(x) for x in inputs])
    rng = random.Random(f"checks-{args.seed}")
    deep = (set(range(len(inputs))) if wl.deep_ops is None
            else set(rng.sample(range(len(inputs)), wl.deep_ops)))
    OUT.mkdir(exist_ok=True)

    problems: list[str] = []
    absent: list[str] = []
    metrics: dict[str, float] = {}
    if args.trace:
        metrics.update(probes(bh, nproc, problems, absent))
    else:
        launch_times(IMPORT, 1)  # warm-up
        reference_s()
    setups: list[float] = []

    plain_api = {attr: getattr(bh, attr) for attr, _ in wl.api}
    plain_walls, traced_walls, plain_passes, scaled_passes, layers = [], [], [], [], []
    all_refs: list[float] = []
    pass_counts = None
    failed = 0
    start = perf_counter()
    longest = 0.0
    while True:
        traced = args.trace == 1 and len(plain_walls) > len(traced_walls)
        pass_start = perf_counter()
        if traced:
            tr = tracing.Tracer()
            targets = [(getattr(bh, mod, None), attr, span, True) for mod, attr, span, _ in INNER]
            api = {attr: tr.wrap(plain_api[attr], span) for attr, span in wl.api}
            with tracing.patched(tr, targets) as missing:
                durations, counts, bad = run_pass(bh, wl, inputs, api, set(), rng, problems, tr)
            absent.extend(m for mod, attr, span, names in INNER if span in missing
                          for m in names if m not in absent)
            layers.append(layer_metrics(tr, counts))
            traced_walls.append(sum(durations))
        else:
            refs = None if args.trace else []
            if refs is not None:
                setups.extend(launch_times(IMPORT, SETUP_PER_PASS))
            durations, counts, bad = run_pass(bh, wl, inputs, plain_api,
                                              deep if not plain_walls else set(), rng, problems,
                                              refs=refs)
            plain_walls.append(sum(durations))
            plain_passes.append(durations)
            if refs is not None:
                scaled_passes.append(scaled(durations, refs))
                all_refs.extend(refs)
        failed += bad
        if pass_counts is None:
            pass_counts = counts
        elif counts != pass_counts:
            problems.append(f"counts differ between passes: {pass_counts} then {counts}")
        longest = max(longest, perf_counter() - pass_start)
        done = len(plain_walls) >= 1 and (args.trace == 0 or len(traced_walls) >= 1)
        if done and perf_counter() - start + longest > args.seconds:
            break

    check_counts_repeat(f"{wl.name} seed={args.seed} source={source_digest()}",
                        pass_counts, problems)
    if args.trace:
        for name in layers[0]:
            if name not in absent:
                metrics[name] = statistics.median_low(layer[name] for layer in layers)
        metrics["trace.overhead"] = statistics.median(traced_walls) / statistics.median(plain_walls)
        tr.write(OUT / f"trace-{wl.name}-seed{args.seed}.jsonl")
    else:
        setups.extend(launch_times(IMPORT, max(0, SETUP_LAUNCHES - len(setups))))
        metrics["setup_s"] = statistics.median(setups)
        latencies = [statistics.median(op) for op in zip(*scaled_passes)]
        deciles = statistics.quantiles(latencies, n=10, method="inclusive")
        metrics["wall_s"] = sum(latencies)
        metrics["op_p50_ms"] = statistics.median(latencies) * 1e3
        metrics["op_p90_ms"] = deciles[8] * 1e3
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = len(inputs) * (len(plain_walls) + len(traced_walls))
    failed = min(attempted, failed + sum(not p.startswith("op ") for p in problems))
    env = {"workload": wl.name, "seed": args.seed, "python": platform.python_version(),
           "nproc": nproc, "commit": git_commit(), "source_sha256": source_digest(),
           "inputs_sha256": inputs_digest, "ops_per_pass": len(inputs),
           "untraced_passes": len(plain_walls), "traced_passes": len(traced_walls),
           "op_samples": 0 if args.trace else len(inputs), "fail_ratio": failed / attempted,
           "counts": pass_counts, "elapsed_s": round(perf_counter() - began, 3)}
    if not args.trace:
        env["host_speed"] = REFERENCE_S / statistics.median(all_refs)
        env["unscaled_wall_s"] = sum(statistics.median(op) for op in zip(*plain_passes))
    print("env " + json.dumps(env))
    print("absent " + json.dumps(sorted(absent)))
    for problem in problems[:20]:
        print("FAIL " + problem, file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit_of(name)}
                                  for name, value in metrics.items()}}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
