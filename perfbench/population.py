"""Input populations, and cost strata that make every seed draw the same mix.

The target sets with 9 <= n1 <= 12 differ in verification cost by a factor
of several hundred, and a handful of them cost seconds each, so a plain
random sample makes one seed's batch several times another's.
``VERIFY_BUCKETS`` holds one base-62 digit per target set, in the order
:func:`specs` lists them for n1 = 9, 10, 11, 12: ``int(3 * log2(us))``,
where ``us`` is the time of the ``verify-sweep`` op on S in microseconds,
scaled by the reference kernel as run.py scales it, median of three, as
the library stood when the benchmark was defined (2 vCPUs, Python 3.11).
Search-node counts alone group these ops too coarsely: the op's 90th
percentile moved by a tenth from seed to seed.  The digits only group the
population for sampling.

The ``spectrum`` workload draws from a fixed pool of sparse random mixed
hypergraphs, every third on 9 vertices and the rest on 10, each with the
same mix of edge kinds and sizes.  Their enumeration costs differ by a
factor of a hundred, so ``SPECTRUM_BUCKETS`` holds one digit per pool
member, the same function of its ``nodes_explored``.

``python3 perfbench/population.py`` recomputes both strings (about ten
minutes).  Changing them changes every seed's inputs, so only a change that
redefines the benchmark may do so.
"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

DIGITS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
VERIFY_N1 = (9, 10, 11, 12)
VERIFY_BUCKETS = (
    "HEEDDDDBCCCCBCCFBBBBBBBCBBBCBBBFDCCBBBBCBBBCBBBHCBBABBBCCBBDBBBJFCCCCACC"
    "BBBCBBANCBBBBBBCCBBDBBBLGEEBBBBHBBBBBBAICCCBABBECBBBBACJHHFFFFEEDDEEEEDC"
    "CCDDDDDDDDDDDDIFCCCCCCDCCCDCCCFDCCCCCCDDCCDCCCJFDDDDDDDCCCDCCCIDCCCCCCDD"
    "CCDCCCOIDDCCCCICCCDCCCFDDCCCCBFDCCDCCCOJFFEDDDDCCCDCDDFDCCBCCCDDCCECCDPN"
    "DDCCCCICCDDCCCFDDDCCCCFDCDFCCCQKIIEFFFDCCCDCCCOICCCCCCDDCCDCCCLJDDDDDDNC"
    "CCDDCCFDEECCCCFDCCECDDNKKIIIHGGFFGGFGEFEEEEEEFEEEFEFFGEDDDDDDEDDDEDDDGEE"
    "EEEEEEEEEFEEEJJGGCDDDEDDDEDDDJEDEDDDDEEDDEDDCJFEDDDDDIDDDEDDDGEEEDDDDGED"
    "DEEDDNJGGEEEEEDEEFEEEFFDDDDDDEEDDFDCERJEEDDDDJDDDEDDDGEEEDDDDGEDDFDEDQOI"
    "IEEEEEDDDEDDDPIDDDDDDEEDDEEDDOFEEEEEEOEDDEDEEFFEEEDEDHEEEFEEEVOJJGGGGFEE"
    "EFEEEGEEEEDEDEEEEFEEEPGEEEDDDJDDDEDDEFEEEEDDEGEDDEDEDQPNNEEEEEDDDEDDEPID"
    "CDDCDEEDDFCEDUFEEEEEEODDDEDDDFFEECDDDGFEEFDEDVPLMIIIIGFGGFGGEGEDDDDDDDED"
    "DFDEDPPIIDDDDJDDDEDDDNEEEEDDBFFDDFEDEQMJJEDDEEDEDEEEEUNDDDDDDEDDDEDEDMFG"
    "FEEEENCDCEDEDIGDEDEEEGFEDFCEEPNMKKLKIHIIIIIIGGGGGGGGHFGGHHGHHFEEFFFFGFFF"
    "GFFFHGFFFFFFGGFFGGFFTGFFEEEEEEEEFEEDKEEDEEEEFFEEFFEELGFEEEFEJEEEEEEEGFFE"
    "EEEDGFEEGEEEPKJJHHHHFEEEFEEFGFEEEEEEEFEEFEEEPJDFEEEEKDEEFEEEGFEFEEDEHFEE"
    "GEFEZJGGEEFEFEEEFFFEQIEEFEEFFFEEFEEEKGFEFFFFOEEEEEDEGHEFFEFDIFEEFEEFUPKK"
    "HHHHGFFFGFFFHGFFFFFFFGFFGFFFKHFFEFEFKFEEFEEEHFFFFFEFHGEFGFFFURJJFFFFDEEE"
    "FEEEPJEEEEEEFFEEFEEEPGFFFEFFPEEDFFDEGGFFEEEDIEEFFEEFWRPPIJJJFEEEFEFFGFEE"
    "ECEFFFEEFEEELPJJEEEEKEEEEEEEOGFFEEEEGFEEFEEEVOGGEFEFFFFFFFFFWOEEEEFFFFEF"
    "FFFFKGGGFFFFPEEEFEEEJHGFEEFEIFEFGFFEZVOPKKKKHHHGHFHHGGFFFFFFGFFFGEFEKHEF"
    "DFDEJEEEFEFEHEFFEFEEGFEFGFFFZPGGFFEGFEEEEEEEQJEDEEEFFFDEEEDEKHFEFFFFPEDE"
    "FEEEGHFGFEFEHFEEGFEFWQPQOOONFFEEFEFEGFEEEEEEFFEEFEEFKPJJEFDEJEEEFEEDOFFE"
    "EEEEGFEEFEEEVTGGFEFEFFDFFEFFWOEEEEFEFFFFFEEFJGGGFFFFPEFEFEFFJHFGFFFFHFFE"
    "GFFFZWQRMMMMJIJIJJJJIGHGGGGGHHGGIHGGZHEFFEEEKEEEFEEEGFFFEEEFHGEEFEEEQPQN"
    "IIJJFEFEFFEFPKDEEDEEFFEEFEEEVOFFFFFFOEEEFFEEFGDFEEFFIFFEGEEFVQMMKJKKFFFF"
    "FFFFMFFFFFFFFFFFGFFFNWOOEEEFKEEEFEFFUFFFEEEFHGEFGFFFQOGGGGGGGFFFGFFFWOEF"
    "FEFEFFEFFFFFJJHHGFFFPFEFFEFFLHGFFFFFIGFFGFFF"
)


SPECTRUM_POOL = 1200
SPECTRUM_EDGES = (("D", 2), ("C", 3), ("C", 3), ("D", 3), ("D", 3), ("B", 3), ("B", 3),
                  ("C", 4), ("D", 4), ("B", 4))
SPECTRUM_BUCKETS = (
    "yBDwCDxCEyEDyEDxDBvAAxBExDEACAwHBxBBwEEyDEwCDvDBxCDyBEwDDuDCvDBxBCyBCyBB"
    "wFBwCCvBAvCExECyDCvBFyFBvBEADDxDDvAEvEDCBCwBCvEAvDBwABxEBwEBxCDtBEyBDvzD"
    "wBBuDGwDEvBAxEDyBDxBDyDCxEAxBCxFAADCwEBwECvBDAEEwBDvBFwDEwDDyBBBECzCBwBD"
    "xCEyCDwCCxFDxCBxCDwACxCByDBvGDxABxEDvDCyDCyCAvADxACyDBvABwBAwAAwECxEBuAC"
    "wBBxCExECxBBvCFwCzvABuDExCCvAEzDGvCCxCEyCCwDCvDzxCCyFExCBzDCwBCxCCzAGxCE"
    "zCFxBzxCBxCCwBCwCCvEzvBEwCEyBCwDCwEBwCBxBBwBBxACwCCyBDzzCvDDyCFwCDtBCACC"
    "ADGzDCvCCvECuEFwBCwBCyAExDBuDBABEwBEvFCuDCuCAwBCuCCxDCwDEvABzCDyEEzBAvBB"
    "vABzEFyBCwCDxCEyCDwDAxACxAByCCzEAyCCwGDxCDvBCxFDxCCwCGyCBxEFwEDABJvBCuEE"
    "wEEvFCxDCwCExDDwCCyCEwECxByxDBwEBwBEyGGyAAvDCwCAxBDzGCwECzCFvCBzCCyCBxBD"
    "yCByDBwDDACGvDCwDCwDCwEFvDDACBxFEwCBwDCyCBwBCyFDBCEvCFxABvECAFCxFCvDEvCC"
    "yECwEFtCDvDFzEEzBBuCCtBByGCwEDyGDvFEyBBzACyECxBCvDBwFBvCFyDCvDGuCCvDAwDE"
    "yECzFByCBvBDvCBxDCvCCACCvFCvCAwCDxACvEBwBFvBCvCCwCEvEDwBAxCDxCFwDEvBEvEA"
    "xyCyCDyGEwBGyCBzCDxBCyCCvAFzCByEDwEFxBEvDExDFADDxCDwECxEDwBCyDDxBBxCAxBD"
    "wBDxGEuCBtDBACByCExEEwCCtDCwCBxBBxCDvEDxDEyABxCCyCCwCDwBCwBDzDBvBBBDBwCD"
    "yCBxECABBvCBvCExDAvADxEAzECxAAyCCzBCvEBvECyCEvBDwFCvAByECwECACExCEvDCyBD"
    "xCBxEDyDByBzwBEvDDxCEvEDvBByDDyEDwEDyGHxAExFBuDDxDDtEBvDDyCCwDCxCBxEFvBC"
    "xAAxDCzAAyEDzCFxDDABBuCBvDCxAEyADvFCwACyEDwBEwEC"
)


def specs(n1: int) -> list[tuple[int, ...]]:
    """Every target set with largest count ``n1``, as a decreasing tuple."""
    lower = list(range(n1 - 1, 1, -1))
    return [(n1,) + tuple(c for i, c in enumerate(lower) if mask >> i & 1)
            for mask in range(1, 1 << len(lower))]


def bucket(cost: float) -> str:
    return DIGITS[min(len(DIGITS) - 1, int(3 * math.log2(cost)))]


def verify_population() -> list[tuple[tuple[int, ...], str]]:
    """Every target set with 9 <= n1 <= 12, paired with its cost stratum."""
    members = [spec for n1 in VERIFY_N1 for spec in specs(n1)]
    if len(members) != len(VERIFY_BUCKETS):
        raise RuntimeError("VERIFY_BUCKETS does not match the verify-sweep population")
    return list(zip(members, VERIFY_BUCKETS))


def spectrum_instance(rng: random.Random, v: int):
    """One instance as (vertex count, C-edges, D-edges), drawn from ``rng``."""
    c_edges, d_edges = [], []
    for kind, size in SPECTRUM_EDGES:
        edge = sorted(rng.sample(range(v), size))
        if kind in "CB":
            c_edges.append(edge)
        if kind in "DB":
            d_edges.append(edge)
    return v, c_edges, d_edges


def spectrum_pool() -> list:
    """The fixed pool of ``spectrum`` instances, as (vertex count, C-edges, D-edges)."""
    rng = random.Random("spectrum-pool")
    return [spectrum_instance(rng, 9 if i % 3 == 0 else 10) for i in range(SPECTRUM_POOL)]


def spectrum_population() -> list:
    """Every pool instance, paired with its vertex count and cost stratum."""
    pool = spectrum_pool()
    if len(pool) != len(SPECTRUM_BUCKETS):
        raise RuntimeError("SPECTRUM_BUCKETS does not match the spectrum pool")
    return [(raw, (raw[0], digit)) for raw, digit in zip(pool, SPECTRUM_BUCKETS)]


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import statistics
    from time import perf_counter

    import bihyper
    import run
    import workloads

    verify = workloads.build(bihyper)["verify-sweep"]
    api = {attr: getattr(bihyper, attr) for attr, _ in verify.api}

    def verify_us(spec):
        scaled = []
        for _ in range(3):
            start = perf_counter()
            verify.op(api, spec)
            scaled.append((perf_counter() - start) * run.REFERENCE_S / run.reference_s())
        return statistics.median(scaled) * 1e6

    def nodes(raw):
        return bihyper.enumerate_strict_colorings(bihyper.build_hypergraph(*raw)).nodes_explored

    for name, digits in (
            ("VERIFY_BUCKETS", "".join(bucket(verify_us(spec))
                                       for n1 in VERIFY_N1 for spec in specs(n1))),
            ("SPECTRUM_BUCKETS", "".join(bucket(nodes(raw)) for raw in spectrum_pool()))):
        print(f"{name} = (")
        print("\n".join(f'    "{digits[i:i + 72]}"' for i in range(0, len(digits), 72)))
        print(")")


if __name__ == "__main__":
    main()
