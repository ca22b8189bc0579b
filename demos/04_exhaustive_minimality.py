#!/usr/bin/env python3
"""Certify minimality by exhausting every small 3-uniform bi-hypergraph.

For the target {3,2} the search space is tiny: 2 instances on 3 vertices,
16 on 4, 1024 on 5.  Walking all of them shows no instance on up to 5
vertices one-realizes {3,2}, so the verified 6-vertex construction is
optimal -- one vertex above the closed-form size formula, whose value 5 is
unattainable for this target.
"""

from bihyper import (certify_lower_bound, chromatic_spectrum, construct, is_one_realization,
                     min_size)


def main():
    target = [3, 2]
    print(f"size formula for {{3,2}}: {min_size(target)}")

    for v_max, note in ((4, "certifies nothing smaller exists"),
                        (5, "shows the formula's own value is unattainable")):
        report = certify_lower_bound(target, v_max)
        counts = ", ".join(f"{report.instances_examined[v]} on {v}"
                           for v in report.vertex_counts_searched)
        print(f"  exhaustive to {v_max} vertices ({counts}): {report.verdict}; {note}")

    built = construct(target)
    cert = is_one_realization(built.hypergraph, target)
    print(f"  verified optimum: variant {built.variant} on {built.vertex_count} vertices, "
          f"one-realization: {cert.ok}\n")

    print("Why the one-vertex-smaller deletion variant fails for two-count targets:")
    smaller = construct(target, "II")
    spectrum = chromatic_spectrum(smaller.hypergraph)
    print(f"  deleting {next(str(l) for l in construct(target, 'I').labels if l not in smaller.labels)} "
          f"leaves {smaller.vertex_count} vertices but spectrum {spectrum.counts}:")
    print(f"  {spectrum.r(2)} distinct 2-colorings instead of one.  With three or more")
    print("  target counts the deletion is safe (e.g. {4,3,2}):")
    ok = is_one_realization(construct([4, 3, 2], "II").hypergraph, [4, 3, 2]).ok
    print(f"  7-vertex deletion variant one-realizes {{4,3,2}}: {ok}")


if __name__ == "__main__":
    main()
