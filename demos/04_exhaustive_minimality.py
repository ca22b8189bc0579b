#!/usr/bin/env python3
"""Certify minimality by exhausting every small 3-uniform bi-hypergraph.

For the target {3,2} the search space is tiny: 2 instances on 3 vertices,
16 on 4, 1024 on 5.  Walking all of them shows no instance on up to 5
vertices one-realizes {3,2}, so the verified 6-vertex construction is
optimal -- one vertex above the closed-form size formula, whose value 5 is
unattainable for this target.

For {4,2} the range below the bound 8 reaches v=7, with 2^35 masks.  Two
bounds settle what no scan could: below 4 vertices no coloring has 4
classes, and at v=7 every 4-coloring's class profile refutes the target by
the profile rules.  Only v=4..6 are scanned.
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

    report = certify_lower_bound([4, 2])
    print(f"Below the bound {min_size([4, 2])} for {{4,2}}: {report.verdict}")
    for v in report.vertex_counts_searched:
        print(f"  v={v}: {report.instances_examined[v]} instances by {report.settled_by[v]}")
    print()

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
