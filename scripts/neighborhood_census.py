#!/usr/bin/env python3
"""Census of same-neighborhood vertex pairs in BSQ_n versus BH_m.

In BH_m, every edge moves coordinate 0, so the (a0, ...) and (a0+2, ...)
pairs share their entire neighborhoods.  BSQ_n is a block product instead:
the bit-(4j+1) pairs share all neighbors reached through block j, but each
keeps private tail neighbors, so the full-neighborhood census comes out
empty for n > 2.  This script prints both censuses side by side.
"""
import argparse

from shufflecube import (
    Dimension,
    TopologyKind,
    bh_same_neighborhood_pairs,
    bsq_pattern_pairs,
    format_vertex,
    materialize,
    neighbors,
    same_neighborhood_pairs,
)


def bsq_census(n):
    dim = Dimension(n)
    g = materialize(TopologyKind.BSQ, n)
    full = same_neighborhood_pairs(g)
    pattern = bsq_pattern_pairs(n)
    print(f"BSQ_{n}: {len(full)} same-neighborhood pairs, {len(pattern)} bit-(4j+1) pairs")
    u, v = pattern[0]
    nu = set(neighbors(TopologyKind.BSQ, dim, u))
    nv = set(neighbors(TopologyKind.BSQ, dim, v))
    fmt = lambda ws: "{" + ", ".join(format_vertex(w, dim) for w in sorted(ws)) + "}"
    print(f"  sample pair {format_vertex(u, dim)} / {format_vertex(v, dim)}:")
    print(f"    shared neighbors   {fmt(nu & nv)}")
    print(f"    private to first   {fmt(nu - nv)}")
    print(f"    private to second  {fmt(nv - nu)}")


def bh_census(m):
    pairs = bh_same_neighborhood_pairs(m)
    print(f"BH_{m}: {len(pairs)} same-neighborhood pairs, e.g. {pairs[0][0]} / {pairs[0][1]}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="*", default=[6, 10])
    parser.add_argument("--m", type=int, default=2)
    args = parser.parse_args()
    for n in args.n:
        bsq_census(n)
    bh_census(args.m)
