#!/usr/bin/env python3
"""Compare measured diameters of SSQ_n and BSQ_n with their closed forms.

For each size, prints the BFS diameter, the closed-form value, and the set of
vertices attaining the eccentricity of the zero vertex, which is where the
usual antipodal-witness intuition breaks down: the farthest vertices carry
tail 10 and blocks 0010/1010, not the all-ones pattern.
"""
import argparse

from shufflecube import (
    Dimension,
    TopologyKind,
    bfs_distances,
    diameter,
    diameter_formula,
    format_vertex,
    materialize,
)


def scan(n_values):
    for n in n_values:
        dim = Dimension(n)
        for kind in (TopologyKind.SSQ, TopologyKind.BSQ):
            g = materialize(kind, n)
            measured = diameter(g)
            formula = diameter_formula(kind, n)
            dist = bfs_distances(g, g.index_of(0))
            ecc = max(dist)
            witnesses = [
                format_vertex(g.word_of(i), dim) for i, d in enumerate(dist) if d == ecc
            ]
            shown = ", ".join(witnesses[:4]) + (" ..." if len(witnesses) > 4 else "")
            print(
                f"{kind.value}_{n}: diameter {measured.value} ({measured.method}), "
                f"closed form {formula}, ecc(0) = {ecc} attained at {shown}"
            )
            if kind is TopologyKind.BSQ:
                label, witness = "all-ones vertex", dim.mask
            else:
                label, witness = "vertex", int("1101" * dim.k + "11", 2)
            print(f"  {label} {format_vertex(witness, dim)} sits at distance {dist[g.index_of(witness)]}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("n", type=int, nargs="*", default=[2, 6, 10])
    scan(parser.parse_args().n)
