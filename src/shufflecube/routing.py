"""Shortest-path routing for SSQ and BSQ and their closed-form diameters.

Both topologies are Cartesian products F^k □ C4 (`topology.product_factors`),
so distance and diameter are sums over the factors, and a shortest path
fixes one block at a time: blocks 1..k in ascending order, then the tail,
each walked by its factor's next-hop table.  A next hop is the first shortest-hop move in
the order the factor lists its moves.  B tries XOR 1111 before 0001, 0010 and
0011, so a block two steps away passes through its complement first; D lists
its moves in ascending order; the C4 tail steps +1 before -1, so it takes +1
twice when the two directions tie.
"""
from __future__ import annotations

from .words import Dimension, VertexWord, get_block, set_block
from .topology import TopologyKind, _require_valid, product_factors

RoutePath = list  # vertex words from source to destination inclusive


def distance_of(kind: TopologyKind, dim: Dimension, u: VertexWord, v: VertexWord) -> int:
    """Exact distance: the sum over blocks of the factor distances."""
    factors = product_factors(kind, dim)
    _require_valid(kind, dim, u, v)
    return sum(f.distance(get_block(u, j, dim), get_block(v, j, dim)) for j, f in enumerate(factors))


def _walk(kind: TopologyKind, dim: Dimension, src: VertexWord, dst: VertexWord) -> RoutePath:
    factors = product_factors(kind, dim)
    _require_valid(kind, dim, src, dst)
    path = [src]
    cur = src
    for j in (*range(1, dim.k + 1), 0):
        hop = factors[j].hop
        target = get_block(dst, j, dim)
        while (b := get_block(cur, j, dim)) != target:
            cur = set_block(cur, j, hop(b, target), dim)
            path.append(cur)
    return path


def route_ssq(dim: Dimension, src: VertexWord, dst: VertexWord) -> RoutePath:
    """A shortest src->dst path in SSQ_n, blocks fixed in ascending order, tail last."""
    return _walk(TopologyKind.SSQ, dim, src, dst)


def route_bsq(dim: Dimension, src: VertexWord, dst: VertexWord) -> RoutePath:
    """A shortest src->dst path in BSQ_n, blocks fixed in ascending order, tail last."""
    return _walk(TopologyKind.BSQ, dim, src, dst)


def diameter_formula(kind: TopologyKind, n: int) -> int:
    """Closed-form diameter: the sum of the factor diameters, (n-2)/2 + 2 for SSQ and n for BSQ."""
    return sum(max(f.dist.values()) for f in product_factors(kind, Dimension(n)))
