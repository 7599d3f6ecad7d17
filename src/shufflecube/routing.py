"""Shortest-path routing for SSQ and BSQ and their closed-form diameters.

Both topologies are Cartesian products F^k □ C4 (`topology.product_factors`),
so distance and diameter are sums over the factors, and a shortest path
fixes one block at a time: blocks 1..k in ascending order, then the tail,
each walked by its factor's next-hop table.  A next hop is the first shortest-hop move in
the order the factor lists its moves.  B tries XOR 1111 before 0001, 0010 and
0011, so a block two steps away passes through its complement first; D lists
its moves in ascending order; the C4 tail steps +1 before -1, so it takes +1
twice when the two directions tie.

Each factor's walks are tabulated once per node pair and shifted into each
block once per (kind, dim), so a route, or a distance (the length of the
walks), is one lookup per block.  Only a word out of range or a block off its
factor's nodes (a None entry) runs `_require_valid`, which raises the error.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain
from operator import xor

from .words import Dimension, VertexWord, _block_shift, block_width
from .topology import BlockGraph, TopologyKind, _require_valid, product_factors

RoutePath = list  # vertex words from source to destination inclusive


@lru_cache(maxsize=None)
def _factor_steps(f: BlockGraph, width: int) -> tuple:
    """The XOR steps of f's next-hop walk a->b at index (a << width) | b; None where a or b is not a node."""
    steps = [None] * (1 << 2 * width)
    for a, b in sorted(f.dist, key=f.dist.get):  # nearest first: the walk on from a's next hop h is in place
        steps[a << width | b] = (a ^ (h := f.hop(a, b)),) + steps[h << width | b] if a != b else ()
    return tuple(steps)


@lru_cache(maxsize=None)
def _block_tables(kind: TopologyKind, dim: Dimension) -> tuple:
    """(shift, mask, width, steps shifted into place) per block in routing order: blocks 1..k, then the tail."""
    factors = product_factors(kind, dim)
    tables = []
    for j in (*range(1, dim.k + 1), 0):
        s, w = _block_shift(j), block_width(j)
        steps = _factor_steps(factors[j], w)
        shifted = {t: tuple([x << s for x in t]) for t in set(steps) - {None}}
        tables.append((s, (1 << w) - 1, w, tuple(map(shifted.get, steps))))
    return tuple(tables)


def _steps(kind: TopologyKind, dim: Dimension, u: VertexWord, v: VertexWord) -> list:
    """Each block's walk steps from u to v, in routing order; `_require_valid` raises if u or v is not a vertex."""
    found = [t[(u >> s & m) << w | (v >> s & m)] for s, m, w, t in _block_tables(kind, dim)]
    mask = dim.mask
    if None in found or not (0 <= u <= mask and 0 <= v <= mask):
        _require_valid(kind, dim, u, v)
    return found


def distance_of(kind: TopologyKind, dim: Dimension, u: VertexWord, v: VertexWord) -> int:
    """Exact distance: the sum over blocks of the factor distances, each the length of its block's walk."""
    return sum(map(len, _steps(kind, dim, u, v)))


def _walk(kind: TopologyKind, dim: Dimension, src: VertexWord, dst: VertexWord) -> RoutePath:
    return list(accumulate(chain.from_iterable(_steps(kind, dim, src, dst)), xor, initial=src))


def route_ssq(dim: Dimension, src: VertexWord, dst: VertexWord) -> RoutePath:
    """A shortest src->dst path in SSQ_n, blocks fixed in ascending order, tail last."""
    return _walk(TopologyKind.SSQ, dim, src, dst)


def route_bsq(dim: Dimension, src: VertexWord, dst: VertexWord) -> RoutePath:
    """A shortest src->dst path in BSQ_n, blocks fixed in ascending order, tail last."""
    return _walk(TopologyKind.BSQ, dim, src, dst)


def diameter_formula(kind: TopologyKind, n: int) -> int:
    """Closed-form diameter: the sum of the factor diameters, (n-2)/2 + 2 for SSQ and n for BSQ."""
    return sum(max(f.dist.values()) for f in product_factors(kind, Dimension(n)))
