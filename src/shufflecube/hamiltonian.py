"""Hamiltonian cycles for SSQ and BSQ: the snake fold, fixtures, validator.

Both topologies are block products, so a Hamiltonian cycle of the whole graph
is built by folding a boustrophedon sweep over the factor cycles
(`BlockGraph.cycle` of each of `product_factors`), innermost tail first.  Two
explicit 6-bit cycles (one per topology) are embedded as fixtures: validating
them against the adjacency oracles pins down the tail's mod-4 semantics and
the block rules end to end.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

from .errors import Check, ConstructionError
from .words import Dimension, VertexWord, set_block
from .topology import TopologyKind, _require_size, materialize, product_factors


@dataclass(frozen=True)
class HamiltonianCycle:
    """A cyclic vertex sequence (first vertex not repeated at the end)."""

    kind: TopologyKind
    n: int
    vertices: tuple[VertexWord, ...]

    def __len__(self) -> int:
        return len(self.vertices)


def snake_product(outer: Sequence[int], inner: Sequence[int]) -> list[int]:
    """Boustrophedon Hamiltonian cycle of the product of two cycles placed on disjoint bits.

    Sweeps the inner cycle as a path at each outer node, alternating
    direction, stepping one outer edge between sweeps and closing through the
    outer cycle's wrap-around edge; each vertex is the OR of its outer and
    inner words.  Needs both cycle lengths even to close.
    """
    if len(inner) % 2:
        raise ConstructionError(f"inner cycle length {len(inner)} is odd; the sweep cannot close")
    if len(outer) % 2:
        raise ConstructionError(f"outer cycle length {len(outer)} is odd; the sweep cannot close")
    out = []
    for c, g in enumerate(outer):
        sweep = inner if c % 2 == 0 else reversed(inner)
        out.extend(g | h for h in sweep)
    return out


def hamiltonian_cycle(kind: TopologyKind, dim: Dimension) -> HamiltonianCycle:
    """Deterministic Hamiltonian cycle of SSQ_n or BSQ_n: the factor cycles folded by snake products.

    Each factor's cycle is placed in its block, and block j's cycle is snaked
    around the cycle of blocks 0..j-1, the tail innermost.
    """
    factors = product_factors(kind, dim)
    _require_size(kind, dim)
    placed = [[set_block(0, j, b, dim) for b in f.cycle] for j, f in enumerate(factors)]
    cycle = reduce(lambda inner, outer: snake_product(outer, inner), placed)
    return HamiltonianCycle(kind, dim.n, tuple(cycle))


def validate_cycle(kind: TopologyKind, dim: Dimension, vertices: Sequence[VertexWord]) -> Check:
    """Check a cyclic sequence is a Hamiltonian cycle of the given topology, reading its materialized rows."""
    g = materialize(kind, dim.n)
    seen = set()
    for w in vertices:
        if w not in g.index:
            return Check(False, "not a vertex of the topology", (w,))
        if w in seen:
            return Check(False, "duplicate vertex", (w,))
        seen.add(w)
    if len(seen) != g.num_vertices:
        missing = next(w for w in g.words if w not in seen)
        return Check(False, f"covers {len(seen)} of {g.num_vertices} vertices", (missing,))
    index, nbrs = g.index, g.nbrs
    for i, w in enumerate(vertices):
        nxt = vertices[(i + 1) % len(vertices)]
        if index[nxt] not in nbrs[index[w]]:
            return Check(False, "consecutive vertices not adjacent", (w, nxt))
    return Check(True)


_H1_TEXT = """
000000 000100 001000 001100 110000 110100 111000 111100
111101 111001 110101 110001 001101 001001 000101 000001
000010 000110 001010 001110 110010 110110 111010 111110
111111 111011 110111 110011 001111 001011 000111 000011
"""

_H2_TEXT = """
000000 010000 100000 110000 001100 011100 101100 111100
001000 011000 101000 111000 000100 010100 100100 110100
110101 000101 010101 100101 111001 001001 011001 101001
111101 001101 011101 101101 110001 000001 010001 100001
100010 110010 000010 010010 101110 111110 001110 011110
101010 111010 001010 011010 100110 110110 000110 010110
010111 100111 110111 000111 011011 101011 111011 001011
011111 101111 111111 001111 010011 100011 110011 000011
"""


def fixture_h1() -> HamiltonianCycle:
    """Reference 32-vertex cycle of SSQ_6 (pins the adjacency semantics)."""
    return HamiltonianCycle(TopologyKind.SSQ, 6, tuple(int(s, 2) for s in _H1_TEXT.split()))


def fixture_h2() -> HamiltonianCycle:
    """Reference 64-vertex cycle of BSQ_6 (pins the adjacency semantics)."""
    return HamiltonianCycle(TopologyKind.BSQ, 6, tuple(int(s, 2) for s in _H2_TEXT.split()))
