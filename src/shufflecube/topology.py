"""Adjacency oracles and graph materialization for the shuffle-cube family.

Supported kinds:

* Q    - the hypercube (Hamming-1 edges), included as a reference topology.
* SQ   - shuffle cube: a cross edge flips one 4-bit block by a value from the
         V-set selected by the vertex's two lowest bits; the 2-bit tail is a
         Hamming-1 Q_2.
* SSQ  - simplified shuffle cube B^k □ C4: blocks restricted to pair1 in
         {00, 11}, block flips drawn from V_00; the tail steps +-1 mod 4.
* BSQ  - balanced shuffle cube D^k □ C4: a block edge moves pair1 by +-1 mod 4
         and leaves pair2 alone or shifts it by (-1)^(pair1 low bit); the tail
         steps +-1 mod 4.

BH_m, the balanced hypercube on radix-4 coordinate tuples, is not a kind: its
vertices are tuples, not words, and `bh_neighbors` gives its edges.

SSQ and BSQ are Cartesian products: `product_factors` gives each block its
factor `BlockGraph` (the C4 tail, then k copies of B or D), and their vertex
sets, neighbors, adjacency and Hamiltonian cycles all read the factor tables.
`materialize` builds their adjacency rows in one product pass over those
tables; `neighbors` stays the point query.  SQ is not a product: the V-set of
a block flip depends on the tail, so Q and SQ rows come from `neighbors`.

The tail semantics for SSQ and BSQ follow the cyclic order 00,01,10,11; for Q
and SQ the tail is the Hamming-1 four-cycle.  Both are C4s, so no structural
result about SQ depends on the choice.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from collections import deque
from functools import lru_cache
from math import prod
from enum import Enum

from .errors import InvalidVertexError, ResourceLimitError
from .words import (
    Dimension,
    VertexWord,
    block_width,
    differing_blocks,
    get_block,
    set_block,
    pair1,
    pair2,
    make_block,
    hamming,
)

MATERIALIZE_CAP = 1 << 20


class TopologyKind(str, Enum):
    Q = "Q"
    SQ = "SQ"
    SSQ = "SSQ"
    BSQ = "BSQ"


# Flip-value sets indexed by the 2-bit tag; 1111 appears in both V_00 and V_11.
V_SETS = (
    frozenset({0b1111, 0b0001, 0b0010, 0b0011}),
    frozenset({0b0100, 0b0101, 0b0110, 0b0111}),
    frozenset({0b1000, 0b1001, 0b1010, 0b1011}),
    frozenset({0b1100, 0b1101, 0b1110, 0b1111}),
)


def is_valid_vertex(kind: TopologyKind, dim: Dimension, u: VertexWord) -> bool:
    """Whether u belongs to the vertex set of the given topology.

    Q, SQ and BSQ use all 2^n words; SSQ keeps only words whose blocks
    j >= 1 are nodes of B, that is have pair1 in {00, 11}.
    """
    if not 0 <= u <= dim.mask:
        return False
    if kind in (TopologyKind.Q, TopologyKind.SQ):
        return True
    for j, nodes in _partial_factors(kind, dim):
        if get_block(u, j, dim) not in nodes:
            return False
    return True


def _require_valid(kind: TopologyKind, dim: Dimension, *words: VertexWord) -> None:
    for u in words:
        if not is_valid_vertex(kind, dim, u):
            raise InvalidVertexError(f"word {u:0{dim.n}b} is not a vertex of {kind.value}_{dim.n}")


def adjacent(kind: TopologyKind, dim: Dimension, u: VertexWord, v: VertexWord) -> bool:
    """Adjacency oracle; u == v returns False."""
    _require_valid(kind, dim, u, v)
    if u == v:
        return False
    if kind is TopologyKind.Q:
        return hamming(u, v) == 1
    diff = differing_blocks(u, v, dim)
    if len(diff) != 1:
        return False
    j = diff[0]
    bu, bv = get_block(u, j, dim), get_block(v, j, dim)
    if kind is not TopologyKind.SQ:
        return bv in product_factors(kind, dim)[j].adj[bu]
    if j == 0:
        return hamming(bu, bv) == 1
    return (bu ^ bv) in V_SETS[get_block(u, 0, dim)]


def neighbors(kind: TopologyKind, dim: Dimension, u: VertexWord) -> list[VertexWord]:
    """All neighbors of u, sorted ascending."""
    _require_valid(kind, dim, u)
    if kind is TopologyKind.Q:
        return sorted(u ^ (1 << i) for i in range(dim.n))
    if kind is not TopologyKind.SQ:
        factors = enumerate(product_factors(kind, dim))
        return sorted(set_block(u, j, b, dim) for j, f in factors for b in f.adj[get_block(u, j, dim)])
    out = [u ^ 1, u ^ 2]
    deltas = V_SETS[get_block(u, 0, dim)]
    for j in range(1, dim.k + 1):
        bu = get_block(u, j, dim)
        out.extend(set_block(u, j, bu ^ d, dim) for d in deltas)
    return sorted(out)


# ---------------------------------------------------------------------------
# Factor block graphs

C4_LABEL = "C4"
B_SSQ_LABEL = "B-ssq"
D_BSQ_LABEL = "D-bsq"


@dataclass(frozen=True, eq=False)
class BlockGraph:
    """A per-block factor graph: BFS distance and next-hop tables and a Hamiltonian cycle.

    `routing` derives its per-block step tables from `hop`, once per factor.
    """

    label: str
    nodes: tuple[int, ...]
    adj: dict[int, tuple[int, ...]]
    dist: dict[tuple[int, int], int]
    next_hop: dict[tuple[int, int], int] = field(repr=False)
    cycle: tuple[int, ...] = field(repr=False)

    def distance(self, a: int, b: int) -> int:
        return self.dist[(a, b)]

    def hop(self, a: int, b: int) -> int:
        """First move of a shortest a->b walk, in the order the factor lists its moves."""
        return self.next_hop[(a, b)]


def _build_block_graph(label: str, nodes, moves) -> BlockGraph:
    """The tables of a factor whose node a has the neighbors moves(a), in that order."""
    nodes = tuple(sorted(nodes))
    listed = {a: tuple(moves(a)) for a in nodes}
    adj = {a: tuple(sorted(listed[a])) for a in nodes}
    dist: dict[tuple[int, int], int] = {}
    next_hop: dict[tuple[int, int], int] = {}
    for src in nodes:
        d = {src: 0}
        q = deque([src])
        while q:
            x = q.popleft()
            for y in adj[x]:
                if y not in d:
                    d[y] = d[x] + 1
                    q.append(y)
        for dst in nodes:
            dist[(src, dst)] = d[dst]
    for src in nodes:
        for dst in nodes:
            if src != dst:
                next_hop[(src, dst)] = next(w for w in listed[src] if dist[(w, dst)] == dist[(src, dst)] - 1)
    path = [nodes[0]]
    used = {nodes[0]}

    def extend() -> bool:
        """Lexicographic DFS from the smallest node; the first Hamiltonian cycle it closes is the factor's."""
        if len(path) == len(nodes):
            return path[0] in adj[path[-1]]
        for y in adj[path[-1]]:
            if y not in used:
                path.append(y)
                used.add(y)
                if extend():
                    return True
                used.discard(y)
                path.pop()
        return False

    found = extend()
    assert found, f"factor graph {label} must be Hamiltonian"
    return BlockGraph(label, nodes, adj, dist, next_hop, tuple(path))


def _d_moves(b: int) -> list[int]:
    """D: pair1 steps +-1 mod 4 and pair2 stays or shifts by (-1)^(pair1 low bit); ascending."""
    p1, p2 = pair1(b), pair2(b)
    shift = -1 if p1 & 1 else 1
    return sorted(make_block(p1 + d, p2 + s) for d in (1, -1) for s in (0, shift))


@lru_cache(maxsize=None)
def block_graph(label: str) -> BlockGraph:
    """The factor graph for one coordinate: C4 tail, SSQ block B, or BSQ block D."""
    if label == C4_LABEL:
        return _build_block_graph(label, range(4), lambda a: [(a + s) % 4 for s in (1, -1)])
    if label == B_SSQ_LABEL:
        nodes = [b for b in range(16) if pair1(b) in (0, 3)]
        return _build_block_graph(label, nodes, lambda a: [a ^ d for d in (0b1111, 0b0001, 0b0010, 0b0011)])
    if label == D_BSQ_LABEL:
        return _build_block_graph(label, range(16), _d_moves)
    raise ValueError(f"unknown block graph label {label!r}")


@lru_cache(maxsize=None)
def product_factors(kind: TopologyKind, dim: Dimension) -> tuple[BlockGraph, ...]:
    """The factor of each block of SSQ_n = B^k □ C4 or BSQ_n = D^k □ C4: the C4 tail, then blocks 1..k."""
    labels = {TopologyKind.SSQ: B_SSQ_LABEL, TopologyKind.BSQ: D_BSQ_LABEL}
    if kind not in labels:
        raise ValueError(f"only SSQ and BSQ are block products, not {kind.value}")
    return (block_graph(C4_LABEL),) + (block_graph(labels[kind]),) * dim.k


@lru_cache(maxsize=None)
def _partial_factors(kind: TopologyKind, dim: Dimension) -> tuple[tuple[int, frozenset], ...]:
    """(j, factor nodes) for the blocks whose factor leaves out some block values."""
    factors = enumerate(product_factors(kind, dim))
    return tuple((j, frozenset(f.nodes)) for j, f in factors if len(f.nodes) < 1 << block_width(j))


# ---------------------------------------------------------------------------
# Materialized graphs

@dataclass(frozen=True, eq=False)
class CubeGraph:
    """Immutable materialized graph: dense indices over ascending vertex words."""

    kind: TopologyKind
    n: int
    words: tuple[VertexWord, ...]
    index: dict[VertexWord, int] = field(repr=False)
    nbrs: tuple[tuple[int, ...], ...] = field(repr=False)
    edge_count: int

    @property
    def num_vertices(self) -> int:
        return len(self.words)

    @property
    def dim(self) -> Dimension:
        return Dimension(self.n)

    def index_of(self, word: VertexWord) -> int:
        return self.index[word]

    def word_of(self, i: int) -> VertexWord:
        return self.words[i]

    def edges(self):
        """All edges as (i, j) dense index pairs with i < j, ascending."""
        for i, row in enumerate(self.nbrs):
            for j in row:
                if j > i:
                    yield (i, j)

    def degree(self, i: int) -> int:
        return len(self.nbrs[i])


@lru_cache(maxsize=2)
def neighbor_sets(g: CubeGraph) -> tuple[frozenset, ...]:
    """Per-vertex neighbor index sets, cached for the two graphs used last."""
    return tuple(frozenset(row) for row in g.nbrs)


def _require_size(kind: TopologyKind, dim: Dimension) -> int:
    """The vertex count of kind at dim; ResourceLimitError above MATERIALIZE_CAP."""
    if kind in (TopologyKind.Q, TopologyKind.SQ):
        count = 1 << dim.n
    else:
        count = prod(len(f.nodes) for f in product_factors(kind, dim))
    if count > MATERIALIZE_CAP:
        raise ResourceLimitError(f"{kind.value}_{dim.n} has {count} vertices, above the {MATERIALIZE_CAP} cap")
    return count


@lru_cache(maxsize=3)
def materialize(kind: TopologyKind, n: int) -> CubeGraph:
    """Build the full graph for a kind at dimension n (vertex cap 2^20); one n's SQ, SSQ and BSQ stay cached.

    SSQ and BSQ rows come from one product pass over `product_factors`
    (`_product_rows`); Q and SQ rows from `neighbors`, one vertex at a time.
    """
    dim = Dimension(n)
    count = _require_size(kind, dim)
    words = tuple(range(count)) if count == 1 << n else _product_words(product_factors(kind, dim), dim)
    index = {u: i for i, u in enumerate(words)}
    if kind in (TopologyKind.Q, TopologyKind.SQ):
        nbrs = tuple(tuple(index[v] for v in neighbors(kind, dim, u)) for u in words)
    else:
        nbrs = _product_rows(product_factors(kind, dim), index)
    edge_count = sum(len(row) for row in nbrs) // 2
    return CubeGraph(kind, n, words, index, nbrs, edge_count)


def _product_rows(factors, index: dict[VertexWord, int]) -> tuple[tuple[int, ...], ...]:
    """The ascending neighbor rows of the product of factors, in the order of `_product_words`.

    Dense indices are mixed-radix, the tail the lowest digit: the index of a
    word is the sum over j of rank_j(block j) * stride_j.  One pass per factor
    extends the rows of blocks 0..j-1 (S of them): the row of old vertex i at
    rank r of factor j lists the moves in block j to ranks c < r (c*S + i),
    then the old row shifted to r*S, then the moves to ranks c > r, so every
    row comes out ascending.  Entries are the index's own int objects, so the
    rows share them instead of holding one fresh int per entry.
    """
    ids = tuple(index.values())
    rows: list[tuple[int, ...]] = [()]
    for f in factors:
        size = len(rows)
        rank = {b: r for r, b in enumerate(f.nodes)}
        extended = []
        for r, b in enumerate(f.nodes):
            base = r * size
            moves = [rank[c] * size for c in f.adj[b]]
            below = [m for m in moves if m < base]
            above = [m for m in moves if m > base]
            extended.extend(
                tuple([ids[m + i] for m in below] + [ids[base + x] for x in row] + [ids[m + i] for m in above])
                for i, row in enumerate(rows)
            )
        rows = extended
    return tuple(rows)


def _product_words(factors, dim: Dimension) -> tuple[VertexWord, ...]:
    """Every word whose block j is a node of factors[j], ascending."""
    words = [0]
    for j, factor in enumerate(factors):
        words = [w | s for s in [set_block(0, j, b, dim) for b in factor.nodes] for w in words]
    return tuple(words)


# ---------------------------------------------------------------------------
# Balanced hypercube (radix-4 coordinate tuples)

BHVertex = tuple[int, ...]


def bh_neighbors(m: int, a: BHVertex) -> list[BHVertex]:
    """The 2m neighbors of a vertex of BH_m (2 distinct ones when m = 1).

    Every edge moves coordinate 0 by +-1 mod 4; for each i >= 1 there are two
    extra neighbors that also shift coordinate i by (-1)^(a_0).
    """
    if m < 1 or len(a) != m:
        raise ValueError(f"expected {m} coordinates, got {len(a)}")
    if any(not 0 <= x < 4 for x in a):
        raise InvalidVertexError(f"BH coordinates must be in 0..3, got {a}")
    out = set()
    for d in (1, -1):
        out.add(((a[0] + d) % 4,) + a[1:])
        shift = 1 if a[0] % 2 == 0 else -1
        for i in range(1, m):
            coords = list(a)
            coords[0] = (a[0] + d) % 4
            coords[i] = (a[i] + shift) % 4
            out.add(tuple(coords))
    return sorted(out)
