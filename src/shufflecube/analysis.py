"""Brute-force graph analytics used as oracles for every structural claim.

Everything here works from the materialized adjacency alone: BFS distances,
girth, bipartiteness with odd-cycle witnesses, triangle and 4-clique censuses,
automorphism-invariant transitivity certificates, and extensional
same-neighborhood censuses.

BFS steps whole frontiers: level sets from one source (`_levels`) and every
vertex's ball at once as an int bitmask (`eccentricities`), both exhaustive.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

from .errors import DisconnectedGraphError, ResourceLimitError
from .topology import (
    CubeGraph,
    TopologyKind,
    bh_neighbors,
    neighbor_sets as _neighbor_sets,
)

FULL_SCAN_CAP = 1 << 12
SAMPLE_SOURCES = 64


def _levels(nbrs, src: int):
    """Yield (level, reach) per BFS level from src: the vertex set at distance d and the union of its rows.

    Rows of level d reach only levels d - 1, d and d + 1, so reach minus the two
    becomes the next level on resume: no visited set, at most three sets alive.
    """
    prev, level = set(), {src}
    while level:
        reach = set().union(*map(nbrs.__getitem__, level))
        yield level, reach
        reach.difference_update(level, prev)
        prev, level = level, reach


def bfs_distances(g: CubeGraph, src: int) -> list[int]:
    """BFS distances from a dense vertex index; -1 marks unreachable vertices."""
    dist = [-1] * g.num_vertices
    for d, (level, _) in enumerate(_levels(g.nbrs, src)):
        for v in level:
            dist[v] = d
    return dist


def eccentricity(g: CubeGraph, src: int) -> int:
    """The number of BFS levels from src minus one; DisconnectedGraphError if a vertex is unreached."""
    sizes = [len(level) for level, _ in _levels(g.nbrs, src)]
    unreachable = g.num_vertices - sum(sizes)
    if unreachable:
        raise DisconnectedGraphError(unreachable)
    return len(sizes) - 1


def eccentricities(g: CubeGraph) -> list[int]:
    """Every vertex's eccentricity, growing all balls at once as int bitmasks.

    Round r ORs last round's balls over v's row into ball[v]; v drops out when
    its ball is full (eccentricity r) or stops growing.  Raises what
    eccentricity(g, 0) raises on a disconnected graph.
    """
    nbrs, full = g.nbrs, (1 << g.num_vertices) - 1
    ball = [1 << v for v in range(g.num_vertices)]
    ecc = [0] * g.num_vertices
    live, radius = [v for v in range(g.num_vertices) if ball[v] != full], 0
    while live:
        radius += 1
        last, grown = ball.copy(), []
        for v in live:
            b = last[v]
            for u in nbrs[v]:
                b |= last[u]
            ball[v] = b
            if b == full:
                ecc[v] = radius
            elif b != last[v]:
                grown.append(v)
        live = grown
    if ball and ball[0] != full:
        raise DisconnectedGraphError(g.num_vertices - ball[0].bit_count())
    return ecc


def is_connected(g: CubeGraph) -> bool:
    return sum(len(level) for level, _ in _levels(g.nbrs, 0)) == g.num_vertices


@dataclass(frozen=True)
class DiameterResult:
    value: int
    method: str  # "exhaustive" | "vertex-transitive" | "sampled-lower-bound"


def _scans_vertex_zero(g: CubeGraph) -> bool:
    """Whether girth and diameter may scan from the zero vertex alone: SSQ and BSQ above n = 10.

    Exact because the claims suite's maps records prove both graphs
    vertex-transitive, so every vertex sees the same distances and lies on a
    shortest cycle.  At n <= 10 the exhaustive scans stay as the cross-check.
    """
    return g.kind in (TopologyKind.SSQ, TopologyKind.BSQ) and g.n > 10


def diameter(g: CubeGraph) -> DiameterResult:
    """Graph diameter.

    SSQ and BSQ above n = 10 use the eccentricity of the zero vertex (exact
    by vertex-transitivity).  Otherwise every vertex's eccentricity from
    `eccentricities` up to 2^12 vertices; above that, a lower bound from
    SAMPLE_SOURCES evenly spaced sources, labeled as such.
    """
    if _scans_vertex_zero(g):
        return DiameterResult(eccentricity(g, g.index_of(0)), "vertex-transitive")
    if g.num_vertices <= FULL_SCAN_CAP:
        return DiameterResult(max(eccentricities(g)), "exhaustive")
    step = max(1, g.num_vertices // SAMPLE_SOURCES)
    value = max(eccentricity(g, s) for s in range(0, g.num_vertices, step))
    return DiameterResult(value, "sampled-lower-bound")


def girth(g: CubeGraph):
    """Length of the shortest cycle (BFS from every vertex, or the zero vertex alone); inf for forests."""
    best = float("inf")
    n = g.num_vertices
    for s in [g.index_of(0)] if _scans_vertex_zero(g) else range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[s] = 0
        q = deque([s])
        while q:
            x = q.popleft()
            if 2 * dist[x] >= best:
                continue
            for y in g.nbrs[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    q.append(y)
                elif y != parent[x]:
                    cand = dist[x] + dist[y] + 1
                    if cand < best:
                        best = cand
        if best == 3:
            break
    return best


@dataclass(frozen=True)
class BipartitionResult:
    coloring: tuple[int, ...] | None
    odd_cycle: tuple[int, ...] | None

    @property
    def bipartite(self) -> bool:
        return self.coloring is not None


def bipartition(g: CubeGraph) -> BipartitionResult:
    """A two-coloring when one exists, else an odd-cycle witness (dense indices).

    Each component, from its lowest index, is colored by BFS level parity; the
    graph is bipartite unless some level's rows reach into the level itself.
    """
    color = [-1] * g.num_vertices
    for root in range(g.num_vertices):
        if color[root] < 0:
            for d, (level, reach) in enumerate(_levels(g.nbrs, root)):
                if not reach.isdisjoint(level):
                    return BipartitionResult(None, _odd_cycle(g))
                for v in level:
                    color[v] = d & 1
    return BipartitionResult(tuple(color), None)


def _odd_cycle(g: CubeGraph) -> tuple[int, ...]:
    """The odd cycle closed by the first same-parity edge in index order, through the BFS-tree paths."""
    n = g.num_vertices
    dist = [-1] * n
    parent = [-1] * n
    for root in range(n):
        if dist[root] < 0:
            dist[root] = 0
            q = deque([root])
            while q:
                x = q.popleft()
                for y in g.nbrs[x]:
                    if dist[y] < 0:
                        dist[y], parent[y] = dist[x] + 1, x
                        q.append(y)
    x, y = next((x, y) for x in range(n) for y in g.nbrs[x] if y > x and dist[x] % 2 == dist[y] % 2)
    up_x = [x]
    while parent[up_x[-1]] >= 0:
        up_x.append(parent[up_x[-1]])
    seen = {v: i for i, v in enumerate(up_x)}
    up_y = [y]
    while up_y[-1] not in seen:
        up_y.append(parent[up_y[-1]])
    lca = up_y[-1]
    return tuple(up_x[: seen[lca] + 1] + up_y[-2::-1])


# ---------------------------------------------------------------------------
# Triangle and clique censuses

@lru_cache(maxsize=2)
def _cliques(g: CubeGraph) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every clique of 3 or more vertices, level by level (level i holds the (i+3)-cliques).

    Each clique is extended by its common neighbors above its last vertex, in
    ascending order, so every clique is sorted and every level ascends.  The
    edge level, the largest, is not kept; cached for the two graphs used last.
    """
    nsets = _neighbor_sets(g)
    levels = []
    current = g.edges()
    while True:
        current = tuple(
            clique + (w,)
            for clique in current
            for w in sorted(frozenset.intersection(*(nsets[x] for x in clique)))
            if w > clique[-1]
        )
        if not current:
            return tuple(levels)
        levels.append(current)


def _level(g: CubeGraph, size: int) -> tuple[tuple[int, ...], ...]:
    levels = _cliques(g)
    return levels[size - 3] if size - 3 < len(levels) else ()


def triangle_counts(g: CubeGraph):
    """Per-vertex and per-edge triangle counts (edges keyed (i, j), i < j)."""
    per_vertex = [0] * g.num_vertices
    per_edge = dict.fromkeys(g.edges(), 0)
    for tri in _level(g, 3):
        for x in tri:
            per_vertex[x] += 1
        for edge in combinations(tri, 2):
            per_edge[edge] += 1
    return tuple(per_vertex), per_edge


@dataclass(frozen=True)
class K4Census:
    quads: tuple[tuple[int, int, int, int], ...]
    membership: tuple[int, ...]

    @property
    def pairwise_disjoint(self) -> bool:
        return all(m <= 1 for m in self.membership)


def k4_census(g: CubeGraph) -> K4Census:
    """All 4-cliques (each listed once, sorted) and per-vertex membership counts."""
    quads = _level(g, 4)
    membership = [0] * g.num_vertices
    for quad in quads:
        for x in quad:
            membership[x] += 1
    return K4Census(quads, tuple(membership))


def clique_number(g: CubeGraph) -> int:
    """Exact clique number by level-wise extension of enumerated cliques."""
    if g.num_vertices == 0:
        return 0
    if not any(g.nbrs):
        return 1
    return 2 + len(_cliques(g))


# ---------------------------------------------------------------------------
# Transitivity certificates

@dataclass(frozen=True)
class TransitivityCertificate:
    """Outcome of comparing automorphism-invariant profiles.

    "refuted" is a proof of non-transitivity (the witnesses' profiles differ,
    and automorphisms preserve these profiles); "no-invariant-obstruction"
    is not a proof of transitivity.
    """

    verdict: str  # "refuted" | "no-invariant-obstruction"
    witness: tuple | None = None
    detail: str = ""

    @property
    def refuted(self) -> bool:
        return self.verdict == "refuted"


def vertex_transitivity_certificate(g: CubeGraph) -> TransitivityCertificate:
    """Compare (degree, triangles, K4 count) across vertices, then eccentricity up to FULL_SCAN_CAP."""
    tri, _ = triangle_counts(g)
    k4 = k4_census(g).membership
    profiles = [(g.degree(i), tri[i], k4[i]) for i in range(g.num_vertices)]
    cert = _first_profile_mismatch(g, profiles, names=("degree", "triangles", "k4"))
    if cert is None and g.num_vertices <= FULL_SCAN_CAP:
        profiles = [(e,) for e in eccentricities(g)]
        cert = _first_profile_mismatch(g, profiles, names=("eccentricity",))
    return cert or TransitivityCertificate("no-invariant-obstruction")


def _first_profile_mismatch(g, profiles, names):
    first = profiles[0]
    for i, p in enumerate(profiles):
        if p != first:
            fields = ", ".join(
                f"{name} {a} vs {b}" for name, a, b in zip(names, first, p) if a != b
            )
            return TransitivityCertificate(
                "refuted", (g.word_of(0), g.word_of(i)), fields
            )
    return None


def edge_transitivity_certificate(g: CubeGraph) -> TransitivityCertificate:
    """Compare per-edge triangle counts and endpoint profiles across edges."""
    tri_v, tri_e = triangle_counts(g)
    k4 = k4_census(g).membership

    def edge_profile(i, j):
        ends = sorted(((g.degree(x), tri_v[x], k4[x]) for x in (i, j)))
        return (tri_e[(i, j)], tuple(ends))

    edges = list(g.edges())
    first = edge_profile(*edges[0])
    for e in edges:
        p = edge_profile(*e)
        if p != first:
            w0 = (g.word_of(edges[0][0]), g.word_of(edges[0][1]))
            w1 = (g.word_of(e[0]), g.word_of(e[1]))
            return TransitivityCertificate(
                "refuted",
                (w0, w1),
                f"edge triangle count {first[0]} vs {p[0]}",
            )
    return TransitivityCertificate("no-invariant-obstruction")


# ---------------------------------------------------------------------------
# Same-neighborhood censuses

def _twin_pairs(vertices_and_neighbors) -> list:
    """Sorted pairs of the vertices whose neighbor keys are equal, from (vertex, key) items."""
    groups: dict = {}
    for v, key in vertices_and_neighbors:
        groups.setdefault(key, []).append(v)
    return sorted(pair for members in groups.values() for pair in combinations(members, 2))


def same_neighborhood_pairs(g: CubeGraph) -> list[tuple[int, int]]:
    """All unordered word pairs whose neighbor sets are identical."""
    return _twin_pairs(zip(g.words, g.nbrs))


def bh_same_neighborhood_pairs(m: int) -> list[tuple[tuple, tuple]]:
    """Extensional same-neighborhood census over all 4^m vertices of BH_m."""
    if 4 ** m > FULL_SCAN_CAP * 256:
        raise ResourceLimitError(f"BH_{m} has {4 ** m} vertices, too large to census")
    return _twin_pairs((a, tuple(bh_neighbors(m, a))) for a in product(range(4), repeat=m))


def bsq_pattern_pairs(n: int) -> list[tuple[int, int]]:
    """Word pairs differing in exactly one bit at position 4j+1, j >= 1."""
    k = (n - 2) // 4
    pairs = []
    for u in range(1 << n):
        for j in range(1, k + 1):
            v = u ^ (1 << (4 * j + 1))
            if u < v:
                pairs.append((u, v))
    return sorted(pairs)


def bh_pattern_pairs(m: int) -> list[tuple[tuple, tuple]]:
    """BH_m vertex pairs differing by 2 in coordinate 0."""
    pairs = []
    for a in product(range(4), repeat=m):
        if a[0] < 2:
            pairs.append((a, ((a[0] + 2) % 4,) + a[1:]))
    return sorted(pairs)
