"""An oracle for SQ, SSQ and BSQ written from the definitions alone.

Nothing here imports the package under test.  The adjacency rules are stated
once, on a single 4-bit block (or the 2-bit tail), and everything else is
derived from them: the whole-graph neighbour lists, the factor graphs B (8
nodes), D (16 nodes) and C4 with their BFS distance tables, and a whole-graph
BFS.  Distances in a Cartesian product are the sum of the factor distances
(Imrich & Klavzar, Handbook of Product Graphs); `distance` uses that formula
and `bfs` lets a caller check it instead of assuming it.

A vertex is an n-bit word, n = 4k + 2.  Block j (1 <= j <= k) holds bits
4j+1 .. 4j-2 and reads as pair1 (high two bits) and pair2 (low two bits);
the tail holds bits 1..0.
"""
from __future__ import annotations

from array import array
from collections import deque

KINDS = ("SQ", "SSQ", "BSQ")

# V-sets of the shuffle cube, indexed by a vertex's two lowest bits.
V = (
    frozenset({0b1111, 0b0001, 0b0010, 0b0011}),
    frozenset({0b0100, 0b0101, 0b0110, 0b0111}),
    frozenset({0b1000, 0b1001, 0b1010, 0b1011}),
    frozenset({0b1100, 0b1101, 0b1110, 0b1111}),
)


def blocks_of(n: int) -> int:
    if n < 2 or n % 4 != 2:
        raise ValueError(f"n must be 2 mod 4 and at least 2, got {n}")
    return (n - 2) // 4


def shift_of(j: int) -> int:
    """Lowest bit of block j >= 1."""
    return 4 * j - 2


def block(u: int, j: int) -> int:
    return (u >> shift_of(j)) & 15


def ssq_block_ok(b: int) -> bool:
    """An SSQ block keeps pair1 in {00, 11}."""
    return (b >> 2) in (0b00, 0b11)


def is_vertex(kind: str, n: int, u: int) -> bool:
    k = blocks_of(n)
    if not 0 <= u < 1 << n:
        return False
    return kind != "SSQ" or all(ssq_block_ok(block(u, j)) for j in range(1, k + 1))


def tail_edge(kind: str, a: int, b: int) -> bool:
    """SQ's tail is the Hamming-1 four-cycle; SSQ's and BSQ's step +-1 mod 4."""
    if kind == "SQ":
        return (a ^ b) in (1, 2)
    return (a - b) % 4 in (1, 3)


def block_edge(kind: str, tag: int, a: int, b: int) -> bool:
    """Whether a block change a -> b is an edge; tag is the vertex's tail (SQ only)."""
    if a == b:
        return False
    if kind == "SQ":
        return (a ^ b) in V[tag]
    if kind == "SSQ":
        return ssq_block_ok(a) and ssq_block_ok(b) and (a ^ b) in V[0]
    # BSQ: the balanced hypercube BH_2 on (pair1, pair2).  pair1 moves by +-1;
    # pair2 stays or moves by (-1)^pair1.
    p1, p2, q1, q2 = a >> 2, a & 3, b >> 2, b & 3
    if (q1 - p1) % 4 not in (1, 3):
        return False
    return q2 == p2 or q2 == (p2 + (-1) ** p1) % 4


def adjacent(kind: str, n: int, u: int, v: int) -> bool:
    """The paper's rule: u and v differ in exactly one block, by an edge of it."""
    if not (is_vertex(kind, n, u) and is_vertex(kind, n, v)) or u == v:
        return False
    x = u ^ v
    if x < 4:
        return tail_edge(kind, u & 3, v & 3)
    j = ((x >> 2).bit_length() - 1) // 4 + 1
    if x & ~(15 << shift_of(j)):
        return False
    return block_edge(kind, u & 3, block(u, j), block(v, j))


def neighbors(kind: str, n: int, u: int) -> list[int]:
    """All neighbours of u, found by testing every one-block change against the rule."""
    k = blocks_of(n)
    out = [(u & ~3) | t for t in range(4) if tail_edge(kind, u & 3, t)]
    for j in range(1, k + 1):
        s = shift_of(j)
        a = block(u, j)
        out.extend(u ^ ((a ^ b) << s) for b in range(16) if block_edge(kind, u & 3, a, b))
    return sorted(out)


def vertices(kind: str, n: int) -> list[int]:
    return [u for u in range(1 << n) if is_vertex(kind, n, u)]


# ---------------------------------------------------------------------------
# Closed forms

def vertex_count(kind: str, n: int) -> int:
    return 1 << (3 * n + 2) // 4 if kind == "SSQ" else 1 << n


def edge_count(kind: str, n: int) -> int:
    return vertex_count(kind, n) * n // 2


def diameter(kind: str, n: int) -> int:
    """n for BSQ; (n-2)/2 + 2 for SSQ, which is 2 at n = 2."""
    if kind == "BSQ":
        return n
    if kind == "SSQ":
        return 2 if n == 2 else (n - 2) // 2 + 2
    raise ValueError(f"no closed-form diameter for {kind}")


GIRTH = {"SQ": 3, "SSQ": 3, "BSQ": 4}
CLIQUE_NUMBER_SQ = 4


def bsq_parity(n: int, u: int) -> int:
    """BSQ's bipartition class: the sum of every pair1 plus the tail, mod 2."""
    k = blocks_of(n)
    return (sum(block(u, j) >> 2 for j in range(1, k + 1)) + (u & 3)) % 2


# ---------------------------------------------------------------------------
# Factor graphs and distance

def bfs(nbrs, src) -> dict:
    """Distances from src over the graph that nbrs describes."""
    dist = {src: 0}
    q = deque([src])
    while q:
        x = q.popleft()
        dx = dist[x] + 1
        for y in nbrs(x):
            if y not in dist:
                dist[y] = dx
                q.append(y)
    return dist


class Factor:
    """A factor graph with its all-pairs BFS distance table."""

    def __init__(self, nodes, edge):
        self.nodes = tuple(nodes)
        self.adj = {a: tuple(b for b in self.nodes if edge(a, b)) for a in self.nodes}
        self.dist = {a: bfs(lambda x: self.adj[x], a) for a in self.nodes}


C4 = Factor(range(4), lambda a, b: tail_edge("BSQ", a, b))
B = Factor([b for b in range(16) if ssq_block_ok(b)], lambda a, b: block_edge("SSQ", 0, a, b))
D = Factor(range(16), lambda a, b: block_edge("BSQ", 0, a, b))
FACTOR = {"SSQ": B, "BSQ": D}


def distance(kind: str, n: int, u: int, v: int) -> int:
    """Distance in SSQ_n or BSQ_n as the sum of the factor distances."""
    f = FACTOR[kind].dist
    total = C4.dist[u & 3][v & 3]
    for j in range(1, blocks_of(n) + 1):
        total += f[block(u, j)][block(v, j)]
    return total


def product_neighbors(kind: str, n: int):
    """A fast neighbour function for SSQ_n or BSQ_n built from the factor lists."""
    k = blocks_of(n)
    adj, tail = FACTOR[kind].adj, C4.adj

    def nbrs(u):
        out = [(u & ~3) | t for t in tail[u & 3]]
        for j in range(1, k + 1):
            s = shift_of(j)
            a = (u >> s) & 15
            out.extend(u ^ ((a ^ b) << s) for b in adj[a])
        return out

    return nbrs


def bfs_words(kind: str, n: int, src: int) -> array:
    """Distances from src to every n-bit word of SSQ_n or BSQ_n (-1 off the vertex set).

    Uses a flat array rather than a dict so that a BFS over BSQ_18 stays small.
    """
    nbrs = product_neighbors(kind, n)
    dist = array("b", [-1]) * (1 << n)
    dist[src] = 0
    q = deque([src])
    while q:
        x = q.popleft()
        dx = dist[x] + 1
        for y in nbrs(x):
            if dist[y] < 0:
                dist[y] = dx
                q.append(y)
    return dist


# ---------------------------------------------------------------------------
# Checks on program outputs

def step_ok(kind: str, u: int, v: int) -> bool:
    """Whether u -> v is an edge of SSQ or BSQ, for u a vertex: one factor changes, along a factor edge.

    The same rule as `adjacent`, read from the factor tables, which keeps the
    checks of long outputs fast.
    """
    x = u ^ v
    if x < 4:
        return x != 0 and (v & 3) in C4.adj[u & 3]
    s = shift_of(((x >> 2).bit_length() - 1) // 4 + 1)
    adj = FACTOR[kind].adj.get((u >> s) & 15)
    return not x & ~(15 << s) and adj is not None and (v >> s) & 15 in adj


def path_ok(kind: str, n: int, src: int, dst: int, path) -> bool:
    """A simple walk over oracle edges from src to dst of exactly oracle length."""
    return (
        len(path) >= 1
        and path[0] == src
        and path[-1] == dst
        and is_vertex(kind, n, src)
        and len(set(path)) == len(path)
        and len(path) - 1 == distance(kind, n, src, dst)
        and all(step_ok(kind, a, b) for a, b in zip(path, path[1:]))
    )


def cycle_ok(kind: str, n: int, cycle) -> bool:
    """Every vertex exactly once, and every step, the closing one included, an oracle edge."""
    count = vertex_count(kind, n)
    if len(cycle) != count:
        return False
    seen = bytearray(1 << n)
    for w in cycle:
        if not 0 <= w < 1 << n or seen[w]:
            return False
        seen[w] = 1
    return is_vertex(kind, n, cycle[0]) and all(step_ok(kind, cycle[i - 1], cycle[i]) for i in range(count))


def coloring_ok(n: int, words, coloring) -> bool:
    """A BSQ colouring equals the parity class or its complement."""
    if len(coloring) != len(words):
        return False
    flip = coloring[0] ^ bsq_parity(n, words[0])
    return all(c ^ bsq_parity(n, w) == flip for w, c in zip(words, coloring))
