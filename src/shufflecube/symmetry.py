"""Vertex-transitivity witnesses: the blockwise maps phi (SSQ) and psi (BSQ).

Both maps act block by block, so a spec is one image table per block, in the
order of `product_factors`: the 2-bit tail first, then blocks 1..k.  phi
XORs every block by the matching block of u ^ v.  psi rotates the tail and
acts on each 4-bit block as a mod-4 translation (pair1 and pair2 shifted) or
reflection (both negated after an offset).  Translations need an even pair1
offset and reflections an odd one to commute with the block adjacency rule;
`_psi_block` guarantees that.  Two checks take any spec, however it was made:
verify_factor_automorphism reads each table against its factor, and
verify_automorphism, its whole-graph oracle, walks every vertex and edge.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import Check, InvalidVertexError
from .words import Dimension, VertexWord, block_width, blocks, get_block, pair1, pair2, make_block
from .topology import TopologyKind, _require_valid, materialize, neighbor_sets, product_factors


@dataclass(frozen=True)
class AutomorphismSpec:
    """A blockwise vertex map: block j with value b becomes images[j][b]; block 0 (the tail) first."""

    dim: Dimension
    images: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.images) != self.dim.k + 1:
            raise ValueError(f"expected {self.dim.k + 1} block tables for n = {self.dim.n}, got {len(self.images)}")
        for j, image in enumerate(self.images):
            size = 1 << block_width(j)
            if len(image) != size:
                raise ValueError(f"block {j} table must have {size} entries, got {len(image)}")
            if min(image) < 0 or max(image) >= size:
                raise ValueError(f"block {j} table entries must fit in {block_width(j)} bits, got {image}")


def build_phi(u: VertexWord, v: VertexWord, dim: Dimension) -> AutomorphismSpec:
    """The XOR map sending v to u on SSQ vertices."""
    _require_valid(TopologyKind.SSQ, dim, u, v)
    offsets = enumerate(blocks(u ^ v, dim))
    return AutomorphismSpec(dim, tuple(tuple(b ^ x for b in range(1 << block_width(j))) for j, x in offsets))


def _psi_block(bu: int, bv: int) -> tuple[int, ...]:
    """psi's table on one 4-bit block, sending bv to bu: translate when the pair1 offset is even, else reflect."""
    if (pair1(bu) - pair1(bv)) % 2 == 0:
        alpha, beta = pair1(bu) - pair1(bv), pair2(bu) - pair2(bv)
        return tuple(make_block(pair1(b) + alpha, pair2(b) + beta) for b in range(16))
    alpha, beta = pair1(bu) + pair1(bv), pair2(bu) + pair2(bv)
    return tuple(make_block(alpha - pair1(b), beta - pair2(b)) for b in range(16))


def build_psi(u: VertexWord, v: VertexWord, dim: Dimension) -> AutomorphismSpec:
    """The translate/reflect map sending v to u on BSQ vertices."""
    _require_valid(TopologyKind.BSQ, dim, u, v)
    gamma = get_block(u, 0, dim) - get_block(v, 0, dim)
    tail = tuple((b + gamma) % 4 for b in range(4))
    maps = tuple(_psi_block(get_block(u, j, dim), get_block(v, j, dim)) for j in range(1, dim.k + 1))
    return AutomorphismSpec(dim, (tail,) + maps)


def apply_map(spec: AutomorphismSpec, w: VertexWord) -> VertexWord:
    """Apply a blockwise map to one vertex word: the tail by its table, then block j at bit 4j-2."""
    if not 0 <= w <= spec.dim.mask:
        raise InvalidVertexError(f"word {w:0{spec.dim.n}b} does not fit in {spec.dim.n} bits")
    images = spec.images
    out = images[0][w & 3]
    for j in range(1, len(images)):
        shift = 4 * j - 2
        out |= images[j][(w >> shift) & 15] << shift
    return out


def verify_factor_automorphism(kind: TopologyKind, spec: AutomorphismSpec) -> Check:
    """Check a spec of SSQ or BSQ one block at a time against its factor.

    A map that acts block by block is an automorphism of F_0 □ F_1 □ … □ F_k
    iff each block's map is an automorphism of its factor F_j (Imrich and
    Klavžar, Handbook of Product Graphs): every product edge changes exactly
    one block, so the map preserves the edges of block j exactly when the
    table of block j preserves the edges of F_j.  Each table must therefore
    be a bijection of its factor's nodes that sends every factor edge to an
    edge; that costs O(k·|E(F)|), where verify_automorphism costs O(|E(G)|).
    The witness of a failed edge is (j, a, b).
    """
    for j, (factor, image) in enumerate(zip(product_factors(kind, spec.dim), spec.images)):
        if sorted(image[a] for a in factor.nodes) != list(factor.nodes):
            return Check(False, f"block {j} table is not a bijection of its factor's nodes")
        for a in factor.nodes:
            targets = factor.adj[image[a]]
            for b in factor.adj[a]:
                if image[b] not in targets:
                    return Check(False, f"block {j} table sends a factor edge to a non-edge", (j, a, b))
    return Check(True)


def verify_automorphism(kind: TopologyKind, dim: Dimension, spec: AutomorphismSpec) -> Check:
    """Check bijectivity and edge preservation of a spec against the oracle.

    Exhaustive over the vertex and edge sets of the materialized graph, so it
    also catches deliberately corrupted specs.
    """
    g = materialize(kind, dim.n)
    images = []
    for w in g.words:
        img = apply_map(spec, w)
        i = g.index.get(img)
        if i is None:
            return Check(False, f"image {img:#x} of {w:#x} leaves the vertex set", (w, img))
        images.append(i)
    if len(set(images)) != g.num_vertices:
        return Check(False, "map is not injective on the vertex set")
    nbr_sets = neighbor_sets(g)
    image_of = images.__getitem__
    for i, row in enumerate(g.nbrs):
        targets = nbr_sets[images[i]]
        if not targets.issuperset(map(image_of, row)):
            # rows ascend and edges are symmetric, so the first failing row's
            # first failing entry is the first failing edge (i, j) with i < j
            j = next(j for j in row if images[j] not in targets)
            return Check(False, "edge image is not an edge", (g.word_of(i), g.word_of(j)))
    return Check(True)
