"""Vertex-transitivity witnesses: the blockwise maps phi (SSQ) and psi (BSQ).

Both maps act block by block, so a spec is one image table per block, in the
order of `product_factors`: the 2-bit tail first, then blocks 1..k.  phi
XORs every block by the matching block of u ^ v.  psi rotates the tail and
acts on each 4-bit block as a mod-4 translation (pair1 and pair2 shifted) or
reflection (both negated after an offset).  Translations need an even pair1
offset and reflections an odd one to commute with the block adjacency rule;
`_psi_block` guarantees that, and verify_automorphism checks any spec against
the edge oracle regardless of how it was made.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import Check, InvalidVertexError
from .words import Dimension, VertexWord, block_width, blocks, get_block, set_block, pair1, pair2, make_block
from .topology import TopologyKind, _require_valid, materialize, neighbor_sets


@dataclass(frozen=True)
class AutomorphismSpec:
    """A blockwise vertex map: block j with value b becomes images[j][b]; block 0 (the tail) first."""

    dim: Dimension
    images: tuple[tuple[int, ...], ...]


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
    """Apply a blockwise map to one vertex word."""
    dim = spec.dim
    if not 0 <= w <= dim.mask:
        raise InvalidVertexError(f"word {w:#x} does not fit in {dim.n} bits")
    for j, image in enumerate(spec.images):
        w = set_block(w, j, image[get_block(w, j, dim)], dim)
    return w


def verify_automorphism(kind: TopologyKind, dim: Dimension, spec: AutomorphismSpec) -> Check:
    """Check bijectivity and edge preservation of a spec against the oracle.

    Exhaustive over the vertex and edge sets of the materialized graph, so it
    also catches deliberately corrupted specs.
    """
    g = materialize(kind, dim.n)
    images = []
    for w in g.words:
        img = apply_map(spec, w)
        if img not in g.index:
            return Check(False, f"image {img:#x} of {w:#x} leaves the vertex set", (w, img))
        images.append(g.index_of(img))
    if len(set(images)) != g.num_vertices:
        return Check(False, "map is not injective on the vertex set")
    nbr_sets = neighbor_sets(g)
    for i, j in g.edges():
        if images[j] not in nbr_sets[images[i]]:
            edge = (g.word_of(i), g.word_of(j))
            return Check(False, "edge image is not an edge", edge)
    return Check(True)
