"""Vertex-transitivity witnesses: the blockwise maps phi (SSQ) and psi (BSQ).

phi XORs every block by a fixed offset.  psi acts on each 4-bit block as a
mod-4 translation (pair1 and pair2 shifted) or reflection (both negated after
an offset), chosen by the parity relation between the two anchor vertices,
and rotates the 2-bit tail.  Translations need an even pair1 offset and
reflections an odd one to commute with the block adjacency rule; the builder
guarantees that, and verify_automorphism checks any spec against the edge
oracle regardless of how it was made.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidVertexError
from .words import Dimension, VertexWord, blocks, get_block, set_block, pair1, pair2, make_block
from .topology import TopologyKind, _require_valid, materialize, neighbor_sets

TRANSLATE = "translate"
REFLECT = "reflect"


@dataclass(frozen=True)
class BlockMap:
    """psi's action on one 4-bit block."""

    mode: str  # "translate" | "reflect"
    alpha: int  # pair1 offset, mod 4
    beta: int  # pair2 offset, mod 4


@dataclass(frozen=True)
class AutomorphismSpec:
    """A blockwise vertex map; kind "phi" targets SSQ, "psi" targets BSQ."""

    kind: str
    dim: Dimension
    xor_offsets: tuple[int, ...] = ()  # phi: offset per block, index 0 first
    block_maps: tuple[BlockMap, ...] = ()  # psi: blocks 1..k in order
    gamma: int = 0  # psi: tail rotation, mod 4


def build_phi(u: VertexWord, v: VertexWord, dim: Dimension) -> AutomorphismSpec:
    """The XOR map sending v to u on SSQ vertices."""
    _require_valid(TopologyKind.SSQ, dim, u, v)
    return AutomorphismSpec("phi", dim, xor_offsets=blocks(u ^ v, dim))


def build_psi(u: VertexWord, v: VertexWord, dim: Dimension) -> AutomorphismSpec:
    """The translate/reflect map sending v to u on BSQ vertices."""
    _require_valid(TopologyKind.BSQ, dim, u, v)
    maps = []
    for j in range(1, dim.k + 1):
        bu, bv = get_block(u, j, dim), get_block(v, j, dim)
        if (pair1(bu) - pair1(bv)) % 2 == 0:
            maps.append(BlockMap(TRANSLATE, (pair1(bu) - pair1(bv)) % 4, (pair2(bu) - pair2(bv)) % 4))
        else:
            maps.append(BlockMap(REFLECT, (pair1(bu) + pair1(bv)) % 4, (pair2(bu) + pair2(bv)) % 4))
    gamma = (get_block(u, 0, dim) - get_block(v, 0, dim)) % 4
    return AutomorphismSpec("psi", dim, block_maps=tuple(maps), gamma=gamma)


def apply_map(spec: AutomorphismSpec, w: VertexWord) -> VertexWord:
    """Apply a blockwise map to one vertex word."""
    dim = spec.dim
    if not 0 <= w <= dim.mask:
        raise InvalidVertexError(f"word {w:#x} does not fit in {dim.n} bits")
    if spec.kind == "phi":
        out = w ^ spec.xor_offsets[0]
        for j in range(1, dim.k + 1):
            out ^= spec.xor_offsets[j] << (4 * j - 2)
        return out
    out = set_block(w, 0, (get_block(w, 0, dim) + spec.gamma) % 4, dim)
    for j in range(1, dim.k + 1):
        b = get_block(w, j, dim)
        m = spec.block_maps[j - 1]
        if m.mode == TRANSLATE:
            image = make_block(pair1(b) + m.alpha, pair2(b) + m.beta)
        else:
            image = make_block(m.alpha - pair1(b), m.beta - pair2(b))
        out = set_block(out, j, image, dim)
    return out


@dataclass(frozen=True)
class AutomorphismCheck:
    ok: bool
    reason: str = ""
    witness: tuple | None = None  # an edge whose image is not an edge, if any


def verify_automorphism(kind: TopologyKind, dim: Dimension, spec: AutomorphismSpec) -> AutomorphismCheck:
    """Check bijectivity and edge preservation of a spec against the oracle.

    Exhaustive over the vertex and edge sets of the materialized graph, so it
    also catches deliberately corrupted specs.
    """
    g = materialize(kind, dim.n)
    images = []
    for w in g.words:
        img = apply_map(spec, w)
        if img not in g.index:
            return AutomorphismCheck(False, f"image {img:#x} of {w:#x} leaves the vertex set", (w, img))
        images.append(g.index_of(img))
    if len(set(images)) != g.num_vertices:
        return AutomorphismCheck(False, "map is not injective on the vertex set")
    nbr_sets = neighbor_sets(g)
    for i, j in g.edges():
        if images[j] not in nbr_sets[images[i]]:
            edge = (g.word_of(i), g.word_of(j))
            return AutomorphismCheck(False, "edge image is not an edge", edge)
    return AutomorphismCheck(True)
