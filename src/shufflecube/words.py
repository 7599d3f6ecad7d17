"""Vertex words: n-bit labels, 4-bit block decomposition and Hamming metrics.

A vertex is a plain unsigned int whose bit i holds u_i; the printed form is
MSB-first, u_{n-1} leftmost.  Bits split into k = (n-2)/4 four-bit blocks plus
a two-bit tail: block j >= 1 covers bits 4j+1 .. 4j-2, block 0 covers bits
1..0.  Each 4-bit block reads as two 2-bit halves, pair1 (high) and pair2
(low), interpreted as integers mod 4.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidVertexError

VertexWord = int
BlockValue = int


@dataclass(frozen=True)
class Dimension:
    """Number of label bits; must satisfy n >= 2 and n = 2 (mod 4)."""

    n: int

    def __post_init__(self):
        if self.n < 2 or self.n % 4 != 2:
            raise ValueError(f"dimension must satisfy n >= 2 and n = 2 (mod 4), got {self.n}")

    @property
    def k(self) -> int:
        """Number of 4-bit blocks (block indices run 0..k, block 0 is 2 bits wide)."""
        return (self.n - 2) // 4

    @property
    def mask(self) -> int:
        return (1 << self.n) - 1


def parse_vertex(text: str, dim: Dimension) -> VertexWord:
    """Parse an MSB-first binary string into a vertex word."""
    if len(text) != dim.n:
        raise InvalidVertexError(
            f"vertex string must have exactly {dim.n} characters, got {len(text)}"
        )
    for pos, ch in enumerate(text):
        if ch not in "01":
            raise InvalidVertexError(f"vertex string has non-binary character {ch!r} at position {pos}")
    return int(text, 2)


def format_vertex(u: VertexWord, dim: Dimension) -> str:
    """Render a vertex word MSB-first, zero padded to width n."""
    if not 0 <= u <= dim.mask:
        raise InvalidVertexError(f"word {u:0{dim.n}b} does not fit in {dim.n} bits")
    return format(u, f"0{dim.n}b")


def block_width(j: int) -> int:
    return 2 if j == 0 else 4


def _block_shift(j: int) -> int:
    return 0 if j == 0 else 4 * j - 2


def get_block(u: VertexWord, j: int, dim: Dimension) -> BlockValue:
    """Value of block j: bits 4j+1..4j-2 for j >= 1, bits 1..0 for j = 0."""
    if not 0 <= j <= dim.k:
        raise IndexError(f"block index {j} out of range 0..{dim.k}")
    return (u >> (4 * j - 2)) & 0b1111 if j else u & 0b11


def set_block(u: VertexWord, j: int, value: BlockValue, dim: Dimension) -> VertexWord:
    """Copy of u with block j replaced; other bits untouched."""
    old = get_block(u, j, dim)
    width = block_width(j)
    if not 0 <= value < (1 << width):
        raise ValueError(f"block {j} value must fit in {width} bits, got {value}")
    return u ^ ((old ^ value) << _block_shift(j))


def blocks(u: VertexWord, dim: Dimension) -> tuple[BlockValue, ...]:
    """All block values of u, index 0 first."""
    return tuple(get_block(u, j, dim) for j in range(dim.k + 1))


def hamming(u: VertexWord, v: VertexWord) -> int:
    """Number of bit positions where u and v differ."""
    return (u ^ v).bit_count()


def differing_blocks(u: VertexWord, v: VertexWord, dim: Dimension) -> list[int]:
    """Indices of the blocks where u and v differ, ascending."""
    x = u ^ v
    return [j for j in range(dim.k + 1) if get_block(x, j, dim)]


def pair1(block: BlockValue) -> int:
    """High 2-bit half of a 4-bit block, as an integer mod 4."""
    return (block >> 2) & 3


def pair2(block: BlockValue) -> int:
    """Low 2-bit half of a 4-bit block, as an integer mod 4."""
    return block & 3


def make_block(p1: int, p2: int) -> BlockValue:
    return ((p1 % 4) << 2) | (p2 % 4)
