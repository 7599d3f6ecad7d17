"""The product core against the independent oracles at n = 10, on hypothesis-drawn vertices.

n in {2, 6} is checked exhaustively elsewhere.  Here adjacency, neighbour
lists, blockwise distances and routed paths of the 10-bit graphs are compared
with `tests/oracles.py`: the recursive adjacency and validity rules, and a
BFS over neighbour rows built from the recursive adjacency alone.  The
shift-and-mask `apply_map` is compared with a block-by-block fold.
"""
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from shufflecube import (
    AutomorphismSpec,
    Dimension,
    InvalidVertexError,
    TopologyKind,
    adjacent,
    apply_map,
    distance_of,
    get_block,
    neighbors,
    route_bsq,
    route_ssq,
    set_block,
)
from oracles import bfs_all, bsq_adjacent_rec, sq_adjacent_rec, ssq_adjacent_rec, ssq_valid_rec

N = 10
D10 = Dimension(N)
RECURSIVE = {
    TopologyKind.SQ: sq_adjacent_rec,
    TopologyKind.SSQ: ssq_adjacent_rec,
    TopologyKind.BSQ: bsq_adjacent_rec,
}
ROUTE = {TopologyKind.SSQ: route_ssq, TopologyKind.BSQ: route_bsq}
EXAMPLES = settings(max_examples=200, deadline=None)


def oracle_valid(kind, u):
    return kind is not TopologyKind.SSQ or ssq_valid_rec(N, u)


@lru_cache(maxsize=None)
def oracle_words(kind):
    return tuple(u for u in range(1 << N) if oracle_valid(kind, u))


@lru_cache(maxsize=None)
def oracle_rows(kind):
    """Neighbour index rows over oracle_words(kind), from the recursive adjacency alone."""
    words, rec = oracle_words(kind), RECURSIVE[kind]
    return tuple(tuple(j for j, v in enumerate(words) if rec(N, u, v)) for u in words)


def draw_pair(data, kind):
    """A vertex index and, half the time, one of its oracle neighbours, else any vertex index."""
    last = len(oracle_words(kind)) - 1
    i = data.draw(st.integers(0, last))
    j = data.draw(st.one_of(st.integers(0, last), st.sampled_from(oracle_rows(kind)[i])))
    return i, j


@pytest.mark.parametrize("kind", list(RECURSIVE))
@EXAMPLES
@given(data=st.data())
def test_adjacent(kind, data):
    i, j = draw_pair(data, kind)
    u, v = oracle_words(kind)[i], oracle_words(kind)[j]
    assert adjacent(kind, D10, u, v) == RECURSIVE[kind](N, u, v)


@pytest.mark.parametrize("kind", list(RECURSIVE))
@EXAMPLES
@given(u=st.integers(0, (1 << N) - 1))
def test_neighbors(kind, u):
    if not oracle_valid(kind, u):
        with pytest.raises(InvalidVertexError):
            neighbors(kind, D10, u)
        return
    words = oracle_words(kind)
    assert neighbors(kind, D10, u) == [words[j] for j in oracle_rows(kind)[words.index(u)]]


@pytest.mark.parametrize("kind", list(ROUTE))
@EXAMPLES
@given(data=st.data())
def test_distance_and_route(kind, data):
    i, j = draw_pair(data, kind)
    words, rec = oracle_words(kind), RECURSIVE[kind]
    u, v = words[i], words[j]
    dist = bfs_all(oracle_rows(kind), i)[j]
    assert distance_of(kind, D10, u, v) == dist
    path = ROUTE[kind](D10, u, v)
    assert (path[0], path[-1], len(path) - 1) == (u, v, dist)
    assert all(rec(N, a, b) for a, b in zip(path, path[1:]))


def fold_apply(spec, w):
    """apply_map's reference: replace each block, tail first, through get_block/set_block."""
    for j, image in enumerate(spec.images):
        w = set_block(w, j, image[get_block(w, j, D10)], D10)
    return w


@EXAMPLES
@given(data=st.data())
def test_apply_map(data):
    tables = tuple(
        tuple(data.draw(st.lists(st.integers(0, width - 1), min_size=width, max_size=width)))
        for width in [4] + [16] * D10.k
    )
    spec = AutomorphismSpec(D10, tables)
    w = data.draw(st.integers(0, D10.mask))
    assert apply_map(spec, w) == fold_apply(spec, w)
