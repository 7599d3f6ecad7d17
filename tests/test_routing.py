"""Routing paths, blockwise distances and diameter formulas."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from shufflecube import (
    Dimension,
    InvalidVertexError,
    TopologyKind,
    adjacent,
    bfs_distances,
    diameter,
    diameter_formula,
    distance_of,
    format_vertex,
    get_block,
    materialize,
    parse_vertex,
    product_factors,
    route_bsq,
    route_ssq,
    set_block,
)
from shufflecube.topology import _require_valid
from oracles import bfs_all

D6 = Dimension(6)
D10 = Dimension(10)


def all_pairs_dist(g):
    return [bfs_all(g.nbrs, s) for s in range(g.num_vertices)]


ROUTES = {TopologyKind.SSQ: route_ssq, TopologyKind.BSQ: route_bsq}


def reference_walk(kind, dim, src, dst):
    """The route hop by hop over each factor's `hop`: blocks 1..k in ascending order, then the tail."""
    factors = product_factors(kind, dim)
    path = [src]
    for j in (*range(1, dim.k + 1), 0):
        target = get_block(dst, j, dim)
        while (b := get_block(path[-1], j, dim)) != target:
            path.append(set_block(path[-1], j, factors[j].hop(b, target), dim))
    return path


def random_vertex(kind, dim, rng):
    """A uniform vertex: each block drawn from its factor's nodes."""
    u = 0
    for j, f in enumerate(product_factors(kind, dim)):
        u = set_block(u, j, rng.choice(f.nodes), dim)
    return u


def differential_pairs(kind, n):
    """Every vertex pair at n = 6; 400 seeded pairs above."""
    if n == 6:
        words = materialize(kind, 6).words
        return [(u, v) for u in words for v in words]
    dim, rng = Dimension(n), random.Random(n)
    return [(random_vertex(kind, dim, rng), random_vertex(kind, dim, rng)) for _ in range(400)]


@pytest.mark.parametrize("kind", [TopologyKind.SSQ, TopologyKind.BSQ])
@pytest.mark.parametrize("n", [6, 10, 18, 62])
class TestAgainstReferenceWalk:
    def test_route_is_the_hop_by_hop_walk(self, kind, n):
        dim, route = Dimension(n), ROUTES[kind]
        for u, v in differential_pairs(kind, n):
            assert route(dim, u, v) == reference_walk(kind, dim, u, v), (u, v)

    def test_distance_is_the_sum_of_factor_distances(self, kind, n):
        dim, factors = Dimension(n), product_factors(kind, Dimension(n))
        for u, v in differential_pairs(kind, n):
            expected = sum(f.distance(get_block(u, j, dim), get_block(v, j, dim)) for j, f in enumerate(factors))
            assert distance_of(kind, dim, u, v) == expected, (u, v)


VALID = 0b110100  # a vertex of SSQ_n and BSQ_n at every n >= 6
NOT_SSQ = 0b010000  # block 1 has pair1 = 01
NOT_SSQ_EITHER = 0b100000  # block 1 has pair1 = 10


def invalid_pairs(kind, n):
    """(label, src, dst) pairs that are not vertex pairs of kind at n."""
    pairs = []
    for label, w in (("negative", -1), ("1 << n", 1 << n), ("(1 << n) | valid", (1 << n) | VALID)):
        pairs += [(f"{label} src", w, VALID), (f"{label} dst", VALID, w)]
    if kind is TopologyKind.SSQ:
        pairs += [
            ("bad block in src", NOT_SSQ, VALID),
            ("bad block in dst", VALID, NOT_SSQ),
            ("bad blocks in both", NOT_SSQ, NOT_SSQ_EITHER),
        ]
    return pairs


CALLS = {
    "route_ssq": (TopologyKind.SSQ, route_ssq),
    "route_bsq": (TopologyKind.BSQ, route_bsq),
    "distance_of-SSQ": (TopologyKind.SSQ, lambda dim, u, v: distance_of(TopologyKind.SSQ, dim, u, v)),
    "distance_of-BSQ": (TopologyKind.BSQ, lambda dim, u, v: distance_of(TopologyKind.BSQ, dim, u, v)),
}


@pytest.mark.parametrize("call", list(CALLS))
@pytest.mark.parametrize("n", [6, 18])
def test_invalid_inputs_raise_the_vertex_check_error(call, n):
    kind, fn = CALLS[call]
    dim = Dimension(n)
    for label, u, v in invalid_pairs(kind, n):
        with pytest.raises(InvalidVertexError) as want:
            _require_valid(kind, dim, u, v)
        with pytest.raises(InvalidVertexError) as got:
            fn(dim, u, v)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value), label


def test_both_bad_names_src():
    with pytest.raises(InvalidVertexError, match="^word 010000 is not a vertex of SSQ_6$"):
        route_ssq(D6, NOT_SSQ, NOT_SSQ_EITHER)


@pytest.mark.parametrize("kind", [TopologyKind.SQ, TopologyKind.Q])
@pytest.mark.parametrize("u, v", [(0, 1), (-1, 0), (0, 1 << 6), ((1 << 6) | VALID, -1)])
def test_non_product_kinds_raise_value_error_before_any_vertex_check(kind, u, v):
    with pytest.raises(ValueError, match=f"^only SSQ and BSQ are block products, not {kind.value}$"):
        distance_of(kind, D6, u, v)


class TestDistanceOf:
    def test_examples(self):
        assert distance_of(TopologyKind.SSQ, D6, 0b110100, 0b110100) == 0
        assert distance_of(TopologyKind.BSQ, D6, 0, parse_vertex("111111", D6)) == 4
        assert distance_of(TopologyKind.BSQ, D6, 0, parse_vertex("001010", D6)) == 6

    @pytest.mark.parametrize("kind", [TopologyKind.SSQ, TopologyKind.BSQ])
    def test_matches_bfs_exhaustively_n6(self, kind):
        g = materialize(kind, 6)
        dist = all_pairs_dist(g)
        for i, u in enumerate(g.words):
            for j, v in enumerate(g.words):
                assert distance_of(kind, D6, u, v) == dist[i][j]

    def test_rejects_other_kinds(self):
        with pytest.raises(ValueError):
            distance_of(TopologyKind.SQ, D6, 0, 1)

    def test_rejects_invalid_vertices(self):
        with pytest.raises(InvalidVertexError):
            distance_of(TopologyKind.SSQ, D6, 0b010000, 0)


class TestRouteSsq:
    def test_frozen_paths(self):
        assert route_ssq(D6, 0, 0b000100) == [0b000000, 0b000100]
        assert route_ssq(D6, 0, 0b110000) == [0b000000, 0b111100, 0b110000]
        assert route_ssq(D6, 0, 0b111100) == [0b000000, 0b111100]

    def test_self_route_has_no_edges(self):
        assert route_ssq(D6, 0b110100, 0b110100) == [0b110100]

    def test_invalid_vertex(self):
        with pytest.raises(InvalidVertexError):
            route_ssq(D6, 0b010000, 0)


class TestRouteBsq:
    def test_single_hop(self):
        assert route_bsq(D6, 0, 0b010000) == [0, 0b010000]

    def test_eccentric_block_takes_four_steps(self):
        path = route_bsq(D6, 0, 0b001000)
        g = materialize(TopologyKind.BSQ, 6)
        oracle = bfs_distances(g, g.index_of(0))[g.index_of(0b001000)]
        assert len(path) - 1 == oracle == 4
        assert all(adjacent(TopologyKind.BSQ, D6, a, b) for a, b in zip(path, path[1:]))

    def test_self_route(self):
        assert route_bsq(D6, 5, 5) == [5]


@pytest.mark.parametrize(
    "kind,route",
    [(TopologyKind.SSQ, route_ssq), (TopologyKind.BSQ, route_bsq)],
)
class TestOptimality:
    def test_exhaustive_n6(self, kind, route):
        g = materialize(kind, 6)
        dist = all_pairs_dist(g)
        dim = D6
        for i, u in enumerate(g.words):
            for j, v in enumerate(g.words):
                path = route(dim, u, v)
                assert len(path) - 1 == dist[i][j], (u, v)
                assert len(set(path)) == len(path)
                assert all(adjacent(kind, dim, a, b) for a, b in zip(path, path[1:]))

    def test_sampled_n10(self, kind, route):
        g = materialize(kind, 10)
        rng = random.Random(8)
        sources = rng.sample(g.words, 30)
        dests = rng.sample(g.words, 34)
        for src in sources:
            dist = bfs_distances(g, g.index_of(src))
            for dst in dests:
                path = route(D10, src, dst)
                assert len(path) - 1 == dist[g.index_of(dst)]
                assert all(adjacent(kind, D10, a, b) for a, b in zip(path, path[1:]))

    def test_per_block_step_bounds(self, kind, route):
        cap = 2 if kind is TopologyKind.SSQ else 4
        g = materialize(kind, 10)
        rng = random.Random(9)
        for _ in range(300):
            src, dst = rng.choice(g.words), rng.choice(g.words)
            path = route(D10, src, dst)
            changes = {j: 0 for j in range(D10.k + 1)}
            for a, b in zip(path, path[1:]):
                j = next(j for j in range(D10.k + 1) if get_block(a, j, D10) != get_block(b, j, D10))
                changes[j] += 1
            assert changes[0] <= 2
            assert all(c <= cap for j, c in changes.items() if j >= 1)


class TestDiameterFormula:
    @pytest.mark.parametrize(
        "kind,n,expected",
        [
            (TopologyKind.SSQ, 2, 2),
            (TopologyKind.SSQ, 6, 4),
            (TopologyKind.SSQ, 10, 6),
            (TopologyKind.BSQ, 2, 2),
            (TopologyKind.BSQ, 6, 6),
            (TopologyKind.BSQ, 10, 10),
        ],
    )
    def test_values(self, kind, n, expected):
        assert diameter_formula(kind, n) == expected

    @pytest.mark.parametrize("kind", [TopologyKind.SSQ, TopologyKind.BSQ])
    @pytest.mark.parametrize("n", [6, 10])
    def test_agrees_with_bfs(self, kind, n):
        assert diameter_formula(kind, n) == diameter(materialize(kind, n)).value

    def test_no_formula_for_sq(self):
        with pytest.raises(ValueError):
            diameter_formula(TopologyKind.SQ, 6)


@given(st.integers(0, 1023), st.integers(0, 1023))
@settings(max_examples=100, deadline=None)
def test_bsq_route_is_always_valid(u, v):
    path = route_bsq(D10, u, v)
    assert path[0] == u and path[-1] == v
    assert len(path) - 1 == distance_of(TopologyKind.BSQ, D10, u, v)
    assert all(adjacent(TopologyKind.BSQ, D10, a, b) for a, b in zip(path, path[1:]))
