"""Adjacency oracles, factor block graphs and graph materialization."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from shufflecube import (
    B_SSQ_LABEL,
    C4_LABEL,
    D_BSQ_LABEL,
    Dimension,
    InvalidVertexError,
    ResourceLimitError,
    TopologyKind,
    V_SETS,
    adjacent,
    bh_neighbors,
    block_graph,
    format_vertex,
    is_valid_vertex,
    make_block,
    materialize,
    neighbor_sets,
    neighbors,
    pair1,
    pair2,
    parse_vertex,
    product_factors,
)
from shufflecube.analysis import _cliques
from oracles import bfs_all, bsq_adjacent_rec, sq_adjacent_rec, ssq_adjacent_rec, ssq_valid_rec

D6 = Dimension(6)
D10 = Dimension(10)

RECURSIVE = {
    TopologyKind.SQ: sq_adjacent_rec,
    TopologyKind.SSQ: ssq_adjacent_rec,
    TopologyKind.BSQ: bsq_adjacent_rec,
}


def test_v_set_rows_verbatim():
    assert V_SETS[0b00] == {0b1111, 0b0001, 0b0010, 0b0011}
    assert V_SETS[0b01] == {0b0100, 0b0101, 0b0110, 0b0111}
    assert V_SETS[0b10] == {0b1000, 0b1001, 0b1010, 0b1011}
    assert V_SETS[0b11] == {0b1100, 0b1101, 0b1110, 0b1111}
    assert all(0 not in V_SETS[t] and len(V_SETS[t]) == 4 for t in range(4))


class TestAdjacent:
    def test_reference_edges(self):
        assert adjacent(TopologyKind.SQ, D6, 0b000000, 0b111100)
        assert adjacent(TopologyKind.BSQ, D6, 0b110000, 0b001100)
        assert adjacent(TopologyKind.SSQ, D6, 0b000001, 0b000010)

    def test_self_loops_absent(self):
        for kind in RECURSIVE:
            assert not adjacent(kind, D6, 0b110100, 0b110100)

    def test_two_block_changes_rejected(self):
        assert not adjacent(TopologyKind.BSQ, D6, 0b000001, 0b100000)

    def test_invalid_ssq_vertex_is_loud(self):
        with pytest.raises(InvalidVertexError):
            adjacent(TopologyKind.SSQ, D6, 0b010000, 0b000000)
        with pytest.raises(InvalidVertexError):
            neighbors(TopologyKind.SSQ, D6, 0b010000)

    @pytest.mark.parametrize("kind", list(RECURSIVE))
    def test_matches_recursive_definition_exhaustive_n6(self, kind):
        rec = RECURSIVE[kind]
        words = [u for u in range(64) if is_valid_vertex(kind, D6, u)]
        for u in words:
            for v in words:
                assert adjacent(kind, D6, u, v) == rec(6, u, v), (u, v)

    @pytest.mark.parametrize("kind", list(RECURSIVE))
    def test_matches_recursive_definition_exhaustive_n2(self, kind):
        rec = RECURSIVE[kind]
        dim = Dimension(2)
        for u in range(4):
            for v in range(4):
                assert adjacent(kind, dim, u, v) == rec(2, u, v), (u, v)

    @pytest.mark.parametrize("kind", list(RECURSIVE))
    def test_matches_recursive_definition_sampled_n10(self, kind):
        rec = RECURSIVE[kind]
        rng = random.Random(sum(kind.value.encode()))
        words = materialize(kind, 10).words
        for _ in range(100_000):
            u, v = rng.choice(words), rng.choice(words)
            assert adjacent(kind, D10, u, v) == rec(10, u, v)

    @pytest.mark.parametrize("kind", list(RECURSIVE))
    def test_symmetric_and_irreflexive_sampled_n10(self, kind):
        rng = random.Random(17)
        words = materialize(kind, 10).words
        for _ in range(20_000):
            u, v = rng.choice(words), rng.choice(words)
            assert adjacent(kind, D10, u, v) == adjacent(kind, D10, v, u)
        assert not any(adjacent(kind, D10, w, w) for w in words[:100])


class TestNeighbors:
    def test_frozen_neighborhoods_of_zero(self):
        def words(kind):
            return [format_vertex(w, D6) for w in neighbors(kind, D6, 0)]

        assert words(TopologyKind.SQ) == ["000001", "000010", "000100", "001000", "001100", "111100"]
        assert words(TopologyKind.SSQ) == ["000001", "000011", "000100", "001000", "001100", "111100"]
        assert words(TopologyKind.BSQ) == ["000001", "000011", "010000", "010100", "110000", "110100"]

    @pytest.mark.parametrize("kind", [TopologyKind.Q, TopologyKind.SQ, TopologyKind.SSQ, TopologyKind.BSQ])
    @pytest.mark.parametrize("n", [6, 10])
    def test_degree_n_everywhere(self, kind, n):
        g = materialize(kind, n)
        assert all(g.degree(i) == n for i in range(g.num_vertices))

    @given(st.integers(0, (1 << 10) - 1))
    @settings(max_examples=200)
    def test_neighbor_lists_match_adjacent(self, u):
        got = neighbors(TopologyKind.BSQ, D10, u)
        assert got == sorted(got)
        assert all(adjacent(TopologyKind.BSQ, D10, u, v) for v in got)


class TestBlockGraphs:
    def test_c4_is_the_mod4_cycle(self):
        bg = block_graph(C4_LABEL)
        assert bg.nodes == (0, 1, 2, 3)
        assert bg.adj[0] == (1, 3) and bg.adj[1] == (0, 2)
        assert bg.distance(0, 2) == 2

    def test_b_ssq_structure(self):
        bg = block_graph(B_SSQ_LABEL)
        assert bg.nodes == (0, 1, 2, 3, 12, 13, 14, 15)
        assert all(len(bg.adj[a]) == 4 for a in bg.nodes)
        assert bg.distance(0b0000, 0b1101) == 2

    def test_d_bsq_structure(self):
        bg = block_graph(D_BSQ_LABEL)
        assert bg.nodes == tuple(range(16))
        assert all(len(bg.adj[a]) == 4 for a in bg.nodes)
        assert bg.distance(0b0000, 0b1111) == 3
        assert max(bg.distance(0, b) for b in bg.nodes) == 4
        assert [b for b in bg.nodes if bg.distance(0, b) == 4] == [0b0010, 0b1010]

    @pytest.mark.parametrize("label", [C4_LABEL, B_SSQ_LABEL, D_BSQ_LABEL])
    def test_distance_table_properties(self, label):
        bg = block_graph(label)
        for a in bg.nodes:
            reached = {a: 0}
            order = [a]
            for x in order:
                for y in bg.adj[x]:
                    if y not in reached:
                        reached[y] = reached[x] + 1
                        order.append(y)
            assert sorted(reached) == list(bg.nodes)
            for b in bg.nodes:
                assert bg.distance(a, b) == reached[b] == bg.distance(b, a)
                if a != b:
                    hop = bg.hop(a, b)
                    assert hop in bg.adj[a]
                    assert bg.distance(hop, b) == bg.distance(a, b) - 1

    @pytest.mark.parametrize("label,width", [(C4_LABEL, 2), (B_SSQ_LABEL, 4), (D_BSQ_LABEL, 4)])
    def test_pairs_outside_the_table_raise_key_error(self, label, width):
        bg = block_graph(label)
        node = bg.nodes[-1]
        outside = [1 << width, -1] + ([0b0100] if label == B_SSQ_LABEL else [])
        for bad in outside:
            for pair in ((bad, node), (node, bad)):
                with pytest.raises(KeyError):
                    bg.distance(*pair)
                with pytest.raises(KeyError):
                    bg.hop(*pair)
        for a in bg.nodes:
            with pytest.raises(KeyError):
                bg.hop(a, a)

    def test_hop_tie_break_follows_listed_moves(self):
        # C4 lists +1 before -1; B lists XOR 1111 before 0001, 0010, 0011.
        assert block_graph(C4_LABEL).hop(1, 3) == 2
        assert block_graph(B_SSQ_LABEL).hop(0b0000, 0b1100) == 0b1111

    def test_d_hop_is_the_lowest_shortest_move(self):
        bg = block_graph(D_BSQ_LABEL)
        for a in bg.nodes:
            for b in bg.nodes:
                if a != b:
                    shortest = [w for w in bg.adj[a] if bg.distance(w, b) == bg.distance(a, b) - 1]
                    assert bg.hop(a, b) == min(shortest)

    def test_d_matches_bh2_rule_on_all_blocks(self):
        bg = block_graph(D_BSQ_LABEL)
        for b in bg.nodes:
            expected = {make_block(a0, a1) for a0, a1 in bh_neighbors(2, (pair1(b), pair2(b)))}
            assert set(bg.adj[b]) == expected


class TestMaterialize:
    @pytest.mark.parametrize(
        "kind,n,vertices,edges",
        [
            (TopologyKind.SSQ, 6, 32, 96),
            (TopologyKind.BSQ, 6, 64, 192),
            (TopologyKind.SQ, 10, 1024, 5120),
        ],
    )
    def test_counts(self, kind, n, vertices, edges):
        g = materialize(kind, n)
        assert g.num_vertices == vertices
        assert g.edge_count == edges

    def test_cap_error_names_the_count(self):
        with pytest.raises(ResourceLimitError, match="4194304"):
            materialize(TopologyKind.Q, 22)

    @pytest.mark.parametrize("kind", [TopologyKind.Q, TopologyKind.SQ, TopologyKind.SSQ, TopologyKind.BSQ])
    @pytest.mark.parametrize("n", [6, 10])
    def test_connected_from_zero(self, kind, n):
        g = materialize(kind, n)
        assert bfs_all(g.nbrs, g.index_of(0)).count(-1) == 0

    def test_symmetric_adjacency_exhaustive_n6(self):
        for kind in RECURSIVE:
            g = materialize(kind, 6)
            for i, row in enumerate(g.nbrs):
                for j in row:
                    assert i in g.nbrs[j]
                    assert i != j

    @pytest.mark.parametrize("n", [6, 10])
    def test_bsq_parity_class_splits_every_edge(self, n):
        dim = Dimension(n)
        g = materialize(TopologyKind.BSQ, n)

        def cls(u):
            total = sum(pair1((u >> (4 * j - 2)) & 15) for j in range(1, dim.k + 1))
            return (total + (u & 3)) % 2

        assert all(cls(g.word_of(i)) != cls(g.word_of(j)) for i, j in g.edges())


    @pytest.mark.parametrize("kind", list(RECURSIVE))
    @pytest.mark.parametrize("n", [2, 6])
    def test_rows_match_recursive_definition(self, kind, n):
        rec = RECURSIVE[kind]
        valid = ssq_valid_rec if kind is TopologyKind.SSQ else (lambda n, u: True)
        g = materialize(kind, n)
        assert list(g.words) == [u for u in range(1 << n) if valid(n, u)]
        for i, u in enumerate(g.words):
            assert [g.words[j] for j in g.nbrs[i]] == [v for v in g.words if rec(n, u, v)]

    @pytest.mark.parametrize("kind", [TopologyKind.SSQ, TopologyKind.BSQ])
    @pytest.mark.parametrize("n", [2, 6, 10, 14])
    def test_product_rows_match_neighbors(self, kind, n):
        dim = Dimension(n)
        g = materialize(kind, n)
        for i, u in enumerate(g.words):
            assert list(g.nbrs[i]) == [g.index[v] for v in neighbors(kind, dim, u)]

    @pytest.mark.parametrize("kind", [TopologyKind.SSQ, TopologyKind.BSQ])
    def test_product_rows_follow_recursive_rules_n10(self, kind):
        rec = RECURSIVE[kind]
        g = materialize(kind, 10)
        for i, u in enumerate(g.words):
            row = [g.words[j] for j in g.nbrs[i]]
            assert len(row) == 10
            assert len(set(row)) == 10
            assert all(rec(10, u, v) for v in row)

    @pytest.mark.parametrize("kind", [TopologyKind.SSQ, TopologyKind.BSQ])
    def test_product_rows_share_the_index_ints(self, kind):
        g = materialize(kind, 14)
        assert len({id(x) for row in g.nbrs for x in row}) <= g.num_vertices

    @pytest.mark.parametrize(
        "cache,bound",
        [(neighbor_sets, 2), (_cliques, 2), (materialize, 3)],
        ids=["neighbor_sets", "_cliques", "materialize"],
    )
    def test_graph_cache_stays_bounded(self, cache, bound):
        cache.cache_clear()
        for kind in (TopologyKind.Q, TopologyKind.SQ, TopologyKind.SSQ, TopologyKind.BSQ):
            g = materialize(kind, 6)
            if cache is not materialize:
                cache(g)
        assert cache.cache_info().currsize == bound


class TestProductFactors:
    def test_tail_first_then_block_factors(self):
        c4, b, d = block_graph(C4_LABEL), block_graph(B_SSQ_LABEL), block_graph(D_BSQ_LABEL)
        assert product_factors(TopologyKind.SSQ, D6) == (c4, b)
        assert product_factors(TopologyKind.BSQ, D10) == (c4, d, d)
        assert product_factors(TopologyKind.BSQ, Dimension(2)) == (c4,)

    def test_sq_is_not_a_product(self):
        for kind in (TopologyKind.Q, TopologyKind.SQ):
            with pytest.raises(ValueError, match=f"only SSQ and BSQ are block products, not {kind.value}"):
                product_factors(kind, D6)

    def test_vertex_count_is_the_product_of_factor_sizes(self):
        for kind in (TopologyKind.SSQ, TopologyKind.BSQ):
            sizes = [len(f.nodes) for f in product_factors(kind, D10)]
            assert materialize(kind, 10).num_vertices == sizes[0] * sizes[1] ** 2


class TestBalancedHypercube:
    def test_neighbor_examples(self):
        assert bh_neighbors(2, (0, 0)) == [(1, 0), (1, 1), (3, 0), (3, 1)]
        assert bh_neighbors(2, (2, 0)) == [(1, 0), (1, 1), (3, 0), (3, 1)]
        assert bh_neighbors(1, (0,)) == [(1,), (3,)]

    def test_neighbor_count_is_2m(self):
        for m in (1, 2, 3):
            assert len(bh_neighbors(m, (0,) * m)) == 2 * m

    def test_coordinate_out_of_range(self):
        with pytest.raises(InvalidVertexError):
            bh_neighbors(2, (0, 4))
