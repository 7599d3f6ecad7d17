"""Brute-force analytics: distances, girth, bipartiteness, cliques, censuses."""
from itertools import combinations

import pytest

from shufflecube import analysis
from shufflecube import (
    CubeGraph,
    Dimension,
    DisconnectedGraphError,
    TopologyKind,
    adjacent,
    bfs_distances,
    bh_pattern_pairs,
    bh_same_neighborhood_pairs,
    bipartition,
    bsq_pattern_pairs,
    clique_number,
    diameter,
    eccentricity,
    edge_transitivity_certificate,
    format_vertex,
    get_block,
    girth,
    k4_census,
    materialize,
    neighbor_sets,
    parse_vertex,
    same_neighborhood_pairs,
    triangle_counts,
    vertex_transitivity_certificate,
)

from oracles import bsq_adjacent_rec, sq_adjacent_rec, ssq_adjacent_rec, ssq_valid_rec

D6 = Dimension(6)


class TestDistances:
    def test_diameters_match_formulas(self, ssq6, bsq6, ssq10, bsq10):
        result = diameter(ssq6)
        assert (result.value, result.method) == (4, "exhaustive")
        assert diameter(bsq6).value == 6
        assert diameter(ssq10).value == 6
        assert diameter(bsq10).value == 10

    def test_bsq6_eccentric_vertices(self, bsq6):
        dist = bfs_distances(bsq6, bsq6.index_of(0))
        ecc = max(dist)
        assert ecc == eccentricity(bsq6, bsq6.index_of(0)) == 6
        attained = sorted(
            format_vertex(bsq6.word_of(i), D6) for i, d in enumerate(dist) if d == ecc
        )
        assert attained == ["001010", "101010"]

    def test_nominal_witnesses_fall_short(self, ssq6, bsq6):
        dist = bfs_distances(bsq6, bsq6.index_of(0))
        assert dist[bsq6.index_of(parse_vertex("111111", D6))] == 4
        dist = bfs_distances(ssq6, ssq6.index_of(0))
        assert dist[ssq6.index_of(parse_vertex("110111", D6))] == 3

    def test_disconnected_graph_reports_unreachable_count(self):
        two_islands = CubeGraph(
            TopologyKind.Q, 6, (0, 1, 2, 3), {w: w for w in range(4)},
            ((1,), (0,), (3,), (2,)), 2,
        )
        with pytest.raises(DisconnectedGraphError, match="2 unreachable") as exc:
            eccentricity(two_islands, 0)
        assert exc.value.unreachable == 2
        with pytest.raises(DisconnectedGraphError):
            diameter(two_islands)

    def test_diameter_method_labels_above_full_scan_cap(self):
        big_bsq = materialize(TopologyKind.BSQ, 14)
        result = diameter(big_bsq)
        assert (result.value, result.method) == (14, "vertex-transitive")
        big_sq = materialize(TopologyKind.SQ, 14)
        sampled = diameter(big_sq, sample_sources=4)
        assert sampled.method == "sampled-lower-bound"
        assert sampled.value >= 3

    def test_ssq_and_bsq_above_n10_scan_from_vertex_zero(self):
        ssq14 = materialize(TopologyKind.SSQ, 14)
        assert ssq14.num_vertices <= analysis.FULL_SCAN_CAP
        assert (diameter(ssq14).value, diameter(ssq14).method) == (8, "vertex-transitive")
        assert girth(ssq14) == 3
        assert girth(materialize(TopologyKind.BSQ, 14)) == 4

    @pytest.mark.parametrize("kind", [TopologyKind.SSQ, TopologyKind.BSQ])
    @pytest.mark.parametrize("n", [6, 10])
    def test_vertex_zero_scan_matches_exhaustive_scan(self, monkeypatch, kind, n):
        g = materialize(kind, n)
        exhaustive = (diameter(g), girth(g))
        assert exhaustive[0].method == "exhaustive"
        monkeypatch.setattr(analysis, "_scans_vertex_zero", lambda graph: True)
        from_zero = (diameter(g), girth(g))
        assert from_zero[0].method == "vertex-transitive"
        assert from_zero[0].value == exhaustive[0].value and from_zero[1] == exhaustive[1]


class TestGirth:
    def test_values(self, sq6, ssq6, bsq6, q6):
        assert girth(sq6) == 3
        assert girth(ssq6) == 3
        assert girth(bsq6) == 4
        assert girth(q6) == 4

    def test_ssq_triangle_witness(self):
        tri = (0b000000, 0b000100, 0b001000)
        for a in tri:
            for b in tri:
                assert a == b or adjacent(TopologyKind.SSQ, D6, a, b)

    def test_forest_sentinel(self):
        path = CubeGraph(TopologyKind.Q, 6, (0, 1, 2), {0: 0, 1: 1, 2: 2}, ((1,), (0, 2), (1,)), 2)
        assert girth(path) == float("inf")


class TestBipartition:
    def test_sq6_odd_cycle_witness(self, sq6):
        part = bipartition(sq6)
        assert not part.bipartite
        cyc = part.odd_cycle
        assert len(cyc) % 2 == 1 and len(cyc) == 3
        for i in range(len(cyc)):
            a, b = sq6.word_of(cyc[i]), sq6.word_of(cyc[(i + 1) % len(cyc)])
            assert adjacent(TopologyKind.SQ, D6, a, b)

    def test_bsq6_matches_class_function(self, bsq6):
        part = bipartition(bsq6)
        assert part.bipartite

        def cls(u):
            return (sum(get_block(u, j, D6) >> 2 for j in range(1, 2)) + (u & 3)) % 2

        classes = [cls(w) for w in bsq6.words]
        assert list(part.coloring) in (classes, [1 - c for c in classes])

    def test_q6_bit_parity(self, q6):
        part = bipartition(q6)
        parities = [w.bit_count() % 2 for w in q6.words]
        assert list(part.coloring) in (parities, [1 - p for p in parities])


class TestCliques:
    def test_sq6_census(self, sq6):
        census = k4_census(sq6)
        assert len(census.quads) == 4
        assert census.pairwise_disjoint
        for i in range(sq6.num_vertices):
            expected = 1 if sq6.word_of(i) & 3 == 0 else 0
            assert census.membership[i] == expected
        covered = sorted(sq6.word_of(x) for quad in census.quads for x in quad)
        assert covered == [w for w in sq6.words if w & 3 == 0]

    def test_sq10_membership(self, sq10):
        census = k4_census(sq10)
        for i in range(sq10.num_vertices):
            expected = 2 if sq10.word_of(i) & 3 == 0 else 0
            assert census.membership[i] == expected

    def test_clique_number_four(self, sq6, sq10):
        for g in (sq6, sq10):
            assert clique_number(g) == 4

    def test_bsq6_has_no_k4(self, bsq6):
        assert len(k4_census(bsq6).quads) == 0

    @pytest.mark.parametrize(
        "kind,rec",
        [
            (TopologyKind.SQ, sq_adjacent_rec),
            (TopologyKind.SSQ, ssq_adjacent_rec),
            (TopologyKind.BSQ, bsq_adjacent_rec),
        ],
    )
    def test_match_brute_force_over_oracle_adjacency_n6(self, kind, rec):
        words = [u for u in range(64) if kind is not TopologyKind.SSQ or ssq_valid_rec(6, u)]
        adj = [{j for j, v in enumerate(words) if rec(6, u, v)} for u in words]

        def clique(vs):
            return all(b in adj[a] for a, b in combinations(vs, 2))

        triangles = [t for t in combinations(range(len(words)), 3) if clique(t)]
        quads = [q for q in combinations(range(len(words)), 4) if clique(q)]
        has_k5 = any(all(x in adj[v] for v in q) for q in quads for x in range(len(words)))
        g = materialize(kind, 6)
        assert list(g.words) == words
        tri_v, tri_e = triangle_counts(g)
        assert tri_v == tuple(sum(x in t for t in triangles) for x in range(len(words)))
        assert tri_e == {
            (i, j): sum(i in t and j in t for t in triangles) for i in range(len(words)) for j in adj[i] if i < j
        }
        assert k4_census(g).quads == tuple(quads)
        assert clique_number(g) == (5 if has_k5 else 4 if quads else 3 if triangles else 2)


class TestTransitivityCertificates:
    def test_sq6_vertex_refuted(self, sq6):
        cert = vertex_transitivity_certificate(sq6)
        assert cert.refuted
        a, b = cert.witness
        tri, _ = triangle_counts(sq6)
        k4 = k4_census(sq6).membership
        ia, ib = sq6.index_of(a), sq6.index_of(b)
        assert (tri[ia], k4[ia]) != (tri[ib], k4[ib])
        assert (format_vertex(a, D6), format_vertex(b, D6)) == ("000000", "000001")

    def test_sq10_vertex_refuted(self, sq10):
        assert vertex_transitivity_certificate(sq10).refuted

    def test_sq6_edge_refuted(self, sq6):
        cert = edge_transitivity_certificate(sq6)
        assert cert.refuted
        (e1, e2) = cert.witness
        _, tri_e = triangle_counts(sq6)

        def count(edge):
            i, j = sorted(sq6.index_of(w) for w in edge)
            return tri_e[(i, j)]

        assert {count(e1), count(e2)} == {0, 2}

    def test_ssq6_bsq6_no_obstruction(self, ssq6, bsq6):
        for g in (ssq6, bsq6):
            cert = vertex_transitivity_certificate(g)
            assert cert.verdict == "no-invariant-obstruction"


class TestSameNeighborhoods:
    def test_bsq6_census_is_empty(self, bsq6):
        # independent oracle: exhaustive row comparison via the adjacency oracle
        rows = [
            frozenset(v for v in bsq6.words if adjacent(TopologyKind.BSQ, D6, u, v))
            for u in bsq6.words
        ]
        brute = [
            (bsq6.word_of(i), bsq6.word_of(j))
            for i in range(64)
            for j in range(i + 1, 64)
            if rows[i] == rows[j]
        ]
        assert brute == []
        assert same_neighborhood_pairs(bsq6) == []

    def test_bsq2_opposite_pairs(self):
        g = materialize(TopologyKind.BSQ, 2)
        assert same_neighborhood_pairs(g) == [(0, 2), (1, 3)]

    def test_pattern_pairs_share_changed_block_neighbors(self, bsq6):
        nsets = neighbor_sets(bsq6)
        pattern = bsq_pattern_pairs(6)
        assert len(pattern) == 32
        for u, v in pattern:
            nu = {w for w in nsets[bsq6.index_of(u)] if get_block(bsq6.word_of(w), 1, D6) != get_block(u, 1, D6)}
            nv = {w for w in nsets[bsq6.index_of(v)] if get_block(bsq6.word_of(w), 1, D6) != get_block(v, 1, D6)}
            assert nu == nv
            # but the tail neighbors always tell them apart
            assert nsets[bsq6.index_of(u)] != nsets[bsq6.index_of(v)]

    def test_bh2_census_matches_coordinate0_pattern(self):
        census = bh_same_neighborhood_pairs(2)
        assert len(census) == 8
        assert census == bh_pattern_pairs(2)
        assert ((0, 0), (2, 0)) in census
