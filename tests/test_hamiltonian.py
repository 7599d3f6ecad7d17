"""Factor cycles (BlockGraph.cycle), snake products, generated cycles and the two fixtures."""
from itertools import count

import pytest

from shufflecube import (
    B_SSQ_LABEL,
    C4_LABEL,
    ConstructionError,
    D_BSQ_LABEL,
    Dimension,
    ResourceLimitError,
    TopologyKind,
    adjacent,
    block_graph,
    fixture_h1,
    fixture_h2,
    hamiltonian_cycle,
    materialize,
    snake_product,
    validate_cycle,
)
from shufflecube.words import differing_blocks

D6 = Dimension(6)


def assert_factor_cycle_valid(label):
    bg = block_graph(label)
    assert sorted(bg.cycle) == list(bg.nodes)
    for i, a in enumerate(bg.cycle):
        assert bg.cycle[(i + 1) % len(bg.cycle)] in bg.adj[a]


class TestFactorCycles:
    def test_c4_is_the_cycle_itself(self):
        assert block_graph(C4_LABEL).cycle == (0, 1, 2, 3)

    def test_b_ssq_deterministic_cycle(self):
        assert block_graph(B_SSQ_LABEL).cycle == (
            0b0000, 0b0001, 0b0010, 0b0011, 0b1100, 0b1101, 0b1110, 0b1111,
        )
        assert_factor_cycle_valid(B_SSQ_LABEL)

    def test_d_bsq_cycle_valid_and_deterministic(self):
        assert block_graph(D_BSQ_LABEL).cycle == (0, 4, 3, 7, 2, 6, 1, 5, 8, 12, 11, 15, 10, 14, 9, 13)
        assert_factor_cycle_valid(D_BSQ_LABEL)


class TestSnakeProduct:
    def test_c4_times_c4_torus(self):
        cyc = snake_product((0, 4, 8, 12), (0, 1, 2, 3))
        assert len(cyc) == 16 and len(set(cyc)) == 16
        for i, w in enumerate(cyc):
            nxt = cyc[(i + 1) % 16]
            da, db = ((nxt >> 2) - (w >> 2)) % 4, ((nxt & 3) - (w & 3)) % 4
            assert (da in (1, 3) and db == 0) or (da == 0 and db in (1, 3))

    def test_b_times_c4_is_ssq6(self):
        cyc = snake_product([b << 2 for b in block_graph(B_SSQ_LABEL).cycle], (0, 1, 2, 3))
        assert validate_cycle(TopologyKind.SSQ, D6, cyc).ok

    def test_odd_inner_length_cannot_close(self):
        with pytest.raises(ConstructionError, match="odd"):
            snake_product((0, 4, 8, 12), (0, 1, 2))

    def test_odd_outer_length_cannot_close(self):
        with pytest.raises(ConstructionError, match="outer"):
            snake_product((0, 4, 8), (0, 1, 2, 3))


class TestGeneratedCycles:
    @pytest.mark.parametrize(
        "kind,n",
        [
            (TopologyKind.SSQ, 6),
            (TopologyKind.SSQ, 10),
            (TopologyKind.SSQ, 14),
            (TopologyKind.BSQ, 6),
            (TopologyKind.BSQ, 10),
        ],
    )
    def test_valid_and_full_length(self, kind, n):
        dim = Dimension(n)
        cycle = hamiltonian_cycle(kind, dim)
        assert len(cycle) == materialize(kind, n).num_vertices
        assert validate_cycle(kind, dim, cycle.vertices).ok
        vs = cycle.vertices
        assert all(len(differing_blocks(a, b, dim)) == 1 for a, b in zip(vs, vs[1:] + vs[:1]))

    def test_deterministic(self):
        a = hamiltonian_cycle(TopologyKind.BSQ, D6)
        b = hamiltonian_cycle(TopologyKind.BSQ, D6)
        assert a.vertices == b.vertices

    def test_n2_base_case(self):
        cycle = hamiltonian_cycle(TopologyKind.SSQ, Dimension(2))
        assert cycle.vertices == (0, 1, 2, 3)

    def test_size_cap(self):
        with pytest.raises(ResourceLimitError):
            hamiltonian_cycle(TopologyKind.BSQ, Dimension(22))

    def test_unsupported_kind(self):
        with pytest.raises(ValueError):
            hamiltonian_cycle(TopologyKind.SQ, D6)


class TestFixtures:
    def test_h1_shape(self):
        h1 = fixture_h1()
        assert len(h1) == 32
        assert [format(w, "06b") for w in h1.vertices[:5]] == [
            "000000", "000100", "001000", "001100", "110000",
        ]

    def test_h2_shape(self):
        h2 = fixture_h2()
        assert len(h2) == 64
        assert [format(w, "06b") for w in h2.vertices[:5]] == [
            "000000", "010000", "100000", "110000", "001100",
        ]

    def test_fixtures_validate_under_the_oracles(self):
        assert validate_cycle(TopologyKind.SSQ, D6, fixture_h1().vertices).ok
        assert validate_cycle(TopologyKind.BSQ, D6, fixture_h2().vertices).ok


class TestValidator:
    def test_swapped_entries_reported(self):
        vs = list(fixture_h1().vertices)
        vs[0], vs[16] = vs[16], vs[0]
        check = validate_cycle(TopologyKind.SSQ, D6, vs)
        assert not check.ok
        assert check.reason == "consecutive vertices not adjacent"
        assert check.witness is not None

    def test_truncated_cycle_reports_missing(self):
        vs = fixture_h2().vertices[:63]
        check = validate_cycle(TopologyKind.BSQ, D6, vs)
        assert not check.ok
        assert "63 of 64" in check.reason
        assert check.witness == (fixture_h2().vertices[63],)

    def test_duplicate_reported(self):
        vs = fixture_h1().vertices[:31] + (fixture_h1().vertices[0],)
        check = validate_cycle(TopologyKind.SSQ, D6, vs)
        assert not check.ok
        assert check.reason == "duplicate vertex"

    def test_alien_vertex_reported(self):
        check = validate_cycle(TopologyKind.SSQ, D6, (0b010000,))
        assert not check.ok
        assert check.reason == "not a vertex of the topology"


def adjacent_fold(kind, dim, vertices):
    """validate_cycle's verdict with every consecutive pair asked of the point oracle `adjacent`."""
    valid = set(materialize(kind, dim.n).words)
    seen = set()
    for w in vertices:
        if w not in valid:
            return (False, "not a vertex of the topology", (w,))
        if w in seen:
            return (False, "duplicate vertex", (w,))
        seen.add(w)
    if len(seen) != len(valid):
        return (False, f"covers {len(seen)} of {len(valid)} vertices", (min(valid - seen),))
    for i, w in enumerate(vertices):
        nxt = vertices[(i + 1) % len(vertices)]
        if not adjacent(kind, dim, w, nxt):
            return (False, "consecutive vertices not adjacent", (w, nxt))
    return (True, "", None)


class TestValidatorMatchesAdjacentFold:
    @staticmethod
    def inputs(kind, dim):
        """The built cycle (BSQ's for SQ, which has no constructor), its reversal and three corruptions."""
        cycle = list(hamiltonian_cycle(TopologyKind.BSQ if kind is TopologyKind.SQ else kind, dim).vertices)
        j = next(j for j in range(len(cycle) // 2, len(cycle)) if not adjacent(kind, dim, cycle[0], cycle[j]))
        swapped = list(cycle)
        swapped[0], swapped[j] = cycle[j], cycle[0]
        alien = next(w for w in count() if w not in materialize(kind, dim.n).index)
        return {
            "built": cycle,
            "reversed": cycle[::-1],
            "swapped": swapped,
            "alien": cycle[:5] + [alien] + cycle[5:],
            "duplicate": cycle[:5] + [cycle[2]] + cycle[5:],
        }

    @pytest.mark.parametrize("kind", [TopologyKind.SQ, TopologyKind.SSQ, TopologyKind.BSQ])
    @pytest.mark.parametrize("n", [6, 10])
    def test_same_verdict_reason_and_witness(self, kind, n):
        dim = Dimension(n)
        for name, vertices in self.inputs(kind, dim).items():
            check = validate_cycle(kind, dim, vertices)
            assert (check.ok, check.reason, check.witness) == adjacent_fold(kind, dim, vertices), name
