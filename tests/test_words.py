"""Word codec: parsing, block accessors, Hamming and block metrics."""
import random

import pytest
from hypothesis import given, strategies as st

from shufflecube import (
    Dimension,
    InvalidVertexError,
    TopologyKind,
    blocks,
    format_vertex,
    get_block,
    hamming,
    is_valid_vertex,
    parse_vertex,
    set_block,
)
from shufflecube.words import differing_blocks

D6 = Dimension(6)
D10 = Dimension(10)


class TestDimension:
    def test_valid_sizes(self):
        assert Dimension(2).k == 0
        assert Dimension(6).k == 1
        assert Dimension(14).k == 3

    @pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 7, 8, 12])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            Dimension(n)


class TestParseFormat:
    def test_examples(self):
        assert parse_vertex("000000", D6) == 0
        assert parse_vertex("000001", D6) == 1
        assert parse_vertex("110111", D6) == 55

    def test_wrong_length_names_sizes(self):
        with pytest.raises(InvalidVertexError, match="6"):
            parse_vertex("0000", D6)

    def test_alien_character_names_position(self):
        with pytest.raises(InvalidVertexError, match="position 3"):
            parse_vertex("001x01", D6)

    @pytest.mark.parametrize("u, shown", [(64, "1000000"), (-3, "-00011")])
    def test_format_names_out_of_range_word_in_bits(self, u, shown):
        with pytest.raises(InvalidVertexError, match=f"^word {shown} does not fit in 6 bits$"):
            format_vertex(u, D6)

    def test_roundtrip_exhaustive_n6(self):
        for u in range(64):
            assert parse_vertex(format_vertex(u, D6), D6) == u

    @pytest.mark.parametrize("n", [10, 14])
    def test_roundtrip_sampled(self, n):
        dim = Dimension(n)
        rng = random.Random(n)
        for _ in range(10_000):
            u = rng.randrange(1 << n)
            assert parse_vertex(format_vertex(u, dim), dim) == u

    @given(st.integers(0, (1 << 10) - 1))
    def test_roundtrip_property(self, u):
        assert parse_vertex(format_vertex(u, D10), D10) == u


class TestBlocks:
    def test_get_examples(self):
        u = parse_vertex("110100", D6)
        assert get_block(u, 1, D6) == 0b1101
        assert get_block(u, 0, D6) == 0b00

    def test_set_example(self):
        assert format_vertex(set_block(0, 1, 0b1111, D6), D6) == "111100"

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            get_block(0, 2, D6)
        with pytest.raises(IndexError):
            set_block(0, -1, 0, D6)

    @given(st.integers(0, (1 << 10) - 1), st.integers(0, 2), st.integers(0, 15))
    def test_get_set_identity(self, u, j, value):
        if j == 0:
            value &= 3
        v = set_block(u, j, value, D10)
        assert get_block(v, j, D10) == value
        # untouched elsewhere
        for other in range(3):
            if other != j:
                assert get_block(v, other, D10) == get_block(u, other, D10)

    @given(st.integers(0, (1 << 14) - 1))
    def test_reassembly(self, u):
        dim = Dimension(14)
        parts = blocks(u, dim)
        assert len(parts) == dim.k + 1
        rebuilt = 0
        for j, value in enumerate(parts):
            rebuilt = set_block(rebuilt, j, value, dim)
        assert rebuilt == u


class TestHammingMetrics:
    def test_hamming_example(self):
        assert hamming(parse_vertex("000000", D6), parse_vertex("001111", D6)) == 4

    # h4 counts the blocks where two words differ, h4* those among blocks 1..k
    def test_h4_examples(self):
        assert differing_blocks(0b000000, 0b000001, D6) == [0]
        assert differing_blocks(parse_vertex("110101", D6), 0, D6) == [0, 1]

    @given(st.integers(0, 1023), st.integers(0, 1023))
    def test_hamming_matches_string_compare(self, u, v):
        su, sv = format_vertex(u, D10), format_vertex(v, D10)
        assert hamming(u, v) == sum(a != b for a, b in zip(su, sv))

    @given(st.integers(0, 1023), st.integers(0, 1023))
    def test_h4_star_le_h4(self, u, v):
        diff = differing_blocks(u, v, D10)
        assert diff == sorted(set(diff))
        h4_star = sum(1 for j in diff if j)
        assert h4_star <= len(diff) <= h4_star + 1


class TestValidity:
    def test_ssq_examples(self):
        assert not is_valid_vertex(TopologyKind.SSQ, D6, parse_vertex("010000", D6))
        assert is_valid_vertex(TopologyKind.SSQ, D6, parse_vertex("110100", D6))

    def test_full_vertex_set_kinds(self):
        for kind in (TopologyKind.Q, TopologyKind.SQ, TopologyKind.BSQ):
            assert all(is_valid_vertex(kind, D6, u) for u in range(64))

    @pytest.mark.parametrize("n,expected", [(6, 32), (10, 256)])
    def test_ssq_vertex_count(self, n, expected):
        dim = Dimension(n)
        count = sum(is_valid_vertex(TopologyKind.SSQ, dim, u) for u in range(1 << n))
        assert count == expected == 1 << (3 * n + 2) // 4
