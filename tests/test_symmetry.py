"""The phi and psi vertex-transitivity maps."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from shufflecube import (
    AutomorphismSpec,
    Dimension,
    InvalidVertexError,
    TopologyKind,
    adjacent,
    apply_map,
    build_phi,
    build_psi,
    is_valid_vertex,
    make_block,
    materialize,
    pair1,
    pair2,
    parse_vertex,
    product_factors,
    verify_automorphism,
    verify_factor_automorphism,
)
from shufflecube.claims import _map_sample

D6 = Dimension(6)
D10 = Dimension(10)


def ssq_words(n):
    return materialize(TopologyKind.SSQ, n).words


def xor_spec(dim, offsets):
    """The blockwise map that XORs block j by offsets[j]."""
    return AutomorphismSpec(dim, tuple(tuple(b ^ x for b in range(4 if j == 0 else 16)) for j, x in enumerate(offsets)))


def offsets(spec):
    """The per-block XOR offsets of a phi spec: the image of block value 0."""
    return tuple(t[0] for t in spec.images)


class TestPhi:
    def test_identity(self):
        spec = build_phi(0b110100, 0b110100, D6)
        assert spec.images == (tuple(range(4)), tuple(range(16)))
        assert all(apply_map(spec, w) == w for w in ssq_words(6))

    def test_offsets_example(self):
        u, v = parse_vertex("000000", D6), parse_vertex("110101", D6)
        spec = build_phi(u, v, D6)
        assert offsets(spec) == (0b01, 0b1101)
        assert spec.images == xor_spec(D6, (0b01, 0b1101)).images
        assert apply_map(spec, v) == u
        assert apply_map(spec, parse_vertex("000100", D6)) == parse_vertex("110001", D6)

    def test_involution(self):
        spec = build_phi(0b000000, 0b110101, D6)
        for w in ssq_words(6):
            assert apply_map(spec, apply_map(spec, w)) == w

    def test_sends_v_to_u_all_pairs_n6(self):
        words = ssq_words(6)
        for u in words:
            for v in words:
                assert apply_map(build_phi(u, v, D6), v) == u

    def test_block_images_are_factor_automorphisms_n6(self):
        words = ssq_words(6)
        for u in words:
            for v in words:
                assert verify_factor_automorphism(TopologyKind.SSQ, build_phi(u, v, D6)).ok

    def test_rejects_invalid_vertices(self):
        with pytest.raises(InvalidVertexError):
            build_phi(0b010000, 0, D6)

    def test_preserves_validity(self):
        rng = random.Random(3)
        words = ssq_words(10)
        for _ in range(200):
            spec = build_phi(rng.choice(words), rng.choice(words), D10)
            w = rng.choice(words)
            assert is_valid_vertex(TopologyKind.SSQ, D10, apply_map(spec, w))

    def test_composition_is_offset_xor(self):
        rng = random.Random(4)
        words = ssq_words(6)
        for _ in range(50):
            s1 = build_phi(rng.choice(words), rng.choice(words), D6)
            s2 = build_phi(rng.choice(words), rng.choice(words), D6)
            composed = xor_spec(D6, tuple(a ^ b for a, b in zip(offsets(s1), offsets(s2))))
            w = rng.choice(words)
            assert apply_map(s1, apply_map(s2, w)) == apply_map(composed, w)

    def test_every_spec_is_an_automorphism_n6(self):
        words = ssq_words(6)
        for u in words[::4]:
            for v in words[::4]:
                check = verify_automorphism(TopologyKind.SSQ, D6, build_phi(u, v, D6))
                assert check.ok, check


class TestPsi:
    def test_identity(self):
        spec = build_psi(0b101101, 0b101101, D6)
        assert spec.images == (tuple(range(4)), tuple(range(16)))

    def test_reflect_example(self):
        u, v = parse_vertex("000000", D6), parse_vertex("010000", D6)
        spec = build_psi(u, v, D6)
        # block 1 reflects: pair1 -> 1 - pair1, pair2 -> -pair2; the tail is fixed
        assert spec.images == (tuple(range(4)), tuple(make_block(1 - pair1(b), -pair2(b)) for b in range(16)))
        assert apply_map(spec, v) == u
        assert apply_map(spec, parse_vertex("100000", D6)) == parse_vertex("110000", D6)
        # the H2 edge (010000, 100000) maps onto the edge (000000, 110000)
        assert adjacent(TopologyKind.BSQ, D6, 0b010000, 0b100000)
        assert adjacent(TopologyKind.BSQ, D6, 0b000000, 0b110000)

    def test_mode_parity_invariants(self):
        # translate on an even pair1 offset, reflect on an odd one: every block
        # table is then an automorphism of its factor (C4 or D), for all pairs
        for u in range(64):
            for v in range(64):
                assert verify_factor_automorphism(TopologyKind.BSQ, build_psi(u, v, D6)).ok

    def test_sends_v_to_u_all_pairs_n6(self):
        for u in range(64):
            for v in range(64):
                assert apply_map(build_psi(u, v, D6), v) == u

    def test_translate_inverse_composition(self):
        spec = build_psi(0b000000, 0b001100, D6)
        # block 1 translates by pair2 -3: no reflection involved
        assert spec.images[1] == tuple(make_block(pair1(b), pair2(b) - 3) for b in range(16))
        inverse = build_psi(0b001100, 0b000000, D6)
        for w in range(64):
            assert apply_map(inverse, apply_map(spec, w)) == w

    def test_every_spec_is_an_automorphism_n6(self):
        for u in range(0, 64, 8):
            for v in range(64):
                check = verify_automorphism(TopologyKind.BSQ, D6, build_psi(u, v, D6))
                assert check.ok, check


class TestVerification:
    def test_corrupted_translate_with_odd_alpha_fails(self):
        # block 1 translated by pair1 + 1, an odd offset
        bad = AutomorphismSpec(D6, (tuple(range(4)), tuple(make_block(pair1(b) + 1, pair2(b)) for b in range(16))))
        check = verify_automorphism(TopologyKind.BSQ, D6, bad)
        assert not check.ok
        assert check.witness is not None
        u, v = check.witness
        # the witness is a real edge whose image is not an edge
        assert adjacent(TopologyKind.BSQ, D6, u, v)
        assert not adjacent(TopologyKind.BSQ, D6, apply_map(bad, u), apply_map(bad, v))

    def test_non_bijective_phi_fails(self):
        bad = xor_spec(D6, (0, 0b0100))
        check = verify_automorphism(TopologyKind.SSQ, D6, bad)
        assert not check.ok
        # the witness is a vertex whose image leaves SSQ_6
        w, img = check.witness
        assert is_valid_vertex(TopologyKind.SSQ, D6, w)
        assert img == apply_map(bad, w)
        assert not is_valid_vertex(TopologyKind.SSQ, D6, img)

    @pytest.mark.parametrize("kind", [TopologyKind.SSQ, TopologyKind.BSQ])
    def test_sampled_pairs_n10(self, kind):
        rng = random.Random(6)
        words = materialize(kind, 10).words
        build = build_phi if kind is TopologyKind.SSQ else build_psi
        for _ in range(25):
            u, v = rng.choice(words), rng.choice(words)
            spec = build(u, v, D10)
            assert apply_map(spec, v) == u
            assert verify_automorphism(kind, D10, spec).ok


BUILD = {TopologyKind.SSQ: build_phi, TopologyKind.BSQ: build_psi}


def identity_tables(dim):
    return tuple(tuple(range(4 if j == 0 else 16)) for j in range(dim.k + 1))


def with_table(dim, j, table):
    """The identity spec with block j's table replaced."""
    images = list(identity_tables(dim))
    images[j] = tuple(table)
    return AutomorphismSpec(dim, tuple(images))


def translate(alpha, beta):
    return tuple(make_block(pair1(b) + alpha, pair2(b) + beta) for b in range(16))


def reflect(alpha, beta):
    return tuple(make_block(alpha - pair1(b), beta - pair2(b)) for b in range(16))


def corrupted_specs(dim):
    """(name, kind, spec) for specs that are not automorphisms, each wrong in one block."""
    # psi reflects block 1 for 0000 <- 0100 (odd pair1 offset) and translates it for 0000 <- 1000
    return [
        ("odd-alpha-translate", TopologyKind.BSQ, with_table(dim, 1, translate(1, 0))),
        ("translate-where-psi-reflects", TopologyKind.BSQ, with_table(dim, 1, translate(-1, 0))),
        ("reflect-where-psi-translates", TopologyKind.BSQ, with_table(dim, 1, reflect(-2, 0))),
        ("non-bijective-xor", TopologyKind.SSQ, xor_spec(dim, (0, 0b0100) + (0,) * (dim.k - 1))),
        ("c4-swap-01-ssq", TopologyKind.SSQ, with_table(dim, 0, (1, 0, 2, 3))),
        ("c4-swap-01-bsq", TopologyKind.BSQ, with_table(dim, 0, (1, 0, 2, 3))),
    ]


class TestFactorCheck:
    """verify_factor_automorphism against the whole-graph oracle verify_automorphism."""

    @pytest.mark.parametrize("kind", list(BUILD))
    def test_agrees_with_whole_graph_all_pairs_n6(self, kind):
        words = materialize(kind, 6).words
        for u in words:
            for v in words:
                spec = BUILD[kind](u, v, D6)
                assert verify_factor_automorphism(kind, spec).ok == verify_automorphism(kind, D6, spec).ok

    @pytest.mark.parametrize("kind", list(BUILD))
    def test_agrees_with_whole_graph_on_claims_sample_n10(self, kind):
        pairs = _map_sample(materialize(kind, 10))
        assert len(pairs) == 200
        for u, v in pairs:
            spec = BUILD[kind](u, v, D10)
            assert verify_factor_automorphism(kind, spec).ok == verify_automorphism(kind, D10, spec).ok

    def test_psi_modes_of_the_corrupted_cases(self):
        assert build_psi(0, 0b010000, D6).images[1] == reflect(1, 0)
        assert build_psi(0, 0b100000, D6).images[1] == translate(-2, 0)

    @pytest.mark.parametrize("dim", [D6, D10], ids=["n6", "n10"])
    @pytest.mark.parametrize("case", range(6), ids=[name for name, _, _ in corrupted_specs(D6)])
    def test_corrupted_specs_fail_both_checks(self, dim, case):
        _, kind, spec = corrupted_specs(dim)[case]
        assert not verify_factor_automorphism(kind, spec).ok
        assert not verify_automorphism(kind, dim, spec).ok

    def test_edge_witness_is_a_factor_edge_sent_to_a_non_edge(self):
        spec = with_table(D10, 1, translate(1, 0))
        check = verify_factor_automorphism(TopologyKind.BSQ, spec)
        j, a, b = check.witness
        image, factor = spec.images[j], product_factors(TopologyKind.BSQ, D10)[j]
        assert j == 1 and b in factor.adj[a]
        assert image[b] not in factor.adj[image[a]]

    def test_non_bijection_has_a_reason(self):
        check = verify_factor_automorphism(TopologyKind.SSQ, xor_spec(D6, (0, 0b0100)))
        assert "block 1" in check.reason and check.witness is None


class TestSpecValidation:
    def test_rejects_missing_table(self):
        with pytest.raises(ValueError, match="block tables"):
            AutomorphismSpec(D10, identity_tables(D10)[:-1])

    @pytest.mark.parametrize("j, size", [(0, 3), (0, 16), (1, 4), (2, 15)])
    def test_rejects_wrong_table_size(self, j, size):
        with pytest.raises(ValueError, match="entries"):
            with_table(D10, j, range(size))

    @pytest.mark.parametrize("j, entry", [(0, 4), (0, -1), (1, 16), (2, 31)])
    def test_rejects_entry_wider_than_its_block(self, j, entry):
        table = [entry] + list(range(1, 4 if j == 0 else 16))
        with pytest.raises(ValueError, match="fit in"):
            with_table(D10, j, table)


class TestApplyMapRange:
    @pytest.mark.parametrize("w, shown", [(64, "1000000"), (-1, "-00001"), (0b1011011, "1011011")])
    def test_out_of_range_word_is_named_in_bits(self, w, shown):
        with pytest.raises(InvalidVertexError, match=f"^word {shown} does not fit in 6 bits$"):
            apply_map(xor_spec(D6, (0, 0)), w)


@given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
@settings(max_examples=150)
def test_psi_maps_edges_to_edges(u, v, w):
    spec = build_psi(u, v, D6)
    for x in (w ^ 1, (w & ~3) | ((w + 1) % 4)):
        if adjacent(TopologyKind.BSQ, D6, w, x):
            assert adjacent(TopologyKind.BSQ, D6, apply_map(spec, w), apply_map(spec, x))
