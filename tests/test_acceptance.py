"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All checks are exact (combinatorial, zero tolerance).

Criterion 8's BSQ half pins a measured discrepancy.  Read literally, it asks
that the same-neighborhood pairs of BSQ_n be exactly the bit-(4j+1) pairs, with
(n-2)/4 partners per vertex.  No graph can do that at n >= 10: equal
neighborhoods are an equivalence relation, so u ~ u xor 2^5 and u ~ u xor 2^9
would force u ~ u xor 2^5 xor 2^9, a pair outside the pattern.  At every n > 2 the product
D^k x C4 also gives each vertex two tail neighbors that its pattern partner
lacks.  The test therefore asserts what holds: the census is empty, the
pattern pairs share their changed-block neighbors and differ in their tail
neighbors, and the nominal statement holds in the 16-node block graph D.
"""
import json
import pathlib
import random
from collections import Counter
from itertools import combinations

import pytest

from shufflecube import (
    D_BSQ_LABEL,
    Dimension,
    TopologyKind,
    adjacent,
    apply_map,
    bfs_distances,
    bh_pattern_pairs,
    bh_same_neighborhood_pairs,
    bipartition,
    block_graph,
    bsq_pattern_pairs,
    build_phi,
    build_psi,
    clique_number,
    diameter,
    diameter_formula,
    distance_of,
    edge_transitivity_certificate,
    fixture_h1,
    fixture_h2,
    get_block,
    girth,
    hamiltonian_cycle,
    is_connected,
    k4_census,
    materialize,
    neighbor_sets,
    pair1,
    parse_vertex,
    route_bsq,
    route_ssq,
    same_neighborhood_pairs,
    validate_cycle,
    verify_automorphism,
    vertex_transitivity_certificate,
)
from shufflecube.cli import main as cli_main

D6 = Dimension(6)
D10 = Dimension(10)


def report(number: int, label: str, checks: dict, explanation: str = ""):
    failed = [name for name, ok in checks.items() if not ok]
    status = "PASS" if not failed else f"FAIL ({', '.join(failed)})"
    print(f"criterion {number}: {status} - {label}")
    assert not failed, f"criterion {number} failed: {failed}. {explanation}"


def test_criterion_1_sq6_structure(sq6):
    census = k4_census(sq6)
    covered = sorted(sq6.word_of(x) for quad in census.quads for x in quad)
    vc = vertex_transitivity_certificate(sq6)
    ec = edge_transitivity_certificate(sq6)
    checks = {
        "64 vertices": sq6.num_vertices == 64,
        "6-regular": all(sq6.degree(i) == 6 for i in range(64)),
        "connected": is_connected(sq6),
        "girth 3": girth(sq6) == 3,
        "non-bipartite": not bipartition(sq6).bipartite,
        "clique number 4": clique_number(sq6) == 4,
        "exactly 4 K4s": len(census.quads) == 4,
        "pairwise disjoint": census.pairwise_disjoint,
        "cover tail-00 vertices": covered == [w for w in sq6.words if w & 3 == 0],
        "vertex-transitivity refuted": vc.refuted and vc.witness is not None,
        "edge-transitivity refuted": ec.refuted and ec.witness is not None,
    }
    report(1, "SQ_6 structure and non-transitivity", checks)


def test_criterion_2_sq10_cliques(sq10):
    census = k4_census(sq10)
    membership_ok = all(
        census.membership[i] == (2 if sq10.word_of(i) & 3 == 0 else 0)
        for i in range(sq10.num_vertices)
    )
    checks = {
        "tail-00 vertices in exactly 2 K4s": membership_ok,
        "clique number still 4": clique_number(sq10) == 4,
    }
    report(2, "SQ_10 clique census", checks)


def test_criterion_3_ssq_structure(ssq6, ssq10):
    checks = {}
    for g, count, diam in ((ssq6, 32, 4), (ssq10, 256, 6)):
        n = g.n
        checks[f"SSQ_{n} {count} vertices"] = g.num_vertices == count
        checks[f"SSQ_{n} {n}-regular"] = all(g.degree(i) == n for i in range(count))
        checks[f"SSQ_{n} connected"] = is_connected(g)
        checks[f"SSQ_{n} non-bipartite"] = not bipartition(g).bipartite
        checks[f"SSQ_{n} diameter {diam}"] = (
            diameter(g).value == diam == diameter_formula(TopologyKind.SSQ, n)
        )
    report(3, "SSQ_6 and SSQ_10 structure and diameter", checks)


def _bsq_class(dim, u):
    return (sum(pair1(get_block(u, j, dim)) for j in range(1, dim.k + 1)) + (u & 3)) % 2


def test_criterion_4_bsq_structure(bsq6, bsq10):
    checks = {}
    for g, count in ((bsq6, 64), (bsq10, 1024)):
        n = g.n
        dim = Dimension(n)
        checks[f"BSQ_{n} {count} vertices"] = g.num_vertices == count
        checks[f"BSQ_{n} {n}-regular"] = all(g.degree(i) == n for i in range(count))
        checks[f"BSQ_{n} connected"] = is_connected(g)
        checks[f"BSQ_{n} class function 2-colors"] = all(
            _bsq_class(dim, g.word_of(i)) != _bsq_class(dim, g.word_of(j)) for i, j in g.edges()
        )
        checks[f"BSQ_{n} bipartite"] = bipartition(g).bipartite
        checks[f"BSQ_{n} diameter {n}"] = (
            diameter(g).value == n == diameter_formula(TopologyKind.BSQ, n)
        )
    report(4, "BSQ_6 and BSQ_10 structure and diameter", checks)


def test_criterion_5_vertex_transitivity_maps(ssq6, bsq6):
    failures = []
    for g, dim, build, kind in (
        (ssq6, D6, build_phi, TopologyKind.SSQ),
        (bsq6, D6, build_psi, TopologyKind.BSQ),
    ):
        for u in g.words:
            for v in g.words:
                spec = build(u, v, dim)
                if apply_map(spec, v) != u or not verify_automorphism(kind, dim, spec).ok:
                    failures.append((kind.value, u, v))
    sampled_failures = []
    rng = random.Random(55)
    for kind, build in ((TopologyKind.SSQ, build_phi), (TopologyKind.BSQ, build_psi)):
        words = materialize(kind, 10).words
        for _ in range(200):
            u, v = rng.choice(words), rng.choice(words)
            spec = build(u, v, D10)
            if apply_map(spec, v) != u or not verify_automorphism(kind, D10, spec).ok:
                sampled_failures.append((kind.value, u, v))
    checks = {
        "all 1024 + 4096 ordered pairs at n=6": not failures,
        "200 sampled pairs per kind at n=10": not sampled_failures,
    }
    report(5, "phi/psi map v to u bijectively and preserve all edges", checks)


def _routing_check(kind, n, pairs):
    g = materialize(kind, n)
    dim = Dimension(n)
    nsets = neighbor_sets(g)
    route = route_ssq if kind is TopologyKind.SSQ else route_bsq
    dist_cache = {}
    bad = 0
    for src, dst in pairs:
        if src not in dist_cache:
            dist_cache[src] = bfs_distances(g, g.index_of(src))
        oracle = dist_cache[src][g.index_of(dst)]
        path = route(dim, src, dst)
        ok = (
            len(path) - 1 == oracle
            and len(set(path)) == len(path)
            and all(g.index_of(b) in nsets[g.index_of(a)] for a, b in zip(path, path[1:]))
        )
        bad += not ok
    return bad


def test_criterion_6_routing_optimality(ssq6, bsq6):
    checks = {}
    for kind, g6 in ((TopologyKind.SSQ, ssq6), (TopologyKind.BSQ, bsq6)):
        exhaustive = [(u, v) for u in g6.words for v in g6.words]
        checks[f"{kind.value} exhaustive n=6"] = _routing_check(kind, 6, exhaustive) == 0
        rng = random.Random(66)
        words10 = materialize(kind, 10).words
        pairs10 = [(s, d) for s in rng.sample(words10, 100) for d in rng.sample(words10, 100)]
        checks[f"{kind.value} 10^4 pairs n=10"] = _routing_check(kind, 10, pairs10) == 0
        words14 = materialize(kind, 14).words
        pairs14 = [(s, d) for s in rng.sample(words14, 32) for d in rng.sample(words14, 32)]
        checks[f"{kind.value} 10^3 pairs n=14"] = _routing_check(kind, 14, pairs14) == 0
        decomposition_ok = all(
            distance_of(kind, D6, u, v)
            == bfs_distances(g6, g6.index_of(u))[g6.index_of(v)]
            for u in g6.words
            for v in g6.words
        )
        checks[f"{kind.value} distance decomposition exhaustive n=6"] = decomposition_ok
    report(6, "routing is shortest-path with oracle-edge hops", checks)


def test_criterion_7_hamiltonian_cycles():
    h1, h2 = fixture_h1(), fixture_h2()
    checks = {
        "H1 has 32 vertices": len(h1) == 32,
        "H2 has 64 vertices": len(h2) == 64,
        "H1 valid in SSQ_6": validate_cycle(TopologyKind.SSQ, D6, h1.vertices).ok,
        "H2 valid in BSQ_6": validate_cycle(TopologyKind.BSQ, D6, h2.vertices).ok,
    }
    for kind, sizes in ((TopologyKind.SSQ, (6, 10, 14)), (TopologyKind.BSQ, (6, 10))):
        for n in sizes:
            dim = Dimension(n)
            cycle = hamiltonian_cycle(kind, dim)
            checks[f"generated {kind.value}_{n}"] = (
                len(cycle) == materialize(kind, n).num_vertices
                and validate_cycle(kind, dim, cycle.vertices).ok
            )
    report(7, "fixtures and generated cycles are Hamiltonian", checks)


def test_criterion_8_bh2_equivalence():
    census = bh_same_neighborhood_pairs(2)
    pattern = bh_pattern_pairs(2)
    checks = {
        "census equals coordinate-0 pattern": census == pattern,
        "all 16 vertices covered": len(census) == 8,
    }
    report(8, "BH_2 same-neighborhood pairs are the (a0+2, a1) pairs", checks)


def test_criterion_8_bsq_equivalence():
    """The nominal statement, that the same-neighborhood pairs of BSQ_n are the
    bit-(4j+1) pairs with (n-2)/4 partners per vertex, holds in the block graph
    D but not in BSQ_n = D^k x C4.  In the product each vertex keeps two tail
    neighbors that its pattern partner lacks, so the census is empty; and at
    n >= 10 no graph could match the pattern, since equal neighborhoods are
    transitive and two pattern moves compose to a pair outside it.  Pinned
    here: the empty census, the pattern's size, the shared changed-block
    neighbors, and the tail neighbors that tell each pattern pair apart."""
    d = block_graph(D_BSQ_LABEL)
    d_twins = [(a, b) for a, b in combinations(d.nodes, 2) if d.adj[a] == d.adj[b]]
    checks = {
        "D twins are exactly b <-> b^1000": d_twins == [(b, b ^ 0b1000) for b in range(8)],
    }
    for n in (6, 10):
        dim = Dimension(n)
        g = materialize(TopologyKind.BSQ, n)
        nsets = neighbor_sets(g)
        pattern = bsq_pattern_pairs(n)
        counts = Counter()
        for a, b in pattern:
            counts[a] += 1
            counts[b] += 1

        def moved(i, j):
            """Neighbors of vertex index i that differ from it in block j."""
            bj = get_block(g.word_of(i), j, dim)
            return {w for w in nsets[i] if get_block(g.word_of(w), j, dim) != bj}

        blockwise_ok = tails_private = True
        for u, v in pattern:
            iu, iv = g.index_of(u), g.index_of(v)
            j = next(j for j in range(1, dim.k + 1) if get_block(u, j, dim) != get_block(v, j, dim))
            blockwise_ok &= moved(iu, j) == moved(iv, j)
            tail_u = moved(iu, 0)
            tails_private &= len(tail_u) == 2 and not any(iv in nsets[w] for w in tail_u)
        checks[f"BSQ_{n} census is empty"] = same_neighborhood_pairs(g) == []
        checks[f"BSQ_{n} pattern has {dim.k << (n - 1)} pairs"] = len(pattern) == dim.k << (n - 1)
        checks[f"BSQ_{n} each vertex has {dim.k} pattern partners"] = all(
            counts[w] == dim.k for w in g.words
        )
        checks[f"BSQ_{n} pattern pairs share changed-block neighbors"] = blockwise_ok
        checks[f"BSQ_{n} tail neighbors of u are not adjacent to v"] = tails_private
    report(
        8,
        "BSQ same-neighborhood census is empty; bit-(4j+1) twins hold only blockwise and in D",
        checks,
        "BSQ_n = D^k x C4 should have no same-neighborhood pairs: a bit-(4j+1) pair shares "
        "its changed-block neighbors, while each tail neighbor of one is not adjacent to the "
        "other (000001 is adjacent to 000000 and not to 100000).  The nominal census "
        "(pattern pairs, (n-2)/4 partners) cannot hold for any graph at n >= 10.",
    )


def test_criterion_9_discrepancies_reproduced(ssq6, bsq6, claims6_run):
    dist_bsq = bfs_distances(bsq6, bsq6.index_of(0))
    dist_ssq = bfs_distances(ssq6, ssq6.index_of(0))
    code, out = claims6_run
    by_id = {rec["id"]: rec for rec in json.loads(out)["claims"]}
    checks = {
        "d(BSQ_6)(000000,111111) = 4": dist_bsq[bsq6.index_of(parse_vertex("111111", D6))] == 4,
        "d(SSQ_6)(000000,110111) = 3": dist_ssq[ssq6.index_of(parse_vertex("110111", D6))] == 3,
        "BSQ_6 diameter still 6": max(dist_bsq) == 6,
        "SSQ_6 diameter still 4": diameter(ssq6).value == 4,
        "antipode record informational": by_id["bsq6-antipode-distance"].get("informational") is True,
        "witness record informational": by_id["ssq6-eccentric-witness-distance"].get("informational") is True,
        "claims still pass": code == 0,
    }
    report(9, "nominal-witness discrepancies are reproduced, not hidden", checks)


def test_criterion_10_verify_claims_deterministic(capsys):
    code_a = cli_main(["verify-claims", "6", "10", "--no-timing"])
    out_a = capsys.readouterr().out
    code_b = cli_main(["verify-claims", "6", "10", "--no-timing"])
    out_b = capsys.readouterr().out
    golden = pathlib.Path(__file__).parent / "data" / "claims_n6_10.json"
    checks = {
        "exit 0": code_a == 0 and code_b == 0,
        "byte-identical reports": out_a == out_b,
        "overall_pass true": json.loads(out_a)["overall_pass"] is True,
        "matches tests/data/claims_n6_10.json": out_a == golden.read_text(),
    }
    report(10, "verify-claims over n in {6,10} exits 0 deterministically", checks)
