"""The claims suite: every desk-checkable structural property, one record each.

Each record compares an expected value against a brute-force computation.
Records marked informational document measured values that disagree with the
nominal ones usually quoted for these topologies (bad diameter witnesses, and
the fact that the bit-(4j+1) "equivalent" pairs share only their changed-block
neighbors, not their full neighborhoods).  The suite passes when every
record's computation matches its expectation; informational records expect
the measured value, so a passing run reproduces the discrepancies rather
than hiding them.
"""
from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from itertools import chain

from . import analysis, hamiltonian, routing, symmetry
from .topology import TopologyKind, bh_neighbors, block_graph, D_BSQ_LABEL, materialize, neighbor_sets
from .words import Dimension, differing_blocks, get_block, make_block, pair1, format_vertex

FULL_PAIR_SCAN_N = 6          # exhaustive ordered-pair checks at this size
SAMPLED_MAP_PAIRS = 200       # automorphism pairs sampled for n > 6
ROUTING_GRID = {10: 100, 14: 32}  # sources x destinations sampled per kind


@dataclass
class ClaimRecord:
    id: str
    description: str
    expected: object
    computed: object
    informational: bool = False
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.expected == self.computed

    def as_dict(self) -> dict:
        out = {
            "id": self.id,
            "description": self.description,
            "expected": self.expected,
            "computed": self.computed,
            "pass": self.passed,
        }
        if self.informational:
            out["informational"] = True
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class ClaimsReport:
    n_values: list[int]
    records: list[ClaimRecord] = field(default_factory=list)
    timing: dict[str, float] = field(default_factory=dict)

    @property
    def overall_pass(self) -> bool:
        return all(r.passed for r in self.records)

    def as_dict(self, include_timing: bool = True) -> dict:
        out = {
            "report": "shufflecube claims",
            "n_values": self.n_values,
            "claims": [r.as_dict() for r in self.records],
            "overall_pass": self.overall_pass,
        }
        if include_timing:
            out["timing"] = self.timing
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.as_dict(include_timing), indent=2) + "\n"


def run_claims(n_values: list[int]) -> ClaimsReport:
    """Run the full suite for each dimension (distinct n = 2 mod 4, 6 <= n <= 14).

    The only writer of `timing`: each record's seconds since the previous one.
    """
    for n in n_values:
        Dimension(n)
        if not 6 <= n <= 14:
            raise ValueError(f"claims suite supports 6 <= n <= 14, got {n}")
    if len(set(n_values)) != len(n_values):
        raise ValueError(f"claims suite takes each n once, got {' '.join(map(str, n_values))}")
    report = ClaimsReport(list(n_values))
    sections = (_sq_claims, _ssq_claims, _bsq_claims, _routing_claims,
                _hamiltonian_claims, _equivalence_claims, _discrepancy_claims)
    t0 = time.perf_counter()
    for record in chain(_global_claims(), *(section(n) for n in n_values for section in sections)):
        now = time.perf_counter()
        report.records.append(record)
        report.timing[record.id] = round(now - t0, 3)
        t0 = now
    return report


# ---------------------------------------------------------------------------

def _global_claims():
    d = block_graph(D_BSQ_LABEL)
    matches = all(
        set(d.adj[b]) == {make_block(*a) for a in bh_neighbors(2, (pair1(b), b & 3))}
        for b in d.nodes
    )
    yield ClaimRecord(
        "block-d-matches-bh2-rule",
        "the 16-node block graph equals the radix-4 balanced-hypercube rule on (pair1, pair2)",
        True,
        matches,
    )
    census = analysis.bh_same_neighborhood_pairs(2)
    pattern = analysis.bh_pattern_pairs(2)
    yield ClaimRecord(
        "bh2-equivalence-coordinate0",
        "BH_2 same-neighborhood pairs are exactly the coordinate-0 +2 pairs (8 of them)",
        {"pairs": 8, "matches_pattern": True},
        {"pairs": len(census), "matches_pattern": census == pattern},
    )
    for name, fixture in (("h1", hamiltonian.fixture_h1()), ("h2", hamiltonian.fixture_h2())):
        check = hamiltonian.validate_cycle(fixture.kind, Dimension(fixture.n), fixture.vertices)
        yield ClaimRecord(
            f"fixture-{name}-valid",
            f"embedded {len(fixture)}-vertex reference cycle is Hamiltonian in {fixture.kind.value}_6",
            True,
            check.ok,
        )


def _basic_graph_claims(kind: TopologyKind, n: int, expected_count: int):
    """Vertex count, regularity and connectivity; returns the materialized graph."""
    g = materialize(kind, n)
    tag = kind.value.lower()
    yield ClaimRecord(f"{tag}{n}-vertex-count", f"{kind.value}_{n} vertex count", expected_count, g.num_vertices)
    yield ClaimRecord(
        f"{tag}{n}-regular",
        f"{kind.value}_{n} is {n}-regular",
        [n],
        sorted({g.degree(i) for i in range(g.num_vertices)}),
    )
    yield ClaimRecord(f"{tag}{n}-connected", f"{kind.value}_{n} is connected", True, analysis.is_connected(g))
    return g


def _sq_claims(n: int):
    g = yield from _basic_graph_claims(TopologyKind.SQ, n, 1 << n)
    yield ClaimRecord(f"sq{n}-girth", f"girth of SQ_{n} is 3", 3, analysis.girth(g))
    yield ClaimRecord(f"sq{n}-non-bipartite", f"SQ_{n} is non-bipartite", False, analysis.bipartition(g).bipartite)
    yield ClaimRecord(f"sq{n}-clique-number", f"clique number of SQ_{n} is 4", 4, analysis.clique_number(g))
    census = analysis.k4_census(g)
    k = (n - 2) // 4
    pattern_ok = all(
        census.membership[i] == (k if g.word_of(i) & 3 == 0 else 0)
        for i in range(g.num_vertices)
    )
    yield ClaimRecord(
        f"sq{n}-k4-membership",
        f"every vertex of SQ_{n} lies in {k} four-cliques when its tail is 00, else none",
        True,
        pattern_ok,
    )
    if n == 6:
        covered = sorted({x for quad in census.quads for x in quad})
        tails00 = [i for i in range(g.num_vertices) if g.word_of(i) & 3 == 0]
        yield ClaimRecord(
            "sq6-k4-disjoint-cover",
            "SQ_6 has exactly 4 pairwise-disjoint four-cliques covering the 16 tail-00 vertices",
            {"count": 4, "disjoint": True, "cover": True},
            {"count": len(census.quads), "disjoint": census.pairwise_disjoint, "cover": covered == tails00},
        )
    vc = analysis.vertex_transitivity_certificate(g)
    ec = analysis.edge_transitivity_certificate(g)
    yield ClaimRecord(
        f"sq{n}-not-vertex-transitive",
        f"vertex profiles refute vertex-transitivity of SQ_{n}",
        "refuted",
        vc.verdict,
        note=_witness_note(vc, n),
    )
    yield ClaimRecord(
        f"sq{n}-not-edge-transitive",
        f"edge profiles refute edge-transitivity of SQ_{n}",
        "refuted",
        ec.verdict,
        note=_witness_note(ec, n),
    )


def _witness_note(cert: analysis.TransitivityCertificate, n: int) -> str:
    if not cert.refuted:
        return ""
    dim = Dimension(n)

    def fmt(obj):
        if isinstance(obj, tuple):
            return "(" + ", ".join(fmt(x) for x in obj) + ")"
        return format_vertex(obj, dim)

    return f"witness {fmt(cert.witness[0])} vs {fmt(cert.witness[1])}: {cert.detail}"


def _ssq_claims(n: int):
    g = yield from _basic_graph_claims(TopologyKind.SSQ, n, 1 << (3 * n + 2) // 4)
    yield ClaimRecord(f"ssq{n}-girth", f"girth of SSQ_{n} is 3", 3, analysis.girth(g))
    yield ClaimRecord(f"ssq{n}-non-bipartite", f"SSQ_{n} is non-bipartite", False, analysis.bipartition(g).bipartite)
    yield ClaimRecord(f"ssq{n}-diameter", f"BFS diameter of SSQ_{n} equals (n-2)/2 + 2",
                      (n - 2) // 2 + 2, analysis.diameter(g).value)
    yield from _transitivity_claims(TopologyKind.SSQ, n)


def _bsq_class(dim: Dimension, u: int) -> int:
    total = sum(pair1(get_block(u, j, dim)) for j in range(1, dim.k + 1))
    return (total + get_block(u, 0, dim)) % 2


def _bsq_claims(n: int):
    g = yield from _basic_graph_claims(TopologyKind.BSQ, n, 1 << n)
    dim = g.dim
    part = analysis.bipartition(g)
    classes = [_bsq_class(dim, w) for w in g.words]
    class_ok = all(classes[i] != classes[j] for i, j in g.edges())
    coloring_matches = part.bipartite and (
        list(part.coloring) == classes or [1 - c for c in part.coloring] == classes
    )
    yield ClaimRecord(
        f"bsq{n}-bipartite-class-function",
        f"BSQ_{n} is bipartite and the parity class (sum of pair1s plus tail, mod 2) is a proper 2-coloring",
        {"bipartite": True, "class_function": True, "coloring_matches": True},
        {"bipartite": part.bipartite, "class_function": class_ok, "coloring_matches": coloring_matches},
    )
    yield ClaimRecord(f"bsq{n}-girth", f"girth of BSQ_{n} is 4", 4, analysis.girth(g))
    yield ClaimRecord(f"bsq{n}-diameter", f"BFS diameter of BSQ_{n} equals n", n, analysis.diameter(g).value)
    yield from _transitivity_claims(TopologyKind.BSQ, n)


def _pair_scope(g, everything: str, sample) -> tuple[list[tuple[int, int]], str]:
    """Every ordered pair at n <= FULL_PAIR_SCAN_N, else `sample(g)`; and the phrase naming them."""
    if g.n <= FULL_PAIR_SCAN_N:
        return [(u, v) for u in g.words for v in g.words], everything
    pairs = sample(g)
    return pairs, f"{len(pairs)} sampled pairs"


def _map_sample(g) -> list[tuple[int, int]]:
    rng = random.Random(0xA0 + g.n)
    return [(rng.choice(g.words), rng.choice(g.words)) for _ in range(SAMPLED_MAP_PAIRS)]


def _grid_sample(g) -> list[tuple[int, int]]:
    rng = random.Random(0xB0 + g.n)
    sources = rng.sample(g.words, ROUTING_GRID[g.n])
    dests = rng.sample(g.words, ROUTING_GRID[g.n])
    return [(s, d) for s in sources for d in dests]


def _pair_record(cid: str, description: str, pairs: list, failures: int) -> ClaimRecord:
    return ClaimRecord(
        cid, description, {"pairs": len(pairs), "failures": 0}, {"pairs": len(pairs), "failures": failures}
    )


def _transitivity_claims(kind: TopologyKind, n: int):
    tag = kind.value.lower()
    g = materialize(kind, n)
    dim = g.dim
    build = symmetry.build_phi if kind is TopologyKind.SSQ else symmetry.build_psi
    pairs, scope = _pair_scope(g, "all ordered vertex pairs", _map_sample)
    if n <= FULL_PAIR_SCAN_N:
        verify = lambda spec: symmetry.verify_automorphism(kind, dim, spec)
        checked = "the built map sends v to u, is a bijection and preserves every edge"
    else:
        verify = lambda spec: symmetry.verify_factor_automorphism(kind, spec)
        checked = ("the built map sends v to u and each block's table is an automorphism of its factor, "
                   "so the map is an automorphism (Cartesian-product lemma)")
    failures = 0
    for u, v in pairs:
        spec = build(u, v, dim)
        failures += symmetry.apply_map(spec, v) != u or not verify(spec).ok
    yield _pair_record(
        f"{tag}{n}-vertex-transitive-maps",
        f"for {scope} of {kind.value}_{n}, {checked}",
        pairs,
        failures,
    )
    if n == 6:
        cert = analysis.vertex_transitivity_certificate(g)
        yield ClaimRecord(
            f"{tag}{n}-no-invariant-obstruction",
            f"degree/triangle/K4/eccentricity profiles of {kind.value}_{n} are uniform",
            "no-invariant-obstruction",
            cert.verdict,
        )


def _routing_claims(n: int):
    for kind in (TopologyKind.SSQ, TopologyKind.BSQ):
        tag = kind.value.lower()
        g = materialize(kind, n)
        dim = g.dim
        nbr_sets = neighbor_sets(g)
        route = routing.route_ssq if kind is TopologyKind.SSQ else routing.route_bsq
        pairs, scope = _pair_scope(g, "all ordered pairs", _grid_sample)
        dist_cache: dict[int, list[int]] = {}
        route_failures = 0
        decomposition_failures = 0
        for src, dst in pairs:
            if src not in dist_cache:
                dist_cache[src] = analysis.bfs_distances(g, g.index_of(src))
            oracle = dist_cache[src][g.index_of(dst)]
            path = route(dim, src, dst)
            ok = (
                len(path) - 1 == oracle
                and len(set(path)) == len(path)
                and all(
                    g.index_of(b) in nbr_sets[g.index_of(a)]
                    for a, b in zip(path, path[1:])
                )
            )
            route_failures += not ok
            decomposition_failures += routing.distance_of(kind, dim, src, dst) != oracle
        yield _pair_record(
            f"{tag}{n}-routing-optimal",
            f"for {scope} of {kind.value}_{n}, routed paths are simple oracle-edge walks of exact BFS length",
            pairs,
            route_failures,
        )
        yield _pair_record(
            f"{tag}{n}-distance-decomposition",
            f"blockwise distance of {kind.value}_{n} equals BFS distance on the same pairs",
            pairs,
            decomposition_failures,
        )


def _hamiltonian_claims(n: int):
    for kind in (TopologyKind.SSQ, TopologyKind.BSQ):
        tag = kind.value.lower()
        dim = Dimension(n)
        cycle = hamiltonian.hamiltonian_cycle(kind, dim)
        check = hamiltonian.validate_cycle(kind, dim, cycle.vertices)
        expected_len = materialize(kind, n).num_vertices
        yield ClaimRecord(
            f"{tag}{n}-hamiltonian-cycle",
            f"generated cycle of {kind.value}_{n} is Hamiltonian",
            {"valid": True, "length": expected_len},
            {"valid": check.ok, "length": len(cycle)},
        )


def _changed_block_neighbors(g, nbr_sets, i: int, j: int, dim: Dimension) -> frozenset:
    u = g.word_of(i)
    return frozenset(
        w for w in nbr_sets[i] if get_block(g.word_of(w), j, dim) != get_block(u, j, dim)
    )


def _equivalence_claims(n: int):
    dim = Dimension(n)
    g = materialize(TopologyKind.BSQ, n)
    nbr_sets = neighbor_sets(g)
    pattern = analysis.bsq_pattern_pairs(n)
    blockwise_ok = True
    for u, v in pattern:
        (j,) = differing_blocks(u, v, dim)
        nu = _changed_block_neighbors(g, nbr_sets, g.index_of(u), j, dim)
        nv = _changed_block_neighbors(g, nbr_sets, g.index_of(v), j, dim)
        if nu != nv:
            blockwise_ok = False
            break
    k = (n - 2) // 4
    yield ClaimRecord(
        f"bsq{n}-blockwise-equivalence",
        f"every bit-(4j+1) pair of BSQ_{n} has identical changed-block neighbor sets, {k} such partners per vertex",
        {"blockwise": True, "partners_per_vertex": k},
        {"blockwise": blockwise_ok, "partners_per_vertex": 2 * len(pattern) // (1 << n)},
    )
    census = analysis.same_neighborhood_pairs(g)
    yield ClaimRecord(
        f"bsq{n}-neighborhood-census",
        f"extensional same-neighborhood census of BSQ_{n}",
        {"pairs": 0},
        {"pairs": len(census)},
        informational=True,
        note=(
            f"the nominal equivalence pattern would give {len(pattern)} pairs, but tail "
            "neighbors always distinguish the two vertices; full-neighborhood equality "
            "holds only inside the block graph and in BH_m"
        ),
    )


def _discrepancy_claims(n: int):
    dim = Dimension(n)
    k = dim.k
    ssq = materialize(TopologyKind.SSQ, n)
    far_word = int("1101" * k + "11", 2)
    measured = analysis.bfs_distances(ssq, ssq.index_of(0))[ssq.index_of(far_word)]
    yield ClaimRecord(
        f"ssq{n}-eccentric-witness-distance",
        f"distance from the zero vertex of SSQ_{n} to {format_vertex(far_word, dim)}",
        2 * k + 1,
        measured,
        informational=True,
        note=f"nominal eccentric witness, but it sits at {2 * k + 1}, not the diameter {2 * k + 2}; "
        "true eccentric vertices have tail 10",
    )
    bsq = materialize(TopologyKind.BSQ, n)
    measured = analysis.bfs_distances(bsq, bsq.index_of(0))[bsq.index_of(dim.mask)]
    yield ClaimRecord(
        f"bsq{n}-antipode-distance",
        f"distance from the zero vertex of BSQ_{n} to the all-ones vertex",
        3 * k + 1,
        measured,
        informational=True,
        note=f"nominal eccentric witness, but the all-ones block sits at 3 steps, not 4, so the "
        f"distance is {3 * k + 1}, not {n}; true eccentric vertices use blocks 0010/1010 and tail 10",
    )
