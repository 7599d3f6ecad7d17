"""Tests of the benchmark itself: its oracle, its checks and its tracer.

    python3 -m unittest discover -s perfbench/tests     # from the repository root

The oracle must agree with the package where both are known to be right
(n = 2, 6 and 10), and a wrong output must count as a failed operation.
"""
import os
import random
import statistics
import subprocess
import sys
import unittest
from contextlib import redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import pace  # noqa: E402
import steady  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SMALL_N = (2, 6, 10)


def package():
    return workloads.load_package()


class OracleAgreesWithPackage(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.m = package()
        cls.kinds = cls.m.topology.TopologyKind

    def graph(self, kind, n):
        return self.m.topology.materialize(self.kinds[kind], n)

    def test_vertex_sets_and_adjacency_rows(self):
        for n in SMALL_N:
            for kind in oracle.KINDS:
                with self.subTest(kind=kind, n=n):
                    g = self.graph(kind, n)
                    self.assertEqual(list(g.words), oracle.vertices(kind, n))
                    self.assertEqual(g.num_vertices, oracle.vertex_count(kind, n))
                    self.assertEqual(g.edge_count, oracle.edge_count(kind, n))
                    for i, u in enumerate(g.words):
                        self.assertEqual(sorted(g.words[j] for j in g.nbrs[i]), oracle.neighbors(kind, n, u))

    def test_adjacency_rule_matches_on_sampled_pairs(self):
        rng = random.Random(7)
        for n in SMALL_N:
            dim = self.m.words.Dimension(n)
            for kind in oracle.KINDS:
                words = oracle.vertices(kind, n)
                for _ in range(300):
                    u, v = rng.choice(words), rng.choice(words)
                    self.assertEqual(
                        self.m.topology.adjacent(self.kinds[kind], dim, u, v), oracle.adjacent(kind, n, u, v)
                    )

    def test_step_check_is_the_adjacency_rule(self):
        for n in (2, 6):
            for kind in ("SSQ", "BSQ"):
                words = oracle.vertices(kind, n)
                for u in words:
                    for v in words:
                        self.assertEqual(oracle.step_ok(kind, u, v), oracle.adjacent(kind, n, u, v))

    def test_factor_graphs(self):
        t = self.m.topology
        for label, factor in ((t.C4_LABEL, oracle.C4), (t.B_SSQ_LABEL, oracle.B), (t.D_BSQ_LABEL, oracle.D)):
            with self.subTest(label=label):
                bg = t.block_graph(label)
                self.assertEqual(bg.nodes, factor.nodes)
                self.assertEqual({a: tuple(sorted(bs)) for a, bs in bg.adj.items()}, factor.adj)
                for a in factor.nodes:
                    for b in factor.nodes:
                        self.assertEqual(bg.distance(a, b), factor.dist[a][b])

    def test_distance_is_bfs_distance(self):
        rng = random.Random(11)
        for n in SMALL_N:
            dim = self.m.words.Dimension(n)
            for kind in ("SSQ", "BSQ"):
                g = self.graph(kind, n)
                for src in rng.sample(list(g.words), min(4, g.num_vertices)):
                    theirs = self.m.analysis.bfs_distances(g, g.index_of(src))
                    ours = oracle.bfs(oracle.product_neighbors(kind, n), src)
                    words = oracle.bfs_words(kind, n, src)
                    for i, v in enumerate(g.words):
                        want = oracle.distance(kind, n, src, v)
                        self.assertEqual(ours[v], want)
                        self.assertEqual(words[v], want)
                        self.assertEqual(theirs[i], want)
                        self.assertEqual(self.m.routing.distance_of(self.kinds[kind], dim, src, v), want)

    def test_closed_forms(self):
        for n in SMALL_N:
            for kind in ("SSQ", "BSQ"):
                g = self.graph(kind, n)
                self.assertEqual(self.m.analysis.diameter(g).value, oracle.diameter(kind, n))
            bsq = self.graph("BSQ", n)
            coloring = self.m.analysis.bipartition(bsq).coloring
            self.assertTrue(oracle.coloring_ok(n, bsq.words, coloring))

    def test_routes_and_cycles_pass_the_checks(self):
        for n in SMALL_N:
            dim = self.m.words.Dimension(n)
            for kind, route in (("SSQ", self.m.routing.route_ssq), ("BSQ", self.m.routing.route_bsq)):
                words = oracle.vertices(kind, n)
                for u in words[:: max(1, len(words) // 8)]:
                    for v in words:
                        self.assertTrue(oracle.path_ok(kind, n, u, v, route(dim, u, v)))
                cycle = self.m.hamiltonian.hamiltonian_cycle(self.kinds[kind], dim).vertices
                self.assertTrue(oracle.cycle_ok(kind, n, cycle))


class SmallGraphs(workloads.Graphs):
    """graphs-18's operations and checks at n = 10."""

    N = 10
    SAMPLED_ROWS = 64


class WrongOutputsFail(unittest.TestCase):
    def test_detour_is_a_failed_route(self):
        batch = workloads.RouteBatch(seed=5)
        batch.PAIRS_PER_KIND = 20
        m = package()
        out = batch.call(m)
        self.assertEqual(batch.check(out), (80, 0))
        kind, src, dst, path, dist = out.outputs[1]
        detour = [path[0], path[1], path[0]] + path[1:] if len(path) > 1 else path
        wrong_dist = dist + 2
        out.outputs[1] = (kind, src, dst, detour, wrong_dist)
        self.assertEqual(batch.check(out), (80, 2))

    def test_non_edge_step_is_a_failed_route(self):
        n, src, dst = 18, 0, 0b10  # the tails are 2 apart on C4
        self.assertTrue(oracle.path_ok("BSQ", n, src, dst, [0, 1, 2]))
        # Right length, no repeats, but 0 -> 0b100 leaves pair1 alone: no edge.
        self.assertFalse(oracle.path_ok("BSQ", n, src, dst, [0, 0b100, 2]))

    def test_wrong_coloring_and_cycle_are_failed_operations(self):
        w = SmallGraphs(seed=3, outdir=".")
        w.load()
        w.prepare()
        self.assertTrue(w.setup_ok())
        out = w.call()
        self.assertEqual(w.check(out), (7, 0))
        for i, op in enumerate(out.outputs):
            if op[0] == "bipartition":
                coloring = list(op[1].coloring)
                coloring[5] ^= 1
                out.outputs[i] = ("bipartition", type(op[1])(tuple(coloring), None))
            if op[0] == "cycle" and op[1] == "SSQ":
                vertices = list(op[2].vertices)
                vertices[3], vertices[4] = vertices[4], vertices[3]
                out.outputs[i] = ("cycle", "SSQ", type(op[2])(op[2].kind, op[2].n, tuple(vertices)))
        # The colouring and the SSQ cycle fail; the validator's verdict on the
        # cycle it was given still agrees with the oracle.
        self.assertEqual(w.check(out), (7, 2))

    def test_wrong_adjacency_fails_the_setup_check(self):
        w = SmallGraphs(seed=3, outdir=".")
        w.load()
        w.prepare()
        g = w.bsq
        rows = list(g.nbrs)
        rows = [rows[-1]] + rows[1:-1] + [rows[0]]  # two rows swapped
        object.__setattr__(g, "nbrs", tuple(rows))
        w.SAMPLED_ROWS = g.num_vertices
        self.assertFalse(w.setup_ok())
        w.mods.topology.materialize.cache_clear()

    def test_failing_or_wrong_claim_records(self):
        expect = workloads.ClaimExpectations((6,))
        good = {"id": "bsq6-diameter", "expected": 6, "computed": 6, "pass": True}
        self.assertTrue(expect.record_ok(good))
        self.assertFalse(expect.record_ok(dict(good, computed=5, **{"pass": False})))
        self.assertFalse(expect.record_ok(dict(good, expected=5, computed=5)))
        maps = {"id": "ssq6-vertex-transitive-maps", "pass": True,
                "expected": {"pairs": 1024, "failures": 0}, "computed": {"pairs": 1024, "failures": 0}}
        self.assertTrue(expect.record_ok(maps))
        fewer = {"pairs": 10, "failures": 0}
        self.assertFalse(expect.record_ok(dict(maps, expected=fewer, computed=fewer)))


class TracerBoundaries(unittest.TestCase):
    def test_cross_module_bindings_are_wrapped_and_restored(self):
        m = package()
        original = m.topology.materialize
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(m.claims.materialize, original)
            self.assertIs(m.claims.materialize, m.topology.materialize)
            self.assertIs(m.analysis._neighbor_sets, m.topology.neighbor_sets)
            tracer.begin("round")
            m.topology.materialize.cache_clear()
            dim = m.words.Dimension(6)
            m.hamiltonian.validate_cycle(m.topology.TopologyKind.SSQ, dim,
                                         m.hamiltonian.hamiltonian_cycle(m.topology.TopologyKind.SSQ, dim).vertices)
            tracer.end(0.0)
        finally:
            tracer.uninstall()
        self.assertIs(m.claims.materialize, original)
        self.assertIs(m.topology.materialize, original)
        metrics = tracer.summarize(tracer.segments[0])
        self.assertEqual(metrics["topology.adjacent_calls"], 32)
        self.assertEqual(metrics["topology.materialize_misses"], 1)
        self.assertEqual(metrics["hamiltonian.vertices_validated"], 32)
        self.assertGreater(metrics["hamiltonian.validate_s"], 0)
        self.assertLessEqual(metrics["hamiltonian.self_s"], metrics["hamiltonian.busy_s"])


class LatencyQuantiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        rng = random.Random(1)
        samples = [rng.randrange(500, 90_000) for _ in range(5000)] + [400_000, 900_000]
        lat = workloads.Latencies()
        lat.extend(samples)
        q = statistics.quantiles(samples, n=100)
        self.assertAlmostEqual(lat.quantile(0.5), q[49])
        self.assertAlmostEqual(lat.quantile(0.99), q[98])
        self.assertAlmostEqual(lat.per_second(), len(samples) / (sum(samples) / 1e9))


class ReferenceSpeed(unittest.TestCase):
    def test_timed_scales_by_the_reference_and_keeps_exceptions(self):
        result, raw, scaled = pace.timed(sum, [1, 2, 3])
        self.assertEqual(result, 6)
        self.assertGreater(raw, 0)
        self.assertGreater(scaled, 0)
        result, _, _ = pace.timed(int, "not a number")
        self.assertIsInstance(result, ValueError)

    def test_child_setup_prints_its_seconds(self):
        script = os.path.join(ROOT, "perfbench", "workloads.py")
        out = subprocess.run([sys.executable, script, "routes-18", os.path.join(ROOT, "src")],
                             capture_output=True, text=True, check=True, timeout=60).stdout
        self.assertGreater(float(out), 0)


class SteadinessVerdict(unittest.TestCase):
    SPEC = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}

    @staticmethod
    def runs(values):
        return [{"correct": True, "attempted": 10, "failed": 0, "metrics": {"wall_s": {"value": v}}}
                for v in values]

    def verdict(self, first, second):
        with open(os.devnull, "w") as null, redirect_stdout(null):
            return steady.report(self.SPEC, "w", [self.runs(first), self.runs(second)])

    def test_agreeing_sets(self):
        self.assertTrue(self.verdict([1.0, 1.01, 0.99, 1.0], [1.02, 1.0, 1.01, 1.0]))

    def test_a_second_set_faster_or_slower_by_more_than_the_bound_disagrees(self):
        self.assertFalse(self.verdict([1.0] * 4, [0.6, 0.61, 0.6, 0.6]))
        self.assertFalse(self.verdict([1.0] * 4, [1.4, 1.41, 1.4, 1.4]))

    def test_a_wide_set_disagrees(self):
        self.assertFalse(self.verdict([0.5, 1.0, 1.0, 1.5], [1.0] * 4))


if __name__ == "__main__":
    unittest.main()
