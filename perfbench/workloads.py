"""The three workloads: the claims suite, whole-graph checks at n=18, and routing at n=18.

A workload has a set-up (`load` imports the package, `prepare` builds what
the timed phase reads) and rounds.  `call` runs one round of program calls
and times them, raw and at the reference speed (see pace.py); `check` then
compares the round's outputs with the oracle, outside the timed phase, and
returns (attempted, failed).  Every round makes the same operations, so the
share of failed operations does not depend on how many rounds a run fits in.

    python3 perfbench/workloads.py WORKLOAD SRC

makes one set-up of WORKLOAD in a fresh process, importing the package from
SRC, and prints its length in seconds at the reference speed.
"""
from __future__ import annotations

import importlib
import io
import json
import os
import random
import statistics
import sys
import time
from array import array
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from types import SimpleNamespace

import oracle
import pace

PACKAGE = "shufflecube"
MODULES = ("words", "topology", "analysis", "symmetry", "routing", "hamiltonian", "claims", "cli")


def load_package() -> SimpleNamespace:
    """Import the package afresh, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(f"{PACKAGE}.cli")
    return SimpleNamespace(**{m: sys.modules[f"{PACKAGE}.{m}"] for m in MODULES})


def clear_caches() -> None:
    """Empty every cache of the package, as a new process would find them."""
    for name, mod in list(sys.modules.items()):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)) and not isinstance(obj, type):
                    obj.cache_clear()


@dataclass
class Outcome:
    """What one round's program calls returned, and how long they took."""

    wall: float  # seconds at the reference speed
    raw: float  # seconds
    outputs: list = field(default_factory=list)


class Workload:
    name = ""
    # Whether setup_s is timed in fresh child processes (several per run),
    # rather than once in the run's own process.
    setup_in_child = False

    def __init__(self, seed: int, outdir: str):
        self.seed = seed
        self.outdir = outdir
        self.mods: SimpleNamespace | None = None
        self.routes: RouteBatch | None = None  # the route metrics' source

    def load(self) -> None:
        self.mods = load_package()

    def prepare(self) -> None:
        """Set-up after the import: what the timed phase reads."""

    def setup_ok(self) -> bool:
        """Whether the outputs of the set-up itself are correct."""
        return True

    def call(self) -> Outcome:
        raise NotImplementedError

    def check(self, out: Outcome) -> tuple[int, int]:
        raise NotImplementedError

    def final_ok(self) -> bool:
        """Checks too heavy for every round, made once after the timed phase."""
        return True


def setup_seconds(name: str, src: str) -> float:
    """One set-up of the named workload at the reference speed: the first import of the package in this process, and `prepare`."""
    sys.path.insert(0, src)
    w = WORKLOADS[name](seed=0, outdir=".")
    with pace.Bracket() as b:
        w.load()
        w.prepare()
    return b.scaled


# ---------------------------------------------------------------------------
# claims-6-10

class ClaimExpectations:
    """The value each claim record should hold, from closed forms and the oracle.

    Records without a closed form here are checked for `pass` alone.
    """

    def __init__(self, n_values):
        self.values = {}
        for n in n_values:
            k = oracle.blocks_of(n)
            for kind in oracle.KINDS:
                tag = kind.lower()
                count = oracle.vertex_count(kind, n)
                full = count * count if n <= 6 else None
                self.values.update({
                    f"{tag}{n}-vertex-count": count,
                    f"{tag}{n}-regular": [n],
                    f"{tag}{n}-connected": True,
                    f"{tag}{n}-girth": oracle.GIRTH[kind],
                })
                if kind == "SQ":
                    self.values[f"sq{n}-non-bipartite"] = False
                    self.values[f"sq{n}-clique-number"] = oracle.CLIQUE_NUMBER_SQ
                    continue
                if kind == "SSQ":
                    self.values[f"ssq{n}-non-bipartite"] = False
                self.values[f"{tag}{n}-diameter"] = oracle.diameter(kind, n)
                self.values[f"{tag}{n}-hamiltonian-cycle"] = {"valid": True, "length": count}
                for claim in ("vertex-transitive-maps", "routing-optimal", "distance-decomposition"):
                    self.values[f"{tag}{n}-{claim}"] = ("zero-failures", full)
            nbrs = oracle.product_neighbors("SSQ", n)
            far = int("1101" * k + "11", 2)
            self.values[f"ssq{n}-eccentric-witness-distance"] = oracle.bfs(nbrs, 0)[far]
            nbrs = oracle.product_neighbors("BSQ", n)
            self.values[f"bsq{n}-antipode-distance"] = oracle.bfs(nbrs, 0)[(1 << n) - 1]
            rows = Counter(tuple(oracle.neighbors("BSQ", n, u)) for u in range(1 << n))
            self.values[f"bsq{n}-neighborhood-census"] = {"pairs": sum(c * (c - 1) // 2 for c in rows.values())}
            self.values[f"bsq{n}-bipartite-class-function"] = {
                "bipartite": True, "class_function": True, "coloring_matches": True,
            }
            self.values[f"bsq{n}-blockwise-equivalence"] = {"blockwise": True, "partners_per_vertex": k}

    def record_ok(self, rec: dict) -> bool:
        if rec.get("pass") is not True or rec.get("expected") != rec.get("computed"):
            return False
        want = self.values.get(rec["id"])
        if want is None:
            return True
        if isinstance(want, tuple):
            _, pairs = want
            got = rec["computed"]
            return got.get("failures") == 0 and got.get("pairs", 0) > 0 and pairs in (None, got["pairs"])
        return rec["expected"] == want


class Claims(Workload):
    """`verify-claims 6 10 --json FILE` through the CLI, in-process, from empty caches."""

    name = "claims-6-10"
    setup_in_child = True
    N_VALUES = (6, 10)

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        self.report_path = os.path.join(outdir, f"claims-report-{os.getpid()}.json")
        self.argv = ["verify-claims", *map(str, self.N_VALUES), "--json", self.report_path]
        self.expect: ClaimExpectations | None = None  # made at the first check
        self.consistent = True  # exit code and summary agree with the records

    def call(self) -> Outcome:
        clear_caches()
        if os.path.exists(self.report_path):
            os.remove(self.report_path)
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            rc, raw, wall = pace.timed(self.mods.cli.main, self.argv)
        return Outcome(wall, raw, [rc, stdout.getvalue()])

    def check(self, out: Outcome) -> tuple[int, int]:
        rc, text = out.outputs
        try:
            with open(self.report_path) as fh:
                records = json.load(fh)["claims"]
        except (OSError, ValueError, KeyError):
            return 1, 1
        if self.expect is None:
            self.expect = ClaimExpectations(self.N_VALUES)
        failed = sum(not self.expect.record_ok(r) for r in records)
        all_pass = all(r.get("pass") is True for r in records)
        summary = [f"{'PASS' if r.get('pass') else 'FAIL'} {r['id']}" for r in records]
        summary.append(f"overall: {'PASS' if all_pass else 'FAIL'}")
        if rc != (0 if all_pass else 1) or text.splitlines() != summary:
            self.consistent = False
        return len(records), failed

    def final_ok(self) -> bool:
        if os.path.exists(self.report_path):
            os.remove(self.report_path)
        return self.consistent


# ---------------------------------------------------------------------------
# graphs-18

class Graphs(Workload):
    """Whole-graph checks on the largest SSQ and BSQ under the 2^20 vertex cap."""

    name = "graphs-18"
    N = 18
    SAMPLED_ROWS = 256

    def prepare(self) -> None:
        t = self.mods.topology
        self.bsq = t.materialize(t.TopologyKind.BSQ, self.N)
        self.ssq = t.materialize(t.TopologyKind.SSQ, self.N)

    def setup_ok(self) -> bool:
        rng = random.Random(self.seed)
        n = self.N
        for kind, g in (("BSQ", self.bsq), ("SSQ", self.ssq)):
            count = oracle.vertex_count(kind, n)
            if list(g.words) != oracle.vertices(kind, n) or len(g.nbrs) != count:
                return False
            if g.edge_count != oracle.edge_count(kind, n) or sum(map(len, g.nbrs)) != 2 * g.edge_count:
                return False
            for i in rng.sample(range(count), self.SAMPLED_ROWS):
                u = g.words[i]
                if sorted(g.words[j] for j in g.nbrs[i]) != oracle.neighbors(kind, n, u):
                    return False
        return True

    def call(self) -> Outcome:
        m = self.mods
        kinds = m.topology.TopologyKind
        dim = m.words.Dimension(self.N)
        ops = [
            ("eccentricity", m.analysis.eccentricity, self.bsq, 0),
            ("bipartition", m.analysis.bipartition, self.bsq),
            ("diameter", m.analysis.diameter, self.ssq),
        ]
        out = Outcome(0.0, 0.0)

        def timed(fn, *args):
            result, raw, wall = pace.timed(fn, *args)
            out.raw += raw
            out.wall += wall
            return result

        for name, fn, *args in ops:
            out.outputs.append((name, timed(fn, *args)))
        for kind in (kinds.BSQ, kinds.SSQ):
            cycle = timed(m.hamiltonian.hamiltonian_cycle, kind, dim)
            out.outputs.append(("cycle", kind.value, cycle))
            vertices = getattr(cycle, "vertices", ())
            verdict = timed(m.hamiltonian.validate_cycle, kind, dim, vertices)
            out.outputs.append(("validate", kind.value, vertices, verdict))
        return out

    def check(self, out: Outcome) -> tuple[int, int]:
        n = self.N
        failed = 0
        cycle_valid = {}
        for op in out.outputs:
            if op[0] == "eccentricity":  # BSQ is vertex-transitive: ecc(0) is the diameter, n
                ok = op[1] == oracle.diameter("BSQ", n)
            elif op[0] == "bipartition":
                coloring = getattr(op[1], "coloring", None)
                ok = coloring is not None and oracle.coloring_ok(n, self.bsq.words, coloring)
            elif op[0] == "diameter":
                ok = getattr(op[1], "value", None) == oracle.diameter("SSQ", n)
            elif op[0] == "cycle":
                vertices = getattr(op[2], "vertices", None)
                ok = vertices is not None and oracle.cycle_ok(op[1], n, vertices)
                cycle_valid[op[1]] = (vertices, ok)
            else:
                # The validator's verdict must be the oracle's, on the sequence it was given.
                _, kind, vertices, verdict = op
                built, valid = cycle_valid[kind]
                if vertices is not built:
                    valid = oracle.cycle_ok(kind, n, vertices)
                ok = getattr(verdict, "ok", None) is valid
            failed += not ok
        return len(out.outputs), failed


# ---------------------------------------------------------------------------
# routes-18 and the route metrics

class Latencies:
    """Call latencies in fixed memory: a count per nanosecond up to LIMIT_NS, and a list above it.

    Fixed memory keeps peak RSS independent of how many calls a run fits in.
    """

    LIMIT_NS = 250_000

    def __init__(self):
        self.bins = array("I", bytes(4 * self.LIMIT_NS))
        self.over: list[int] = []
        self.count = 0
        self.total_ns = 0

    def extend(self, samples) -> None:
        bins, limit = self.bins, self.LIMIT_NS
        for ns in samples:
            if ns < limit:
                bins[ns] += 1
            else:
                self.over.append(ns)
        self.count += len(samples)
        self.total_ns += sum(samples)

    def _nth(self, rank: int) -> int:
        """The rank-th smallest sample, counting from 1."""
        seen = 0
        for ns, c in enumerate(self.bins):
            seen += c
            if seen >= rank:
                return ns
        return sorted(self.over)[rank - seen - 1]

    def quantile(self, q: float) -> float:
        """As statistics.quantiles(..., method="exclusive") gives it."""
        m = q * (self.count + 1)
        j = min(max(int(m), 1), self.count - 1)
        lo, hi = self._nth(j), self._nth(j + 1)
        return lo + (m - j) * (hi - lo)

    def per_second(self) -> float:
        return self.count / (self.total_ns / 1e9)


class RouteBatch:
    """Seeded uniform vertex pairs of SSQ_18 and BSQ_18, half each, routed call by call.

    Each pair is routed (`route_ssq` or `route_bsq`) and measured
    (`distance_of`); every call is timed on its own.
    """

    N = 18
    PAIRS_PER_KIND = 2000
    PAIRS_PER_PASS = 50  # pairs between two reference passes

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.route_ns = Latencies()
        self.distance_ns = Latencies()

    @classmethod
    def ssq_vertex(cls, rng: random.Random) -> int:
        """A uniform vertex of SSQ_n: each block drawn from the 8 nodes of B."""
        u = rng.randrange(4)
        for j in range(1, oracle.blocks_of(cls.N) + 1):
            u |= rng.choice(oracle.B.nodes) << oracle.shift_of(j)
        return u

    def pairs(self) -> list[tuple[str, int, int]]:
        out = []
        for _ in range(self.PAIRS_PER_KIND):
            out.append(("SSQ", self.ssq_vertex(self.rng), self.ssq_vertex(self.rng)))
            out.append(("BSQ", self.rng.getrandbits(self.N), self.rng.getrandbits(self.N)))
        return out

    def warm_up(self, mods) -> None:
        """One route and one distance per kind, so that lazily built tables exist."""
        r, kinds = mods.routing, mods.topology.TopologyKind
        dim = mods.words.Dimension(self.N)
        far = (1 << self.N) - 1  # a vertex of both kinds
        for route, kind in ((r.route_ssq, kinds.SSQ), (r.route_bsq, kinds.BSQ)):
            for fn, *args in ((route, dim, 0, far), (r.distance_of, kind, dim, 0, far)):
                try:
                    fn(*args)
                except Exception:  # the timed calls fail too, and count it
                    pass

    def call(self, mods) -> Outcome:
        pairs = self.pairs()
        r, kinds = mods.routing, mods.topology.TopologyKind
        dim = mods.words.Dimension(self.N)
        fns = {"SSQ": (r.route_ssq, kinds.SSQ), "BSQ": (r.route_bsq, kinds.BSQ)}
        distance_of = r.distance_of
        clock = time.perf_counter_ns
        outputs = []
        route_ns, distance_ns = [], []
        with pace.Bracket(sampled=False) as bracket:
            for i, (kind, src, dst) in enumerate(pairs):
                if i % self.PAIRS_PER_PASS == 0:
                    bracket.sample()
                route, tk = fns[kind]
                t0 = clock()
                try:
                    path = route(dim, src, dst)
                except Exception as exc:
                    path = exc
                t1 = clock()
                try:
                    dist = distance_of(tk, dim, src, dst)
                except Exception as exc:
                    dist = exc
                t2 = clock()
                outputs.append((kind, src, dst, path, dist))
                route_ns.append(t1 - t0)
                distance_ns.append(t2 - t1)
        # Each latency at the reference speed of its own stretch of the batch:
        # the median of the six passes nearest its chunk of pairs (the passes
        # are two before the loop, one before each chunk and two after it).
        step = self.PAIRS_PER_PASS
        for c in range(0, len(pairs), step):
            f = pace.REF_PASS_S / statistics.median(bracket.passes[c // step:c // step + 6])
            self.route_ns.extend([round(ns * f) for ns in route_ns[c:c + step]])
            self.distance_ns.extend([round(ns * f) for ns in distance_ns[c:c + step]])
        return Outcome(bracket.scaled, bracket.raw, outputs)

    def check(self, out: Outcome) -> tuple[int, int]:
        failed = 0
        for kind, src, dst, path, dist in out.outputs:
            failed += not (isinstance(path, list) and oracle.path_ok(kind, self.N, src, dst, path))
            failed += dist != oracle.distance(kind, self.N, src, dst)
        return 2 * len(out.outputs), failed

    def metrics(self) -> dict[str, float]:
        return {
            "routes_per_s": self.route_ns.per_second(),
            "route_p50_us": self.route_ns.quantile(0.50) / 1000,
            "route_p99_us": self.route_ns.quantile(0.99) / 1000,
            "distances_per_s": self.distance_ns.per_second(),
        }


class Routes(Workload):
    """Point queries: route and distance calls on seeded pairs at n=18."""

    name = "routes-18"
    setup_in_child = True
    BFS_SOURCES = {"SSQ": 2, "BSQ": 1}

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        self.routes = RouteBatch(seed)

    def prepare(self) -> None:
        self.routes.warm_up(self.mods)

    def call(self) -> Outcome:
        return self.routes.call(self.mods)

    def check(self, out: Outcome) -> tuple[int, int]:
        return self.routes.check(out)

    def final_ok(self) -> bool:
        """The product formula against a full oracle BFS from a few seeded sources."""
        rng = random.Random(self.seed ^ 0x5EED)
        n = RouteBatch.N
        for kind, sources in self.BFS_SOURCES.items():
            for _ in range(sources):
                src = RouteBatch.ssq_vertex(rng) if kind == "SSQ" else rng.getrandbits(n)
                dist = oracle.bfs_words(kind, n, src)
                for v in range(1 << n):
                    if dist[v] >= 0 and dist[v] != oracle.distance(kind, n, src, v):
                        return False
                if sum(1 for d in dist if d >= 0) != oracle.vertex_count(kind, n):
                    return False
        return True


WORKLOADS = {w.name: w for w in (Claims, Graphs, Routes)}


if __name__ == "__main__":
    print(setup_seconds(*sys.argv[1:3]))
