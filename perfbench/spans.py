"""Spans at the module boundaries of the shufflecube package, kept in memory.

`Tracer.install` replaces each traced function with a wrapper, in the module
that defines it and under every name another package module bound it to
(`from .topology import materialize`, `neighbor_sets as _neighbor_sets`,
the re-exports of `__init__`), so that every call between modules, and every
call the benchmark makes, is seen.  `uninstall` puts the originals back.

A span is (function, parent span, start, end), stored in flat arrays so that
a million of them take 24 MB.  `dump` writes them out once the run is over.

Not traced: the `words` module, and the per-vertex helpers in SKIP.  They are
called 10^5 to 10^6 times per round, so wrapping them would swamp the run;
their cost shows in the self time of their callers.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
from array import array
from collections import Counter

import oracle

PACKAGE = "shufflecube"
LAYERS = ("topology", "analysis", "symmetry", "routing", "hamiltonian", "claims", "cli")

SKIP = {
    "topology": {"is_valid_vertex", "neighbors", "block_graph", "block_graph_for", "bh_neighbors", "v_set"},
    "symmetry": {"apply_map"},
}

# Per-layer time metrics: the summed length of the outermost spans of these
# functions (a span nested in another of the same group is not counted twice).
TIME_GROUPS = {
    "topology.materialize_s": ("topology.materialize",),
    "topology.neighbor_sets_s": ("topology.neighbor_sets",),
    "topology.adjacent_s": ("topology.adjacent",),
    "analysis.bfs_s": ("analysis.bfs_distances", "analysis.eccentricity"),
    "analysis.bipartition_s": ("analysis.bipartition",),
    "analysis.girth_s": ("analysis.girth",),
    "analysis.diameter_s": ("analysis.diameter",),
    "analysis.cliques_s": (
        "analysis.triangle_counts", "analysis.k4_census",
        "analysis.k4_extends_to_k5", "analysis.clique_number",
    ),
    "analysis.certificates_s": (
        "analysis.vertex_transitivity_certificate", "analysis.edge_transitivity_certificate",
    ),
    "analysis.census_s": (
        "analysis.same_neighborhood_pairs", "analysis.bh_same_neighborhood_pairs",
        "analysis.equivalent_pairs", "analysis.bsq_pattern_pairs", "analysis.bh_pattern_pairs",
    ),
    "symmetry.verify_s": ("symmetry.verify_automorphism",),
    "symmetry.build_s": ("symmetry.build_phi", "symmetry.build_psi"),
    "routing.route_s": ("routing.route_ssq", "routing.route_bsq"),
    "routing.distance_s": ("routing.distance_of",),
    "hamiltonian.build_s": ("hamiltonian.hamiltonian_cycle",),
    "hamiltonian.validate_s": ("hamiltonian.validate_cycle",),
}

# Per-layer call counts.  Every eccentricity runs one bfs_distances, so
# bfs_calls counts BFS passes.
CALL_GROUPS = {
    "topology.adjacent_calls": ("topology.adjacent",),
    "analysis.bfs_calls": ("analysis.bfs_distances",),
    "symmetry.verify_calls": ("symmetry.verify_automorphism",),
    "routing.route_calls": ("routing.route_ssq", "routing.route_bsq"),
    "routing.distance_calls": ("routing.distance_of",),
}

# Work counts the wrappers take from arguments and results.
WORK_COUNTS = (
    "topology.vertices_built", "topology.materialize_misses", "topology.materialize_rss_mb",
    "symmetry.vertices_mapped", "routing.hops", "hamiltonian.vertices_validated",
    "claims.records", "cli.report_bytes",
)

# The tracing overhead: the median traced round minus the median untraced
# round of the same run, and the spans one traced round records.
OVERHEAD = ("trace.overhead_s", "trace.spans")

METRICS = (
    [f"{layer}.{kind}" for layer in LAYERS for kind in ("busy_s", "self_s")]
    + list(TIME_GROUPS) + list(CALL_GROUPS) + list(WORK_COUNTS) + list(OVERHEAD)
)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _hooks():
    """Work counters taken after a traced call returns: name -> fn(counts, args, kwargs, result)."""

    def route(c, a, k, path):
        c["routing.hops"] += len(path) - 1

    def verify(c, a, k, result):
        kind, spec = _arg(a, k, 0, "kind"), _arg(a, k, 2, "spec")
        c["symmetry.vertices_mapped"] += oracle.vertex_count(kind.value, spec.dim.n)

    def validate(c, a, k, result):
        c["hamiltonian.vertices_validated"] += len(_arg(a, k, 2, "vertices"))

    def claims(c, a, k, report):
        c["claims.records"] += len(report.records)

    def cli_main(c, a, k, rc):
        argv = list(_arg(a, k, 0, "argv") or ())
        if "--json" in argv:
            c["cli.report_bytes"] += os.path.getsize(argv[argv.index("--json") + 1])

    return {
        "routing.route_ssq": route,
        "routing.route_bsq": route,
        "symmetry.verify_automorphism": verify,
        "hamiltonian.validate_cycle": validate,
        "claims.run_claims": claims,
        "cli.main": cli_main,
    }


def _counting_materialize(orig, counts):
    """materialize with its cache misses, vertices built and peak-RSS growth counted."""
    info = getattr(orig, "cache_info", None)

    def materialize(*args, **kwargs):
        misses = info().misses if info else 0
        rss = maxrss_mb()
        g = orig(*args, **kwargs)
        if info is None or info().misses > misses:
            counts["topology.materialize_misses"] += 1
            counts["topology.vertices_built"] += g.num_vertices
            counts["topology.materialize_rss_mb"] += maxrss_mb() - rss
        return g

    return materialize


class Tracer:
    """Wrappers for the package's module-boundary functions, and the spans they record."""

    def __init__(self):
        self.names: list[str] = []
        self.fids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter = Counter()
        self.segments: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._wrappers: dict[str, tuple[object, object]] = {}
        hooks = _hooks()
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                    or attr in SKIP.get(layer, ())
                ):
                    continue
                name = f"{layer}.{attr}"
                inner = _counting_materialize(obj, self.counts) if name == "topology.materialize" else obj
                self._wrappers[name] = (obj, self._wrap(len(self.names), inner, obj, hooks.get(name)))
                self.names.append(name)

    def _wrap(self, fid: int, fn, orig, hook):
        fids, parents, starts, ends, stack = self.fids, self.parents, self.starts, self.ends, self._stack
        counts, clock = self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        for attr in ("__name__", "__qualname__", "__doc__", "__module__", "cache_info", "cache_clear"):
            if hasattr(orig, attr):
                setattr(wrapper, attr, getattr(orig, attr))
        wrapper.__wrapped__ = orig
        return wrapper

    def install(self) -> None:
        if self._patches:
            return
        by_id = {id(orig): wrapper for orig, wrapper in self._wrappers.values()}
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = by_id.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, obj, wrapper))

    def uninstall(self) -> None:
        for mod, attr, orig, _ in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def begin(self, label: str) -> None:
        """Start a segment: the spans and counts up to the next `end` belong to it."""
        self.counts.clear()
        self.segments.append({"label": label, "first": len(self.starts)})

    def end(self, wall_s: float) -> None:
        seg = self.segments[-1]
        seg["last"] = len(self.starts)
        seg["wall_s"] = wall_s
        seg["counts"] = dict(self.counts)

    def summarize(self, seg: dict) -> dict[str, float]:
        """Per-layer metrics of one segment."""
        first, last = seg["first"], seg["last"]
        names, fid, parent, start, end = self.names, self.fids, self.parents, self.starts, self.ends
        layer_of = [name.split(".", 1)[0] for name in names]
        group_of: dict[str, list[str]] = {}
        for metric, funcs in TIME_GROUPS.items():
            for f in funcs:
                group_of.setdefault(f, []).append(metric)
        out = dict.fromkeys(METRICS, 0.0)
        child = [0.0] * (last - first)
        for i in range(last - 1, first - 1, -1):
            dur = end[i] - start[i]
            p = parent[i]
            if p >= first:
                child[p - first] += dur
            name = names[fid[i]]
            layer = layer_of[fid[i]]
            out[f"{layer}.self_s"] += dur - child[i - first]
            ancestors = set()
            while p >= first:
                ancestors.add(fid[p])
                p = parent[p]
            ancestor_names = {names[a] for a in ancestors}
            if not any(layer_of[a] == layer for a in ancestors):
                out[f"{layer}.busy_s"] += dur
            for metric in group_of.get(name, ()):
                if ancestor_names.isdisjoint(TIME_GROUPS[metric]):
                    out[metric] += dur
        for metric, funcs in CALL_GROUPS.items():
            ids = {names.index(f) for f in funcs if f in names}
            out[metric] = float(sum(1 for i in range(first, last) if fid[i] in ids))
        for metric in WORK_COUNTS:
            out[metric] = float(seg["counts"].get(metric, 0))
        return out

    def dump(self, path: str) -> None:
        """Write the spans: a JSON header beside a binary file of the four arrays."""
        with open(path + ".bin", "wb") as fh:
            for arr in (self.fids, self.parents, self.starts, self.ends):
                arr.tofile(fh)
        header = {
            "functions": self.names,
            "spans": len(self.starts),
            "arrays": [["fid", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "segments": self.segments,
        }
        with open(path + ".json", "w") as fh:
            json.dump(header, fh, indent=1)
            fh.write("\n")
