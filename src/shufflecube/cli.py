"""Command-line front end: generate, analyze, route, hamiltonian, verify-claims.

Exit codes: 0 success, 1 a claim or validation failed, 2 usage or I/O error.
All data output is byte-deterministic for fixed arguments; verify-claims
keeps its timing section separate so `--no-timing` output can be compared
across runs.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import analysis, claims, hamiltonian, routing
from .errors import InvalidVertexError, ResourceLimitError
from .topology import TopologyKind, materialize
from .words import Dimension, format_vertex, parse_vertex



def _kind(text: str) -> TopologyKind:
    try:
        return TopologyKind[text.upper()]
    except KeyError:
        raise argparse.ArgumentTypeError(f"unknown topology kind {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shufflecube",
        description="Construct, analyze, route and verify the shuffle-cube family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a materialized graph")
    gen.add_argument("--kind", type=_kind, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--format", choices=("edges", "dot", "json"), default="edges")

    ana = sub.add_parser("analyze", help="run structural checks on one graph")
    ana.add_argument("--kind", type=_kind, required=True)
    ana.add_argument("--n", type=int, required=True)
    ana.add_argument("--checks", default=",".join(ANALYZE_CHECKS),
                     help="comma-separated subset of: " + ", ".join(ANALYZE_CHECKS))

    rt = sub.add_parser("route", help="shortest path between two vertices")
    rt.add_argument("--kind", type=_kind, required=True, help="ssq or bsq")
    rt.add_argument("--n", type=int, required=True)
    rt.add_argument("--from", dest="src", required=True, metavar="BITS")
    rt.add_argument("--to", dest="dst", required=True, metavar="BITS")

    ham = sub.add_parser("hamiltonian", help="emit or validate Hamiltonian cycles")
    ham_sub = ham.add_subparsers(dest="ham_command", required=True)
    emit = ham_sub.add_parser("emit", help="print a cycle, one vertex per line")
    emit.add_argument("--kind", type=_kind, required=True)
    emit.add_argument("--n", type=int, required=True)
    emit.add_argument("--fixture", choices=("h1", "h2"))
    val = ham_sub.add_parser("validate", help="validate a cycle read from a file or fixture")
    val.add_argument("--kind", type=_kind, required=True)
    val.add_argument("--n", type=int, required=True)
    val.add_argument("--fixture", choices=("h1", "h2"))
    val.add_argument("--input", help="file of one vertex per line, or - for stdin")

    ver = sub.add_parser("verify-claims", help="run the full claims suite")
    ver.add_argument("n_values", type=int, nargs="+", metavar="N")
    ver.add_argument("--json", dest="json_path", help="write the report JSON to a file")
    ver.add_argument("--no-timing", action="store_true",
                     help="omit the timing section (comparison mode)")
    return parser


def _cmd_generate(args) -> int:
    g = materialize(args.kind, Dimension(args.n).n)
    dim = g.dim
    words = [format_vertex(w, dim) for w in g.words]
    if args.format == "edges":
        for i, j in g.edges():
            print(words[i], words[j])
    elif args.format == "dot":
        print(f"graph {g.kind.value}_{g.n} {{")
        for i, j in g.edges():
            print(f'  "{words[i]}" -- "{words[j]}";')
        print("}")
    else:
        payload = {
            "kind": g.kind.value,
            "n": g.n,
            "vertices": words,
            "edges": [[words[i], words[j]] for i, j in g.edges()],
        }
        print(json.dumps(payload, indent=2))
    return 0


def _degree_check(g) -> dict:
    degrees = {g.degree(i) for i in range(g.num_vertices)}
    return {"regular": len(degrees) == 1, "degree": sorted(degrees)[-1]}


def _girth_check(g) -> dict:
    value = analysis.girth(g)
    return {"girth": value if value != float("inf") else None}


def _bipartite_check(g) -> dict:
    part = analysis.bipartition(g)
    out = {"bipartite": part.bipartite}
    if not part.bipartite:
        out["odd_cycle_length"] = len(part.odd_cycle)
    return out


def _cliques_check(g) -> dict:
    census = analysis.k4_census(g)
    return {"clique_number": analysis.clique_number(g), "k4_count": len(census.quads)}


def _diameter_check(g) -> dict:
    result = analysis.diameter(g)
    return {"diameter": result.value, "method": result.method}


def _transitivity_check(g) -> dict:
    out = {}
    for name, cert in (
        ("vertex", analysis.vertex_transitivity_certificate(g)),
        ("edge", analysis.edge_transitivity_certificate(g)),
    ):
        entry = {"verdict": cert.verdict}
        if cert.refuted:
            entry["detail"] = cert.detail
        out[name] = entry
    return out


def _equivalence_check(g) -> dict:
    census = analysis.same_neighborhood_pairs(g)
    out = {"same_neighborhood_pairs": len(census)}
    if g.kind is TopologyKind.BSQ:
        out["bit_pattern_pairs"] = len(analysis.bsq_pattern_pairs(g.n))
    return out


_CHECKS = {
    "degree": _degree_check,
    "girth": _girth_check,
    "bipartite": _bipartite_check,
    "cliques": _cliques_check,
    "diameter": _diameter_check,
    "transitivity": _transitivity_check,
    "equivalence": _equivalence_check,
}
ANALYZE_CHECKS = tuple(_CHECKS)


def _cmd_analyze(args) -> int:
    n = Dimension(args.n).n
    requested = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = [c for c in requested if c not in _CHECKS]
    if not requested or unknown:
        what = f"unknown check {unknown[0]!r}" if unknown else "no checks requested"
        print(f"{what}; valid checks: {', '.join(ANALYZE_CHECKS)}", file=sys.stderr)
        return 2
    g = materialize(args.kind, n)
    results = {c: _CHECKS[c](g) for c in requested}
    print(json.dumps({"kind": g.kind.value, "n": g.n, "checks": results}, indent=2))
    return 0


def _cmd_route(args) -> int:
    if args.kind not in (TopologyKind.SSQ, TopologyKind.BSQ):
        print("routing is available for kinds ssq and bsq", file=sys.stderr)
        return 2
    dim = Dimension(args.n)
    src = parse_vertex(args.src, dim)
    dst = parse_vertex(args.dst, dim)
    route = routing.route_ssq if args.kind is TopologyKind.SSQ else routing.route_bsq
    path = route(dim, src, dst)
    for w in path:
        print(format_vertex(w, dim))
    print(f"length: {len(path) - 1}")
    if args.n <= 10:
        g = materialize(args.kind, args.n)
        oracle = analysis.bfs_distances(g, g.index_of(src))[g.index_of(dst)]
        if oracle != len(path) - 1:
            print(f"crosscheck: bfs={oracle} MISMATCH")
            return 1
        print(f"crosscheck: bfs={oracle} ok")
    return 0


def _fixture(args) -> hamiltonian.HamiltonianCycle:
    """The --fixture cycle; a usage error unless it is a cycle of --kind at --n."""
    cycle = hamiltonian.fixture_h1() if args.fixture == "h1" else hamiltonian.fixture_h2()
    if cycle.kind is not args.kind or cycle.n != args.n:
        raise ValueError(f"fixture {args.fixture} is a {cycle.kind.value}_{cycle.n} cycle")
    return cycle


def _load_cycle(args, dim: Dimension):
    if args.fixture:
        return _fixture(args).vertices
    if args.input is None:
        raise InvalidVertexError("validate needs --fixture or --input")
    if args.input == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.input) as fh:
            lines = fh.read().splitlines()
    return tuple(parse_vertex(line.strip(), dim) for line in lines if line.strip())


def _cmd_hamiltonian(args) -> int:
    dim = Dimension(args.n)
    if args.ham_command == "emit":
        cycle = _fixture(args) if args.fixture else hamiltonian.hamiltonian_cycle(args.kind, dim)
        for w in cycle.vertices:
            print(format_vertex(w, dim))
        return 0
    vertices = _load_cycle(args, dim)
    check = hamiltonian.validate_cycle(args.kind, dim, vertices)
    if check.ok:
        print(f"valid: true ({len(vertices)} vertices)")
        return 0
    witness = " ".join(format_vertex(w, dim) for w in (check.witness or ()))
    print(f"valid: false ({check.reason}" + (f"; witness {witness}" if witness else "") + ")")
    return 1


def _cmd_verify_claims(args) -> int:
    report = claims.run_claims(args.n_values)
    text = report.to_json(include_timing=not args.no_timing)
    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(text)
        for record in report.records:
            marker = "PASS" if record.passed else "FAIL"
            print(f"{marker} {record.id}")
        print(f"overall: {'PASS' if report.overall_pass else 'FAIL'}")
    else:
        sys.stdout.write(text)
    return 0 if report.overall_pass else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "analyze": _cmd_analyze,
        "route": _cmd_route,
        "hamiltonian": _cmd_hamiltonian,
        "verify-claims": _cmd_verify_claims,
    }
    try:
        return handlers[args.command](args)
    except (InvalidVertexError, ResourceLimitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
