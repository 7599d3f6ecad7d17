"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload claims-6-10 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the package is imported from `src/`
there and nowhere else.  With `--trace 0` the result holds the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics of a traced run,
whose spans are written under `.perfbench/`.  Times are reported at the
reference speed of pace.py.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench"
# Route rounds after each timed round of claims-6-10 and graphs-18, which
# give those workloads their route metrics; see README.md.
PROBE_ROUNDS = 4
# Set-ups timed in fresh child processes per run, for the workloads whose
# set-up is short; setup_s is their median.
SETUP_CHILDREN = 15
CHILD_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def find_package() -> str | None:
    """The checkout's src/ directory when it holds the package, else None."""
    src = os.path.join(os.getcwd(), "src")
    return src if os.path.isfile(os.path.join(src, "shufflecube", "__init__.py")) else None


def timed_rounds(w, seconds, tracer=None, probe=None):
    """Whole rounds until `seconds` of timed calls have passed.

    With a tracer, rounds alternate untraced and traced, starting untraced,
    and at least two untraced rounds and one traced round run.  With a probe, PROBE_ROUNDS route rounds follow every round.
    Returns (untraced rounds, traced rounds, attempted, failed), a round as
    (seconds at the reference speed, seconds).
    """
    plain, traced = [], []
    attempted = failed = 0
    elapsed = 0.0
    while elapsed < seconds or (tracer is not None and len(plain) < 2):
        trace_this = tracer is not None and len(plain) > len(traced)
        if trace_this:
            tracer.install()
            tracer.begin(f"round {len(plain) + len(traced)}")
        out = w.call()
        if trace_this:
            tracer.end(out.wall)
            tracer.uninstall()
        (traced if trace_this else plain).append((out.wall, out.raw))
        a, f = w.check(out)
        attempted += a
        failed += f
        elapsed += out.raw
        for _ in range(PROBE_ROUNDS if probe else 0):
            a, f = probe.check(probe.call(w.mods))
            attempted += a
            failed += f
    return plain, traced, attempted, failed


def child_setups(name: str, src: str) -> list[float]:
    """setup_s samples: one set-up per fresh process, each at the reference speed."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "workloads.py"), name, src]
    out = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        out.append(float(proc.stdout))
    return out


def run(args, src: str) -> dict:
    import pace
    import workloads
    from spans import Tracer, maxrss_mb

    os.makedirs(OUT_DIR, exist_ok=True)
    w = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    setups = child_setups(w.name, src) if w.setup_in_child and not args.trace else []
    tracer = None
    with pace.Bracket() as b:
        w.load()
        if args.trace:
            tracer = Tracer()
            tracer.install()
            tracer.begin("setup")
        t1 = time.perf_counter()
        w.prepare()
        if tracer is not None:
            tracer.end(time.perf_counter() - t1)
            tracer.uninstall()
    if not w.setup_in_child:
        setups.append(b.scaled)
    correct = w.setup_ok()

    probe = None
    if tracer is None and w.routes is None:
        probe = w.routes = workloads.RouteBatch(args.seed)
        probe.warm_up(w.mods)
    plain, traced, attempted, failed = timed_rounds(w, args.seconds, tracer, probe)
    peak_rss = maxrss_mb()

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(wall for wall, _ in plain), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
        units = {"routes_per_s": "1/s", "route_p50_us": "us", "route_p99_us": "us", "distances_per_s": "1/s"}
        metrics.update({k: (v, units[k]) for k, v in w.routes.metrics().items()})
    else:
        metrics = per_layer(tracer, plain, traced)
        tracer.dump(os.path.join(OUT_DIR, f"trace-{w.name}-seed{args.seed}"))

    correct = w.final_ok() and correct
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def per_layer(tracer, plain, traced) -> dict:
    """The set-up segment plus the mean traced round, and the tracing overhead.

    Spans are in plain seconds and hold the reference interrupts of pace.py;
    the overhead compares rounds at the reference speed, which leave them out.
    The first round of a process pays one-time costs, so the overhead leaves
    it out.
    """
    from spans import METRICS, unit_of

    setup, *rounds = tracer.segments
    total = tracer.summarize(setup)
    for seg in rounds:
        for k, v in tracer.summarize(seg).items():
            total[k] += v / len(rounds)
    total["trace.overhead_s"] = statistics.median(wall for wall, _ in traced) - statistics.median(
        wall for wall, _ in plain[1:])
    total["trace.spans"] = sum(s["last"] - s["first"] for s in rounds) / len(rounds)
    return {k: (total[k], unit_of(k)) for k in METRICS}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = find_package()
    if src is None:
        print("run.py: no src/shufflecube here; run it from the root of a shufflecube checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH_DIR)
    spec = importlib.util.find_spec("shufflecube")
    if spec is None or not spec.origin.startswith(src + os.sep):
        print(f"run.py: shufflecube resolves outside {src}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = run(args, src)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
