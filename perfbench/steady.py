"""Run every workload in two separate sets of ten runs and say whether they agree.

    python3 perfbench/steady.py                          # every workload
    python3 perfbench/steady.py --workload routes-18     # one workload

Run it from the root of a checkout.  Each run is a fresh `run.py` process
of `run_seconds` (from BENCHMARK.json), one after another, each with its own
seed: seeds 1-10 make the first set and 11-20 the second.  For every
end-to-end metric the table shows each set's median and spread (the
distance between the first and third quartiles over the median), and how far
the second median lies from the first, as a share of the first.  A metric
agrees when neither spread and not that distance exceeds its bound in
BENCHMARK.json; "wide" marks a spread above a third of the bound.  The share
of failed operations must be the same in every run.  Exits 0 when everything
agrees, 1 otherwise.  The runs are saved under .perfbench/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 900
RUNS = 10  # per set
SETS = 2


def load_spec() -> dict:
    with open("BENCHMARK.json") as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def report(spec: dict, workload: str, sets: list[list[dict]]) -> bool:
    shares = {Fraction(r["failed"], r["attempted"]) for runs in sets for r in runs}
    correct = all(r["correct"] for runs in sets for r in runs)
    print(f"\n{workload}: {sum(map(len, sets))} runs, failed share {sorted(map(float, shares))}, "
          f"correct {correct}")
    ok = len(shares) == 1 and correct
    print(f"  {'metric':<16} {'unit':<5} {'bound':>6} {'median1':>12} {'spread1':>8} "
          f"{'median2':>12} {'spread2':>8}  {'apart':>7}  verdict")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        row = f"  {name:<16} {m['unit']:<5} {bound:>6.2f}"
        medians, spreads = [], []
        for runs in sets:
            values = [r["metrics"][name]["value"] for r in runs]
            medians.append(statistics.median(values))
            spreads.append(spread(values))
            row += f" {medians[-1]:>12.5g} {spreads[-1]:>8.3f}"
        apart = abs(medians[1] - medians[0]) / medians[0]
        row += f"  {apart:>7.3f}"
        if apart > bound or max(spreads) > bound:
            verdict = "DISAGREE"
        elif max(spreads) > bound / 3:
            verdict = "wide"
        else:
            verdict = "ok"
        ok &= verdict != "DISAGREE"
        print(row + "  " + verdict)
    return ok


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=names, help="repeatable; default: every workload")
    args = p.parse_args(argv)

    os.makedirs(".perfbench", exist_ok=True)
    results, ok = {}, True
    for workload in args.workload or names:
        sets = []
        for s in range(SETS):
            runs = []
            for i in range(RUNS):
                seed = 1 + s * RUNS + i
                t0 = time.perf_counter()
                r = run_once(workload, seed, spec["run_seconds"])
                runs.append(r)
                print(f"{workload} set {s + 1} seed {seed}: {time.perf_counter() - t0:.1f} s, "
                      f"attempted {r['attempted']}, failed {r['failed']}, correct {r['correct']}", flush=True)
            sets.append(runs)
        results[workload] = sets
        ok &= report(spec, workload, sets)
    path = os.path.join(".perfbench", f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump(results, fh)
    print(f"\n{'all metrics agree' if ok else 'NOT STEADY'}; runs saved to {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
