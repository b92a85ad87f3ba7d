#!/usr/bin/env python3
"""Run every workload over several seeds, summarise, and write BENCHMARK.json.

    python3 bench/all.py                         # seed 1, all four workloads
    python3 bench/all.py --seeds 1 2 3 4 5 6 7 8 9 10 --out bench/baseline.json

Each (workload, seed) is one `bench/run.py --trace 0` process, seeds in the
outer loop so that slow spells of the machine spread over all workloads.
Each end-to-end metric is reported as the median over seeds with its
spread, the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median, next to the bound
BENCHMARK.json gives it.  Then one `--trace 1` run per workload (first
seed) prints the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(spec.WORKLOADS),
                        choices=list(spec.WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--out", help="also write every result object to this JSON file")
    args = parser.parse_args(argv)

    runs = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for w in args.workloads:
            result = run_once(w, seed, args.seconds, 0)
            runs[w].append({"seed": seed, **result})
            print(f"{w:16s} seed {seed:3d}: "
                  f"{result['failed']}/{result['attempted']} failed, "
                  + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)

    summary = {}
    print(f"\n{'workload':16s} {'metric':14s} {'unit':5s} {'median':>12s} {'spread':>8s} "
          f"{'bound':>6s}  fail_frac")
    for w in args.workloads:
        attempted = sum(r["attempted"] for r in runs[w])
        failed = sum(r["failed"] for r in runs[w])
        summary[w] = {}
        for name, unit, _, bound in spec.END_TO_END:
            med, sp = spread([r["metrics"][name]["value"] for r in runs[w]])
            summary[w][name] = {"median": med, "spread": sp, "unit": unit}
            flag = "" if sp < bound / 3 else ("  above bound/3" if sp <= bound else "  ABOVE BOUND")
            print(f"{w:16s} {name:14s} {unit:5s} {med:12.6g} {sp:8.4f} {bound:6.2f}  "
                  f"{failed / attempted:.4g}{flag}")

    traced = {}
    for w in args.workloads:
        result = run_once(w, args.seeds[0], args.seconds, 1)
        traced[w] = result
        print(f"\n{w} (traced, seed {args.seeds[0]}): "
              f"{result['failed']}/{result['attempted']} failed")
        for name, m in result["metrics"].items():
            print(f"  {name:52s} {m['value']:14.6g} {m['unit']}")

    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seconds": args.seconds, "runs": runs, "summary": summary, "traced": traced},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
