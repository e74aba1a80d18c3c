"""Steadiness check: run workloads on many seeds and report each metric's
median, quartiles and spread against its bound in BENCHMARK.json.

    python3 modembench/steady.py --runs 10 [--sets 2]

Run from the root of the checkout. Every workload of BENCHMARK.json runs
`--runs` times per set; set k takes the seeds k*runs+1 to (k+1)*runs, and
the sets of one workload run back to back. Each run is a separate process
of `modembench/run.py`, one after another, so they never compete for the
CPUs. The spread is (Q3 - Q1) / median with the quartiles of Python's
`statistics.quantiles(values, n=4)`. The benchmark is steady when every
end-to-end spread is within its bound (a third of it is the target), every
later set's median is within the bound of the first set's median in either
direction, every run is correct, and the share of failed operations is the
same in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    if proc.stderr.strip():
        result["stderr"] = proc.stderr.strip()
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def run_set(bench: dict, workload: str, seeds: range) -> list[dict]:
    results = []
    for seed in seeds:
        r = run_once(bench, workload, seed)
        results.append(r)
        print(f"{workload} seed {seed}: correct={r['correct']} "
              f"attempted={r['attempted']} failed={r['failed']} "
              f"wall={r['wall_s']:.1f}s", file=sys.stderr, flush=True)
        if r.get("stderr"):
            print("  " + r["stderr"].replace("\n", "\n  "), file=sys.stderr)
    return results


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    steady = True
    for w in bench["workloads"]:
        wl = w["name"]
        medians = []
        for k in range(args.sets):
            seeds = range(1 + k * args.runs, 1 + (k + 1) * args.runs)
            results = run_set(bench, wl, seeds)
            shares = {r["failed"] / r["attempted"] for r in results}
            correct = all(r["correct"] for r in results)
            missing = sorted(set(metrics) - set(results[0]["metrics"]))
            print(f"\n{wl} set {k + 1}: seeds {seeds.start}-{seeds.stop - 1}, "
                  f"all correct={correct}, failed shares {sorted(shares)}, "
                  f"wall median "
                  f"{statistics.median(r['wall_s'] for r in results):.1f}s"
                  + (f", MISSING {missing}" if missing else ""))
            steady = steady and correct and len(shares) == 1 and not missing
            medians.append({})
            for name, m in metrics.items():
                values = [r["metrics"][name]["value"] for r in results
                          if name in r["metrics"]]
                if len(values) < 2:
                    continue
                s = summarize(values)
                ok = s["spread"] <= m["bound"]
                steady = steady and ok
                verdict = (f"bound {m['bound']:.2f}  "
                           + ("ok" if s["spread"] <= m["bound"] / 3 else
                              "within bound" if ok else "TOO WIDE"))
                print(f"  {name:24s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                      f"q3 {s['q3']:.6g}  spread {s['spread']:.3f}  {verdict}")
                medians[k][name] = s["median"]
        # each later set against the first: the relative change of the
        # median, signed so that positive is worse
        for k in range(1, args.sets):
            print(f"{wl} set {k + 1} against set 1 (positive = worse):")
            for name, m in metrics.items():
                if name not in medians[0] or name not in medians[k]:
                    continue
                change = medians[k][name] / medians[0][name] - 1.0
                if m["better"] == "higher":
                    change = -change
                ok = abs(change) <= m["bound"]
                steady = steady and ok
                print(f"  {name:24s} {change:+.3f}  bound {m['bound']:.2f}  "
                      + ("ok" if ok else "APART"))
    print(f"\nsteady: {steady}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
