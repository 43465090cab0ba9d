#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and report the spread.

Usage, from the repository root:

    python3 wallbench/steady.py [--workloads a,b] [--runs 10] [--sets 1]
        [--first-seed 1] [--seconds <s>] [--trace 0|1]

Each run is ``wallbench/run.py`` with its own seed (first-seed, first-seed+1,
...). Per workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median. With ``--trace 0`` each end-to-end spread is compared
with the metric's bound in BENCHMARK.json: ``ok`` below a third of the bound,
``WIDE`` below the bound, ``OVER`` beyond it. ``setup_s`` is exempt from the
spread rule. With ``--sets 2`` the same seeds run twice and each metric's
second median is compared with the first against the same bound, as is the
share of failed operations. Exits 1 if any run fails or any check is not met.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: a correctness check failed")
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            results = []
            for seed in seeds:
                r = run_once(workload, seed, args.seconds, args.trace)
                print(f"{workload} set {s + 1} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()
                    if args.trace or k in bounds), flush=True)
                results.append(r)
            sets.append(results)
        print(f"\n{workload}: {args.runs} runs x {args.sets} set(s), {args.seconds} s each")
        print(f"  {'metric':30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  verdict")
        for name in sets[0][0]["metrics"]:
            bound = bounds.get(name)
            meds = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                med, q1, q3, sp = spread(values)
                meds.append(med)
                verdict = ""
                if bound is not None and name != "setup_s":
                    verdict = "ok" if sp < bound / 3 else ("WIDE" if sp <= bound else "OVER")
                    ok &= verdict != "OVER"
                print(f"  {name:30} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.4f}  {verdict}")
            if len(meds) == 2 and bound is not None:
                better = next(m["better"] for m in manifest["end_to_end"] if m["name"] == name)
                worse = (meds[1] - meds[0]) / meds[0] if better == "lower" else (meds[0] - meds[1]) / meds[0]
                agree = worse <= bound
                ok &= agree
                print(f"  {'':30} second set {worse:+.4f} worse than first (bound {bound}): "
                      f"{'agree' if agree else 'DISAGREE'}")
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in sets]
        same = all(sh == shares[0] for sh in shares)
        ok &= same
        print(f"  failed share per set: {shares} {'(equal)' if same else '(DIFFERENT)'}\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
