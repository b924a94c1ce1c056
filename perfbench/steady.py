#!/usr/bin/env python3
"""Steadiness of the benchmark: run each workload N times, each with its
own seed, and print the median, quartiles and relative spread of every
end-to-end metric against its bound in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10                 # every workload
    python3 perfbench/steady.py --runs 5 --workloads dse_campaign
    python3 perfbench/steady.py --runs 10 --aa            # A/A comparison
    python3 perfbench/steady.py --runs 1 --first-seed 7   # every metric, one seed

Every run lasts run_seconds of BENCHMARK.json.  The spread is
(q3 - q1) / median with Python's statistics.quantiles(n=4).  A metric is
steady when its spread is below a third of its bound.  --aa makes two sets
of runs of the same code on the same seeds, interleaved, and checks that
the second set's spread is within the bound and its median is not worse
than the first's by more than the bound.  Run from the root of a source
checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       timeout=900)
    lines = r.stdout.decode().strip().splitlines()
    if r.returncode != 0 or not lines:
        raise SystemExit("%s seed %d: exit %d" % (workload, seed, r.returncode))
    out = json.loads(lines[-1])
    if not out["correct"] or out["failed"]:
        raise SystemExit("%s seed %d: outputs failed their checks" % (workload, seed))
    return {k: v["value"] for k, v in out["metrics"].items()}


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(metric, a, b):
    """How much worse b is than a, as a share of a (negative: better)."""
    d = (b - a) / a if a else 0.0
    return d if metric["better"] == "lower" else -d


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--aa", action="store_true")
    a = ap.parse_args()
    spec = load_spec()
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if a.workloads:
        names = [n for n in a.workloads.split(",") if n in names]
    seeds = list(range(a.first_seed, a.first_seed + a.runs))
    print("nproc %d, load average %s, %d s runs, seeds %d..%d"
          % (len(os.sched_getaffinity(0)), os.getloadavg(), seconds,
             seeds[0], seeds[-1]), flush=True)
    ok = True
    for w in names:
        sets = [[], []] if a.aa else [[]]
        for seed in seeds:
            for s in sets:
                s.append(run_once(spec, w, seed, seconds))
        print("\n== %s (%d runs%s) ==" % (w, a.runs, ", A/A" if a.aa else ""))
        print("  %-20s %12s %12s %12s %8s %6s  %s"
              % ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = [r[name] for r in sets[0]]
            med, q1, q3, sp = spread(vals)
            if sp < bound / 3:
                verdict = "steady"
            elif sp <= bound:
                verdict = "within bound"
            else:
                verdict, ok = "TOO WIDE", False
            print("  %-20s %12.6g %12.6g %12.6g %8.4f %6.3f  %s"
                  % (name, med, q1, q3, sp, bound, verdict))
            if a.aa:
                med_b, q1_b, q3_b, sp_b = spread([r[name] for r in sets[1]])
                d = worse_by(m, med, med_b)
                verdict = "agree" if d <= bound and sp_b <= bound else "DISAGREE"
                ok = ok and verdict == "agree"
                print("  %-20s %12.6g %12.6g %12.6g %8.4f  second set, worse by %+.4f  %s"
                      % ("", med_b, q1_b, q3_b, sp_b, d, verdict))
        sys.stdout.flush()
    print("\nload average after: %s" % (os.getloadavg(),))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
