#!/usr/bin/env python3
"""Stability record for the benchmark.

Runs every workload in two interleaved sets of runs (A1 B1 A2 B2 ...).
Run i of each set uses seed i, so the sets measure the same inputs and
every seed's output digest must repeat. For each end-to-end metric it
records each set's median, quartiles (``statistics.quantiles(n=4)``)
and spread (interquartile range over median), how far set B's median
moved from set A's in the metric's worse direction, and whether both
stay within the metric's bound (the spread of ``setup_s`` excepted)
and whether the spreads stay below a third of it. The same summaries
of the unscaled timings and of the runs' host-speed factors show what
the yardstick scaling did. One traced run per workload adds the
per-layer numbers. Exits 1 if a metric leaves its bound, an output
digest does not repeat, or a traced run's layers cover less than 95%
of its wall time.

Run from the repository root:

    python3 benchmark/stability.py [--runs 10] [--out benchmark/results/baseline.json]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command + args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: checks failed\n{proc.stderr}")
    return info, result


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (default 10)")
    parser.add_argument("--out", default="benchmark/results/baseline.json")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command, seconds = bench["command"], bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    record = {
        "command": command,
        "run_seconds": seconds,
        "runs_per_set": opts.runs,
        "cores": os.cpu_count(),
        "workloads": {},
    }
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = [{name: [] for name in metrics}, {name: [] for name in metrics}]
        unscaled = [{}, {}]
        digests = [{}, {}]
        for i in range(1, opts.runs + 1):
            for s in (0, 1):
                info, result = run(command, workload, i, seconds, 0)
                for name in metrics:
                    sets[s][name].append(result["metrics"][name]["value"])
                for name, value in info["unscaled"].items():
                    unscaled[s].setdefault(name, []).append(value)
                unscaled[s].setdefault("host_speed", []).append(info["host_speed"])
                digests[s][i] = info["output_digest"]
                print(f"{workload} set {'AB'[s]} seed {i}: "
                      + " ".join(f"{n}={v:.6g}" for n, v in
                                 ((n, result['metrics'][n]['value']) for n in metrics)),
                      file=sys.stderr)
        summaries = [{name: summary(v) for name, v in st.items()} for st in sets]
        checks = {}
        for name, m in metrics.items():
            a, b = summaries[0][name]["median"], summaries[1][name]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            spreads = [st[name]["spread"] for st in summaries]
            # setup_s is held to its median only; every other metric's
            # spread must also stay within its bound.
            within = worse <= m["bound"] and (
                name == "setup_s" or max(spreads) <= m["bound"])
            checks[name] = {
                "bound": m["bound"],
                "median_shift_worse": worse,
                "within_bound": within,
                "spread_below_third_of_bound": max(spreads) < m["bound"] / 3,
            }
            ok &= within
        digests_repeat = digests[0] == digests[1]
        ok &= digests_repeat
        info, traced = run(command, workload, 1, seconds, 1)
        coverage = traced["metrics"]["trace.coverage"]["value"]
        ok &= coverage >= 0.95
        record["workloads"][workload] = {
            "set_a": summaries[0],
            "set_b": summaries[1],
            "set_a_unscaled": {n: summary(v) for n, v in unscaled[0].items()},
            "set_b_unscaled": {n: summary(v) for n, v in unscaled[1].items()},
            "checks": checks,
            "output_digests": digests[0],
            "digests_repeat": digests_repeat,
            "traced_seed_1": {n: v["value"] for n, v in traced["metrics"].items()},
            "traced_info": info,
        }
    record["all_checks_pass"] = ok
    os.makedirs(os.path.dirname(opts.out), exist_ok=True)
    with open(opts.out, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    print(f"wrote {opts.out}; all checks pass: {ok}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
