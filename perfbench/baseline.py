"""Measure and publish a baseline: end-to-end medians, traced per-layer
medians and the tracing overhead, per workload.

    python3 perfbench/baseline.py --seeds 1,2,3 --out perfbench/baseline_seed.json

For each workload and seed it makes one untraced run and then one traced
run, so each overhead figure compares two neighbouring runs of the same
inputs.  The tracing overhead is the traced pass time (trace.run_s) over
the untraced one (run_s), minus one.  run.py reads the mpmath backend
recorded here and refuses to run under another backend.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("system-ladder", "kernel-windows", "cli-sweep")


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("%s seed %s trace %s failed:\n%s"
                         % (workload, seed, trace, out.stderr))
    env = next(json.loads(line[4:]) for line in lines
               if line.startswith("env "))
    return env, json.loads(lines[-1])


def run_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]


def medians(results):
    names = results[0]["metrics"]
    return {k: {"value": statistics.median(r["metrics"][k]["value"]
                                           for r in results),
                "unit": names[k]["unit"]} for k in names}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1,2,3")
    p.add_argument("--seconds", type=int, default=run_seconds())
    p.add_argument("--out", default=os.path.join(HERE, "baseline_seed.json"))
    args = p.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    doc = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for w in WORKLOADS:
        plain, traced, overhead = [], [], []
        for seed in seeds:
            env, res = run(w, seed, args.seconds, 0)
            _, tres = run(w, seed, args.seconds, 1)
            plain.append(res)
            traced.append(tres)
            overhead.append(tres["metrics"]["trace.run_s"]["value"]
                            / res["metrics"]["run_s"]["value"] - 1)
            print(w, seed, "overhead %.3f" % overhead[-1], flush=True)
        doc["env"] = env
        doc["workloads"][w] = {
            "correct": all(r["correct"] for r in plain + traced),
            "end_to_end": medians(plain),
            "per_layer": medians(traced),
            "tracing_overhead": {"median": statistics.median(overhead),
                                 "runs": overhead}}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
