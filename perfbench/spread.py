#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median and spread: the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median.

Run from the root of a checkout:

    python3 perfbench/spread.py --seeds 1-10 [--workloads campaign,serving]
        [--baseline perfbench/baseline.json]

With --baseline it also writes the values, medians, spreads and the host
stamp of the runs to that file.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--baseline")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"seeds": args.seeds, "run_seconds": bench["run_seconds"], "workloads": {}}
    for w in args.workloads.split(","):
        vals, host = {}, None
        for s in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            run = subprocess.run(cmd, capture_output=True, text=True, check=True)
            lines = run.stdout.strip().splitlines()
            host = json.loads(next(l for l in lines if l.startswith("# host "))[len("# host "):])
            res = json.loads(lines[-1])
            if res["failed"]:
                raise SystemExit(f"{w} seed {s}: {res['failed']} of {res['attempted']} operations failed")
            for k, v in res["metrics"].items():
                vals.setdefault(k, []).append(v["value"])
            print(f"{w} seed {s}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
                  file=sys.stderr, flush=True)
        rows = {}
        for k, v in sorted(vals.items()):
            q = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            rows[k] = {"median": med, "spread": (q[2] - q[0]) / med, "values": v}
            print(f"{w:14s} {k:18s} median {med:12.6g}  spread {rows[k]['spread']:.4f}  bound {bounds[k]}")
        out["workloads"][w] = rows
        out["host"] = host
    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump(out, f, indent=2, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
