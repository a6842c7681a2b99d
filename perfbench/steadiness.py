#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how steady it is.

For every workload and seed this runs, one after the other,

    bash perfbench/run.sh --workload W --seed S --seconds N --trace 0

from the repository root, then prints, for each end-to-end metric, the
median, the first and third quartiles (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median next to the metric's bound from
BENCHMARK.json. A spread above a third of the bound is flagged
"wide", one above the bound "UNSTEADY"; setup_s is reported but judged
only on its median. With --out the figures are also written as JSON.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b] [--out F]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace=0):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    info = {}
    for line in lines[:-1]:
        obj = json.loads(line)
        info.update(obj.get("info", {}))
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect or failed requests: {lines[-1]}")
    return result, info, wall


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)

    report = {"seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for w in workloads:
        values, infos, walls = {}, [], []
        for s in seeds:
            result, info, wall = run_once(w, s, bench["run_seconds"])
            walls.append(wall)
            infos.append(info)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {s}: {wall:.1f}s " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())), file=sys.stderr)
        rows = {}
        print(f"\n{w}: {len(seeds)} runs, mean wall {statistics.mean(walls):.1f}s")
        for name in sorted(values):
            row = summarize(values[name])
            row["bound"] = bounds.get(name)
            verdict = ""
            if name != "setup_s" and row["bound"] is not None:
                if row["spread"] > row["bound"]:
                    verdict = "UNSTEADY"
                elif row["spread"] > row["bound"] / 3:
                    verdict = "wide"
            row["verdict"] = verdict or "ok"
            rows[name] = row
            print(f"  {name:20s} median {row['median']:12.4f}  q1 {row['q1']:12.4f}  q3 {row['q3']:12.4f}"
                  f"  spread {row['spread']:.4f}  bound {row['bound']}  {verdict}")
        report["workloads"][w] = {
            "metrics": rows,
            "mean_wall_s": statistics.mean(walls),
            "values": values,
            "info": infos,
        }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
