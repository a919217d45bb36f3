"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --workloads segment_default,learn_toy,dataset_cli \
        --seeds 1-10 [--trace 0|1] [--seconds 25] [--out FILE]

Run from the repository root.  Each run is a fresh ``perfbench/run.py``
process.  For every workload and metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the quartile
distance as a share of the median, next to the bound in BENCHMARK.json.
With ``--trace 1`` it also checks that runs with the same seed report
identical counts (every per-layer metric not measured in time).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TIME_UNITS = ("s", "s/s")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, trace, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    detail = next((json.loads(line.split(" ", 1)[1]) for line in lines
                   if line.startswith("perfbench-detail ")), {})
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": result, "detail": detail}


def summarize(values):
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "n": len(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    runs, summary, ok = [], {}, True
    for workload in args.workloads.split(","):
        mine = []
        for seed in parse_seeds(args.seeds):
            run = run_once(workload, seed, args.trace, seconds)
            res = run["result"]
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}",
                  flush=True)
            ok &= res["correct"]
            mine.append(run)
        runs.extend(mine)
        names = list(mine[0]["result"]["metrics"])
        summary[workload] = {}
        for name in names:
            stats = summarize([r["result"]["metrics"][name]["value"]
                               for r in mine])
            summary[workload][name] = stats
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" \
                    and stats["spread"] > bound / 3:
                flag = "  SPREAD ABOVE BOUND/3"
            if args.trace == 0 or bound is not None:
                print(f"  {name:28s} median {stats['median']:.6g} "
                      f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} "
                      f"spread {stats['spread']:.4f} bound {bound}{flag}")
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            by_seed = {}
            for r in mine:
                counts = {k: v["value"] for k, v in
                          r["result"]["metrics"].items()
                          if units[k] not in TIME_UNITS}
                by_seed.setdefault(r["seed"], []).append(counts)
            for seed, docs in by_seed.items():
                diff = sorted(k for k in docs[0]
                              if any(d[k] != docs[0][k] for d in docs[1:]))
                if len(docs) > 1:
                    ok &= not diff
                    print(f"  seed {seed}: {len(docs)} traced runs, counts "
                          + ("identical" if not diff else f"DIFFER: {diff}"))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": seconds, "trace": args.trace,
                       "summary": summary, "runs": runs}, fh, indent=1,
                      sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
