#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 slimbench/spread.py --workloads mammo,rows --seeds 1-10 --out set1.json

Runs are sequential, one process at a time.  For every workload and
metric it prints the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, which is
the distance between the quartiles as a share of the median, for the
reported metrics and for the wall-clock ones a run prints on standard
error.  --out keeps every run's result line and wall-clock metrics in
a JSON file under slimbench/work/.
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


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summary(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", default=None, help="file name under slimbench/work/")
    args = ap.parse_args()

    results = {}
    for wl in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join("slimbench", "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            wall = time.perf_counter() - t0
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            clock = next(json.loads(ln.split(":", 1)[1]) for ln in proc.stderr.splitlines()
                         if ln.startswith("wall-clock metrics:"))
            runs.append({"seed": seed, "wall_s": wall, **line, "wall_clock": clock})
            print(wl, seed, f"{wall:.1f}s", json.dumps(line), flush=True)
        results[wl] = runs
        for kind, get in (("", lambda r, name: r["metrics"][name]["value"]),
                          ("wall-clock ", lambda r, name: r["wall_clock"][name])):
            for name in runs[0]["metrics"]:
                vals = [get(r, name) for r in runs]
                if len(vals) >= 2:
                    s = summary(vals)
                    print(f"{wl:13s} {kind + name:32s} median {s['median']:.6g}  "
                          f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.3f}")
        print(f"{wl:13s} correct {all(r['correct'] for r in runs)}  "
              f"longest run {max(r['wall_s'] for r in runs):.1f} s  "
              f"failed {sum(r['failed'] for r in runs)} of "
              f"{sum(r['attempted'] for r in runs)}", flush=True)
    if args.out:
        os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
        with open(os.path.join(HERE, "work", args.out), "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
