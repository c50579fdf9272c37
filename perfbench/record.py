"""Record a perf-trajectory entry: run the benchmark on several seeds per
workload, plus one traced run each, and write the results as JSON.

    python3 perfbench/record.py --out perfbench/records/BENCH_0_seed.json

For every end-to-end metric the record keeps each run's value, the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, and the same for
the run's plain wall-clock figures.  Spreads at or
above a third of a metric's bound are flagged: such a metric is not steady
enough to detect a regression of that size.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WALL_CLOCK = "wall-clock (not host-normalized): "


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    env = next(json.loads(line.split(": ", 1)[1]) for line in lines
               if line.startswith("environment: "))
    wall = {}
    for line in lines:
        if line.startswith(WALL_CLOCK):
            wall = {k: float(v) for k, v in
                    (item.split("=") for item in line[len(WALL_CLOCK):].split())}
    return {"seed": seed, "environment": env, "wall_clock": wall, **json.loads(lines[-1])}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N per workload")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {name: [] for name in names}
    for seed in range(1, args.seeds + 1):
        for name in names:
            result = run_once(name, seed, args.seconds, 0)
            runs[name].append(result)
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    record = {"run_seconds": args.seconds, "environment": None, "workloads": {}}
    steady = True
    for name in names:
        traced = run_once(name, 1, args.seconds, 1)
        record["environment"] = traced.pop("environment")
        end_to_end = {}
        for metric, bound in bounds.items():
            summary = summarize([r["metrics"][metric]["value"] for r in runs[name]])
            summary["unit"] = runs[name][0]["metrics"][metric]["unit"]
            summary["bound"] = bound
            wall = [r["wall_clock"][metric] for r in runs[name] if metric in r["wall_clock"]]
            if len(wall) == len(runs[name]):
                summary["wall_clock"] = summarize(wall)
            end_to_end[metric] = summary
            flag = "" if summary["spread"] < bound / 3 else "  <-- spread >= bound/3"
            if flag and metric != "setup_s":
                steady = False
            wall_spread = summary.get("wall_clock", {}).get("spread")
            print(f"{name:18s} {metric:12s} median {summary['median']:10.4g} "
                  f"spread {summary['spread']:.3f} (bound {bound}){flag}"
                  + ("" if wall_spread is None else f"; wall-clock spread {wall_spread:.3f}"))
        record["workloads"][name] = {
            "correct": all(r["correct"] for r in runs[name]) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs[name]),
            "failed": sum(r["failed"] for r in runs[name]),
            "end_to_end": end_to_end,
            "per_layer": {"seed": 1, **traced["metrics"]},
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}; every spread below a third of its bound: {steady}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
