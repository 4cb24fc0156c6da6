"""Run the benchmark over several seeds and summarise its run-to-run spread.

    python3 perfbench/collect.py --seeds 101-110 --out record.json
    python3 perfbench/collect.py --workloads wide-random --seeds 1-5

Run from the root of a source tree.  For each workload it runs
``perfbench/run.py`` once per seed with tracing off, checks that every
result line has the shape ``BENCHMARK.json`` promises, and prints each
end-to-end metric's median and its spread: the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  A spread above a third of the metric's bound is flagged, because a
comparison between two sets of runs cannot resolve a change smaller than
the spread.  With ``--trace-seed`` it adds one traced run per workload.
With ``--out`` the whole record, including the environment block, is written
as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expected = SPEC["per_layer" if trace else "end_to_end"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != {m["name"]: m["unit"] for m in expected}:
        raise RuntimeError(f"metrics {got} do not match BENCHMARK.json")
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    notes = [line for line in lines if line.startswith("known defect")]
    return {"seed": seed, "wall_s": wall, "env": env, "notes": notes, **result}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    p.add_argument("--trace-seed", type=int)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    record = {"run_seconds": SPEC["run_seconds"], "seeds": args.seeds, "workloads": {}}
    why = {w["name"]: w["why"] for w in SPEC["workloads"]}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            run = run_once(workload, seed, 0)
            record["env"] = run.pop("env")
            runs.append(run)
            print(f"{workload} seed {seed}: wall {run['wall_s']:.1f}s correct {run['correct']} "
                  f"failed {run['failed']}/{run['attempted']} "
                  + " ".join(f"{k}={m['value']:.6g}" for k, m in run["metrics"].items()),
                  flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": share, "bound": bound}
            flag = "" if share <= bound / 3 else "  <-- above bound/3"
            print(f"  {name}: median {med:.6g}  spread {share:.4f}  bound {bound}{flag}")
        entry = {"why": why[workload], "notes": sorted({n for r in runs for n in r["notes"]}),
                 "runs": runs, "summary": summary,
                 "max_wall_s": max(r["wall_s"] for r in runs)}
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, 1)
            traced.pop("env")
            entry["traced"] = traced
            print(f"  traced seed {args.trace_seed}: "
                  + " ".join(f"{k}={m['value']:.4g}" for k, m in traced["metrics"].items()))
        record["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
