#!/usr/bin/env python3
"""Run the benchmark on several seeds and record medians and spreads.

    python3 benchmarks/record.py --runs 10 --out benchmarks/baseline.json
    python3 benchmarks/record.py --runs 5 --workloads world_lp

For every workload it makes ``--runs`` untraced runs (seeds 1..runs) and
reports, per end-to-end metric, the median and the spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median.  With ``--traced`` it also makes two traced runs on
seed 1 and checks that every count (``.calls``, ``.stages``, ``.states``,
``adversary.sequences``) repeats exactly.  Each run is its own process,
started one after the other.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COUNTS = (".calls", ".stages", ".states", "adversary.sequences")


def run(name: str, seed: int, trace: int) -> dict:
    """One run of run.py, for run_seconds of BENCHMARK.json."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
         str(seed), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{name} seed {seed} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["machine"] = lines[0].removeprefix("machine: ")
    if not result["correct"]:
        raise SystemExit(f"{name} seed {seed}: {result['failed']} of "
                         f"{result['attempted']} ops failed")
    return result


def main() -> None:
    with open(HERE.parent / "BENCHMARK.json") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    names = [w["name"] for w in bench["workloads"]]
    p.add_argument("--workloads", nargs="+", default=names, choices=names)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--out", help="write the record as JSON")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for name in args.workloads:
        seeds = list(range(1, args.runs + 1))
        results = [run(name, s, 0) for s in seeds]
        record["machine"] = results[0]["machine"]
        entry = {"seeds": seeds,
                 "attempted": [r["attempted"] for r in results],
                 "failed": [r["failed"] for r in results], "metrics": {}}
        print(f"{name} ({args.runs} runs)")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            entry["metrics"][metric] = {
                "unit": results[0]["metrics"][metric]["unit"],
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "values": values}
            flag = "" if spread < bound / 3 else "  <-- above bound/3"
            print(f"  {metric:12s} median {med:12.5f}  spread {spread:7.4f}"
                  f"  bound {bound}{flag}")
        if args.traced:
            first, second = run(name, 1, 1), run(name, 1, 1)
            traced = {k: v["value"] for k, v in first["metrics"].items()}
            unstable = [k for k in traced if k.endswith(COUNTS)
                        and traced[k] != second["metrics"][k]["value"]]
            entry["traced_seed1"] = traced
            entry["unstable_counts"] = unstable
            print(f"  traced: counts repeat exactly: {not unstable} "
                  f"{unstable or ''}")
            for k, v in traced.items():
                if k.endswith("self_share") or k.endswith("overhead_share"):
                    print(f"    {k:36s} {v:8.4f}")
        record["workloads"][name] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
