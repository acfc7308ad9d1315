"""Run the benchmark over several seeds and report each metric's spread.

Usage:
    python3 perfbench/spread.py --workloads sim-long,audit-long --seeds 1-10 \
        [--trace 0|1] [--out perfbench/out/spread.json]

For every workload it prints each metric's median over the runs and the
distance between its first and third quartile (statistics.quantiles, n=4)
as a share of the median; a gated metric also shows its bound from
BENCHMARK.json. The benchmark is steady when every spread but setup_s stays
below a third of its bound. Seeds run in the order given; run length is
BENCHMARK.json's run_seconds. --out keeps the summary with every value and
the output digests of each seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import UNITS

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(last stdout line, result file) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result_file = ROOT / "perfbench" / "out" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(result_file.read_text())


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0, "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "trace": args.trace}
    for workload in args.workloads.split(","):
        runs, named, digests = [], [], {}
        for seed in parse_seeds(args.seeds):
            result, detail = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append(result)
            named.append(detail["metrics"])
            digests[seed] = {v["verb"]: v["digests"] for v in detail["reps"][0]["verbs"]}
            if detail["audit_input"]:
                digests[seed]["audit_input"] = detail["audit_input"]["sha256"]
            summary.setdefault("commit", detail["commit"])
            summary.setdefault("environment", detail["environment"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
        metrics = {}
        for name in named[0]:
            row = metrics[name] = summarize([m[name] for m in named])
            row["unit"] = runs[0]["metrics"].get(name, {}).get("unit") or UNITS[name]
            bound = bounds.get(name)
            flag = "" if bound is None else ("ok" if row["spread"] < bound / 3 else "WIDE")
            print(f"{workload:<11} {name:<34} median {row['median']:>12.6g} {row['unit']:<6} "
                  f"spread {row['spread']:7.4f}  bound {bound if bound is not None else '-'} {flag}")
        summary[workload] = {
            "seeds": parse_seeds(args.seeds),
            "all_correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
            "digests": digests,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
