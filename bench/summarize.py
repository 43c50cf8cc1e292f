"""Run one workload under several seeds and report each metric's spread.

    python3 bench/summarize.py --workload eliminate --seeds 1-10 --seconds 20

Each run is a fresh `bench/run.py` process, one after another.  For each
metric the script prints the median over the runs and the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median, the spread the benchmark's bounds are checked
against.  --json appends the summary as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range lo-hi")
    p.add_argument("--seconds", default="10")
    p.add_argument("--json", action="store_true")
    args = p.parse_args()
    runs = []
    for seed in seeds_of(args.seeds):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=False)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(last)
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
              flush=True)
    summary = {name: {"unit": runs[0]["metrics"][name]["unit"],
                      **summarize([r["metrics"][name]["value"] for r in runs])}
               for name in runs[0]["metrics"]}
    for name, s in summary.items():
        print(f"{name:32s} median {s['median']:14.6g} {s['unit']:6s} "
              f"IQR/median {s['spread']:.4f}")
    if args.json:
        print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                          "runs": len(runs), "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
