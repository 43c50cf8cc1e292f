"""The headline number: the largest d whose naive-encoder
`pavc verify --d d` (bounded mode) finishes within 60 seconds.

    python3 bench/headline.py

Run from the repository root.  For d = START, START+1, ... the formula
and meta file are generated in-process; verify then runs in a child
process that is stopped after LIMIT_S seconds.  The search ends at the
first d that does not finish (or fails).  Prints one JSON object with the
result, the wall time of every d tried, and the median time of the
benchmark's evaluator speed chunk (see speed.py) before each try: the
limit is a raw wall-clock limit on a machine whose speed varies.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402

START = 8
LIMIT_S = 60.0
WORK = ".bench_work/headline"
CHILD = ("import sys; sys.path.insert(0, 'src'); from pavc.cli import main; "
         "sys.exit(main(sys.argv[1:]))")


def chunk_time() -> float:
    times = []
    for _ in range(21):
        start = perf_counter()
        speed.evaluator_chunk()
        times.append(perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    sys.path.insert(0, "src")
    from pavc import cli

    os.makedirs(WORK, exist_ok=True)
    times: dict[int, float | None] = {}
    chunks: dict[int, float] = {}
    best = None
    try:
        for d in range(START, 17):
            pa, meta = f"{WORK}/naive{d}.pa", f"{WORK}/naive{d}.json"
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(["gen", "--d", str(d), "--out", pa, "--meta", meta]) != 0:
                    raise RuntimeError(f"gen --d {d} failed")
            chunks[d] = chunk_time()
            start = perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-c", CHILD, "verify", "--formula", pa, "--meta", meta],
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                    timeout=LIMIT_S, check=False)
            except subprocess.TimeoutExpired:
                times[d] = None
                break
            times[d] = perf_counter() - start
            if proc.returncode != 0:
                break
            best = d
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({
        "largest_d_within_limit": best,
        "limit_s": LIMIT_S,
        "verify_wall_s": {str(d): t for d, t in times.items()},
        "chunk_s": {str(d): t for d, t in chunks.items()},
        "nominal_chunk_s": speed.NOMINAL_S,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
