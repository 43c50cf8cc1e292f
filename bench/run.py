"""pavc benchmark: one closed-loop client, in one process.

    python3 bench/run.py --workload eliminate --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root; pavc is imported from ./src.  Set-up
imports pavc and writes the run's inputs (under .bench_work/); it is
repeated SETUP_REPEATS times and `setup_s` is the median.  The run then
makes passes over the workload's operations, one at a time, and starts
another pass only while it is predicted to end within --seconds (there
is always at least one).  Every answer is checked against the
benchmark's own reference; a refusal known today (cap kind named in
workloads.py) counts towards `failed_share`, not as a failure of the run.
Times are scaled to a nominal machine speed sampled during the run
(speed.py); the unscaled pass and set-up times are in the details line.

--trace 0 reports the end-to-end metrics.  --trace 1 makes one untraced
pass, then wraps pavc's layer entry points (see tracer.py) and makes
traced passes; it reports the per-layer metrics of the traced passes and
`trace.overhead_s`, the traced pass's wall time minus the untraced one's.
The spans are written to .bench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it print every
metric by name and unit, and a JSON line of details: operation counts,
failed_share and wrong_share, and refusals by cap kind.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
WORK_DIR = ".bench_work"
OUT_DIR = ".bench_out"

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "top_op_s": "s", "op_p50_ms": "ms",
    "op_p90_ms": "ms", "peak_rss_mb": "MB",
}
# printed with every run but not gated: the shares are 0 on some workloads
# by design, and emitted_bytes would rise with report telemetry
REPORTED_UNITS = {"op_samples": "count", "failed_share": "ratio",
                  "wrong_share": "ratio", "emitted_bytes": "bytes"}
COUNTS = ("calls", "exit3", "atoms_in", "witnesses", "refused", "atoms_out",
          "members", "ell")


def unit_of(name: str) -> str:
    """Units of the per-layer metrics, from the name's last part."""
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    if last.endswith("_per_point"):
        return "us"
    if last.endswith(COUNTS):
        return "count"
    return "ratio"


_CAP_RE = re.compile(r"(\w[\w ]*?) cap exceeded")


class BenchError(RuntimeError):
    pass


def cap_kind(message: str) -> str:
    if "subsets exceed the cap" in message:
        return "subsets"
    m = _CAP_RE.search(message)
    return m.group(1) if m else "other"


def import_pavc(src: str):
    """A fresh import of pavc from `src`, so each set-up pays for it."""
    for name in [m for m in sys.modules if m == "pavc" or m.startswith("pavc.")]:
        del sys.modules[name]
    pv = importlib.import_module("pavc")
    for sub in ("cli", "fuzz"):
        importlib.import_module(f"pavc.{sub}")
    if os.path.dirname(os.path.abspath(pv.__file__)) != os.path.join(src, "pavc"):
        raise BenchError(f"pavc was imported from {pv.__file__}, not {src}")
    return pv


def reset_peak() -> bool:
    """Reset the process's peak resident memory (VmHWM) to its current
    resident memory.  Returns False where the kernel does not allow it;
    the peak then runs from the start of the process."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


def peak_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise BenchError("no VmHWM in /proc/self/status")


def execute(pv, op: workloads.Op) -> dict:
    """Run one operation; time only the call itself, and take the peak
    resident memory over the call alone, so that set-up and the answer
    checks cannot set it."""
    res = {"name": op.name, "bytes": 0}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        res["peak_reset"] = reset_peak()
        start = perf_counter()
        try:
            if op.argv is not None:
                rc = pv.cli.main(op.argv)
            else:
                value, rc = op.call(), 0
        except Exception as exc:  # recorded as the operation's outcome
            rc = 3 if type(exc).__name__ in ("ResourceCapError", "VcLabError") else None
            err.write(f"{type(exc).__name__}: {exc}")
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        res["span"] = (start, perf_counter())
        res["peak_mb"] = peak_mb()
    if rc == 3:
        res["outcome"], res["kind"] = "refused", cap_kind(err.getvalue())
    elif rc not in (0, 1):
        res["outcome"], res["kind"] = "failed", f"exit {rc}: {err.getvalue()[:200]}"
    elif op.argv is None:
        res["outcome"], res["value"] = "done", value
    else:
        try:
            report = json.loads(out.getvalue())
        except ValueError:
            res["outcome"], res["kind"] = "failed", f"exit {rc} without a JSON report"
            return res
        files = []
        for path in op.outputs:
            with open(path, "r", encoding="utf-8") as fh:
                files.append(fh.read())
        res["bytes"] = sum(os.path.getsize(path) for path in op.outputs) + len(
            json.dumps(report["outputs"], sort_keys=True, separators=(",", ":")))
        res["outcome"], res["value"], res["files"] = "done", report, files
    return res


def judge(op: workloads.Op, res: dict, verdicts: dict) -> None:
    """Classify an outcome: ok, wrong, refused (known cap), failed."""
    if res["outcome"] == "refused" and res["kind"] != op.expect:
        res["outcome"] = "failed"
    if res["outcome"] != "done":
        return
    value, files = res.pop("value"), res.pop("files", [])
    if op.argv is not None:
        key = (op.name, workloads.fingerprint(value["outputs"], files))
        if key not in verdicts:
            verdicts[key] = op.check(value, files)
        problem = verdicts[key]
    else:
        problem = op.check(value, files)
    res["outcome"] = "wrong" if problem else "ok"
    if problem:
        res["kind"] = problem[:300]


def run_pass(pv, ops, verdicts, clock: speed.Speed) -> list[dict]:
    """One pass; each result's `seconds` is scaled by the machine speed
    sampled around it, `raw_seconds` is as measured."""
    results = []
    for op in ops:
        res = execute(pv, op)
        judge(op, res, verdicts)
        results.append(res)
    for res in results:
        start, end = res.pop("span")
        res["raw_seconds"] = end - start
        res["seconds"] = clock.scaled(start, end)
    return results


def measure(pv, ops, seconds: float, clock: speed.Speed,
            tracer=None) -> tuple[list, list, float | None]:
    """Passes until the next one is predicted to overrun `seconds`.

    With a tracer, the first pass is untraced and its wall time is
    returned as the overhead reference; the tracer is then installed."""
    verdicts: dict = {}
    passes, marks = [], []
    untraced_wall = None
    start = perf_counter()
    if tracer is not None:
        untraced_wall = sum(r["seconds"] for r in run_pass(pv, ops, verdicts, clock))
        tracer.install()
    durations = []
    while True:
        lo = len(tracer.spans) if tracer else 0
        began = perf_counter()
        passes.append(run_pass(pv, ops, verdicts, clock))
        durations.append(perf_counter() - began)
        marks.append((lo, len(tracer.spans) if tracer else 0))
        if perf_counter() - start + statistics.median(durations) > seconds:
            break
    if tracer is not None:
        tracer.uninstall()
    return passes, marks, untraced_wall


def end_to_end(passes, ops, setup_times) -> dict[str, float]:
    """Medians over passes, so that the number of passes a run fits in
    does not change what a metric means."""
    top = next(op.name for op in ops if op.top)

    def over_passes(fn):
        return statistics.median(fn([r["seconds"] for r in p]) for p in passes)

    def p90(times):  # inclusive: never past the slowest operation of a pass
        return statistics.quantiles(times, n=10, method="inclusive")[8]

    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": over_passes(sum),
        "top_op_s": statistics.median(r["seconds"] for p in passes for r in p
                                      if r["name"] == top),
        "op_p50_ms": over_passes(statistics.median) * 1e3,
        "op_p90_ms": over_passes(p90) * 1e3,
        "peak_rss_mb": statistics.median(max(r["peak_mb"] for r in p) for p in passes),
    }


def details(passes) -> dict:
    results = [r for p in passes for r in p]
    count = {k: sum(1 for r in results if r["outcome"] == k)
             for k in ("ok", "wrong", "refused", "failed")}
    completed = count["ok"] + count["wrong"]
    refusals: dict[str, int] = {}
    for r in results:
        if r["outcome"] == "refused":
            refusals[r["kind"]] = refusals.get(r["kind"], 0) + 1
    return {
        "passes": len(passes),
        "peak_reset": all(r["peak_reset"] for r in results),
        "op_samples": len(results),
        "failed_share": (count["refused"] + count["failed"]) / len(results),
        "wrong_share": count["wrong"] / completed if completed else 0.0,
        "emitted_bytes": statistics.median(sum(r["bytes"] for r in p) for p in passes),
        "outcomes": count,
        "refusals_by_cap": refusals,
        "problems": sorted({f"{r['name']}: {r['kind']}" for r in results
                            if r["outcome"] in ("wrong", "failed")})[:20],
    }


def run_workload(args) -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pavc", "__init__.py")):
        print(f"error: no pavc sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    work = f"{WORK_DIR}/{args.workload}"
    workload = workloads.WORKLOADS[args.workload]
    clock = speed.Speed(workload.chunk)
    clock.start()
    setup_spans = []
    try:
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            pv = import_pavc(src)
            workloads.clear_dir(work)
            ops = workload.setup(pv, work, args.seed)
            setup_spans.append((start, perf_counter()))
        setup_times = [clock.scaled(start, end) for start, end in setup_spans]
        random.Random(args.seed).shuffle(ops)
        gc.collect()
        gc.freeze()  # the harness's own objects stay out of pavc's collections
        tracer = tracing.Tracer() if args.trace else None
        passes, marks, untraced_wall = measure(pv, ops, args.seconds, clock, tracer)
    except (workloads.SetupError, BenchError, ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        clock.stop()
        shutil.rmtree(work, ignore_errors=True)

    info = details(passes)
    info["raw_wall_s"] = [sum(r["raw_seconds"] for r in p) for p in passes]
    info["raw_setup_s"] = [end - start for start, end in setup_spans]
    info["speed_samples"] = len(clock.durations)
    info["mean_chunk_s"] = statistics.fmean(clock.durations)
    if tracer is None:
        metrics = end_to_end(passes, ops, setup_times)
        units = END_TO_END_UNITS
    else:
        rounds = [tracing.layer_metrics(
            tracer.spans, lo, hi,
            sum(r["seconds"] for r in p) / sum(r["raw_seconds"] for r in p))
            for (lo, hi), p in zip(marks, passes)]
        metrics = tracing.median_metrics(rounds)
        traced_wall = statistics.median(sum(r["seconds"] for r in p) for p in passes)
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        units = {name: unit_of(name) for name in metrics}
        info.update(traced_wall_s=traced_wall, untraced_wall_s=untraced_wall,
                    spans=len(tracer.spans))
        os.makedirs(OUT_DIR, exist_ok=True)
        path = f"{OUT_DIR}/trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path)
        info["trace_file"] = path

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:16.6f} {units[name]}")
    for name, unit in REPORTED_UNITS.items():
        print(f"  {name:32s} {info[name]:16.6f} {unit}  (not gated)")
    print(json.dumps({"workload": args.workload, **info}, sort_keys=True))
    result = {
        "correct": info["outcomes"]["wrong"] == 0,
        "attempted": info["op_samples"],
        "failed": info["outcomes"]["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process of its own, one after another."""
    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        print("\n".join(proc.stdout.splitlines()[:-1]))
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
