"""Report snapshots: every subcommand's JSON report on small fixed inputs.

Each case runs `pavc.cli.main` in-process and compares its exit status and
report with `tests/reports/<case>.json`, with `wall_time_s` dropped and the
run directory written as `<tmp>`.  A report change is deliberate only when
the snapshot changes with it; `python tests/test_reports.py` rewrites the
snapshots from the current code.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from pavc.cli import main

SNAPSHOTS = Path(__file__).parent / "reports"

INPUTS = {
    "even.pa": "#objects: x\n#params: y\n"
               "(exists z (and (= x (* 2 z)) (<= x y)))\n",
    "interval.pa": "#objects: x\n#params: a b\n(and (<= a x) (<= x b))\n",
}

INTERVAL_FAMILY = ["--formula", "{tmp}/interval.pa", "--ground", "0..5",
                   "--param", "a=0..5", "--param", "b=0..5"]

# (case, argv); later cases read the files earlier ones write
CASES = [
    ("gen-naive-3", ["gen", "--d", "3", "--out", "{tmp}/n3.pa",
                     "--meta", "{tmp}/n3.json"]),
    ("verify-naive-3-bounded", ["verify", "--formula", "{tmp}/n3.pa",
                                "--meta", "{tmp}/n3.json"]),
    ("verify-naive-3-qe", ["verify", "--formula", "{tmp}/n3.pa",
                           "--meta", "{tmp}/n3.json", "--mode", "qe"]),
    ("gen-bridged-3", ["gen", "--d", "3", "--encoder", "bridged",
                       "--out", "{tmp}/b3.pa", "--meta", "{tmp}/b3.json"]),
    ("verify-bridged-3", ["verify", "--formula", "{tmp}/b3.pa",
                          "--meta", "{tmp}/b3.json"]),
    ("qe", ["qe", "--formula", "{tmp}/even.pa", "--out", "{tmp}/even_qf.pa"]),
    ("vc", ["vc"] + INTERVAL_FAMILY + ["--expect-vc", "2"]),
    ("shatter-points", ["shatter"] + INTERVAL_FAMILY + ["--points", "2,3"]),
    ("shatter-n", ["shatter"] + INTERVAL_FAMILY + ["--n", "3"]),
    ("analyze", ["analyze", "--formula", "{tmp}/n3.pa"]),
    ("upperbound", ["upperbound", "--formula", "{tmp}/even.pa"]),
    ("convergents", ["convergents", "--p", "45", "--q", "16"]),
]


def run_cases(tmp: str) -> dict[str, dict]:
    """Every case's exit status and normalised report, in CASES order."""
    for name, text in INPUTS.items():
        Path(tmp, name).write_text(text, encoding="utf-8")
    out = {}
    for case, argv in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main([a.replace("{tmp}", tmp) for a in argv])
        report = json.loads(buf.getvalue().replace(tmp, "<tmp>"))
        del report["wall_time_s"]
        out[case] = {"exit": rc, "report": report}
    return out


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    return run_cases(str(tmp_path_factory.mktemp("reports")))


@pytest.mark.parametrize("case", [c for c, _ in CASES])
def test_report_matches_snapshot(reports, case):
    want = json.loads((SNAPSHOTS / f"{case}.json").read_text(encoding="utf-8"))
    assert reports[case] == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        got = run_cases(tmp)
    SNAPSHOTS.mkdir(exist_ok=True)
    for case, snap in got.items():
        (SNAPSHOTS / f"{case}.json").write_text(
            json.dumps(snap, indent=2, sort_keys=True) + "\n", encoding="utf-8")
