"""Command-line interface.

Every subcommand prints one JSON run report to stdout: the command, its
inputs and outputs (a file with the sha256 of the bytes read or written;
an input file is read once, so it may be a pipe), a list of named checks,
and wall time.  Exit status is 0 when all requested checks pass, 1 when
a check fails, 2 for usage errors, and 3 for operational errors such as
resource-cap refusals, an unavailable encoder or a closed stdout.

main(argv) may be called repeatedly in one process: it builds the
argument parser at its first call and every later call reuses it.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import re
import sys
import time
from dataclasses import asdict, replace
from typing import Callable, Sequence

from . import contfrac
from .evaluator import EvalError, ResourceCapError, eliminate_quantifiers
from .formula import (
    FormulaError,
    PartitionedFormula,
    atoms_of,
    free_vars,
    parse_partitioned,
    print_partitioned,
    shape,
    to_text,
)
from .generator import (
    DEFAULT_D_CAP,
    GadgetUnavailableError,
    GeneratorError,
    code_set_bitmap,
    collapse_image_bitmap,
    encode_bridged,
    encode_cf_short,
    encode_naive,
    meta_from_json,
    meta_to_json,
    select_modulus,
    verify_encoding,
)
from .upperbound import certificate_report, upper_bound_via_qe
from .vclab import (
    DEFAULT_VC_CAP,
    SetFamily,
    VcLabError,
    family_from_formula,
    is_shattered,
    report_json,
    shatter_function,
    vc_dimension,
)

_WINDOW_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_ERROR = 3


def _window(text: str) -> tuple[int, int]:
    m = _WINDOW_RE.match(text)
    if not m:
        raise argparse.ArgumentTypeError(
            f"expected lo..hi (e.g. 0..7), got {text!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty window {text!r}")
    return (lo, hi)


def _binding(text: str) -> tuple[str, tuple[int, int]]:
    name, sep, win = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"expected var=lo..hi, got {text!r}")
    return (name, _window(win))


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


def _dimension(text: str) -> int:
    v = _integer(text)
    if not 1 <= v <= DEFAULT_D_CAP:
        raise argparse.ArgumentTypeError(
            f"d must be in 1..{DEFAULT_D_CAP}, got {v}")
    return v


def _at_least_zero(name: str) -> Callable[[str], int]:
    def parse(text: str) -> int:
        v = _integer(text)
        if v < 0:
            raise argparse.ArgumentTypeError(f"{name} must be at least 0, got {v}")
        return v
    return parse


def _int_list(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")


def _write_text(path: str, text: str) -> dict:
    """Write `text` to `path` in UTF-8 and give the report's {"path",
    "sha256"} for it, digested from the bytes written.  An existing regular
    file is unlinked first: rewriting a file in place through truncation
    can cost a flush of tens of milliseconds, a fresh file does not.  A
    symlink is written through."""
    data = text.encode("utf-8")
    if os.path.isfile(path) and not os.path.islink(path):
        os.unlink(path)
    with open(path, "wb") as fh:
        fh.write(data)
    return {"path": path, "sha256": hashlib.sha256(data).hexdigest()}


def _ones(bitmap: bytearray, chunk: int = 1 << 16) -> int:
    """The 1 bytes of a 0/1 bitmap, as the set bits of one int per 64 KB:
    bytearray.count(1) takes a branch per byte."""
    view = memoryview(bitmap)
    return sum(int.from_bytes(view[i:i + chunk], "little").bit_count()
               for i in range(0, len(view), chunk))


def _check(name: str, ok: bool, detail: str = "") -> dict:
    out = {"name": name, "pass": bool(ok)}
    if detail:
        out["detail"] = detail
    return out


def _read(path: str) -> tuple[str, dict]:
    """The UTF-8 text of `path`, newlines translated as in text mode, and its
    report entry {"path", "sha256"}, from one read: a pipe has no second."""
    with open(path, "rb") as fh:
        data = fh.read()
    text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    return text, {"path": path, "sha256": hashlib.sha256(data).hexdigest()}


def _read_partitioned(path: str, allow_div: bool) -> tuple[PartitionedFormula, dict]:
    try:
        text, formula_file = _read(path)
    except UnicodeDecodeError as exc:
        raise FormulaError(f"unreadable formula file {path}: {exc}")
    return parse_partitioned(text, allow_div=allow_div), formula_file


def _shape_dict(pf: PartitionedFormula) -> dict:
    sh = shape(pf.formula)
    return {**asdict(sh), "is_short_10_18": sh.is_short(10, 18)}


# ---------------------------------------------------------------------------
# Subcommands.  Each returns (inputs, outputs, checks).


def _cmd_gen(args) -> tuple[dict, dict, list[dict]]:
    if os.path.realpath(args.out) == os.path.realpath(args.meta):
        raise GeneratorError("--out and --meta name the same file")
    encoders = {"naive": encode_naive, "bridged": encode_bridged, "cf-short": encode_cf_short}
    pf, meta = encoders[args.encoder](args.d)
    if args.modulus != "none":
        meta = replace(meta, modulus=select_modulus(
            args.d, args.modulus, seed=args.seed),
            modulus_mode=args.modulus)
    formula_file = _write_text(args.out, print_partitioned(pf))
    meta_file = _write_text(
        args.meta, json.dumps(meta_to_json(meta), indent=2, sort_keys=True) + "\n")

    d = args.d
    code = code_set_bitmap(d)
    checks = [_check("collapse_image_matches",
                     collapse_image_bitmap(d) == code)]
    outputs = {
        "formula_file": formula_file,
        "meta_file": meta_file,
        "code_set_size": _ones(code),
        "t_window": [str(v) for v in meta.t_window],
        "shape": _shape_dict(pf),
    }
    inputs = {"d": d, "encoder": args.encoder, "modulus": args.modulus}
    return inputs, outputs, checks


def _cmd_verify(args) -> tuple[dict, dict, list[dict]]:
    pf, formula_file = _read_partitioned(args.formula, allow_div=False)
    try:
        text, meta_file = _read(args.meta)
        meta = meta_from_json(json.loads(text))
    except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise FormulaError(f"unreadable meta file {args.meta}: {exc!r}")
    outputs, checks = verify_encoding(pf, meta, args.mode)
    inputs = {"formula": formula_file, "meta": meta_file}
    if "vc" in outputs:  # the family was built
        outputs["shape"] = _shape_dict(pf)
    return inputs, outputs, [_check(*c) for c in checks]


def _family_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--formula", required=True)
    parser.add_argument("--ground", type=_window, required=True,
                        help="object window lo..hi")
    parser.add_argument("--param", type=_binding, action="append", default=[],
                        metavar="VAR=LO..HI", help="parameter window")
    parser.add_argument("--hint", type=_binding, action="append", default=[],
                        metavar="VAR=LO..HI",
                        help="bounded-quantifier window for mode=bounded")
    parser.add_argument("--mode", choices=("bounded", "qe"), default="bounded")


def _build_family(args) -> tuple[SetFamily, dict]:
    for flag, bindings in (("--param", args.param), ("--hint", args.hint)):
        names = [name for name, _ in bindings]
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise VcLabError(f"{flag} given more than once for {repeated}")
    pf, formula_file = _read_partitioned(args.formula, allow_div=True)
    return family_from_formula(pf, args.ground, dict(args.param), mode=args.mode,
                               hints=dict(args.hint)), formula_file


def _cmd_vc(args) -> tuple[dict, dict, list[dict]]:
    fam, formula_file = _build_family(args)
    rep = vc_dimension(fam, cap=args.cap)
    checks = []
    if args.expect_vc is not None:
        checks.append(_check(
            "vc_dimension_expected",
            not rep.capped and rep.vc_dim == args.expect_vc,
            f"measured {rep.vc_display()}, expected {args.expect_vc}"))
    outputs = report_json(rep, fam, args.ground, dict(args.param))
    return {"formula": formula_file}, outputs, checks


def _cmd_shatter(args) -> tuple[dict, dict, list[dict]]:
    fam, formula_file = _build_family(args)
    checks = []
    outputs: dict = {"family_size": len(fam.members)}
    if args.points is not None:
        ok, witness = is_shattered(args.points, fam, cap=args.cap)
        checks.append(_check(
            "points_shattered", ok,
            f"{len(set(args.points))} points, "
            + ("witness labels found" if ok else "some subset is missed")))
        if ok and witness is not None:
            outputs["witness"] = {
                "{" + ",".join(str(v) for v in sorted(sub)) + "}": label
                for sub, label in sorted(witness.items(),
                                         key=lambda kv: sorted(kv[0]))
            }
    else:
        pi = shatter_function(fam, args.n)
        outputs["n"] = args.n
        outputs["pi"] = pi
        outputs["power_set_size"] = 1 << args.n
    return {"formula": formula_file}, outputs, checks


def _cmd_qe(args) -> tuple[dict, dict, list[dict]]:
    pf, formula_file = _read_partitioned(args.formula, allow_div=True)
    before = len(set(atoms_of(pf.formula)))
    qf = eliminate_quantifiers(pf.formula)
    outputs = {"atoms_before": before, "atoms_after": len(set(atoms_of(qf)))}
    if args.out:
        fv = free_vars(qf)
        outputs["out_file"] = _write_text(args.out, print_partitioned(PartitionedFormula(
            qf,
            tuple(v for v in pf.object_vars if v in fv),
            tuple(v for v in pf.param_vars if v in fv),
        )))
    else:
        outputs["formula_text"] = to_text(qf)
    return {"formula": formula_file}, outputs, []


def _cmd_analyze(args) -> tuple[dict, dict, list[dict]]:
    pf, formula_file = _read_partitioned(args.formula, allow_div=True)
    sh = shape(pf.formula)
    short = sh.is_short(args.max_vars, args.max_ineqs)
    outputs = {
        **asdict(sh),
        "is_short": short,
        "short_thresholds": {"max_vars": args.max_vars,
                             "max_inequalities": args.max_ineqs},
    }
    checks = []
    if args.require_short:
        checks.append(_check(
            "shape_is_short", short,
            f"{sh.total_vars} vars, {sh.num_inequalities} inequalities"))
    return {"formula": formula_file}, outputs, checks


def _cmd_upperbound(args) -> tuple[dict, dict, list[dict]]:
    pf, formula_file = _read_partitioned(args.formula, allow_div=True)
    cert, inv, stats = upper_bound_via_qe(pf)
    outputs = certificate_report(cert, inv, stats)
    checks = [_check("certificate_valid", outputs["certificate_valid"],
                     f"ell={cert.ell}, bound={cert.bound}")]
    return {"formula": formula_file}, outputs, checks


def _cmd_convergents(args) -> tuple[dict, dict, list[dict]]:
    cf = contfrac.from_rational(args.p, args.q)
    cons = contfrac.convergents(cf)
    dets = [contfrac.determinant_step(cons[k - 1], cons[k])
            for k in range(1, len(cons))]
    det_ok = all(dets[k - 1] == (-1) ** (k + 1) for k in range(1, len(cons)))
    recon = contfrac.to_rational(cf)
    g = math.gcd(args.p, args.q)
    recon_ok = recon == (args.p // g, args.q // g)
    outputs = {
        "terms": [str(a) for a in cf.terms],
        "convergents": [[str(c.p), str(c.q)] for c in cons],
        "determinants": [str(v) for v in dets],
    }
    checks = [
        _check("determinant_identity", det_ok),
        _check("reconstructs_input", recon_ok,
               f"{recon[0]}/{recon[1]} vs {args.p}/{args.q}"),
    ]
    inputs = {"p": str(args.p), "q": str(args.q)}
    return inputs, outputs, checks


# ---------------------------------------------------------------------------


@functools.cache  # one parser per process: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pavc",
        description="Workbench for integer linear-arithmetic formulas: "
                    "generate high-VC families, decide and measure "
                    "formulas, and verify shattering at desk scale.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a high-VC formula and its meta file")
    p.add_argument("--d", type=_dimension, required=True,
                   help=f"dimension parameter, 1..{DEFAULT_D_CAP}")
    p.add_argument("--encoder", choices=("naive", "bridged", "cf-short"),
                   default="naive")
    p.add_argument("--modulus", choices=("none", "prime", "product"),
                   default="none")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="formula file to write")
    p.add_argument("--meta", required=True, help="meta JSON file to write")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("verify",
                       help="check an emitted formula against its meta file")
    p.add_argument("--formula", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--mode", choices=("bounded", "qe"), default="bounded")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("vc", help="measure the VC-dimension of a family")
    _family_args(p)
    p.add_argument("--cap", type=_at_least_zero("cap"), default=DEFAULT_VC_CAP)
    p.add_argument("--expect-vc", type=_at_least_zero("expect-vc"), default=None)
    p.set_defaults(fn=_cmd_vc)

    p = sub.add_parser("shatter",
                       help="check shattering or evaluate the shatter function")
    _family_args(p)
    p.add_argument("--cap", type=_at_least_zero("cap"), default=DEFAULT_VC_CAP)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--points", type=_int_list,
                       help="comma-separated ground points")
    group.add_argument("--n", type=_at_least_zero("n"),
                       help="shatter-function argument")
    p.set_defaults(fn=_cmd_shatter)

    p = sub.add_parser("qe", help="eliminate quantifiers")
    p.add_argument("--formula", required=True)
    p.add_argument("--out", default=None, help="write the result here")
    p.set_defaults(fn=_cmd_qe)

    p = sub.add_parser("analyze", help="report shape metrics")
    p.add_argument("--formula", required=True)
    p.add_argument("--max-vars", type=_at_least_zero("max-vars"), default=10)
    p.add_argument("--max-ineqs", type=_at_least_zero("max-ineqs"), default=18)
    p.add_argument("--require-short", action="store_true")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("upperbound",
                       help="VC upper-bound certificate via elimination")
    p.add_argument("--formula", required=True)
    p.set_defaults(fn=_cmd_upperbound)

    p = sub.add_parser("convergents",
                       help="canonical continued fraction of p/q")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(fn=_cmd_convergents)

    return top


_OPERATIONAL_ERRORS = (
    FormulaError,
    EvalError,
    ResourceCapError,
    VcLabError,
    GeneratorError,
    GadgetUnavailableError,
    contfrac.ContinuedFractionError,
    OSError,
)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.monotonic()
    report = None
    try:
        inputs, outputs, checks = args.fn(args)
        report = {
            "command": args.command,
            "seed": getattr(args, "seed", None),
            "inputs": inputs,
            "outputs": outputs,
            "checks": checks,
            "ok": all(c["pass"] for c in checks),
            "wall_time_s": round(time.monotonic() - start, 3),
        }
        print(json.dumps(report, indent=2, sort_keys=True), flush=True)
    except _OPERATIONAL_ERRORS as exc:
        if report is not None:  # stdout closed (`| head -c 1`): flush the rest nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"pavc {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED
