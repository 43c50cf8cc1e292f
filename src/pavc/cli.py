"""Command-line interface.

Every subcommand prints one JSON run report to stdout: the command, its
inputs (with sha256 digests for files), outputs, a list of named checks,
and wall time.  Exit status is 0 when all requested checks pass, 1 when
a check fails, 2 for usage errors, and 3 for operational errors such as
resource-cap refusals or an unavailable encoder.

The PAVC_MAX_ATOMS environment variable overrides the default cap on
atoms produced by quantifier elimination.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import time
from dataclasses import asdict, replace
from typing import Sequence

from . import contfrac
from .evaluator import (DEFAULT_MAX_ATOMS, EvalError, ResourceCapError,
                        eliminate_quantifiers)
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
    build_code_set,
    code_set_contains,
    collapse_image,
    encode_bridged,
    encode_cf_short,
    encode_naive,
    meta_from_json,
    meta_to_json,
    select_modulus,
    spread_aps,
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
EXIT_USAGE = 2
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


def _dimension(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if not 1 <= v <= DEFAULT_D_CAP:
        raise argparse.ArgumentTypeError(
            f"d must be in 1..{DEFAULT_D_CAP}, got {v}")
    return v


def _int_list(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _write_text(path: str, text: str) -> None:
    """Write `text` to `path`.  An existing regular file is unlinked first:
    rewriting a file in place through truncation can cost a flush of tens
    of milliseconds, a fresh file does not.  A symlink is written through."""
    if os.path.isfile(path) and not os.path.islink(path):
        os.unlink(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _file_input(path: str) -> dict:
    return {"path": path, "sha256": _sha256(path)}


def _check(name: str, ok: bool, detail: str = "") -> dict:
    out = {"name": name, "pass": bool(ok)}
    if detail:
        out["detail"] = detail
    return out


def _read_partitioned(path: str, allow_div: bool) -> PartitionedFormula:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_partitioned(fh.read(), allow_div=allow_div)


def _shape_dict(pf: PartitionedFormula) -> dict:
    sh = shape(pf.formula)
    return {**asdict(sh), "is_short_10_18": sh.is_short(10, 18)}


# ---------------------------------------------------------------------------
# Subcommands.  Each returns (inputs, outputs, checks).


def _cmd_gen(args) -> tuple[dict, dict, list[dict]]:
    encoders = {"naive": encode_naive, "bridged": encode_bridged}
    if args.encoder == "cf-short":
        mode = "prime" if args.modulus == "none" else args.modulus
        pf, meta = encode_cf_short(args.d, modulus_mode=mode, seed=args.seed)
    else:
        pf, meta = encoders[args.encoder](args.d)
        if args.modulus != "none":
            meta = replace(meta, modulus=select_modulus(
                args.d, args.modulus, seed=args.seed),
                modulus_mode=args.modulus)
    _write_text(args.out, print_partitioned(pf))
    _write_text(args.meta,
                json.dumps(meta_to_json(meta), indent=2, sort_keys=True) + "\n")

    d = args.d
    code = build_code_set(d)
    checks = [_check("collapse_image_matches", collapse_image(d) == code)]
    outputs = {
        "formula_file": _file_input(args.out),
        "meta_file": _file_input(args.meta),
        "code_set_size": len(code),
        "t_window": [str(v) for v in meta.t_window],
        "shape": _shape_dict(pf),
    }
    inputs = {"d": d, "encoder": args.encoder, "modulus": args.modulus}
    return inputs, outputs, checks


def _cmd_verify(args) -> tuple[dict, dict, list[dict]]:
    pf = _read_partitioned(args.formula, allow_div=False)
    with open(args.meta, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    try:
        meta = meta_from_json(raw)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormulaError(f"unreadable meta file {args.meta}: {exc!r}")
    d = meta.d
    if pf.object_vars != (meta.object_var,) or pf.param_vars != (meta.param_var,):
        raise FormulaError("formula partition does not match the meta file")
    inputs = {"formula": _file_input(args.formula),
              "meta": _file_input(args.meta)}

    windows_ok = (
        meta.ground_window == (1, d)
        and meta.param_window == (0, (1 << d) - 1)
        and meta.t_window == (1, d * (1 << d))
    )
    win_check = _check(
        "windows_consistent", windows_ok,
        "" if windows_ok else "meta windows disagree with d")
    if not windows_ok:
        return inputs, {"d": d, "mode": args.mode}, [win_check]

    fam = family_from_formula(pf, meta.ground_window,
                              {meta.param_var: meta.param_window},
                              mode=args.mode, hints=meta.hint_map())

    mismatch = None
    for t in range(meta.t_window[0], meta.t_window[1] + 1):
        x = (t - 1) % d + 1
        y = (t - x) // d
        if bool(fam.members[y][1] >> (x - 1) & 1) != code_set_contains(d, t):
            mismatch = t
            break
    # member y is block y, so the first mismatch also names the first bad block
    checks = [win_check, _check(
        "extensional_membership",
        mismatch is None,
        "all t agree" if mismatch is None else f"first mismatch at t={mismatch}",
    ), _check(
        "family_is_lexicographic",
        mismatch is None,
        "all blocks agree" if mismatch is None
        else f"block y={(mismatch - 1) // d} selects the wrong subset",
    )]

    # d <= DEFAULT_D_CAP < DEFAULT_VC_CAP, so the dimension is never capped
    rep = vc_dimension(fam)
    checks.append(_check("ground_window_shattered", rep.vc_dim == len(fam.ground)))
    checks.append(_check("vc_dimension_exact", rep.vc_dim == d,
                         f"measured {rep.vc_display()}, expected {d}"))

    # each code t's witness, derived from d, lies in the spread
    # progression that starts at its r (tests/test_generator.py proves
    # it for every d the generator accepts), so the meta file passes when
    # its progressions are d's
    aps_ok = meta.aps == spread_aps(d)
    checks.append(_check(
        "witnesses_check_out", aps_ok,
        "all witnesses solve the collapse system" if aps_ok
        else "spread progressions differ from those of d"))

    outputs = {
        "d": d,
        "mode": args.mode,
        "shape": _shape_dict(pf),
        "vc": report_json(rep, fam, meta.ground_window,
                          {meta.param_var: meta.param_window}),
    }
    return inputs, outputs, checks


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


def _build_family(args) -> tuple[PartitionedFormula, SetFamily]:
    pf = _read_partitioned(args.formula, allow_div=True)
    fam = family_from_formula(
        pf, args.ground, dict(args.param), mode=args.mode,
        hints=dict(args.hint))
    return pf, fam


def _cmd_vc(args) -> tuple[dict, dict, list[dict]]:
    pf, fam = _build_family(args)
    rep = vc_dimension(fam, cap=args.cap)
    checks = []
    if args.expect_vc is not None:
        checks.append(_check(
            "vc_dimension_expected",
            not rep.capped and rep.vc_dim == args.expect_vc,
            f"measured {rep.vc_display()}, expected {args.expect_vc}"))
    outputs = report_json(rep, fam, args.ground, dict(args.param))
    inputs = {"formula": _file_input(args.formula)}
    return inputs, outputs, checks


def _cmd_shatter(args) -> tuple[dict, dict, list[dict]]:
    pf, fam = _build_family(args)
    checks = []
    outputs: dict = {"family_size": len(fam.members)}
    if args.points is not None:
        ok, witness = is_shattered(args.points, fam, cap=args.cap)
        checks.append(_check(
            "points_shattered", ok,
            f"{len(args.points)} points, "
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
    inputs = {"formula": _file_input(args.formula)}
    return inputs, outputs, checks


def _cmd_qe(args) -> tuple[dict, dict, list[dict]]:
    pf = _read_partitioned(args.formula, allow_div=True)
    before = len(set(atoms_of(pf.formula)))
    qf = eliminate_quantifiers(pf.formula)
    after = len(set(atoms_of(qf)))
    fv = free_vars(qf)
    out_pf = PartitionedFormula(
        qf,
        tuple(v for v in pf.object_vars if v in fv),
        tuple(v for v in pf.param_vars if v in fv),
    )
    text = print_partitioned(out_pf)
    if args.out:
        _write_text(args.out, text)
    outputs = {
        "formula_text": to_text(qf),
        "atoms_before": before,
        "atoms_after": after,
    }
    if args.out:
        outputs["out_file"] = _file_input(args.out)
    inputs = {"formula": _file_input(args.formula)}
    return inputs, outputs, []


def _cmd_analyze(args) -> tuple[dict, dict, list[dict]]:
    pf = _read_partitioned(args.formula, allow_div=True)
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
    inputs = {"formula": _file_input(args.formula)}
    return inputs, outputs, checks


def _cmd_upperbound(args) -> tuple[dict, dict, list[dict]]:
    pf = _read_partitioned(args.formula, allow_div=True)
    cert, inv, stats = upper_bound_via_qe(pf)
    outputs = certificate_report(cert, inv, stats)
    checks = [_check("certificate_valid", cert.check(),
                     f"ell={cert.ell}, bound={cert.bound}")]
    inputs = {"formula": _file_input(args.formula)}
    return inputs, outputs, checks


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


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pavc",
        description="Workbench for integer linear-arithmetic formulas: "
                    "generate high-VC families, decide and measure "
                    "formulas, and verify shattering at desk scale.",
        epilog="Set PAVC_MAX_ATOMS to override the quantifier-elimination "
               f"atom cap (default {DEFAULT_MAX_ATOMS}, at least 1).")
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
    p.add_argument("--cap", type=int, default=DEFAULT_VC_CAP)
    p.add_argument("--expect-vc", type=int, default=None)
    p.set_defaults(fn=_cmd_vc)

    p = sub.add_parser("shatter",
                       help="check shattering or evaluate the shatter function")
    _family_args(p)
    p.add_argument("--cap", type=int, default=DEFAULT_VC_CAP)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--points", type=_int_list,
                       help="comma-separated ground points")
    group.add_argument("--n", type=int, help="shatter-function argument")
    p.set_defaults(fn=_cmd_shatter)

    p = sub.add_parser("qe", help="eliminate quantifiers")
    p.add_argument("--formula", required=True)
    p.add_argument("--out", default=None, help="write the result here")
    p.set_defaults(fn=_cmd_qe)

    p = sub.add_parser("analyze", help="report shape metrics")
    p.add_argument("--formula", required=True)
    p.add_argument("--max-vars", type=int, default=10)
    p.add_argument("--max-ineqs", type=int, default=18)
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
    json.JSONDecodeError,
)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        inputs, outputs, checks = args.fn(args)
    except _OPERATIONAL_ERRORS as exc:
        print(f"pavc {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    report = {
        "command": args.command,
        "seed": getattr(args, "seed", None),
        "inputs": inputs,
        "outputs": outputs,
        "checks": checks,
        "ok": all(c["pass"] for c in checks),
        "wall_time_s": round(time.monotonic() - start, 3),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
