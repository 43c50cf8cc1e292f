"""Spans around pavc's layer entry points, recorded from outside pavc.

`Tracer.install` replaces each traced public function by a wrapper at
every import site: the defining module's callers in other pavc modules
(`pavc.cli`, `pavc.vclab` and `pavc.upperbound` import names from
`pavc.evaluator`, and so on) and the `pavc` package namespace that the
benchmark calls.  Calls inside the defining module are not layer
boundaries and stay unwrapped, with two exceptions: the benchmark calls
`pavc.cli.main` through its own module, and `vc_dimension` fills its pi
table through `shatter_function`, which is wrapped in `pavc.vclab` too
so that the table's cost shows as its own span.  Structural helpers
of `pavc.formula` (free_vars, atoms_of, mk_and, ...) are not traced: the
evaluator calls them about 10^5 times per operation.

Spans live in memory as [name, start, end, parent, error, info,
bookkeeping] lists and are written out once, at the end of the run.
A span's self time is its duration minus the durations of its children
and the bookkeeping done in their wrappers.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter

from reference import ast_to_sexpr, count_atoms


def _atoms(f) -> int:
    return count_atoms(ast_to_sexpr(f))


def _qe_info(args, kwargs, result):
    return [_atoms(args[0]), _atoms(result)]


def _vc_info(args, kwargs, rep):
    # [pi entries computed, entries with k <= vc_dim + 1]
    return [len(rep.pi_table), sum(1 for k, _ in rep.pi_table if k <= rep.vc_dim + 1)]


# module -> {function: info hook or None}
TRACED = {
    "cli": {"main": lambda a, kw, rc: rc},
    "formula": {
        "parse_partitioned": lambda a, kw, pf: _atoms(pf.formula),
        "print_partitioned": None,
        "to_text": None,
        "shape": None,
    },
    "generator": {
        "encode_naive": lambda a, kw, r: len(r[1].witnesses),
        "encode_bridged": lambda a, kw, r: len(r[1].witnesses),
        "meta_to_json": None,
        "meta_from_json": None,
        "build_code_set": None,
        "code_set_contains": None,
        "lex_subset": None,
        "spread_aps": None,
        "collapse_image": None,
    },
    "evaluator": {
        "eval_bounded": None,
        "eval_point": None,
        "eliminate_quantifiers": _qe_info,
        "decide": None,
    },
    "vclab": {
        "family_from_formula": lambda a, kw, fam: len(fam.members),
        "vc_dimension": _vc_info,
        "shatter_function": None,
        "is_shattered": None,
        "report_json": None,
    },
    "upperbound": {
        "inventory": None,
        "certificate": lambda a, kw, cert: cert.ell,
        "certificate_report": None,
    },
}

# names also wrapped inside their defining module: the benchmark calls
# `main` as `pavc.cli.main`, and vc_dimension calls shatter_function
INTRA_MODULE = {("cli", "main"), ("vclab", "shatter_function")}

NAME, START, END, PARENT, ERROR, INFO, BOOK = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, hook):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[END] = perf_counter()
                span[ERROR] = type(exc).__name__
                raise
            else:
                span[END] = perf_counter()
                if hook is not None:
                    span[INFO] = hook(args, kwargs, result)
                    span[BOOK] = perf_counter() - span[END]
                return result
            finally:
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every traced function at each of its import sites."""
        modules = {m: sys.modules[f"pavc.{m}"] for m in TRACED}
        sites = list(modules.items()) + [("", sys.modules["pavc"])]
        for mod_name, funcs in TRACED.items():
            for fn_name, hook in funcs.items():
                original = getattr(modules[mod_name], fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original, hook)
                for site_name, site in sites:
                    if site_name == mod_name and (mod_name, fn_name) not in INTRA_MODULE:
                        continue
                    if getattr(site, fn_name, None) is original:
                        self._restore.append((site, fn_name, original))
                        setattr(site, fn_name, wrapper)

    def uninstall(self) -> None:
        for site, fn_name, original in reversed(self._restore):
            setattr(site, fn_name, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "error",
                                  "info", "bookkeeping_s"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def self_times(spans: list[list], lo: int, hi: int) -> dict[int, float]:
    """Self time of each span with index in [lo, hi)."""
    out = {i: spans[i][END] - spans[i][START] for i in range(lo, hi)}
    for i in range(lo, hi):
        p = spans[i][PARENT]
        if p >= lo:
            out[p] -= spans[i][END] - spans[i][START] + spans[i][BOOK]
    return out


def layer_metrics(spans: list[list], lo: int, hi: int,
                  scale: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of the spans recorded in [lo, hi), one pass.
    Self times are multiplied by `scale`, the pass's scaled over measured
    wall time (see speed.py)."""
    own = {i: t * scale for i, t in self_times(spans, lo, hi).items()}
    t: dict[str, float] = {}
    n: dict[str, int] = {}
    errors: dict[tuple[str, str], int] = {}
    info: dict[str, list] = {}
    for i in range(lo, hi):
        s = spans[i]
        t[s[NAME]] = t.get(s[NAME], 0.0) + own[i]
        n[s[NAME]] = n.get(s[NAME], 0) + 1
        if s[ERROR]:
            parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
            if not (s[NAME].startswith("vclab.") and parent.startswith("vclab.")):
                key = (s[NAME], s[ERROR])
                errors[key] = errors.get(key, 0) + 1
        if s[INFO] is not None:
            info.setdefault(s[NAME], []).append(s[INFO])

    def secs(*names):
        return sum(t.get(x, 0.0) for x in names)

    def calls(*names):
        return sum(n.get(x, 0) for x in names)

    def per_point(name):
        return secs(name) * 1e6 / calls(name) if calls(name) else 0.0

    qe = info.get("evaluator.eliminate_quantifiers", [])
    qe_in = sum(a for a, _ in qe)
    qe_out = sum(b for _, b in qe)
    pi = info.get("vclab.vc_dimension", [])
    pi_all = sum(a for a, _ in pi)
    return {
        "cli.calls": calls("cli.main"),
        "cli.exit3": sum(1 for rc in info.get("cli.main", []) if rc == 3),
        "cli.self_s": secs("cli.main"),
        "formula.parse_s": secs("formula.parse_partitioned"),
        "formula.print_s": secs("formula.print_partitioned", "formula.to_text"),
        "formula.shape_s": secs("formula.shape"),
        "formula.atoms_in": sum(info.get("formula.parse_partitioned", [])),
        "generator.encode_s": secs("generator.encode_naive", "generator.encode_bridged"),
        "generator.meta_to_json_s": secs("generator.meta_to_json"),
        "generator.meta_from_json_s": secs("generator.meta_from_json"),
        "generator.witnesses": sum(info.get("generator.encode_naive", []))
        + sum(info.get("generator.encode_bridged", [])),
        "generator.code_set_s": secs("generator.build_code_set",
                                     "generator.code_set_contains",
                                     "generator.lex_subset", "generator.spread_aps",
                                     "generator.collapse_image"),
        "evaluator.bounded_s": secs("evaluator.eval_bounded"),
        "evaluator.bounded_calls": calls("evaluator.eval_bounded"),
        "evaluator.bounded_us_per_point": per_point("evaluator.eval_bounded"),
        "evaluator.bounded_refused": errors.get(("evaluator.eval_bounded", "ResourceCapError"), 0),
        "evaluator.point_s": secs("evaluator.eval_point"),
        "evaluator.point_calls": calls("evaluator.eval_point"),
        "evaluator.point_us_per_point": per_point("evaluator.eval_point"),
        "evaluator.qe_s": secs("evaluator.eliminate_quantifiers"),
        "evaluator.qe_calls": calls("evaluator.eliminate_quantifiers"),
        "evaluator.qe_atoms_out": qe_out,
        "evaluator.qe_blowup": qe_out / qe_in if qe_in else 0.0,
        "evaluator.qe_refused": errors.get(
            ("evaluator.eliminate_quantifiers", "ResourceCapError"), 0),
        "evaluator.decide_s": secs("evaluator.decide"),
        "evaluator.decide_calls": calls("evaluator.decide"),
        "vclab.extract_s": secs("vclab.family_from_formula"),
        "vclab.members": sum(info.get("vclab.family_from_formula", [])),
        "vclab.vc_s": secs("vclab.vc_dimension"),
        "vclab.shatter_s": secs("vclab.shatter_function"),
        "vclab.shatter_calls": calls("vclab.shatter_function"),
        "vclab.is_shattered_s": secs("vclab.is_shattered"),
        "vclab.pi_useful_ratio": sum(b for _, b in pi) / pi_all if pi_all else 0.0,
        "vclab.refused": sum(v for (name, err), v in errors.items()
                             if name.startswith("vclab.") and err == "VcLabError"),
        "upperbound.inventory_s": secs("upperbound.inventory"),
        "upperbound.certificate_s": secs("upperbound.certificate"),
        "upperbound.ell": sum(info.get("upperbound.certificate", [])),
    }


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
