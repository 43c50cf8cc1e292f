"""The benchmark's four workloads: inputs, operations and answer checks.

Each workload's `setup(pv, work, seed)` writes its input files under
`work` and returns the operation list of one pass.  An operation is
either `pavc.cli.main(argv)` called in-process or a public library call;
`pv` is the imported `pavc` package, and every call goes through its
module attributes so that the tracer's wrappers are seen.

Random inputs (fuzz sentences, partitioned formulas, set families) come
from two streams: a fixed core stream, nineteen twentieths of them, and
a stream seeded by --seed, the remaining twentieth.  Decide times are
heavy tailed (p50 about 2 ms, p90 about 40 ms, a tail to 1 s): with
every sentence drawn from the run's seed, p50 and p90 over 300 sentences
spread 17 to 27 per cent between seeds (bootstrap over 3000 sentences),
more than any bound the benchmark may set.  Even a seeded tenth moved
p50 by up to a fifth between seeds: the 60 seeded sentences of one seed
had a median of 0.8 ms, those of another 4.1 ms.  The fixed core keeps
runs comparable; the seeded twentieth still puts inputs in front of a
change that its author never saw.  The counts (600 sentences, 90 partitioned
formulas) are sized so that p90 falls where operation times lie close
together rather than in the sparse tail.

Every check compares with `reference`, which does not use pavc code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import reference as ref
import speed

CORE_SEED = 1710041710
SEEDED_SHARE = 20  # one random input in SEEDED_SHARE comes from --seed


class SetupError(RuntimeError):
    pass


@dataclass
class Op:
    """One operation.  `argv` ops go through pavc.cli.main; `call` ops are
    library calls.  `check` returns None for a correct answer or a
    description of the disagreement.  `expect` names the cap kind of a
    refusal known today; `top` marks the operation the workload is built
    around."""

    name: str
    check: Callable
    argv: list[str] | None = None
    call: Callable | None = None
    outputs: list[str] = field(default_factory=list)
    expect: str | None = None
    top: bool = False


def _streams(seed: int, count: int) -> list[random.Random]:
    """The generator to draw each of `count` random inputs from: the
    seeded stream for every SEEDED_SHARE-th input, the core stream for
    the rest."""
    core, seeded = random.Random(CORE_SEED), random.Random(seed)
    return [seeded if i % SEEDED_SHARE == SEEDED_SHARE - 1 else core
            for i in range(count)]


def _cli(pv, argv: list[str]) -> None:
    """Run a set-up command; set-up must not fail."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        rc = pv.cli.main(argv)
    if rc != 0:
        raise SetupError(f"set-up command {argv} exited {rc}: {err.getvalue()}")


def _gen(pv, work: str, encoder: str, d: int, seed: int) -> tuple[str, str]:
    pa, meta = f"{work}/{encoder}{d}.pa", f"{work}/{encoder}{d}.json"
    _cli(pv, ["gen", "--d", str(d), "--encoder", encoder, "--seed", str(seed),
              "--out", pa, "--meta", meta])
    return pa, meta


def _shatter_mismatch(vc_dim, capped, pi_table, pi: list[list[int]],
                      vc: int) -> str | None:
    """VC-dimension and pi table against the reference.  Every reported
    pi(k) must be right, and the table must reach k = vc + 1 (or the
    ground size), the entries that establish the dimension; entries
    beyond may be left out."""
    got = {int(k): int(v) for k, v in pi_table}
    wrong = {k: v for k, v in got.items() if k >= len(pi) or pi[k][1] != v}
    missing = set(range(min(vc + 1, len(pi) - 1) + 1)) - set(got)
    if vc_dim != vc or capped or wrong or missing:
        return (f"vc {vc_dim} (capped {capped}), want {vc}; wrong pi entries "
                f"{wrong}; missing pi entries {sorted(missing)}")
    return None


def _first_failed_check(report: dict) -> str | None:
    bad = [c["name"] for c in report["checks"] if not c["pass"]]
    return f"checks failed: {bad}" if bad or not report["ok"] else None


# ---------------------------------------------------------------------------
# Answer checks


def check_verify(d: int) -> Callable:
    """verify's family must be the lexicographic family: all 2^d subsets
    of the ground 1..d, one per block, so pi(k) = 2^k and VC = d."""
    def check(report: dict, files) -> str | None:
        bad = _first_failed_check(report)
        if bad:
            return bad
        vc = report["outputs"]["vc"]
        want = {"family_size": 1 << d, "distinct_members": 1 << d,
                "witness": [str(i) for i in range(1, d + 1)]}
        got = {k: vc[k] for k in want}
        if got != want:
            return f"family report {got} != {want}"
        return _shatter_mismatch(vc["vc_dim"], vc["capped"], vc["pi_table"],
                                 ref.power_set_pi(d), d)
    return check


def check_qe(d: int) -> Callable:
    """The eliminated formula must be quantifier-free in x, y and hold
    exactly on the code set over the whole grid."""
    def check(report: dict, files) -> str | None:
        objects, params, tree = ref.read_sexpr(files[0])
        if objects != ["x"] or params != ["y"] or ref.has_quantifier(tree):
            return f"qe output is not quantifier-free over x; y: {objects} {params}"
        fn = ref.compile_sexpr(tree, ["x", "y"])
        code = ref.code_set(d)
        for y in range(1 << d):
            for x in range(1, d + 1):
                if fn(x, y) != (x + d * y in code):
                    return f"qe output wrong at x={x}, y={y}"
        return None
    return check


def check_upperbound(d: int) -> Callable:
    """The certificate bound must be the largest n with 2^n <= (n+1)^ell
    and at least the known VC-dimension d."""
    def check(report: dict, files) -> str | None:
        bad = _first_failed_check(report)
        if bad:
            return bad
        out = report["outputs"]
        ell, bound = out["ell"], out["vc_upper_bound"]
        if bound != ref.capacity_bound(ell):
            return f"bound {bound} is not the counting bound of ell={ell}"
        return None if bound >= d else f"bound {bound} below the known VC {d}"
    return check


def check_gen(encoder: str, d: int) -> Callable:
    """Formula shape (naive: 6d inequalities, bridged: 4d + 8) and a meta
    file whose windows match d.  Witnesses, where the meta file lists
    them, must cover the code set and solve the collapse system; a
    leaner meta format without them is not an error."""
    want_ineqs = 6 * d if encoder == "naive" else 4 * d + 8

    def inequalities(tree) -> int:
        if isinstance(tree, str):
            return 0
        if tree[0] in ("<=", "<"):
            return 1
        if tree[0] in ("=", "div"):
            return 2
        return sum(inequalities(p) for p in tree[1:])

    def check(report: dict, files) -> str | None:
        bad = _first_failed_check(report)
        if bad:
            return bad
        objects, params, tree = ref.read_sexpr(files[0])
        if objects != ["x"] or params != ["y"]:
            return f"partition {objects}; {params}"
        if inequalities(tree) != want_ineqs:
            return f"{inequalities(tree)} inequalities, want {want_ineqs}"
        meta = json.loads(files[1])
        windows = {k: [int(v) for v in meta[k]]
                   for k in ("ground_window", "param_window", "t_window")}
        want = {"ground_window": [1, d], "param_window": [0, (1 << d) - 1],
                "t_window": [1, d << d]}
        if meta["d"] != d or windows != want:
            return f"meta windows {windows} != {want}"
        wit = meta.get("witnesses", {})
        code = ref.code_set(d)
        if wit and (len(wit) != len(code) or any(int(t) not in code for t in wit)):
            return "witnesses do not cover the code set"
        for t, w in wit.items():
            if not ref.witness_solves(d, int(t), [int(v) for v in w]):
                return f"witness for t={t} does not solve the collapse system"
        return None
    return check


def check_family(n: int, members: int, pi: list[list[int]], vc: int,
                 key: str = "pi_table") -> Callable:
    """A vc or shatter report against a reference pi table."""
    def check(report: dict, files) -> str | None:
        if report["checks"] and _first_failed_check(report):
            return _first_failed_check(report)
        out = report["outputs"]
        if out["family_size"] != members:
            return f"family size {out['family_size']}, want {members}"
        if key == "pi":
            k = out["n"]
            return None if out["pi"] == pi[k][1] else f"pi({k}) = {out['pi']}, want {pi[k][1]}"
        return _shatter_mismatch(out["vc_dim"], out["capped"], out["pi_table"], pi, vc)
    return check


# ---------------------------------------------------------------------------
# Workloads


def setup_construct_bounded(pv, work: str, seed: int) -> list[Op]:
    ops = []
    for encoder, ds in (("naive", (4, 6, 8)), ("bridged", (4, 5, 6))):
        for d in ds:
            pa, meta = _gen(pv, work, encoder, d, seed)
            ops.append(Op(
                f"verify-bounded-{encoder}-{d}", check_verify(d),
                argv=["verify", "--formula", pa, "--meta", meta],
                expect="enumeration points" if (encoder, d) == ("bridged", 6) else None,
                top=(encoder, d) == ("naive", 8)))
    return ops


def _decide_check(sentence) -> Callable:
    truth = []

    def check(result, files) -> str | None:
        if not truth:  # brute force over the fuzz module's sound box, once
            fn = ref.compile_sexpr(ref.ast_to_sexpr(sentence), [], box=(-50, 50))
            truth.append(fn())
        return None if result == truth[0] else f"decide gave {result}, brute force {truth[0]}"
    return check


def setup_eliminate(pv, work: str, seed: int) -> list[Op]:
    ops = []
    for i, rng in enumerate(_streams(seed, 600)):
        s = pv.fuzz.random_sentence(rng)
        ops.append(Op(f"decide-{i}", _decide_check(s),
                      call=lambda s=s: pv.decide(s)))
    for encoder, d in (("naive", 4), ("naive", 6), ("naive", 8),
                       ("bridged", 3), ("bridged", 4)):
        pa, meta = _gen(pv, work, encoder, d, seed)
        out = f"{work}/{encoder}{d}.qe.pa"
        ops.append(Op(f"qe-{encoder}-{d}", check_qe(d),
                      argv=["qe", "--formula", pa, "--out", out], outputs=[out],
                      expect="output atoms" if (encoder, d) == ("bridged", 4) else None))
        if encoder == "naive":
            ops.append(Op(f"upperbound-naive-{d}", check_upperbound(d),
                          argv=["upperbound", "--formula", pa]))
        if (encoder, d) in (("naive", 6), ("naive", 8)):
            ops.append(Op(f"verify-qe-naive-{d}", check_verify(d),
                          argv=["verify", "--mode", "qe", "--formula", pa, "--meta", meta],
                          top=d == 8))
    return ops


THRESHOLD = "#objects: x\n#params: y\n(<= x y)\n"
INTERVAL = "#objects: x\n#params: a b\n(and (<= a x) (<= x b))\n"


def _sexpr_text(tree) -> str:
    return tree if isinstance(tree, str) else "(" + " ".join(map(_sexpr_text, tree)) + ")"


def _partitioned_check(tree, params: list[str], n: int, windows) -> Callable:
    cached = []

    def check(report: dict, files) -> str | None:
        if not cached:
            fn = ref.compile_sexpr(tree, ["x"] + params)
            lo, hi = windows
            points = [()]
            for _ in params:
                points = [p + (v,) for p in points for v in range(lo, hi + 1)]
            masks = ref.family_masks(fn, range(n), points)
            pi = ref.pi_table(masks, n)
            cached.append(check_family(n, len(points), pi, ref.vc_from_pi(pi)))
        return cached[0](report, files)
    return check


def _random_family_check(fam) -> Callable:
    cached = []

    def check(rep, files) -> str | None:
        if not cached:
            pi = ref.pi_table([m for _, m in fam.members], len(fam.ground))
            cached.append((pi, ref.vc_from_pi(pi)))
        return _shatter_mismatch(rep.vc_dim, rep.capped, rep.pi_table, *cached[0])
    return check


def setup_vc_search(pv, work: str, seed: int) -> list[Op]:
    ops = []
    for name, text in (("threshold", THRESHOLD), ("interval", INTERVAL)):
        with open(f"{work}/{name}.pa", "w", encoding="utf-8") as fh:
            fh.write(text)

    def family_argv(name: str, n: int) -> list[str]:
        win = f"0..{n - 1}"
        params = ["y"] if name == "threshold" else ["a", "b"]
        argv = ["--formula", f"{work}/{name}.pa", "--ground", win]
        for p in params:
            argv += ["--param", f"{p}={win}"]
        return argv

    for name, vc, pi, size, grounds in (
            ("threshold", 1, ref.threshold_pi, lambda n: n, (12, 14, 16, 18)),
            ("interval", 2, ref.interval_pi, lambda n: n * n, (12, 14, 16, 19, 21))):
        for n in grounds:
            ops.append(Op(f"vc-{name}-{n}", check_family(n, size(n), pi(n), vc),
                          argv=["vc"] + family_argv(name, n) + ["--expect-vc", str(vc)],
                          expect="subsets" if n == 21 else None,
                          top=(name, n) == ("interval", 19)))
        for n in (12, 14, 16):
            for k in range(1, 6):
                ops.append(Op(f"shatter-{name}-{n}-{k}",
                              check_family(n, size(n), pi(n), vc, key="pi"),
                              argv=["shatter"] + family_argv(name, n) + ["--n", str(k)]))

    window = (-3, 3)
    for i, rng in enumerate(_streams(seed, 90)):
        pf = pv.fuzz.random_partitioned(rng)
        n = rng.randint(12, 16)
        tree = ref.ast_to_sexpr(pf.formula)
        path = f"{work}/partitioned{i}.pa"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"#objects: x\n#params: {' '.join(pf.param_vars)}\n"
                     f"{_sexpr_text(tree)}\n")
        argv = ["vc", "--formula", path, "--ground", f"0..{n - 1}"]
        for p in pf.param_vars:
            argv += ["--param", f"{p}={window[0]}..{window[1]}"]
        ops.append(Op(f"vc-partitioned-{i}",
                      _partitioned_check(tree, list(pf.param_vars), n, window),
                      argv=argv))

    for i, rng in enumerate(_streams(seed, 30)):
        fam = pv.fuzz.random_family(rng, max_ground=16, max_members=300)
        ops.append(Op(f"vc-family-{i}", _random_family_check(fam),
                      call=lambda fam=fam: pv.vc_dimension(fam)))
    return ops


def setup_gen_write(pv, work: str, seed: int) -> list[Op]:
    ops = []
    for d in (12, 14, 16):
        for encoder in ("naive", "bridged"):
            pa, meta = f"{work}/{encoder}{d}.pa", f"{work}/{encoder}{d}.json"
            ops.append(Op(f"gen-{encoder}-{d}", check_gen(encoder, d),
                          argv=["gen", "--d", str(d), "--encoder", encoder,
                                "--seed", str(seed), "--out", pa, "--meta", meta],
                          outputs=[pa, meta], top=(encoder, d) == ("naive", 16)))
    return ops


@dataclass(frozen=True)
class Workload:
    setup: Callable
    chunk: Callable  # speed probe resembling the workload's hot loop


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "construct-bounded": Workload(setup_construct_bounded, speed.evaluator_chunk),
    "eliminate": Workload(setup_eliminate, speed.evaluator_chunk),
    "vc-search": Workload(setup_vc_search, speed.vclab_chunk),
    "gen-write": Workload(setup_gen_write, speed.text_chunk),
}


def fingerprint(outputs: dict, files: list[str]) -> str:
    """Digest of an operation's outputs, to reuse a check's verdict."""
    h = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode())
    for text in files:
        h.update(text.encode())
    return h.hexdigest()


def clear_dir(path: str) -> None:
    if os.path.isdir(path):
        for name in os.listdir(path):
            os.remove(os.path.join(path, name))
    os.makedirs(path, exist_ok=True)
