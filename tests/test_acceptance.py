"""Release acceptance suite.

Each test covers one numbered acceptance check and prints a single

    [ACCEPTANCE n] PASS/FAIL: <summary>

line straight to the terminal (bypassing capture), then asserts.  Run

    python3 -m pytest tests/test_acceptance.py -v

to see one line per check alongside the pytest verdicts.
"""

import json
import random
import time

import pytest

from pavc import evaluator
from pavc.cli import main
from pavc.evaluator import (
    ResourceCapError,
    decide,
    eval_bounded,
)
from pavc.formula import bound_vars, parse, shape, to_text
from pavc.formula import PartitionedFormula
from pavc.fuzz import SOUND_BOX, random_family, random_partitioned, random_sentence
from pavc.generator import (
    DEFAULT_D_CAP,
    GadgetUnavailableError,
    build_code_set,
    collapse_image,
    encode_bridged,
    encode_cf_short,
    encode_naive,
    largest_terms,
    select_modulus,
    spread_values,
)
from pavc.upperbound import upper_bound_via_qe
from pavc.vclab import (
    family_from_formula,
    sauer_shelah_bound,
    shatter_function,
    vc_dimension,
)


def _line(capsys, n: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[ACCEPTANCE {n}] {'PASS' if ok else 'FAIL'}: {detail}")


def _run(capsys, *args):
    rc = main(list(args))
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_01_generated_families_shatter_exactly(capsys, tmp_path):
    # every generated formula must carve out exactly the lexicographic
    # family on its windows, with the full ground window shattered
    t0 = time.perf_counter()
    failures = []
    for d in range(1, 9):
        f = str(tmp_path / f"n{d}.pa")
        m = str(tmp_path / f"n{d}.json")
        rc, _ = _run(capsys, "gen", "--d", str(d), "--encoder", "naive",
                     "--out", f, "--meta", m)
        if rc != 0:
            failures.append((d, "gen", rc))
            continue
        rc, rep = _run(capsys, "verify", "--formula", f, "--meta", m)
        if rc != 0 or not rep["ok"]:
            bad = [c["name"] for c in rep["checks"] if not c["pass"]]
            failures.append((d, "verify", bad))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    _line(capsys, 1, ok,
          f"gen+verify for d=1..8, every check exact, {elapsed:.1f}s "
          f"(budget 120s); failures: {failures or 'none'}")
    assert ok, (failures, elapsed)


def test_02_code_set_equals_collapsed_spread(capsys):
    # point-by-point over the whole code window, plus the d=2 anchors
    mismatches = []
    for d in range(1, 9):
        code = set(build_code_set(d))
        image = set(collapse_image(d))
        for t in range(1, d * 2 ** d + 1):
            if (t in code) != (t in image):
                mismatches.append((d, t))
    anchors = (build_code_set(2) == (1, 2, 4, 5)
               and spread_values(2) == (1, 2, 5, 10))
    ok = not mismatches and anchors
    _line(capsys, 2, ok,
          "code set == collapsed spread image on [1, d*2^d] for d=1..8; "
          f"d=2 gives {build_code_set(2)} from {spread_values(2)}; "
          f"mismatches: {mismatches or 'none'}")
    assert ok, (mismatches, anchors)


def test_03_largest_terms_and_moduli(capsys):
    got = (largest_terms(2), select_modulus(2, "product"),
           largest_terms(3), select_modulus(3, "prime"))
    want = ((5, 10), 51, (19, 38, 75), 79)
    ok = got == want
    _line(capsys, 3, ok, f"largest terms and moduli: got {got}, want {want}")
    assert ok, (got, want)


def test_04_qe_agrees_with_bounded_search(capsys):
    # 200 seeded sentences, <= 2 quantifiers, coefficients in [-9, 9];
    # elimination+decision must match brute force over the sound box
    t0 = time.perf_counter()
    disagreements = []
    for i in range(200):
        rng = random.Random(4_000_000 + i)
        s = random_sentence(rng)
        hints = {v: SOUND_BOX for v in bound_vars(s)}
        if decide(s) != eval_bounded(s, {}, hints):
            disagreements.append((i, to_text(s)))
    elapsed = time.perf_counter() - t0
    ok = not disagreements and elapsed < 300.0
    _line(capsys, 4, ok,
          f"200 differential sentences, {len(disagreements)} disagreements, "
          f"{elapsed:.1f}s (budget 300s)")
    assert ok, (disagreements, elapsed)


def test_05_shatter_function_bounds(capsys):
    # pi(n) <= sum_{i<=dim} C(n,i) everywhere, and the dimension is
    # exactly the largest n with pi(n) = 2^n
    violations = []
    for i in range(500):
        rng = random.Random(5_050_000 + i)
        fam = random_family(rng)
        rep = vc_dimension(fam)
        assert not rep.capped
        # the whole shatter function, not vc_dimension's own table, which
        # stops once the dimension is settled
        table = [(n, shatter_function(fam, n))
                 for n in range(len(fam.ground) + 1)]
        for n, pi in table:
            if pi > sauer_shelah_bound(rep.vc_dim, n):
                violations.append((i, "bound", n, pi))
        full = max(n for n, pi in table if pi == 1 << n)
        if full != rep.vc_dim:
            violations.append((i, "dim-vs-pi", full, rep.vc_dim))
    ok = not violations
    _line(capsys, 5, ok,
          f"500 fuzzed families: shatter bound + dimension cross-check, "
          f"violations: {violations[:3] or 'none'}")
    assert ok, violations[:10]


def test_06_certificates_dominate_measured_dimension(capsys):
    # every certificate the pipeline can produce must be >= the measured
    # dimension; past the resource caps it must refuse, never under-report
    records = []
    violations = []
    for enc, name, ds in ((encode_naive, "naive", range(1, 7)),
                          (encode_bridged, "bridged", range(1, 6))):
        for d in ds:
            pf, meta = enc(d)
            cert, _, _ = upper_bound_via_qe(pf)
            fam = family_from_formula(
                pf, meta.ground_window, {meta.param_var: meta.param_window},
                mode="bounded", hints=meta.hint_map())
            rep = vc_dimension(fam)
            records.append((f"{name} d={d}", rep.vc_dim, cert.bound))
            if rep.capped or cert.bound < rep.vc_dim:
                violations.append(records[-1])
    # under a cap of 1,000 atoms, the smallest bridged d whose elimination
    # builds more than the cap (d = 7 builds 466 atoms, d = 8 1,045)
    with pytest.MonkeyPatch.context() as patch, \
            pytest.raises(ResourceCapError, match="output atoms"):
        patch.setattr(evaluator, "DEFAULT_MAX_ATOMS", 1000)
        upper_bound_via_qe(encode_bridged(8)[0])
    for i in range(100):
        rng = random.Random(660_000 + i)
        pf = random_partitioned(rng)
        cert, _, _ = upper_bound_via_qe(pf)
        fam = family_from_formula(
            pf, (0, 11), {v: (-4, 4) for v in pf.param_vars}, mode="qe")
        rep = vc_dimension(fam)
        records.append((f"fuzz {i}", rep.vc_dim, cert.bound))
        if rep.capped or cert.bound < rep.vc_dim:
            violations.append(records[-1])
    ok = not violations
    _line(capsys, 6, ok,
          f"{len(records)} certificates all dominate measured dimension "
          f"(the atom cap refuses loudly: bridged d=8 at 1000 atoms); violations: "
          f"{violations or 'none'}")
    assert ok, violations


def test_07_half_plane_families_have_dimension_one(capsys):
    # threshold families are nested, so exactly one point is shatterable
    wrong = []
    for i in range(50):
        rng = random.Random(770_000 + i)
        a = rng.choice([c for c in range(-5, 6) if c != 0])
        c0 = rng.randint(-5, 5)
        op = rng.choice(["<=", "<"])
        lhs = f"(+ (* {a} x) {c0})"
        expr = (f"({op} {lhs} y)" if rng.random() < 0.5
                else f"({op} y {lhs})")
        pf = PartitionedFormula(parse(expr), ("x",), ("y",))
        rep = vc_dimension(family_from_formula(pf, (0, 9), {"y": (-50, 50)}))
        if rep.vc_dim != 1:
            wrong.append((i, expr, rep.vc_dim))
    ok = not wrong
    _line(capsys, 7, ok,
          f"50 random half-plane families measure dimension exactly 1; "
          f"exceptions: {wrong or 'none'}")
    assert ok, wrong


def test_08_short_encoder_fails_loudly(capsys, tmp_path):
    # the compressed encoder is unbuilt: it must refuse audibly through
    # both the library and the command line, leaving nothing behind
    with pytest.raises(GadgetUnavailableError) as err:
        encode_cf_short(3)
    loud = "not implemented" in str(err.value)
    f = tmp_path / "cf3.pa"
    m = tmp_path / "cf3.json"
    rc = main(["gen", "--d", "3", "--encoder", "cf-short",
               "--modulus", "prime", "--seed", "7",
               "--out", str(f), "--meta", str(m)])
    captured = capsys.readouterr()
    ok = (loud and rc == 3 and not f.exists() and not m.exists()
          and "not implemented" in captured.err)
    _line(capsys, 8, ok,
          "unbuilt compressed encoder refuses loudly (library raise, "
          f"exit {rc}, no files); other checks run without it")
    assert ok, (loud, rc, f.exists(), m.exists(), captured.err)


def test_09_description_length_tracks_quadratic_model(capsys):
    # phi of the naive encoder, tallied atom by atom under ShapeReport's
    # convention: 1 symbol per operator, quantifier and variable
    # occurrence, bits(n) per integer n.  Disjunct i is
    #   exists xh. exists yh. (x + d*y = i + d*xh + d*2^i*yh
    #       and 0 <= xh and xh < 2^(i-1) and 0 <= yh and yh < 2^(d-i))
    # so phi(d) = 3/2*d^2 + O(d log d): the quadratic term comes from the
    # lengths of 2^i, 2^(i-1) and 2^(d-i), the rest is a fixed
    # per-disjunct overhead that dominates small d.
    def bits(n):
        return abs(n).bit_length() + 1

    def expected(d):
        total = 1 if d >= 2 else 0  # the top-level or
        for i in range(1, d + 1):
            total += 2 + 2 + 1  # exists xh, exists yh, and
            # =, x (1 + 2), y (1 + bits(d)), i (bits(i)), xh (1 + bits(d)),
            # yh (1 + bits(d) + i)
            total += 7 + 3 * bits(d) + bits(i) + i
            total += 5  # 0 <= xh: <=, 0 (1), xh (1 + 2)
            total += i + 5  # xh < 2^(i-1): <, xh (1 + 2), 2^(i-1) (i + 1)
            total += 5  # 0 <= yh
            # yh < 2^(d-i): <, yh (1 + 2), 2^(d-i) (d - i + 2)
            total += d - i + 6
        return total

    ds = range(1, DEFAULT_D_CAP + 1)
    phi = {d: shape(encode_naive(d)[0].formula).phi_bits for d in ds}
    off = {d: (phi[d], expected(d)) for d in ds if phi[d] != expected(d)}
    ok = not off
    split = ", ".join(f"{phi[d]}={1.5 * d * d:g}+{phi[d] - 1.5 * d * d:g}"
                      for d in ds)
    _line(capsys, 9, ok,
          f"phi(d) = 3/2*d^2 + rest for d=1..{DEFAULT_D_CAP}: {split}; "
          f"off the per-atom tally: {off or 'none'}")
    assert ok, off
