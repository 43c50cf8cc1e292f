"""End-to-end runs of the command-line interface."""

import json

import pytest

from pavc.cli import main
from pavc.formula import MAX_NESTING


def run(capsys, *args):
    rc = main(list(args))
    out = capsys.readouterr().out
    return rc, json.loads(out)


def checks_by_name(report):
    return {c["name"]: c["pass"] for c in report["checks"]}


def refused(capsys, *args):
    """Exit code and stderr of a run that fails with one error line."""
    rc = main(list(args))
    err = capsys.readouterr().err
    assert err.startswith(f"pavc {args[0]}: error: ") and err.count("\n") == 1
    return rc, err


@pytest.fixture
def outdir(tmp_path):
    return tmp_path


class TestGenVerify:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_roundtrip(self, capsys, outdir, d):
        f = str(outdir / f"f{d}.pa")
        m = str(outdir / f"f{d}.json")
        rc, rep = run(capsys, "gen", "--d", str(d), "--out", f, "--meta", m)
        assert rc == 0
        assert rep["ok"]
        assert rep["outputs"]["shape"]["total_vars"] == 4

        rc, rep = run(capsys, "verify", "--formula", f, "--meta", m)
        assert rc == 0
        got = checks_by_name(rep)
        assert got == {
            "windows_consistent": True,
            "extensional_membership": True,
            "family_is_lexicographic": True,
            "ground_window_shattered": True,
            "vc_dimension_exact": True,
            "witnesses_check_out": True,
        }

    def test_bridged_roundtrip(self, capsys, outdir):
        f = str(outdir / "b3.pa")
        m = str(outdir / "b3.json")
        assert run(capsys, "gen", "--d", "3", "--encoder", "bridged",
                   "--out", f, "--meta", m)[0] == 0
        rc, rep = run(capsys, "verify", "--formula", f, "--meta", m)
        assert rc == 0 and rep["ok"]

    def test_qe_mode(self, capsys, outdir):
        f = str(outdir / "q2.pa")
        m = str(outdir / "q2.json")
        run(capsys, "gen", "--d", "2", "--out", f, "--meta", m)
        rc, rep = run(capsys, "verify", "--formula", f, "--meta", m,
                      "--mode", "qe")
        assert rc == 0 and rep["ok"]

    def test_fixed_seed_is_byte_identical(self, capsys, outdir):
        pairs = []
        for tag in ("one", "two"):
            f = outdir / f"{tag}.pa"
            m = outdir / f"{tag}.json"
            run(capsys, "gen", "--d", "3", "--seed", "9", "--modulus",
                "prime", "--out", str(f), "--meta", str(m))
            pairs.append((f.read_bytes(), m.read_bytes()))
        assert pairs[0] == pairs[1]

    def test_rewrite_leaves_exactly_the_new_content(self, capsys, outdir):
        fresh = {n: outdir / f"fresh.{n}" for n in ("pa", "json", "qe")}
        stale = {n: outdir / f"stale.{n}" for n in ("pa", "json")}
        target = outdir / "target.qe"
        stale["qe"] = outdir / "link.qe"
        stale["qe"].symlink_to(target)
        for path in (*stale.values(), target):
            path.write_text("stale " * 5000)
        for out in (fresh, stale):
            assert run(capsys, "gen", "--d", "3", "--out", str(out["pa"]),
                       "--meta", str(out["json"]))[0] == 0
            assert run(capsys, "qe", "--formula", str(out["pa"]),
                       "--out", str(out["qe"]))[0] == 0
        for n in fresh:
            assert stale[n].read_bytes() == fresh[n].read_bytes(), n
        assert stale["qe"].is_symlink()

    def test_meta_file_holds_no_witnesses(self, capsys, outdir):
        m = outdir / "n16.json"
        rc, _ = run(capsys, "gen", "--d", "16", "--out",
                    str(outdir / "n16.pa"), "--meta", str(m))
        assert rc == 0
        data = json.loads(m.read_text())
        assert "witnesses" not in data and "largest" not in data
        assert m.stat().st_size < 4096

    def test_corrupted_witness_fails_named_check(self, capsys, outdir):
        f = str(outdir / "c2.pa")
        m = outdir / "c2.json"
        run(capsys, "gen", "--d", "2", "--out", f, "--meta", str(m))
        data = json.loads(m.read_text())
        assert data["aps"][1] == {"start": "2", "step": "8", "count": "2"}
        data["aps"][1]["step"] = "16"  # t=4's tp = 10 leaves the progression
        m.write_text(json.dumps(data, indent=2, sort_keys=True))
        rc, rep = run(capsys, "verify", "--formula", f, "--meta", str(m))
        assert rc == 1
        got = checks_by_name(rep)
        assert got["witnesses_check_out"] is False
        assert got["extensional_membership"] is True
        detail = {c["name"]: c.get("detail", "") for c in rep["checks"]}
        assert detail["witnesses_check_out"] == \
            "spread progressions differ from those of d"

    def test_missing_progression_fails_named_check(self, capsys, outdir):
        f = str(outdir / "m3.pa")
        m = outdir / "m3.json"
        run(capsys, "gen", "--d", "3", "--out", f, "--meta", str(m))
        data = json.loads(m.read_text())
        del data["aps"][0]  # the progression starting at r = 1
        m.write_text(json.dumps(data, indent=2, sort_keys=True))
        rc, rep = run(capsys, "verify", "--formula", f, "--meta", str(m))
        assert rc == 1
        got = checks_by_name(rep)
        assert got["witnesses_check_out"] is False
        assert got["extensional_membership"] is True
        detail = {c["name"]: c.get("detail", "") for c in rep["checks"]}
        assert detail["witnesses_check_out"] == \
            "spread progressions differ from those of d"

    def test_lengthened_progression_fails_named_check(self, capsys, outdir):
        # every derived witness still lies in its progression, but the
        # progressions no longer describe d's spread set
        f = str(outdir / "l2.pa")
        m = outdir / "l2.json"
        run(capsys, "gen", "--d", "2", "--out", f, "--meta", str(m))
        data = json.loads(m.read_text())
        data["aps"][0]["count"] = "3"
        m.write_text(json.dumps(data, indent=2, sort_keys=True))
        rc, rep = run(capsys, "verify", "--formula", f, "--meta", str(m))
        assert rc == 1
        got = checks_by_name(rep)
        assert got["witnesses_check_out"] is False
        assert got["extensional_membership"] is True
        detail = {c["name"]: c.get("detail", "") for c in rep["checks"]}
        assert detail["witnesses_check_out"] == \
            "spread progressions differ from those of d"

    def test_corrupted_window_fails_fast(self, capsys, outdir):
        f = str(outdir / "w2.pa")
        m = outdir / "w2.json"
        run(capsys, "gen", "--d", "2", "--out", f, "--meta", str(m))
        data = json.loads(m.read_text())
        data["param_window"] = ["0", "2"]
        m.write_text(json.dumps(data))
        rc, rep = run(capsys, "verify", "--formula", f, "--meta", str(m))
        assert rc == 1
        assert checks_by_name(rep) == {"windows_consistent": False}

    def test_corrupted_formula_fails_extensional(self, capsys, outdir):
        f = outdir / "t2.pa"
        m = str(outdir / "t2.json")
        run(capsys, "gen", "--d", "2", "--out", str(f), "--meta", m)
        f.write_text(f.read_text().replace("(* 4 yh)", "(* 6 yh)"))
        rc, rep = run(capsys, "verify", "--formula", str(f), "--meta", m)
        assert rc == 1
        got = checks_by_name(rep)
        assert got["extensional_membership"] is False
        assert got["family_is_lexicographic"] is False
        detail = {c["name"]: c.get("detail", "") for c in rep["checks"]}
        assert detail["extensional_membership"].startswith("first mismatch at t=")
        t = int(detail["extensional_membership"].rsplit("=", 1)[1])
        assert detail["family_is_lexicographic"] == \
            f"block y={(t - 1) // 2} selects the wrong subset"

    def test_unreadable_meta_is_operational_error(self, capsys, outdir):
        f = str(outdir / "x2.pa")
        m = outdir / "x2.json"
        run(capsys, "gen", "--d", "2", "--out", f, "--meta", str(m))
        m.write_text("{not json")
        rc = main(["verify", "--formula", f, "--meta", str(m)])
        capsys.readouterr()
        assert rc == 3

    @pytest.mark.parametrize("edit", [
        {"ground_window": ["1"]},
        {"hints": {"xh": ["0"], "yh": ["0", "1"]}},
        {"hints": ["xh", "yh"]},
        {"ground_window": ["1", "2", "3"]},
        {"d": -1, "ground_window": ["1", "-1"]},
        # windows consistent with d = 17: refused before any family is built
        {"d": 17, "ground_window": ["1", "17"],
         "param_window": ["0", str((1 << 17) - 1)],
         "t_window": ["1", str(17 << 17)]},
        # numbers that int() would truncate or coerce instead of refusing
        {"d": 2.5},
        {"d": True},
        {"d": " 2 "},
        {"hints": {"xh": ["0", "1"], "yh": ["0", "2_0"]}},
        {"aps": [{"start": "1", "step": "4", "count": "2"},
                 {"start": "2", "step": 2.9, "count": "2"}]},
        {"modulus": 7.5},
    ], ids=["one-entry-window", "one-entry-hint", "hint-list", "three-entry-window",
            "negative-d", "d-over-the-cap", "float-d", "bool-d", "padded-d",
            "underscore-hint", "float-step", "float-modulus"])
    def test_malformed_meta_is_unreadable(self, capsys, outdir, edit):
        f = str(outdir / "e2.pa")
        m = outdir / "e2.json"
        run(capsys, "gen", "--d", "2", "--out", f, "--meta", str(m))
        m.write_text(json.dumps({**json.loads(m.read_text()), **edit}))
        rc, err = refused(capsys, "verify", "--formula", f, "--meta", str(m))
        assert rc == 3
        assert "unreadable meta file" in err


class TestUsageErrors:
    def test_d_zero_is_usage_error(self, capsys, outdir):
        with pytest.raises(SystemExit) as err:
            main(["gen", "--d", "0", "--out", str(outdir / "f"),
                  "--meta", str(outdir / "m")])
        assert err.value.code == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2
        capsys.readouterr()

    def test_bad_window_syntax(self, capsys, outdir):
        f = str(outdir / "f.pa")
        with pytest.raises(SystemExit) as err:
            main(["vc", "--formula", f, "--ground", "5..1"])
        assert err.value.code == 2
        capsys.readouterr()


class TestGadgetStub:
    def test_cf_short_fails_loudly(self, capsys, outdir):
        rc = main(["gen", "--d", "3", "--encoder", "cf-short",
                   "--out", str(outdir / "f"), "--meta", str(outdir / "m")])
        captured = capsys.readouterr()
        assert rc == 3
        assert "not implemented" in captured.err
        assert not (outdir / "f").exists()


class TestResourceCap:
    def test_tiny_atom_cap_fails_loudly(self, capsys, outdir, monkeypatch):
        f = outdir / "big.pa"
        f.write_text("#objects: y\n#params:\n"
                     "(exists x (and (< (* 5 x) y) (< y (* 3 x))))\n")
        monkeypatch.setenv("PAVC_MAX_ATOMS", "4")
        rc = main(["qe", "--formula", str(f)])
        captured = capsys.readouterr()
        assert rc == 3
        assert "cap" in captured.err

    def test_bridged_bounded_verify_refused_on_nominal_points(self, capsys,
                                                              outdir):
        # the point cap counts the input formula's nested hint sizes, not
        # the work the compiled plan does: bridged d = 6 needs 4.7e9
        f, m = str(outdir / "b6.pa"), str(outdir / "b6.json")
        assert main(["gen", "--d", "6", "--encoder", "bridged",
                     "--out", f, "--meta", m]) == 0
        capsys.readouterr()
        rc = main(["verify", "--formula", f, "--meta", m])
        captured = capsys.readouterr()
        assert rc == 3
        assert "enumeration points" in captured.err

    @pytest.mark.parametrize("command", ["qe", "upperbound"])
    def test_offset_count_past_2_63_exits_3(self, capsys, outdir, monkeypatch,
                                            command):
        # about 2^70 offsets, past what len() of a range can count
        monkeypatch.delenv("PAVC_MAX_ATOMS", raising=False)
        f = outdir / "lcm.pa"
        f.write_text("#objects: y\n#params:\n"
                     "(exists x (and (< (* 1180591620717411303425 x) y) "
                     "(< y (* 1180591620717411303423 x))))\n")
        rc, err = refused(capsys, command, "--formula", str(f))
        assert rc == 3
        assert "output atoms cap exceeded" in err

    def test_coefficients_past_str_limit_exit_3(self, capsys, outdir):
        # the equality shortcut's product D*E has 16,001 bits, which
        # to_text could not print
        c, d, e = ((1 << 8000) + k for k in (1, 3, 5))
        f = outdir / "wide.pa"
        f.write_text("#objects: y z\n#params:\n(exists x (and "
                     f"(= (* {c} x) (* {e} z)) (< (* {d} x) y)))\n")
        rc, err = refused(capsys, "qe", "--formula", str(f))
        assert rc == 3
        assert "coefficient bits cap exceeded" in err

    def test_literal_past_str_limit_exits_3(self, capsys, outdir):
        f = outdir / "long.pa"
        f.write_text(f"#objects: x\n#params:\n(< x {'9' * 5000})\n")
        rc, err = refused(capsys, "analyze", "--formula", str(f))
        assert rc == 3
        assert "3:6: integer literal too long: 5000 digits" in err

    def test_oversized_family_grid_exits_3(self, capsys, outdir):
        f = outdir / "thr.pa"
        f.write_text("#objects: x\n#params: y\n(<= x y)\n")
        rc = main(["vc", "--formula", str(f), "--ground", "0..3",
                   "--param", "y=0..100000000000"])
        captured = capsys.readouterr()
        assert rc == 3
        assert "enumeration points cap exceeded" in captured.err


class TestAnalysisCommands:
    def test_qe_command_writes_result(self, capsys, outdir):
        f = outdir / "in.pa"
        f.write_text("#objects: x\n#params: y\n"
                     "(exists z (and (= x (* 2 z)) (<= x y)))\n")
        out = outdir / "out.pa"
        rc, rep = run(capsys, "qe", "--formula", str(f), "--out", str(out))
        assert rc == 0
        assert rep["outputs"]["formula_text"] == "(and (div 2 x) (<= x y))"
        text = out.read_text()
        assert "#objects: x" in text and "(div 2 x)" in text

    def test_analyze_reports_shape(self, capsys, outdir):
        f = outdir / "in.pa"
        f.write_text("#objects: x\n#params: y\n(exists z (< (+ x z) y))\n")
        rc, rep = run(capsys, "analyze", "--formula", str(f))
        assert rc == 0
        assert rep["outputs"]["total_vars"] == 3
        assert rep["outputs"]["num_inequalities"] == 1
        assert rep["outputs"]["is_short"]

    def test_analyze_require_short_can_fail(self, capsys, outdir):
        f = outdir / "in.pa"
        f.write_text("#objects: x\n#params: y\n(exists z (< (+ x z) y))\n")
        rc, rep = run(capsys, "analyze", "--formula", str(f),
                      "--require-short", "--max-vars", "2")
        assert rc == 1
        assert not rep["ok"]

    def test_vc_command_with_expectation(self, capsys, outdir):
        f = outdir / "in.pa"
        f.write_text("#objects: x\n#params: a b\n"
                     "(and (<= a x) (<= x b))\n")
        rc, rep = run(capsys, "vc", "--formula", str(f),
                      "--ground", "0..5", "--param", "a=0..5",
                      "--param", "b=0..5", "--expect-vc", "2")
        assert rc == 0
        assert rep["outputs"]["vc_dim"] == 2

    def test_vc_on_21_points_cuts_the_table(self, capsys, outdir):
        # the table stops at k = 2, the first k with pi(k) < 2^k
        f = outdir / "thresh.pa"
        f.write_text("#objects: x\n#params: y\n(<= x y)\n")
        rc, rep = run(capsys, "vc", "--formula", str(f), "--ground", "0..20",
                      "--param", "y=0..20", "--expect-vc", "1")
        assert rc == 0
        assert rep["outputs"]["vc_dim"] == 1
        assert rep["outputs"]["pi_table"] == [[0, 1], [1, 2], [2, 3]]

    def test_shatter_points(self, capsys, outdir):
        f = outdir / "in.pa"
        f.write_text("#objects: x\n#params: a b\n"
                     "(and (<= a x) (<= x b))\n")
        rc, rep = run(capsys, "shatter", "--formula", str(f),
                      "--ground", "0..5", "--param", "a=0..5",
                      "--param", "b=0..5", "--points", "2,3")
        assert rc == 0
        assert rep["outputs"]["witness"]

        rc, rep = run(capsys, "shatter", "--formula", str(f),
                      "--ground", "0..5", "--param", "a=0..5",
                      "--param", "b=0..5", "--points", "1,2,3")
        assert rc == 1  # intervals cannot shatter three points

    def test_shatter_function_value(self, capsys, outdir):
        f = outdir / "in.pa"
        f.write_text("#objects: x\n#params: a b\n"
                     "(and (<= a x) (<= x b))\n")
        rc, rep = run(capsys, "shatter", "--formula", str(f),
                      "--ground", "0..5", "--param", "a=0..5",
                      "--param", "b=0..5", "--n", "2")
        assert rc == 0
        assert rep["outputs"]["pi"] == 4

    def test_upperbound_command(self, capsys, outdir):
        f = outdir / "in.pa"
        f.write_text("#objects: x\n#params: y\n"
                     "(exists z (and (= x (* 2 z)) (<= x y)))\n")
        rc, rep = run(capsys, "upperbound", "--formula", str(f))
        assert rc == 0
        assert rep["outputs"]["ell"] == 2
        assert rep["outputs"]["vc_upper_bound"] == 5

    def test_convergents_command(self, capsys):
        rc, rep = run(capsys, "convergents", "--p", "45", "--q", "16")
        assert rc == 0
        assert rep["outputs"]["terms"] == ["2", "1", "4", "3"]
        assert rep["outputs"]["convergents"][-1] == ["45", "16"]
        assert checks_by_name(rep) == {"determinant_identity": True,
                                       "reconstructs_input": True}

    def test_convergents_rejects_zero_denominator(self, capsys):
        rc = main(["convergents", "--p", "3", "--q", "0"])
        capsys.readouterr()
        assert rc == 3


def test_report_structure(capsys, tmp_path):
    f = str(tmp_path / "f.pa")
    m = str(tmp_path / "m.json")
    rc, rep = run(capsys, "gen", "--d", "2", "--out", f, "--meta", m)
    assert set(rep) == {"command", "seed", "inputs", "outputs", "checks",
                        "ok", "wall_time_s"}
    assert rep["command"] == "gen"
    assert rep["seed"] == 0
    assert rep["inputs"]["d"] == 2
    assert len(rep["outputs"]["formula_file"]["sha256"]) == 64
    assert isinstance(rep["wall_time_s"], float)


class TestDeepNesting:
    @staticmethod
    def write(path, depth):
        """(exists z (and (< y z) (or (< x 4) (and (< z x) ... (< z 1))))),
        `depth` parentheses deep."""
        body = "(< z 1)"
        for i in range(depth - 2):
            atom = ("(< y z)", "(< z x)")[i // 2 % 2] if i % 2 else f"(< x {i})"
            body = f"({'and' if i % 2 else 'or'} {atom} {body})"
        path.write_text(f"#objects: x\n#params: y\n(exists z {body})\n")
        return str(path)

    def test_commands_run_at_the_cap(self, capsys, outdir):
        f = self.write(outdir / "deep.pa", MAX_NESTING)
        for args in (["qe", "--formula", f], ["upperbound", "--formula", f],
                     ["analyze", "--formula", f],
                     ["vc", "--formula", f, "--ground", "0..3",
                      "--param", "y=0..3", "--hint", "z=-2..6"]):
            rc, rep = run(capsys, *args)
            assert rc == 0 and rep["command"] == args[0]

    def test_quantifier_free_formula_at_the_cap(self, capsys, outdir):
        # a quantifier-free body with a parameter takes the mask path
        body = "(< x 1)"
        for i in range(MAX_NESTING - 2):
            atom = ("(< y x)", "(div 3 (+ x (* 2 y)))")[i // 2 % 2] \
                if i % 2 else f"(< x {i % 7})"
            body = f"({'and' if i % 2 else 'or'} {atom} {body})"
        f = outdir / "deep-qf.pa"
        f.write_text(f"#objects: x\n#params: y\n(not {body})\n")
        rc, rep = run(capsys, "vc", "--formula", str(f), "--ground", "0..5",
                      "--param", "y=-3..3")
        assert rc == 0 and rep["outputs"]["family_size"] == 7

    def test_one_past_the_cap_exits_3(self, capsys, outdir):
        f = self.write(outdir / "deeper.pa", MAX_NESTING + 1)
        for command in ("qe", "upperbound", "analyze"):
            rc = main([command, "--formula", f])
            captured = capsys.readouterr()
            assert rc == 3
            assert f"nesting deeper than {MAX_NESTING}" in captured.err
