"""End-to-end runs of the command-line interface."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pavc import cli, evaluator, generator
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


def run_python(*args, stdout=subprocess.PIPE):
    """A child Python process with this checkout's src/ on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path})


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

    @pytest.mark.parametrize("d", [15, 16])
    def test_bounded_verify_past_the_nominal_point_cap(self, capsys, outdir, d):
        # the nominal hint product 2^(2d-2) is over the point cap, but each
        # disjunct is a bounded linear set in x + d*y, decided on its line
        f, m = str(outdir / f"n{d}.pa"), str(outdir / f"n{d}.json")
        assert main(["gen", "--d", str(d), "--out", f, "--meta", m]) == 0
        capsys.readouterr()
        rc, rep = run(capsys, "verify", "--formula", f, "--meta", m)
        assert rc == 0 and rep["ok"]
        assert len(rep["checks"]) == 6 and all(checks_by_name(rep).values())
        assert rep["outputs"]["vc"]["vc_dim"] == d

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

    @pytest.mark.parametrize("encoder, d", [("naive", 12), ("bridged", 4),
                                            ("bridged", 6)])
    def test_qe_mode_at_scale(self, capsys, outdir, encoder, d):
        f = str(outdir / f"{encoder}{d}.pa")
        m = str(outdir / f"{encoder}{d}.json")
        run(capsys, "gen", "--d", str(d), "--encoder", encoder, "--out", f, "--meta", m)
        rc, rep = run(capsys, "verify", "--formula", f, "--meta", m, "--mode", "qe")
        assert rc == 0 and all(checks_by_name(rep).values())
        assert rep["outputs"]["vc"]["vc_dim"] == d

    @pytest.mark.parametrize("d", [5, 6])
    def test_bridged_upperbound_under_the_default_caps(self, capsys, outdir, d):
        f, m = str(outdir / f"b{d}.pa"), str(outdir / f"b{d}.json")
        run(capsys, "gen", "--d", str(d), "--encoder", "bridged", "--out", f, "--meta", m)
        rc, rep = run(capsys, "upperbound", "--formula", f)
        assert rc == 0 and all(checks_by_name(rep).values())
        assert rep["outputs"]["vc_upper_bound"] >= d

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

    @pytest.mark.parametrize("encoder", ["naive", "bridged"])
    def test_gen_at_the_cap(self, capsys, outdir, encoder):
        rc, rep = run(capsys, "gen", "--d", "16", "--encoder", encoder,
                      "--out", str(outdir / "g.pa"),
                      "--meta", str(outdir / "g.json"))
        assert rc == 0
        assert checks_by_name(rep) == {"collapse_image_matches": True}
        assert rep["outputs"]["code_set_size"] == 16 << 15

    def test_code_set_size_counts_the_bitmap(self):
        # one int per 64 KB chunk: lengths at and around chunk edges
        rng = random.Random(5_500_000)
        for length in (0, 1, 65535, 65536, 65537, 3 * 65536 + 5):
            bitmap = bytearray(rng.getrandbits(1) for _ in range(length))
            if bitmap:
                bitmap[-1] = 1
            assert cli._ones(bitmap) == bitmap.count(1)
        for d in (1, 7, 16):
            code = generator.code_set_bitmap(d)
            assert cli._ones(code) == code.count(1) == d << (d - 1)

    @pytest.mark.parametrize("perturb", [
        lambda aps: aps[:-1],  # a progression dropped
        lambda aps: aps[:-1] + (aps[-1][:-1],),  # one shortened
    ], ids=["dropped", "shortened"])
    def test_gen_check_fails_on_a_perturbed_spread(self, capsys, outdir,
                                                   monkeypatch, perturb):
        spread_aps = generator.spread_aps
        monkeypatch.setattr(generator, "spread_aps",
                            lambda d: perturb(spread_aps(d)))
        rc, rep = run(capsys, "gen", "--d", "6", "--out",
                      str(outdir / "p.pa"), "--meta", str(outdir / "p.json"))
        assert rc == 1
        assert checks_by_name(rep) == {"collapse_image_matches": False}

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

    def test_one_term_progression_passes_with_any_step(self, capsys, outdir):
        # d = 1's one spread progression has one term, so an edited step
        # leaves its terms, d's spread set, and every witness in it
        f = str(outdir / "o1.pa")
        m = outdir / "o1.json"
        run(capsys, "gen", "--d", "1", "--out", f, "--meta", str(m))
        data = json.loads(m.read_text())
        assert data["aps"] == [{"start": "1", "step": "2", "count": "1"}]
        data["aps"][0]["step"] = "7"
        m.write_text(json.dumps(data, indent=2, sort_keys=True))
        rc, rep = run(capsys, "verify", "--formula", f, "--meta", str(m))
        assert rc == 0
        assert len(rep["checks"]) == 6 and all(checks_by_name(rep).values())

    @pytest.mark.parametrize("meta", ["same.x", "./same.x", "link.x"],
                             ids=["same-name", "dot-slash", "symlink"])
    def test_gen_refuses_one_file_for_out_and_meta(self, capsys, outdir,
                                                   monkeypatch, meta):
        monkeypatch.chdir(outdir)
        os.symlink("same.x", "link.x")  # dangling until something writes same.x
        rc, err = refused(capsys, "gen", "--d", "2", "--out", "same.x",
                          "--meta", meta)
        assert rc == 3
        assert err == "pavc gen: error: --out and --meta name the same file\n"
        assert os.listdir(outdir) == ["link.x"]

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
        {"aps": [{"start": "1", "step": "0", "count": "2"},
                 {"start": "2", "step": "8", "count": "2"}]},
        {"aps": [{"start": "1", "step": "4", "count": "0"},
                 {"start": "2", "step": "8", "count": "2"}]},
        {"aps": [{"start": "1", "step": "-4", "count": "2"},
                 {"start": "2", "step": "8", "count": "2"}]},
    ], ids=["one-entry-window", "one-entry-hint", "hint-list", "three-entry-window",
            "negative-d", "d-over-the-cap", "float-d", "bool-d", "padded-d",
            "underscore-hint", "float-step", "float-modulus", "zero-step",
            "zero-count", "negative-step"])
    def test_malformed_meta_is_unreadable(self, capsys, outdir, edit):
        f = str(outdir / "e2.pa")
        m = outdir / "e2.json"
        run(capsys, "gen", "--d", "2", "--out", f, "--meta", str(m))
        m.write_text(json.dumps({**json.loads(m.read_text()), **edit}))
        rc, err = refused(capsys, "verify", "--formula", f, "--meta", str(m))
        assert rc == 3
        assert "unreadable meta file" in err


class TestUnreadableInput:
    @pytest.mark.parametrize("args", [
        ["analyze"], ["qe"], ["upperbound"],
        ["vc", "--ground", "0..3", "--param", "y=0..3"],
        ["shatter", "--ground", "0..3", "--param", "y=0..3", "--n", "1"],
        ["verify", "--meta", "META"],
    ], ids=lambda args: args[0])
    def test_non_utf8_formula_exits_3(self, capsys, outdir, args):
        f, m = outdir / "bad.pa", outdir / "m.json"
        run(capsys, "gen", "--d", "2", "--out", str(f), "--meta", str(m))
        f.write_bytes(b"#objects: x\n#params: y\n(<= x \xffy)\n")
        args = [str(m) if a == "META" else a for a in args]
        rc, err = refused(capsys, args[0], "--formula", str(f), *args[1:])
        assert rc == 3
        assert f"unreadable formula file {f}" in err

    @pytest.mark.parametrize("content", [
        b'{"d": "2\xff"}', b"[" * 100_000 + b"]" * 100_000,
    ], ids=["non-utf8", "nested-100000-deep"])
    def test_undecodable_meta_is_unreadable(self, capsys, outdir, content):
        f, m = outdir / "u2.pa", outdir / "u2.json"
        run(capsys, "gen", "--d", "2", "--out", str(f), "--meta", str(m))
        m.write_bytes(content)
        rc, err = refused(capsys, "verify", "--formula", str(f), "--meta", str(m))
        assert rc == 3
        assert "unreadable meta file" in err

    @pytest.mark.parametrize("content", [b'{\r\n  "d": x}', b'{\r  "d": x}'],
                             ids=["crlf", "cr"])
    def test_malformed_meta_names_its_line(self, capsys, outdir, content):
        """A CRLF and a lone CR each end one line, as in text mode."""
        f, m = outdir / "u3.pa", outdir / "u3.json"
        run(capsys, "gen", "--d", "2", "--out", str(f), "--meta", str(m))
        m.write_bytes(content)
        rc, err = refused(capsys, "verify", "--formula", str(f), "--meta", str(m))
        assert rc == 3
        assert "Expecting value: line 2 column 8 (char 9)" in err


class TestOneReadPerInput:
    """Each input file is read once, and its digest is of the bytes parsed."""

    @pytest.mark.parametrize("args", [
        ["verify", "--meta", "META"], ["vc", "--ground", "0..3", "--param", "y=0..3"],
        ["shatter", "--ground", "0..3", "--param", "y=0..3", "--n", "1"],
        ["qe"], ["analyze"], ["upperbound"],
    ], ids=lambda args: args[0])
    def test_each_input_opened_once(self, capsys, outdir, monkeypatch, args):
        f, m = outdir / "once.pa", outdir / "once.json"
        if "META" in args:
            run(capsys, "gen", "--d", "2", "--out", str(f), "--meta", str(m))
        else:
            f.write_text("#objects: x\n#params: y\n(<= x y)\n")
        opened = []

        def counting_open(path, *rest, **kwargs):
            opened.append(path)
            return open(path, *rest, **kwargs)
        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        inputs = [str(f), str(m)] if "META" in args else [str(f)]
        args = [str(m) if a == "META" else a for a in args]
        rc, _ = run(capsys, args[0], "--formula", str(f), *args[1:])
        assert rc == 0
        assert sorted(opened) == sorted(inputs)

    @pytest.mark.skipif(not os.path.exists("/dev/fd"), reason="no /dev/fd")
    @pytest.mark.parametrize("command", ["qe", "analyze"])
    def test_pipe_as_formula(self, capsys, command):
        data = b"#objects: x\n#params: y\n(exists z (and (<= x z) (<= z y)))\n"
        r, w = os.pipe()
        os.write(w, data)
        os.close(w)
        try:
            rc = main([command, "--formula", f"/dev/fd/{r}"])
        finally:
            os.close(r)
        out = capsys.readouterr()
        assert rc == 0, out.err
        digest = json.loads(out.out)["inputs"]["formula"]["sha256"]
        assert digest == hashlib.sha256(data).hexdigest()


class TestFamilyWindows:
    @pytest.mark.parametrize("windows, message", [
        (["--param", "y=0..3", "--param", "q=0..1"], "not parameters: ['q']"),
        (["--param", "y=0..3", "--param", "y=0..5"],
         "--param given more than once for ['y']"),
        (["--param", "y=0..3", "--hint", "z=0..1", "--hint", "z=0..2"],
         "--hint given more than once for ['z']"),
        (["--param", "y=0..3", "--hint", "q=0..1"],
         "hints for names that no quantifier binds: ['q']"),
    ], ids=["not-a-parameter", "repeated-param", "repeated-hint", "unbound-hint"])
    def test_bad_windows_exit_3(self, capsys, outdir, windows, message):
        f = outdir / "thz.pa"
        f.write_text("#objects: x\n#params: y\n(exists z (and (<= x z) (<= z y)))\n")
        for command in (["vc"], ["shatter", "--n", "1"]):
            rc, err = refused(capsys, *command, "--formula", str(f),
                              "--ground", "0..3", *windows)
            assert rc == 3
            assert message in err


FAMILY = ["--ground", "0..3", "--param", "y=0..3"]


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

    @pytest.mark.parametrize("argv, name", [
        (["vc", *FAMILY, "--cap"], "cap"),
        (["shatter", "--n", "1", *FAMILY, "--cap"], "cap"),
        (["shatter", *FAMILY, "--n"], "n"),
        (["vc", *FAMILY, "--expect-vc"], "expect-vc"),
        (["analyze", "--max-vars"], "max-vars"),
        (["analyze", "--max-ineqs"], "max-ineqs"),
    ], ids=["vc-cap", "shatter-cap", "shatter-n", "vc-expect-vc",
            "analyze-max-vars", "analyze-max-ineqs"])
    def test_negative_threshold(self, capsys, outdir, argv, name):
        f = outdir / "t.pa"
        f.write_text("#objects: x\n#params: y\n(<= x y)\n")
        with pytest.raises(SystemExit) as err:
            main([argv[0], "--formula", str(f), *argv[1:], "-1"])
        assert err.value.code == 2
        assert f"{name} must be at least 0, got -1" in capsys.readouterr().err

    def test_bad_window_syntax(self, capsys, outdir):
        f = str(outdir / "f.pa")
        with pytest.raises(SystemExit) as err:
            main(["vc", "--formula", f, "--ground", "5..1"])
        assert err.value.code == 2
        capsys.readouterr()


class TestRepeatedCalls:
    """main may be called again in the same process: its parser is built
    at the first call and shared, and no call leaves state for the next."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_parser_is_built_at_the_first_call(self):
        proc = run_python("-c", "from pavc import cli\n"
                          "print(cli._build_parser.cache_info().currsize)\n"
                          "cli.main(['convergents', '--p', '1', '--q', '2'])\n"
                          "print(cli._build_parser.cache_info().currsize)\n")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert (lines[0], lines[-1]) == ("0", "1")

    def test_vc_twice_gives_the_same_report(self, capsys, outdir):
        f = outdir / "in.pa"
        f.write_text("#objects: x\n#params: a b\n"
                     "(exists z (and (<= a z) (<= z b) (= x z)))\n")
        argv = ["vc", "--formula", str(f), "--ground", "0..5",
                "--param", "a=0..5", "--param", "b=0..5", "--hint", "z=0..5",
                "--expect-vc", "2"]
        reports = []
        for _ in range(2):
            rc, rep = run(capsys, *argv)
            assert rc == 0, rep
            del rep["wall_time_s"]
            reports.append(rep)
        assert reports[0] == reports[1]
        assert list(reports[1]["outputs"]["param_windows"]) == ["a", "b"]

    @pytest.mark.parametrize("argv, message", [
        (["shatter", "--formula", "t.pa", "--ground", "0..3", "--n", "-1"],
         "n must be at least 0, got -1"),
        (["vc"], "the following arguments are required"),
    ], ids=["negative-n", "bare-vc"])
    def test_usage_error_twice(self, capsys, argv, message):
        # argparse refuses both before any file is read
        errs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert message in errs[0]

    def test_refusal_then_a_passing_call(self, capsys, outdir):
        f = outdir / "t.pa"
        f.write_text("#objects: x\n#params: y\n(<= x y)\n")
        argv = ["vc", "--formula", str(f), "--ground", "0..3", "--param", "y=0..3"]
        rc, err = refused(capsys, *argv, "--param", "y=0..5")
        assert rc == 3
        assert "--param given more than once for ['y']" in err
        rc, rep = run(capsys, *argv, "--expect-vc", "1")
        assert rc == 0
        assert rep["outputs"]["param_windows"] == {"y": ["0", "3"]}

    def test_help_twice(self, capsys):
        outs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as err:
                main(["--help"])
            assert err.value.code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert outs[0].startswith("usage: pavc")


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
        monkeypatch.setattr(evaluator, "DEFAULT_MAX_ATOMS", 4)
        rc = main(["qe", "--formula", str(f)])
        captured = capsys.readouterr()
        assert rc == 3
        assert "cap" in captured.err

    def test_bridged_bounded_verify_refused_on_nominal_points(self, capsys,
                                                              outdir):
        # the refusal is purely nominal: the point cap counts the input
        # formula's nested hint sizes, 4.7e9 at bridged d = 6, while the
        # plan fixes s by CRT in each branch of the spread's or and tests
        # at most one value of it per branch
        f, m = str(outdir / "b6.pa"), str(outdir / "b6.json")
        assert main(["gen", "--d", "6", "--encoder", "bridged",
                     "--out", f, "--meta", m]) == 0
        capsys.readouterr()
        rc = main(["verify", "--formula", f, "--meta", m])
        captured = capsys.readouterr()
        assert rc == 3
        assert "enumeration points" in captured.err

    @pytest.mark.parametrize("command", ["qe", "upperbound"])
    def test_first_bridged_d_past_the_atom_cap_exits_3_fast(
            self, capsys, outdir, command):
        # no bridged d up to the generator's cap builds past the atom cap
        # (d = 16 builds 524,333).  This body plans one instance per
        # residue mod 1,000,003 of its one witness, y: the plan's count is
        # refused before any instance is built
        f = outdir / "planned.pa"
        f.write_text("#objects: x\n#params: y\n"
                     "(exists z (and (< y z) (< z x) (div 1000003 (+ z y))))\n")
        start = time.perf_counter()
        rc, err = refused(capsys, command, "--formula", str(f))
        assert time.perf_counter() - start < 1
        assert rc == 3
        assert "output atoms cap exceeded: needs 1000003, cap 1000000" in err

    @pytest.mark.parametrize("command", ["qe", "upperbound"])
    def test_offset_count_past_2_63_exits_3(self, capsys, outdir, command):
        # about 2^70 offsets, past what len() of a range can count
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
        # the report names the file, digested from its bytes, and does not
        # repeat the formula; without --out it gives the formula's text
        assert "formula_text" not in rep["outputs"]
        assert rep["outputs"]["out_file"]["sha256"] == \
            hashlib.sha256(out.read_bytes()).hexdigest()
        assert out.read_text().split("\n") == [
            "#objects: x", "#params: y", "(and (div 2 x) (<= x y))", ""]
        rc, rep = run(capsys, "qe", "--formula", str(f))
        assert rc == 0 and "out_file" not in rep["outputs"]
        assert rep["outputs"]["formula_text"] == "(and (div 2 x) (<= x y))"

    def test_qe_digests_its_input_before_overwriting_it(self, capsys, outdir):
        f = outdir / "in.pa"
        f.write_text("#objects: x\n#params: y\n"
                     "(exists z (and (= x (* 2 z)) (<= x y)))\n")
        before = hashlib.sha256(f.read_bytes()).hexdigest()
        rc, rep = run(capsys, "qe", "--formula", str(f), "--out", str(f))
        assert rc == 0
        assert rep["inputs"]["formula"]["sha256"] == before
        after = hashlib.sha256(f.read_bytes()).hexdigest()
        assert rep["outputs"]["out_file"]["sha256"] == after != before

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

        # a repeated point is one point: 2,3,2 is the shattered pair 2,3
        rc, rep = run(capsys, "shatter", "--formula", str(f),
                      "--ground", "0..5", "--param", "a=0..5",
                      "--param", "b=0..5", "--points", "2,3,2")
        assert rc == 0
        assert rep["checks"][0]["detail"] == "2 points, witness labels found"
        assert sorted(rep["outputs"]["witness"]) == ["{2,3}", "{2}", "{3}", "{}"]

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


class TestModuleEntryPoint:
    """`python -m pavc` runs the same command line from a checkout."""

    @staticmethod
    def run_module(*args):
        return run_python("-m", "pavc", *args)

    def test_help(self):
        proc = self.run_module("--help")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: pavc")
        assert "convergents" in proc.stdout

    def test_convergents(self):
        proc = self.run_module("convergents", "--p", "45", "--q", "16")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["command"] == "convergents"
        assert report["outputs"]["convergents"][-1] == ["45", "16"]

    @pytest.mark.parametrize("argv", [
        "convergents --p 45 --q 16",
        "gen --d 3 --out {tmp}/f.pa --meta {tmp}/f.json",
    ], ids=["convergents", "gen"])
    def test_closed_stdout_is_an_operational_error(self, tmp_path, argv):
        read, write = os.pipe()
        os.close(read)  # before the child starts, so its report cannot be written
        try:
            proc = run_python("-m", "pavc", *argv.format(tmp=tmp_path).split(),
                              stdout=write)
        finally:
            os.close(write)
        assert proc.returncode == 3
        command = argv.split()[0]
        assert proc.stderr.startswith(f"pavc {command}: error: ")
        assert "Broken pipe" in proc.stderr and proc.stderr.count("\n") == 1
