"""Code set construction, spread/collapse machinery, encoders, primes."""

import json
import random
from dataclasses import replace

import pytest
import sympy

from pavc.cli import main
from pavc.evaluator import eval_bounded, eval_ground
from pavc.formula import FormulaError, free_vars, shape, substitute
from pavc.generator import (
    DEFAULT_D_CAP,
    GadgetUnavailableError,
    GeneratorError,
    block_mask,
    build_code_set,
    code_set_contains,
    collapse_formula,
    collapse_image,
    collapse_witness,
    encode_bridged,
    encode_cf_short,
    encode_naive,
    index_block_values,
    is_probable_prime,
    largest_terms,
    lex_subset,
    meta_from_json,
    meta_to_json,
    next_prime_above,
    select_modulus,
    spread_aps,
    spread_block,
    spread_values,
    verify_encoding,
    _spread_membership,
)


# The per-element constructions that the bitmap kernel replaced, kept as
# references for the differential tests.

def reference_code_set(d):
    # block j holds i iff bit i-1 of j is clear
    return tuple(i + d * j for j in range(1 << d) for i in range(1, d + 1)
                 if not j >> (i - 1) & 1)


def reference_index_block_values(i, d):
    return tuple(sorted(x + (1 << i) * y for x in range(1 << (i - 1))
                        for y in range(1 << (d - i))))


def reference_collapse_image(d):
    out = set()
    for ap in spread_aps(d):
        for tp in ap:
            r = (tp - 1) % d + 1
            u = (tp - r) // d
            s, rp = divmod(u, 1 << d)
            out.add(r + d * (s + rp))
    return tuple(sorted(out))


class TestLexSubsets:
    def test_anchors_d2(self):
        assert lex_subset(2, 0) == {1, 2}
        assert lex_subset(2, 1) == {2}
        assert lex_subset(2, 2) == {1}
        assert lex_subset(2, 3) == set()

    def test_ordering_matches_descending_weight(self):
        # independent oracle: sort all subsets by descending sum of 2^(i-1)
        for d in range(1, 7):
            subsets = []
            for bits in range(1 << d):
                subsets.append(frozenset(
                    i for i in range(1, d + 1) if bits >> (i - 1) & 1))
            subsets.sort(key=lambda s: -sum(1 << (i - 1) for i in s))
            for j in range(1 << d):
                assert lex_subset(d, j) == subsets[j], (d, j)

    def test_extremes(self):
        for d in range(1, 9):
            assert lex_subset(d, 0) == set(range(1, d + 1))
            assert lex_subset(d, (1 << d) - 1) == set()

    def test_args_validated(self):
        with pytest.raises(GeneratorError):
            lex_subset(0, 0)
        with pytest.raises(GeneratorError):
            lex_subset(2, 4)
        with pytest.raises(GeneratorError):
            lex_subset(17, 0)


class TestCodeSet:
    def test_anchor_values(self):
        assert build_code_set(1) == (1,)
        assert build_code_set(2) == (1, 2, 4, 5)

    def test_bitmaps_match_per_element_references(self):
        for d in range(1, 13):
            assert build_code_set(d) == reference_code_set(d), d
            assert collapse_image(d) == reference_collapse_image(d), d
            for i in range(1, d + 1):
                assert index_block_values(i, d) == \
                    reference_index_block_values(i, d), (d, i)

    @pytest.mark.parametrize("bad", [True, False, 2.0, "2", None])
    def test_d_must_be_a_plain_int(self, bad):
        for fn in (build_code_set, collapse_image, encode_naive,
                   encode_bridged):
            with pytest.raises(GeneratorError, match="d must be"):
                fn(bad)

    def test_matches_lex_subset_definition(self):
        for d in range(1, 13):
            want = sorted(i + d * j for j in range(1 << d)
                          for i in lex_subset(d, j))
            assert build_code_set(d) == tuple(want), d

    def test_membership_oracle_matches_construction(self):
        for d in range(1, 9):
            explicit = set(build_code_set(d))
            top = d * (1 << d)
            assert max(explicit) <= top
            for t in range(-3, top + 5):
                assert code_set_contains(d, t) == (t in explicit), (d, t)

    def test_block_mask_is_membership_bit_by_bit(self):
        # verify compares each member with its block's mask, in place of
        # a code_set_contains call per t
        for d in range(1, 11):
            for j in range(1 << d):
                mask = block_mask(d, j)
                assert mask >> d == 0, (d, j)
                for i in range(1, d + 1):
                    assert bool(mask >> (i - 1) & 1) == \
                        code_set_contains(d, i + d * j), (d, j, i)
        with pytest.raises(GeneratorError):
            block_mask(3, 8)

    def test_size_counts_subset_memberships(self):
        # each of the 2^d blocks contributes its subset's size
        for d in range(1, 9):
            want = sum(len(lex_subset(d, j)) for j in range(1 << d))
            assert len(build_code_set(d)) == want
            assert want == d * (1 << (d - 1))

    def test_index_blocks_match_membership(self):
        for d in range(1, 9):
            for i in range(1, d + 1):
                by_sum = index_block_values(i, d)
                by_membership = tuple(
                    j for j in range(1 << d) if i in lex_subset(d, j))
                assert by_sum == by_membership, (d, i)


class TestSpread:
    def test_anchors_d2(self):
        aps = spread_aps(2)
        assert [(ap.start, ap.step, len(ap)) for ap in aps] \
            == [(1, 4, 2), (2, 8, 2)]
        assert spread_values(2) == (1, 2, 5, 10)
        assert largest_terms(2) == (5, 10)
        for d in range(1, DEFAULT_D_CAP + 1):
            for i, ap in enumerate(spread_aps(d), start=1):
                assert (ap.start, ap.step, len(ap)) == (i, d << i, 1 << (d - 1))
                block = spread_block(i, d)
                assert (block.start, block.step, len(block)) \
                    == (0, 1 << i, 1 << (d - 1))

    def test_largest_terms_d3(self):
        assert largest_terms(3) == (19, 38, 75)

    def test_progressions_are_disjoint(self):
        for d in range(1, 11):
            values = spread_values(d)
            assert len(values) == d * (1 << (d - 1))
            assert len(set(values)) == len(values)

    def test_residue_classes(self):
        for d in range(1, 9):
            for i, ap in enumerate(spread_aps(d), start=1):
                assert all(v % d == i % d for v in ap)

    def test_spread_block_size_matches_index_block(self):
        for d in range(1, 9):
            for i in range(1, d + 1):
                assert len(spread_block(i, d)) == len(index_block_values(i, d))

    @pytest.mark.parametrize("i", [0, 5])
    def test_block_index_outside_1_to_d_refused(self, i):
        for fn in (index_block_values, spread_block):
            with pytest.raises(GeneratorError, match=r"i must be in \[1, 4\]"):
                fn(i, 4)


class TestCollapse:
    def test_witness_anchors_d2(self):
        assert collapse_witness(2, 4) == (10, 2, 0, 1)
        assert collapse_witness(2, 5) == (5, 1, 2, 0)
        assert collapse_witness(2, 3) is None

    def test_nonmembers_truly_have_no_solution(self):
        # brute force the collapse system over all spread elements
        for d in range(1, 5):
            spread = spread_values(d)
            for t in range(1, d * (1 << d) + 1):
                solutions = []
                for tp in spread:
                    r = (tp - 1) % d + 1
                    u = (tp - r) // d
                    s, rp = divmod(u, 1 << d)
                    if rp < (1 << d) and t == r + d * (s + rp):
                        solutions.append((tp, r, rp, s))
                w = collapse_witness(d, t)
                if code_set_contains(d, t):
                    assert w in solutions, (d, t)
                else:
                    assert w is None and not solutions, (d, t)

    def test_witness_satisfies_system(self):
        # over every d that gen accepts, so that verify need not re-check
        # that each witness lies in the progression starting at its r
        for d in range(1, DEFAULT_D_CAP + 1):
            aps = spread_aps(d)
            for t in build_code_set(d):
                tp, r, rp, s = collapse_witness(d, t)
                assert 1 <= r <= d
                assert aps[r - 1].start == r and tp in aps[r - 1]
                assert 0 <= rp < (1 << d)
                assert tp == r + d * ((1 << d) * s + rp)
                assert t == r + d * (s + rp)

    def test_witness_is_the_only_solution(self):
        # every (tp, r, rp) with tp in the spread set; the tp equation
        # then fixes s, and the t equation says which t it solves
        for d in range(1, 6):
            solutions = {}
            for tp in spread_values(d):
                for r in range(1, d + 1):
                    for rp in range(1 << d):
                        s, rem = divmod(tp - r - d * rp, d << d)
                        if rem == 0:
                            solutions.setdefault(r + d * (s + rp), []).append(
                                (tp, r, rp, s))
            assert sorted(solutions) == list(build_code_set(d)), d
            for t, found in solutions.items():
                assert found == [collapse_witness(d, t)], (d, t)

    def test_image_equals_code_set(self):
        for d in range(1, DEFAULT_D_CAP + 1):
            assert collapse_image(d) == build_code_set(d)

    def test_progression_off_the_collapse_runs_is_refused(self, monkeypatch):
        # progression 2 of d = 4 has runs of 4 terms; 7 terms leave a
        # partial run, whose image is not a lattice
        import pavc.generator as gen
        aps = list(spread_aps(4))
        aps[1] = aps[1][:-1]
        monkeypatch.setattr(gen, "spread_aps", lambda d: tuple(aps))
        with pytest.raises(GeneratorError, match="unequal collapse runs"):
            collapse_image(4)

    def test_collapse_formula_counts_eight_inequalities(self):
        from pavc.formula import LinearTerm
        spread = _spread_membership(2, "w")
        base = shape(spread).num_inequalities
        wrapped = collapse_formula(2, spread, "w", LinearTerm.var("t"))
        assert shape(wrapped).num_inequalities == base + 8

    def test_collapse_formula_semantics_d2(self):
        from pavc.formula import LinearTerm
        spread = _spread_membership(2, "w")
        wrapped = collapse_formula(2, spread, "w", LinearTerm.var("t"))
        assert free_vars(wrapped) == {"t"}
        hints = {"s": (0, 1), "r": (1, 2), "rp": (0, 3), "tp": (1, 10),
                 "z": (0, 1)}
        for t in range(0, 9):
            got = eval_bounded(wrapped, {"t": t}, hints)
            assert got == code_set_contains(2, t), t

    def test_collapse_formula_requires_single_free_var(self):
        from pavc.formula import LinearTerm, parse
        with pytest.raises(GeneratorError):
            collapse_formula(2, parse("(< w u)"), "w", LinearTerm.var("t"))


class TestEncoders:
    def test_naive_shape(self):
        for d in (1, 2, 4, 8):
            pf, _ = encode_naive(d)
            rep = shape(pf.formula)
            assert rep.total_vars == 4
            assert rep.num_inequalities == 6 * d
            assert rep.num_quantifier_alternations == 0

    def test_bridged_shape(self):
        for d in (1, 2, 3, 5):
            pf, _ = encode_bridged(d)
            rep = shape(pf.formula)
            assert rep.num_inequalities == 4 * d + 8
            assert rep.num_quantifier_alternations == 0

    def test_naive_extensional_small(self):
        for d in range(1, 7):
            pf, meta = encode_naive(d)
            hints = meta.hint_map()
            for t in range(1, d * (1 << d) + 1):
                x = (t - 1) % d + 1
                y = (t - x) // d
                got = eval_bounded(pf.formula, {"x": x, "y": y}, hints)
                assert got == code_set_contains(d, t), (d, t)

    def test_bridged_extensional_small(self):
        for d in range(1, 5):
            pf, meta = encode_bridged(d)
            hints = meta.hint_map()
            for t in range(1, d * (1 << d) + 1):
                x = (t - 1) % d + 1
                y = (t - x) // d
                got = eval_bounded(pf.formula, {"x": x, "y": y}, hints)
                assert got == code_set_contains(d, t), (d, t)

    def test_encoders_agree_outside_windows(self):
        # points with y beyond the block range are off-code for both
        pf_n, meta_n = encode_naive(3)
        pf_b, meta_b = encode_bridged(3)
        for x in range(1, 4):
            for y in (8, 9, 20):
                a = eval_bounded(pf_n.formula, {"x": x, "y": y},
                                 meta_n.hint_map())
                b = eval_bounded(pf_b.formula, {"x": x, "y": y},
                                 meta_b.hint_map())
                assert a == b == code_set_contains(3, x + 3 * y)

    def test_witnesses_check_under_substitution(self):
        # every t with a derived witness grounds the naive body true
        for d in (2, 3):
            pf, meta = encode_naive(d)
            for t, (tp, r, rp, s) in meta.witnesses:
                x = (t - 1) % d + 1
                y = (t - x) // d
                g = substitute(pf.formula, {"x": x, "y": y})
                assert eval_bounded(g, {}, meta.hint_map()), (d, t)

    def test_meta_windows(self):
        _, meta = encode_naive(3)
        assert meta.ground_window == (1, 3)
        assert meta.param_window == (0, 7)
        assert meta.t_window == (1, 24)
        assert meta.object_var == "x" and meta.param_var == "y"

    def test_d_validated(self):
        for bad in (0, -1, 17):
            with pytest.raises(GeneratorError):
                encode_naive(bad)
            with pytest.raises(GeneratorError):
                encode_bridged(bad)


class TestVerifyEncoding:
    def test_checks_are_the_cli_report(self, capsys, tmp_path):
        f, m = str(tmp_path / "f3.pa"), str(tmp_path / "f3.json")
        assert main(["gen", "--d", "3", "--out", f, "--meta", m]) == 0
        capsys.readouterr()
        assert main(["verify", "--formula", f, "--meta", m]) == 0
        report = json.loads(capsys.readouterr().out)
        pf, meta = encode_naive(3)
        outputs, checks = verify_encoding(pf, meta, "bounded")
        assert [{"name": name, "pass": ok, **({"detail": detail} if detail else {})}
                for name, ok, detail in checks] == report["checks"]
        assert [name for name, ok, _ in checks if ok] == [
            "windows_consistent", "extensional_membership",
            "family_is_lexicographic", "ground_window_shattered",
            "vc_dimension_exact", "witnesses_check_out"]
        assert {**outputs, "shape": report["outputs"]["shape"]} == report["outputs"]

    def test_corrupted_window_builds_no_family(self):
        pf, meta = encode_naive(3)
        outputs, checks = verify_encoding(
            pf, replace(meta, param_window=(0, 6)), "qe")
        assert outputs == {"d": 3, "mode": "qe"}
        assert checks == [("windows_consistent", False,
                           "meta windows disagree with d")]

    def test_mismatched_partition_raises(self):
        pf, meta = encode_naive(2)
        with pytest.raises(FormulaError, match="partition does not match"):
            verify_encoding(pf, replace(meta, param_var="z"), "bounded")
        with pytest.raises(FormulaError, match="partition does not match"):
            verify_encoding(replace(pf, object_vars=("y",), param_vars=("x",)),
                            meta, "bounded")


class TestCompressedEncoderStub:
    def test_raises_loudly(self):
        with pytest.raises(GadgetUnavailableError) as err:
            encode_cf_short(3)
        msg = str(err.value)
        assert "not implemented" in msg
        assert "naive" in msg and "bridged" in msg

    def test_bad_modulus_mode_rejected_first(self):
        with pytest.raises(GeneratorError):
            encode_cf_short(3, modulus_mode="nonsense")

    def test_is_a_loud_error_type(self):
        assert issubclass(GadgetUnavailableError, NotImplementedError)


class TestModulus:
    def test_prime_mode(self):
        assert select_modulus(2, "prime") == 11
        assert select_modulus(3, "prime") == 79

    def test_product_mode(self):
        assert select_modulus(2, "product") == 1 + 5 * 10
        assert select_modulus(3, "product") == 1 + 19 * 38 * 75

    def test_unknown_mode(self):
        with pytest.raises(GeneratorError):
            select_modulus(2, "fibonacci")


class TestPrimes:
    def test_small_anchors(self):
        assert next_prime_above(1) == 2
        assert next_prime_above(2) == 3
        assert next_prime_above(75) == 79

    def test_beyond_word_size_matches_sympy(self):
        n = 2 ** 64
        got = next_prime_above(n)
        assert got == sympy.nextprime(n)
        assert got == n + 13

    def test_probable_prime_agrees_with_sympy(self):
        rng = random.Random(64)
        for _ in range(200):
            n = rng.getrandbits(rng.choice([10, 20, 40, 64]))
            assert is_probable_prime(n) == sympy.isprime(n), n

    @pytest.mark.parametrize("n", [
        # psi_12, the least strong pseudoprime to the bases 2..37
        318_665_857_834_031_151_167_461,
        # a prime between psi_12 and psi_13, decided by the fixed bases
        318_665_857_834_031_151_167_483,
        # psi_13, a strong pseudoprime to 2..41 as well: the seeded random
        # rounds past the deterministic limit find it composite
        3_317_044_064_679_887_385_961_981,
        # a prime past the limit, which the random rounds pass
        3_317_044_064_679_887_385_962_123,
    ])
    def test_strong_pseudoprimes_to_the_first_bases(self, n):
        assert is_probable_prime(n) == sympy.isprime(n), n
        assert next_prime_above(n - 1) == sympy.nextprime(n - 1), n

    def test_mode_validated(self):
        with pytest.raises(GeneratorError):
            next_prime_above(-1)


class TestMetaSerialization:
    def test_roundtrip_through_sorted_json(self):
        for d in (1, 3, 5):
            _, meta = encode_naive(d)
            blob = json.dumps(meta_to_json(meta), sort_keys=True)
            assert meta_from_json(json.loads(blob)) == meta

    def test_roundtrip_with_modulus(self):
        from dataclasses import replace
        _, meta = encode_bridged(2)
        meta = replace(meta, modulus=select_modulus(2, "prime"),
                       modulus_mode="prime")
        blob = json.dumps(meta_to_json(meta), sort_keys=True)
        assert meta_from_json(json.loads(blob)) == meta

    def test_big_values_serialized_as_strings(self):
        _, meta = encode_naive(5)
        data = meta_to_json(meta)
        assert all(isinstance(v, str) for v in data["t_window"])
        assert all(isinstance(v, str) for ap in data["aps"]
                   for v in ap.values())
