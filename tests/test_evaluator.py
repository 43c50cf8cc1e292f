"""Evaluation routes and quantifier elimination."""

import hashlib
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from pavc import evaluator
from pavc.evaluator import (
    DEFAULT_MAX_POINTS,
    EvalError,
    MissingHintError,
    ResourceCapError,
    compile_masks,
    compile_plan,
    count_atoms,
    decide,
    eliminate_quantifiers,
    eval_bounded,
    eval_ground,
    eval_point,
    simplify,
)
from pavc.formula import (
    And,
    Atom,
    Bool,
    DIV,
    EQ,
    Exists,
    FALSE,
    Forall,
    LE,
    LinearTerm,
    LT,
    Not,
    Or,
    PartitionedFormula,
    TRUE,
    ZERO,
    atoms_of,
    bound_vars,
    free_vars,
    is_quantifier_free,
    mk_and,
    mk_or,
    parse,
    to_text,
)
from pavc.fuzz import SOUND_BOX, random_partitioned, random_qf, random_sentence
from pavc.generator import (
    build_code_set,
    code_set_contains,
    encode_bridged,
    encode_naive,
)
from pavc.vclab import SetFamily, family_from_formula


class TestDirectEvaluation:
    def test_ground_sentence(self):
        assert eval_ground(parse("(and (< 1 2) (= 3 3))"))
        assert not eval_ground(parse("(or (< 2 1) (= 3 4))"))

    def test_point_evaluation(self):
        f = parse("(or (< x y) (= x (+ y 2)))")
        assert eval_point(f, {"x": 0, "y": 5})
        assert eval_point(f, {"x": 7, "y": 5})
        assert not eval_point(f, {"x": 6, "y": 5})

    def test_div_atoms(self):
        f = parse("(div 3 (+ x 1))", allow_div=True)
        assert eval_point(f, {"x": 2})
        assert eval_point(f, {"x": -1})
        assert not eval_point(f, {"x": 3})

    def test_point_requires_quantifier_free(self):
        with pytest.raises(EvalError):
            eval_point(parse("(exists z (< z x))"), {"x": 0})

    def test_ground_requires_sentence(self):
        with pytest.raises(EvalError):
            eval_ground(parse("(< x 1)"))


class TestBoundedEvaluation:
    def test_exists_and_forall_over_hints(self):
        f = parse("(exists z (and (<= 0 z) (= x (* 2 z))))")
        hints = {"z": (0, 10)}
        assert eval_bounded(f, {"x": 6}, hints)
        assert not eval_bounded(f, {"x": 7}, hints)
        g = parse("(forall z (or (< z 0) (<= z 10)))")
        assert eval_bounded(g, {}, {"z": (-3, 10)})

    def test_missing_hint_is_loud(self):
        f = parse("(exists z (< z x))")
        with pytest.raises(MissingHintError):
            eval_bounded(f, {"x": 0}, {})

    def test_point_budget_refused_upfront(self):
        f = parse("(exists a (exists b (< (+ a b) x)))")
        big = (0, 10 ** 5)
        with pytest.raises(ResourceCapError) as err:
            eval_bounded(f, {"x": 0}, {"a": big, "b": big})
        assert err.value.kind == "enumeration points"
        assert err.value.limit == DEFAULT_MAX_POINTS

    def test_candidate_pruning_matches_full_scan(self):
        # same result whether or not equality pinning kicks in
        rng = random.Random(42)
        for _ in range(100):
            c = rng.randint(1, 4)
            k = rng.randint(-30, 30)
            f = Exists("z", Atom(EQ, LinearTerm.var("z", c),
                                 LinearTerm.of({"x": 1}, k)))
            x = rng.randint(-20, 20)
            want = (x + k) % c == 0 and -60 <= (x + k) // c <= 60
            assert eval_bounded(f, {"x": x}, {"z": (-60, 60)}) == want

    def test_pruning_sees_atoms_through_nested_exists(self):
        pf, meta = encode_naive(6)
        code = set(build_code_set(6))
        hints = meta.hint_map()
        for t in range(1, 6 * 64 + 1):
            x = (t - 1) % 6 + 1
            y = (t - x) // 6
            got = eval_bounded(pf.formula, {"x": x, "y": y}, hints)
            assert got == (t in code), t


def reference_eval(f, env, hints):
    """Slow reference: plain recursive enumeration, no pruning, no rewriting."""
    if isinstance(f, Bool):
        return f.value
    if isinstance(f, Atom):
        left = f.left.value(env)
        if f.kind == DIV:
            return left % f.modulus == 0
        right = f.right.value(env)
        return {LE: left <= right, LT: left < right, EQ: left == right}[f.kind]
    if isinstance(f, Not):
        return not reference_eval(f.body, env, hints)
    if isinstance(f, And):
        return all(reference_eval(p, env, hints) for p in f.parts)
    if isinstance(f, Or):
        return any(reference_eval(p, env, hints) for p in f.parts)
    lo, hi = hints[f.var]
    values = (reference_eval(f.body, {**env, f.var: v}, hints)
              for v in range(lo, hi + 1))
    return any(values) if isinstance(f, Exists) else all(values)


def _random_quantified(rng):
    """Fuzz body under 1-3 quantifiers over u, v, w drawn with repeats
    (a repeat shadows), each level adding maybe a multi-variable equality
    (it pins a bound variable, or mentions one bound inside: capture) and
    maybe more atoms, div atoms included."""
    names = ("x", "u", "v", "w")
    f = random_qf(rng, names, atom_bound=3, allow_div=True)
    for _ in range(rng.randint(1, 3)):
        parts = [f]
        if rng.random() < 0.7:
            coeffs = {n: rng.randint(-3, 3) for n in names}
            parts.append(Atom(EQ, LinearTerm.of(coeffs),
                              LinearTerm.num(rng.randint(-5, 5))))
        if rng.random() < 0.5:
            parts.append(random_qf(rng, names, atom_bound=2, allow_div=True))
        rng.shuffle(parts)
        quant = Exists if rng.random() < 0.75 else Forall
        f = quant(rng.choice(names[1:]), mk_and(parts))
    return f


def point_family(pf, ground_window, windows, hints=None):
    """family_from_formula's family built point by point with compile_plan."""
    ground = range(ground_window[0], ground_window[1] + 1)
    holds = compile_plan(pf.formula, pf.object_vars + pf.param_vars, hints)
    members = []
    for combo in product(*(range(windows[p][0], windows[p][1] + 1)
                           for p in pf.param_vars)):
        mask = sum(1 << i for i, x in enumerate(ground) if holds((x, *combo)))
        members.append((",".join(map(str, combo)), mask))
    return SetFamily(tuple(ground), tuple(members))


class TestCompiledPlanDifferential:
    HINTS = {"u": (-3, 3), "v": (-2, 4), "w": (-4, 2)}

    def test_fuzz_against_reference(self):
        for i in range(400):
            rng = random.Random(5_500_000 + i)
            f = _random_quantified(rng)
            for _ in range(3):
                point = {n: rng.randint(-6, 6) for n in sorted(free_vars(f))}
                assert eval_bounded(f, point, self.HINTS) == \
                    reference_eval(f, point, self.HINTS), (to_text(f), point)

    def test_shadowing_and_capture(self):
        # inner u shadows the outer one; v's equality mentions x and u,
        # and u is bound again under it (capture), so v is not substituted
        x, u, v = (LinearTerm.var(n) for n in ("x", "u", "v"))
        cases = [
            Exists("u", mk_and([
                Atom(EQ, u.scaled(2), x),
                Exists("u", mk_and([Atom(EQ, u.scaled(3), x.shifted(1)),
                                    Atom(LT, u, x)])),
            ])),
            Exists("u", Exists("v", mk_and([
                Atom(EQ, v.scaled(2), u + x),
                Forall("u", Atom(LE, u, v.shifted(2))),
                Exists("u", mk_and([Atom(EQ, u, v), Atom(DIV, u + x, ZERO, 3)])),
            ]))),
        ]
        for f in cases:
            for xv in range(-8, 9):
                point = {"x": xv}
                assert eval_bounded(f, point, self.HINTS) == \
                    reference_eval(f, point, self.HINTS), (to_text(f), xv)

    def test_universals_through_the_dual(self):
        # forall v F is planned as not exists v not F: over an empty hint,
        # with a bounds-only body inside an exists, and under a forall
        x, u, v, e = (LinearTerm.var(n) for n in ("x", "u", "v", "e"))
        hints = {**self.HINTS, "e": (1, 0)}
        empty = Forall("e", Atom(LT, e, x))
        inside = Exists("u", mk_and([
            Atom(LE, x, u),
            Forall("v", mk_and([Atom(LE, v, u + x), Atom(LE, -u, v)])),
        ]))
        nested = Forall("u", Forall("v", mk_or([
            Atom(LE, u + v, x), Atom(DIV, u + v.scaled(2) + x, ZERO, 3)])))
        for f in (empty, inside, nested):
            got = {xv: eval_bounded(f, {"x": xv}, hints) for xv in range(-8, 9)}
            assert got == {xv: reference_eval(f, {"x": xv}, hints)
                           for xv in got}, to_text(f)
            # true over the empty hint; true and false elsewhere
            assert any(got.values()) and all(got.values()) == (f is empty)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_encoders_on_every_grid_point(self, d):
        # the plain reference is too slow for the bridged encoder past
        # d = 3 (its tp hint alone spans 452 values at d = 4); there the
        # code set is the only reference
        for encode, by_reference in ((encode_naive, True),
                                     (encode_bridged, d <= 3)):
            pf, meta = encode(d)
            hints = meta.hint_map()
            for y in range(1 << d):
                for x in range(1, d + 1):
                    point = {"x": x, "y": y}
                    got = eval_bounded(pf.formula, point, hints)
                    assert got == code_set_contains(d, x + d * y), (d, x, y)
                    if by_reference:
                        assert got == reference_eval(pf.formula, point, hints)

    def test_bounded_and_qe_families_agree(self):
        for i in range(60):
            rng = random.Random(6_600_000 + i)
            pf = random_partitioned(rng)
            windows = {p: (-3, 3) for p in pf.param_vars}
            bounded = family_from_formula(pf, (-4, 6), windows)
            viaqe = family_from_formula(pf, (-4, 6), windows, mode="qe")
            assert bounded == viaqe, to_text(pf.formula)
            assert bounded == point_family(pf, (-4, 6), windows), \
                to_text(pf.formula)

    def test_naive_encoder_at_scale(self, monkeypatch):
        # each hint spans 2^15, so the nominal product 2^30 is over the
        # default cap; the plan decides every disjunct without scanning
        d = 16
        pf, meta = encode_naive(d)
        hints = meta.hint_map()
        worst = (1 << (d - 1)) ** 2
        assert worst > DEFAULT_MAX_POINTS
        monkeypatch.setattr(evaluator, "DEFAULT_MAX_POINTS", worst)
        rng = random.Random(1616)
        code = build_code_set(d)
        for _ in range(64):
            t = rng.choice(code) if rng.random() < 0.5 \
                else rng.randint(1, d << d)
            x = (t - 1) % d + 1
            point = {"x": x, "y": (t - x) // d}
            assert eval_bounded(pf.formula, point, hints) \
                == code_set_contains(d, t), t


WIDTHS = (1, 63, 64, 65, 130)  # around one and two 64-bit words


def last_window(pf, lo, width, outer=(-2, 2)):
    """The last parameter over width values from lo, the others over outer."""
    *rest, last = pf.param_vars
    return {**dict.fromkeys(rest, outer), last: (lo, lo + width - 1)}


_qf_terms = st.builds(
    lambda cs, k: LinearTerm.of(dict(zip("xyz", cs)), k),
    st.tuples(*[st.integers(-4, 4)] * 3), st.integers(-9, 9))
qf_formulas = st.recursive(
    st.one_of(
        st.builds(Atom, st.sampled_from([LE, LT, EQ]), _qf_terms, _qf_terms),
        st.builds(lambda t, m: Atom(DIV, t, ZERO, m), _qf_terms,
                  st.integers(1, 7)),
        st.sampled_from([TRUE, FALSE])),
    lambda kids: st.one_of(
        st.builds(Not, kids),
        st.builds(And, st.lists(kids, min_size=2, max_size=3).map(tuple)),
        st.builds(Or, st.lists(kids, min_size=2, max_size=3).map(tuple))),
    max_leaves=8)


class TestMaskDifferential:
    """family_from_formula's mask path for quantifier-free bodies against
    the same family built point by point with compile_plan."""

    def test_fuzz_families_with_divs(self):
        checked, seed = 0, 7_700_000
        while checked < 200:
            rng = random.Random(seed)
            seed += 1
            pf = random_partitioned(rng)
            if not pf.param_vars or all(a.kind != DIV
                                        for a in atoms_of(pf.formula)):
                continue
            windows = last_window(pf, -rng.randint(1, 80),
                                  WIDTHS[checked % len(WIDTHS)])
            assert family_from_formula(pf, (-4, 6), windows) == \
                point_family(pf, (-4, 6), windows), (to_text(pf.formula),
                                                     windows)
            checked += 1

    @pytest.mark.parametrize("text", [
        "(<= (* 3 y) (+ x 4))",
        "(< (+ x 5) (* -2 y))",
        "(= (* 3 y) (+ x 1))",
        "(div 6 (+ (* 4 y) x))",
        "(or (div 5 (+ (* -3 y) (* 2 x) 1)) (not (<= (* 7 y) (* -2 x))))",
        "(and (div 4 (* 2 y)) (< (* -5 y) (+ x 40)) (not (= (* 2 y) x)))",
    ])
    def test_parameter_coefficients(self, text):
        pf = PartitionedFormula(parse(text, allow_div=True), ("x",), ("y",))
        plan = compile_plan(pf.formula, ("x", "y"))
        for lo in (-130, -64, -1, 3):
            for width in WIDTHS:
                windows = last_window(pf, lo, width)
                assert family_from_formula(pf, (-6, 6), windows) == \
                    point_family(pf, (-6, 6), windows), (lo, width)
                # no bit is set outside the window either
                window = range(lo, lo + width)
                masks = compile_masks(pf.formula, ("x", "y"), window)
                for x in range(-6, 7):
                    assert masks((x,)) == sum(plan((x, y)) << k for k, y
                                              in enumerate(window)), (lo, width)

    @pytest.mark.parametrize("encode, d", [(encode_naive, d) for d in range(1, 9)]
                             + [(encode_bridged, d) for d in range(1, 4)])
    def test_encoder_qe_bodies(self, encode, d):
        pf, meta = encode(d)
        qf = PartitionedFormula(eliminate_quantifiers(pf.formula),
                                pf.object_vars, pf.param_vars)
        windows = {meta.param_var: meta.param_window}
        assert family_from_formula(qf, meta.ground_window, windows) == \
            point_family(qf, meta.ground_window, windows)

    @settings(derandomize=True, max_examples=150, deadline=None,
              database=None)
    @given(qf_formulas, st.integers(-70, 5), st.integers(1, 130))
    def test_property_mask_path_is_point_plan(self, f, lo, width):
        params = tuple(sorted(free_vars(f) - {"x"}))
        if "x" not in free_vars(f) or not params:
            return
        pf = PartitionedFormula(f, ("x",), params)
        windows = last_window(pf, lo, width, outer=(-1, 1))
        assert family_from_formula(pf, (-3, 3), windows) == \
            point_family(pf, (-3, 3), windows)

    def test_rejects_quantifiers_and_unknown_variables(self):
        with pytest.raises(EvalError):
            compile_masks(parse("(exists z (< x z))"), ("x",), range(4))
        with pytest.raises(EvalError):
            compile_masks(parse("(< x y)"), ("y",), range(4))

    def test_grid_cap_refuses_before_evaluation(self):
        pf = PartitionedFormula(parse("(<= x y)"), ("x",), ("y",))
        with pytest.raises(ResourceCapError) as info:
            family_from_formula(pf, (0, 3), {"y": (0, 10 ** 11)})
        assert info.value.kind == "enumeration points"
        assert info.value.needed == 4 * (10 ** 11 + 1)
        assert info.value.limit == DEFAULT_MAX_POINTS
        # the box is the product over all parameters, checked in either mode
        pf = PartitionedFormula(parse("(and (<= a x) (<= x b))"), ("x",),
                                ("a", "b"))
        with pytest.raises(ResourceCapError):
            family_from_formula(pf, (0, 9), {"a": (0, 3162), "b": (0, 3162)},
                                mode="qe")


class TestSimplify:
    def test_ground_folding(self):
        assert simplify(parse("(and (< 1 2) (< x 5))")) == parse("(< x 5)")
        assert simplify(parse("(or (< 1 2) (< x 5))")) is TRUE
        assert simplify(parse("(div 1 x)", allow_div=True)) is TRUE

    def test_double_negation(self):
        assert simplify(Not(Not(parse("(< x 1)")))) == parse("(< x 1)")

    def test_complementary_literals(self):
        a = parse("(< x 1)")
        assert simplify(Not(a)) == Not(a)
        from pavc.formula import And, Or
        assert simplify(And((a, Not(a)))) is FALSE
        assert simplify(Or((a, Not(a)))) is TRUE

    def test_unused_quantifier_dropped(self):
        assert simplify(parse("(exists z (< x 1))")) == parse("(< x 1)")
        assert simplify(parse("(forall z T)")) is TRUE

    def test_soundness_and_idempotence_fuzz(self):
        for i in range(300):
            rng = random.Random(88_000 + i)
            f = random_qf(rng, ["a", "b"], allow_div=True)
            g = simplify(f)
            assert simplify(g) == g
            for _ in range(10):
                env = {"a": rng.randint(-12, 12), "b": rng.randint(-12, 12)}
                assert eval_point(f, env) == eval_point(g, env)


class TestEliminationAnchors:
    def test_even_witness(self):
        qf = eliminate_quantifiers(parse("(exists x (= (* 2 x) y))"))
        assert qf == parse("(div 2 y)", allow_div=True)

    def test_squeeze_to_true(self):
        qf = eliminate_quantifiers(parse("(exists x (and (<= y x) (<= x y)))"))
        assert qf is TRUE

    def test_successor_sentence(self):
        assert decide(parse("(forall x (exists y (= y (+ x 1))))"))
        assert not decide(parse("(exists x (forall y (<= y x)))"))

    def test_consecutive_even(self):
        f = parse("(exists x (and (div 2 x) (<= y x) (<= x (+ y 1))))",
                  allow_div=True)
        qf = eliminate_quantifiers(f)
        assert is_quantifier_free(qf)
        for y in range(-25, 26):
            assert eval_point(qf, {"y": y})

    def test_unsatisfiable_congruences(self):
        f = parse("(exists x (and (div 2 x) (div 2 (+ x 1))))", allow_div=True)
        assert eliminate_quantifiers(f) is FALSE

    def test_output_is_quantifier_free_and_same_vars(self):
        f = parse("(forall a (exists b (or (< a b) (< b y))))")
        qf = eliminate_quantifiers(f)
        assert is_quantifier_free(qf)
        assert free_vars(qf) <= {"y"}

    def test_decide_rejects_open_formulas(self):
        with pytest.raises(EvalError):
            decide(parse("(< x 1)"))

    def test_idempotent_on_quantifier_free(self):
        f = parse("(and (< x 1) (div 3 x))", allow_div=True)
        assert eliminate_quantifiers(f) == simplify(f)

    @pytest.mark.parametrize("text, want", [
        ("(exists x (and (< (+ x y) (+ x 3)) (< 0 x)))",
         "(< 0 (+ (* -1 y) 3))"),
        ("(exists x (and (= (+ x y) (+ x 2)) (div 3 x)))",
         "(and (< 0 (+ (* -1 y) 3)) (< 0 (+ (* 1 y) -1)))"),
    ])
    def test_variable_cancelling_on_both_sides(self, text, want):
        # x + y < x + 3 does not mention x: the case split must not
        # count it as a bound on x
        f = parse(text, allow_div=True)
        qf = eliminate_quantifiers(f)
        assert to_text(qf) == want
        assert "x" not in free_vars(qf)
        for y in range(-10, 11):
            assert eval_point(qf, {"y": y}) == \
                eval_bounded(f, {"y": y}, {"x": SOUND_BOX})


class TestEliminationDifferential:
    def test_sentences_against_bounded_brute_force(self):
        for i in range(300):
            rng = random.Random(1_000_000 + i)
            s = random_sentence(rng)
            hints = {v: SOUND_BOX for v in bound_vars(s)}
            assert decide(s) == eval_bounded(s, {}, hints), to_text(s)

    def test_solution_sets_with_one_free_variable(self):
        from pavc.fuzz import _combine, _order_atom
        for i in range(150):
            rng = random.Random(7_000_000 + i)
            atoms = []
            for _ in range(rng.randint(2, 4)):
                a = rng.randint(-1, 1)
                b = rng.choice([-1, 1])
                atoms.append(_order_atom(rng, {"w": a, "v": b}, 7))
            body = _combine(rng, atoms)
            quant = Exists if rng.random() < 0.6 else Forall
            f = quant("v", body)
            qf = eliminate_quantifiers(f)
            assert is_quantifier_free(qf)
            for w in range(-20, 21):
                got = eval_point(qf, {"w": w}) if free_vars(qf) else eval_ground(qf)
                want = eval_bounded(f, {"w": w}, {"v": (-50, 50)})
                assert got == want, (to_text(f), to_text(qf), w)


class TestResourceCaps:
    def test_atom_cap_refuses_loudly(self, monkeypatch):
        f = parse("(exists x (and (< (* 5 x) y) (< y (* 3 x))))")
        monkeypatch.delenv("PAVC_MAX_ATOMS", raising=False)
        monkeypatch.setattr(evaluator, "DEFAULT_MAX_ATOMS", 10)
        with pytest.raises(ResourceCapError) as err:
            eliminate_quantifiers(f)
        assert err.value.kind == "output atoms"
        assert err.value.limit == 10

    def test_offset_count_past_2_63_refused(self, monkeypatch):
        # the residue classes of delta, about 2^140, leave about 2^70 offsets
        monkeypatch.delenv("PAVC_MAX_ATOMS", raising=False)
        f = parse(OVERFLOWING_OFFSETS)
        with pytest.raises(ResourceCapError) as err:
            eliminate_quantifiers(f)
        assert err.value.kind == "output atoms"
        assert err.value.needed > 1 << 63

    def test_env_var_overrides_cap(self, monkeypatch):
        f = parse("(exists x (and (< (* 5 x) y) (< y (* 3 x))))")
        monkeypatch.setenv("PAVC_MAX_ATOMS", "10")
        with pytest.raises(ResourceCapError):
            eliminate_quantifiers(f)
        monkeypatch.setenv("PAVC_MAX_ATOMS", "1000000")
        qf = eliminate_quantifiers(f)
        assert is_quantifier_free(qf)
        # semantic spot check: 5x < y < 3x needs a negative x
        for y in range(-40, 41):
            want = any(5 * x < y < 3 * x for x in range(-60, 61))
            assert eval_point(qf, {"y": y}) == want

    def test_bad_env_value_rejected(self, monkeypatch):
        for raw in ("many", "0", "-1"):
            monkeypatch.setenv("PAVC_MAX_ATOMS", raw)
            with pytest.raises(EvalError, match="bad PAVC_MAX_ATOMS value"):
                eliminate_quantifiers(parse("(exists x (< x y))"))

    def test_coefficient_cap(self, monkeypatch):
        # repeated squaring of coefficients through nested eliminations
        f = parse("(exists x (and (< (* 1048576 x) y) (< y (* 1048575 x))))")
        monkeypatch.setattr(evaluator, "DEFAULT_MAX_COEFF_BITS", 20)
        with pytest.raises(ResourceCapError) as err:
            eliminate_quantifiers(f)
        assert err.value.kind == "coefficient bits"

    def test_equality_shortcut_result_is_capped(self):
        # the shortcut multiplies D by E into a 16,001-bit coefficient
        # (bitlen 16,002), more than to_text could print
        f = parse(WIDE_SHORTCUT)
        with pytest.raises(ResourceCapError) as err:
            eliminate_quantifiers(f)
        assert err.value.kind == "coefficient bits"
        assert err.value.limit == evaluator.DEFAULT_MAX_COEFF_BITS
        assert err.value.needed == 16_002


OVERFLOWING_OFFSETS = ("(exists x (and (< (* 1180591620717411303425 x) y) "
                       "(< y (* 1180591620717411303423 x))))")
_C, _D, _E = ((1 << 8000) + k for k in (1, 3, 5))
WIDE_SHORTCUT = f"(exists x (and (= (* {_C} x) (* {_E} z)) (< (* {_D} x) y)))"


def eliminate_every_offset(f):
    """eliminate_quantifiers with the case split it had before residue
    stepping: every offset 1..period of every boundary term is built."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluator, "_offsets",
                      lambda witness, congruences, sign, period:
                      range(1, period + 1))
        return eliminate_quantifiers(f)


def _sha(f):
    return hashlib.sha256(to_text(f).encode()).hexdigest()


def quantified_qf(rng):
    """exists or forall v of a QF body over v, w, z with divs; a third of
    them under a second quantifier, over z."""
    nest = rng.random() < 1 / 3
    body = random_qf(rng, "vwz", atom_bound=4 if nest else 6,
                     coeff_bound=2 if nest else 3, allow_div=True)
    f = rng.choice([Exists, Forall])("v", body)
    if nest:
        join = mk_and if rng.random() < 0.5 else mk_or
        f = rng.choice([Exists, Forall])("z", join(
            [f, random_qf(rng, "vwz", atom_bound=2, allow_div=True)]))
    return f


class TestResidueSteppedSplit:
    """The case split builds only the offsets that (div delta w) and the
    top-level div conjuncts allow; the offsets it skips give disjuncts that
    are false for every value of the free variables."""

    def test_fuzz_against_every_offset(self):
        for i in range(120):
            f = quantified_qf(random.Random(8_800_000 + i))
            got, want = eliminate_quantifiers(f), eliminate_every_offset(f)
            assert count_atoms(got) <= count_atoms(want)
            names = sorted(free_vars(f))
            test_got, test_want = compile_plan(got, names), compile_plan(want, names)
            for point in product(range(-6, 7), repeat=len(names)):
                assert test_got(point) == test_want(point), (to_text(f), point)

    def test_unsatisfiable_residues_leave_no_disjunct(self):
        # 2x + 2y + 1 is odd, so no offset meets the div; the full split
        # left two disjuncts that simplify cannot fold to F
        f = parse("(exists x (and (div 4 (+ (* 2 x) (* 2 y) 1)) (< 0 x) (< x y)))",
                  allow_div=True)
        assert eliminate_quantifiers(f) is FALSE
        old = eliminate_every_offset(f)
        assert isinstance(old, Or) and len(old.parts) == 2
        assert not any(eval_point(old, {"y": y}) for y in range(-30, 31))

    def test_bridged_output_pinned(self):
        pf, meta = encode_bridged(3)
        got, old = eliminate_quantifiers(pf.formula), eliminate_every_offset(pf.formula)
        # the full split's output is the one recorded before the stepping
        assert _sha(old) == \
            "058c98274422cf9623ddd9bd133d033ef06660237425b2939af8039a6882ebfe"
        assert _sha(got) == \
            "23b855a2044effb4eeaff46fbaeeb41231f1f30156c388efaf230f67bab0afc9"
        assert (count_atoms(got), count_atoms(old)) == (384, 1184)
        test_got, test_old = compile_plan(got, "xy"), compile_plan(old, "xy")
        (x0, x1), (y0, y1) = meta.ground_window, meta.param_window
        for point in product(range(x0, x1 + 1), range(y0, y1 + 1)):
            assert test_got(point) == test_old(point), point


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_property_qe_is_oracle(seed):
    # sentences: brute force over SOUND_BOX decides them (pavc.fuzz).  A
    # single quantifier over v: with |w|, |z| <= 4 every order atom is
    # constant for |v| > 33 and every div is periodic with a period
    # dividing 60, so v over [-100, 100] sees every truth pattern of Z
    rng = random.Random(seed)
    s = random_sentence(rng)
    assert decide(s) == eval_bounded(s, {}, {v: SOUND_BOX for v in bound_vars(s)})
    f = rng.choice([Exists, Forall])("v", random_qf(rng, "vwz", allow_div=True))
    qf = eliminate_quantifiers(f)
    test, oracle = compile_plan(qf, "wz"), compile_plan(f, "wz", {"v": (-100, 100)})
    for point in product(range(-4, 5), repeat=2):
        assert test(point) == oracle(point), (to_text(f), point)


def test_qe_output_pinned():
    # sha256 of the printed elimination output, recorded with the case
    # split that built every offset; residue stepping leaves it unchanged,
    # and any change to QE output on these inputs shows here
    inputs = [random_sentence(random.Random(4_400_000 + i)) for i in range(200)]
    inputs += [encode_naive(4)[0].formula, encode_naive(6)[0].formula]
    digest = hashlib.sha256()
    for f in inputs:
        digest.update(to_text(eliminate_quantifiers(f)).encode() + b"\n")
    assert digest.hexdigest() == \
        "20128a65eb9e2d9dcace7e7860c2fcde45f02fa83d7f7c9c889f90a6846bbd82"


def test_negation_duality_fuzz():
    # not(decide(s)) == decide(not s)
    for i in range(120):
        rng = random.Random(3_300_000 + i)
        s = random_sentence(rng)
        assert decide(Not(s)) == (not decide(s))


def test_forall_through_dual():
    f = parse("(forall x (<= (* 2 x) (+ x x)))")
    assert decide(f)
    g = parse("(forall x (< x 100))")
    assert not decide(g)
