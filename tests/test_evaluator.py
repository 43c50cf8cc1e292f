"""Evaluation routes and quantifier elimination."""

import hashlib
import random
from itertools import product
from math import gcd, lcm

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
    map_atoms,
    mk_and,
    mk_or,
    parse,
    to_text,
)
from pavc.fuzz import SOUND_BOX, random_partitioned, random_qf, random_sentence
from pavc.generator import (
    block_mask,
    build_code_set,
    code_set_bitmap,
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


def reference_free(f):
    """f's free variables, read off its atoms here rather than by pavc."""
    if isinstance(f, Bool):
        return set()
    if isinstance(f, Atom):
        return {v for v, _ in f.left.coeffs + f.right.coeffs}
    if isinstance(f, Not):
        return reference_free(f.body)
    if isinstance(f, (And, Or)):
        return set().union(*map(reference_free, f.parts))
    return reference_free(f.body) - {f.var}


def reference_eval(f, env, hints, memo=None):
    """Slow reference: plain recursive enumeration, no pruning, no rewriting.

    A quantifier node's truth depends only on its free variables, so it
    is enumerated once per assignment of them: `memo` keeps the truths
    by node for the nodes under it."""
    if memo is None:
        memo = {}
    if isinstance(f, Bool):
        return f.value
    if isinstance(f, Atom):
        left = f.left.value(env)
        if f.kind == DIV:
            return left % f.modulus == 0
        right = f.right.value(env)
        return {LE: left <= right, LT: left < right, EQ: left == right}[f.kind]
    if isinstance(f, Not):
        return not reference_eval(f.body, env, hints, memo)
    if isinstance(f, And):
        return all(reference_eval(p, env, hints, memo) for p in f.parts)
    if isinstance(f, Or):
        return any(reference_eval(p, env, hints, memo) for p in f.parts)
    if id(f) not in memo:  # the node is kept, so its id is not reused
        memo[id(f)] = f, sorted(reference_free(f)), {}
    _, names, truths = memo[id(f)]
    key = tuple(env[v] for v in names)
    if key not in truths:
        lo, hi = hints[f.var]
        values = (reference_eval(f.body, {**env, f.var: v}, hints, memo)
                  for v in range(lo, hi + 1))
        truths[key] = any(values) if isinstance(f, Exists) else all(values)
    return truths[key]


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


def plan_of(f, hints):
    """The plans' rewrite of f, the formula that _compile builds."""
    return evaluator._rewrite(f, evaluator._dual(evaluator._bounded_step(hints)))


def existentials(f, var):
    """The exists-var nodes of f, outermost first."""
    if isinstance(f, (Bool, Atom)):
        return []
    if isinstance(f, Not):
        return existentials(f.body, var)
    if isinstance(f, (And, Or)):
        return [g for p in f.parts for g in existentials(p, var)]
    here = [f] if isinstance(f, Exists) and f.var == var else []
    return here + existentials(f.body, var)


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
        # and u is bound again under it (capture), so v is not substituted.
        # The last three hold atoms with v on both sides at equal
        # coefficients, which do not mention v and move out of its scope
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
            # the inner v blocks substituting v = 2, so the constant
            # equality folds into both ends of the outer v's interval
            Exists("v", mk_and([
                Atom(EQ, v, LinearTerm.num(2)),
                Exists("v", mk_and([Atom(LT, v, x), Atom(DIV, v + x, ZERO, 2)])),
                Atom(LE, v.scaled(3), x),
            ])),
            Exists("v", mk_and([Atom(LE, x + v, v.shifted(2)),
                                Atom(LT, v.scaled(2), x)])),
            Exists("u", mk_and([
                Atom(EQ, u.scaled(2), x.shifted(1)),
                Exists("v", mk_and([Atom(LE, u + v.scaled(3), v.scaled(3) + x),
                                    Atom(DIV, v + u, ZERO, 3)])),
            ])),
            Forall("v", mk_or([Atom(LT, v.scaled(2) + x, v.scaled(2)),
                               Atom(LE, v, x)])),
        ]
        for f in cases:
            for xv in range(-8, 9):
                point = {"x": xv}
                assert eval_bounded(f, point, self.HINTS) == \
                    reference_eval(f, point, self.HINTS), (to_text(f), xv)

    def test_cancelling_atoms_stay_inside(self):
        # x + y < x + 3 names x with equal coefficients on both sides: the
        # move-out keeps it under the binder, so the plan leaves no x free
        f = parse("(exists x (and (< 0 x) (< x 5) (< (+ x y) (+ x 3))))")
        hints = {"x": (-5, 5)}
        assert free_vars(plan_of(f, hints)) <= free_vars(f)
        for y in range(-6, 7):
            assert eval_bounded(f, {"y": y}, hints) == \
                reference_eval(f, {"y": y}, hints), y

    def test_existential_over_constant_bounds(self):
        # the atoms allow v in [0, 2]; the hint is wider, narrower,
        # disjoint from them or empty, and folds with them at compile time
        x, v = LinearTerm.var("x"), LinearTerm.var("v")
        f = Exists("v", mk_and([Atom(LE, ZERO, v),
                                Atom(LE, v.scaled(2), LinearTerm.num(5)),
                                Atom(LT, x, LinearTerm.num(3))]))
        for hint, some in (((-5, 10), True), ((1, 1), True), ((3, 4), False),
                           ((1, 0), False)):
            got = {xv: eval_bounded(f, {"x": xv}, {"v": hint})
                   for xv in range(-2, 6)}
            assert got == {xv: reference_eval(f, {"x": xv}, {"v": hint})
                           for xv in got}, hint
            assert got == {xv: some and xv < 3 for xv in got}, hint

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

    def test_or_under_quantifier_fuzz(self):
        # v over its hint meets an or whose branches pin it, so the plan
        # distributes v over the or (seen as more than one exists v in
        # it); every fifth hint of v is empty, and a forall meets the or
        # through the dual
        seen = {"forall": 0, "empty hint": 0, "distributed": 0}
        for i in range(200):
            rng = random.Random(9_100_000 + i)
            f = or_under_quantifier(rng)
            hints = {"v": (1, 0) if i % 5 == 0 else (-2, 4)}
            for _ in range(3):
                point = {n: rng.randint(-6, 6) for n in sorted(free_vars(f))}
                assert eval_bounded(f, point, hints) == \
                    reference_eval(f, point, hints), (to_text(f), point, hints)
            seen["forall"] += isinstance(f, Forall)
            seen["empty hint"] += hints["v"] == (1, 0)
            seen["distributed"] += len(existentials(plan_of(f, hints), "v")) > 1
        assert all(seen.values()), seen

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

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_bridged_plan_pins_s_in_each_branch(self, d):
        # s distributes over the spread's or, one exists s per branch,
        # each with its branch's div on s at top level for CRT
        pf, meta = encode_bridged(d)
        nodes = existentials(plan_of(pf.formula, meta.hint_map()), "s")
        assert len(nodes) == d
        for g in nodes:
            assert any(isinstance(a, Atom) and a.kind == DIV
                       and a.left.coeff("s") != a.right.coeff("s")
                       for a in g.body.parts)

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


def refuse_one_form(*args):
    raise evaluator.NotOneForm("refused by the test")


class TestMaskDifferential:
    """family_from_formula's mask path for quantifier-free bodies against
    the same family built point by point with compile_plan.  one_form_line
    is made to refuse every body, so that one-form bodies take this path
    too (test_vclab.TestOneFormDifferential covers the byte line)."""

    @pytest.fixture(autouse=True, scope="class")
    def compile_route(self):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(evaluator, "one_form_line", refuse_one_form)
            yield

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
                masks = compile_masks(pf.formula, ("x", "y"),
                                      (range(-6, 7), window))
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
            compile_masks(parse("(exists z (< x z))"), ("x",), (range(4),))
        with pytest.raises(EvalError, match=r"point missing variables: \['x'\]"):
            compile_masks(parse("(< x y)"), ("y",), (range(4),))

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


def windowed_body(rng):
    """A fuzz.random_partitioned body under one or two quantifiers, each
    over u, v or the object variable x (rebinding it), with a div whose
    coefficient on the bound variable shares a factor with its modulus.
    A forall goes through the dual; x stays free."""
    f = random_partitioned(rng).formula
    for var in rng.sample(("u", "v", "x"), rng.randint(1, 2)):
        names = (var, *sorted(free_vars(f) - {var}))
        coeffs = {n: rng.randint(-3, 3) for n in names}
        coeffs[var] = rng.choice((2, 3, 4, -4, 6))
        div = Atom(DIV, LinearTerm.of(coeffs).shifted(rng.randint(-5, 5)),
                   ZERO, rng.choice((4, 6, 8, 9, 12)))
        parts = [f, div, random_qf(rng, names, atom_bound=2)]
        rng.shuffle(parts)
        f = (Forall if rng.random() < 0.25 else Exists)(var, mk_and(parts))
    if "x" not in free_vars(f):
        f = mk_and([f, Atom(LE, LinearTerm.var("x"),
                            LinearTerm.num(rng.randint(-2, 4)))])
    return PartitionedFormula(f, ("x",), tuple(sorted(free_vars(f) - {"x"})))


class TestWindowDifferential:
    """Bounded families over the ground window (compile_masks with
    quantifiers: the byte line when one_form_line takes the body, else
    the point plan at each window position) against the same family
    built point by point with compile_plan."""

    @pytest.mark.parametrize("encode, d", [(encode_naive, d) for d in range(1, 7)]
                             + [(encode_bridged, d) for d in range(1, 6)])
    def test_encoders(self, encode, d):
        pf, meta = encode(d)
        windows = {meta.param_var: meta.param_window}
        fam = family_from_formula(pf, meta.ground_window, windows,
                                  hints=meta.hint_map())
        assert fam == point_family(pf, meta.ground_window, windows,
                                   meta.hint_map())
        assert [m for _, m in fam.members] == \
            [block_mask(d, y) for y in range(1 << d)]

    def test_fuzz_bodies_under_quantifiers(self):
        seen = {"forall": 0, "nested": 0, "rebinds x": 0, "empty hint": 0}
        for i in range(120):
            rng = random.Random(8_800_000 + i)
            pf = windowed_body(rng)
            bound = bound_vars(pf.formula)
            hints = {n: h for n, h in (("u", (-3, 3)), ("x", (-4, 4)),
                                       ("v", (1, 0) if i % 5 == 0 else (-2, 4)))
                     if n in bound}
            windows = dict.fromkeys(pf.param_vars, (-2, 2))
            assert family_from_formula(pf, (-4, 5), windows, hints=hints) == \
                point_family(pf, (-4, 5), windows, hints), \
                (to_text(pf.formula), hints)
            text = to_text(pf.formula)
            seen["forall"] += "forall" in text
            seen["nested"] += len(bound) > 1
            seen["rebinds x"] += "x" in bound
            seen["empty hint"] += hints.get("v") == (1, 0)
        assert all(seen.values()), seen

    def test_or_under_quantifier_fuzz(self):
        # fuzz.or_under_quantifier's v, every fifth hint empty, with w
        # the object and z, when free, the parameter
        for i in range(80):
            rng = random.Random(9_200_000 + i)
            f = or_under_quantifier(rng)
            if "w" not in free_vars(f):
                f = mk_and([f, Atom(LE, LinearTerm.var("w"),
                                    LinearTerm.num(rng.randint(-2, 4)))])
            pf = PartitionedFormula(f, ("w",), tuple(sorted(free_vars(f) - {"w"})))
            hints = {"v": (1, 0) if i % 5 == 0 else (-2, 4)}
            windows = dict.fromkeys(pf.param_vars, (-3, 3))
            assert family_from_formula(pf, (-5, 6), windows, hints=hints) == \
                point_family(pf, (-5, 6), windows, hints), \
                (to_text(pf.formula), hints)

    def test_existential_rebinding_the_window_variable(self):
        # the inner x is bound, so each mask is all of the window or none
        x, y = LinearTerm.var("x"), LinearTerm.var("y")
        pf = PartitionedFormula(mk_and([
            Atom(LE, ZERO, x),
            Exists("x", mk_and([Atom(DIV, x.scaled(2) + y, ZERO, 4),
                                Atom(LE, x, y)]))]), ("x",), ("y",))
        hints, windows = {"x": (-5, 5)}, {"y": (-3, 3)}
        fam = family_from_formula(pf, (0, 999), windows, hints=hints)
        assert fam == point_family(pf, (0, 999), windows, hints)
        assert {m for _, m in fam.members} == {0, (1 << 1000) - 1}

    def test_wide_ground_window(self):
        # 10^5 ground points x 5 parameter values, under the point cap:
        # half the window passes 2 | x + y, and each of those scans u
        pf = PartitionedFormula(parse(
            "(exists u (and (div 6 (+ (* 4 u) x y))"
            " (or (< u -2) (div 7 (+ x u y)))))", allow_div=True),
            ("x",), ("y",))
        hints, ground = {"u": (-3, 3)}, range(0, 100_000)
        fam = family_from_formula(pf, (ground[0], ground[-1]), {"y": (-2, 2)},
                                  hints=hints)
        holds = compile_plan(pf.formula, ("x", "y"), hints)
        rng = random.Random(100_000)
        for _ in range(400):
            row = rng.randrange(5)
            label, mask = fam.members[row]
            i = rng.randrange(len(ground))
            assert bool(mask >> i & 1) == holds((ground[i], int(label)))
        assert 10_000 < fam.members[0][1].bit_count() < 50_000

    def test_quantified_masks_need_hints(self):
        f = parse("(exists z (and (<= x z) (div 4 (* 2 z))))", allow_div=True)
        with pytest.raises(MissingHintError):
            compile_masks(f, ("x",), (range(4),))
        masks = compile_masks(f, ("x",), (range(-2, 3),), {"z": (0, 1)})
        assert masks(()) == 0b00111  # x <= 0: z = 0 is even


def deep_alternation(levels):
    """exists x over `levels` alternating and/or levels, each in a not."""
    y = LinearTerm.var("y")
    g = Atom(LT, LinearTerm.var("x"), y)
    for i in range(levels):
        g = Not((Or if i % 2 else And)((g, Atom(LE, y, LinearTerm.num(i)))))
    return Exists("x", g)


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

    def test_rewriter_stack_per_level(self):
        # 250 levels, about 500 nodes: under pytest this fits the default
        # recursion limit at three frames per level (rewrite, join,
        # rewrite) but not at four, as with a generator over the parts.
        # The results are not compared: == on them recurses deeper still.
        f = deep_alternation(250)
        assert free_vars(simplify(f)) == {"y"}
        # the body's NNF is one flat conjunction, through one form, y: its
        # bounds y <= 0 and 1 < y leave no piece.  The template route
        # rebuilds the 250 levels and gives 250 atoms, F at every y (by
        # brute force over x for y in [-300, 300]; its cuts lie in 0..249)
        assert eliminate_quantifiers(f) is FALSE
        with pytest.MonkeyPatch.context() as patch:
            qf = by_template(f, patch)
        assert is_quantifier_free(qf) and free_vars(qf) == {"y"}

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
        # one form, y: each instance is met into one piece of y
        ("(exists x (and (< (+ x y) (+ x 3)) (< 0 x)))",
         "(<= y 2)"),
        ("(exists x (and (= (+ x y) (+ x 2)) (div 3 x)))",
         "(= y 2)"),
        # no atom is left on x: the body comes back simplified, unsplit
        ("(exists x (< (+ x 1) (+ x y)))", "(< 0 (+ (* 1 y) -1))"),
        # the equality shortcut rewrites the cancelling atom too
        ("(exists x (and (= x (* 2 y)) (< (+ x y) (+ x 3))))",
         "(< (+ (* 1 y) -3) 0)"),
        ("(exists x (and (= (* 3 x) y) (<= (+ x y) (+ x 3))))",
         "(and (div 3 y) (<= (+ (* 3 y) -9) 0))"),
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
        # the case split builds 6 atoms
        f = parse("(exists x (and (< (* 5 x) y) (< y (* 3 x))))")
        monkeypatch.setattr(evaluator, "DEFAULT_MAX_ATOMS", 5)
        with pytest.raises(ResourceCapError) as err:
            eliminate_quantifiers(f)
        assert err.value.kind == "output atoms"
        assert err.value.limit == 5
        monkeypatch.setattr(evaluator, "DEFAULT_MAX_ATOMS", 6)
        qf = eliminate_quantifiers(f)
        assert is_quantifier_free(qf)
        # semantic spot check: 5x < y < 3x needs a negative x
        for y in range(-40, 41):
            want = any(5 * x < y < 3 * x for x in range(-60, 61))
            assert eval_point(qf, {"y": y}) == want

    def test_whole_result_atoms_counted(self, monkeypatch):
        # the two steps build 6 and 4 atoms, each under a cap of 9; the
        # result holds their 10
        f = parse("(and (exists x (and (< y x) (< x z) (div 3 x)))"
                  " (exists w (and (< y w) (< w (+ z 5)) (div 2 w))))", allow_div=True)
        monkeypatch.setattr(evaluator, "DEFAULT_MAX_ATOMS", 9)
        with pytest.raises(ResourceCapError) as err:
            eliminate_quantifiers(f)
        assert (err.value.kind, err.value.limit, err.value.needed) == ("output atoms", 9, 10)
        monkeypatch.setattr(evaluator, "DEFAULT_MAX_ATOMS", 10)
        assert count_atoms(eliminate_quantifiers(f)) == 10

    @pytest.mark.parametrize("raw", ["1", "many"])
    def test_environment_leaves_the_cap_alone(self, monkeypatch, raw):
        # the atom cap is the module constant alone: no variable of the
        # environment lowers it or makes elimination fail
        monkeypatch.setenv("PAVC_MAX_ATOMS", raw)
        f = parse("(exists x (and (< (* 5 x) y) (< y (* 3 x))))")
        assert count_atoms(eliminate_quantifiers(f)) == 6

    def test_offset_count_past_2_63_refused(self):
        # the residue classes of delta, about 2^140, leave about 2^70 offsets
        f = parse(OVERFLOWING_OFFSETS)
        with pytest.raises(ResourceCapError) as err:
            eliminate_quantifiers(f)
        assert err.value.kind == "output atoms"
        assert err.value.needed > 1 << 63

    @pytest.mark.parametrize("join, constant, want", [
        ("or", "(<= x x)", TRUE), ("and", "(< x x)", FALSE)])
    def test_no_part_after_an_absorbing_constant_is_eliminated(
            self, monkeypatch, join, constant, want):
        # alone, `over` needs 3 offsets x (4 atoms + 1) = 15 atoms
        over = "(exists y (and (< a y) (< b y) (< y c) (< y d)))"
        monkeypatch.setattr(evaluator, "DEFAULT_MAX_ATOMS", 5)
        f = parse(f"({join} (exists x {constant}) {over})")
        assert eliminate_quantifiers(f) is want
        with pytest.raises(ResourceCapError):
            eliminate_quantifiers(parse(f"({join} {over} (exists x {constant}))"))

    def test_branch_atoms_counted_as_built(self, monkeypatch):
        # the two branches' case splits build 6 and 10 output atoms: each
        # fits a cap of 15 alone, their sum of 16 does not
        branches = ["(and (div 3 (+ x y)) (< z x))", "(and (div 5 (+ x z)) (< y x))"]
        f = parse(f"(exists x (and (< x w) (or {' '.join(branches)})))", allow_div=True)
        monkeypatch.setattr(evaluator, "DEFAULT_MAX_ATOMS", 15)
        for b in branches:
            eliminate_quantifiers(parse(f"(exists x (and (< x w) {b}))", allow_div=True))
        splits = []
        case_split = evaluator._case_split

        def split(var, body):
            splits.append(var)
            yield from case_split(var, body)
        monkeypatch.setattr(evaluator, "_case_split", split)
        with pytest.raises(ResourceCapError) as err:
            eliminate_quantifiers(f)
        assert (err.value.kind, err.value.limit, err.value.needed) == ("output atoms", 15, 16)
        # refused while the second branch is built, after the first
        assert len(splits) == 2
        monkeypatch.setattr(evaluator, "DEFAULT_MAX_ATOMS", 16)
        assert is_quantifier_free(eliminate_quantifiers(f))

    def test_plans_leaf_atoms_counted_as_built(self, monkeypatch):
        # eight ors of two branches, each pinning v by a div: the plan's v
        # distributes into 2^8 leaves of 10 atoms (8 divs, 2 hint atoms)
        x, v = LinearTerm.var("x"), LinearTerm.var("v")
        f = Exists("v", mk_and([
            mk_or([Atom(DIV, v + x.shifted(i), ZERO, 2),
                   Atom(DIV, v.scaled(2) + x, ZERO, 3 + i)]) for i in range(8)]))
        hints = {"v": (0, 60)}
        built = []
        move_out = evaluator._move_out

        def counted(var, body):
            built.append(var)
            yield from move_out(var, body)
        monkeypatch.setattr(evaluator, "_move_out", counted)
        monkeypatch.setattr(evaluator, "DEFAULT_MAX_ATOMS", 2559)
        with pytest.raises(ResourceCapError) as err:
            eval_bounded(f, {"x": 0}, hints)
        assert (err.value.kind, err.value.limit, err.value.needed) == \
            ("output atoms", 2559, 2560)
        # refused at the last of the 256 leaves
        assert len(built) == 256
        monkeypatch.setattr(evaluator, "DEFAULT_MAX_ATOMS", 2560)
        for xv in range(-3, 4):
            assert eval_bounded(f, {"x": xv}, hints) == \
                reference_eval(f, {"x": xv}, hints), xv
        assert len(built) == 256 + 7 * 256

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


def by_template(f, patch):
    """eliminate_quantifiers(f) with every case split on the template
    route: no body reads through one form, so each instance is rebuilt
    from its template and none is met into a piece."""
    patch.setattr(evaluator, "_one_form", lambda terms: None)
    return eliminate_quantifiers(f)


def eliminate_every_offset(f):
    """eliminate_quantifiers with the case split it had before residue
    stepping and before one-form pieces: every offset 1..period of every
    boundary term that the bound cut keeps is built, each from the
    template."""
    offsets = evaluator._offsets
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluator, "_offsets",
                      lambda witness, congruences, bounds, side, period:
                      offsets(witness, [], bounds, side, period))
        return by_template(f, patch)


def eliminate_ununioned(f):
    """eliminate_quantifiers with each piece of a case split built as it
    arrives, the or of pieces that the step built before they were kept
    as data and unioned: _distributed sees formulas only."""
    case_split = evaluator._case_split

    def split(var, body):
        for leaf in case_split(var, body):
            yield evaluator._built(*leaf) if isinstance(leaf, tuple) else leaf
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluator, "_case_split", split)
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


def or_under_quantifier(rng):
    """exists or forall v over an or whose branches each pin v now and
    then, by a div or an equality on v (or the negation of one) next to a
    random body: the or is the whole body or a conjunct of it, and the
    body is negated half the time, so that a forall meets the or through
    the dual.  Bounds as random_qf's, with divs."""
    def pin():
        t = LinearTerm.of({"v": rng.choice([-3, -2, -1, 1, 2, 3]),
                           "w": rng.randint(-3, 3), "z": rng.randint(-3, 3)})
        t = t.shifted(rng.randint(-8, 8))
        a = Atom(DIV, t, ZERO, rng.randint(2, 6)) if rng.random() < 0.6 \
            else Atom(EQ, t, ZERO)
        return Not(a) if rng.random() < 0.25 else a

    def part():
        qf = random_qf(rng, "vwz", atom_bound=3, allow_div=True)
        return mk_and([pin(), qf]) if rng.random() < 0.7 else qf
    branches = mk_or([part() for _ in range(rng.randint(2, 3))])
    body = branches if rng.random() < 0.5 else mk_and([part(), branches])
    return rng.choice([Exists, Forall])("v", body if rng.random() < 0.5 else Not(body))


class TestResidueSteppedSplit:
    """The case split builds only the offsets that (div delta w) and the
    top-level div conjuncts allow; the offsets it skips give disjuncts that
    are false for every value of the free variables."""

    def test_fuzz_against_every_offset(self):
        for i in range(240):
            make = (quantified_qf, or_under_quantifier)[i % 2]
            f = make(random.Random(8_800_000 + i // 2))
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
        ununioned = eliminate_ununioned(pf.formula)
        # both split per branch of the spread's or; the full split builds
        # every offset of each branch
        assert _sha(old) == \
            "a149572336a4295ed3a8f1fdad7ffe9f7a9f1d8ef41848dd263bf02bfb6c0e4f"
        # the pieces meet each instance on x + 3y: 18 atoms, not 216 as
        # when each was rebuilt from the template
        assert _sha(ununioned) == \
            "6d5252d28c964625ac07742b691de85f36603ffd5d66773124113f4b3f9e38a8"
        # their union merges touching points into runs and drops the
        # points that a run of step 3 holds: 13 atoms
        assert _sha(got) == \
            "febf68e163c43b8db9c32345bba5118c09b337b74037a13df6e34700d1665ae3"
        assert (count_atoms(got), count_atoms(ununioned), count_atoms(old)) == \
            (13, 18, 1308)
        tests = [compile_plan(g, "xy") for g in (got, ununioned, old)]
        codes = code_set_bitmap(3)
        (x0, x1), (y0, y1) = meta.ground_window, meta.param_window
        for point in product(range(x0, x1 + 1), range(y0, y1 + 1)):
            want = bool(codes[point[0] + 3 * point[1]])
            assert [test(point) for test in tests] == [want] * 3, point


def eliminate_counted(f, cut=True):
    """(eliminate_quantifiers(f), the instances the case splits planned,
    the disjuncts they built); cut=False plans with no bounds, so with no
    bound cut: every offset that the congruences allow."""
    planned, built = [], []
    case_split, offsets = evaluator._case_split, evaluator._offsets

    def split(var, body):
        for disjunct in case_split(var, body):
            built.append(disjunct)
            yield disjunct

    def counted_offsets(witness, congruences, bounds, side, period):
        steps = offsets(witness, congruences, bounds if cut else [], side, period)
        planned.append(len(steps))
        return steps
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluator, "_case_split", split)
        patch.setattr(evaluator, "_offsets", counted_offsets)
        return eliminate_quantifiers(f), sum(planned), len(built)


class TestBoundCut:
    """The case split skips the offsets at which a top-level bound with a
    ground gap to the witness is F; the uncut split plans them, and they
    all fold to F or meet in an empty piece, so the output stays the
    same."""

    @staticmethod
    def same_as_uncut(f):
        """(instances planned, planned uncut, disjuncts built)."""
        got, planned, built = eliminate_counted(f)
        want, want_planned, _ = eliminate_counted(f, cut=False)
        assert to_text(got) == to_text(want), to_text(f)
        assert built <= planned
        return planned, want_planned, built

    def test_fuzz_sentences(self):
        saved = 0
        for i in range(600):
            planned, uncut, _ = self.same_as_uncut(
                random_sentence(random.Random(7_700_000 + i)))
            assert planned <= uncut
            saved += uncut - planned
        assert saved > 0

    @pytest.mark.parametrize("encode, ds", [(encode_naive, range(1, 9)),
                                            (encode_bridged, range(1, 7))])
    def test_encoders(self, encode, ds):
        for d in ds:
            self.same_as_uncut(encode(d)[0].formula)

    @pytest.mark.parametrize("encode, d, planned, uncut", [
        (encode_naive, 8, 263, 1028), (encode_bridged, 4, 77, 295)])
    def test_instances_built(self, encode, d, planned, uncut):
        # the cut plans no instance that a bound makes F: 765 and 218 of
        # the uncut ones are.  Every naive case split and bridged s's read
        # through x + d*y, and only their nonempty pieces are built: all
        # 263 naive ones, and 41 of bridged's 77 with r's instances, which
        # its body, an or, rebuilds from the template
        built = {encode_naive: 263, encode_bridged: 41}[encode]
        assert self.same_as_uncut(encode(d)[0].formula) == (planned, uncut, built)

    @pytest.mark.parametrize("text, planned, uncut", [
        # upper witness a+7 (fewer uppers), sign -1: a < x needs j < 7 of
        # 1..9, and x < a+7, on the witnesses' side, rules out the tail
        ("(exists x (and (< a x) (< b x) (< c x) (< x (+ a 7)) (div 9 (+ x b))))",
         6, 18),
        # lower witnesses, no top-level lower, so the tail stays (4 | j);
        # x < a and x < a+3 leave j < 2 to witness a-2, and witness b has
        # no ground gap to any bound
        ("(exists x (and (< x a) (< x (+ a 3)) (< x c) "
         "(or (< b x) (< (+ a -2) x)) (div 4 x)))", 6, 9),
        # lower witnesses a and a+2, both top-level: witness a needs j > 2
        # of 1..6, the tail goes; x < c has no ground gap
        ("(exists x (and (< a x) (< (+ a 2) x) (< x c) (< x (+ c 1)) (div 6 (+ x c))))",
         10, 18),
        # 2x against x: after scaling to delta = 2, a < 2x and 2x < 2b
        # differ in coefficients, so only the tail is cut
        ("(exists x (and (< a (* 2 x)) (< x b)))", 2, 3),
        # x < a+2 inside an or leaves witness a all of 1..5; a < x, at the
        # top, still rules out the tail
        ("(exists x (and (< a x) (or (< x (+ a 2)) (< x b)) (div 5 (+ x b))))",
         5, 10),
    ])
    def test_hand_made_bodies(self, text, planned, uncut):
        # none reads through one form: each planned instance is built
        f = parse(text, allow_div=True)
        assert self.same_as_uncut(f) == (planned, uncut, planned)
        qf = eliminate_quantifiers(f)
        names = sorted(free_vars(f))
        test, oracle = compile_plan(qf, names), compile_plan(f, names, {"x": (-40, 40)})
        for point in product(range(-5, 6), repeat=len(names)):
            assert test(point) == oracle(point), point

    def test_instance_count_reads_the_cut_ranges(self, monkeypatch):
        # 5 of the 10 offsets are left after the cut, and the split builds
        # 9 atoms: the uncut offsets would pass a cap of 9, the cut fit it
        f = parse("(exists x (and (< a x) (or (< x (+ a 2)) (< x b)) (div 5 (+ x b))))",
                  allow_div=True)
        monkeypatch.setattr(evaluator, "DEFAULT_MAX_ATOMS", 9)
        assert count_atoms(eliminate_quantifiers(f)) == 9
        offsets = evaluator._offsets
        monkeypatch.setattr(evaluator, "_offsets",
                            lambda witness, congruences, bounds, side, period:
                            offsets(witness, congruences, [], side, period))
        with pytest.raises(ResourceCapError) as err:
            eliminate_quantifiers(f)
        assert (err.value.kind, err.value.limit, err.value.needed) == ("output atoms", 9, 10)


# steps 1..6 from three starts, each empty, one member, two and five long,
# and one range whose stop lies below its start
PIECES = [range(s, s + n * step, step) for step in range(1, 7)
          for s in (-7, 0, 4) for n in (0, 1, 2, 5)] + [range(5, -3, 2)]


class TestPieceAlgebra:
    """_half and _meet, the piece algebra of one_form_line and of Cooper's
    offset cut, against brute-force membership."""

    def test_half(self):
        for r in PIECES:
            for a in (-3, -2, -1, 1, 2, 3):
                for k in range(-30, 31):
                    got = evaluator._half(a, k, r)
                    assert list(got) == [v for v in r if a * v + k <= 0], (a, k, r)

    def test_meet(self):
        for p in PIECES:
            for q in PIECES:
                assert list(evaluator._meet(p, q)) == [v for v in p if v in q], (p, q)

    def test_past_2_63_members(self):
        # about 2^70 members: len() overflows, slicing and indexing do not
        big = range(-(1 << 70) + 1, 1 << 70, 3)
        with pytest.raises(OverflowError):
            len(big)
        for a, k in ((1, -5), (2, 1 << 69), (-1, 7), (-3, -(1 << 69)), (1, 1 << 71)):
            cut = evaluator._half(a, k, big)
            if not cut:
                assert a > 0 and a * big[0] + k > 0
            elif a > 0:
                assert cut[0] == big[0] and a * cut[-1] + k <= 0 < a * (cut[-1] + 3) + k
            else:
                assert cut[-1] == big[-1] and a * cut[0] + k <= 0 < a * (cut[0] - 3) + k
        other = range(7, 1 << 71, 5)
        common = evaluator._meet(big, other)
        assert common.step == 15 and common[0] in big and common[0] in other
        assert common[0] - 15 < max(big.start, other.start)
        assert common[-1] in big and common[-1] in other and common[-1] + 15 >= big.stop
        assert not evaluator._meet(range(0, 1 << 70, 2), range(1, 1 << 70, 4))

    @staticmethod
    def offsets_by_brute_force(witness, congruences, sign, js):
        def allowed(j):
            for m, t in congruences:
                u = t if witness is None else witness + t
                if (u.const + sign * j) % gcd(m, *(c for _, c in u.coeffs)):
                    return False
            return True
        return [j for j in js if allowed(j)]

    def test_offsets(self):
        # j in 1..period such that g | const(u) + sign*j for every m | t,
        # u = witness + t and g = gcd(m, coefficients of u)
        rng = random.Random(34)
        y, z = LinearTerm.var("y"), LinearTerm.var("z")

        def term():
            return (LinearTerm.num(rng.randint(-20, 20)) + y.scaled(rng.randint(-4, 4))
                    + z.scaled(rng.choice([0, 0, 3, -6])))
        for _ in range(400):
            witness = rng.choice([None, term()])
            congruences = [(rng.randint(1, 12), term())
                           for _ in range(rng.randint(0, 3))]
            sign, period = rng.choice([1, -1]), rng.randint(1, 60)
            side = "lower" if sign == 1 else "upper"
            got = evaluator._offsets(witness, congruences, [], side, period)
            assert list(got) == self.offsets_by_brute_force(
                witness, congruences, sign, range(1, period + 1)), \
                (witness, congruences, sign, period)
        # an unsolvable pair: 2 | j and 2 | j + 1
        assert not evaluator._offsets(None, [(2, ZERO), (2, LinearTerm.num(1))], [],
                                      "lower", 60)
        # a period past 2^63: len() overflows, the class is still exact
        congruences = [(6, LinearTerm.num(1) + y.scaled(2)), (10, LinearTerm.num(3))]
        big = evaluator._offsets(None, congruences, [], "upper", 1 << 70)
        assert big.step == 10 and big[-1] + big.step > 1 << 70 >= big[-1]
        assert list(big[:3]) == self.offsets_by_brute_force(
            None, congruences, -1, range(1, 31))


ONE_FORMS = ({"w": 1, "z": 2}, {"w": 2, "z": -3}, {"w": -1, "z": 3}, {"z": -2})


def one_form_exists(rng):
    """exists v of a flat conjunction of atoms that read a*v + k*f + c for
    one form f over w and z (f's first coefficient negative in two of
    them): bounds (<=, <) on one side of v, on both or on neither, divs
    of 2, 3, 4 or 6, and atoms without v (<=, <, = or div).  |w|, |z| <= 3
    keeps every threshold on v within 37 and every period of v within 12,
    so that v over SOUND_BOX decides the body."""
    f = LinearTerm.of(rng.choice(ONE_FORMS))
    signs = rng.choice([(1,), (-1,), (1, -1), ()])

    def term(a):
        return LinearTerm.var("v", a) + f.scaled(rng.randint(-2, 2)).shifted(rng.randint(-6, 6))
    parts = []
    for i in range(rng.randint(1, 5)):
        roll = rng.random()
        if roll < 0.4 and signs:
            a = rng.choice(signs) * rng.randint(1, 3)
            parts.append(Atom(rng.choice([LE, LT]), term(a), ZERO))
        elif roll < 0.7 or i == 0:
            parts.append(Atom(DIV, term(rng.choice([-3, -2, -1, 1, 2, 3])), ZERO,
                              rng.choice([2, 3, 4, 6])))
        else:
            kind = rng.choice([LE, LT, EQ, DIV])
            parts.append(Atom(kind, term(0), ZERO, rng.choice([2, 3, 4, 6]) if kind == DIV else None))
    return Exists("v", mk_and(parts)), f


def nested_exists(rng):
    """exists v of a flat conjunction of atoms that read a*v + k*f + c for
    one form f: two or three lower bounds on v of distinct k, as many
    upper bounds or one more, so that the lower bounds are the witnesses,
    and one div of 2, 4 or 6 on v (k 0 or 1).  The witnesses' k differ,
    so the div leaves their pieces in classes of f whose moduli divide one
    another, and some lie inside others.  Every threshold on v is within
    36, so v over SOUND_BOX decides the body."""
    f = LinearTerm.of(rng.choice(ONE_FORMS))

    def term(a, k, lo, hi):
        return LinearTerm.var("v", a) + f.scaled(k).shifted(rng.randint(lo, hi))
    lows = rng.randint(2, 3)
    parts = [Atom(rng.choice([LE, LT]), term(-1, k, -6, 0), ZERO)
             for k in rng.sample(range(-1, 3), lows)]
    parts += [Atom(rng.choice([LE, LT]), term(1, k, -6, 0), ZERO)
              for k in rng.sample(range(-2, 3), rng.randint(lows, lows + 1))]
    parts.append(Atom(DIV, term(rng.choice([-1, 1]), rng.choice([0, 1]), -6, 6), ZERO,
                      rng.choice([2, 4, 6])))
    rng.shuffle(parts)
    return Exists("v", mk_and(parts))


def piece_of(g, form):
    """(lo, hi, res, mod) of a disjunct that is one piece of f, `form`
    made primitive with its first coefficient positive: T, one equality
    f = c, or an and of at most one bound lo <= f, one bound f <= hi and
    one div mod | f - res, each bound a member of the class and lo < hi;
    an end that no bound cuts is None.  AssertionError for anything
    else."""
    k = gcd(*(c for _, c in form.coeffs)) * (1 if form.coeffs[0][1] > 0 else -1)
    f = LinearTerm(tuple((v, c // k) for v, c in form.coeffs))
    if g is TRUE:
        return None, None, 0, 1
    if isinstance(g, Atom) and g.kind == EQ:
        assert g.left == f and g.right.is_ground, to_text(g)
        return g.right.const, g.right.const, 0, 1
    lo = hi = None
    res, mod = 0, 1
    for a in g.parts if isinstance(g, And) else (g,):
        assert isinstance(a, Atom), to_text(g)
        if a.kind == DIV and mod == 1 and a.left.coeffs == f.coeffs:
            res, mod = -a.left.const, a.modulus
            assert 0 <= res < mod and mod > 1, to_text(g)
        elif a.kind == LE and a.right == f and a.left.is_ground and lo is None:
            lo = a.left.const
        elif a.kind == LE and a.left == f and a.right.is_ground and hi is None:
            hi = a.right.const
        else:
            raise AssertionError(f"not one piece of {f}: {to_text(g)}")
    assert all(end is None or (end - res) % mod == 0 for end in (lo, hi)), to_text(g)
    assert lo is None or hi is None or lo < hi, to_text(g)
    return lo, hi, res, mod


def in_piece(value, piece):
    lo, hi, res, mod = piece
    return (lo is None or lo <= value) and (hi is None or value <= hi) \
        and (value - res) % mod == 0


def random_pieces(rng):
    """Pieces (lo, hi, res, mod) of one form as _piece gives them: ends
    members of the class or None, a point as (c, c, 0, 1), among them
    runs that touch the one before in its class, moduli that divide one
    another and duplicates."""
    pieces = []
    for _ in range(rng.randint(1, 12)):
        roll = rng.random()
        if roll < 0.25:
            c = rng.randint(-30, 30)
            pieces.append((c, c, 0, 1))
        elif roll < 0.4 and pieces and pieces[-1][1] is not None:
            lo, hi, res, mod = pieces[-1]  # the next run of its class, touching
            pieces.append((hi + mod, hi + mod * rng.randint(2, 4), res, mod))
        elif roll < 0.5 and pieces:
            pieces.append(rng.choice(pieces))
        else:
            mod = rng.choice([1, 2, 3, 4, 6, 12])
            res = rng.randrange(mod)
            lo = None if rng.random() < 0.2 else rng.randint(-30, 30)
            hi = None if rng.random() < 0.2 else rng.randint(-30, 30)
            lo = None if lo is None else lo + (res - lo) % mod
            hi = None if hi is None else hi - (hi - res) % mod
            if lo is None or hi is None or lo < hi:
                pieces.append((lo, hi, res, mod))
            elif lo == hi:
                pieces.append((lo, lo, 0, 1))
    return pieces


def members(piece, window):
    """The members of a piece in `window`, a range of step 1."""
    lo, hi, res, mod = piece
    start = window.start if lo is None else max(lo, window.start)
    stop = window.stop if hi is None else min(hi + 1, window.stop)
    return range(start + (res - start) % mod, stop, mod)


def lies_inside_another(pieces, window):
    """The pieces whose members in `window` all lie in one other piece."""
    cover: dict[int, set] = {}
    for i, p in enumerate(pieces):
        for v in members(p, window):
            cover.setdefault(v, set()).add(i)
    return [p for i, p in enumerate(pieces)
            if members(p, window) and
            set.intersection(*(cover[v] for v in members(p, window))) != {i}]


class TestOneFormPieces:
    """A case split whose body is a flat conjunction through one form f
    meets each instance into one piece of f by integer arithmetic:
    _piece against brute force over f, and QE of such bodies against
    brute force over SOUND_BOX and against the template route."""

    def test_piece_against_brute_force(self):
        # the data piece against brute force over f, the formula it builds
        # against the piece (piece_of), and its atoms and bits, counted by
        # arithmetic, against the atoms of that formula
        rng = random.Random(35)
        u = LinearTerm.var("u")
        forms = [u, LinearTerm.of({"x": 1, "y": 10}), LinearTerm.of({"x": 3, "y": -1000})]
        seen = dict.fromkeys(("F by the bounds", "F by the classes", "point",
                              "open below", "open above", "two-sided", "T"), 0)
        for _ in range(3000):
            # (m, s, k, c): m | k*u + c + s*w, or k*u + c + s*w <= 0 if m is None
            constraints = [
                (rng.choice([2, 3, 4, 6, 9]), rng.choice([-1, 0, 1]),
                 rng.randint(-3, 3), rng.randint(-12, 12)) if rng.random() < 0.5 else
                (None, rng.choice([-1, 0, 1]), rng.randint(-3, 3), rng.randint(-30, 30))
                for _ in range(rng.randint(0, 4))]
            kw, cw, o = rng.randint(-2, 2), rng.randint(-9, 9), rng.randint(-3, 3)

            def holds(value, divs=True):  # divs=False reads the bounds only
                for m, s, k, c in constraints:
                    t = k * value + c + s * (kw * value + cw + o)
                    if (t % m if m else t > 0) and (divs or m is None):
                        return False
                return True
            got = evaluator._piece(evaluator._at_witness(constraints, kw, cw), o)
            values = range(-200, 201)
            want = [v for v in values if holds(v)]
            if got is None:
                assert not want, constraints
                bounded = any(holds(v, divs=False) for v in values)
                seen["F by the classes" if bounded else "F by the bounds"] += 1
                continue
            assert piece_of(evaluator._built(u, got), u) == got, (constraints, kw, cw, o)
            assert [v for v in values if in_piece(v, got)] == want, (constraints, kw, cw, o)
            lo, hi = got[:2]
            seen["T" if lo is hi is None and got[3] == 1 else
                 "point" if lo == hi is not None else
                 "open below" if lo is None else "open above" if hi is None else
                 "two-sided"] += 1
            for f in forms if evaluator._size(got) else ():  # a T piece builds nothing
                node = evaluator._built(f, got)
                top = max(abs(c) for _, c in f.coeffs)
                assert evaluator._size(got) == count_atoms(node), got
                assert evaluator._bits(top, got) == \
                    max(a.max_coeff_bits() for a in atoms_of(node)), (f, got)
        assert min(seen.values()) > 0, seen

    def test_qe_against_brute_force_and_template(self):
        tails = 0
        offsets = evaluator._offsets

        def counted_offsets(witness, congruences, bounds, side, period):
            nonlocal tails
            steps = offsets(witness, congruences, bounds, side, period)
            tails += witness is None and bool(steps)
            return steps
        for i in range(300):
            f, form = one_form_exists(random.Random(3_500_000 + i))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(evaluator, "_offsets", counted_offsets)
                qf = eliminate_quantifiers(f)
            for part in qf.parts if isinstance(qf, Or) else (qf,):
                if part is not FALSE:
                    piece_of(part, form)
            names = sorted(free_vars(f))
            test = compile_plan(qf, names)
            oracle = compile_plan(f, names, {"v": SOUND_BOX})
            for point in product(range(-3, 4), repeat=len(names)):
                assert test(point) == oracle(point), (to_text(f), point)
            test_old = compile_plan(eliminate_every_offset(f), names)
            for point in product(range(-9, 10), repeat=len(names)):
                assert test(point) == test_old(point), (to_text(f), point)
        assert tails > 0

    @pytest.mark.parametrize("encode", [encode_naive, encode_bridged])
    def test_encoder_disjuncts_are_pieces(self, encode):
        # a fall-back to the template route would leave other shapes; the
        # union leaves no piece inside another, over a window past every
        # end by twice the period
        for d in range(1, 9):
            qf = eliminate_quantifiers(encode(d)[0].formula)
            pieces = [piece_of(part, LinearTerm.of({"x": 1, "y": d}))
                      for part in (qf.parts if isinstance(qf, Or) else (qf,))]
            ends = [e for p in pieces for e in p[:2] if e is not None]
            period = lcm(*(p[3] for p in pieces))
            window = range(min(ends) - 2 * period, max(ends) + 2 * period + 1)
            assert not lies_inside_another(pieces, window), d

    @pytest.mark.parametrize("encode", [encode_naive, encode_bridged])
    def test_encoder_outputs_are_the_code_set(self, encode):
        # the unioned output and the or of its pieces as they arrived
        for d in range(1, 11):
            f = encode(d)[0].formula
            qf, ununioned = eliminate_quantifiers(f), eliminate_ununioned(f)
            assert count_atoms(qf) <= count_atoms(ununioned)
            codes = code_set_bitmap(d)
            xs, ys = range(-2, d + 3), range(-2, (1 << d) + 2)
            masks = [compile_masks(g, ("y", "x"), (ys, xs)) for g in (qf, ununioned)]
            for y in ys:
                want = sum(1 << k for k, x in enumerate(xs)
                           if 0 <= x + d * y < len(codes) and codes[x + d * y])
                assert [m((y,)) for m in masks] == [want, want], (d, y)


class TestUnion:
    """QE's step unions each form's pieces once: _merged merges the
    pieces of one class that overlap or touch, _union then drops each
    piece that another contains.  Against brute force over a window that
    reaches past every end by more than every modulus, and QE's unioned
    output against the or of the same pieces built as they arrive."""

    WINDOW = range(-100, 101)

    def test_union_against_brute_force(self):
        seen = {"dropped": 0, "merged": 0, "open": 0}
        for i in range(2000):
            pieces = random_pieces(random.Random(3_600_000 + i))
            want = {v for p in pieces for v in members(p, self.WINDOW)}
            merged, kept = evaluator._merged(pieces), evaluator._union(pieces)
            for out in (merged, kept):
                assert {v for p in out for v in members(p, self.WINDOW)} == want, pieces
                for p, q in zip(out, out[1:]):  # one class: neither overlap nor touch
                    if p[2:] == q[2:]:
                        assert p[1] is not None and q[0] is not None \
                            and q[0] > p[1] + p[3], (pieces, p, q)
            assert set(kept) <= set(merged)
            assert not lies_inside_another(kept, self.WINDOW), pieces
            assert lies_inside_another(merged, self.WINDOW) == \
                [p for p in merged if p not in kept], pieces
            seen["dropped"] += len(kept) < len(merged)
            seen["merged"] += len(merged) < len(set(pieces))
            seen["open"] += any(None in p[:2] for p in kept)
        assert min(seen.values()) > 0, seen

    def test_qe_against_the_ununioned_or(self):
        # these bodies' pieces seldom overlap, so the union mostly reorders
        # them; the encoders' outputs, below, are where it shrinks
        box = range(SOUND_BOX[0], SOUND_BOX[1] + 1)
        changed = 0
        for i in range(300):
            f, form = one_form_exists(random.Random(3_500_000 + i))
            got, old = eliminate_quantifiers(f), eliminate_ununioned(f)
            assert count_atoms(got) <= count_atoms(old)
            changed += to_text(got) != to_text(old)
            names = sorted(free_vars(f))
            if isinstance(got, Bool) or isinstance(old, Bool):
                assert got == old, to_text(f)
                continue
            # the compiled masks, which read no piece and merge none
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(evaluator, "one_form_line", refuse_one_form)
                masks = [compile_masks(g, names, (box,) * len(names)) for g in (got, old)]
            for point in product(box, repeat=len(names) - 1):
                assert masks[0](point) == masks[1](point), (to_text(f), point)
        assert changed > 0

    def test_nested_pieces_are_dropped(self):
        # bodies whose pieces nest: the union drops some, and QE's output
        # equals the ununioned or and brute force over SOUND_BOX
        drops, union = 0, evaluator._union

        def counted_union(pieces):
            nonlocal drops
            pieces = list(pieces)
            kept = union(pieces)
            drops += len(evaluator._merged(pieces)) - len(kept)
            return kept
        for i in range(200):
            f = nested_exists(random.Random(3_700_000 + i))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(evaluator, "_union", counted_union)
                got = eliminate_quantifiers(f)
            old = eliminate_ununioned(f)
            assert count_atoms(got) <= count_atoms(old)
            names = sorted(free_vars(f))
            tests = [compile_plan(g, names) for g in (got, old)]
            oracle = compile_plan(f, names, {"v": SOUND_BOX})
            for point in product(range(-3, 4), repeat=len(names)):
                assert [test(point) for test in tests] == [oracle(point)] * 2, \
                    (to_text(f), point)
        assert drops > 0


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
    for f in (rng.choice([Exists, Forall])("v", random_qf(rng, "vwz", allow_div=True)),
              or_under_quantifier(rng)):
        qf = eliminate_quantifiers(f)
        test, oracle = compile_plan(qf, "wz"), compile_plan(f, "wz", {"v": (-100, 100)})
        for point in product(range(-4, 5), repeat=2):
            assert test(point) == oracle(point), (to_text(f), point)


def test_qe_output_pinned(monkeypatch):
    # sha256 of the printed elimination output: any change to QE output on
    # these inputs shows here.  The template route still gives the digest
    # recorded with the case split that built every offset (residue
    # stepping and the bound cut left it unchanged); one-form pieces moved
    # it, and the pieces built as they arrive still give that digest; the
    # union of each step's pieces moves it again, from 180 atoms to 138
    inputs = [random_sentence(random.Random(4_400_000 + i)) for i in range(200)]
    inputs += [encode_naive(4)[0].formula, encode_naive(6)[0].formula]
    digests, atoms = [], []
    for eliminate in (eliminate_quantifiers, eliminate_ununioned,
                      lambda f: by_template(f, monkeypatch)):
        digest, outputs = hashlib.sha256(), list(map(eliminate, inputs))
        for qf in outputs:
            digest.update(to_text(qf).encode() + b"\n")
        digests.append(digest.hexdigest())
        atoms.append(sum(map(count_atoms, outputs)))
    assert digests == [
        "1b49ea4ea879140ddc1ff24e900cbf574199754b43e16f29f03c114f99e507c0",
        "584965375b4cf555c37eb152b4d402a2681456cf82ec1f2772843ed7ca70747b",
        "20128a65eb9e2d9dcace7e7860c2fcde45f02fa83d7f7c9c889f90a6846bbd82"]
    assert atoms[:2] == [138, 180]


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


def shortcut_by_full_simplify(var, body):
    """_equality_shortcut as it was before its build went path-only: the
    same equality and the same checks, then simplify of the whole
    substituted body."""
    conjuncts = list(evaluator._conjuncts(body))
    best = None
    for idx, part in enumerate(conjuncts):
        if isinstance(part, Atom) and part.kind == EQ:
            c, rest = evaluator._linear(part, var)
            if c and (best is None or abs(c) < best[0]):
                best = (abs(c), idx, -rest if c > 0 else rest)
    if best is None:
        return None
    c, chosen, t = best
    if bound_vars(body) & (t.vars() | {var}):
        return None

    def rewrite(a):
        if not (a.left.coeff(var) or a.right.coeff(var)):
            return a
        av, rest = evaluator._linear(a, var)
        return Atom(a.kind, rest.scaled(c) + t.scaled(av), ZERO,
                    None if a.modulus is None else a.modulus * c)
    return simplify(mk_and([Atom(DIV, t, ZERO, c)] + [
        map_atoms(p, var, rewrite) for i, p in enumerate(conjuncts) if i != chosen]))


def with_shortcut(shortcut, run):
    """(run(), the (var, body) of each shortcut taken) with `shortcut` in
    place of evaluator._equality_shortcut."""
    taken = []

    def spy(var, body):
        build = shortcut(var, body)
        if build is not None:
            taken.append((var, body))
        return build
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluator, "_equality_shortcut", spy)
        return run(), taken


class TestPathOnlyShortcut:
    """The shortcut rebuilds only the paths to atoms on its variable, and
    builds the node that simplifying the whole substituted body built."""

    @staticmethod
    def same_as_full(run):
        got, taken = with_shortcut(evaluator._equality_shortcut, run)
        want, want_taken = with_shortcut(shortcut_by_full_simplify, run)
        assert to_text(got) == to_text(want)
        assert len(taken) == len(want_taken)
        for var, body in taken:
            built = evaluator._equality_shortcut(var, body)
            reference = shortcut_by_full_simplify(var, body)
            assert built == reference and to_text(built) == to_text(reference)
        return len(taken)

    def test_fuzz_sentences(self):
        taken = sum(self.same_as_full(lambda: eliminate_quantifiers(
            random_sentence(random.Random(7_900_000 + i)))) for i in range(600))
        assert taken > 100

    @pytest.mark.parametrize("encode", [encode_naive, encode_bridged])
    def test_encoders_plans_and_qe(self, encode):
        taken = 0
        for d in range(1, 9):
            pf, meta = encode(d)
            step = evaluator._dual(evaluator._bounded_step(meta.hint_map()))
            taken += self.same_as_full(lambda: evaluator._rewrite(pf.formula, step))
            taken += self.same_as_full(lambda: eliminate_quantifiers(pf.formula))
        assert taken > 0

    @pytest.mark.parametrize("text, want", [
        # the inner quantifier keeps its variable
        ("(and (= x (+ y 1)) (exists z (and (< z x) (< x 3))))",
         "(exists z (and (< (+ (* -1 y) (* 1 z) -1) 0) (< (+ (* 1 y) -2) 0)))"),
        # x := 1 makes the or T, and exists z goes with it
        ("(and (= x 1) (< y 2) (exists z (or (< z 5) (= x 1))))", "(< y 2)"),
        # through a not, under the dual's negation
        ("(and (= (* 2 x) y) (not (exists z (and (< z x) (< x y)))))",
         "(and (div 2 y) (not (exists z (and (< (+ (* -1 y) (* 2 z)) 0) "
         "(< (* -1 y) 0)))))"),
    ])
    def test_inner_quantifiers(self, text, want):
        body = simplify(parse(text))
        got = evaluator._equality_shortcut("x", body)
        assert got == shortcut_by_full_simplify("x", body)
        assert to_text(got) == want

    def test_subtrees_without_the_variable_are_kept(self):
        body = simplify(parse("(and (= (* 2 x) y) (or (< z 1) (< w 2)) "
                              "(exists v (and (< v z) (< z 4))) (< x w))"))
        got = evaluator._equality_shortcut("x", body)
        assert got == shortcut_by_full_simplify("x", body)
        kept = [p for p in body.parts if "x" not in free_vars(p)]
        assert len(kept) == 2
        assert all(any(p is q for q in got.parts) for p in kept)
