"""Parser, printer, substitution, and shape metrics."""

import functools
import random
from dataclasses import FrozenInstanceError, fields

import pytest

from pavc.formula import (
    DIV,
    EQ,
    FALSE,
    LE,
    LT,
    MAX_NESTING,
    TRUE,
    ZERO,
    And,
    Atom,
    BindingError,
    Bool,
    Exists,
    Forall,
    Formula,
    FormulaSyntaxError,
    LinearTerm,
    Not,
    Or,
    PartitionedFormula,
    FormulaError,
    ShadowingError,
    UnboundVariableError,
    atoms_of,
    bitlen,
    bound_vars,
    free_vars,
    is_quantifier_free,
    mk_and,
    mk_or,
    parse,
    parse_partitioned,
    print_partitioned,
    shape,
    subst_term,
    substitute,
    to_text,
)
from pavc.evaluator import eliminate_quantifiers
from pavc.fuzz import random_qf, random_sentence
from pavc.generator import encode_bridged, encode_naive


def test_bitlen_convention():
    # |n|.bit_length() + 1: sign bit plus magnitude bits
    assert bitlen(0) == 1
    assert bitlen(1) == 2
    assert bitlen(-1) == 2
    assert bitlen(7) == 4
    assert bitlen(8) == 5
    assert bitlen(-8) == 5


class TestLinearTerm:
    def test_of_merges_and_drops_zeros(self):
        t = LinearTerm.of([("x", 2), ("y", 0), ("x", -2), ("z", 3)], 5)
        assert t == LinearTerm.of({"z": 3}, 5)
        assert t.coeff("x") == 0
        assert t.vars() == frozenset({"z"})

    def test_arithmetic_matches_evaluation(self):
        rng = random.Random(101)
        for _ in range(200):
            a = LinearTerm.of({v: rng.randint(-9, 9) for v in "xyz"},
                              rng.randint(-20, 20))
            b = LinearTerm.of({v: rng.randint(-9, 9) for v in "xyz"},
                              rng.randint(-20, 20))
            k = rng.randint(-6, 6)
            env = {v: rng.randint(-50, 50) for v in "xyz"}
            assert (a + b).value(env) == a.value(env) + b.value(env)
            # the merge gives the canonical term that LinearTerm.of builds
            assert a + b == LinearTerm.of(a.coeffs + b.coeffs,
                                          a.const + b.const)
            assert (a - b).value(env) == a.value(env) - b.value(env)
            assert (-a).value(env) == -a.value(env)
            assert a.scaled(k).value(env) == k * a.value(env)
            assert a.shifted(k).value(env) == a.value(env) + k

    def test_substitute_into_term(self):
        t = LinearTerm.of({"x": 3, "y": 1}, 2)
        r = LinearTerm.of({"y": 2}, -1)
        out = t.substitute("x", r)
        # 3*(2y - 1) + y + 2 = 7y - 1
        assert out == LinearTerm.of({"y": 7}, -1)

    def test_is_ground(self):
        assert LinearTerm.num(4).is_ground
        assert not LinearTerm.var("x").is_ground


class TestParsing:
    def test_normalizing_parse(self):
        f = parse("(<= (+ (* 1 x) 0) (+ (* 0 x) 5))")
        assert f == Atom(LE, LinearTerm.var("x"), LinearTerm.num(5))
        assert to_text(f) == "(<= x 5)"

    def test_boolean_constants_reserved(self):
        assert parse("T") is TRUE
        assert parse("F") is FALSE
        with pytest.raises(FormulaSyntaxError):
            parse("(< T 1)")

    def test_connectives_and_quantifiers(self):
        f = parse("(and (< x y) (or (= x 0) (not (<= y 3))))")
        assert isinstance(f, And)
        g = parse("(forall x (exists y (< x y)))")
        assert isinstance(g, Forall)
        assert free_vars(g) == frozenset()
        assert bound_vars(g) == {"x", "y"}

    def test_shadowing_rejected(self):
        with pytest.raises(ShadowingError):
            parse("(exists x (exists x T))")
        with pytest.raises(ShadowingError):
            parse("(and (< x 1) (exists x (< x 2)))")

    def test_div_gate(self):
        with pytest.raises(FormulaSyntaxError):
            parse("(div 2 x)")
        f = parse("(div 2 x)", allow_div=True)
        assert f == Atom(DIV, LinearTerm.var("x"), ZERO, 2)

    def test_div_needs_positive_modulus(self):
        with pytest.raises(FormulaSyntaxError):
            parse("(div 0 x)", allow_div=True)
        with pytest.raises(FormulaError):
            Atom(DIV, LinearTerm.var("x"), ZERO, -3)

    def test_syntax_error_carries_position(self):
        for reader, text, message in [
            (parse, "(and (< x 1)\n  (< y ))", "2:8: expected a term, found ')'"),
            (parse, "(<= (+) 1)", "1:6: (+ ...) needs at least one term"),
            (parse, "(<= (* x 3) 1)", "1:8: (* ...) needs an integer coefficient"),
            (parse, "(<= (* 3 3x) 1)", "1:10: invalid variable '3x'"),
            (parse, "(<= (- 1 2) 1)", "1:6: unknown term operator '-'"),
            (parse, "x", "1:1: expected a formula, found 'x'"),
            (parse, "(and)", "1:2: (and ...) needs at least one formula"),
            (parse, "(exists 3x T)", "1:9: invalid variable '3x'"),
            (parse, "(foo T)", "1:2: unknown formula head 'foo'"),
            (parse, "(<= 1 2", "1:8: unexpected end of input"),
            (parse, "(not T T)", "1:8: expected ')', found 'T'"),
            (parse_partitioned, "#objects: 3x\n#params: y\n(< x y)",
             "1:1: invalid header variable '3x'"),
        ]:
            with pytest.raises(FormulaSyntaxError) as err:
                reader(text)
            assert str(err.value) == message, text
            line, col, _ = message.split(":", 2)
            assert (err.value.line, err.value.column) == (int(line), int(col))

    def test_declared_free_enforced(self):
        with pytest.raises(UnboundVariableError):
            parse("(< x y)", declared_free=["x"])
        parse("(< x y)", declared_free=["x", "y", "z"])

    def test_trailing_input_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse("(< x 1) (< x 2)")

    def test_empty_input_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse("   ")

    def test_nesting_cap(self):
        def nots(depth):
            return "(not " * (depth - 1) + "(< x 1)" + ")" * (depth - 1)
        f = parse(nots(MAX_NESTING))
        assert to_text(f) == nots(MAX_NESTING)
        with pytest.raises(FormulaSyntaxError) as err:
            parse("\n" + nots(MAX_NESTING + 1))
        assert (err.value.line, err.value.column) == (2, 5 * MAX_NESTING + 1)
        with pytest.raises(FormulaSyntaxError):  # terms nest too
            parse("(< " + "(+ " * MAX_NESTING + "x" + " 1)" * MAX_NESTING + " 0)")

    def test_literal_past_str_limit_refused_at_the_literal(self):
        wide = "9" * 4300
        assert to_text(parse(f"(< x {wide})")) == f"(< x {wide})"
        for text, column in ((f"(< x {wide}9)", 6),
                             (f"(< (* -{wide}9 x) 1)", 7),
                             (f"(div {wide}9 x)", 6)):
            with pytest.raises(FormulaSyntaxError,
                               match="integer literal too long: 4301 digits") as err:
                parse(text, allow_div=True)
            assert (err.value.line, err.value.column) == (1, column)

    def test_single_part_connective_collapses(self):
        assert parse("(and (< x 1))") == parse("(< x 1)")
        assert parse("(or (< x 1))") == parse("(< x 1)")
        # the raw constructor still insists on two parts
        with pytest.raises(FormulaError):
            And((TRUE,))


def test_roundtrip_fuzz_quantifier_free():
    rng = random.Random(2024)
    for _ in range(300):
        f = random_qf(rng, ["x", "y"], allow_div=True)
        assert parse(to_text(f), allow_div=True) == f


def test_roundtrip_fuzz_sentences():
    for i in range(200):
        rng = random.Random(5555 + i)
        s = random_sentence(rng)
        assert parse(to_text(s)) == s


class TestSubstitution:
    def test_fold_constants(self):
        f = parse("(and (< x y) (exists z (= y (+ z z))))")
        g = substitute(f, {"x": 3})
        assert free_vars(g) == {"y"}
        assert to_text(g) == "(and (< 3 y) (exists z (= y (* 2 z))))"

    def test_binding_bound_var_rejected(self):
        f = parse("(exists z (< z x))")
        with pytest.raises(BindingError):
            substitute(f, {"z": 1})
        with pytest.raises(BindingError):
            substitute(f, {"nope": 1})

    def test_subst_term_skips_shadowed_scope(self):
        # var bound inside is left untouched
        f = Exists("x", Atom(LT, LinearTerm.var("x"), LinearTerm.num(3)))
        assert subst_term(f, "x", LinearTerm.num(9)) == f


class TestPartition:
    def test_parse_print_roundtrip(self):
        text = "#objects: x\n#params: y\n(< x y)\n"
        pf = parse_partitioned(text)
        assert pf.object_vars == ("x",)
        assert pf.param_vars == ("y",)
        assert print_partitioned(pf) == text

    def test_comment_lines_skipped(self):
        pf = parse_partitioned(
            "# emitted artifact\n#objects: x\n#params: y\n# body\n(< x y)\n")
        assert pf.formula == parse("(< x y)")

    def test_error_positions_count_header_lines(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_partitioned("#objects: x\n#params:\n# c\n(< x )\n")
        assert (err.value.line, err.value.column) == (4, 6)

    def test_partition_must_cover_free_vars(self):
        with pytest.raises(FormulaError):
            PartitionedFormula(parse("(< x y)"), ("x",), ())
        with pytest.raises(FormulaError):
            PartitionedFormula(parse("(< x 1)"), ("x",), ("ghost",))
        with pytest.raises(FormulaError):
            PartitionedFormula(parse("(< x y)"), ("x", "y"), ("y",))

    def test_missing_headers_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_partitioned("(< x y)\n")


class TestShape:
    def test_atom_counting(self):
        # <=/< count 1, =/div count 2
        f = parse("(and (<= x 1) (< x 2) (= x 3))")
        assert shape(f).num_inequalities == 4
        g = parse("(div 4 x)", allow_div=True)
        assert shape(g).num_inequalities == 2

    def test_total_vars_counts_distinct_names(self):
        f = parse("(or (exists z (< z x)) (exists z (< x z)))")
        assert shape(f).total_vars == 2

    def test_alternations(self):
        assert shape(parse("(exists x (exists y (< x y)))")) \
            .num_quantifier_alternations == 0
        assert shape(parse("(forall x (exists y (< x y)))")) \
            .num_quantifier_alternations == 1
        # negation flips polarity: exists not exists is one alternation
        f = parse("(exists x (not (exists y (< x y))))")
        assert shape(f).num_quantifier_alternations == 1
        g = parse("(not (exists x (not (forall y (< x y)))))")
        assert shape(g).num_quantifier_alternations == 0

    def test_phi_additivity(self):
        a = parse("(< x 1)")
        b = parse("(<= y 2)")
        both = And((a, b))
        assert shape(both).phi_bits == 1 + shape(a).phi_bits + shape(b).phi_bits
        quant = Exists("x", a)
        assert shape(quant).phi_bits == 2 + shape(a).phi_bits

    def test_phi_term_costs(self):
        # (< x 1): 1 (op) + [bitlen(1)+1] (x entry) + bitlen(1) (const 1)
        f = parse("(< x 1)")
        assert shape(f).phi_bits == 1 + (bitlen(1) + 1) + bitlen(1)
        # zero constant next to coefficients costs nothing
        g = parse("(< (* 2 x) (+ (* 1 y) 0))")
        assert shape(g).phi_bits == 1 + (bitlen(2) + 1) + (bitlen(1) + 1)

    def test_phi_constant_costs_one(self):
        a = parse("(< x 1)")
        assert shape(TRUE).phi_bits == 1
        assert shape(Or((TRUE, a))).phi_bits == 1 + 1 + shape(a).phi_bits

    def test_is_short_thresholds(self):
        f = parse("(exists x (< x y))")
        rep = shape(f)
        assert rep.is_short(10, 18)
        assert not rep.is_short(1, 18)


def test_mk_connective_collapse():
    a = parse("(< x 1)")
    assert mk_and([]) is TRUE
    assert mk_or([]) is FALSE
    assert mk_and([a]) == a
    assert mk_or([a]) == a
    assert isinstance(mk_and([a, parse("(< x 2)")]), And)


class TestErrorPositions:
    """Line and column of each error kind, where a tab and a carriage
    return count one column each and only a newline starts a line."""

    @pytest.mark.parametrize("text, error, message", [
        # tabs, CRLF line endings and a token at the start of a line
        ("(and\r\n\t(< x 1)\r\n(< y ))", FormulaSyntaxError,
         "3:6: expected a term, found ')'"),
        ("\t\t(and (< x 1)\n\t(<= (* 2 y) (+ x\t-))))", FormulaSyntaxError,
         "2:19: expected a term, found '-'"),
        ("\n\n\t(exists\r\n3x T)", FormulaSyntaxError, "4:1: invalid variable '3x'"),
        ("(and\n(< 1 x) \n(div 3 x))", FormulaSyntaxError,
         "3:2: div atoms are disabled here (pass allow_div=True)"),
        # end of input: just past the last token, whatever follows it
        ("(< x 1\n", FormulaSyntaxError, "1:7: unexpected end of input"),
        ("(and (< x 1)\n\n", FormulaSyntaxError, "1:13: unexpected end of input"),
        ("(and (< x 1)\r\n  (< y 2)\r\n  (<", FormulaSyntaxError,
         "3:5: unexpected end of input"),
        # trailing input on a later line
        ("(< x 1)\n\n  (< y 2)", FormulaSyntaxError, "3:3: trailing input '('"),
        ("(< x 1)\r\n\t)", FormulaSyntaxError, "2:2: trailing input ')'"),
        # shadowing, at the rebinding name; free and bound, with no position
        ("(exists x\n\t(forall x T))", ShadowingError,
         "2:10: variable 'x' shadows an enclosing binding"),
        ("(and (< x 1)\n (exists x (< x 2)))", ShadowingError,
         "names used both free and bound: ['x']"),
        # the nesting error wins over an earlier syntax error ...
        ("(foo\n" + "(" * (MAX_NESTING + 1), FormulaSyntaxError,
         f"2:{MAX_NESTING}: nesting deeper than {MAX_NESTING}"),
        # ... but a stray ) lowers the depth that later parens reach
        ("(< x\t1)\r\n)\n" + "(" * (MAX_NESTING + 1), FormulaSyntaxError,
         "2:1: trailing input ')'"),
    ])
    def test_position_and_message(self, text, error, message):
        with pytest.raises(error) as err:
            parse(text)
        assert type(err.value) is error and str(err.value) == message
        if error is FormulaSyntaxError:
            line, column, _ = message.split(":", 2)
            assert (err.value.line, err.value.column) == (int(line), int(column))

    def test_partitioned_positions_count_header_lines(self):
        with pytest.raises(FormulaSyntaxError, match=r"^4:5: expected a term"):
            parse_partitioned("#objects: x\n#params: y\n\t(and (< x y)\r\n(< x))")


def all_nodes(node):
    """node and every node and term below it."""
    yield node
    for field in fields(node):
        value = getattr(node, field.name)
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, (Formula, LinearTerm)):
                yield from all_nodes(child)


def walked_vars(f, bound):
    """bound_vars(f) if bound, else free_vars(f), by a walk that keeps nothing."""
    if isinstance(f, Bool):
        return set()
    if isinstance(f, Atom):
        return set() if bound else {v for v, _ in f.left.coeffs + f.right.coeffs}
    if isinstance(f, Not):
        return walked_vars(f.body, bound)
    if isinstance(f, (And, Or)):
        return set().union(*(walked_vars(p, bound) for p in f.parts))
    inner = walked_vars(f.body, bound)
    return inner | {f.var} if bound else inner - {f.var}


def fresh_corpus():
    """Fuzz formulas, and both encoders' outputs with their QE results,
    built anew: the fuzz formulas' nodes have kept no variable sets yet."""
    out = [random_sentence(random.Random(9_100_000 + i)) for i in range(200)]
    out += [random_qf(random.Random(9_200_000 + i), "xyz", allow_div=True)
            for i in range(200)]
    for d in range(1, 10):
        for encode in (encode_naive, encode_bridged):
            f = encode(d)[0].formula
            out += [f, eliminate_quantifiers(f)]
    return out


node_corpus = functools.cache(fresh_corpus)


class TestNodeCore:

    def test_hash_is_the_hash_of_the_fields(self):
        seen = 0
        for f in node_corpus():
            for node in all_nodes(f):
                values = tuple(getattr(node, field.name) for field in fields(node))
                assert hash(node) == hash(values)
                assert hash(node) == hash(values)  # kept, and the same
                seen += 1
        assert seen > 20_000

    def test_fields_stay_frozen(self):
        a = parse("(< x 1)")
        for node, name, value in ((a, "kind", LE), (a.left, "const", 3),
                                  (Not(a), "body", TRUE), (And((a, a)), "parts", ()),
                                  (Exists("x", a), "var", "y")):
            hash(node)  # keeps its hash and, for a formula, its free variables
            if isinstance(node, Formula):
                free_vars(node)
            with pytest.raises(FrozenInstanceError):
                setattr(node, name, value)

    def test_post_init_checks_still_raise(self):
        x = LinearTerm.var("x")
        for build in (lambda: Atom("<>", x, ZERO), lambda: Atom(DIV, x, ZERO, 0),
                      lambda: Atom(DIV, x, x, 2), lambda: Atom(LT, x, ZERO, 2),
                      lambda: And((TRUE,)), lambda: Or(())):
            with pytest.raises(FormulaError):
                build()

    def test_kept_variables_match_a_walk(self):
        rng = random.Random(9_300_000)
        for f in fresh_corpus():
            nodes = list(all_nodes(f))
            rng.shuffle(nodes)  # subtrees asked before and after their parents
            for node in (f, *nodes) if rng.random() < 0.5 else (*nodes, f):
                if isinstance(node, Formula):
                    for bound, fn in ((False, free_vars), (True, bound_vars)):
                        assert fn(node) == walked_vars(node, bound)
                        assert fn(node) == walked_vars(node, bound)

    def test_shared_subtree_keeps_its_own_sets(self):
        shared = parse("(or (< x y) (exists z (< z y)))")
        under_exists = Exists("x", And((shared, parse("(< x 3)"))))
        under_forall = Forall("y", Not(shared))
        assert free_vars(under_exists) == {"y"}
        assert bound_vars(under_exists) == {"x", "z"}
        assert free_vars(under_forall) == {"x"}
        assert bound_vars(under_forall) == {"y", "z"}
        assert free_vars(shared) == {"x", "y"} and bound_vars(shared) == {"z"}
        for f in (shared, under_exists, under_forall):
            assert free_vars(f) == walked_vars(f, False)
            assert bound_vars(f) == walked_vars(f, True)

    def test_not_a_formula_is_refused(self):
        for fn in (free_vars, bound_vars):
            with pytest.raises(FormulaError, match="not a formula"):
                fn(LinearTerm.var("x"))

    def test_difference_is_a_sum_with_the_negation(self):
        rng = random.Random(9_400_000)
        for _ in range(500):
            a, b = (LinearTerm.of({v: rng.randint(-3, 3) for v in rng.sample("uvwxyz", 3)},
                                  rng.randint(-5, 5)) for _ in range(2))
            assert a - b == a + b.scaled(-1) == LinearTerm.of(
                [*a.coeffs, *((v, -c) for v, c in b.coeffs)], a.const - b.const)


def per_value_term_bits(t):
    """LinearTerm.max_coeff_bits as a maximum over every value's bitlen."""
    return max([bitlen(t.const)] + [bitlen(c) for _, c in t.coeffs])


def per_value_atom_bits(a):
    """Atom.max_coeff_bits as a maximum over every value's bitlen."""
    return max(per_value_term_bits(a.left), per_value_term_bits(a.right),
               bitlen(a.modulus or 0))


class TestMaxCoeffBits:
    """One bitlen of the value largest in absolute value is the largest
    bitlen of them all."""

    @staticmethod
    def assert_per_value(atoms):
        for a in atoms:
            assert a.max_coeff_bits() == per_value_atom_bits(a), a
            for t in (a.left, a.right):
                assert t.max_coeff_bits() == per_value_term_bits(t), t

    def test_fuzz_atoms(self):
        rng = random.Random(9_500_000)
        wide = [random_qf(rng, "xyz", coeff_bound=rng.choice((1, 9, 2 ** 70)),
                          const_bound=rng.choice((0, 8, 2 ** 90)), allow_div=True)
                for _ in range(300)]
        self.assert_per_value(a for f in (*node_corpus(), *wide)
                              for a in atoms_of(f))

    def test_eliminated_encoders(self):
        # node_corpus holds d <= 9
        for d in (10, 11):
            for encode in (encode_naive, encode_bridged):
                self.assert_per_value(
                    atoms_of(eliminate_quantifiers(encode(d)[0].formula)))

    def test_values_at_a_power_of_two(self):
        # 2^8000 - 1 has 8000 bits, 2^8000 and -2^8000 have 8001
        big = 2 ** 8000
        atoms = []
        for k in range(-2, 3):
            for s in (1, -1):
                v = s * (big + k)
                atoms += [Atom(LE, LinearTerm.of({"x": v, "y": 1}, 3),
                               LinearTerm.num(-v)),
                          Atom(LT, LinearTerm.of({"x": 1}, v),
                               LinearTerm.of({"y": -1}, s * (big - 1))),
                          Atom(EQ, LinearTerm.num(0), LinearTerm.of({"y": v})),
                          Atom(DIV, LinearTerm.of({"x": 1}, 1), ZERO, big + k)]
        self.assert_per_value(atoms)
        assert Atom(DIV, LinearTerm.var("x"), ZERO, big - 1).max_coeff_bits() == 8001
        assert LinearTerm.num(-big).max_coeff_bits() == 8002
