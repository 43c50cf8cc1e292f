"""Property tests (hypothesis) for simplification, formula identity and
the parse/print round trip, on formulas with quantifiers, and for the VC
dimension of random families.

Examples are derandomized and bounded, so every run checks the same
cases in a few seconds.
"""

import re
from itertools import count
from random import Random

from hypothesis import given, settings, strategies as st

from pavc.evaluator import _join, decide, eval_bounded, simplify
from pavc.formula import (
    DIV, EQ, FALSE, LE, LT, TRUE, ZERO,
    And, Atom, Bool, Exists, Forall, LinearTerm, Not, Or,
    bound_vars, free_vars, parse, subst_term, to_text,
)
from pavc.fuzz import SOUND_BOX, random_family, random_qf, random_sentence
from pavc.vclab import vc_dimension

PROPERTY = settings(derandomize=True, max_examples=300, deadline=None,
                    database=None)
HINTS = {"u": (-3, 3), "v": (-2, 4)}

_terms = st.builds(
    lambda cs, k: LinearTerm.of(dict(zip("xuv", cs)), k),
    st.tuples(*[st.integers(-3, 3)] * 3), st.integers(-8, 8))
_leaves = st.one_of(
    st.builds(Atom, st.sampled_from([LE, LT, EQ]), _terms, _terms),
    st.builds(lambda t, m: Atom(DIV, t, ZERO, m), _terms, st.integers(1, 6)),
    st.sampled_from([TRUE, FALSE]),
)


def _extend(kids):
    many = st.lists(kids, min_size=2, max_size=3).map(tuple)
    var = st.sampled_from("uv")
    return st.one_of(st.builds(Not, kids), st.builds(And, many),
                     st.builds(Or, many), st.builds(Exists, var, kids),
                     st.builds(Forall, var, kids))


# free variables among x, u, v; u and v may also be bound, and rebound
formulas = st.recursive(_leaves, _extend, max_leaves=10)
sentences = st.integers(0, 2 ** 32 - 1).map(lambda s: random_sentence(Random(s)))


def reference_simplify(f):
    """simplify as it was before its and/or join was factored out: every
    part simplified as it is drawn, same-kind parts spliced back in."""
    if isinstance(f, (And, Or)):
        is_and = isinstance(f, And)
        absorber, identity = (FALSE, TRUE) if is_and else (TRUE, FALSE)
        flat, stack = {}, list(reversed(f.parts))
        while stack:
            p = reference_simplify(stack.pop())
            if p == absorber:
                return absorber
            if p == identity:
                continue
            if isinstance(p, type(f)):
                stack.extend(reversed(p.parts))
                continue
            flat[p] = None
        for p in flat:
            if Not(p) in flat or (isinstance(p, Not) and p.body in flat):
                return absorber
        if len(flat) < 2:
            return next(iter(flat), identity)
        return type(f)(tuple(flat))
    if isinstance(f, Not):
        b = reference_simplify(f.body)
        if isinstance(b, Bool):
            return FALSE if b.value else TRUE
        return b.body if isinstance(b, Not) else Not(b)
    if isinstance(f, (Exists, Forall)):
        b = reference_simplify(f.body)
        return b if f.var not in free_vars(b) else type(f)(f.var, b)
    return simplify(f)  # Bool and Atom: constant folding only


def rebuild(f):
    """A structural copy of f that shares no node with it."""
    if isinstance(f, Bool):
        return Bool(f.value)
    if isinstance(f, Atom):
        return Atom(f.kind, LinearTerm(f.left.coeffs, f.left.const),
                    LinearTerm(f.right.coeffs, f.right.const), f.modulus)
    if isinstance(f, Not):
        return Not(rebuild(f.body))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(rebuild(p) for p in f.parts))
    return type(f)(f.var, rebuild(f.body))


@PROPERTY
@given(formulas, st.tuples(*[st.integers(-6, 6)] * 3))
def test_simplify_is_idempotent_and_sound(f, values):
    g = simplify(f)
    assert simplify(g) == g
    assert g == reference_simplify(f)
    point = {n: values["xuv".index(n)] for n in sorted(free_vars(f))}
    assert eval_bounded(g, point, HINTS) == eval_bounded(f, point, HINTS)


@PROPERTY
@given(sentences)
def test_simplify_is_sound_on_sentences(s):
    g = simplify(s)
    assert simplify(g) == g
    assert decide(g) == decide(s)
    hints = {v: SOUND_BOX for v in bound_vars(s)}
    assert eval_bounded(g, {}, hints) == eval_bounded(s, {}, hints)


@PROPERTY
@given(st.booleans(), st.lists(formulas, min_size=2, max_size=4))
def test_join_of_simplified_parts_is_simplify(is_and, parts):
    joined = (And if is_and else Or)(tuple(parts))
    assert _join(is_and, map(simplify, parts)) == simplify(joined)
    assert simplify(joined) == reference_simplify(joined)


@PROPERTY
@given(formulas)
def test_equal_nodes_built_apart_hash_equal(f):
    g = rebuild(f)
    assert g is not f and g == f
    hash(f)  # f keeps its hash, g has none yet: equality ignores both
    assert g == f and hash(g) == hash(f)
    assert hash(rebuild(f)) == hash(f)
    assert hash(Not(f)) == hash(Not(g)) and Not(f) == Not(g)


def rebind_apart(f, names=None):
    """f with every binder renamed to a fresh b<n>, which is the form parse
    reads: no binder shadows another, and no name is both free and bound."""
    names = count() if names is None else names
    if isinstance(f, (Bool, Atom)):
        return f
    if isinstance(f, Not):
        return Not(rebind_apart(f.body, names))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(rebind_apart(p, names) for p in f.parts))
    fresh = f"b{next(names)}"
    return type(f)(fresh, subst_term(rebind_apart(f.body, names), f.var,
                                     LinearTerm.var(fresh)))


@PROPERTY
@given(st.one_of(formulas.map(rebind_apart), sentences,
                 st.integers(0, 2 ** 32 - 1).map(
                     lambda s: random_qf(Random(s), "xyz", allow_div=True))))
def test_parse_inverts_to_text(f):
    assert parse(to_text(f), allow_div=True) == f


@PROPERTY
@given(st.one_of(formulas.map(rebind_apart), sentences), st.integers(0, 2 ** 32 - 1))
def test_parse_reads_tokens_through_any_whitespace(f, seed):
    # to_text's tokens, with one to three of space, tab, carriage return
    # and newline before, between and after them
    rng = Random(seed)
    tokens = ["", *re.findall(r"[()]|[^ ()]+", to_text(f))]
    text = "".join(t + "".join(rng.choices(" \t\r\n", k=rng.randint(1, 3)))
                   for t in tokens)
    assert parse(text, allow_div=True) == f


@PROPERTY
@given(st.integers(0, 2 ** 32 - 1).map(lambda s: random_family(Random(s))))
def test_vc_dimension_at_most_log2_of_distinct_members(fam):
    # shattering k points takes 2^k distinct traces, so 2^k distinct members
    rep = vc_dimension(fam)
    assert not rep.capped
    assert rep.vc_dim <= len(fam.distinct_masks()).bit_length() - 1
