"""Evaluation and quantifier elimination for linear integer formulas.

Evaluation compiles a formula once, by one builder that reads each atom
as a linear form and gives an int over a window of one variable: bit j
is the truth of the formula with that variable at window[j] (intervals,
bits and periodic masks for atoms, bit operations for connectives).  A
point is the one-bit window.  compile_plan makes a test of points over
a fixed variable order, checking free variables, hints and the point
cap at compile time; eval_point, eval_ground, eval_bounded and the other
families use it.  compile_masks takes a quantifier-free formula over a
window of its last variable; vclab.family_from_formula uses it for
quantifier-free bodies with parameters: O(atoms x |ground|) big-int
operations instead of O(atoms x |ground| x window) point tests.  Under
bounded semantics (each quantified variable ranges over its hint
interval) two rules keep the work per point small:

* Equality substitution, at compile time, innermost first (Cooper
  1972): exists v (c*v = t and R) over [lo, hi] becomes
  (div c t) and c*lo <= t <= c*hi and R[c*v := t], also through
  quantifiers over other variables, and skipped when a quantifier in
  the body rebinds v or a variable of t.
* CRT decision, at each point: the conjuncts of an existential that
  are bounds on v narrow its interval, and its div conjuncts meet in
  one residue class by the Chinese remainder theorem (as in Pugh's
  Omega test).  When nothing else mentions v, the first member of that
  progression decides existence in O(atoms); otherwise only the
  progression is scanned.

The point cap refuses upfront when the worst-case nesting product of
interval sizes in the input formula exceeds it, whatever the plan then
saves.

eliminate_quantifiers / decide: exact semantics over all of Z, by
innermost-first elimination.  Both engines read each atom as c*x + rest
through one reader, _linear, and take universals through the dual
(forall x F == not exists x not F; _presolve does it for plans).  Each
existential is removed either by the same equality-substitution shortcut
(when a conjunct pins c*x to a term) or by the classic
divisibility-aware case split: scale the variable's coefficients to a
common delta, add (div delta x), then cover the solution space with
boundary terms plus a periodic tail, instantiating those offsets in 1..D
(D the lcm of all div moduli) that (div delta x) and the top-level div
conjuncts allow, one residue class per boundary term by CRT.  The
boundary set is taken from whichever side (lower or upper bounds) is
smaller.  The body is compiled once into a template: subtrees without
the variable are simplified once and shared; each disjunct rebuilds only
the paths to the variable's atoms, simplified as built by the and/or
join that simplify uses, and the split stops at the first disjunct that
is T.  div atoms appear in the output; the result keeps the input's free
variables, is quantifier-free and is simplified.

Resource caps abort elimination loudly rather than letting the case
split blow up: a maximum output atom count (overridable via the
PAVC_MAX_ATOMS environment variable), checked against the atoms of the
offsets actually planned, and a maximum bit length of the coefficients,
constants and moduli of each step's input and result.  Each cap is one
module-level constant, read when it is enforced.
"""

from __future__ import annotations

import os
from itertools import count
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping

from .formula import (
    DIV, EQ, LE, LT, FALSE, TRUE, ZERO,
    And, Atom, Bool, Exists, Forall, Formula, FormulaError, LinearTerm, Not, Or,
    atoms_of, bitlen, bound_vars, free_vars, is_quantifier_free, mk_and, mk_or,
)

DEFAULT_MAX_ATOMS = 10 ** 6
# below the 4,300 digits (about 14,284 bits) that str() of an int allows
DEFAULT_MAX_COEFF_BITS = 14_000
DEFAULT_MAX_POINTS = 10 ** 8

MAX_ATOMS_ENV = "PAVC_MAX_ATOMS"


class EvalError(ValueError):
    pass


class MissingHintError(EvalError):
    """A quantified variable has no hint interval."""


class ResourceCapError(RuntimeError):
    """An evaluation or elimination would exceed a configured resource cap."""

    def __init__(self, kind: str, limit: int, needed: int):
        super().__init__(f"{kind} cap exceeded: needs {needed}, cap {limit}")
        self.kind = kind
        self.limit = limit
        self.needed = needed


def _enforce(kind: str, limit: int, needed: int) -> None:
    if needed > limit:
        raise ResourceCapError(kind, limit, needed)


def resolve_max_atoms() -> int:
    """The output-atom cap: PAVC_MAX_ATOMS when set, else DEFAULT_MAX_ATOMS."""
    raw = os.environ.get(MAX_ATOMS_ENV)
    if raw is None:
        return DEFAULT_MAX_ATOMS
    try:
        value = int(raw)
    except ValueError as exc:
        raise EvalError(f"bad {MAX_ATOMS_ENV} value {raw!r}") from exc
    if value < 1:
        raise EvalError(f"bad {MAX_ATOMS_ENV} value {raw!r}: must be at least 1")
    return value


def check_points(needed: int) -> None:
    """Refuse (ResourceCapError) to enumerate more than DEFAULT_MAX_POINTS."""
    _enforce("enumeration points", DEFAULT_MAX_POINTS, needed)


def count_atoms(f: Formula) -> int:
    return sum(1 for _ in atoms_of(f))


# ---------------------------------------------------------------------------
# Compiled evaluation


def _conjuncts(f: Formula) -> Iterable[Formula]:
    if isinstance(f, And):
        for p in f.parts:
            yield from _conjuncts(p)
    else:
        yield f


def _worst_case_points(f: Formula, hints: Mapping[str, tuple[int, int]]) -> int:
    if isinstance(f, (Bool, Atom)):
        return 1
    if isinstance(f, Not):
        return _worst_case_points(f.body, hints)
    if isinstance(f, (And, Or)):
        return max(_worst_case_points(p, hints) for p in f.parts)
    if isinstance(f, (Exists, Forall)):
        if f.var not in hints:
            raise MissingHintError(f"no hint interval for {f.var!r}")
        lo, hi = hints[f.var]
        span = max(0, hi - lo + 1)
        return span * _worst_case_points(f.body, hints)
    raise EvalError(f"not a formula: {f!r}")


def _presolve(f: Formula, hints: Mapping[str, tuple[int, int]]) -> Formula:
    """Innermost-first rewrite, exact when every quantified variable ranges
    over its hint interval.

    exists v (c*v = t and R) with hint [lo, hi] becomes
    (div c t) and c*lo <= t <= c*hi and R[c*v := t].  Any other
    existential keeps only the conjuncts that mention v; the rest move
    out of it, where an enclosing existential can use them.  Both steps
    need a nonempty hint; over an empty one the existential is false.
    A universal goes through the dual, forall v F == not exists v not F.
    """
    if isinstance(f, (Bool, Atom)):
        return f
    if isinstance(f, Not):
        return Not(_presolve(f.body, hints))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(_presolve(p, hints) for p in f.parts))
    if isinstance(f, Forall):
        return Not(_presolve(Exists(f.var, Not(f.body)), hints))
    body = _presolve(f.body, hints)
    lo, hi = hints[f.var]
    if lo > hi:
        return FALSE
    shortcut = _equality_shortcut(f.var, body)
    if shortcut is not None:
        c, t, pinned = shortcut
        return mk_and([Atom(LE, LinearTerm.num(c * lo), t),
                       Atom(LE, t, LinearTerm.num(c * hi)), pinned])
    parts = list(_conjuncts(body))
    outside = [p for p in parts if f.var not in free_vars(p)]
    inside = [p for p in parts if f.var in free_vars(p)]
    if not inside:
        return mk_and(outside)
    return mk_and(outside + [Exists(f.var, mk_and(inside))])


_Env = list[int]
_Test = Callable[[_Env], int]


def _linear(a: Atom, var: str | None) -> tuple[int, LinearTerm]:
    """(c, rest) such that `a` reads c*var + rest compared with 0 by its
    kind, or m | c*var + rest for a div atom; c is 0 when var is None.
    The one reader of an atom's linear form, for QE and for plans."""
    g = a.left - a.right
    c = g.coeff(var)
    return c, g.drop(var) if c else g


def _slotted(a: Atom, var: str | None, scope: Mapping[str, int]
             ) -> tuple[int, tuple[tuple[int, int], ...], int]:
    """(c, pairs, k) such that `a` reads c*var + k + the sum of ci*env[i]
    over pairs (i, ci), compared with 0 by its kind.  A strict atom comes
    shifted to <=, since t < 0 iff t + 1 <= 0 over the integers."""
    c, rest = _linear(a, var)
    pairs = tuple((scope[v], ci) for v, ci in rest.coeffs)
    return c, pairs, rest.const + (a.kind == LT)


def _div_solver(a: int, m: int) -> tuple[int, int, int]:
    """(g, n, inv) such that m | a*v + k iff g | k and v = (k/g)*inv mod n."""
    g = gcd(a, m)
    n = m // g
    return g, n, -pow(a // g, -1, n) % n if n > 1 else 0


def _crt(res: int, mod: int, r: int, m: int) -> tuple[int, int] | None:
    """The class v = res (mod mod) met with v = r (mod m) by the Chinese
    remainder theorem, as (residue, modulus); None when they are disjoint."""
    common = gcd(mod, m)
    if (r - res) % common:
        return None
    step = m // common
    return res + mod * ((r - res) // common * pow(mod // common, -1, step)
                        % step), mod * step


def _exists_test(slot: int, lo: int, hi: int, fixed: tuple[_Test, ...],
                 bounds: tuple, divs: tuple, others: tuple[_Test, ...]) -> _Test:
    """exists v in [lo, hi] of (fixed and bounds and divs and others).

    `fixed` does not depend on v.  Each bound (a, pairs, k) reads
    a*v + k <= 0 and each div (g, m, inv, pairs, k) reads
    g | k and v = (k/g)*inv mod m, with k completed from `pairs` at the
    point.  The bounds narrow [lo, hi] and the divs meet in one residue
    class by CRT, so only that progression is scanned, and only when
    `others` (the conjuncts that mention v in any other way) is nonempty;
    without them the first value of the progression decides.
    """
    def test(env: _Env) -> bool:
        for p in fixed:
            if not p(env):
                return False
        low, high = lo, hi
        for a, pairs, k in bounds:
            for i, c in pairs:
                k += c * env[i]
            if a > 0:
                cut = -k // a
                if cut < high:
                    high = cut
            else:
                cut = -(k // a)
                if cut > low:
                    low = cut
            if low > high:
                return False
        res, mod = 0, 1
        for g, m, inv, pairs, k in divs:
            for i, c in pairs:
                k += c * env[i]
            if k % g:
                return False
            merged = _crt(res, mod, k // g * inv % m, m)
            if merged is None:
                return False
            res, mod = merged
        first = low + (res - low) % mod
        if not others:
            return first <= high
        for val in range(first, high + 1, mod):
            env[slot] = val
            for p in others:
                if not p(env):
                    break
            else:
                return True
        return False
    return test


def _checked_vars(f: Formula, variables: Iterable[str]) -> tuple[str, ...]:
    variables = tuple(variables)
    missing = free_vars(f) - set(variables)
    if missing:
        raise EvalError(f"point missing variables: {sorted(missing)}")
    return variables


def _compile(f: Formula, scope: Mapping[str, int],
             hints: Mapping[str, tuple[int, int]], slots: Iterator[int],
             last: str | None = None, window: range = range(1)) -> _Test:
    """Compile `f` into a test of environments, which hold each variable
    at its slot in `scope`.

    The test gives an int whose bit j is the truth of `f` with `last` at
    window[j]; a point is a one-bit window and no `last`.  Existentials
    (the only quantifier left by _presolve) are compiled only for points:
    each takes a fresh slot from `slots` and ranges over its hint interval.
    """
    width = len(window)
    full = (1 << width) - 1
    if isinstance(f, Atom):
        f = _atom_simplified(f)
    if isinstance(f, Bool):
        value = full if f.value else 0
        return lambda env: value
    if isinstance(f, Atom):
        c, pairs, k = _slotted(f, last, scope)
        kind, m = f.kind, f.modulus
        if c == 0:  # one truth over the whole window
            def test(env: _Env) -> int:
                t = k
                for i, ci in pairs:
                    t += ci * env[i]
                if kind == DIV:
                    hit = t % m == 0
                else:
                    hit = t == 0 if kind == EQ else t <= 0
                return full if hit else 0
            return test
        k += c * window.start
        common, n, inv = _div_solver(c, m) if kind == DIV else (1, 1, 0)
        comb, span = 1, n  # bits 0, n, 2n, ... up to width, by doubling
        while kind == DIV and span < width:
            comb, span = comb | comb << span, span << 1

        def mask(env: _Env) -> int:  # bit j: t + c*j <= 0, = 0 or divisible
            t = k
            for i, ci in pairs:
                t += ci * env[i]
            if kind == DIV:  # the comb shifted to the residue of j mod n
                return 0 if t % common else comb << t // common * inv % n & full
            if kind == EQ:
                return 1 << -t // c if t % c == 0 and 0 <= -t // c < width else 0
            if c > 0:  # j <= -t // c
                return full >> width - min(width, max(0, -t // c + 1))
            return full ^ full >> width - min(width, max(0, -(t // c)))  # j >= -(t // c)
        return mask
    if isinstance(f, Not):
        body = _compile(f.body, scope, hints, slots, last, window)
        return lambda env: full ^ body(env)
    if isinstance(f, And):
        parts = tuple(_compile(p, scope, hints, slots, last, window) for p in f.parts)

        def test(env: _Env) -> int:  # stops at 0
            out = full
            for p in parts:
                out &= p(env)
                if not out:
                    return 0
            return out
        return test
    if isinstance(f, Or):
        parts = tuple(_compile(p, scope, hints, slots, last, window) for p in f.parts)

        def test(env: _Env) -> int:  # stops at full
            out = 0
            for p in parts:
                out |= p(env)
                if out == full:
                    return full
            return out
        return test
    if last is not None:
        raise EvalError("mask evaluation needs a quantifier-free formula")
    # every binder gets its own slot, so shadowing needs no restore
    slot = next(slots)
    inner = {**scope, f.var: slot}
    lo, hi = hints[f.var]
    fixed, bounds, divs, others = [], [], [], []
    for part in _conjuncts(f.body):
        if isinstance(part, Atom):
            part = _atom_simplified(part)
        if not isinstance(part, Atom):
            (others if f.var in free_vars(part) else fixed).append(
                _compile(part, inner, hints, slots))
            continue
        a, pairs, k = _slotted(part, f.var, inner)
        if a == 0:
            fixed.append(_compile(part, inner, hints, slots))
        elif part.kind == DIV:
            divs.append((*_div_solver(a, part.modulus), pairs, k))
        elif part.kind == EQ:
            bounds.append((a, pairs, k))
            bounds.append((-a, tuple((i, -c) for i, c in pairs), -k))
        else:
            bounds.append((a, pairs, k))
    return _exists_test(slot, lo, hi, tuple(fixed), tuple(bounds),
                        tuple(divs), tuple(others))


def compile_plan(f: Formula, variables: Iterable[str],
                 hints: Mapping[str, tuple[int, int]] | None = None
                 ) -> Callable[[Iterable[int]], bool]:
    """Compile `f` once into a test of points over `variables`.

    The returned function takes one integer per variable, in order, and
    gives the truth of `f` there, each quantified variable ranging over
    its interval in `hints`.  Raises EvalError when a free variable of f
    is not in `variables`, MissingHintError when a quantified variable
    has no hint, and ResourceCapError when the worst root-to-leaf product
    of interval sizes in f exceeds DEFAULT_MAX_POINTS.
    """
    variables = _checked_vars(f, variables)
    hints = {} if hints is None else hints
    check_points(_worst_case_points(f, hints))
    slots = count(len(variables))
    test = _compile(_presolve(f, hints), {v: i for i, v in enumerate(variables)},
                    hints, slots)
    pad = [0] * (next(slots) - len(variables))

    def plan(values: Iterable[int]) -> bool:
        return bool(test([*values, *pad]))
    return plan


def compile_masks(f: Formula, variables: Iterable[str],
                  window: range) -> Callable[[Iterable[int]], int]:
    """Compile a quantifier-free `f` once into a function from values of
    all but the last of `variables` to an int whose bit k is the truth of
    `f` with the last variable at window[k] (a range of step 1)."""
    *lead, last = _checked_vars(f, variables)
    test = _compile(f, {v: i for i, v in enumerate(lead)}, {}, count(),
                    last, window)
    return lambda values: test(list(values))


def eval_point(f: Formula, env: Mapping[str, int]) -> bool:
    """Evaluate a quantifier-free formula at a point covering its free vars."""
    if not is_quantifier_free(f):
        raise EvalError("formula has quantifiers; use eval_bounded or decide")
    return compile_plan(f, env)(env.values())


def eval_ground(f: Formula) -> bool:
    """Evaluate a variable-free, quantifier-free formula."""
    if free_vars(f):
        raise EvalError(f"formula is not ground: free {sorted(free_vars(f))}")
    return eval_point(f, {})


def eval_bounded(f: Formula, point: Mapping[str, int],
                 hints: Mapping[str, tuple[int, int]]) -> bool:
    """Evaluate with quantifiers ranging over finite hint intervals.

    `point` assigns every free variable; `hints` maps every quantified
    variable to an inclusive interval.  Refuses upfront (ResourceCapError)
    when the worst root-to-leaf product of interval sizes exceeds
    DEFAULT_MAX_POINTS.
    """
    return compile_plan(f, point, hints)(point.values())


# ---------------------------------------------------------------------------
# Simplification


def _atom_simplified(a: Atom) -> Formula:
    if a.kind == DIV:
        if a.modulus == 1:
            return TRUE
        if a.left.is_ground:
            return TRUE if a.left.const % a.modulus == 0 else FALSE
        return a
    if a.left.coeffs != a.right.coeffs:  # canonical, so left - right is not ground
        return a
    g = a.left.const - a.right.const
    if a.kind == LE:
        return TRUE if g <= 0 else FALSE
    if a.kind == LT:
        return TRUE if g < 0 else FALSE
    return TRUE if g == 0 else FALSE


def _negate(b: Formula) -> Formula:
    """simplify(Not(b)) for a `b` that is already simplified."""
    if isinstance(b, Bool):
        return FALSE if b.value else TRUE
    if isinstance(b, Not):
        return b.body
    return Not(b)


def _join(is_and: bool, parts: Iterable[Formula]) -> Formula:
    """simplify(And(parts)) (or Or) for parts that are each already
    simplified.  Parts are drawn one at a time, and none after the first
    absorbing constant."""
    kind = And if is_and else Or
    flat: dict[Formula, None] = {}
    for p in parts:
        if isinstance(p, Bool):
            if p.value != is_and:
                return FALSE if is_and else TRUE
        elif isinstance(p, kind):
            flat.update(dict.fromkeys(p.parts))
        else:
            flat[p] = None
    for p in flat:
        if Not(p) in flat or (isinstance(p, Not) and p.body in flat):
            return FALSE if is_and else TRUE
    if len(flat) < 2:
        return next(iter(flat), TRUE if is_and else FALSE)
    return kind(tuple(flat))


def simplify(f: Formula) -> Formula:
    """Equivalence-preserving cleanup: constant folding, flattening,
    deduplication, double-negation and complementary-literal removal."""
    if isinstance(f, Bool):
        return f
    if isinstance(f, Atom):
        return _atom_simplified(f)
    if isinstance(f, Not):
        return _negate(simplify(f.body))
    if isinstance(f, (And, Or)):
        return _join(isinstance(f, And), map(simplify, f.parts))
    if isinstance(f, (Exists, Forall)):
        b = simplify(f.body)
        return b if f.var not in free_vars(b) else type(f)(f.var, b)
    raise EvalError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Quantifier elimination


def _nnf(f: Formula, var: str, neg: bool = False) -> Formula:
    """Negation normal form; atoms mentioning `var` are normalized so the
    only var-forms left are strict < atoms and (possibly negated) div.
    An atom with `var` on both sides at equal coefficients does not
    really mention it: its < atoms come out as 0 < right - left, so the
    case split sees only atoms with a nonzero effective coefficient."""
    if isinstance(f, Bool):
        return Bool(f.value != neg)
    if isinstance(f, Atom):
        has_var = var in (f.left.vars() | f.right.vars())
        if f.kind == DIV:
            return Not(f) if neg else f
        if not (neg or has_var):
            return f
        cancelled = has_var and _linear(f, var)[0] == 0

        def lt(left: LinearTerm, right: LinearTerm) -> Atom:
            return Atom(LT, ZERO, right - left) if cancelled \
                else Atom(LT, left, right)
        if not neg:
            if f.kind == LE:
                return lt(f.left, f.right.shifted(1))
            if f.kind == EQ:
                return And((lt(f.left, f.right.shifted(1)),
                            lt(f.right, f.left.shifted(1))))
            return lt(f.left, f.right)
        if f.kind == LE:
            return lt(f.right, f.left)
        if f.kind == LT:
            return lt(f.right, f.left.shifted(1))
        return Or((lt(f.left, f.right), lt(f.right, f.left)))
    if isinstance(f, Not):
        return _nnf(f.body, var, not neg)
    if isinstance(f, (And, Or)):
        parts = tuple(_nnf(p, var, neg) for p in f.parts)
        flip = isinstance(f, And) == neg
        return mk_or(parts) if flip else mk_and(parts)
    raise EvalError("quantifier elimination works innermost-first; "
                    f"unexpected node {type(f).__name__}")


def _rewrite_atoms(f: Formula, fn) -> Formula:
    if isinstance(f, Bool):
        return f
    if isinstance(f, Atom):
        return fn(f)
    if isinstance(f, Not):
        return Not(_rewrite_atoms(f.body, fn))
    if isinstance(f, And):
        return And(tuple(_rewrite_atoms(p, fn) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(_rewrite_atoms(p, fn) for p in f.parts))
    if isinstance(f, Exists):  # _presolve has taken universals to the dual
        return Exists(f.var, _rewrite_atoms(f.body, fn))
    raise EvalError(f"unexpected node under rewrite: {type(f).__name__}")


def _equality_shortcut(var: str, body: Formula
                       ) -> tuple[int, LinearTerm, Formula] | None:
    """exists var (c*var = t and R)  ==  (div c t) and R[c*var := t].

    Applies when some top-level conjunct is an equality containing var;
    every other atom is scaled by c (positive, so inequality directions
    survive) and the pinned value substituted, under quantifiers over
    other variables too.  Returns (c, t, right-hand side), or None when
    there is no such equality or a quantifier in body binds var
    (shadowing) or a variable of t (capture).
    """
    conjuncts = list(_conjuncts(body))
    best: tuple[int, int, LinearTerm] | None = None  # (|c|, index, t)
    for idx, part in enumerate(conjuncts):
        if isinstance(part, Atom) and part.kind == EQ:
            c, rest = _linear(part, var)
            if c and (best is None or abs(c) < best[0]):
                best = (abs(c), idx, -rest if c > 0 else rest)
    if best is None:
        return None
    c, chosen, t = best
    if bound_vars(body) & (t.vars() | {var}):
        return None

    def rewrite(a: Atom) -> Formula:
        av, rest = _linear(a, var)
        if av == 0:
            return a
        return Atom(a.kind, rest.scaled(c) + t.scaled(av), ZERO,
                    None if a.modulus is None else a.modulus * c)

    rest_parts = [
        _rewrite_atoms(p, rewrite)
        for i, p in enumerate(conjuncts) if i != chosen
    ]
    return c, t, mk_and([Atom(DIV, t, ZERO, c)] + rest_parts)


def _solved_form(a: Atom, reading: tuple[int, LinearTerm], delta: int):
    """Normalize a var-atom read as (c, rest) after scaling c to delta.

    Returns ('lower', s) for s < delta*var, ('upper', s) for
    delta*var < s, or ('div', m, t) for m | delta*var + t.
    """
    c, rest = reading
    scale = delta // c  # exact, and negative with c
    if a.kind == DIV:
        return ("div", a.modulus * abs(scale), rest.scaled(scale))
    # LT only, by NNF: c*var + rest < 0
    return ("lower" if c < 0 else "upper", rest.scaled(-scale))


def _template(f: Formula, slot: Mapping[Atom, int]):
    """simplify(f) when f holds no atom of `slot`; otherwise a function
    from the simplified instances of the slot atoms, in slot order, to
    simplify(f) with them in place, rebuilt only along paths to them."""
    if isinstance(f, (Bool, Atom)):
        i = slot.get(f)
        return simplify(f) if i is None else lambda leaves: leaves[i]
    if isinstance(f, Not):
        body = _template(f.body, slot)
        return _negate(body) if isinstance(body, Formula) \
            else lambda leaves: _negate(body(leaves))
    is_and = isinstance(f, And)
    parts = [_template(p, slot) for p in f.parts]
    if all(isinstance(p, Formula) for p in parts):
        return _join(is_and, parts)
    parts = [p if callable(p) else (lambda leaves, p=p: p) for p in parts]
    return lambda leaves: _join(is_and, (p(leaves) for p in parts))


def _offsets(witness: LinearTerm | None, congruences: list[tuple[int, LinearTerm]],
             sign: int, period: int) -> range:
    """The j in 1..period for which w = witness + sign*j (witness None is 0)
    can meet every m | w + t of `congruences`: m | u + sign*j, u = w + t,
    forces g | const(u) + sign*j for g = gcd(m, coefficients of u)."""
    res, mod = 0, 1
    for m, t in congruences:
        u = t if witness is None else witness + t
        _, n, inv = _div_solver(sign, gcd(m, *(c for _, c in u.coeffs)))
        merged = _crt(res, mod, u.const * inv % n, n)
        if merged is None:
            return range(0)
        res, mod = merged
    return range(1 + (res - 1) % mod, period + 1, mod)


def _eliminate_exists(var: str, body: Formula, atoms_cap: int) -> Formula:
    """Simplified QF equivalent of exists var body, for a simplified QF body."""
    if var not in free_vars(body):
        return body

    shortcut = _equality_shortcut(var, body)
    if shortcut is not None:
        return simplify(shortcut[2])

    nnf_body = _nnf(body, var)
    readings = {a: r for a in atoms_of(nnf_body) if (r := _linear(a, var))[0]}
    if not readings:
        return simplify(nnf_body)

    delta = lcm(*(abs(c) for c, _ in readings.values()))
    solved = [_solved_form(a, r, delta) for a, r in readings.items()]
    period = delta
    lowers: dict[LinearTerm, None] = {}
    uppers: dict[LinearTerm, None] = {}
    for form in solved:
        if form[0] == "div":
            period = lcm(period, form[1])
        else:
            (lowers if form[0] == "lower" else uppers)[form[1]] = None
    _enforce("coefficient bits", DEFAULT_MAX_COEFF_BITS, max(
        bitlen(delta), *(form[-1].max_coeff_bits() for form in solved),
        *(bitlen(form[1]) for form in solved if form[0] == "div")))

    use_uppers = len(uppers) < len(lowers)
    sign = -1 if use_uppers else 1
    # delta | w and the top-level divs hold in every disjunct that can be T
    top = set(_conjuncts(nnf_body))
    necessary = [(delta, ZERO)] + [form[1:] for a, form in zip(readings, solved)
                                   if form[0] == "div" and a in top]
    plan = [(witness, _offsets(witness, necessary, sign, period))
            for witness in (None, *(uppers if use_uppers else lowers))]
    # counted, not len(): a range longer than 2^63 overflows len()
    offsets = sum(-((s.start - s.stop) // s.step) for _, s in plan)
    _enforce("output atoms", atoms_cap, offsets * (count_atoms(nnf_body) + 1))

    template = _template(nnf_body, {a: i for i, a in enumerate(readings)})
    dropped = "upper" if use_uppers else "lower"

    def instantiate(witness: LinearTerm | None, offset: int) -> Formula:
        """witness=None means the periodic tail below all lower bounds
        (or above all upper bounds when use_uppers)."""
        w = LinearTerm.num(offset) if witness is None else witness.shifted(offset)

        def leaf(form) -> Formula:
            if form[0] == "div":
                return _atom_simplified(Atom(DIV, w + form[2], ZERO, form[1]))
            if witness is None:
                return FALSE if form[0] == dropped else TRUE
            return _atom_simplified(Atom(LT, form[1], w) if form[0] == "lower"
                                    else Atom(LT, w, form[1]))
        return _join(True, (template([leaf(form) for form in solved]),
                            _atom_simplified(Atom(DIV, w, ZERO, delta))))

    return _join(False, (instantiate(witness, sign * j)
                         for witness, steps in plan for j in steps))


def eliminate_quantifiers(f: Formula) -> Formula:
    """Equivalent quantifier-free formula over the same free variables.

    Output may contain div atoms.  Raises ResourceCapError when an
    elimination step would exceed the atom-count cap (DEFAULT_MAX_ATOMS,
    PAVC_MAX_ATOMS overrides) or the coefficient bit cap
    (DEFAULT_MAX_COEFF_BITS), on its input or its result.
    """
    atoms_cap = resolve_max_atoms()

    def walk(g: Formula) -> Formula:
        """simplify of g with its quantifiers eliminated."""
        if isinstance(g, (Bool, Atom)):
            return simplify(g)
        if isinstance(g, Not):
            return _negate(walk(g.body))
        if isinstance(g, (And, Or)):
            return _join(isinstance(g, And), [walk(p) for p in g.parts])
        if isinstance(g, Exists):
            out = _eliminate_exists(g.var, walk(g.body), atoms_cap)
        elif isinstance(g, Forall):  # forall x F == not exists x not F
            out = _negate(_eliminate_exists(g.var, _negate(walk(g.body)), atoms_cap))
        else:
            raise EvalError(f"not a formula: {g!r}")
        _enforce("coefficient bits", DEFAULT_MAX_COEFF_BITS,
                 max((a.max_coeff_bits() for a in atoms_of(out)), default=0))
        return out

    result = walk(f)
    _enforce("output atoms", atoms_cap, count_atoms(result))
    return result


def decide(f: Formula) -> bool:
    """Truth value of a sentence over the integers."""
    if free_vars(f):
        raise EvalError(f"not a sentence: free {sorted(free_vars(f))}")
    return eval_ground(eliminate_quantifiers(f))
