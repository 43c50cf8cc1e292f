"""Evaluation and quantifier elimination for linear integer formulas.

simplify, QE and the bounded plans are one rewriter, _rewrite: it folds
atoms, negations and and/or bottom-up, drawing and/or parts lazily (none
after the first absorbing constant is rewritten), and hands each
quantifier with its rewritten body to a hook.  QE and the plans build
that hook with _dual from an existential step, taking each universal as
forall x F == not exists x not F.  Both steps read each atom as
c*x + rest through one reader, _linear, and both remove an existential
whose body pins c*x to a term t by one equality shortcut (Cooper 1972):
exists x (c*x = t and R) == (div c t) and R[c*x := t], also through
quantifiers over other variables, skipped when a quantifier in the body
rebinds x or a variable of t.

Evaluation compiles a formula once, by one builder that reads each atom
as a linear form and gives an int over a window of one variable: bit j
is the truth of the formula with that variable at window[j] (intervals,
bits and periodic masks for atoms, bit operations for connectives).  A
point is the one-bit window.  compile_plan tests points; compile_masks
takes one range per variable, the box, and gives masks over the last,
the window, running a plan that keeps a quantifier at each window
position.  Both check free variables, hints and the point cap at compile
time, and compile a quantified formula through the bounded plan below.
eval_point, eval_ground and eval_bounded use compile_plan, each vclab
family one compile_masks call, which picks the route: the one-form line
below when it takes the body, else the compiled masks.

A body whose atoms all read through one linear form u, as both
encoders' eliminated bodies do, is a finite union of intervals met with
residue classes of u (the one-variable semilinear sets of Ginsburg and
Spanier 1966).  So is each bounded exists block of the naive encoder:
exists xh yh (u = i + d*xh + d*2^i*yh and bounds) is a base plus
bounded multiples of two periods, one piece per value of the shorter
side.  one_form_line folds the body into those pieces in one walk and
marks each on a byte line over u with one strided slice (mark_lattice,
the lattice kernel the generator's bitmaps share), and each mask is one
strided slice of that line, with no compile per point and without the
compiled route's point cap below: its own cap is the line's marks
against the box's points.

The line's pieces and the offsets that Cooper's case split plans are
ranges with a positive step: _half(a, k, r) cuts r to its members v with
a*v + k <= 0, and _meet(p, q) gives the members common to two, by _crt;
neither takes len(), which fails past 2^63 members.  _offsets meets a
witness's offsets with each congruence's class and cuts them at ground
bounds.  QE's pieces are (lo, hi, res, mod), an end None where open.

Bounded semantics is exact semantics over the hints: exists v over its
hint [lo, hi] is exists v (lo <= v and v <= hi and F).  The plans' step
conjoins those two atoms and walks the body as QE does (_distributed):
the equality shortcut (its atom map turns them into c*lo <= t <= c*hi),
else distribution over an or whose branches pin v by a div or an
equality, one existential per branch, and at each leaf left the
move-out of every conjunct that does not mention v.  Each existential
left is decided at each point: its div conjuncts meet in one residue
class by the Chinese remainder theorem (as in Pugh's Omega test), its
constant bounds, the hint among them, fold into its interval at compile
time and its other bounds narrow it.  When nothing else mentions v, the
first member of that progression decides existence in O(atoms);
otherwise only the progression is scanned.  A div m | a*v + t fails at
once where gcd(a, m) does not divide t (the Omega test's
normalization).  Distribution is what puts a branch's div at the top
of its existential, where that check and CRT see it: the bridged
encoder's s, whose div sits in each spread branch, is then fixed per
branch instead of scanned over its hint.  On this compiled route the
point cap refuses upfront when the worst-case nesting product of
interval sizes in the input formula exceeds it, whatever the plan then
saves.

eliminate_quantifiers / decide: exact semantics over all of Z, by
innermost-first elimination.  An existential is removed by the equality
shortcut, by distributing it over an or whose branches pin the variable
by a div or an equality (exists distributes over or), one existential
per branch, or by the classic divisibility-aware case split: scale
the variable's coefficients to a common delta, add (div delta x), then
cover the solution space with boundary terms plus a periodic tail,
instantiating those offsets in 1..D (D the lcm of all div moduli) that
(div delta x) and the top-level div conjuncts allow, one residue class
per boundary term by CRT, from whichever side (lower or upper bounds) is
smaller.  Each class is then cut to the interval that the top-level
bounds with a ground gap to its term allow (a bound with the term's
coefficients folds to a constant, F outside that interval), and the
tail goes when a top-level bound lies on the boundary terms' side.  A
flat conjunction of atoms that all read through one form f besides the
variable, as at both encoders' last steps, meets each instance into one
piece of f (an interval met with a class, either end maybe open) by
integer arithmetic, each div solved once per boundary term; an empty
piece yields nothing.  The pieces stay data until the step ends: each
form's are then unioned once (those of one class that overlap or touch
merged, by the merge of one_form_line's line, and each that another
contains dropped), and only the kept ones are built.  Any other body
becomes a template: subtrees without the variable are simplified once
and shared, and each disjunct rebuilds only the paths to the variable's
atoms.  The split stops at the first disjunct that is T.  div atoms
appear in the output; the result keeps the input's free variables, is
quantifier-free and is simplified.

Resource caps abort elimination loudly rather than letting the case
split blow up: a maximum output atom count, counted as each leaf of a
distributed existential arrives (the plans' leaves too; a piece by
arithmetic, before the union), and checked first against the case
split's instance count, the sum of its cut classes, before any instance
is built; and a maximum bit length of the coefficients, constants and
moduli of each step's input and result (a kept piece's by arithmetic).
Each cap is one module-level constant, read when it is enforced.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, count
from math import gcd, lcm, prod
from operator import mul
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .formula import (
    DIV, EQ, LE, LT, FALSE, TRUE, ZERO,
    And, Atom, Bool, Exists, Forall, Formula, LinearTerm, Not, Or,
    atoms_of, bitlen, bound_vars, free_vars, is_quantifier_free, mk_and, mk_or,
)

DEFAULT_MAX_ATOMS = 10 ** 6
# below the 4,300 digits (about 14,284 bits) that str() of an int allows
DEFAULT_MAX_COEFF_BITS = 14_000
DEFAULT_MAX_POINTS = 10 ** 8


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


def _bounded_step(hints: Mapping[str, tuple[int, int]]
                  ) -> Callable[[str, Formula], Formula]:
    """The plans' existential step, exact over the hints: exists v over
    its hint [lo, hi] is exists v (lo <= v and v <= hi and F), taken
    through QE's walker, _distributed, with _move_out at its leaves."""
    def step(var: str, body: Formula) -> Formula:
        lo, hi = hints[var]
        v = LinearTerm.var(var)
        body = _join(True, (Atom(LE, LinearTerm.num(lo), v),
                            Atom(LE, v, LinearTerm.num(hi)), body))
        return _distributed(var, body, _move_out)
    return step


def _move_out(var: str, body: Formula) -> Iterator[Formula]:
    """The plans' leaf step, one disjunct: the conjuncts of body without
    var move out of exists var, where an enclosing existential can use
    them."""
    outside, inside = [], []
    for p in _conjuncts(body):
        mentions = p.left.coeff(var) or p.right.coeff(var) \
            if isinstance(p, Atom) else var in free_vars(p)
        (inside if mentions else outside).append(p)
    yield _join(True, (*outside, Exists(var, mk_and(inside))))


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
    if mod == 1:
        return r % m, m
    if m == 1:
        return res, mod
    common = gcd(mod, m)
    if (r - res) % common:
        return None
    step = m // common
    return res + mod * ((r - res) // common * pow(mod // common, -1, step)
                        % step), mod * step


def _half(a: int, k: int, r: range) -> range:
    """The members v of r (step positive) with a*v + k <= 0, for a != 0,
    as a slice of r.  No len(): a range past 2^63 members overflows it."""
    if a > 0:  # v <= -k // a: the first n members
        n = (-k // a - r.start) // r.step + 1
        return r[:n if n > 0 else 0]
    n = -((r.start + k // a) // r.step)  # v >= -(k // a): all but the first n
    return r[n if n > 0 else 0:]


def _meet(p: range, q: range) -> range:
    """The common members of two progressions (steps positive), by _crt."""
    cls = _crt(p.start, p.step, q.start, q.step)
    if cls is None:
        return range(0)
    res, mod = cls
    lo = p.start if p.start > q.start else q.start  # max and min cost a call
    return range(lo + (res - lo) % mod, p.stop if p.stop < q.stop else q.stop, mod)


_BELOW = float("-inf")  # an open lower end, where ends are compared


def _merged(pieces: Iterable[tuple]) -> list[tuple]:
    """Pieces (lo, hi, res, mod), each the members of the class res mod
    mod (0 <= res < mod) in [lo, hi], its ends members or None where
    open, sorted by class and then by lo, those of one class that overlap
    or touch merged into one."""
    out: list[tuple] = []
    for p in sorted(pieces, key=lambda p: (p[3], p[2], _BELOW if p[0] is None else p[0])):
        if out:
            lo, hi, res, mod = out[-1]
            if p[3] == mod and p[2] == res and (hi is None or p[0] is None
                                                or p[0] <= hi + mod):
                if hi is not None and (p[1] is None or p[1] > hi):
                    out[-1] = (lo, p[1], res, mod)
                continue
        out.append(p)
    return out


def _exists_test(slot: int, lo: int, hi: int, bounds: tuple, divs: tuple,
                 others: tuple[_Test, ...]) -> _Test:
    """exists v in [lo, hi] of (bounds and divs and others).

    Each div (g, m, inv, pairs, k) reads g | k and v = (k/g)*inv mod m and
    each bound (a, pairs, k) reads a*v + k <= 0, with k completed from
    `pairs` at the point.  The divs meet first in one residue class by
    CRT, the bounds then narrow [lo, hi], and only that progression is
    scanned, only when `others` (every other conjunct) is nonempty;
    without them the first value of the progression decides.
    """
    # inline, as in _piece: one solver shared by both slowed bridged QE by half
    def test(env: _Env) -> bool:
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


def _compile(f: Formula, scope: Mapping[str, int], slots: Iterator[int],
             last: str | None = None, window: range = range(1)) -> _Test:
    """Compile `f` into a test of environments, which hold each variable
    at its slot in `scope`.

    The test gives an int whose bit j is the truth of a quantifier-free
    `f` with `last` at window[j]; a point is a one-bit window and no
    `last`.  Existentials, the only quantifier _bounded_step leaves, take
    fresh slots from `slots`, fold their constant bounds into their
    interval here and give their point test.
    """
    width = len(window)
    full = (1 << width) - 1
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
        body = _compile(f.body, scope, slots, last, window)
        return lambda env: full ^ body(env)
    if isinstance(f, And):
        parts = tuple(_compile(p, scope, slots, last, window) for p in f.parts)

        def test(env: _Env) -> int:  # stops at 0
            out = full
            for p in parts:
                out &= p(env)
                if not out:
                    return 0
            return out
        return test
    if isinstance(f, Or):
        parts = tuple(_compile(p, scope, slots, last, window) for p in f.parts)

        def test(env: _Env) -> int:  # stops at full
            out = 0
            for p in parts:
                out |= p(env)
                if out == full:
                    return full
            return out
        return test
    # every binder gets its own slot, so shadowing needs no restore
    slot = next(slots)
    inner = {**scope, f.var: slot}
    bounds, divs, others = [], [], []
    for part in _conjuncts(f.body):
        a, pairs, k = _slotted(part, f.var, inner) if isinstance(part, Atom) \
            else (0, (), 0)
        if a == 0:  # not an atom on v
            others.append(_compile(part, inner, slots))
        elif part.kind == DIV:
            divs.append((*_div_solver(a, part.modulus), pairs, k))
        else:
            bounds.append((a, pairs, k))
            if part.kind == EQ:
                bounds.append((-a, tuple((i, -c) for i, c in pairs), -k))
    lo = max(-(k // a) for a, pairs, k in bounds if a < 0 and not pairs)
    hi = min(-k // a for a, pairs, k in bounds if a > 0 and not pairs)
    return _exists_test(slot, lo, hi, tuple(b for b in bounds if b[1]),
                        tuple(divs), tuple(others))


def _compiled(f: Formula, variables: Iterable[str], hints: Mapping | None,
              ranges: Sequence[range] | None = None
              ) -> Callable[[Iterable[int]], int]:
    """compile_plan, or compile_masks when `ranges` is given."""
    variables = tuple(variables)
    if ranges is not None:
        try:
            return one_form_line(f, variables, ranges, hints)
        except NotOneForm:
            pass
    missing = free_vars(f) - set(variables)
    if missing:
        raise EvalError(f"point missing variables: {sorted(missing)}")
    if not is_quantifier_free(f):  # the plan rewrite would only re-simplify a QF f
        check_points(_worst_case_points(f, hints or {}))
        f = _rewrite(f, _dual(_bounded_step(hints or {})))
    slots = count(len(variables))
    last = None if ranges is None or not is_quantifier_free(f) else variables[-1]
    test = _compile(f, {v: i for i, v in enumerate(variables)}, slots, last,
                    range(1) if last is None else ranges[-1])
    pad = [0] * (next(slots) - len(variables) + (ranges is not None))
    if ranges is None or last is not None:
        return lambda values: test([*values, *pad])

    def mask(values: Iterable[int]) -> int:  # the plan at each window position
        env, digits, at = [*values, *pad], bytearray(b"0"), len(variables) - 1
        for env[at] in reversed(ranges[-1]):  # int() reads bit 0 last
            digits.append(48 + test(env))  # "0" or "1"
        return int(digits, 2)
    return mask


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
    test = _compiled(f, variables, hints)
    return lambda values: bool(test(values))


def compile_masks(f: Formula, variables: Iterable[str], ranges: Sequence[range],
                  hints: Mapping[str, tuple[int, int]] | None = None
                  ) -> Callable[[Iterable[int]], int]:
    """Compile `f` once into a function from values of all but the last
    of `variables` to an int whose bit k is the truth of `f` with the last
    variable at ranges[-1][k].  `ranges`, one range of step 1 per variable,
    is the box the values come from.  It picks the route: a body that
    one_form_line takes, its bounded exists blocks over `hints`, is read
    off its byte line over the box; any other is compiled, quantifiers
    over `hints`, with compile_plan's errors and point cap (bit by bit
    if its plan keeps a quantifier).  Raises MissingHintError from either
    route when a quantified variable that the route reads has no hint."""
    return _compiled(f, variables, hints, ranges)


class NotOneForm(EvalError):
    """one_form_line leaves this body to compile_masks; the message says why."""


def mark_lattice(buf: bytearray, base: int, p: int, m: int, q: int,
                 n: int) -> bytearray:
    """Set byte base + a*p + b*q of buf for a < m, b < n (base >= 0 and
    p, q >= 1), growing buf as needed: one strided slice per step of the
    shorter side, so the inner loop runs in C."""
    if m > n:
        p, m, q, n = q, n, p, m
    buf.extend(bytes(max(0, base + p * (m - 1) + q * (n - 1) + 1 - len(buf))))
    ones = b"\x01" * n
    for a in range(base, base + p * m, p):
        buf[a:a + q * (n - 1) + 1:q] = ones
    return buf


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _block(g: Formula, neg: bool, hints: Mapping[str, tuple[int, int]]
           ) -> tuple[tuple, int, tuple[tuple[int, range], ...]]:
    """(box, c, sides) of a positive exists block over one or two distinct
    variables v whose body is box + c + sum a*v = 0, box its coefficients
    on the other variables, and constant bounds on single v: one (a, side)
    per v, its hint range cut by _half at its bounds.  NotOneForm names the
    shape it is not; MissingHintError when only a hint is missing."""
    if neg or isinstance(g, Forall):
        raise NotOneForm("a forall or a negated exists")
    names: list[str] = []
    while isinstance(g, Exists) and g.var not in names:
        if len(names) == 2:
            raise NotOneForm("an exists block of more than two variables")
        names.append(g.var)
        g = g.body
    shape = NotOneForm("a block body other than one equality and bounds")
    equality, bounds = None, []
    for part in _conjuncts(g):
        kind = part.kind if isinstance(part, Atom) else None
        vector = part.left - part.right if kind else ZERO
        inner = [(v, a) for v, a in vector.coeffs if v in names]
        if kind in (LE, LT) and len(inner) == len(vector.coeffs) == 1:
            bounds.append((*inner[0], vector.const + (kind == LT)))
        elif kind == EQ and equality is None and inner != list(vector.coeffs):
            equality = vector
        else:
            raise shape
    if equality is None:
        raise shape
    missing = [v for v in names if v not in hints]
    if missing:
        raise MissingHintError(f"no hint interval for {missing[0]!r}")
    box = tuple((v, a) for v, a in equality.coeffs if v not in names)
    sides = []
    for v in names:
        side = range(hints[v][0], hints[v][1] + 1)
        for u, a, k in bounds:  # a*v + k <= 0
            if u == v:
                side = _half(a, k, side)
        sides.append((equality.coeff(v), side))
    return box, equality.const, tuple(sides)


def one_form_line(f: Formula, variables: Sequence[str], ranges: Sequence[range],
                  hints: Mapping[str, tuple[int, int]] | None = None
                  ) -> Callable[[Iterable[int]], int]:
    """compile_masks' route for an `f` decided once on a byte line over one
    linear form u = sum of form[i]*variables[i], each variable over its
    range; the last, the object, is the window.

    The form is primitive and positive on the object; every atom's
    coefficient vector must be a multiple k*form.  Such an f is a union of
    pieces, each an interval of u met with a residue class, a range over
    the line of u: an order atom gives a half-line by _half (negated, the
    other one), an equality a point (negated, two half-lines), a div a
    class by _div_solver.  A positive exists block of one or two
    variables v_j whose body is one equality k*u + c + sum a_j*v_j = 0,
    k = +-1 on its box part, plus constant bounds on single v_j, each v_j
    also within its hint, is a bounded linear set u = base + a*p + b*q,
    a < m, b < n (Ginsburg and Spanier 1966): one piece per a, the
    shorter side, met with the line.  An or joins its parts' pieces, an
    and meets them pairwise by _meet, and each piece is marked with one
    strided slice (mark_lattice).  The member function returned is
    compile_masks': the objects of a parameter point sit at one strided
    slice of the line, and on the reversed line that slice reads, largest
    object first, as the mask's base-2 digits.

    Raises NotOneForm, before building the line, when an atom (of a
    block, its equality) has coefficient 0 on the object, reads a
    variable outside `variables` or reads through a second form; when a
    div is negated, a range of the box is empty or the u-range is longer
    than the box; when the pieces' marks, the sum of their lengths once
    pieces of one class that overlap or touch are merged, or one block's
    rows or one and's meets outnumber the box's points, which keeps the
    line's cost linear in the box; and for a forall or a negated exists,
    a block of more than two variables, a block body other than one
    equality and constant bounds on single variables, or a block equality
    whose u-coefficient is not +-1.  Every part is read, also after an
    and's meet is empty.  Raises MissingHintError when a variable of a
    block it otherwise takes, in any part, has no hint in `hints`.
    """
    obj = variables[-1]
    hints = hints or {}

    # the form: the box part of the first atom or block met depth first
    def first(g: Formula, neg: bool) -> tuple | None:
        if isinstance(g, Atom):
            return (g.left - g.right).coeffs
        if isinstance(g, (Exists, Forall)):
            return _block(g, neg, hints)[0]
        if isinstance(g, Not):
            return first(g.body, not neg)
        if isinstance(g, (And, Or)):
            for p in g.parts:
                if (form := first(p, neg)) is not None:
                    return form
        return None
    form = first(f, False) or ()
    coeffs = dict(form)
    if coeffs.get(obj, 0) == 0:
        raise NotOneForm("an atom has object coefficient 0")
    if coeffs.keys() - set(variables):
        raise NotOneForm("an atom reads a variable outside the box")
    k = gcd(*coeffs.values()) * (1 if coeffs[obj] > 0 else -1)
    form = tuple((v, c // k) for v, c in form)
    form_vec = tuple(coeffs.get(v, 0) // k for v in variables)
    if not all(ranges):  # r[0] and r[-1] below need every range nonempty
        raise NotOneForm("an empty box")
    start = sum(min(c * r[0], c * r[-1]) for c, r in zip(form_vec, ranges))
    stop = sum(max(c * r[0], c * r[-1]) for c, r in zip(form_vec, ranges)) + 1
    points = prod(map(len, ranges))
    if stop - start > points:
        raise NotOneForm("the u-range is longer than the box")
    line = range(start, stop)
    scales: dict[tuple, int] = {}

    def work(n: int) -> None:  # one block's rows or one and's meets
        if n > points:
            raise NotOneForm("more rows or meets than box points")

    def scale(vector: tuple) -> int:  # k such that vector is k*form
        k = dict(vector).get(obj, 0)
        if k == 0:
            raise NotOneForm("an atom has object coefficient 0")
        k //= form_vec[-1]
        if vector != tuple((v, k * c) for v, c in form):
            raise NotOneForm("atoms read through a second form")
        return k

    def rows(box: tuple, c: int, sides: tuple) -> list[range]:
        """The block's pieces: u = -k*(c + sum a*v), each v over its side."""
        k = scale(box)
        if k not in (1, -1):
            raise NotOneForm("a block equality's u-coefficient is not +-1")
        base, steps = -k * c, [(1, 1), (1, 1)]
        for a, side in sides:
            if not side:
                return []
            step = -k * a  # u = base + step*v, v = side[0] + b or side[-1] - b
            base += step * (side[0] if step > 0 else side[-1])
            if step:  # not len(side): a hint range may pass 2^63 members
                steps.append((abs(step), side[-1] - side[0] + 1))
        # u = base + a*p + b*q, a < m, b < n, m <= n; row a met with the line
        (p, m), (q, n) = sorted(steps, key=lambda s: s[1])[-2:]
        top = q * (n - 1)
        first = max(0, -((base + top - start) // p))
        last = min(m, (stop - 1 - base) // p + 1)
        work(last - first)
        return [row for lo in range(base + first * p, base + last * p, p)
                if (row := _meet(range(lo, lo + top + 1, q), line))]

    def walk(g: Formula, neg: bool) -> list[range]:
        """g's pieces, nonempty ranges within the line; `not g` if neg."""
        if isinstance(g, Atom):
            key = g.left.coeffs, g.right.coeffs
            k = scales.get(key)
            if k is None:
                k = scales[key] = scale((g.left - g.right).coeffs)
            c = g.left.const - g.right.const
            if g.kind == DIV:
                if neg:
                    raise NotOneForm("a negated div")
                common, n, inv = _div_solver(k, g.modulus)
                # the class's members on the line, from its first one
                piece = None if c % common else line[(c // common * inv - start) % n::n]
            elif g.kind != EQ:
                c += g.kind == LT
                piece = _half(-k, 1 - c, line) if neg else _half(k, c, line)
            elif neg:  # two half-lines
                return [p for p in (_half(k, c + 1, line), _half(-k, 1 - c, line)) if p]
            else:  # k*u + c <= 0 and -k*u - c <= 0
                piece = _half(-k, -c, _half(k, c, line))
            return [piece] if piece else []
        if isinstance(g, (And, Or)):
            out = walk(g.parts[0], neg)
            join = isinstance(g, Or) != neg
            for part in g.parts[1:]:
                pieces = walk(part, neg)
                if join:
                    out += pieces
                else:
                    work(len(out) * len(pieces))
                    out = [m for p in out for q in pieces if (m := _meet(p, q))]
            return out
        if isinstance(g, Not):
            return walk(g.body, not neg)
        if isinstance(g, (Exists, Forall)):
            return rows(*_block(g, neg, hints))
        return [line] if g.value != neg else []  # a Bool

    # pieces of one class that overlap or touch are merged, so that the
    # marks cap counts each mark once
    pieces = [(lo - start, (hi - lo) // mod + 1, mod) for lo, hi, _, mod in
              _merged((p.start, p[-1], p.start % p.step, p.step) for p in walk(f, False))]
    if sum(n for _, n, _ in pieces) > points:
        raise NotOneForm("more marks than box points")
    marks = bytearray(stop - start)
    for base, n, mod in pieces:
        mark_lattice(marks, base, 1, 1, mod, n)
    *params, a = form_vec
    digits = marks[::-1].translate(_DIGITS)
    top = stop - 1 - a * ranges[-1][-1]  # its index at parameters 0
    span = a * (len(ranges[-1]) - 1) + 1

    def member(values: Iterable[int]) -> int:
        i = top - sum(map(mul, params, values))
        return int(digits[i:i + span:a], 2)
    return member


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
    if any(isinstance(p, Not) and p.body in flat for p in flat):
        return FALSE if is_and else TRUE
    if len(flat) < 2:
        return next(iter(flat), TRUE if is_and else FALSE)
    return kind(tuple(flat))


def _rewrite(f: Formula, quantifier: Callable[[Formula, Formula], Formula]
             ) -> Formula:
    """simplify(f) with each quantifier node g replaced by quantifier(g, b),
    b the rewritten body.  And/or parts are rewritten lazily, so none after
    the first absorbing constant is."""
    def walk(g: Formula) -> Formula:
        if isinstance(g, Bool):
            return g
        if isinstance(g, Atom):
            return _atom_simplified(g)
        if isinstance(g, Not):
            return _negate(walk(g.body))
        if isinstance(g, (And, Or)):
            return _join(isinstance(g, And), map(walk, g.parts))
        if isinstance(g, (Exists, Forall)):
            return quantifier(g, walk(g.body))
        raise EvalError(f"not a formula: {g!r}")
    return walk(f)


def _dual(step: Callable[[str, Formula], Formula]
          ) -> Callable[[Formula, Formula], Formula]:
    """The _rewrite hook that takes each existential through `step` (its
    variable and rewritten body) and each universal through the dual,
    forall x F == not exists x not F."""
    def quantifier(g: Formula, body: Formula) -> Formula:
        if isinstance(g, Exists):
            return step(g.var, body)
        return _negate(step(g.var, _negate(body)))
    return quantifier


def simplify(f: Formula) -> Formula:
    """Equivalence-preserving cleanup: constant folding, flattening,
    deduplication, double-negation and complementary-literal removal."""
    return _rewrite(f, lambda g, b: b if g.var not in free_vars(b)
                    else type(g)(g.var, b))


# ---------------------------------------------------------------------------
# Quantifier elimination


def _nnf(f: Formula, var: str, neg: bool = False) -> Formula:
    """Negation normal form; atoms mentioning `var` are normalized so the
    only var-forms left are strict < atoms and (possibly negated) div.
    An atom with `var` on both sides at equal coefficients does not
    really mention it: its < atoms come out as 0 < right - left, so the
    case split sees only atoms with a nonzero effective coefficient."""
    if isinstance(f, Atom):
        if f.kind == DIV:
            return Not(f) if neg else f
        on_left, on_right = f.left.coeff(var), f.right.coeff(var)
        if not (neg or on_left or on_right):
            return f
        cancelled = on_left == on_right != 0

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


def _equality_shortcut(var: str, body: Formula) -> Formula | None:
    """exists var (c*var = t and R)  ==  (div c t) and R[c*var := t].

    Applies when some top-level conjunct is an equality containing var;
    every other atom is scaled by c (positive, so inequality directions
    survive) and the pinned value substituted, under quantifiers over
    other variables too.  Returns the right-hand side, simplified, or None
    when there is no such equality or a quantifier in body binds var
    (shadowing) or a variable of t (capture).
    The body is simplified already, so the build rebuilds only the paths
    to atoms that name var and keeps every other subtree as it is.
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

    # path-only: simplify(map_atoms(...)) of the body took a third longer on fuzz QE
    def rewrite(f: Formula) -> Formula:  # simplify(f with c*var := t)
        if isinstance(f, Atom):
            if not (f.left.coeff(var) or f.right.coeff(var)):
                return f
            av, rest = _linear(f, var)
            return _atom_simplified(Atom(f.kind, rest.scaled(c) + t.scaled(av), ZERO,
                                         None if f.modulus is None else f.modulus * c))
        if var not in free_vars(f):
            return f
        if isinstance(f, Not):
            return _negate(rewrite(f.body))
        if isinstance(f, (And, Or)):
            return _join(isinstance(f, And), map(rewrite, f.parts))
        inner = rewrite(f.body)  # a quantifier over another variable
        return type(f)(f.var, inner) if f.var in free_vars(inner) else inner

    return _join(True, chain(
        (_atom_simplified(Atom(DIV, t, ZERO, c)),),
        (rewrite(p) for i, p in enumerate(conjuncts) if i != chosen)))


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
             bounds: list[tuple[str, LinearTerm]], side: str, period: int) -> range:
    """The j in 1..period at which w = witness + sign*j (witness None is 0)
    can make an instance T; `side` is the witnesses' side, and sign is +1
    for "lower" witnesses, -1 for "upper".  The output-atom cap counts them.

    Each m | w + t of `congruences`, u = w + t, forces g | const(u) +
    sign*j for g = gcd(m, coefficients of u): a class met by _meet.  Only
    top-level divs can be congruences, which is why _leaves first
    distributes over an or whose branches hold divs.  Each top-level bound
    (b, s) of `bounds`, b "lower" for s < delta*x and "upper" for
    delta*x < s, whose gap to the witness is ground (s has the witness's
    coefficients) cuts by _half: one on the witnesses' side needs
    j > sign*(const(s) - const(w)), one on the other side j < that; any
    other j makes that leaf F, and with it the instance.  The periodic
    tail (witness None) sits past every bound of the witnesses' side, so
    one such bound rules it out."""
    if witness is None and any(b == side for b, _ in bounds):
        return range(0)
    sign = 1 if side == "lower" else -1
    steps = range(1, period + 1)
    for m, t in congruences:
        u = t if witness is None else witness + t
        _, n, inv = _div_solver(sign, gcd(m, *(c for _, c in u.coeffs)))
        steps = _meet(steps, range(u.const * inv % n, period + 1, n))
    for b, s in () if witness is None else bounds:
        if s.coeffs == witness.coeffs:
            gap = sign * (s.const - witness.const)
            steps = _half(-1, gap + 1, steps) if b == side else _half(1, 1 - gap, steps)
    return steps


def _multiple(t: LinearTerm, f: LinearTerm) -> int | None:
    """k such that t's coefficients are k times f's, else None."""
    if not t.coeffs:
        return 0
    k = t.coeffs[0][1] // f.coeffs[0][1]
    return k if t.coeffs == tuple((v, k * c) for v, c in f.coeffs) else None


def _one_form(terms: list[LinearTerm]) -> tuple[LinearTerm, list[int]] | None:
    """(f, ks): one primitive form f, its first coefficient positive, and
    each term's k, its coefficients k times f's; f has no coefficients
    when every term is ground.  None when the terms read through no one
    form."""
    lead = next((t.coeffs for t in terms if t.coeffs), ())
    g = gcd(*(c for _, c in lead)) * (-1 if lead and lead[0][1] < 0 else 1)
    f = LinearTerm(tuple((v, c // g) for v, c in lead))
    ks = []
    for t in terms:
        k = _multiple(t, f)
        if k is None:
            return None
        ks.append(k)
    return f, ks


def _at_witness(constraints: list[tuple], kw: int, cw: int) -> list[tuple]:
    """`constraints`, each (m, s, k, c) reading m | k*f + c + s*w, or
    k*f + c + s*w <= 0 when m is None, at the witnesses w = kw*f + cw + o:
    each as (div, k', c', s) reading k'*f + c' + s*o, with a div solved
    once by _div_solver into div = (g, n, inv) (None for a bound), since
    only the offset o moves a constant."""
    return [(m and _div_solver(k + s * kw, m), k + s * kw, c + s * cw, s)
            for m, s, k, c in constraints]


def _piece(constraints: list[tuple], o: int) -> tuple | None:
    """The conjunction of `constraints` (_at_witness) at the offset o as
    one piece (lo, hi, res, mod) of their form f, exact over Z: the
    members of the class res mod mod in [lo, hi], an end None where no
    bound cuts it; a point is (c, c, 0, 1) and T is (None, None, 0, 1).
    None when the piece is empty.  The bounds cut by floor division and
    the divs meet in one class by _crt, as in _exists_test."""
    # inline, as in _exists_test: one solver shared by both slowed bridged QE by half
    lo = hi = None
    res, mod = 0, 1
    for div, k, c, s in constraints:
        c += s * o
        if div:
            g, n, inv = div
            cls = None if c % g else _crt(res, mod, c // g * inv % n, n)
            if cls is None:
                return None
            res, mod = cls
        elif k > 0:
            cut = -c // k
            hi = cut if hi is None or cut < hi else hi
        elif k < 0:
            cut = -(c // k)
            lo = cut if lo is None or cut > lo else lo
        elif c > 0:
            return None
    lo = None if lo is None else lo + (res - lo) % mod
    hi = None if hi is None else hi - (hi - res) % mod
    if lo is not None and hi is not None and lo >= hi:
        return None if lo > hi else (lo, lo, 0, 1)
    return lo, hi, res, mod


def _built(f: LinearTerm, piece: tuple) -> Formula:
    """The piece (lo, hi, res, mod) of f as a formula: a point as one
    equality, else at most two bounds and one div (T if none)."""
    lo, hi, res, mod = piece
    if lo == hi is not None:
        return Atom(EQ, f, LinearTerm.num(lo))
    parts = [] if lo is None else [Atom(LE, LinearTerm.num(lo), f)]
    if hi is not None:
        parts.append(Atom(LE, f, LinearTerm.num(hi)))
    if mod > 1:
        parts.append(Atom(DIV, f.shifted(-res), ZERO, mod))
    return mk_and(parts)


def _size(piece: tuple) -> int:
    """count_atoms(_built(f, piece)), by arithmetic."""
    lo, hi, _, mod = piece
    return 1 if lo == hi is not None else (lo is not None) + (hi is not None) + (mod > 1)


def _bits(top: int, piece: tuple) -> int:
    """The largest max_coeff_bits of the atoms of _built(f, piece), by
    arithmetic (res < mod); `top` is the largest |coefficient| of f."""
    lo, hi, _, mod = piece
    return bitlen(max(top, mod, 0 if lo is None else abs(lo), 0 if hi is None else abs(hi)))


def _union(pieces: Iterable[tuple]) -> list[tuple]:
    """The pieces (lo, hi, res, mod) of one form, _merged, less each that
    another contains.  A piece of two or more members lies in another
    only if the other's modulus divides its own (a point's: any modulus)
    and its class holds the piece's; that class's merged pieces are
    disjoint and sorted, so one bisect of their lo's finds the only one
    that can hold it."""
    merged = _merged(pieces)
    classes: dict[tuple[int, int], tuple[list, list]] = {}
    for p in merged:
        los, his = classes.setdefault((p[3], p[2]), ([], []))
        los.append(_BELOW if p[0] is None else p[0])
        his.append(p[1])
    moduli = sorted({mod for mod, _ in classes})
    kept = []
    for p in merged:
        lo, hi, res, mod = p
        point = lo == hi is not None
        for m in moduli:
            if m == mod or mod % m and not point:
                continue
            cls = classes.get((m, (res if lo is None else lo) % m))
            if cls:
                i = bisect_right(cls[0], _BELOW if lo is None else lo) - 1
                if i >= 0 and (cls[1][i] is None or hi is not None and hi <= cls[1][i]):
                    break
        else:
            kept.append(p)
    return kept


_Leaf = Formula | tuple  # a step's leaf: a formula, or (f, piece) of a form f


def _case_split(var: str, body: Formula) -> Iterator[_Leaf]:
    """The disjuncts of Cooper's case split for exists var body, built
    lazily, one instance per offset that _offsets plans: the instances it
    leaves out are F at a congruence or a top-level bound, so the output
    is the same.  Before any is built, the coefficient-bit cap checks the
    solved forms and the output-atom cap the count of instances.

    A flat conjunction of atoms whose terms besides var's part read
    through one form f (_one_form) meets each instance into one piece of
    f (_piece), yielded as (f, piece) and left as data for _distributed
    to union; an empty one yields nothing.  Any other body rebuilds each
    instance from its template."""
    nnf_body = _nnf(body, var)
    readings = {a: _linear(a, var) for a in atoms_of(nnf_body)
                if a.left.coeff(var) != a.right.coeff(var)}
    if not readings:
        yield simplify(nnf_body)
        return

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
    dropped = "upper" if use_uppers else "lower"
    # delta | w and the top-level divs and bounds hold in every disjunct
    # that can be T
    conjuncts = list(_conjuncts(nnf_body))
    top = set(conjuncts)
    necessary = [(delta, ZERO)] + [form[1:] for a, form in zip(readings, solved)
                                   if form[0] == "div" and a in top]
    bounds = [form for a, form in zip(readings, solved)
              if form[0] != "div" and a in top]
    plan = [(witness, _offsets(witness, necessary, bounds, dropped, period))
            for witness in (None, *(uppers if use_uppers else lowers))]
    # counted, not len(): a range longer than 2^63 overflows len()
    _enforce("output atoms", DEFAULT_MAX_ATOMS,
             sum(max(0, -((s.start - s.stop) // s.step)) for _, s in plan))
    reading = None
    if all(isinstance(a, Atom) for a in conjuncts):
        outside = [(a, a.left - a.right) for a in conjuncts if a not in readings]
        reading = _one_form([form[-1] for form in solved] + [t for _, t in outside])
    if reading:
        f, ks = reading
        # delta*var := w = witness + sign*j: delta | w, m | w + t, s < w
        # for a lower s, w < s for an upper one, and the conjuncts without
        # var, each (m, s, k, c) for m | k*f + c + s*w, or <= 0 if m is None
        constraints = [(delta, 1, 0, 0)]
        for form, k in zip(solved, ks):
            c = form[-1].const
            constraints.append((form[1], 1, k, c) if form[0] == "div" else
                               (None, -1, k, c + 1) if form[0] == "lower" else
                               (None, 1, -k, 1 - c))
        for (a, t), k in zip(outside, ks[len(solved):]):
            c = t.const + (a.kind == LT)
            constraints += [(a.modulus, 0, k, c)] + [(None, 0, -k, -c)] * (a.kind == EQ)
        # the tail drops the bounds: F on its side, T on the other
        tail = [c for c in constraints if c[0] or not c[1]]
        for witness, steps in plan:
            if witness is None and any(form[0] == dropped for form in solved):
                continue
            kw, cw = (0, 0) if witness is None else (_multiple(witness, f), witness.const)
            fixed = _at_witness(tail if witness is None else constraints, kw, cw)
            for j in steps:
                piece = _piece(fixed, sign * j)
                if piece:
                    yield f, piece
        return
    template = _template(nnf_body, {a: i for i, a in enumerate(readings)})

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

    for witness, steps in plan:
        for j in steps:
            yield instantiate(witness, sign * j)


def _disjuncts(f: Formula) -> tuple[Formula, ...] | None:
    """The parts of an or, or the negated parts of a negated and; else None."""
    if isinstance(f, Or):
        return f.parts
    if isinstance(f, Not) and isinstance(f.body, And):
        return tuple(map(_negate, f.body.parts))
    return None


def _branches(var: str, body: Formula) -> tuple[Formula, ...] | None:
    """The disjuncts of `body`, or of its first or-conjunct, each joined
    with the other conjuncts, when one of them pins var at its top level,
    by a div or an equality on var; else None."""
    parts = body.parts if isinstance(body, And) else (body,)
    for i, part in enumerate(parts):
        ors = _disjuncts(part)
        for q in ors or ():  # simplified, so an and in q is flat
            for a in q.parts if isinstance(q, And) else (q,):
                if isinstance(a, Atom) and a.kind in (DIV, EQ) \
                        and a.left.coeff(var) != a.right.coeff(var):
                    rest = parts[:i] + parts[i + 1:]
                    return tuple(_join(True, (*rest, b)) for b in ors) if rest else ors
    return None


_Step = Callable[[str, Formula], Iterator[_Leaf]]


def _leaves(var: str, body: Formula, final: _Step) -> Iterator[_Leaf]:
    """The disjuncts of exists var body, built lazily: its equality
    shortcut, the body itself when it lacks var, else the engine's last
    step, `final` (QE's case split or the plans' move-out), after
    distribution over the ors that _branches takes.

    exists v (A and (B1 or ... or Bk)) is the or of the exists v (A and
    Bi), recursively, so that each branch has its divs and equalities at
    top level, for the shortcut and for the leaf's own step.
    """
    shortcut = _equality_shortcut(var, body)
    if shortcut is not None:
        yield shortcut
    elif var not in free_vars(body):
        yield body
    elif (branches := _branches(var, body)) is None:
        yield from final(var, body)
    else:
        for branch in branches:
            yield from _leaves(var, branch, final)


def _distributed(var: str, body: Formula, final: _Step, bits: bool = False) -> Formula:
    """exists var body, the or of its _leaves, none drawn after the first
    that is T.  Their atoms are counted as each arrives, against the
    output-atom cap, so a refusal comes before the output is complete.

    A piece (f, piece) of the case split is counted by arithmetic (_size)
    and kept as data; a T piece makes the step T.  Once the leaves are
    drawn, each form's pieces are unioned (_union) and only the kept ones
    are built, in _union's order, after the other leaves.  With `bits`
    (QE's step), the result's coefficient bits are checked against their
    cap: a formula leaf's in the walk that counts its atoms, a kept
    piece's by arithmetic (_bits)."""
    built = most = 0
    pieces: dict[LinearTerm, list[tuple]] = {}

    def counted(leaf: _Leaf) -> Formula:
        nonlocal built, most
        if isinstance(leaf, tuple):
            f, piece = leaf
            size = _size(piece)
            if not size:
                return TRUE
            built += size
            _enforce("output atoms", DEFAULT_MAX_ATOMS, built)
            pieces.setdefault(f, []).append(piece)
            return FALSE  # for the join, which passes it over
        if bits:
            for a in atoms_of(leaf):
                built += 1
                b = a.max_coeff_bits()
                most = b if b > most else most
        else:
            built += count_atoms(leaf)
        _enforce("output atoms", DEFAULT_MAX_ATOMS, built)
        return leaf
    out = _join(False, map(counted, _leaves(var, body, final)))
    if pieces and out is not TRUE:
        kept = []
        for f, of_f in pieces.items():
            top = max(abs(c) for _, c in f.coeffs)
            for piece in _union(of_f):
                b = _bits(top, piece)
                most = b if b > most else most
                kept.append(_built(f, piece))
        out = mk_or(kept) if out is FALSE else _join(False, (out, *kept))
    if bits and not isinstance(out, Bool):
        _enforce("coefficient bits", DEFAULT_MAX_COEFF_BITS, most)
    return out


def eliminate_quantifiers(f: Formula) -> Formula:
    """Equivalent quantifier-free formula over the same free variables.

    Output may contain div atoms; both encoders' outputs are unions of
    pieces of x + d*y (_case_split), none inside another (_union).
    Raises ResourceCapError when an elimination step builds more atoms
    than their cap (DEFAULT_MAX_ATOMS) or exceeds the coefficient bit cap
    (DEFAULT_MAX_COEFF_BITS), on its input or its result.
    """
    result = _rewrite(f, _dual(lambda var, body: _distributed(
        var, body, _case_split, bits=True)))
    _enforce("output atoms", DEFAULT_MAX_ATOMS, count_atoms(result))
    return result


def decide(f: Formula) -> bool:
    """Truth value of a sentence over the integers."""
    if free_vars(f):
        raise EvalError(f"not a sentence: free {sorted(free_vars(f))}")
    return eval_ground(eliminate_quantifiers(f))
