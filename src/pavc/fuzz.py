"""Seeded random builders for differential and property testing.

The sentence builders are deliberately restricted so that brute-force
evaluation over the box [-50, 50] per quantified variable is a sound
decision oracle:

* single-block sentences quantify one variable whose atoms have
  coefficients in [-9, 9] and constants in [-9, 9], so every atom is
  constant outside [-10, 10] and one sample point beyond each side
  decides the block;
* combined sentences are Boolean combinations of independent single
  blocks, decided blockwise;
* nested sentences quantify two variables where the inner variable has
  coefficient +-1 and constants stay within [-7, 7], and the outer
  variable is guarded to a window within [-9, 9].  Outside the guard
  the outer quantifier is decided by the guard atoms alone, identically
  under box and integer semantics; inside it every inner atom's
  threshold sits within [-16, 16], so the inner scan over [-50, 50]
  sees every crossing and one constant-tail point on each side.  Without
  the guard the box would lie: an inner witness for an outer value near
  the box edge can need |v| up to |u| + 8 > 50.

All builders take an explicit random.Random so runs are reproducible.
"""

from __future__ import annotations

from random import Random
from typing import Sequence

from .formula import (
    DIV,
    EQ,
    FALSE,
    LE,
    LT,
    TRUE,
    ZERO,
    Atom,
    Exists,
    Forall,
    Formula,
    LinearTerm,
    Not,
    PartitionedFormula,
    free_vars,
    mk_and,
    mk_or,
)
from .vclab import SetFamily

SOUND_BOX = (-50, 50)

_ORDER_KINDS = (LE, LE, LT, LT, EQ)  # equality kept rarer


def _order_atom(rng: Random, coeffs: dict[str, int], const_bound: int) -> Atom:
    kind = rng.choice(_ORDER_KINDS)
    left = LinearTerm.of(coeffs)
    right = LinearTerm.num(rng.randint(-const_bound, const_bound))
    if rng.random() < 0.5:
        left, right = right, left
    return Atom(kind, left, right)


def _combine(rng: Random, parts: Sequence[Formula]) -> Formula:
    """Random Boolean tree over the given leaves, with occasional negation."""
    items = [Not(p) if rng.random() < 0.25 else p for p in parts]
    while len(items) > 1:
        k = rng.randint(2, min(3, len(items)))
        group, items = items[:k], items[k:]
        joined = mk_and(group) if rng.random() < 0.5 else mk_or(group)
        if rng.random() < 0.15:
            joined = Not(joined)
        items.append(joined)
    return items[0]


def single_block(rng: Random, var: str) -> Formula:
    """One quantifier over `var`; decisive witnesses fit [-11, 11]."""
    n = rng.randint(2, 6)
    atoms: list[Formula] = []
    for _ in range(n):
        a = rng.choice([c for c in range(-9, 10) if c != 0])
        atoms.append(_order_atom(rng, {var: a}, 9))
    if rng.random() < 0.1:
        atoms.append(TRUE if rng.random() < 0.5 else FALSE)
    body = _combine(rng, atoms)
    quant = Exists if rng.random() < 0.6 else Forall
    return quant(var, body)


def nested_block(rng: Random, outer: str, inner: str) -> Formula:
    """Two nested quantifiers; inner coefficient +-1 keeps witnesses small."""
    n = rng.randint(2, 5)
    atoms: list[Formula] = []
    saw_inner = False
    for _ in range(n):
        a = rng.randint(-1, 1)
        b = rng.choice([-1, 1])
        if rng.random() < 0.25:
            b = 0
            a = rng.choice([-1, 1])
        else:
            saw_inner = True
        atoms.append(_order_atom(rng, {outer: a, inner: b}, 7))
    if not saw_inner:
        atoms.append(_order_atom(rng, {outer: 0, inner: 1}, 7))
    body = _combine(rng, atoms)
    q_in = Exists if rng.random() < 0.6 else Forall
    q_out = Exists if rng.random() < 0.6 else Forall
    # guard keeps the outer variable inside [-g, g]; beyond it the
    # sentence is decided by the guard atoms under both semantics
    g = rng.randint(5, 9)
    u = LinearTerm.var(outer)
    inner_f = q_in(inner, body)
    if q_out is Exists:
        wrapped: Formula = mk_and([
            Atom(LE, LinearTerm.num(-g), u),
            Atom(LE, u, LinearTerm.num(g)),
            inner_f,
        ])
    else:
        wrapped = mk_or([
            Atom(LT, u, LinearTerm.num(-g)),
            Atom(LT, LinearTerm.num(g), u),
            inner_f,
        ])
    return q_out(outer, wrapped)


def random_sentence(rng: Random) -> Formula:
    """A closed formula decidable by brute force over SOUND_BOX per variable."""
    shape = rng.random()
    if shape < 0.4:
        out: Formula = single_block(rng, "p")
    elif shape < 0.7:
        blocks = [single_block(rng, "p"), single_block(rng, "q")]
        out = _combine(rng, blocks)
    else:
        out = nested_block(rng, "u", "v")
    return out


def random_qf(rng: Random, names: Sequence[str], *, atom_bound: int = 6,
              coeff_bound: int = 3, const_bound: int = 8,
              allow_div: bool = False) -> Formula:
    """Quantifier-free formula of 1..atom_bound atoms over `names`."""
    n = rng.randint(1, atom_bound)
    atoms: list[Formula] = []
    for _ in range(n):
        coeffs = {v: rng.randint(-coeff_bound, coeff_bound) for v in names}
        if all(c == 0 for c in coeffs.values()):
            coeffs[rng.choice(list(names))] = 1
        if allow_div and rng.random() < 0.3:
            atoms.append(Atom(DIV, LinearTerm.of(coeffs).shifted(
                rng.randint(-const_bound, const_bound)), ZERO,
                rng.randint(2, 6)))
        else:
            atoms.append(_order_atom(rng, coeffs, const_bound))
    return _combine(rng, atoms)


def random_partitioned(rng: Random) -> PartitionedFormula:
    """QF formula split into one object variable and its parameters."""
    names = ["x", "y"] if rng.random() < 0.6 else ["x", "y", "z"]
    body = random_qf(rng, names, allow_div=True)
    fv = free_vars(body)
    if "x" not in fv:
        body = mk_and([body, Atom(LE, ZERO, LinearTerm.var("x"))])
        fv = free_vars(body)
    return PartitionedFormula(body, ("x",), tuple(sorted(fv - {"x"})))


def random_family(rng: Random, *, max_ground: int = 9,
                  max_members: int = 50) -> SetFamily:
    """Nonempty family on a small ground set (build empty ones directly)."""
    size = rng.randint(1, max_ground)
    ground = tuple(sorted(rng.sample(range(-30, 31), size)))
    count = rng.randint(1, max_members)
    members = tuple((f"m{i}", rng.getrandbits(size)) for i in range(count))
    return SetFamily(ground, members)
