"""Explicit short formulas with provably large VC-dimension.

The target predicate, for a dimension parameter d, relates an object
x in [1, d] and a parameter y in [0, 2^d) by membership of t = x + d*y
in a fixed code set: block y of width d holds the y-th subset of [1, d]
in the descending lexicographic enumeration, so sweeping y through its
window realizes every subset of [1, d] and the family has VC-dimension
exactly d.

Two encoders are built:

* encode_naive: a disjunction over residues i of a purely existential
  block with two quantified variables, 6d inequalities in total, and 4
  distinct variable names at every d.
* encode_bridged: the code set is reached indirectly, as the image of a
  union of d arithmetic progressions (the "spread" form, whose blocks
  are scaled apart by a factor 2^d) under a collapsing change of
  variables.  The collapse wrapper costs exactly 8 inequalities (4 range
  constraints plus 2 equalities counted twice); it exists so the
  wrapper's accounting and witness tuples can be inspected concretely,
  and it provides a second encoder for extensional cross-checks.

encode_cf_short, a compressed encoder that would replace the spread
membership test with a continued-fraction gadget of at most 10
inequalities, is declared but not built; it raises
GadgetUnavailableError.  Its supporting arithmetic (largest progression
terms, prime/product modulus selection, the continued-fraction toolkit)
is implemented and tested independently.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from math import prod
from typing import Mapping

from .formula import (
    EQ, LE, LT,
    And, Atom, Exists, Formula, LinearTerm, Or, PartitionedFormula,
    free_vars, mk_and, mk_or, subst_term,
)

DEFAULT_D_CAP = 16


class GeneratorError(ValueError):
    pass


class GadgetUnavailableError(NotImplementedError):
    """Raised by the declared-but-unbuilt compressed encoder."""


def _check_d(d: int) -> int:
    if not 1 <= d <= DEFAULT_D_CAP:
        raise GeneratorError(f"d must be in [1, {DEFAULT_D_CAP}], got {d}")
    return d


# ---------------------------------------------------------------------------
# The code set and its two presentations


def lex_subset(d: int, j: int) -> frozenset[int]:
    """The j-th subset of {1..d} when subsets are ordered by descending
    sum of 2^i over members: j=0 gives {1..d}, j=2^d-1 gives the empty set."""
    _check_d(d)
    if not 0 <= j < (1 << d):
        raise GeneratorError(f"j must be in [0, 2^{d}), got {j}")
    code = (1 << d) - 1 - j
    return frozenset(i for i in range(1, d + 1) if code >> (i - 1) & 1)


def code_set_contains(d: int, t: int) -> bool:
    """Membership oracle for the code set: t = i + d*j with i in the j-th
    lexicographic subset."""
    _check_d(d)
    if t < 1:
        return False
    i = (t - 1) % d + 1
    j = (t - i) // d
    if j >= 1 << d:
        return False
    return bool(((1 << d) - 1 - j) >> (i - 1) & 1)


def build_code_set(d: int) -> tuple[int, ...]:
    """All code-set elements, sorted.  The largest is at most d*2^d."""
    _check_d(d)
    # block j holds i iff bit i-1 of j is clear; it spans t = d*j + 1 .. d*j + d
    return tuple(i + d * j for j in range(1 << d) for i in range(1, d + 1)
                 if not j >> (i - 1) & 1)


def index_block_values(i: int, d: int) -> tuple[int, ...]:
    """Blocks whose subset contains i, via the sum form
    {x + 2^i * y : 0 <= x < 2^(i-1), 0 <= y < 2^(d-i)}."""
    _check_d(d)
    if not 1 <= i <= d:
        raise GeneratorError(f"i must be in [1, {d}], got {i}")
    return tuple(sorted(
        x + (1 << i) * y
        for x in range(1 << (i - 1))
        for y in range(1 << (d - i))
    ))


@dataclass(frozen=True)
class AP:
    """Arithmetic progression start, start+step, ..., count terms."""

    start: int
    step: int
    count: int

    def __post_init__(self):
        if self.step < 1 or self.count < 1:
            raise GeneratorError("AP needs step >= 1 and count >= 1")

    @property
    def last(self) -> int:
        return self.start + self.step * (self.count - 1)

    def values(self) -> range:
        return range(self.start, self.last + 1, self.step)

    def contains(self, v: int) -> bool:
        return (v >= self.start and (v - self.start) % self.step == 0
                and (v - self.start) // self.step < self.count)


def spread_block(i: int, d: int) -> AP:
    """The i-th index block with its two strides pulled apart by a factor
    2^d; as a set it is just 2^i * {0 .. 2^(d-1) - 1}."""
    _check_d(d)
    if not 1 <= i <= d:
        raise GeneratorError(f"i must be in [1, {d}], got {i}")
    return AP(start=0, step=1 << i, count=1 << (d - 1))


def spread_aps(d: int) -> tuple[AP, ...]:
    """The spread code set: d disjoint progressions i + d*spread_block(i).
    Progression i occupies residue class i mod d."""
    _check_d(d)
    return tuple(
        AP(start=i, step=d * (1 << i), count=1 << (d - 1))
        for i in range(1, d + 1)
    )


def spread_values(d: int) -> tuple[int, ...]:
    out = []
    for ap in spread_aps(d):
        out.extend(ap.values())
    return tuple(sorted(out))


def largest_terms(d: int) -> tuple[int, ...]:
    """The top element of each spread progression."""
    return tuple(ap.last for ap in spread_aps(d))


# ---------------------------------------------------------------------------
# The collapse (spread -> code set) system


def collapse_witness(d: int, t: int) -> tuple[int, int, int, int] | None:
    """The unique (tp, r, rp, s) solving the collapse system for t, or None.

    The system: tp is in the spread set, 1 <= r <= d, 0 <= rp < 2^d,
    tp = r + d*(2^d * s + rp), t = r + d*(s + rp).
    """
    _check_d(d)
    if not code_set_contains(d, t):
        return None
    i = (t - 1) % d + 1
    j = (t - i) // d
    s = j % (1 << i)          # the fine stride index; < 2^(i-1) for code members
    y = j >> i
    rp = (1 << i) * y
    tp = i + d * ((1 << d) * s + rp)
    return (tp, i, rp, s)


def collapse_image(d: int) -> tuple[int, ...]:
    """Map every spread element through the collapse system; equals the
    code set."""
    _check_d(d)
    out = set()
    for ap in spread_aps(d):
        for tp in ap.values():
            r = (tp - 1) % d + 1
            u = (tp - r) // d
            s, rp = divmod(u, 1 << d)
            out.add(r + d * (s + rp))
    return tuple(sorted(out))


def collapse_formula(d: int, spread_member: Formula, spread_var: str,
                     t_term: LinearTerm) -> Formula:
    """Existential wrapper selecting t_term's value from the collapse image
    of the set defined by spread_member(spread_var).

    Adds exactly 8 inequalities: four range constraints and two
    equalities that each count as two.
    """
    _check_d(d)
    if free_vars(spread_member) != {spread_var}:
        raise GeneratorError(
            f"spread membership formula must have exactly the free "
            f"variable {spread_var!r}")
    tp = LinearTerm.var("tp")
    r = LinearTerm.var("r")
    rp = LinearTerm.var("rp")
    s = LinearTerm.var("s")
    body = mk_and([
        subst_term(spread_member, spread_var, tp),
        Atom(LE, LinearTerm.num(1), r),
        Atom(LE, r, LinearTerm.num(d)),
        Atom(LE, LinearTerm.num(0), rp),
        Atom(LT, rp, LinearTerm.num(1 << d)),
        Atom(EQ, tp, r + s.scaled(d * (1 << d)) + rp.scaled(d)),
        Atom(EQ, t_term, r + s.scaled(d) + rp.scaled(d)),
    ])
    return Exists("s", Exists("r", Exists("rp", Exists("tp", body))))


def _spread_membership(d: int, var: str) -> Formula:
    """Naive definition of the spread set: one existential block per
    progression."""
    v = LinearTerm.var(var)
    z = LinearTerm.var("z")
    disjuncts = []
    for ap in spread_aps(d):
        disjuncts.append(Exists("z", mk_and([
            Atom(EQ, v, LinearTerm.num(ap.start) + z.scaled(ap.step)),
            Atom(LE, LinearTerm.num(0), z),
            Atom(LT, z, LinearTerm.num(ap.count)),
        ])))
    return mk_or(disjuncts)


# ---------------------------------------------------------------------------
# Encoders


@dataclass(frozen=True)
class GeneratorMeta:
    """Everything needed to check an emitted formula against its windows."""

    d: int
    encoder: str
    object_var: str
    param_var: str
    ground_window: tuple[int, int]
    param_window: tuple[int, int]
    t_window: tuple[int, int]
    hints: tuple[tuple[str, tuple[int, int]], ...]
    aps: tuple[AP, ...]
    modulus: int | None = None
    modulus_mode: str | None = None

    def hint_map(self) -> dict[str, tuple[int, int]]:
        return dict(self.hints)

    @property
    def witnesses(self) -> tuple[tuple[int, tuple[int, int, int, int]], ...]:
        """(t, collapse_witness(d, t)) for every code t, derived from d."""
        return tuple((t, collapse_witness(self.d, t))
                     for t in build_code_set(self.d))


def _meta(d: int, encoder: str, hints: Mapping[str, tuple[int, int]],
          modulus: int | None = None,
          modulus_mode: str | None = None) -> GeneratorMeta:
    return GeneratorMeta(
        d=d,
        encoder=encoder,
        object_var="x",
        param_var="y",
        ground_window=(1, d),
        param_window=(0, (1 << d) - 1),
        t_window=(1, d * (1 << d)),
        hints=tuple(sorted(hints.items())),
        aps=spread_aps(d),
        modulus=modulus,
        modulus_mode=modulus_mode,
    )


def encode_naive(d: int) -> tuple[PartitionedFormula, GeneratorMeta]:
    """The direct encoder: x + d*y lands in residue block i at block
    offset xh + 2^i * yh.  Shape: 4 distinct variables, 6d inequalities,
    purely existential.  Size: phi(d) = 3/2*d^2 + O(d log d) under
    ShapeReport's convention; the quadratic term is the lengths of the
    constants 2^i, 2^(i-1) and 2^(d-i), the rest a fixed per-disjunct
    overhead of about 33 + 3*bitlen(d) symbols."""
    _check_d(d)
    x = LinearTerm.var("x")
    y = LinearTerm.var("y")
    xh = LinearTerm.var("xh")
    yh = LinearTerm.var("yh")
    disjuncts = []
    for i in range(1, d + 1):
        body = And((
            Atom(EQ, x + y.scaled(d),
                 LinearTerm.num(i) + xh.scaled(d) + yh.scaled(d * (1 << i))),
            Atom(LE, LinearTerm.num(0), xh),
            Atom(LT, xh, LinearTerm.num(1 << (i - 1))),
            Atom(LE, LinearTerm.num(0), yh),
            Atom(LT, yh, LinearTerm.num(1 << (d - i))),
        ))
        disjuncts.append(Exists("xh", Exists("yh", body)))
    f = mk_or(disjuncts)
    pf = PartitionedFormula(f, object_vars=("x",), param_vars=("y",))
    span = (1 << (d - 1)) - 1
    meta = _meta(d, "naive", {"xh": (0, span), "yh": (0, span)})
    return pf, meta


def encode_bridged(d: int) -> tuple[PartitionedFormula, GeneratorMeta]:
    """The collapse-wrapper route: spread membership plus the 8-inequality
    collapse system, with t = x + d*y."""
    _check_d(d)
    x = LinearTerm.var("x")
    y = LinearTerm.var("y")
    spread = _spread_membership(d, "w")
    f = collapse_formula(d, spread, "w", x + y.scaled(d))
    pf = PartitionedFormula(f, object_vars=("x",), param_vars=("y",))
    m_max = max(largest_terms(d))
    hints = {
        "s": (0, (1 << (d - 1)) - 1),
        "r": (1, d),
        "rp": (0, (1 << d) - 1),
        "tp": (1, m_max),
        "z": (0, (1 << (d - 1)) - 1),
    }
    return pf, _meta(d, "bridged", hints)


def encode_cf_short(d: int, modulus_mode: str = "prime",
                    seed: int = 0) -> tuple[PartitionedFormula, GeneratorMeta]:
    """Declared compressed encoder (exists-forall, at most 10 variables and
    18 inequalities).  Not built: the membership gadget that reads the
    spread progressions off a continued fraction's convergents is
    unavailable, so this always raises GadgetUnavailableError.  Modulus
    selection is still exposed via select_modulus."""
    _check_d(d)
    if modulus_mode not in ("prime", "product"):
        raise GeneratorError(f"unknown modulus mode {modulus_mode!r}")
    raise GadgetUnavailableError(
        "encode_cf_short is not implemented: the continued-fraction "
        "membership gadget is unavailable; use the naive or bridged encoder")


def select_modulus(d: int, mode: str, seed: int = 0) -> int:
    """Working modulus for the compressed route: in prime mode the least
    prime above every progression's largest term; in product mode one
    more than the product of the largest terms."""
    _check_d(d)
    terms = largest_terms(d)
    if mode == "prime":
        return next_prime_above(max(terms), seed=seed)
    if mode == "product":
        return 1 + prod(terms)
    raise GeneratorError(f"unknown modulus mode {mode!r}")


# ---------------------------------------------------------------------------
# Prime search

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Witness set below is a correct deterministic test for n < 3.3 * 10^24.
_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981
_EXTRA_ROUNDS = 48  # error probability under 4^-48 << 2^-80 beyond the limit


def _miller_rabin_round(n: int, a: int, d: int, r: int) -> bool:
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int, seed: int = 0) -> bool:
    """Miller-Rabin: deterministic below 3.3e24, seeded random witnesses
    with error probability below 2^-80 above."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        if not _miller_rabin_round(n, a, d, r):
            return False
    if n < _DETERMINISTIC_LIMIT:
        return True
    rng = random.Random(seed)
    for _ in range(_EXTRA_ROUNDS):
        a = rng.randrange(2, n - 1)
        if not _miller_rabin_round(n, a, d, r):
            return False
    return True


def next_prime_above(n: int, seed: int = 0) -> int:
    """The least prime strictly greater than n, by Miller-Rabin (seeded;
    see is_probable_prime)."""
    if n < 0:
        raise GeneratorError("n must be non-negative")
    gap_cap = 10_000 * (n.bit_length() + 1)
    candidate = n + 1
    while candidate <= n + gap_cap:
        if is_probable_prime(candidate, seed=seed):
            return candidate
        candidate += 1
    raise GeneratorError(f"no prime found within {gap_cap} above {n}")


# ---------------------------------------------------------------------------
# Meta serialization (big integers as decimal strings)


def meta_to_json(meta: GeneratorMeta) -> dict:
    return {
        "d": meta.d,
        "encoder": meta.encoder,
        "object_var": meta.object_var,
        "param_var": meta.param_var,
        "ground_window": [str(v) for v in meta.ground_window],
        "param_window": [str(v) for v in meta.param_window],
        "t_window": [str(v) for v in meta.t_window],
        "hints": {v: [str(lo), str(hi)] for v, (lo, hi) in meta.hints},
        "aps": [{"start": str(ap.start), "step": str(ap.step),
                 "count": str(ap.count)} for ap in meta.aps],
        "modulus": None if meta.modulus is None else str(meta.modulus),
        "modulus_mode": meta.modulus_mode,
    }


def meta_from_json(data: Mapping) -> GeneratorMeta:
    """GeneratorError when d is out of range, a pair is not [lo, hi] or a
    number is neither a JSON integer nor a decimal string, the forms that
    meta_to_json writes."""
    def num(x) -> int:
        if isinstance(x, int) and not isinstance(x, bool) \
                or isinstance(x, str) and re.fullmatch(r"-?[0-9]+", x):
            return int(x)
        raise GeneratorError(f"expected an integer, got {x!r}")

    def pair(xs) -> tuple[int, int]:
        if not isinstance(xs, list) or len(xs) != 2:
            raise GeneratorError(f"expected a [lo, hi] pair, got {xs!r}")
        return (num(xs[0]), num(xs[1]))

    return GeneratorMeta(
        d=_check_d(num(data["d"])),
        encoder=data["encoder"],
        object_var=data["object_var"],
        param_var=data["param_var"],
        ground_window=pair(data["ground_window"]),
        param_window=pair(data["param_window"]),
        t_window=pair(data["t_window"]),
        hints=tuple(sorted(
            (v, pair(w)) for v, w in data["hints"].items())),
        aps=tuple(AP(num(ap["start"]), num(ap["step"]), num(ap["count"]))
                  for ap in data["aps"]),
        modulus=None if data["modulus"] is None else num(data["modulus"]),
        modulus_mode=data["modulus_mode"],
    )
