"""Canonical continued fractions of non-negative rationals, with convergents."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


class ContinuedFractionError(ValueError):
    pass


@dataclass(frozen=True)
class Convergent:
    p: int
    q: int

    def as_tuple(self) -> tuple[int, int]:
        return (self.p, self.q)


@dataclass(frozen=True)
class ContinuedFraction:
    """Terms [a0; a1, ..., aL] with a0 >= 0, ai >= 1 for i >= 1, last term >= 2
    when L >= 1.  The canonical form makes the expansion unique."""

    terms: tuple[int, ...]

    def __post_init__(self):
        if not self.terms:
            raise ContinuedFractionError("need at least one term")
        if self.terms[0] < 0:
            raise ContinuedFractionError("leading term must be >= 0")
        if any(a < 1 for a in self.terms[1:]):
            raise ContinuedFractionError("terms after the first must be >= 1")
        if len(self.terms) > 1 and self.terms[-1] < 2:
            raise ContinuedFractionError("canonical form needs last term >= 2")


def from_rational(p: int, q: int) -> ContinuedFraction:
    """Continued fraction of p/q, p >= 0, q >= 1, in canonical form."""
    if q < 1:
        raise ContinuedFractionError(f"denominator must be >= 1, got {q}")
    if p < 0:
        raise ContinuedFractionError(f"numerator must be >= 0, got {p}")
    terms = []
    while True:
        a, r = divmod(p, q)
        terms.append(a)
        if r == 0:
            break
        p, q = q, r
    return ContinuedFraction(tuple(terms))


def convergents(cf: ContinuedFraction) -> list[Convergent]:
    """All convergents p_k/q_k via the standard second-order recurrence."""
    out = []
    p_prev, q_prev = 1, 0
    p, q = cf.terms[0], 1
    out.append(Convergent(p, q))
    for a in cf.terms[1:]:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        out.append(Convergent(p, q))
    return out


def to_rational(cf: ContinuedFraction) -> tuple[int, int]:
    """Value of the expansion in lowest terms."""
    last = convergents(cf)[-1]
    g = gcd(last.p, last.q)
    return (last.p // g, last.q // g)


def determinant_step(a: Convergent, b: Convergent) -> int:
    """p_k*q_{k-1} - p_{k-1}*q_k for consecutive convergents (b after a)."""
    return b.p * a.q - a.p * b.q
