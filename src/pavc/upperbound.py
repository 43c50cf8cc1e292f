"""VC upper-bound certificates computed from quantifier-free atom inventories.

A quantifier-free formula with parameters selects sets by thresholding a
fixed finite list of atoms.  Each atom contributes a small per-atom budget
and the whole family on n points realizes at most (n+1)^ell sign patterns,
so any shattered set satisfies 2^n <= (n+1)^ell.  The certificate stores
ell and the largest n satisfying that inequality.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from decimal import Context, Decimal

from .evaluator import eliminate_quantifiers
from .formula import (
    DIV,
    Atom,
    Formula,
    PartitionedFormula,
    atoms_of,
    is_quantifier_free,
    to_text,
)

MAX_LISTED_ATOMS = 100  # certificate_report lists at most this many atoms

# _holds' decimal context, and the relative error bounds of its two gaps
_DECIMAL = Context(prec=60)
_FLOAT_ERROR = 2.0 ** -45
_DECIMAL_ERROR = Decimal("1e-55")


class UpperBoundError(ValueError):
    pass


def atom_capacity(a: Atom) -> int:
    """Per-atom budget: 1 for an order atom, log2(modulus) for divisibility.

    A congruence atom with modulus c can only distinguish residues, and
    c residue classes carve out at most max(1, floor(log2 c)) shatterable
    dimensions worth of patterns.
    """
    if a.kind == DIV:
        return max(1, a.modulus.bit_length() - 1)
    return 1


@dataclass(frozen=True)
class AtomInventory:
    """Distinct atoms of a quantifier-free formula with their budgets."""

    entries: tuple[tuple[Atom, int], ...]
    num_inequality: int
    num_congruence: int

    @property
    def ell(self) -> int:
        return sum(b for _, b in self.entries)


def inventory(f: Formula) -> AtomInventory:
    if not is_quantifier_free(f):
        raise UpperBoundError("inventory requires a quantifier-free formula")
    distinct = list(dict.fromkeys(atoms_of(f)))
    entries = tuple((a, atom_capacity(a)) for a in distinct)
    cong = sum(1 for a in distinct if a.kind == DIV)
    return AtomInventory(entries, len(distinct) - cong, cong)


def _holds(n: int, ell: int) -> bool:
    """2^n <= (n+1)^ell, decided on the sign of the gap ell*log2(n+1) - n.

    The float gap is off by a few ulps of ell*log2(n+1) and of n, under
    2^-45 of their sum, so a gap outside that has the right sign.  Inside
    it, the gap is taken again as ell*ln(n+1) - n*ln(2) at 60 digits,
    where ln is correctly rounded, off by under 10^-55 of the terms' sum.
    Only a gap inside that too, as at a tie (n = 0, or n = ell = 1), is
    settled with integer powers.
    """
    log = ell * math.log2(n + 1)
    gap = log - n
    if abs(gap) > (log + n) * _FLOAT_ERROR:
        return gap > 0
    up = _DECIMAL.multiply(ell, _DECIMAL.ln(n + 1))
    down = _DECIMAL.multiply(n, _DECIMAL.ln(2))
    fine = _DECIMAL.subtract(up, down)
    if abs(fine) > _DECIMAL.multiply(_DECIMAL.add(up, down), _DECIMAL_ERROR):
        return fine > 0
    return 2 ** n <= (n + 1) ** ell


def capacity_bound(ell: int) -> int:
    """Largest n with 2^n <= (n+1)^ell; 0 when ell is 0.

    ell*log2(n+1) - n is concave in n and 0 at n = 0, so the predicate
    holds up to the answer and fails after it: a doubling scan finds an
    n where it fails and a binary search below that finds the edge.
    """
    if ell < 0:
        raise UpperBoundError("ell must be nonnegative")
    hi = 1
    while _holds(hi, ell):
        hi <<= 1
    return bisect_left(range(hi), True, key=lambda n: not _holds(n, ell)) - 1


@dataclass(frozen=True)
class UpperBoundCertificate:
    ell: int
    bound: int

    def check(self) -> bool:
        """Re-verify the defining inequalities of the stored bound."""
        return (self.bound >= 0 and _holds(self.bound, self.ell)
                and not _holds(self.bound + 1, self.ell))


def certificate(inv: AtomInventory) -> UpperBoundCertificate:
    ell = inv.ell
    return UpperBoundCertificate(ell, capacity_bound(ell))


def upper_bound_via_qe(pf: PartitionedFormula
                       ) -> tuple[UpperBoundCertificate, AtomInventory, dict]:
    """Eliminate quantifiers, then certify a VC upper bound from the atoms.

    Returns the certificate, the atom inventory it counts, and elimination
    statistics.  The bound applies to the family carved out by the object
    variables as the parameter variables range over all integers.
    """
    before = len(set(atoms_of(pf.formula)))
    qf = eliminate_quantifiers(pf.formula)
    inv = inventory(qf)
    stats = {
        "atoms_before": before,
        "atoms_after": len(inv.entries),
        "max_coeff_bits_after": max((a.max_coeff_bits() for a, _ in inv.entries),
                                    default=0),
    }
    return certificate(inv), inv, stats


def certificate_report(cert: UpperBoundCertificate, inv: AtomInventory,
                       qe_stats: dict) -> dict:
    """JSON-ready summary; atom listing is truncated past MAX_LISTED_ATOMS."""
    return {
        "ell": cert.ell, "vc_upper_bound": cert.bound,
        "certificate_valid": cert.check(),
        "num_inequality": inv.num_inequality,
        "num_congruence": inv.num_congruence,
        "atoms": [{"atom": to_text(a), "capacity": b}
                  for a, b in inv.entries[:MAX_LISTED_ATOMS]],
        "atoms_truncated": len(inv.entries) > MAX_LISTED_ATOMS,
        "qe_stats": dict(qe_stats),
    }
