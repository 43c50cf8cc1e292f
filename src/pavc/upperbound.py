"""VC upper-bound certificates computed from quantifier-free atom inventories.

A quantifier-free formula with parameters selects sets by thresholding a
fixed finite list of atoms.  Each atom contributes a small per-atom budget
and the whole family on n points realizes at most (n+1)^ell sign patterns,
so any shattered set satisfies 2^n <= (n+1)^ell.  The certificate stores
ell and the largest n satisfying that inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

# the float search's answer is confirmed exactly up to this ell
_CONFIRM_LIMIT = 65536

MAX_LISTED_ATOMS = 100  # certificate_report lists at most this many atoms


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


def _holds_exact(n: int, ell: int) -> bool:
    return 2 ** n <= (n + 1) ** ell


def _holds_float(n: int, ell: int) -> bool:
    return float(n) <= ell * math.log2(n + 1.0)


def capacity_bound(ell: int) -> int:
    """Largest n with 2^n <= (n+1)^ell; 0 when ell is 0.

    The predicate is monotone (true up to the answer, false after), so a
    doubling scan plus binary search over its float form finds the edge.
    Floats are safe: near the edge the defect changes by about 1 per step
    while rounding error stays far below that, and up to _CONFIRM_LIMIT
    the answer is reconfirmed with exact arithmetic anyway.
    """
    if ell < 0:
        raise UpperBoundError("ell must be nonnegative")
    if ell == 0:
        return 0
    hi = 1
    while _holds_float(hi, ell):
        hi <<= 1
    lo = hi >> 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _holds_float(mid, ell):
            lo = mid
        else:
            hi = mid

    if ell <= _CONFIRM_LIMIT:
        while _holds_exact(lo + 1, ell):
            lo += 1
        while not _holds_exact(lo, ell):
            lo -= 1
    return lo


@dataclass(frozen=True)
class UpperBoundCertificate:
    ell: int
    bound: int

    def check(self) -> bool:
        """Re-verify the defining inequalities of the stored bound."""
        if self.ell == 0:
            return self.bound == 0
        if self.ell > _CONFIRM_LIMIT:
            return self.bound == capacity_bound(self.ell)
        return (_holds_exact(self.bound, self.ell)
                and not _holds_exact(self.bound + 1, self.ell))


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
    before = len(list(dict.fromkeys(atoms_of(pf.formula))))
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
                       qe_stats: dict | None = None) -> dict:
    """JSON-ready summary; atom listing is truncated past MAX_LISTED_ATOMS."""
    out: dict = {
        "ell": cert.ell, "vc_upper_bound": cert.bound,
        "certificate_valid": cert.check(),
        "num_inequality": inv.num_inequality,
        "num_congruence": inv.num_congruence,
        "atoms": [{"atom": to_text(a), "capacity": b}
                  for a, b in inv.entries[:MAX_LISTED_ATOMS]],
        "atoms_truncated": len(inv.entries) > MAX_LISTED_ATOMS,
    }
    if qe_stats is not None:
        out["qe_stats"] = dict(qe_stats)
    return out
