"""Finite set families, shattering, VC-dimension, and the shatter function.

Families live on a sorted integer ground window.  Members are stored as
bitmasks over ground indices, so trace computations are single AND
operations.  Duplicate member sets are allowed in the input and are
deduplicated wherever only distinct traces matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb, prod
from typing import Iterable, Mapping, Sequence

from .evaluator import check_points, compile_masks, eliminate_quantifiers
from .formula import PartitionedFormula, bound_vars

DEFAULT_VC_CAP = 20
DEFAULT_MAX_SUBSETS = 200_000


class VcLabError(ValueError):
    pass


@dataclass(frozen=True)
class SetFamily:
    """A labelled family of subsets of a finite integer ground set."""

    ground: tuple[int, ...]
    members: tuple[tuple[str, int], ...]  # (label, bitmask over ground indices)

    def __post_init__(self):
        if list(self.ground) != sorted(set(self.ground)):
            raise VcLabError("ground must be sorted and duplicate-free")
        full = (1 << len(self.ground)) - 1
        for label, mask in self.members:
            if mask & ~full:
                raise VcLabError(f"member {label!r} leaves the ground window")

    @staticmethod
    def from_sets(ground: Iterable[int],
                  members: Iterable[tuple[str, Iterable[int]]]) -> "SetFamily":
        g = tuple(sorted(set(ground)))
        index = {v: i for i, v in enumerate(g)}
        packed = []
        for label, subset in members:
            mask = 0
            for v in subset:
                if v not in index:
                    raise VcLabError(f"member {label!r} contains {v}, "
                                     "outside the ground set")
                mask |= 1 << index[v]
            packed.append((label, mask))
        return SetFamily(g, tuple(packed))

    def member_set(self, mask: int) -> frozenset[int]:
        return frozenset(v for i, v in enumerate(self.ground) if mask >> i & 1)

    def distinct_masks(self) -> list[int]:
        return list(dict.fromkeys(mask for _, mask in self.members))

    def subsets(self) -> set[frozenset[int]]:
        return {self.member_set(m) for m in self.distinct_masks()}


def _points_to_mask(fam: SetFamily, points: Iterable[int]) -> int:
    index = {v: i for i, v in enumerate(fam.ground)}
    mask = 0
    for p in points:
        if p not in index:
            raise VcLabError(f"point {p} is outside the ground set")
        mask |= 1 << index[p]
    return mask


def is_shattered(points: Iterable[int], fam: SetFamily,
                 cap: int = DEFAULT_VC_CAP
                 ) -> tuple[bool, dict[frozenset[int], str] | None]:
    """Whether the family cuts out every subset of `points`.

    Returns (True, witness) with one member label per realized subset,
    or (False, None).  Refuses point sets larger than `cap`.
    """
    pts = sorted(set(points))
    if len(pts) > cap:
        raise VcLabError(f"shattering check capped at {cap} points")
    target_mask = _points_to_mask(fam, pts)
    needed = 1 << len(pts)
    seen: dict[int, str] = {}
    for label, mask in fam.members:
        tr = mask & target_mask
        if tr not in seen:
            seen[tr] = label
            if len(seen) == needed:
                break
    if len(seen) < needed:
        return (False, None)
    index = {v: i for i, v in enumerate(fam.ground)}
    witness = {
        frozenset(p for p in pts if tr >> index[p] & 1): label
        for tr, label in seen.items()
    }
    return (True, witness)


@dataclass(frozen=True)
class ShatterReport:
    """vc_dim is exact when capped is False; otherwise the search stopped
    at the cap and the true dimension is >= vc_dim."""

    vc_dim: int
    capped: bool
    witness: tuple[int, ...]
    pi_table: tuple[tuple[int, int], ...]

    def vc_display(self) -> str:
        return f">= {self.vc_dim}" if self.capped else str(self.vc_dim)


def _columns(masks: Sequence[int], size: int) -> list[int]:
    """The family by ground index: bit r of cols[i] is set when masks[r]
    holds ground index i."""
    rows = [format(m, f"0{size}b") for m in reversed(masks)]
    return [int("".join(col), 2) for col in zip(*rows)][::-1]


def _most_traces(masks: Sequence[int], size: int, k: int,
                 cols: list[int] | None = None
                 ) -> tuple[int, tuple[int, ...]]:
    """The most distinct traces on any k of `size` ground indices, and the
    first index combination (in lexicographic order) that reaches it.

    The first combination is tested directly.  Otherwise a depth-first
    walk over the combinations in lexicographic order carries the members
    grouped by their trace on the indices chosen so far: each group of
    two or more members is a bitset over members, and groups of one are
    only counted, since they never split again.  Adding index i splits
    each group g into part = g & cols[i] and rest = g ^ part (see
    _columns; `cols`, when given, is filled on first need, so that the
    caller's later k reuse it).  Above the last level a group that splits
    costs one AND, one XOR and one bit_count per piece, which tells a
    piece of one member from one to keep; at the last level a leaf's
    count is its number of nonempty parts, at one AND per group (at most
    min(2^(k-1), len(masks)) of them).  The walk keeps its own stack, one
    frame per chosen index, so k is not bounded by Python's recursion
    limit.  A subtree is skipped when its bound,
    min(2^k, len(masks), ones + groups * 2^(indices left)), cannot beat
    the best count so far, and the walk stops at the first combination
    with min(2^k, len(masks)) traces, which nothing can beat.  Refuses,
    before any work, when C(size, k) exceeds DEFAULT_MAX_SUBSETS.
    """
    if comb(size, k) > DEFAULT_MAX_SUBSETS:
        raise VcLabError(f"C({size},{k}) subsets exceed the cap {DEFAULT_MAX_SUBSETS}")
    if not masks or k > size:
        return 0, ()
    first, low = tuple(range(k)), (1 << k) - 1
    best = len({m & low for m in masks})
    top = min(1 << k, len(masks))
    if best == top:
        return best, first
    if cols is None:
        cols = []
    if not cols:
        cols += _columns(masks, size)
    # frame d: the groups and one-member count on the indices chosen at
    # depths < d, and the next index to choose at depth d (so the index
    # chosen at depth d is that frame's next index - 1)
    stack = [([(1 << len(masks)) - 1], 0, 0)]
    while stack:
        groups, ones, start = stack[-1]
        left = k + 1 - len(stack)
        if left == 1:
            base = ones + len(groups)
            for i in range(start, size):
                if base + len(groups) <= best:
                    break
                col = cols[i]
                count = base + len([g for g in groups if 0 != g & col != g])
                if count > best:
                    best, first = count, (*(f[2] - 1 for f in stack[:-1]), i)
                    if best == top:
                        return best, first
            stack.pop()
            continue
        if start > size - left or ones + (len(groups) << left) <= best:
            stack.pop()
            continue
        stack[-1] = (groups, ones, start + 1)
        col = cols[start]
        parts, alone = [], ones
        append = parts.append
        for g in groups:
            part = g & col
            if part == 0 or part == g:
                append(g)
                continue
            rest = g ^ part
            if part.bit_count() > 1:
                append(part)
            else:
                alone += 1
            if rest.bit_count() > 1:
                append(rest)
            else:
                alone += 1
        if alone + (len(parts) << left - 1) > best:
            stack.append((parts, alone, start + 1))
    return best, first


def vc_dimension(fam: SetFamily, cap: int = DEFAULT_VC_CAP) -> ShatterReport:
    """VC-dimension of the finite family, read off its shatter-function
    table: the largest k <= cap with pi(k) = 2^k, with the first shattered
    k-subset as witness; capped means it reached cap.

    Shattering is hereditary, so pi_table stops after the first k with
    pi(k) < 2^k (k = vc_dim + 1), at k = cap, or at k = n; no later entry
    could change the dimension.  A k in the table with more than
    DEFAULT_MAX_SUBSETS k-subsets raises VcLabError: the budget counts the
    k-subsets C(n, k), not the ones the search visits.  Each entry is
    _most_traces' refinement search, which splits the members' trace
    classes one ground index at a time (one AND per class, and an XOR and
    a bit count per split class above the last index) with member bitsets
    built once per family, on first need.
    """
    masks = fam.distinct_masks()
    n = len(fam.ground)
    cols: list[int] = []
    table = []
    dim, witness = 0, ()
    for k in range(n + 1):
        count, first = _most_traces(masks, n, k, cols)
        table.append((k, count))
        if count == 1 << k and k <= cap:
            dim, witness = k, tuple(fam.ground[i] for i in first)
        if count < 1 << k or k >= cap:
            break
    return ShatterReport(vc_dim=dim, capped=dim >= cap, witness=witness,
                         pi_table=tuple(table))


def shatter_function(fam: SetFamily, n: int) -> int:
    """pi(n): the largest number of distinct traces on any n ground points."""
    size = len(fam.ground)
    if n < 0:
        raise VcLabError("shatter function needs n >= 0")
    if n > size:
        raise VcLabError(f"n={n} exceeds the ground size {size}")
    return _most_traces(fam.distinct_masks(), size, n)[0]


def sauer_shelah_bound(d: int, n: int) -> int:
    """sum_{i<=d} C(n, i): the maximal shatter function of VC-dimension d."""
    if d < 0 or n < 0:
        raise VcLabError("need d >= 0 and n >= 0")
    return sum(comb(n, i) for i in range(0, min(d, n) + 1))


# ---------------------------------------------------------------------------
# Families defined by formulas


def _window_points(window: tuple[int, int]) -> range:
    lo, hi = window
    if lo > hi:
        raise VcLabError(f"empty window {lo}..{hi}")
    return range(lo, hi + 1)


def family_from_formula(pf: PartitionedFormula,
                        ground_window: tuple[int, int],
                        param_windows: Mapping[str, tuple[int, int]],
                        mode: str = "bounded",
                        hints: Mapping[str, tuple[int, int]] | None = None
                        ) -> SetFamily:
    """Sweep the parameter box; each parameter point contributes the set of
    ground objects satisfying the formula.

    The object side must be a single variable (ground sets are integer
    windows).  mode "bounded" evaluates with quantifier hints; mode "qe"
    eliminates quantifiers once first.  The members come from one
    compile_masks call over the parameter box and the ground window, which
    picks the evaluator's route for the body.  Refuses (ResourceCapError)
    before any evaluation when |ground| times the parameter box exceeds
    DEFAULT_MAX_POINTS.
    """
    if len(pf.object_vars) != 1:
        raise VcLabError("families need exactly one object variable")
    missing = set(pf.param_vars) - set(param_windows)
    if missing:
        raise VcLabError(f"missing parameter windows: {sorted(missing)}")
    extra = set(param_windows) - set(pf.param_vars)
    if extra:
        raise VcLabError(f"windows for names that are not parameters: {sorted(extra)}")
    unbound = set(hints or ()) - bound_vars(pf.formula)
    if unbound:
        raise VcLabError(f"hints for names that no quantifier binds: {sorted(unbound)}")

    if mode not in ("qe", "bounded"):
        raise VcLabError(f"unknown mode {mode!r}")
    ground = _window_points(ground_window)
    param_ranges = [_window_points(param_windows[v]) for v in pf.param_vars]
    check_points(prod(r.stop - r.start for r in (ground, *param_ranges)))
    body = pf.formula if mode == "bounded" else eliminate_quantifiers(pf.formula)
    member = compile_masks(body, pf.param_vars + pf.object_vars,
                           (*param_ranges, ground), hints)
    labels = (",".join(map(str, combo)) for combo in product(*param_ranges))
    masks = map(member, product(*param_ranges))
    return SetFamily(tuple(ground), tuple(zip(labels, masks)))


def report_json(report: ShatterReport, fam: SetFamily,
                ground_window: tuple[int, int],
                param_windows: Mapping[str, tuple[int, int]]) -> dict:
    """JSON-ready summary; window integers rendered as decimal strings."""
    return {
        "vc_dim": report.vc_dim,
        "vc_display": report.vc_display(),
        "capped": report.capped,
        "witness": [str(v) for v in report.witness],
        "pi_table": [[n, count] for n, count in report.pi_table],
        "family_size": len(fam.members),
        "distinct_members": len(fam.distinct_masks()),
        "ground_window": [str(v) for v in ground_window],
        "param_windows": {v: [str(lo), str(hi)]
                          for v, (lo, hi) in param_windows.items()},
    }
