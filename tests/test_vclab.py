"""Set families, shattering, VC-dimension, and the shatter function."""

import random
import re
from collections import Counter
from itertools import combinations, product
from math import comb, gcd

import pytest

from pavc import evaluator, fuzz, vclab
from pavc.evaluator import (
    EvalError, MissingHintError, NotOneForm, ResourceCapError, compile_masks,
    eliminate_quantifiers, eval_point, one_form_line,
)
from pavc.formula import (
    DIV, EQ, LE, LT, ZERO, Atom, Exists, Forall, LinearTerm, Not,
    PartitionedFormula, bound_vars, free_vars, mk_and, mk_or, parse,
)
from pavc.fuzz import random_family, random_partitioned
from pavc.generator import block_mask, encode_bridged, encode_naive, lex_subset
from pavc.vclab import (
    SetFamily,
    ShatterReport,
    VcLabError,
    family_from_formula,
    is_shattered,
    report_json,
    sauer_shelah_bound,
    shatter_function,
    vc_dimension,
)
from test_evaluator import reference_eval


def thresholds(ground):
    """All prefixes of the ground set: a family of VC-dimension 1."""
    return SetFamily.from_sets(
        ground, [(f"le{i}", ground[: i + 1]) for i in range(len(ground))])


def power_set_family(ground):
    n = len(ground)
    return SetFamily(tuple(ground), tuple(
        (f"s{m}", m) for m in range(1 << n)))


class TestSetFamily:
    def test_from_sets_roundtrip(self):
        fam = SetFamily.from_sets([0, 1, 2], [("a", [0, 2]), ("b", [])])
        assert fam.subsets() == {frozenset({0, 2}), frozenset()}
        assert fam.member_set(fam.members[0][1]) == {0, 2}

    def test_ground_must_be_sorted_unique(self):
        with pytest.raises(VcLabError):
            SetFamily((2, 1), ())
        with pytest.raises(VcLabError):
            SetFamily((1, 1), ())

    def test_member_outside_ground_rejected(self):
        with pytest.raises(VcLabError):
            SetFamily.from_sets([0, 1], [("a", [7])])
        with pytest.raises(VcLabError):
            SetFamily((0, 1), (("a", 0b100),))

    def test_distinct_masks_dedup(self):
        fam = SetFamily((0, 1), (("a", 0b01), ("b", 0b01), ("c", 0b10)))
        assert fam.distinct_masks() == [0b01, 0b10]


class TestShattering:
    def test_threshold_family(self):
        fam = thresholds([0, 1, 2])
        ok, witness = is_shattered([0], fam)
        assert not ok  # no member misses point 0
        ok, witness = is_shattered([2], fam)
        assert ok and set(witness) == {frozenset(), frozenset({2})}
        ok, _ = is_shattered([1, 2], fam)
        assert not ok

    def test_witness_maps_every_subset(self):
        fam = power_set_family([3, 5, 9])
        ok, witness = is_shattered([3, 9], fam)
        assert ok
        assert set(witness) == {frozenset(), frozenset({3}),
                                frozenset({9}), frozenset({3, 9})}
        for sub, label in witness.items():
            mask = dict(fam.members)[label]
            assert fam.member_set(mask) & {3, 9} == sub

    def test_cap_refuses(self):
        fam = power_set_family(list(range(6)))
        with pytest.raises(VcLabError):
            is_shattered(range(6), fam, cap=5)

    def test_outside_point_rejected(self):
        fam = thresholds([0, 1])
        with pytest.raises(VcLabError):
            is_shattered([9], fam)


class TestVcDimension:
    def test_power_set(self):
        for n in range(0, 5):
            fam = power_set_family(list(range(n)))
            rep = vc_dimension(fam)
            assert rep.vc_dim == n
            assert not rep.capped

    def test_thresholds_have_dimension_one(self):
        fam = thresholds(list(range(8)))
        rep = vc_dimension(fam)
        assert rep.vc_dim == 1
        assert not rep.capped

    def test_empty_family(self):
        fam = SetFamily((0, 1), ())
        assert vc_dimension(fam).vc_dim == 0

    def test_cap_reports_lower_bound(self):
        fam = power_set_family(list(range(5)))
        rep = vc_dimension(fam, cap=3)
        assert rep.capped
        assert rep.vc_dim == 3
        assert rep.vc_display() == ">= 3"

    def test_witness_is_shattered(self):
        rng = random.Random(7)
        for i in range(60):
            fam = random_family(rng, max_ground=7)
            rep = vc_dimension(fam)
            if rep.vc_dim > 0:
                ok, _ = is_shattered(rep.witness, fam)
                assert ok


def reference_vc_dimension(fam, cap=20):
    """The two-loop vc_dimension: a size-by-size search for the first
    shattered subset, then a full scan per k for the pi table."""
    masks = fam.distinct_masks()
    n = len(fam.ground)

    def traces(combo):
        sub = sum(1 << i for i in combo)
        return len({m & sub for m in masks})

    dim, capped, witness, size = 0, False, (), 1
    while True:
        if size > min(cap, n):
            capped = size > cap
            break
        found = next((c for c in combinations(range(n), size)
                      if traces(c) == 1 << size), None)
        if found is None:
            break
        dim, witness = size, tuple(fam.ground[i] for i in found)
        size += 1
    table = tuple(
        (k, max(traces(c) for c in combinations(range(n), k)) if masks else 0)
        for k in range(n + 1))
    return ShatterReport(dim, capped, witness, table)


def assert_matches_reference(fam, cap):
    """Same dimension, cap flag and witness as the reference; pi_table is
    the reference table up to the first k with pi(k) < 2^k (k = vc + 1
    for a nonempty family) or k = n, or up to k = cap when capped."""
    got, want = vc_dimension(fam, cap=cap), reference_vc_dimension(fam, cap=cap)
    assert (got.vc_dim, got.capped, got.witness) == \
        (want.vc_dim, want.capped, want.witness)
    n = len(fam.ground)
    if got.capped:
        last = max(cap, 0)
    else:
        last = next((k for k, pi in want.pi_table if pi < 1 << k), n)
        assert last >= min(got.vc_dim + 1, n) or not fam.members
    assert got.pi_table == want.pi_table[:last + 1]


class TestVcDimensionDifferential:
    CAPS = (-1, 0, 1, 2, 3, 20)

    def test_matches_two_loop_reference_on_random_families(self):
        for i in range(500):
            fam = random_family(random.Random(61_000 + i))
            for cap in self.CAPS:
                assert_matches_reference(fam, cap)

    def test_matches_reference_on_edge_families(self):
        for fam in (SetFamily((), ()), SetFamily((0, 1, 2), ())):
            for cap in self.CAPS:
                assert_matches_reference(fam, cap)
        assert_matches_reference(power_set_family(list(range(5))), 5)


class TestSubsetBudget:
    def test_table_stops_once_dimension_is_settled(self):
        # pi(2) < 2^2 settles VC 1 and ends the table
        rep = vc_dimension(thresholds(list(range(21))))
        assert (rep.vc_dim, rep.capped) == (1, False)
        assert rep.pi_table == ((0, 1), (1, 2), (2, 3))

    def test_table_stops_when_dimension_reaches_cap(self, monkeypatch):
        monkeypatch.setattr(vclab, "DEFAULT_MAX_SUBSETS", 10)
        rep = vc_dimension(power_set_family(list(range(6))), cap=1)
        assert (rep.vc_dim, rep.capped) == (1, True)
        assert rep.pi_table == ((0, 1), (1, 2))

    def test_unsettled_dimension_refuses(self, monkeypatch):
        # pi(1) = 2, so k = 2 (15 subsets) could still raise the dimension
        monkeypatch.setattr(vclab, "DEFAULT_MAX_SUBSETS", 10)
        with pytest.raises(VcLabError, match=r"C\(6,2\) subsets exceed the cap 10"):
            vc_dimension(power_set_family(list(range(6))))
        # k = vc + 1 = 2 settles the dimension, so it is never skipped
        monkeypatch.setattr(vclab, "DEFAULT_MAX_SUBSETS", 100)
        with pytest.raises(VcLabError, match=r"C\(21,2\) subsets exceed the cap 100"):
            vc_dimension(thresholds(list(range(21))))


def reference_most_traces(masks, size, k):
    """The combination scan that _most_traces replaced: every k-subset of
    ground indices in lexicographic order, its traces counted in a set,
    stopping at the first with all 2^k traces."""
    if comb(size, k) > vclab.DEFAULT_MAX_SUBSETS:
        raise VcLabError(f"C({size},{k}) subsets exceed the cap {vclab.DEFAULT_MAX_SUBSETS}")
    best, first = 0, ()
    if not masks:
        return best, first
    limit = 1 << k
    for idx_combo in combinations(range(size), k):
        sub = 0
        for i in idx_combo:
            sub |= 1 << i
        count = len({m & sub for m in masks})
        if count > best:
            best, first = count, idx_combo
            if best == limit:
                break
    return best, first


def intervals(ground):
    """All nonempty runs [a, b] of the ground set: VC-dimension 2."""
    return SetFamily.from_sets(ground, [
        (f"{a},{b}", ground[a:b + 1])
        for a in range(len(ground)) for b in range(a, len(ground))])


class TestMostTracesDifferential:
    """The refinement search gives the reference scan's (best, first) for
    every k <= n, k = 0 and k = n included."""

    @staticmethod
    def assert_every_k_matches(masks, size):
        for k in range(size + 1):
            assert vclab._most_traces(masks, size, k) == \
                reference_most_traces(masks, size, k), (masks, size, k)

    def test_random_families_at_workload_scale(self):
        # 12..14 points and up to 291 members; every k (C(14,7) = 3432)
        for seed in (70_000, 70_002, 70_006, 70_010, 70_011):
            fam = random_family(random.Random(seed), max_ground=16,
                                max_members=300)
            assert len(fam.ground) >= 12
            self.assert_every_k_matches(fam.distinct_masks(), len(fam.ground))

    def test_sparse_random_families(self):
        # few members over many points: the walk's skip rule does the work
        rng = random.Random(71_000)
        for _ in range(30):
            size = rng.randint(8, 14)
            masks = list(dict.fromkeys(
                rng.getrandbits(size) for _ in range(rng.randint(2, 12))))
            self.assert_every_k_matches(masks, size)

    def test_power_sets(self):
        for d in range(11):
            self.assert_every_k_matches(list(range(1 << d)), d)

    def test_power_sets_missing_members(self):
        # the first combination misses a trace at some k, so the walk runs
        rng = random.Random(72_000)
        for d in range(2, 9):
            masks = [m for m in range(1 << d) if rng.random() < 0.7]
            self.assert_every_k_matches(masks, d)

    def test_threshold_and_interval_families(self):
        for n in (1, 2, 5, 12):
            for fam in (thresholds(list(range(n))), intervals(list(range(n)))):
                self.assert_every_k_matches(fam.distinct_masks(), n)

    def test_empty_and_one_member_families(self):
        for size in range(6):
            self.assert_every_k_matches([], size)
            self.assert_every_k_matches([(1 << size) - 1], size)
            self.assert_every_k_matches([0b101 & ((1 << size) - 1)], size)
        assert vclab._most_traces([], 4, 0) == (0, ())
        assert vclab._most_traces([0b0110], 4, 0) == (1, ())
        assert vclab._most_traces([0b0110], 4, 4) == (1, (0, 1, 2, 3))
        assert vclab._most_traces([0b01, 0b10], 2, 3) == \
            reference_most_traces([0b01, 0b10], 2, 3) == (0, ())

    def test_dense_family_at_its_hardest_step(self):
        # 16 points and 257 distinct members: k = 7 is vc + 1, where no
        # 7-subset has all 2^7 traces, so the walk visits every subtree its
        # bound cannot cut (the reference scans all C(16,7) = 11,440)
        fam = random_family(random.Random(70_004), max_ground=16,
                            max_members=300)
        masks = fam.distinct_masks()
        assert (len(fam.ground), len(masks)) == (16, 257)
        assert vclab._most_traces(masks, 16, 7) == \
            reference_most_traces(masks, 16, 7) == (122, (0, 1, 3, 4, 5, 10, 14))

    def test_where_the_best_is_found(self):
        # k = 1: index 0 is the same in every member, index 2 splits them
        # k = 3: the top, all 8 traces, is first reached on (1, 3, 5), in a
        #   last-level loop that starts at index 4
        shattered = [sum((x >> j & 1) << i for j, i in enumerate((1, 3, 5)))
                     for x in range(8)]
        # a tie: (0,1,3) has 5 traces, as do (0,1,4) in the same last-level
        #   loop and (1,2,3) in a later subtree; no 3-subset has all 6, so
        #   the walk runs on past them and must keep the first
        tied = [9, 10, 16, 17, 18, 30]
        for masks, size, k, expected in (([0b000, 0b100], 3, 1, (2, (2,))),
                                         (shattered, 6, 3, (8, (1, 3, 5))),
                                         (tied, 5, 3, (5, (0, 1, 3)))):
            assert vclab._most_traces(masks, size, k) == \
                reference_most_traces(masks, size, k) == expected
        # (0,1,3), (0,1,4) and (1,2,3) as index bitmasks
        assert [len({m & sub for m in tied})
                for sub in (0b01011, 0b10011, 0b01110)] == [5, 5, 5]

    def test_deep_walk_past_the_recursion_limit(self):
        # k = n - 1 = 1099 passes the budget (C(1100, 1099) = 1100), and the
        # first combination misses one trace, so the walk goes about 1,100
        # levels deep, past Python's default recursion limit of 1,000
        fam = thresholds(list(range(1100)))
        masks = fam.distinct_masks()
        assert vclab._most_traces(masks, 1100, 1099) == \
            reference_most_traces(masks, 1100, 1099) == (1100, tuple(range(1, 1100)))

    def test_refuses_before_any_work(self, monkeypatch):
        def unbuilt(masks, size):
            raise AssertionError("columns built before the subset cap check")

        monkeypatch.setattr(vclab, "_columns", unbuilt)
        monkeypatch.setattr(vclab, "DEFAULT_MAX_SUBSETS", 10)
        with pytest.raises(VcLabError, match=r"C\(6,3\) subsets exceed the cap 10"):
            vclab._most_traces([1, 2, 4], 6, 3)

    def test_columns_hold_member_bits(self):
        masks = [0b011, 0b110, 0b000, 0b101]
        cols = vclab._columns(masks, 3)
        assert cols == [0b1001, 0b0011, 0b1010]
        assert vclab._columns([], 3) == []

    def test_columns_built_once_per_family(self, monkeypatch):
        built = []
        columns = vclab._columns
        monkeypatch.setattr(vclab, "_columns",
                            lambda masks, size: built.append(size) or columns(masks, size))
        # verify's power sets never leave the first-combination test
        assert vc_dimension(power_set_family(list(range(8)))).vc_dim == 8
        assert built == []
        rep = vc_dimension(intervals(list(range(9))))
        assert (rep.vc_dim, rep.pi_table) == (2, ((0, 1), (1, 2), (2, 4), (3, 7)))
        assert built == [9]
        # k = 1 and k = 2 both leave the first-combination test here
        rep = vc_dimension(thresholds(list(range(7))))
        assert (rep.vc_dim, rep.pi_table) == (1, ((0, 1), (1, 2), (2, 3)))
        assert built == [9, 7]


class TestShatterFunction:
    def test_zero_points(self):
        fam = thresholds([0, 1, 2])
        assert shatter_function(fam, 0) == 1
        assert shatter_function(SetFamily((0,), ()), 0) == 0

    def test_threshold_counts(self):
        # prefixes: traces on n points are the n+1 "cut" patterns
        fam = thresholds(list(range(9)))
        for n in range(0, 6):
            assert shatter_function(fam, n) == n + 1

    def test_subset_budget_cap(self, monkeypatch):
        fam = thresholds(list(range(18)))
        monkeypatch.setattr(vclab, "DEFAULT_MAX_SUBSETS", 1000)
        with pytest.raises(VcLabError):
            shatter_function(fam, 9)

    def test_args_validated(self):
        fam = thresholds([0, 1])
        with pytest.raises(VcLabError):
            shatter_function(fam, -1)
        with pytest.raises(VcLabError):
            shatter_function(fam, 3)


class TestSauerShelah:
    def test_table(self):
        assert sauer_shelah_bound(0, 5) == 1
        assert sauer_shelah_bound(1, 5) == 6
        assert sauer_shelah_bound(2, 4) == 11
        assert sauer_shelah_bound(3, 3) == 8
        assert sauer_shelah_bound(5, 3) == 8  # d beyond n saturates at 2^n

    @pytest.mark.parametrize("d, n", [(-1, 3), (2, -1)])
    def test_negative_arguments_refused(self, d, n):
        with pytest.raises(VcLabError, match="need d >= 0 and n >= 0"):
            sauer_shelah_bound(d, n)

    def test_bound_holds_on_random_families(self):
        fams = [random_family(random.Random(40_000 + i), max_ground=8)
                for i in range(300)]
        # the encoders' families, over a ground window wider than 1..d
        for encode in (encode_naive, encode_bridged):
            for d in range(1, 5):
                pf, meta = encode(d)
                fams.append(family_from_formula(
                    pf, (-1, d + 2), {meta.param_var: meta.param_window},
                    hints=meta.hint_map()))
        for fam in fams:
            rep = vc_dimension(fam)
            assert not rep.capped
            for n in range(len(fam.ground) + 1):
                pi = shatter_function(fam, n)
                assert pi <= sauer_shelah_bound(rep.vc_dim, n)
                assert pi <= 2 ** n

    def test_vc_cross_check_via_full_shattering(self):
        # vc >= d iff pi(d) == 2^d somewhere; spot-verify both directions
        for i in range(120):
            rng = random.Random(52_000 + i)
            fam = random_family(rng, max_ground=6)
            rep = vc_dimension(fam)
            d = rep.vc_dim
            if d < len(fam.ground):
                assert shatter_function(fam, d + 1) < 2 ** (d + 1)
            if d > 0:
                assert shatter_function(fam, d) == 2 ** d


class TestInvariance:
    def test_relabeling_members_keeps_dimension(self):
        rng = random.Random(99)
        for i in range(40):
            fam = random_family(rng, max_ground=6)
            relabeled = SetFamily(fam.ground, tuple(
                (f"r{k}", mask) for k, (_, mask) in enumerate(fam.members)))
            assert vc_dimension(relabeled).vc_dim == vc_dimension(fam).vc_dim

    def test_duplicating_members_keeps_dimension(self):
        rng = random.Random(100)
        for i in range(40):
            fam = random_family(rng, max_ground=6)
            doubled = SetFamily(fam.ground, fam.members + tuple(
                (f"d{k}", mask) for k, (_, mask) in enumerate(fam.members)))
            assert vc_dimension(doubled).vc_dim == vc_dimension(fam).vc_dim


class TestFamilyFromFormula:
    def test_interval_family(self):
        from pavc.formula import PartitionedFormula, parse
        pf = PartitionedFormula(parse("(and (<= y x) (<= x (+ y 2)))"),
                                ("x",), ("y",))
        fam = family_from_formula(pf, (0, 9), {"y": (0, 7)})
        assert fam.ground == tuple(range(10))
        for label, mask in fam.members:
            y = int(label)
            assert fam.member_set(mask) == {v for v in range(10)
                                            if y <= v <= y + 2}

    def test_generator_family_is_lexicographic(self):
        pf, meta = encode_naive(3)
        fam = family_from_formula(pf, meta.ground_window,
                                  {meta.param_var: meta.param_window},
                                  hints=meta.hint_map())
        assert len(fam.members) == 8
        for label, mask in fam.members:
            assert fam.member_set(mask) == lex_subset(3, int(label))
        rep = vc_dimension(fam)
        assert rep.vc_dim == 3

    def test_two_parameter_family(self):
        from pavc.formula import PartitionedFormula, parse
        pf = PartitionedFormula(parse("(and (<= a x) (<= x b))"),
                                ("x",), ("a", "b"))
        fam = family_from_formula(pf, (0, 5), {"a": (0, 5), "b": (0, 5)})
        assert len(fam.members) == 36
        rep = vc_dimension(fam)
        assert rep.vc_dim == 2  # intervals on a line

    @pytest.mark.parametrize("encode, d",
                             [(encode_naive, d) for d in range(1, 6)]
                             + [(encode_bridged, d) for d in range(1, 5)])
    def test_qe_mode_agrees_with_bounded(self, encode, d):
        # the point plan on the quantified body against the window masks
        # on its eliminated form
        pf, meta = encode(d)
        windows = {meta.param_var: meta.param_window}
        bounded = family_from_formula(pf, meta.ground_window, windows,
                                      hints=meta.hint_map())
        viaqe = family_from_formula(pf, meta.ground_window, windows, mode="qe")
        assert bounded.members == viaqe.members

    def test_validation(self):
        from pavc.formula import PartitionedFormula, parse
        pf = PartitionedFormula(parse("(< x y)"), ("x",), ("y",))
        with pytest.raises(VcLabError, match="empty window"):
            family_from_formula(pf, (3, 1), {"y": (0, 1)})
        with pytest.raises(VcLabError, match="missing parameter windows"):
            family_from_formula(pf, (0, 1), {})
        # a bare (lo, hi) is not a mapping of windows
        with pytest.raises(VcLabError, match="missing parameter windows"):
            family_from_formula(pf, (0, 1), (0, 1))
        with pytest.raises(VcLabError, match=r"not parameters: \['q'\]"):
            family_from_formula(pf, (0, 1), {"y": (0, 1), "q": (0, 1)})
        with pytest.raises(VcLabError, match="unknown mode 'exact'"):
            family_from_formula(pf, (0, 1), {"y": (0, 1)}, mode="exact")
        two_obj = PartitionedFormula(parse("(< x y)"), ("x", "y"), ())
        with pytest.raises(VcLabError):
            family_from_formula(two_obj, (0, 1), {})


def eval_point_family(pf, ground_window, windows):
    """family_from_formula's family built one point at a time with eval_point."""
    ground = range(ground_window[0], ground_window[1] + 1)
    members = []
    for combo in product(*(range(windows[p][0], windows[p][1] + 1)
                           for p in pf.param_vars)):
        env = dict(zip(pf.param_vars, combo))
        mask = sum(1 << i for i, x in enumerate(ground)
                   if eval_point(pf.formula, {**env, "x": x}))
        members.append((",".join(map(str, combo)), mask))
    return SetFamily(tuple(ground), tuple(members))


def refuse_one_form(*args):
    raise NotOneForm("refused by the test")


class TestFamilyPaths:
    """family_from_formula's compiled masks against eval_point, with
    the ground window longer than, shorter than and as long as the last
    parameter's window.  one_form_line is made to refuse every body, so
    that one-form bodies take this path too (TestOneFormDifferential
    covers its own path)."""

    @pytest.mark.parametrize("ground, last", [
        ((-4, 4), (-1, 2)),
        ((-2, 1), (-5, 6)),
        ((-3, 3), (4, 10)),
    ], ids=["ground-longer", "param-longer", "equal"])
    def test_fuzz_bodies(self, monkeypatch, ground, last):
        monkeypatch.setattr(evaluator, "one_form_line", refuse_one_form)
        by_params = {1: 0, 2: 0}
        seed = 9_100_000
        while min(by_params.values()) < 6:
            pf = random_partitioned(random.Random(seed))
            seed += 1
            if by_params.get(len(pf.param_vars), 6) >= 6:
                continue
            by_params[len(pf.param_vars)] += 1
            windows = {**dict.fromkeys(pf.param_vars, (-1, 1)),
                       pf.param_vars[-1]: last}
            assert family_from_formula(pf, ground, windows) == \
                eval_point_family(pf, ground, windows), (pf, windows)


# the refusals the one-form fuzz bodies reach; with pieces of one class
# merged, their marks stay within the box, so test_refusals alone reaches
# "more marks than box points"
REASONS = ("an atom has object coefficient 0", "atoms read through a second form",
           "a negated div", "the u-range is longer than the box")
BLOCK_REASONS = ("a forall or a negated exists",
                 "an exists block of more than two variables",
                 "a block body other than one equality and bounds",
                 "a block equality's u-coefficient is not +-1")


def random_form(rng, names):
    """{x: a, y: b (, z: c)}, the coefficients of a form u over names."""
    form = {"x": rng.choice([1, 1, 2, 3])}
    form.update((v, rng.choice([-3, -2, -1, 1, 2, 3])) for v in names[1:])
    return form


def one_form_body(rng, names, form=None):
    """A random quantifier-free body whose atoms read through one form
    u = a*x + b*y (+ c*z), random_form's unless given: multiples
    k*u + const in order, equality and div atoms under random and/or/not
    trees.  One atom in ten reads another form or leaves x out, to reach
    one_form_line's refusals."""
    form = form or random_form(rng, names)
    atoms = []
    for _ in range(rng.randint(1, 6)):
        vector = dict(form)
        if rng.random() < 0.05:
            vector["x"] = 0
        elif rng.random() < 0.05:
            vector["x"] += 1
        k = rng.choice([-2, -1, 1, 2, 3])
        u = LinearTerm.of({v: k * c for v, c in vector.items()})
        const = LinearTerm.num(rng.randint(-12, 12))
        roll = rng.random()
        if roll < 0.3:
            atoms.append(Atom(DIV, u + const, ZERO, rng.randint(2, 6)))
        elif roll < 0.45:
            atoms.append(Atom(EQ, u, const))
        else:
            atoms.append(Atom(rng.choice([LE, LT]), *rng.sample([u, const], 2)))
    return fuzz._combine(rng, atoms)


def one_form_block(rng, form):
    """A bounded exists block over one or two of p, q whose body is one
    equality k*u + c + a*p + b*q = 0, u the form's term and a, b of
    either sign or 0 (the variable left out of it), and constant bounds
    on single variables.  One block in twelve is off one_form_line's
    shapes: a forall, a third variable, a bound that reads x, or k = 2."""
    names = rng.sample(("p", "q"), rng.randint(1, 2))
    roll = rng.random()
    k = 2 if roll < 0.02 else rng.choice((1, -1))
    if roll > 0.98:
        names.append("r")
    periods = {v: rng.choice((-3, -2, -1, 0, 1, 2, 3, 5)) for v in names}
    u = LinearTerm.of({v: k * c for v, c in form.items()})
    parts = [Atom(EQ, u + LinearTerm.of(periods), LinearTerm.num(rng.randint(-5, 5)))]
    for v in names:
        for _ in range(rng.choice((0, 1, 1, 2))):
            term = LinearTerm.var(v, rng.choice((1, 1, 2, -1, -3)))
            if 0.04 < roll < 0.06:
                term += LinearTerm.var("x")
            parts.append(Atom(rng.choice((LE, LT)),
                              *rng.sample([term, LinearTerm.num(rng.randint(-3, 3))], 2)))
    rng.shuffle(parts)
    body = mk_and(parts)
    for v in reversed(names):
        body = Exists(v, body)
    return Forall(names[0], body.body) if 0.02 <= roll < 0.04 else body


def block_body(rng, names):
    """one_form_body's atoms and one or two one_form_block blocks under
    a random and/or tree, negated one time in twenty (the block with
    it), so that some and parts are empty before a block."""
    form = random_form(rng, names)
    common = gcd(*form.values())  # primitive, so that k = +-1 is on u itself
    form = {v: c // common for v, c in form.items()}
    parts = [one_form_block(rng, form) for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.7:
        parts.append(one_form_body(rng, names, form))
    rng.shuffle(parts)
    while len(parts) > 1:
        group = [parts.pop(), parts.pop()]
        parts.append(mk_and(group) if rng.random() < 0.4 else mk_or(group))
    return Not(parts[0]) if rng.random() < 0.05 else parts[0]


def block_hints(rng, f):
    """An interval for each variable a quantifier in f binds, empty one
    time in ten."""
    hints = {}
    for v in sorted(bound_vars(f)):
        lo = rng.randint(-4, 2)
        hints[v] = (lo, lo - 1 if rng.random() < 0.1 else lo + rng.randint(0, 8))
    return hints


def reference_family(pf, ground_window, windows, hints):
    """The family by plain enumeration: reference_eval at every point."""
    ground = range(ground_window[0], ground_window[1] + 1)
    members = []
    for combo in product(*(range(windows[p][0], windows[p][1] + 1)
                           for p in pf.param_vars)):
        env = dict(zip(pf.param_vars, combo))
        mask = sum(1 << i for i, x in enumerate(ground)
                   if reference_eval(pf.formula, {**env, "x": x}, hints))
        members.append((",".join(map(str, combo)), mask))
    return SetFamily(tuple(ground), tuple(members))


def recording(taken):
    """one_form_line, appending the path it takes ("one form" or the
    NotOneForm message) to `taken`."""
    def recorded(*args):
        try:
            line = one_form_line(*args)
        except NotOneForm as exc:
            taken.append(str(exc))
            raise
        taken.append("one form")
        return line
    return recorded


def one_form_paths(monkeypatch, pf, ground, windows, hints=None):
    """family_from_formula's family, the path it took, and its family with
    one_form_line refusing."""
    taken = []
    with monkeypatch.context() as m:
        m.setattr(evaluator, "one_form_line", recording(taken))
        fam = family_from_formula(pf, ground, windows, hints=hints)
    with monkeypatch.context() as m:
        m.setattr(evaluator, "one_form_line", refuse_one_form)
        masked = family_from_formula(pf, ground, windows, hints=hints)
    return fam, taken, masked


class TestOneFormDifferential:
    """compile_masks' one-form route (one_form_line's byte line over u)
    against its compiled masks and, on fuzz bodies, against eval_point."""

    def test_fuzz_bodies(self, monkeypatch):
        paths = Counter()
        for seed in range(9_200_000, 9_200_240):
            rng = random.Random(seed)
            names = ["x", "y"] if rng.random() < 0.6 else ["x", "y", "z"]
            body = one_form_body(rng, names)
            fv = free_vars(body)
            if "x" not in fv:
                continue
            pf = PartitionedFormula(body, ("x",), tuple(sorted(fv - {"x"})))
            lo = rng.randint(-6, 2)
            ground = (lo, lo + rng.randint(1, 9))
            windows = {}
            for p in pf.param_vars:
                lo = rng.randint(-4, 1)
                windows[p] = (lo, lo + rng.randint(1, 6))
            fam, taken, masked = one_form_paths(monkeypatch, pf, ground, windows)
            paths.update(taken)
            assert fam == masked == eval_point_family(pf, ground, windows), \
                (pf, ground, windows)
        # every refusal is reached, and most bodies take the byte line
        assert set(paths) == {"one form", *REASONS}, paths
        assert paths["one form"] > sum(paths.values()) // 2, paths

    def test_fuzz_blocks(self, monkeypatch):
        paths, varied = Counter(), 0
        for seed in range(9_300_000, 9_300_240):
            rng = random.Random(seed)
            names = ["x", "y"] if rng.random() < 0.6 else ["x", "y", "z"]
            body = block_body(rng, names)
            fv = free_vars(body)
            if "x" not in fv:
                continue
            pf = PartitionedFormula(body, ("x",), tuple(sorted(fv - {"x"})))
            hints = block_hints(rng, body)
            lo = rng.randint(-6, 2)
            ground = (lo, lo + rng.randint(1, 9))
            windows = {}
            for p in pf.param_vars:
                lo = rng.randint(-4, 1)
                windows[p] = (lo, lo + rng.randint(1, 6))
            fam, taken, masked = one_form_paths(monkeypatch, pf, ground,
                                                windows, hints)
            paths.update(taken)
            assert fam == masked == reference_family(pf, ground, windows, hints), \
                (pf, ground, windows, hints)
            varied += taken == ["one form"] and len(fam.distinct_masks()) > 1
        # every block refusal is reached, most bodies take the byte line,
        # and many of those give families of more than one member
        assert set(BLOCK_REASONS) <= set(paths), paths
        assert paths["one form"] > sum(paths.values()) // 2, paths
        assert varied > 50, varied

    @pytest.mark.parametrize("f, reason, hints", [
        ("(forall p (= x (+ y p)))", "a forall or a negated exists", None),
        ("(not (exists p (and (= x (+ y p)) (<= 0 p))))",
         "a forall or a negated exists", None),
        ("(exists p (exists q (exists r (= x (+ y p q r)))))",
         "an exists block of more than two variables", None),
        ("(exists p (< x (+ y p)))",
         "a block body other than one equality and bounds", None),
        ("(exists p (and (= x (+ y p)) (= x (+ y (* 2 p)))))",
         "a block body other than one equality and bounds", None),
        ("(exists p (and (= x (+ y p)) (<= p y)))",
         "a block body other than one equality and bounds", None),
        ("(exists p (and (= x (+ y p)) (div 2 p)))",
         "a block body other than one equality and bounds", None),
        (Exists("p", parse("(exists p (= x (+ y p)))")),  # p rebound
         "a block body other than one equality and bounds", None),
        ("(and (<= x y) (exists p (and (<= 0 p) (<= p 3))))",
         "a block body other than one equality and bounds", None),
        ("(exists p (= (+ (* 2 x) (* 2 y)) p))",
         "a block equality's u-coefficient is not +-1", None),
        # 61 rows of u = p + 10^6*q cross the box, only two with a point
        ("(exists p (exists q (= (+ x y) (+ p (* 1000000 q)))))",
         "more rows or meets than box points", {"p": (-60, 0), "q": (0, 61)}),
        ("(and (or (= (+ x y) 0) (= (+ x y) 1) (= (+ x y) 2))"
         " (or (= (+ x y) 1) (= (+ x y) 2) (= (+ x y) 3)))",
         "more rows or meets than box points", None),
        # 5 + 3 + 2 marks of three classes over u in 0..4
        ("(or (<= (+ x y) 4) (div 2 (+ x y)) (div 3 (+ x y)))",
         "more marks than box points", None),
    ])
    def test_refusals(self, monkeypatch, f, reason, hints):
        # a box of 8 points, u = x + y over it 5 long
        f = parse(f, allow_div=True) if isinstance(f, str) else f
        pf = PartitionedFormula(f, ("x",), ("y",))
        hints = hints or dict.fromkeys(bound_vars(f), (0, 9))
        ground, windows = (0, 3), {"y": (0, 1)}
        with pytest.raises(NotOneForm, match=re.escape(reason)):
            one_form_line(f, ("y", "x"), (range(2), range(4)), hints)
        fam, taken, masked = one_form_paths(monkeypatch, pf, ground, windows,
                                            hints)
        assert taken == [reason]
        assert fam == masked == reference_family(pf, ground, windows, hints)

    def test_block_sides_past_2_63(self):
        # hint ranges of about 2^70 members, past what len() takes: the
        # rows cap refuses the block, and compile_masks the point cap
        f = parse("(exists p (exists q (= (+ x y) (+ p (* 3 q)))))")
        hints = {"p": (0, 1 << 70), "q": (-(1 << 70), 1 << 70)}
        with pytest.raises(NotOneForm, match="more rows or meets than box points"):
            one_form_line(f, ("y", "x"), (range(2), range(4)), hints)
        with pytest.raises(ResourceCapError, match="enumeration points"):
            compile_masks(f, ("y", "x"), (range(2), range(4)), hints)

    def test_overlapping_pieces_of_one_class_merge(self, monkeypatch):
        # three half-lines, 5 + 4 + 4 marks apart, are the 5 marks of u <= 4
        f = parse("(or (<= (+ x y) 4) (<= (+ x y) 3) (< (+ x y) 4))")
        pf = PartitionedFormula(f, ("x",), ("y",))
        ground, windows = (0, 3), {"y": (0, 1)}
        fam, taken, masked = one_form_paths(monkeypatch, pf, ground, windows)
        assert taken == ["one form"]
        assert fam == masked == reference_family(pf, ground, windows, {})

    @pytest.mark.parametrize("f", [
        "(or T (<= x y))", "(and F (<= x y))",
        "(or (< (+ x y) 2) (not (and T (<= 4 (+ x y)))))"])
    def test_constant_leaves(self, monkeypatch, f):
        # a T or F leaf is the whole line or none of it, negated or not
        pf = PartitionedFormula(parse(f), ("x",), ("y",))
        ground, windows = (0, 3), {"y": (0, 1)}
        fam, taken, masked = one_form_paths(monkeypatch, pf, ground, windows)
        assert taken == ["one form"]
        assert fam == masked == reference_family(pf, ground, windows, {})

    def test_block_without_a_hint(self):
        # the shape is one the line takes, so the missing hint is named,
        # also in an and part after an empty meet, since every part is
        # read; compile_masks raises the compiled route's error
        for text in ("(exists p (and (= x (+ y p)) (<= 0 p)))",
                     "(and (< x -100) (exists q (exists p (= x (+ y p q)))))"):
            f = parse(text)
            for hints in ({}, {"q": (0, 1)}):
                with pytest.raises(MissingHintError, match="no hint interval"):
                    one_form_line(f, ("y", "x"), (range(2), range(3)), hints)
                with pytest.raises(MissingHintError, match="no hint interval"):
                    compile_masks(f, ("y", "x"), (range(2), range(3)), hints)
            with pytest.raises(MissingHintError, match="'p'"):
                one_form_line(f, ("y", "x"), (range(2), range(3)), {"q": (0, 1)})

    def test_block_marks_its_rows(self):
        # u = x + 2y over y in 0..3, x in 0..4: the block is 1 + 3p + 5q,
        # p in 0..2 (its bound), q in 0..1 (its hint): 1, 4, 7, 6, 9, 12;
        # a bound that empties p empties the block
        f = parse("(exists p (exists q (and (= (+ x (* 2 y)) (+ 1 (* 3 p) (* 5 q)))"
                  " (< p 3))))")
        member = one_form_line(f, ("y", "x"), (range(4), range(5)),
                               {"p": (0, 9), "q": (0, 1)})
        got = {(y, x) for y in range(4) for x in range(5) if member((y,)) >> x & 1}
        assert got == {(y, x) for y in range(4) for x in range(5)
                       if x + 2 * y in (1, 4, 7, 6, 9, 12)}
        member = one_form_line(f, ("y", "x"), (range(4), range(5)),
                               {"p": (3, 9), "q": (0, 1)})
        assert [member((y,)) for y in range(4)] == [0] * 4

    @pytest.mark.parametrize("encode, d",
                             [(encode_naive, d) for d in range(1, 9)]
                             + [(encode_bridged, d) for d in range(1, 5)])
    def test_eliminated_encoders(self, monkeypatch, encode, d):
        pf, meta = encode(d)
        body = PartitionedFormula(eliminate_quantifiers(pf.formula),
                                  pf.object_vars, pf.param_vars)
        windows = {meta.param_var: meta.param_window}
        fam, taken, masked = one_form_paths(monkeypatch, body,
                                            meta.ground_window, windows)
        assert taken == ["one form"]
        assert fam == masked
        assert [m for _, m in fam.members] == [block_mask(d, y) for y in range(1 << d)]

    @pytest.mark.parametrize("text, ranges, hints", [
        ("(<= x y)", (range(0, 3), range(0)), None),  # an empty window
        ("(<= x y)", (range(0), range(0, 3)), None),  # an empty parameter range
        # a block of the naive encoder's shape over an empty window
        ("(exists p (exists q (and (= (+ x (* 2 y)) (+ 1 (* 3 p) (* 5 q))) (< p 3))))",
         (range(0, 4), range(0)), {"p": (0, 9), "q": (0, 1)}),
    ])
    def test_empty_box_is_refused(self, monkeypatch, text, ranges, hints):
        # the line refuses before it reads a range's end, and compile_masks
        # gives the compiled route's masks: all 0 over an empty window
        f = parse(text)
        with pytest.raises(NotOneForm, match="an empty box"):
            one_form_line(f, ("y", "x"), ranges, hints)
        got = compile_masks(f, ("y", "x"), ranges, hints)
        monkeypatch.setattr(evaluator, "one_form_line", refuse_one_form)
        want = compile_masks(f, ("y", "x"), ranges, hints)
        assert [got((y,)) for y in range(-1, 4)] == [want((y,)) for y in range(-1, 4)]
        if not ranges[-1]:
            assert [got((y,)) for y in range(-1, 4)] == [0] * 5

    def test_variable_outside_the_box_is_refused(self):
        # the line refuses, and compile_masks' own check reports it
        with pytest.raises(NotOneForm, match="outside the box"):
            one_form_line(parse("(< x q)"), ("y", "x"), (range(2), range(3)))
        with pytest.raises(EvalError, match=r"point missing variables: \['q'\]"):
            compile_masks(parse("(< x q)"), ("y", "x"), (range(2), range(3)))

    def test_quantifier_is_refused(self):
        # the first part is empty over the box, and the walk still reads
        # the existential after it and refuses it; the compiled plan needs
        # z's hint
        f = parse("(and (< x -100) (exists z (< x (+ y z))))")
        with pytest.raises(NotOneForm, match="a block body other than"):
            one_form_line(f, ("y", "x"), (range(2), range(3)))
        with pytest.raises(MissingHintError):
            compile_masks(f, ("y", "x"), (range(2), range(3)))
        assert compile_masks(f, ("y", "x"), (range(2), range(3)),
                             {"z": (0, 1)})((1,)) == 0

    def test_part_after_an_empty_meet_is_read(self, monkeypatch):
        # x < -100 is empty over the box, and y < x after it reads a second
        # form: the line refuses the body, and the compiled masks decide it
        f = parse("(and (< x -100) (< y x))")
        with pytest.raises(NotOneForm, match="atoms read through a second form"):
            one_form_line(f, ("y", "x"), (range(2), range(3)))
        pf = PartitionedFormula(f, ("x",), ("y",))
        ground, windows = (0, 2), {"y": (0, 1)}
        fam, taken, masked = one_form_paths(monkeypatch, pf, ground, windows)
        assert taken == ["atoms read through a second form"]
        assert fam == masked == reference_family(pf, ground, windows, {})


class TestConstructBoundedRoutes:
    """The benchmark's bounded verify inputs: naive families take the byte
    line, bridged ones (a four-variable block) the compiled route."""

    @pytest.mark.parametrize("encode, d", [(encode_naive, d) for d in (4, 6, 8)]
                             + [(encode_bridged, d) for d in (4, 5, 6)])
    def test_routes(self, monkeypatch, encode, d):
        pf, meta = encode(d)
        windows = {meta.param_var: meta.param_window}
        taken = []
        monkeypatch.setattr(evaluator, "one_form_line", recording(taken))
        if (encode, d) == (encode_bridged, 6):  # its nominal points
            with pytest.raises(ResourceCapError, match="enumeration points"):
                family_from_formula(pf, meta.ground_window, windows,
                                    hints=meta.hint_map())
        else:
            fam = family_from_formula(pf, meta.ground_window, windows,
                                      hints=meta.hint_map())
            assert [m for _, m in fam.members] == \
                [block_mask(d, y) for y in range(1 << d)]
        assert taken == ["one form" if encode is encode_naive
                         else "an exists block of more than two variables"]


def test_report_json_shape():
    fam = thresholds([0, 1, 2])
    rep = vc_dimension(fam)
    out = report_json(rep, fam, (0, 2), {"y": (0, 3)})
    assert out["vc_dim"] == 1
    assert out["ground_window"] == ["0", "2"]
    assert out["param_windows"] == {"y": ["0", "3"]}
    assert out["pi_table"][0] == [0, 1]
