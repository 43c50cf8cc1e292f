"""Set families, shattering, VC-dimension, and the shatter function."""

import random
from itertools import combinations

import pytest

from pavc import vclab
from pavc.fuzz import random_family
from pavc.generator import encode_bridged, encode_naive, lex_subset
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
        two_obj = PartitionedFormula(parse("(< x y)"), ("x", "y"), ())
        with pytest.raises(VcLabError):
            family_from_formula(two_obj, (0, 1), {})


def test_report_json_shape():
    fam = thresholds([0, 1, 2])
    rep = vc_dimension(fam)
    out = report_json(rep, fam, (0, 2), {"y": (0, 3)})
    assert out["vc_dim"] == 1
    assert out["ground_window"] == ["0", "2"]
    assert out["param_windows"] == {"y": ["0", "3"]}
    assert out["pi_table"][0] == [0, 1]
