"""Atom inventories and VC upper-bound certificates."""

import random
import time
from decimal import Decimal

import pytest

from pavc import upperbound
from pavc.evaluator import eliminate_quantifiers
from pavc.formula import PartitionedFormula, parse
from pavc.fuzz import random_partitioned
from pavc.generator import encode_naive
from pavc.upperbound import (
    AtomInventory,
    UpperBoundCertificate,
    UpperBoundError,
    atom_capacity,
    capacity_bound,
    certificate,
    certificate_report,
    inventory,
    upper_bound_via_qe,
)
from pavc.vclab import family_from_formula, vc_dimension


class TestAtomCapacity:
    def test_order_atoms_cost_one(self):
        f = parse("(and (< x 1) (<= x 2) (= x 3))")
        inv = inventory(f)
        assert [b for _, b in inv.entries] == [1, 1, 1]
        assert inv.num_inequality == 3
        assert inv.num_congruence == 0

    def test_congruence_costs_log_modulus(self):
        assert atom_capacity(parse("(div 2 x)", allow_div=True)) == 1
        assert atom_capacity(parse("(div 3 x)", allow_div=True)) == 1
        assert atom_capacity(parse("(div 8 x)", allow_div=True)) == 3
        assert atom_capacity(parse("(div 9 x)", allow_div=True)) == 3
        assert atom_capacity(parse("(div 1024 x)", allow_div=True)) == 10

    def test_duplicate_atoms_counted_once(self):
        f = parse("(or (and (< x y) (div 4 x)) (and (< x y) (div 4 x)))",
                  allow_div=True)
        inv = inventory(f)
        assert len(inv.entries) == 2
        assert inv.ell == 1 + 2

    def test_requires_quantifier_free(self):
        with pytest.raises(UpperBoundError):
            inventory(parse("(exists z (< z x))"))


class TestCapacityBound:
    def test_anchors(self):
        assert capacity_bound(0) == 0
        assert capacity_bound(1) == 1
        assert capacity_bound(2) == 5

    def test_defining_inequalities(self):
        for ell in range(1, 60):
            b = capacity_bound(ell)
            assert 2 ** b <= (b + 1) ** ell
            assert 2 ** (b + 1) > (b + 2) ** ell

    def test_monotone_in_ell(self):
        prev = 0
        for ell in range(0, 80):
            b = capacity_bound(ell)
            assert b >= prev
            prev = b

    def test_float_path_matches_exact(self):
        # straddle 4096, where an exact search used to hand over to floats,
        # and 65,536, and go well past both
        for ell in (4090, 4096, 4100, 5000, 65_535, 65_536, 65_537, 100_000):
            b = capacity_bound(ell)
            assert 2 ** b <= (b + 1) ** ell
            assert 2 ** (b + 1) > (b + 2) ** ell

    def test_every_gate_matches_exact_powers(self, monkeypatch):
        # every ell < 60, n < 400 through the gates as they are; then the
        # decimal gap (float gate wide open), then integer powers (both
        # open) deciding every n within 8 of each edge
        def wrong(cases):
            return [(n, ell) for n, ell in cases
                    if upperbound._holds(n, ell) != (2 ** n <= (n + 1) ** ell)]
        assert wrong([(n, ell) for ell in range(60) for n in range(400)]) == []
        edges = [(n, ell) for ell in range(60)
                 for n in range(max(0, capacity_bound(ell) - 8), capacity_bound(ell) + 9)]
        monkeypatch.setattr(upperbound, "_FLOAT_ERROR", 1.0)
        assert wrong(edges) == []
        monkeypatch.setattr(upperbound, "_DECIMAL_ERROR", Decimal(1))
        assert wrong(edges) == []

    @pytest.mark.parametrize("ell, bound", [(2_370_432, 61_322_891),
                                            (15_257_460, 437_985_335)])
    def test_large_edges_without_powers(self, ell, bound):
        # a gate much wider than the float error sends these edges to
        # integer powers of about 61 and 438 million bits (29 s at the first)
        start = time.perf_counter()
        assert capacity_bound(ell) == bound
        assert UpperBoundCertificate(ell, bound).check()
        assert time.perf_counter() - start < 1.0

    def test_negative_rejected(self):
        with pytest.raises(UpperBoundError):
            capacity_bound(-1)


class TestCertificate:
    def test_anchor_even_interval(self):
        pf = PartitionedFormula(
            parse("(exists z (and (= x (* 2 z)) (<= x y)))"), ("x",), ("y",))
        cert, inv, stats = upper_bound_via_qe(pf)
        assert cert.ell == 2
        assert cert.bound == 5
        assert cert.check()
        assert stats["atoms_after"] == 2
        assert inv.num_congruence == 1
        assert inv.num_inequality == 1

    def test_single_inequality(self):
        pf = PartitionedFormula(parse("(<= x y)"), ("x",), ("y",))
        cert, _, _ = upper_bound_via_qe(pf)
        assert cert.ell == 1
        assert cert.bound == 1

    def test_trivial_formula(self):
        inv = inventory(parse("T"))
        cert = certificate(inv)
        assert cert.ell == 0 and cert.bound == 0
        assert cert.check()

    def test_report_shape(self):
        inv = inventory(parse("(and (div 4 x) (< x y))", allow_div=True))
        cert = certificate(inv)
        rep = certificate_report(cert, inv, {"atoms_before": 2})
        assert rep["ell"] == 3
        assert rep["certificate_valid"]
        assert rep["num_congruence"] == 1
        assert len(rep["atoms"]) == 2
        assert not rep["atoms_truncated"]


class TestDominance:
    def test_generator_certificate_dominates_true_dimension(self):
        for d in (1, 2, 3):
            pf, meta = encode_naive(d)
            cert, _, _ = upper_bound_via_qe(pf)
            assert cert.bound >= d, (d, cert)

    def test_fuzzed_families_never_exceed_certificate(self):
        for i in range(60):
            rng = random.Random(600_000 + i)
            pf = random_partitioned(rng)
            qf = eliminate_quantifiers(pf.formula)
            cert = certificate(inventory(qf))
            fam = family_from_formula(
                pf, (0, 11),
                {v: (-4, 4) for v in pf.param_vars}, mode="qe")
            rep = vc_dimension(fam)
            assert not rep.capped
            assert rep.vc_dim <= cert.bound, (i, rep.vc_dim, cert)
