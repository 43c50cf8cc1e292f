"""Canonical continued fractions and their convergents."""

import math
import random

import pytest

from pavc.contfrac import (
    ContinuedFraction,
    ContinuedFractionError,
    Convergent,
    convergents,
    determinant_step,
    from_rational,
    to_rational,
)


def test_integer_case():
    cf = from_rational(2, 1)
    assert cf.terms == (2,)
    assert to_rational(cf) == (2, 1)


def test_anchor_45_over_16():
    cf = from_rational(45, 16)
    assert cf.terms == (2, 1, 4, 3)
    cons = convergents(cf)
    assert [c.as_tuple() for c in cons] == [(2, 1), (3, 1), (14, 5), (45, 16)]


def test_zero_and_small_values():
    assert from_rational(0, 5).terms == (0,)
    assert from_rational(1, 2).terms == (0, 2)
    # 1/1 folds to the single term 1, allowed only at length one
    assert from_rational(1, 1).terms == (1,)


def test_canonical_form_enforced():
    with pytest.raises(ContinuedFractionError):
        ContinuedFraction(())
    with pytest.raises(ContinuedFractionError):
        ContinuedFraction((-1, 2))
    with pytest.raises(ContinuedFractionError):
        ContinuedFraction((2, 0, 3))
    with pytest.raises(ContinuedFractionError):
        ContinuedFraction((2, 3, 1))  # trailing 1 is non-canonical
    ContinuedFraction((2, 1, 4, 3))


def test_bad_rational_inputs():
    with pytest.raises(ContinuedFractionError):
        from_rational(3, 0)
    with pytest.raises(ContinuedFractionError):
        from_rational(-3, 2)


def test_determinant_identity_alternates():
    cons = convergents(from_rational(45, 16))
    dets = [determinant_step(cons[k - 1], cons[k]) for k in range(1, len(cons))]
    assert dets == [1, -1, 1]


def test_euclid_never_ends_in_one():
    # Euclid's last quotient is >= 2 whenever there are >= 2 terms, so
    # ContinuedFraction's canonical-form check never rejects its output
    for p in range(400):
        for q in range(1, 400):
            g = math.gcd(p, q)
            assert to_rational(from_rational(p, q)) == (p // g, q // g)


def test_roundtrip_fuzz():
    rng = random.Random(314159)
    for _ in range(500):
        p = rng.randint(0, 10 ** 6)
        q = rng.randint(1, 10 ** 6)
        cf = from_rational(p, q)
        g = math.gcd(p, q)
        assert to_rational(cf) == (p // g, q // g)
        # canonical: no trailing 1 unless the whole fraction is the term 1
        if len(cf.terms) > 1:
            assert cf.terms[-1] >= 2
        assert all(a >= 1 for a in cf.terms[1:])
        assert cf.terms[0] >= 0


def test_convergents_properties_fuzz():
    rng = random.Random(271828)
    for _ in range(300):
        p = rng.randint(1, 10 ** 5)
        q = rng.randint(1, 10 ** 5)
        cf = from_rational(p, q)
        cons = convergents(cf)
        assert len(cons) == len(cf.terms)
        # last convergent is the reduced input
        g = math.gcd(p, q)
        assert cons[-1].as_tuple() == (p // g, q // g)
        # denominators strictly increase from the second convergent on
        for a, b in zip(cons, cons[1:]):
            assert b.q >= a.q
            assert math.gcd(b.p, b.q) == 1
        # successive determinants alternate between +1 and -1
        for k in range(1, len(cons)):
            assert determinant_step(cons[k - 1], cons[k]) == (-1) ** (k + 1)


def test_recurrence_matches_truncated_evaluation():
    rng = random.Random(161803)
    for _ in range(200):
        p = rng.randint(1, 99999)
        q = rng.randint(1, 99999)
        cf = from_rational(p, q)
        cons = convergents(cf)
        for k in range(len(cf.terms)):
            # evaluate the truncation a0 + 1/(a1 + 1/(...)) directly
            num, den = cf.terms[k], 1
            for a in reversed(cf.terms[:k]):
                num, den = a * num + den, num
            g = math.gcd(num, den)
            assert cons[k].as_tuple() == (num // g, den // g)


def test_convergent_is_frozen():
    c = Convergent(3, 1)
    with pytest.raises(AttributeError):
        c.p = 4
