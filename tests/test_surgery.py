import math
from fractions import Fraction

import pytest

from dehnsurg import (
    AmbientData,
    LensSpace,
    LongitudeData,
    PeripheralClass,
    Slope,
    casson_gordon_surgered,
    casson_walker_surgered,
    dedekind_sum,
    lens_lambda,
    walker_correction,
    walker_general,
)

S3 = AmbientData()
MERIDIAN = PeripheralClass(1, 0)
STD_LONGITUDE = LongitudeData(1)


def test_slope_construction():
    assert Slope.of(-4, -6) == Slope(2, 3)
    assert Slope.of(3, 0) == Slope(1, 0)
    assert Slope.of(-3, 0) == Slope(1, 0)
    assert Slope.parse("inf") == Slope(1, 0)
    assert Slope.parse("-7/3") == Slope(-7, 3)
    assert Slope.parse("5") == Slope(5, 1)
    assert str(Slope(-7, 3)) == "-7/3"
    assert Slope(1, 0).is_infinite
    assert Slope(-2, 1).negated() == Slope(2, 1)
    assert Slope(1, 0).negated() == Slope(1, 0)
    with pytest.raises(ValueError):
        Slope(2, 4)
    with pytest.raises(ValueError):
        Slope(2, -1)
    with pytest.raises(ValueError):
        Slope.of(0, 0)


def test_infinite_slope_has_one_encoding():
    # 2/0 is not reduced, and -1/0, which is, is refused as a second
    # spelling of 1/0.
    with pytest.raises(ValueError, match="not reduced"):
        Slope(2, 0)
    with pytest.raises(ValueError, match="the infinite slope is encoded as 1/0"):
        Slope(-1, 0)


def test_walker_correction_vanishes_on_diagonal():
    for cls in (PeripheralClass(3, 1), PeripheralClass(-2, 5), PeripheralClass(1, 1)):
        for d in (1, 2, 5):
            assert walker_correction(cls, cls, LongitudeData(d)) == 0


def test_walker_correction_calibration():
    assert walker_correction(PeripheralClass(3, 1), MERIDIAN, STD_LONGITUDE) == Fraction(1, 18)
    for p in range(-20, 21):
        for q in range(1, 21):
            if p == 0 or math.gcd(p, q) != 1:
                continue
            corr = walker_correction(PeripheralClass(p, q), MERIDIAN, STD_LONGITUDE)
            assert corr == lens_lambda(LensSpace(p, q))


def test_walker_correction_rejects_degenerate_classes():
    with pytest.raises(ValueError):
        walker_correction(PeripheralClass(0, 1), MERIDIAN, STD_LONGITUDE)
    with pytest.raises(ValueError):
        walker_correction(PeripheralClass(2, 1), PeripheralClass(0, 3), STD_LONGITUDE)
    with pytest.raises(ValueError):
        walker_correction(PeripheralClass(2, 4), MERIDIAN, STD_LONGITUDE)


def test_casson_walker_examples():
    assert casson_walker_surgered(S3, 0, Slope(3, 1)) == Fraction(1, 18)
    assert casson_walker_surgered(S3, 2, Slope(1, 1)) == -2
    assert casson_walker_surgered(S3, 2, Slope.of(1, 2)) == -4
    ambient = AmbientData(Fraction(5, 12), "Y")
    assert casson_walker_surgered(ambient, 9, Slope(1, 0)) == Fraction(5, 12)
    with pytest.raises(ValueError):
        casson_walker_surgered(S3, 2, Slope(0, 1))


def test_casson_gordon_examples():
    assert casson_gordon_surgered(0, Slope(3, 1)) == Fraction(-2, 3)
    assert casson_gordon_surgered(-2, Slope(2, 1)) == 2
    for q in range(1, 9):
        assert casson_gordon_surgered(0, Slope(1, q)) == 0
    with pytest.raises(ValueError):
        casson_gordon_surgered(0, Slope(0, 1))


def test_surgery_formulas_match_the_fraction_chains():
    # Each value is built as one fraction from Dedekind integers; it must
    # equal the chain of Fraction operations that defines it, in value and
    # in type.
    slopes = [Slope(1, 0)]
    slopes += [Slope(p, q) for p in range(-60, 61) for q in range(1, 61) if p and math.gcd(p, q) == 1]
    ambients = [AmbientData(lam, "Y") for lam in (0, 3, Fraction(-5, 7))]
    for slope in slopes:
        p, q = slope.p, slope.q
        s, q_over_p = dedekind_sum(q, p), Fraction(q, p)
        for delta2 in range(-6, 7):
            for ambient in ambients:
                want = ambient.lambda_value + s - q_over_p * delta2
                got = casson_walker_surgered(ambient, delta2, slope)
                assert got == want and type(got) is type(want), (ambient, slope, delta2, got)
            sigma = delta2
            want = -4 * p * s - sigma
            got = casson_gordon_surgered(sigma, slope)
            assert got == want and type(got) is type(want), (slope, sigma, got)


def test_walker_general_reduces_to_lens_calibration():
    for p in range(-50, 51):
        for q in range(1, 51):
            if p == 0 or math.gcd(p, q) != 1:
                continue
            value = walker_general(0, 0, PeripheralClass(p, q), MERIDIAN, STD_LONGITUDE)
            assert value == lens_lambda(LensSpace(p, q))


def test_walker_general_matches_surgery_formula():
    for p in range(-50, 51):
        for q in range(1, 51):
            if p == 0 or math.gcd(p, q) != 1:
                continue
            for delta2 in range(-4, 5):
                general = walker_general(0, delta2, PeripheralClass(p, q), MERIDIAN, STD_LONGITUDE)
                direct = casson_walker_surgered(S3, delta2, Slope.of(p, q))
                assert general == direct


def test_walker_general_trivial_cases():
    a = PeripheralClass(7, 2)
    assert walker_general(Fraction(3, 4), 11, a, a, LongitudeData(3)) == Fraction(3, 4)
    assert walker_general(0, 2, PeripheralClass(1, 1), MERIDIAN, STD_LONGITUDE) == -2


@pytest.mark.parametrize("lam", [0.1, "1/3", True])
def test_walker_general_refuses_inexact_lambda(lam):
    # Same check as AmbientData: a float, a string or a bool is never read as lambda.
    with pytest.raises(ValueError) as info:
        walker_general(lam, 0, MERIDIAN, MERIDIAN, STD_LONGITUDE)
    assert str(info.value) == f"lambda_at_b must be an int or a Fraction, got {lam!r}"


@pytest.mark.parametrize("lam", [0, 5, Fraction(3, 4)])
def test_walker_general_adds_exact_lambda_as_given(lam):
    # <a, b> = 0 and the two Dedekind terms cancel, so the value is lambda.
    value = walker_general(lam, 0, MERIDIAN, MERIDIAN, STD_LONGITUDE)
    assert value == lam and type(value) is Fraction


def test_equivalent_slope_sanity():
    # q1*q2 = 1 (mod p) gives equal lambda and tau when delta2 = 0 and the
    # signature inputs agree (the unknot's truly cosmetic pairs).
    for p in range(2, 30):
        for q1 in range(1, p):
            if math.gcd(p, q1) != 1:
                continue
            q2 = pow(q1, -1, p)
            s1, s2 = Slope(p, q1), Slope(p, q2)
            assert casson_walker_surgered(S3, 0, s1) == casson_walker_surgered(S3, 0, s2)
            assert casson_gordon_surgered(5, s1) == casson_gordon_surgered(5, s2)


def test_integrality_of_surgered_casson_walker():
    # 12 |p| lambda is an integer when lambda_Y is in (1/12)Z.
    ambient = AmbientData(Fraction(7, 12), "Y")
    for p in range(-20, 21):
        for q in range(1, 11):
            if p == 0 or math.gcd(p, q) != 1:
                continue
            for delta2 in (-3, 0, 2):
                val = casson_walker_surgered(ambient, delta2, Slope.of(p, q))
                assert (12 * abs(p) * val).denominator == 1


def test_longitude_and_ambient_helpers():
    with pytest.raises(ValueError):
        LongitudeData(0)
    amb = AmbientData(Fraction(1, 2), "Y")
    neg = amb.negated()
    assert neg.lambda_value == Fraction(-1, 2)
    assert neg.name == "-Y"
