import math
import random
from fractions import Fraction

import mpmath
import pytest

from dehnsurg.cyclotomic import (
    RealCyclotomicField,
    _generator_enclosure,
    cos_minimal_polynomial,
)
from dehnsurg.knots import cyclotomic_polynomial


def euler_phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_cyclotomic_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_product_is_x_n_minus_1():
    # prod_{d | 12} Phi_d = x^12 - 1
    prod = [1]
    for d in (1, 2, 3, 4, 6, 12):
        phi = cyclotomic_polynomial(d)
        new = [0] * (len(prod) + len(phi) - 1)
        for i, a in enumerate(prod):
            for j, b in enumerate(phi):
                new[i + j] += a * b
        prod = new
    assert prod == [-1] + [0] * 11 + [1]


def test_cos_minimal_polynomials():
    assert cos_minimal_polynomial(5) == (-1, 1, 1)
    assert cos_minimal_polynomial(8) == (-2, 0, 1)
    assert cos_minimal_polynomial(12) == (-3, 0, 1)
    assert cos_minimal_polynomial(16) == (2, 0, -4, 0, 1)
    assert cos_minimal_polynomial(20) == (5, 0, -5, 0, 1)
    assert cos_minimal_polynomial(7) == (-1, -2, 1, 1)  # x^3 + x^2 - 2x - 1


def test_cos_minimal_polynomial_degree():
    # Monic of degree phi(n)/2, vanishing at every conjugate 2cos(2pi k/n).
    with mpmath.workdps(100):
        for n in range(3, 121):
            psi = cos_minimal_polynomial(n)
            assert len(psi) - 1 == euler_phi(n) // 2 and psi[-1] == 1, n
            for k in range(1, n):
                if math.gcd(k, n) == 1:
                    x = 2 * mpmath.cos(2 * mpmath.pi * k / n)
                    assert abs(mpmath.polyval(psi[::-1], x)) < mpmath.mpf(10) ** -50, (n, k)


def test_generator_enclosure_brackets_mpmath_interval_cosine():
    for prec in (64, 256, 1024):
        ctx = mpmath.ctx_iv.MPIntervalContext()
        ctx.prec = prec + 64  # the dyadic ends below are exact at this precision
        for n in range(3, 201):
            lo, hi = _generator_enclosure(n, prec)
            u = 2 * ctx.cos(2 * ctx.pi / n)
            assert ctx.mpf(lo.numerator) / lo.denominator <= u, (n, prec)
            assert u <= ctx.mpf(hi.numerator) / hi.denominator, (n, prec)
    # The error bound grows with the number of series terms, linearly in prec.
    precs = [64 << i for i in range(5)]
    for n in range(3, 201):
        widths = [hi - lo for lo, hi in (_generator_enclosure(n, prec) for prec in precs)]
        assert all(b < a for a, b in zip(widths, widths[1:])), n
        assert all(w * (1 << prec) < 32 * prec for w, prec in zip(widths, precs)), n


def test_generator_satisfies_modulus():
    for n in (8, 12, 20, 28, 36):
        field = RealCyclotomicField(n)
        u = field.generator()
        acc = field.zero()
        power = field.one()
        for c in field.modulus:
            acc = acc + int(c) * power
            power = power * u
        assert acc.is_zero()


def test_two_cos_multiple_against_floats():
    for n in (8, 12, 20, 28, 40):
        field = RealCyclotomicField(n)
        for k in range(0, n + 3):
            elem = field.two_cos_multiple(k)
            target = 2 * math.cos(2 * math.pi * k / n)
            if abs(target) < 1e-9:
                assert elem.is_zero()
            else:
                assert elem.sign() == (1 if target > 0 else -1)


def test_field_arithmetic_and_inverse():
    rng = random.Random(7)
    for n in (8, 20, 28):
        field = RealCyclotomicField(n)
        u = field.generator()
        for _ in range(20):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(field.degree)]
            elem = field.zero()
            power = field.one()
            for c in coeffs:
                elem = elem + c * power
                power = power * u
            if elem.is_zero():
                continue
            assert (elem * elem.inverse() - 1).is_zero()
            assert (elem - elem).is_zero()
            assert (elem + (-elem)).is_zero()


def test_inverse_of_zero_rejected():
    field = RealCyclotomicField(8)
    with pytest.raises(ZeroDivisionError):
        field.zero().inverse()


def test_sign_certification_near_tight_rationals():
    # Pell convergents straddle sqrt(2) = 2cos(2*pi/8) very closely; the
    # adaptive refinement must still certify the right side.
    field = RealCyclotomicField(8)
    u = field.generator()
    below = Fraction(239, 169)
    above = Fraction(577, 408)
    assert (u - below).sign() == 1
    assert (u - above).sign() == -1
    assert (u * u - 2).sign() == 0


def test_sign_matches_float_evaluation():
    rng = random.Random(11)
    for n in (8, 12, 20, 28):
        field = RealCyclotomicField(n)
        x = 2 * math.cos(2 * math.pi / n)
        for _ in range(30):
            coeffs = [rng.randint(-5, 5) for _ in range(field.degree)]
            elem = field.zero()
            power = field.one()
            val = 0.0
            for c in coeffs:
                elem = elem + c * power
                power = power * field.generator()
            for c in reversed(coeffs):
                val = val * x + c
            if elem.is_zero():
                assert abs(val) < 1e-7
            elif abs(val) > 1e-7:
                assert elem.sign() == (1 if val > 0 else -1)
