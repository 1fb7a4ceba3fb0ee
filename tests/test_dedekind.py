import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dehnsurg
from dehnsurg.dedekind import dedekind_numerator
from dehnsurg import (
    LensSpace,
    dedekind_sum,
    lens_lambda,
    lens_op_homeomorphic,
    lens_tau_cg,
    sawtooth,
)


def brute_dedekind_sum(q, p):
    """Definitional oracle: sawtooth products summed with Fractions."""
    total = Fraction(0)
    for k in range(1, abs(p)):
        total += sawtooth(Fraction(k, p)) * sawtooth(Fraction(k * q, p))
    return (1 if p > 0 else -1) * total


def loop_dedekind_sum(q, p):
    """O(|p|) integer oracle: ((k/p))((kq/p)) = (2k - P)(2j - P) / (4P^2)
    with P = |p| and j = kq mod P, for the k with P not dividing kq."""
    pp = abs(p)
    qq = q % pp
    total = 0
    j = 0
    for k in range(1, pp):
        j += qq
        if j >= pp:
            j -= pp
        if j:
            total += (2 * k - pp) * (2 * j - pp)
    return Fraction((1 if p > 0 else -1) * total, 4 * pp * pp)


def test_sawtooth_values():
    assert sawtooth(2) == 0
    assert sawtooth(Fraction(1, 2)) == 0
    assert sawtooth(Fraction(1, 3)) == Fraction(-1, 6)
    assert sawtooth(Fraction(-1, 3)) == Fraction(1, 6)
    assert sawtooth(Fraction(7, 3)) == Fraction(-1, 6)
    assert sawtooth(0) == 0


def test_dedekind_examples():
    assert dedekind_sum(1, 2) == 0
    assert dedekind_sum(1, 3) == Fraction(1, 18)
    assert dedekind_sum(0, 1) == 0
    assert dedekind_sum(1, 5) == Fraction(1, 5)
    assert dedekind_sum(2, 5) == 0


def test_dedekind_rejects_zero_modulus():
    with pytest.raises(ValueError):
        dedekind_sum(3, 0)


def test_dedekind_matches_definitional_sum():
    for p in range(-40, 41):
        if p == 0:
            continue
        for q in range(-10, 11):
            assert dedekind_sum(q, p) == brute_dedekind_sum(q, p), (q, p)
    rng = random.Random(11)
    for _ in range(30):
        p = rng.randint(41, 2000) * rng.choice((1, -1))
        q = rng.randint(-3 * abs(p), 3 * abs(p))
        assert dedekind_sum(q, p) == brute_dedekind_sum(q, p), (q, p)


def test_dedekind_numerator_denominator():
    # den = 12|p|/gcd(q,p), so u = 12p s(q,p) for coprime q and p > 0.
    for p in range(-40, 41):
        if p == 0:
            continue
        for q in range(-50, 51):
            u, den = dedekind_numerator(q, p)
            assert den == 12 * abs(p) // math.gcd(q, p), (q, p)
            assert Fraction(u, den) == loop_dedekind_sum(q, p), (q, p)
    with pytest.raises(ValueError):
        dedekind_numerator(3, 0)


def test_dedekind_matches_integer_loop_at_large_p():
    # |p| log-uniform over 10^3 .. 3*10^6, across 2^20; both signs of p;
    # q sharing a factor with p; |q| far beyond |p|.
    rng = random.Random(12)
    cases = []
    for i in range(40):
        pp = round(10 ** rng.uniform(3, math.log10(3e6)))
        q = rng.randint(1, pp - 1)
        if i % 4 == 1:
            g = rng.choice((2, 3, 6, 10))
            pp = g * max(pp // g, 2)
            q = g * rng.randint(1, pp // g - 1)
        elif i % 4 == 2:
            q += rng.randint(10**9, 10**12) * pp + rng.randint(1, 10**6)
        cases.append((q * rng.choice((1, -1)), pp * rng.choice((1, -1))))
    assert any(abs(p) > 1 << 20 for _, p in cases)
    assert any(abs(p) < 1 << 20 for _, p in cases)
    assert {math.gcd(q, p) > 1 and p < 0 for q, p in cases} == {True, False}
    assert {abs(q) > abs(p) and p > 0 for q, p in cases} == {True, False}
    for q, p in cases:
        assert dedekind_sum(q, p) == loop_dedekind_sum(q, p), (q, p)


def test_import_does_not_load_numpy():
    src = str(Path(dehnsurg.__file__).resolve().parent.parent)
    code = "import sys, dehnsurg; sys.exit('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0


def test_periodicity_and_oddness():
    for p in range(2, 30):
        for q in range(-8, 9):
            assert dedekind_sum(q + p, p) == dedekind_sum(q, p)
            assert dedekind_sum(-q, p) == -dedekind_sum(q, p)
            assert dedekind_sum(q, -p) == -dedekind_sum(q, p)


def test_reciprocity_small_range_against_oracle():
    # s(q,p) + s(p,q) = -1/4 + (p/q + q/p + 1/(pq))/12, checked with both
    # summands coming from the definitional oracle as well.
    for p in range(2, 40):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            rhs = Fraction(-1, 4) + (Fraction(p, q) + Fraction(q, p) + Fraction(1, p * q)) / 12
            assert dedekind_sum(q, p) + dedekind_sum(p, q) == rhs
            assert brute_dedekind_sum(q, p) + brute_dedekind_sum(p, q) == rhs


def test_inversion_invariance():
    for p in range(2, 40):
        for q1 in range(1, p):
            if math.gcd(p, q1) != 1:
                continue
            q2 = pow(q1, -1, p)
            assert dedekind_sum(q1, p) == dedekind_sum(q2, p)


def test_integrality_small_range():
    for p in range(1, 60):
        for q in range(0, p):
            if math.gcd(p, q) != 1:
                continue
            val = 12 * p * lens_lambda(LensSpace(p, q if q else 0))
            assert val.denominator == 1


def test_lens_values():
    assert lens_lambda(LensSpace(1, 0)) == 0
    assert lens_lambda(LensSpace(2, 1)) == 0
    assert lens_lambda(LensSpace(3, 1)) == Fraction(1, 18)
    assert lens_tau_cg(LensSpace(2, 1)) == 0
    assert lens_tau_cg(LensSpace(3, 1)) == Fraction(-2, 3)
    assert lens_tau_cg(LensSpace(1, 0)) == 0


def test_lens_validation():
    with pytest.raises(ValueError):
        LensSpace(0, 1)
    with pytest.raises(ValueError):
        LensSpace(4, 2)


def test_orientation_reversal():
    for p in range(2, 40):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            assert lens_lambda(LensSpace(p, p - q)) == -lens_lambda(LensSpace(p, q))
            assert lens_lambda(LensSpace(-p, q)) == -lens_lambda(LensSpace(p, q))


def test_homeomorphism_examples():
    assert lens_op_homeomorphic(LensSpace(5, 1), LensSpace(5, 1))
    assert lens_op_homeomorphic(LensSpace(5, 2), LensSpace(5, 3))
    assert not lens_op_homeomorphic(LensSpace(7, 2), LensSpace(7, 3))
    assert lens_op_homeomorphic(LensSpace(-5, -2), LensSpace(5, 2))
    assert not lens_op_homeomorphic(LensSpace(5, 2), LensSpace(7, 2))


def test_homeomorphic_lens_spaces_share_invariants():
    for p in range(2, 30):
        spaces = [LensSpace(p, q) for q in range(1, p) if math.gcd(p, q) == 1]
        for l1 in spaces:
            for l2 in spaces:
                if lens_op_homeomorphic(l1, l2):
                    assert lens_lambda(l1) == lens_lambda(l2)
                    assert lens_tau_cg(l1) == lens_tau_cg(l2)


def descent_numerator(q, p):
    """Reciprocity-descent oracle for dedekind_numerator's (u, den): descend
    Euclid's chain, then climb back with one exact division per step."""
    if p == 0:
        raise ValueError("dedekind_sum requires p != 0")
    # s(q,p) = sign(p) s(q mod |p|, |p|), and s(gq, gb) = s(q, b).
    b = abs(p)
    a = q % b
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if a == 0:
        return 0, 12 * b
    # U(a,b) = 12b s(a,b) is an integer.  Reciprocity gives
    # a U(a,b) = a^2 + b^2 + 1 - 3ab - b U(b mod a, a), down to
    # U(1,b) = (b-1)(b-2); descend like Euclid, then climb back up.
    descent = []
    while a > 1:
        descent.append((a, b))
        a, b = b % a, a
    u = (b - 1) * (b - 2)
    for a, b in reversed(descent):
        u = (a * a + b * b + 1 - 3 * a * b - b * u) // a
    return (u if p > 0 else -u), 12 * b


def euclid_length(a, b):
    """The number n of Euclid's quotients on (b, a)."""
    n = 0
    while a:
        a, b, n = b % a, a, n + 1
    return n


def test_forward_form_matches_the_definition_on_small_coprime_pairs():
    pairs = [(a, b) for b in range(2, 60) for a in range(1, b) if math.gcd(a, b) == 1]
    assert len(pairs) == 1085
    for a, b in pairs:
        u, den = dedekind_numerator(a, b)
        assert den == 12 * b and Fraction(u, den) == brute_dedekind_sum(a, b), (a, b)


def test_forward_form_matches_the_descent_at_large_p():
    rng = random.Random(23)
    for _ in range(2000):
        p = rng.randint(1, 10 ** rng.randint(1, 12)) * rng.choice((1, -1))
        q = rng.randint(-(10**15), 10**15)
        if rng.random() < 0.2:  # a common factor of q and p
            g = rng.randint(2, 1000)
            q, p = g * q, g * p
        assert dedekind_numerator(q, p) == descent_numerator(q, p), (q, p)


def test_forward_form_matches_the_descent_on_fibonacci_pairs():
    # Consecutive Fibonacci numbers have the longest Euclid chains for their
    # size, and n runs through both parities as the index grows.
    fib = [0, 1]
    while len(fib) <= 301:
        fib.append(fib[-1] + fib[-2])
    parities = set()
    for k in range(3, 301):
        a, b = fib[k], fib[k + 1]
        parities.add(euclid_length(a, b) % 2)
        for q, p in ((a, b), (-a, b), (a, -b), (fib[k - 1], b), (a + 7 * b, b)):
            assert dedekind_numerator(q, p) == descent_numerator(q, p), (k, q, p)
    assert parities == {0, 1}
    assert euclid_length(fib[299], fib[300]) == 298
