"""Independent reference computations used to check the package's outputs.

None of these call the code the benchmark times.  Dedekind sums come from
the reciprocity law, Alexander polynomials from Bareiss determinants at
integer points followed by interpolation, and Tristram-Levine signatures
from floating-point eigenvalues, which are accepted only when every
eigenvalue is well away from zero.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Smallest |eigenvalue| for which a floating-point signature is trusted.
FLOAT_MARGIN = 1e-6


def dedekind_reciprocity(q: int, p: int) -> Fraction:
    """s(q, p) by the Euclidean recursion on Dedekind reciprocity.

    For coprime a, b > 0: s(a, b) + s(b, a) = (a/b + b/a + 1/(ab))/12 - 1/4,
    and s(1, b) = (b - 1)(b - 2)/(12 b).  Negative p flips the sign.
    """
    if p == 0:
        raise ValueError("p must be nonzero")
    sign = 1 if p > 0 else -1
    b = abs(p)
    a = q % b
    if a == 0 or b == 1:
        return Fraction(0)
    g = math.gcd(a, b)
    a, b = a // g, b // g
    total = Fraction(0)
    flip = 1
    while a > 1:
        total += flip * (Fraction(a * a + b * b + 1, 12 * a * b) - Fraction(1, 4))
        flip = -flip
        a, b = b % a, a
    total += flip * Fraction((b - 1) * (b - 2), 12 * b)
    return sign * total


def bareiss_det(rows) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1] if n else 1


def alexander_coefficients(entries) -> tuple[int, tuple[int, ...]]:
    """(a0, (a1, a2, ...)) of the normalized Alexander polynomial of a
    Seifert matrix, from det(A - t A^T) at t = 0 .. n and interpolation."""
    n = len(entries)
    if n == 0:
        return 1, ()
    values = []
    for t in range(n + 1):
        values.append(
            bareiss_det([[entries[i][j] - t * entries[j][i] for j in range(n)] for i in range(n)])
        )
    # Newton divided differences on the nodes 0 .. n, then expand.
    coef = [Fraction(v) for v in values]
    for level in range(1, n + 1):
        for i in range(n, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / level
    poly = [Fraction(0)] * (n + 1)
    for k in range(n, -1, -1):
        # poly = poly * (t - k) + coef[k]
        shifted = [Fraction(0)] + poly[:-1]
        poly = [s - k * c for s, c in zip(shifted, poly)]
        poly[0] += coef[k]
    c = [int(x) for x in poly]
    if any(Fraction(x) != y for x, y in zip(c, poly)):
        raise ArithmeticError("non-integral Alexander coefficients")
    if any(c[i] != c[n - i] for i in range(n + 1)):
        raise ArithmeticError("det(A - t A^T) is not palindromic")
    half = n // 2
    higher = [c[half + j] for j in range(1, half + 1)]
    while higher and higher[-1] == 0:
        higher.pop()
    return c[half], tuple(higher)


def delta2(higher) -> int:
    """Second derivative at 1 of a0 + sum a_j (T^j + T^-j)."""
    return 2 * sum(c * j * j for j, c in enumerate(higher, start=1))


def alexander_vanishes_on_unit_roots(a0: int, higher, m: int) -> bool:
    """Whether the polynomial vanishes at some exp(2 pi i r/m), 0 < r < m.

    Floating point is safe here: this only steers input generation away from
    signature jump points, and values at non-roots of these small integer
    polynomials are far from zero.
    """
    for r in range(1, m):
        x = 2 * math.pi * r / m
        value = a0 + sum(2 * c * math.cos(j * x) for j, c in enumerate(higher, start=1))
        if abs(value) < 1e-9:
            return True
    return False


def float_signature_total(entries, m: int) -> int | None:
    """Sum of Tristram-Levine signatures at r/m, r = 1 .. m-1, from
    eigenvalues of (1 - conj(xi)) A + (1 - xi) A^T; None when any
    eigenvalue is too close to zero to trust its sign."""
    if not entries:
        return 0
    a = np.array(entries, dtype=complex)
    total = 0
    for r in range(1, m):
        xi = np.exp(2j * np.pi * r / m)
        ev = np.linalg.eigvalsh((1 - np.conj(xi)) * a + (1 - xi) * a.T)
        if float(np.abs(ev).min()) < FLOAT_MARGIN:
            return None
        total += int((ev > 0).sum() - (ev < 0).sum())
    return total
