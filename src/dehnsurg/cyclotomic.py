"""The real cyclotomic fields Q(2cos(2pi/N)): the tests' exact oracle for
the signatures that `knots` computes.  The runtime never imports this
module; it takes its cyclotomic polynomials and rigorous fixed-point
cosines from `knots`, and adds the polynomial arithmetic, the minimal
polynomials of 2cos(2pi/N) and the fields themselves.

Field elements are polynomials in u = 2cos(2pi/N) reduced modulo the
minimal polynomial of u, with Fraction coefficients, so comparison with
zero is decided exactly.  Signs of nonzero elements are certified by
evaluating the polynomial on a shrinking rational interval enclosure of u;
the enclosure comes from `knots._cos_fixed`, whose error bound is proved,
and every subsequent interval operation is exact over Fractions, so a
verdict is never the product of rounding.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .knots import _cos_fixed, _trim, cyclotomic_polynomial

__all__ = [
    "RealCyclotomicField",
    "FieldElement",
    "cos_minimal_polynomial",
]


# ---------------------------------------------------------------------------
# Dense polynomial helpers; coefficient lists run low degree to high.


def _poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _trim(out)


def _poly_add(a: list, b: list) -> list:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for j, y in enumerate(b):
        out[j] += y
    return _trim(out)


def _poly_sub(a: list, b: list) -> list:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for j, y in enumerate(b):
        out[j] -= y
    return _trim(out)


def _in_two_cos(a0: int, higher) -> list:
    """a0 + sum_j higher[j-1] * 2cos(j theta) as an integer polynomial in
    x = 2cos(theta), from 2cos(j theta) = x * 2cos((j-1) theta) - 2cos((j-2) theta)."""
    out = [a0]
    prev, cur = [2], [0, 1]
    for c in higher:
        out = _poly_add(out, [c * x for x in cur])
        prev, cur = cur, _poly_sub(_poly_mul([0, 1], cur), prev)
    return out


@lru_cache(maxsize=None)
def cos_minimal_polynomial(n: int) -> tuple[int, ...]:
    """Minimal polynomial of u = 2cos(2pi/n) over Q, monic, for n >= 3.

    Phi_n is palindromic of even degree phi(n) = 2h, so at z = e^(i theta)
    z^-h Phi_n(z) = Phi_n[h] + sum_j Phi_n[h+j] * 2cos(j theta), a monic
    polynomial of degree h in 2cos(theta) that vanishes at u.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    phi = cyclotomic_polynomial(n)
    h = (len(phi) - 1) // 2
    return tuple(_in_two_cos(phi[h], phi[h + 1 :]))


@lru_cache(maxsize=None)
def _generator_enclosure(n: int, prec: int) -> tuple[Fraction, Fraction]:
    """Rational interval [lo, hi] containing 2cos(2pi/n), n >= 3, of width
    a small multiple of 2^-prec.  For n = 3 the angle is past pi/2, where
    the series does not run, and cos(2pi/3) = -cos(pi/3)."""
    if n == 3:
        c, e = _cos_fixed(1, 3, prec)
        c = -c
    else:
        c, e = _cos_fixed(2, n, prec)
    return Fraction(2 * (c - e), 1 << prec), Fraction(2 * (c + e), 1 << prec)


_MAX_SIGN_PREC = 1 << 15


class FieldElement:
    """An element of Q(2cos(2pi/n)), reduced modulo the minimal polynomial."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "RealCyclotomicField", coeffs):
        self.field = field
        self.coeffs = field._reduce(coeffs)

    def _coerce(self, other):
        """other as an element of this field: an element of it, or an int or Fraction."""
        return other if isinstance(other, FieldElement) else self.field.scalar(other)

    def __add__(self, other):
        return FieldElement(self.field, _poly_add(self.coeffs, self._coerce(other).coeffs))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, [-x for x in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        return FieldElement(self.field, _poly_mul(self.coeffs, self._coerce(other).coeffs))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.coeffs

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse via extended Euclid modulo the minimal poly."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        r0 = [Fraction(c) for c in self.field.modulus]
        r1 = list(self.coeffs)
        s0: list = []
        s1: list = [Fraction(1)]
        while r1:
            q, r = _frac_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        # gcd(modulus, self) = r0; the modulus is irreducible so r0 is a
        # nonzero constant and s0 * self = r0 (mod modulus).
        if len(r0) != 1:
            raise ArithmeticError("element not invertible: shares a factor with modulus")
        c = r0[0]
        return FieldElement(self.field, [x / c for x in s0])

    def sign(self) -> int:
        """Certified sign: -1, 0, or +1.  Zero is decided exactly."""
        if self.is_zero():
            return 0
        prec = 64
        coeffs = self.coeffs
        while prec <= _MAX_SIGN_PREC:
            lo, hi = _generator_enclosure(self.field.order, prec)
            rlo = rhi = Fraction(coeffs[-1])
            for c in reversed(coeffs[:-1]):
                p1, p2, p3, p4 = rlo * lo, rlo * hi, rhi * lo, rhi * hi
                rlo = min(p1, p2, p3, p4) + c
                rhi = max(p1, p2, p3, p4) + c
            if rlo > 0:
                return 1
            if rhi < 0:
                return -1
            prec *= 2
        raise RuntimeError("sign certification failed to converge on a nonzero element")


def _frac_divmod(a: list, b: list) -> tuple[list, list]:
    """Division with remainder over Q[x]."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(_trim(a)) >= len(b):
        a = _trim(a)
        d = len(a) - len(b)
        c = a[-1] / b[-1]
        q[d] = c
        for j, y in enumerate(b):
            a[d + j] -= c * y
        a.pop()
    return _trim(q), _trim(a)


class RealCyclotomicField:
    """The field Q(u), u = 2cos(2pi/n), with exact arithmetic and signs."""

    _instances: dict = {}

    def __new__(cls, n: int):
        if n not in cls._instances:
            inst = super().__new__(cls)
            inst.order = n
            inst.modulus = cos_minimal_polynomial(n)
            inst.degree = len(inst.modulus) - 1
            cls._instances[n] = inst
        return cls._instances[n]

    def _reduce(self, coeffs) -> tuple:
        work = [Fraction(c) for c in coeffs]
        deg = self.degree
        for i in range(len(work) - 1, deg - 1, -1):
            c = work[i]
            if c:
                for j, m in enumerate(self.modulus[:-1]):
                    if m:
                        work[i - deg + j] -= c * m
            work.pop()
        while work and work[-1] == 0:
            work.pop()
        return tuple(work)

    def zero(self) -> FieldElement:
        return FieldElement(self, [])

    def one(self) -> FieldElement:
        return FieldElement(self, [1])

    def scalar(self, c) -> FieldElement:
        return FieldElement(self, [Fraction(c)])

    def generator(self) -> FieldElement:
        return FieldElement(self, [0, 1])

    def two_cos_multiple(self, k: int) -> FieldElement:
        """The element 2cos(2pi*k/n), 2cos(k*theta) as a polynomial in u."""
        k = abs(k) % self.order
        if k == 0:
            return self.scalar(2)
        return FieldElement(self, _in_two_cos(0, [0] * (k - 1) + [1]))
