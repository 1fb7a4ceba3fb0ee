"""Exact sawtooth and Dedekind sums, and closed-form lens-space invariants.

All arithmetic in this module is exact: values are ``fractions.Fraction``
(arbitrary precision), never floats.  The Dedekind sum s(q,p) is defined
by a sum over k = 1 .. |p|-1, but it is computed in O(log |p|) integer
steps, one forward pass over Euclid's quotients (Barkan-Hickerson-Knuth).
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._value import Value

__all__ = [
    "LensSpace",
    "sawtooth",
    "dedekind_numerator",
    "dedekind_sum",
    "lens_lambda",
    "lens_tau_cg",
    "lens_op_homeomorphic",
]


def sawtooth(x) -> Fraction:
    """The sawtooth function ((x)): x - floor(x) - 1/2, or 0 at integers."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - math.floor(x) - Fraction(1, 2)


def dedekind_numerator(q: int, p: int) -> tuple[int, int]:
    """Integers u and den = 12|p|/gcd(q,p) with s(q,p) = u/den, so that
    U = 12p s(q,p) is u itself for coprime q and p > 0."""
    if p == 0:
        raise ValueError("dedekind_sum requires p != 0")
    # s(q,p) = sign(p) s(q mod |p|, |p|), and s(gq, gb) = s(q, b).
    b = abs(p)
    a = q % b
    g = math.gcd(a, b)
    a, b = a // g, b // g
    # U(a,b) = 12b s(a,b) = b (c_1 - c_2 + c_3 - ...) + a + (a^-1 mod b)
    # - (3b if n is odd, else b), c_1 .. c_n Euclid's quotients on (b, a),
    # taken two a turn to fix each one's sign.  h, k hold the numerators of
    # b/a's convergents: a^-1 mod b is h_{n-2} for odd n, b - h_{n-2} for even.
    t, x, y, h, k = 0, b, a, 0, 1
    while y:
        c, x = x // y, x % y
        if not x:  # n is odd, and a^-1 = k
            t, h = t + c - 3, -k
            break
        h += c * k
        d, y = y // x, y % x
        t, k = t + c - d, k + d * h
    u = b * t + a - h  # for even n, a^-1 = b - h
    return (u if p > 0 else -u), 12 * b


def dedekind_sum(q: int, p: int) -> Fraction:
    """Dedekind sum s(q,p) = sign(p) * sum_{k=1}^{|p|-1} ((k/p))((kq/p)).

    Exact for arbitrary integers q and any nonzero p; coprimality is not
    required (terms with p | kq vanish).  Satisfies s(q+p,p) = s(q,p) and
    s(-q,p) = -s(q,p).
    """
    return Fraction(*dedekind_numerator(q, p))


class LensSpace(Value):
    """The lens space L(p,q), the p/q surgery on the unknot; gcd(p,q) = 1."""

    _fields = ("p", "q")

    def __init__(self, p: int, q: int):
        self._set_fields(p, q)
        if p == 0:
            raise ValueError("lens space needs p != 0")
        if math.gcd(p, q) != 1:
            raise ValueError(f"L({p},{q}): p and q must be coprime")

    def normalized(self) -> tuple[int, int]:
        """Return (|p|, q mod |p|), identifying L(p,q) with L(-p,-q)."""
        pp = abs(self.p)
        qq = self.q if self.p > 0 else -self.q
        return pp, qq % pp


def lens_lambda(lens: LensSpace) -> Fraction:
    """Casson-Walker invariant of L(p,q): equals s(q,p)."""
    return dedekind_sum(lens.q, lens.p)


def lens_tau_cg(lens: LensSpace) -> Fraction:
    """Total Casson-Gordon invariant of L(p,q): equals -4p * s(q,p)."""
    return -4 * lens.p * dedekind_sum(lens.q, lens.p)


def lens_op_homeomorphic(lens1: LensSpace, lens2: LensSpace) -> bool:
    """Orientation-preserving homeomorphism test for two lens spaces.

    L(p,q1) and L(p,q2) are orientation-preservingly homeomorphic iff
    q2 = q1 or q1*q2 = 1 (mod p), after identifying L(p,q) with L(-p,-q).
    """
    p1, q1 = lens1.normalized()
    p2, q2 = lens2.normalized()
    if p1 != p2:
        return False
    return (q1 - q2) % p1 == 0 or (q1 * q2 - 1) % p1 == 0
