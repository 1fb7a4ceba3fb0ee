"""Casson-Walker and total Casson-Gordon invariants of surgered manifolds.

Everything here is a thin layer of exact rational arithmetic over the
Dedekind-sum module: the null-homologous surgery formulas, and Walker's
general framed formula with its Dedekind-sum correction term.  Each
null-homologous value is one fraction built from Dedekind integers.  Sign
conventions for the peripheral basis are fixed by the calibration
requirement that p/q surgery on the unknot in S^3 reproduces the
lens-space value s(q,p); the test suite executes that calibration.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._value import Value
from .dedekind import dedekind_numerator, dedekind_sum

__all__ = [
    "Slope",
    "PeripheralClass",
    "LongitudeData",
    "AmbientData",
    "walker_correction",
    "casson_walker_surgered",
    "casson_gordon_surgered",
    "walker_general",
]


class Slope(Value):
    """Reduced surgery slope p/q with q >= 0; (1, 0) encodes infinity."""

    _fields = ("p", "q")

    def __init__(self, p: int, q: int):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if q < 0:
            raise ValueError("slope must be stored with q >= 0 (negate p instead)")
        if math.gcd(p, q) != 1:
            raise ValueError(f"slope {p}/{q} is not reduced")
        if q == 0 and p != 1:
            raise ValueError("the infinite slope is encoded as 1/0")

    @classmethod
    def of(cls, p: int, q: int) -> "Slope":
        """Build a slope from any integer pair with q possibly negative."""
        if q == 0:
            if p == 0:
                raise ValueError("0/0 is not a slope")
            return cls(1, 0)
        if q < 0:
            p, q = -p, -q
        g = math.gcd(p, q)
        return cls(p // g, q // g)

    @classmethod
    def parse(cls, text: str) -> "Slope":
        """Parse 'p/q', a bare integer, or 'inf'."""
        text = text.strip()
        if text.lower() in ("inf", "infinity", "1/0"):
            return cls(1, 0)
        if "/" in text:
            num, _, den = text.partition("/")
            return cls.of(int(num), int(den))
        return cls.of(int(text), 1)

    @property
    def is_infinite(self) -> bool:
        return self.q == 0

    def negated(self) -> "Slope":
        return Slope(1, 0) if self.is_infinite else Slope(-self.p, self.q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


class PeripheralClass(Value):
    """Class a = mu_coeff * x + lambda_coeff * y on the peripheral torus,
    in a fixed basis x, y with <x, y> = 1."""

    _fields = ("mu_coeff", "lambda_coeff")

    def __init__(self, mu_coeff: int, lambda_coeff: int):
        self._set_fields(mu_coeff, lambda_coeff)

    def is_primitive(self) -> bool:
        return math.gcd(self.mu_coeff, self.lambda_coeff) == 1


def pairing(a: PeripheralClass, b: PeripheralClass) -> int:
    """Intersection pairing <a, b> = a1*b2 - a2*b1."""
    return a.mu_coeff * b.lambda_coeff - a.lambda_coeff * b.mu_coeff


class LongitudeData(Value):
    """Longitude l = d * y; d = 1 for null-homologous knots."""

    _fields = ("d",)

    def __init__(self, d: int = 1):
        self._set_fields(d)
        if d < 1:
            raise ValueError("longitude multiple d must be >= 1")


def _exact(name: str, value):
    """value if it is an int or a Fraction, else (a bool too) ValueError naming it."""
    if type(value) is bool or not isinstance(value, (int, Fraction)):
        raise ValueError(f"{name} must be an int or a Fraction, got {value!r}")
    return value


class AmbientData(Value):
    """Casson-Walker invariant of the ambient manifold, supplied as data.

    lambda_value is exact, an int or a Fraction; anything else, a bool
    included, raises ValueError when the data is built.
    """

    _fields = ("lambda_value", "name")

    def __init__(self, lambda_value: Fraction = Fraction(0), name: str = "S3"):
        object.__setattr__(self, "lambda_value", _exact("lambda_value", lambda_value))
        object.__setattr__(self, "name", name)

    def negated(self) -> "AmbientData":
        return AmbientData(-self.lambda_value, f"-{self.name}")


def walker_correction(a: PeripheralClass, b: PeripheralClass, l: LongitudeData) -> Fraction:
    """Dedekind-sum correction term of Walker's surgery formula.

    Equals -s(<x,a>, <y,a>) + s(<x,b>, <y,b>) + ((d^2-1)/12) <a,b> / (<a,l><b,l>).
    Requires <a,l> != 0 and <b,l> != 0.
    """
    if not (a.is_primitive() and b.is_primitive()):
        raise ValueError("surgery classes must be primitive")
    d = l.d
    al, bl = d * a.mu_coeff, d * b.mu_coeff  # <c, l> = d <c, y> = d c.mu_coeff
    if al == 0 or bl == 0:
        raise ValueError("classes pairing to zero with the longitude are not allowed")
    # <x, c> = c.lambda_coeff and <y, c> = -c.mu_coeff.
    term = -dedekind_sum(a.lambda_coeff, -a.mu_coeff) + dedekind_sum(b.lambda_coeff, -b.mu_coeff)
    term += Fraction(d * d - 1, 12) * Fraction(pairing(a, b), al * bl)
    return term


def _numerator(slope: Slope) -> tuple[int, int]:
    """s(q,p) = u/den, den = 12|p| as p/q is reduced: what both formulas read."""
    if slope.p == 0:
        raise ValueError("0-surgery does not yield a rational homology sphere")
    return dedekind_numerator(slope.q, slope.p)


def _casson_walker(lam, delta2: int, slopes, us):
    """The stages' Casson-Walker keys u - 12 q delta2 on the surgeries
    (p, q) = slopes[i], s(q,p) = u/(12p) with u = us[i] and p > 0 (negative
    pairs are mirrored), and the witness i -> lambda(Y) + s(q,p) - (q/p)
    delta2 = lambda(Y) + key/(12p), with lambda(Y) = n/d read once."""
    keys = [u - 12 * q * delta2 for u, (_, q) in zip(us, slopes)]
    n, d = lam.as_integer_ratio()
    return keys, lambda i: Fraction(12 * slopes[i][0] * n + keys[i] * d, 12 * slopes[i][0] * d)


def _casson_walker_at(lam, delta2: int, p: int, q: int, u: int) -> Fraction:
    """lambda(Y) + s(q,p) - (q/p) delta2 at one surgery p/q of either sign,
    s(q,p) = u/den with den = 12|p|, as (den n + (u - (den/p) q delta2) d)
    / (den d) for lambda(Y) = n/d."""
    n, d = lam.as_integer_ratio()
    den = 12 * abs(p)
    return Fraction(den * n + (u - (den // p) * q * delta2) * d, den * d)


def _casson_gordon(sigma_p: int, p: int, u: int, den: int) -> Fraction:
    return Fraction(-4 * p * u - sigma_p * den, den)


def casson_walker_surgered(ambient: AmbientData, delta2: int, slope: Slope) -> Fraction:
    """lambda(Y_{p/q}(K)) = lambda(Y) + s(q,p) - (q/p) * delta2.

    lambda here is -2 times Casson's normalization (Boyer-Lines: lambda =
    -s(q,p)/2 + (q/2p) Delta''(1)); for example S^3_{+1}(T_R), which is
    -Sigma(2,3,5), gives -2.  Requires p != 0 (the result must be a
    rational homology sphere).  One fraction from s(q,p) = u/(12|p|) and
    lambda(Y) = n/d, at either sign of p (_casson_walker_at).
    """
    return _casson_walker_at(ambient.lambda_value, delta2, slope.p, slope.q, _numerator(slope)[0])


def casson_gordon_surgered(sigma_p: int, slope: Slope) -> Fraction:
    """tau(Y_{p/q}(K)) = tau(L(p,q)) - sigma(K,p) = -4p*s(q,p) - sigma_p,
    one fraction from s(q,p) = u/den."""
    return _casson_gordon(sigma_p, slope.p, *_numerator(slope))


def walker_general(
    lambda_at_b: Fraction,
    delta2: int,
    a: PeripheralClass,
    b: PeripheralClass,
    l: LongitudeData,
) -> Fraction:
    """Walker's framed surgery formula, for lambda_at_b an int or a Fraction:
    lambda(K_a) = lambda(K_b) + tau(a,b;l) + (<a,b>/(<a,l><b,l>)) * delta2."""
    lam = _exact("lambda_at_b", lambda_at_b)
    al_bl = l.d * l.d * a.mu_coeff * b.mu_coeff  # <a,l><b,l>, as in walker_correction
    return lam + walker_correction(a, b, l) + Fraction(pairing(a, b), al_bl) * delta2
