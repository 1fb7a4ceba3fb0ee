"""Knot invariants from Seifert matrices.

Covers the normalized symmetric Alexander polynomial (one packed integer
determinant in X = (1 - T)/(1 + T) per matrix), its second derivative at 1,
Tristram-Levine signatures at roots of unity (exact: constant on the arcs
between the roots of the jump polynomial D(u), u = tan^2(theta/2), which
Sturm sequences isolate; arc 0 is 0, and an integer congruence reduction
runs only on the arcs that a divide-and-conquer search for staircases
between known arcs leaves open), the
total signature sum (by counting the roots of unity on each arc: O(log m)
placements per jump, none per root), and recognition of the
Alexander-polynomial shape forced by L-space surgeries.

One Cayley map, z -> (1 - z)/(1 + z), takes det(K + X S) to Delta; the
same packed digits, read at z^2 = -u, are (1 + u)^(g - deg) D(u), so the
jump polynomial needs no second map.  Congruence reductions divide each
step by the previous pivot (Bareiss).  The integer polynomial helpers,
cyclotomic polynomials and rigorous fixed-point cosines live here too.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property, lru_cache

from ._value import Value

__all__ = [
    "SeifertMatrix",
    "SymLaurentPoly",
    "LSpaceForm",
    "SingularValueError",
    "NotLSpaceFormError",
    "alexander_from_seifert",
    "delta2_at_one",
    "tl_signature",
    "sigma_total",
    "parse_lspace_form",
    "delta2_from_form",
]


class SingularValueError(ValueError):
    """The Alexander polynomial vanishes at the requested root of unity.

    Signature jump points get no convention here; callers must avoid them.
    """

    def __init__(self, r: int, m: int):
        self.r = r
        self.m = m
        super().__init__(f"Alexander polynomial vanishes at exp(2*pi*i*{r}/{m})")


class NotLSpaceFormError(ValueError):
    """The polynomial is not of the alternating form forced by L-space surgeries."""


# ---------------------------------------------------------------------------
# Dense polynomial helpers; coefficient lists run low degree to high.


def _trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divexact(a: list, b: list) -> list:
    """Integer polynomial division known in advance to be exact."""
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    lead = b[-1]
    for i in range(len(out) - 1, -1, -1):
        coef = a[i + len(b) - 1]
        if coef % lead != 0:
            raise ArithmeticError("inexact polynomial division")
        coef //= lead
        out[i] = coef
        if coef:
            for j, y in enumerate(b):
                a[i + j] -= coef * y
    if _trim(a):
        raise ArithmeticError("nonzero remainder in exact polynomial division")
    return _trim(out)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divexact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


# ---------------------------------------------------------------------------
# Determinants over the integers.  With K = A - A^T, S = A + A^T and
# X = (1 - T)/(1 + T), A - T A^T = (1 + T)/2 * (K + X S), so
#     2^n det(A - T A^T) = (1 + T)^n det(K + X S),
# and det(K + X S) is even in X (transpose, then negate all n rows).  Its
# g + 1 coefficients (n = 2g) are packed into one integer determinant by
# Kronecker substitution (von zur Gathen and Gerhard, Modern Computer
# Algebra, 8.4): one elimination on integers of O(n h) bits, where
# evaluating det(A - T A^T) at n + 1 points takes n + 1 small ones.


def _int_det(rows) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination
    (Bareiss, 1968).

    After step k each trailing entry is a (k+1)-minor of the input, so the
    division by the previous pivot is exact and no entry outgrows a minor.
    """
    m = list(rows)
    sign, prev = 1, 1
    while len(m) > 1:
        if not m[0][0]:
            piv = next((i for i, row in enumerate(m) if row[0]), None)
            if piv is None:
                return 0
            m[0], m[piv] = m[piv], m[0]
            sign = -sign
        pivot, *rest = m[0]
        m = [
            [(pivot * x - lead * y) // prev for x, y in zip(tail, rest)]
            for lead, *tail in m[1:]
        ]
        prev = pivot
    return sign * m[0][0] if m else 1


def _packed_alexander(rows) -> list[int]:
    """The coefficients e_0, ..., e_g of det(K + X S) = sum_j e_j X^(2j)
    for the 2g x 2g integer matrix A = rows, from one determinant.

    On |X| = 1, Hadamard's inequality bounds |det(K + X S)| by the product
    of the row norms, and ||K_i + X S_i||^2 <= ||K_i||^2 + ||S_i||^2 +
    2|<K_i, S_i>| = 4 max(||row_i A||^2, ||column_i A||^2); by Cauchy's
    estimate every |e_j| is below the same bound.  With 2^(2h - 1) above
    it, the e_j are the balanced base-2^(2h) digits of det(K + 2^h S), and
    anything left above e_g raises ArithmeticError.
    """
    n = len(rows)
    pairs = list(zip(rows, zip(*rows)))
    bound_sq = 4**n * math.prod(max(sum(x * x for x in r), sum(y * y for y in c)) for r, c in pairs)
    h = (bound_sq.bit_length() + 5) // 4  # bound_sq < 2^(4h - 2)
    det = _int_det([[x - y + ((x + y) << h) for x, y in zip(r, c)] for r, c in pairs])
    width = 2 * h
    half, mask = 1 << (width - 1), (1 << width) - 1
    digits = []
    for _ in range(n // 2 + 1):
        digit = ((det + half) & mask) - half
        digits.append(digit)
        det = (det - digit) >> width
    if det:
        raise ArithmeticError("det(K + X S) has a digit above degree n; the determinant is wrong")
    return digits


def _taylor_shift(c: list, a: int) -> None:
    """c, coefficients low degree first, becomes c(z + a), in place, by
    repeated Horner steps: O(deg^2) multiply-adds."""
    top = len(c) - 1
    for i in range(top):
        for j in range(top - 1, i - 1, -1):
            c[j] += a * c[j + 1]


def _cayley(c: list) -> list:
    """(1 + z)^N c((1 - z)/(1 + z)) for N = len(c) - 1: with s = 1 + z it
    is s^N F(2/s) for F(x) = c(x - 1), then s -> 1 + z.  The map is an
    involution, so applying _cayley twice multiplies c by 2^N."""
    c = list(c)
    _taylor_shift(c, -1)  # F
    c = [f << k for k, f in enumerate(c)][::-1]  # s^N F(2/s)
    _taylor_shift(c, 1)
    return c


class SeifertMatrix(Value):
    """Square integer matrix presenting a knot; the 0x0 matrix is the unknot.

    Validity requires integer entries, even size and det(A - A^T) = +-1
    (a unimodular Seifert pairing).  __init__ runs the one packed
    determinant of alexander_from_seifert, keeps its digits and checks the
    lowest, det(A - A^T), so validation costs no elimination of its own.
    The normalized Alexander polynomial, shared by every signature, is
    derived from those digits on its first read.
    """

    _fields = ("entries",)  # _digits and alexander are derived: not compared, not shown

    def __init__(self, entries):
        try:
            rows = tuple(tuple(map(operator.index, row)) for row in entries)
        except TypeError:
            raise ValueError("Seifert matrix entries must be integers") from None
        object.__setattr__(self, "entries", rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("Seifert matrix must be square")
        if n % 2 != 0:
            raise ValueError("Seifert matrix must have even size")
        digits = _packed_alexander(rows)
        if abs(digits[0]) != 1:
            raise ValueError(f"det(A - A^T) = {digits[0]}, not +-1: not a valid Seifert pairing")
        object.__setattr__(self, "_digits", tuple(digits))

    @cached_property
    def alexander(self) -> SymLaurentPoly:
        return alexander_from_seifert(self)

    @property
    def size(self) -> int:
        return len(self.entries)

    def mirror(self) -> "SeifertMatrix":
        """Seifert matrix of the mirror knot, -A^T, validated like any matrix."""
        return SeifertMatrix([[-x for x in column] for column in zip(*self.entries)])


class SymLaurentPoly(Value):
    """Symmetric normalized Laurent polynomial a0 + sum a_j (T^j + T^-j).

    Invariants: value 1 at T = 1, and the top coefficient is nonzero unless
    the polynomial is constant.
    """

    _fields = ("a0", "higher")

    def __init__(self, a0, higher=()):
        try:
            a0, higher = operator.index(a0), tuple(map(operator.index, higher))
        except TypeError:
            raise ValueError("polynomial coefficients must be integers") from None
        while higher and higher[-1] == 0:
            higher = higher[:-1]
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "higher", higher)
        if self.a0 + 2 * sum(higher) != 1:
            raise ValueError("polynomial is not normalized: value at T = 1 must be 1")

    @property
    def degree(self) -> int:
        return len(self.higher)

    def coefficient(self, j: int) -> int:
        j = abs(j)
        if j == 0:
            return self.a0
        if j <= len(self.higher):
            return self.higher[j - 1]
        return 0

    def as_int_poly(self) -> list[int]:
        """Coefficients of T^degree * poly as an ordinary polynomial in T."""
        g = self.degree
        out = [0] * (2 * g + 1)
        out[g] = self.a0
        for j, c in enumerate(self.higher, start=1):
            out[g + j] = c
            out[g - j] = c
        return out

    def __str__(self) -> str:
        g = self.degree
        parts = []
        for j in range(g, -g - 1, -1):
            c = self.coefficient(j)
            if c == 0:
                continue
            if j == 0:
                mono = ""
            elif j == 1:
                mono = "T"
            else:
                mono = f"T^{j}"
            mag = abs(c)
            term = ("" if mag == 1 and mono else str(mag)) + mono
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)


class LSpaceForm(Value):
    """Strictly increasing positive exponents n_1 < ... < n_k; empty means 1."""

    _fields = ("exponents",)

    def __init__(self, exponents=()):
        try:
            exps = tuple(map(operator.index, exponents))
        except TypeError:
            raise ValueError("exponents must be integers") from None
        if any(x <= 0 for x in exps):
            raise ValueError("exponents must be positive")
        if any(a >= b for a, b in zip(exps, exps[1:])):
            raise ValueError("exponents must be strictly increasing")
        object.__setattr__(self, "exponents", exps)

    @property
    def genus(self) -> int:
        return self.exponents[-1] if self.exponents else 0

    def full_sequence(self) -> tuple[int, ...]:
        """The symmetric exponent sequence -n_k < ... < 0 < ... < n_k."""
        neg = tuple(-x for x in reversed(self.exponents))
        return neg + (0,) + self.exponents


def alexander_from_seifert(matrix: SeifertMatrix) -> SymLaurentPoly:
    """Normalized Alexander polynomial: D(T) = det(A - T A^T) scaled to be
    symmetric and equal to 1 at T = 1.

    The packed determinant that SeifertMatrix.__init__ keeps gives E(X) =
    det(K + X S) = sum_j e_j X^(2j); its lowest digit e_0 = det(A - A^T)
    is +-1 there.  Then 2^n D(T) = sum_j e_j (1 - T)^(2j) (1 + T)^(n - 2j),
    the Cayley image of E (see _cayley), palindromic as every power of X
    is even.

    A digit off by d adds d (1 - T)^(2j) (1 + T)^(n - 2j), constant term d,
    to 2^n D: the division by 2^n is inexact unless 2^n divides d, and
    then D(0) is off det A by d/2^n.  Either raises ArithmeticError, here,
    on the polynomial's first read.
    """
    a = matrix.entries
    n = len(a)
    if n == 0:
        return SymLaurentPoly(1)
    c = [0] * (n + 1)
    c[::2] = matrix._digits  # E, low degree first
    c = _cayley(c)  # 2^n D(T)
    if any(x & ((1 << n) - 1) for x in c):
        raise ArithmeticError("2^n det(A - T A^T) is not divisible by 2^n; the determinant is wrong")
    c = [x >> n for x in c]
    if c[0] != _int_det(a):
        raise ArithmeticError("D(0) differs from det A; the determinant is wrong")
    half = n // 2
    return SymLaurentPoly(c[half], c[half + 1 :])


def delta2_at_one(poly: SymLaurentPoly) -> int:
    """Second derivative at T = 1: each T^j + T^-j contributes 2 j^2."""
    return 2 * sum(c * j * j for j, c in enumerate(poly.higher, start=1))


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, by trial division."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def _totient(n: int, primes) -> int:
    """Euler's phi, from the distinct primes of n."""
    for p in primes:
        n -= n // p
    return n


def _alexander_vanishes_at(poly: SymLaurentPoly, d: int, jumps: int) -> bool:
    """Exact test of poly(xi) = 0 for xi a primitive d-th root of unity,
    that is of Phi_d dividing poly, over the integers as Phi_d is monic.
    Orders d <= 2 never vanish: Delta(1) = 1 and Delta(-1) = Delta(1) (mod 4).
    For d >= 3 the phi(d)/2 roots on the upper semicircle are distinct jumps,
    so only phi(d) <= 2 jumps can divide; phi(d) >= sqrt(d/2) then leaves
    d <= 8 jumps^2 (see _jumps).

    Values at T = +-1 rule out most of the rest without a division.  If
    T^g Delta = Phi_d Q, Q has integer coefficients (Phi_d is monic), so
    Phi_d(1) divides Delta(1) = 1 and Phi_d(-1) divides Delta(-1).  Now
    Phi_d(1) = p for d = p^k, p prime, so no prime power divides; and
    Phi_d(-1) = Phi_(d/2)(1) = p for d = 2 p^k, p odd, as Phi_2n(T) =
    Phi_n(-T) for odd n > 1, so that order needs p | Delta(-1).  Every
    other d has Phi_d(+-1) = 1, which rules nothing out, so it and each
    d = 2 p^k with p | Delta(-1) is tested by division."""
    if d < 3 or d > 8 * jumps * jumps:
        return False
    primes = _prime_factors(d)
    if len(primes) == 1 or _totient(d, primes) > 2 * jumps:
        return False
    if d % 4 == 2 and len(primes) == 2:  # d = 2 p^k
        higher = poly.higher
        if (poly.a0 - 2 * sum(higher[::2]) + 2 * sum(higher[1::2])) % primes[1]:
            return False
    try:
        _poly_divexact(poly.as_int_poly(), list(cyclotomic_polynomial(d)))
    except ArithmeticError:
        return False
    return True


# ---------------------------------------------------------------------------
# Tristram-Levine signatures.  On the unit circle the signature changes only
# where Delta vanishes, so it is constant on each arc between roots of
# Delta.  For xi = e^(i theta) with 0 < theta < pi, put t = tan(theta/2) and
# u = t^2, which maps theta increasingly onto u in (0, inf).  The Cayley map
# z = (1 - T)/(1 + T) takes xi to -i t, so z^2 = -u, and the Cayley image
# of T^deg Delta(T), even in z as Delta is symmetric, is the integer
# polynomial D(u) = (1 + u)^deg Delta(xi) (see _jumps).  The arcs are the
# intervals between the positive roots of D, and Sturm sequences isolate
# them.  The root e^(2 pi i r/m) sits at u = tan^2(pi r/m), placed on its
# arc by a rigorous rational enclosure of that number; u grows with r, so a
# total signature needs only the last r below each jump, found by bisection.
# Arc 0 has signature 0 and simple roots move it by +-2: see _arc_signature.


def _primitive(p) -> tuple:
    """p divided by the gcd of its integer coefficients: a positive
    multiple, so signs, and so Sturm counts, are unchanged."""
    g = math.gcd(*p)
    return tuple(c // g for c in p)


def _negated_remainder(a, b) -> tuple:
    """A positive multiple of -(a mod b), primitive, for integer a and b:
    the pseudo-remainder |lc(b)|^(deg a - deg b + 1) * a mod b, computed
    over the integers and negated."""
    a = list(a)
    lead, low = b[-1], b[:-1]
    if lead < 0:
        lead, low = -lead, [-c for c in low]
    for d in range(len(a) - len(b), -1, -1):
        c = a.pop()
        a = [lead * x for x in a]
        if c:
            for j, y in enumerate(low):
                a[d + j] -= c * y
    while a and not a[-1]:
        a.pop()
    return _primitive([-c for c in a]) if a else ()


def _sturm(p) -> tuple:
    """Sturm sequence of the squarefree part of a nonzero integer
    polynomial p, each entry primitive over the integers."""
    p = _primitive(p)
    if len(p) < 2:
        return (p,)
    seq = [p, _primitive([i * c for i, c in enumerate(p)][1:])]
    while True:
        rem = _negated_remainder(seq[-2], seq[-1])
        if not rem:
            break
        seq.append(rem)
    if len(seq[-1]) > 1:  # the last entry is gcd(p, p'): p has repeated roots
        return _sturm(_poly_divexact(p, seq[-1]))
    return tuple(seq)


def _homogeneous(p, a: int, b: int) -> int:
    """b^deg * p(a/b) for b > 0: an integer with the sign of p(a/b)."""
    v, bpow = 0, 1
    for c in reversed(p):
        v = v * a + c * bpow
        bpow *= b
    return v


def _variations(seq, *points) -> list[int]:
    """Sign changes along the sequence at each point: (a, b) for a/b with
    b > 0, or None for +infinity.  One pass per point: each entry's value
    is b^deg p(a/b) by inline Horner, as in _homogeneous (its top
    coefficient at +infinity), zero values are skipped, and a change is a
    nonzero value whose sign differs from the last nonzero one."""
    counts = []
    for x in points:
        n, last = 0, None
        for p in seq:
            if x is None:
                v = p[-1]
            else:
                a, b = x
                v, bpow = 0, 1
                for c in reversed(p):
                    v = v * a + c * bpow
                    bpow *= b
            if v:
                sign = v > 0
                if sign is not last:
                    n += last is not None  # the first nonzero value is no change
                    last = sign
        counts.append(n)
    return counts


def _roots_upto(seq, x) -> int:
    """Number of distinct roots in (0, a/b] for x = (a, b), or in (0, inf)
    for None; exact for a squarefree sequence even at a root 0 or a/b."""
    zero, upto = _variations(seq, (0, 1), x)
    return zero - upto


@lru_cache(maxsize=None)
def _jumps(matrix: SeifertMatrix):
    """(the Sturm sequence of D, the number of jumps in (0, pi), whether D
    is squarefree, the sequence's sign variations at u = 0), where D(u) =
    (1 + u)^deg * Delta(e^(i theta)).  D(0) = Delta(1) = 1 and the top
    coefficient of D is Delta(-1) != 0, so the jumps are exactly the
    positive roots of D, counted as the variations at 0 less those at
    +infinity; the count at 0 is kept for _arc_at, which counts the roots
    below a point from it.  _sturm divides out repeated factors, so D is
    squarefree when its first entry is as long.

    D is read off the packed digits the constructor keeps, with no second
    Cayley map.  The Cayley image of det(K + z S) = sum_j e_j z^(2j) is
    2^n T^(g - deg) T^deg Delta(T), n = 2g (alexander_from_seifert); the
    map is an involution, so det(K + z S) = (1 - z^2)^(g - deg) C(z) for
    C the Cayley image of T^deg Delta, and z^2 = -u turns
    sum_j (-1)^j e_j u^j into (1 + u)^(g - deg) D(u).  D(-1) = C(1) is
    4^deg times Delta's top coefficient, which is nonzero, so (1 + u) is
    divided out exactly g - deg times, each division exact."""
    d = [-e if j % 2 else e for j, e in enumerate(matrix._digits)]
    for _ in range(matrix.size // 2 - matrix.alexander.degree):
        d = _poly_divexact(d, [1, 1])
    seq = _sturm(d)
    zero, top = _variations(seq, (0, 1), None)
    return seq, zero - top, len(seq[0]) == len(d), zero


@lru_cache(maxsize=None)
def _pi_fixed(w: int) -> tuple[int, int]:
    """(p, e) with |pi * 2^w - p| <= e, from Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239) summed in fixed point at w + 8 bits.

    That sum is off by e' (16 and 4 times the two series' truncation
    errors); flooring it by 2^8 leaves at most e'/2^8 + 1 < (e' >> 8) + 2,
    so e is at most 3 for w <= 60 and 4 for w <= 150; the unguarded sum
    at w bits has a bound of up to 244 for w <= 60."""

    def atan_inv(n):
        # Term k is floor(2^(w+8) / ((2k+1) n^(2k+1))), less than 1 below
        # the true term, and once the power reaches 0 the alternating tail
        # is below 1: k terms are off by less than k + 1 in all.
        total, power, k = 0, (1 << (w + 8)) // n, 0
        while power:
            term = power // (2 * k + 1)
            total += -term if k % 2 else term
            power //= n * n
            k += 1
        return total, k + 1

    a, err_a = atan_inv(5)
    b, err_b = atan_inv(239)
    return (16 * a - 4 * b) >> 8, ((16 * err_a + 4 * err_b) >> 8) + 2


def _cos_fixed(a: int, b: int, w: int) -> tuple[int, int]:
    """(c, e) with |cos(pi a/b) * 2^w - c| <= e, for 0 <= a/b <= 1/2.

    The alternating Taylor series is summed in w-bit fixed point at the
    fixed-point angle x, which is off by at most e_pi + 1.  With x <= pi/2
    every floored term is off by less than 2, the terms decrease after the
    first, and the tail after the first zero term is below 2; cos is
    1-Lipschitz, so the angle's error adds as it is.
    """
    p, err_pi = _pi_fixed(w)
    x = p * a // b
    x2, shift = x * x, 2 * w
    total = term = 1 << w
    k = 0
    while term:
        k += 1
        # floor(floor(t / 2^s) / c) = floor(t / (2^s c)) for t >= 0: shift
        # first, then divide by the small c = (2k - 1) 2k.
        term = (term * x2 >> shift) // ((2 * k - 1) * 2 * k)
        total += -term if k % 2 else term
    return total, 2 * k + 2 + err_pi + 1


def _tan2_enclosure(r: int, m: int, w: int) -> tuple[tuple[int, int], tuple[int, int] | None]:
    """Rationals lo <= tan^2(pi r/m) <= hi for 0 < r < m/2, from w-bit
    cosines, as pairs (a, b) for a/b with b > 0; hi is None if w bits leave
    it unbounded.

    tan^2(pi r/m) = (1 - c)/(1 + c) with c = cos(2 pi r/m).  Past r = m/4
    the cosine of the complementary angle pi (m - 2r)/m, which is -c, is
    enclosed instead, so the series always runs on an angle in [0, pi/2].
    Near r = m/2 the denominator 1 + c is below the error bound, and the
    upper end is left open rather than given a meaningless sign.
    """
    one = 1 << w
    if 4 * r <= m:
        c, e = _cos_fixed(2 * r, m, w)
        return (max(0, one - c - e), one + c + e), (one - c + e, one + c - e)
    c, e = _cos_fixed(m - 2 * r, m, w)
    hi = (one + c + e, one - c - e) if one - c - e > 0 else None
    return (one + c - e, one - c + e), hi


def _arc_at(seq, zero: int, r: int, m: int) -> int:
    """The arc holding u = tan^2(pi r/m), 0 < r < m/2 and D(u) != 0: the
    number of roots of D below u, for zero the sign variations of seq at 0.
    The enclosure is refined until it holds no root of D, as it must once
    it is narrower than u's distance to the nearest root.  It starts at
    w = 4 + 2 bit_length(m) bits: the cosine c is off by e 2^-w, e from 9 to 38
    for m up to 10^18 with the guarded pi, and 1 - c and 1 + c are at least
    about (pi/m)^2 / 2, so as 2^w >= 16 m^2 the first enclosure is at most
    about 4 e m^2 2^-w / pi^2 <= e / (4 pi^2) of u wide, and only a root of
    D that close to u costs a doubling."""
    w = 4 + 2 * m.bit_length()
    while True:
        below, above = _variations(seq, *_tan2_enclosure(r, m, w))
        if below == above:
            return zero - below
        w *= 2


def _arc_counts(seq, zero: int, jumps: int, m: int) -> list[int]:
    """For each arc, how many r in 1 .. (m-1)/2 have tan^2(pi r/m) on it,
    none of them a root of D, from seq's variations at 0 and the jump
    count as _jumps gives them.  The arc never decreases with r, so
    bisection finds each boundary: O(jumps * log m) placements, none per r,
    and none at all without jumps, when every r is on arc 0."""
    top = (m - 1) // 2
    if not jumps or not top:
        return [top] + [0] * jumps
    counts = [0] * (jumps + 1)

    def split(lo, arc_lo, hi, arc_hi):
        # r in (lo, hi]; arc_lo is the arc of lo (0 for lo = 0), arc_hi of hi.
        if arc_lo == arc_hi:
            counts[arc_lo] += hi - lo
        elif hi - lo == 1:
            counts[arc_hi] += 1
        else:
            mid = (lo + hi) // 2
            arc_mid = _arc_at(seq, zero, mid, m)
            split(lo, arc_lo, mid, arc_mid)
            split(mid, arc_mid, hi, arc_hi)

    split(0, 0, top, _arc_at(seq, zero, top, m))
    return counts


def _arc_point(seq, arc: int) -> Fraction:
    """The canonical t of an arc below the last one: bisect (0, top], top a
    power of two with top^2 above every root, until a midpoint's square
    lies strictly inside the arc."""
    p = seq[0]
    lo, hi, bound = Fraction(0), Fraction(1), 2 + max(map(abs, p[:-1]), default=0) // abs(p[-1])
    while hi * hi < bound:  # Cauchy's bound is above every root
        hi *= 2
    while True:
        t = (lo + hi) / 2
        u = t * t
        x = u.numerator, u.denominator
        n = _roots_upto(seq, x)
        if n > arc:
            hi = t
        elif n < arc or not _homogeneous(p, *x):  # u is the arc's left end
            lo = t
        else:
            return t


@lru_cache(maxsize=None)
def _arc_signature(matrix: SeifertMatrix, arc: int) -> int:
    """The signature on one arc, with an integer congruence reduction only
    where the jumps leave it open.

    H(xi)/sin(theta) = tS + iK with S = A + A^T and K = A - A^T, and its
    determinant is a nonzero real multiple of D(t^2) (1 + t^2)^k.  Arc 0 is
    0: as t -> 0 the form tends to iK, nondegenerate as K is unimodular,
    with eigenvalues in +- pairs.  The last arc holds xi = -1, where H = 2S.
    At a simple root of D the nullity is 1, so the signature moves by +-2.
    So when D is squarefree and arcs lo < hi differ by 2 (hi - lo), every
    step between has one sign and each arc between is forced.  Otherwise
    the middle arc, read through this cache, splits the interval, and the
    search goes on in the half holding the asked arc, which _arc_inertia
    reduces once it is the middle.  The first interval is arc 0 against the
    last arc, so a staircase costs one cached read.  When D has a repeated
    root nothing is forced, and every middle arc goes to _arc_inertia.
    """
    if not arc:
        return 0
    _, jumps, simple, _ = _jumps(matrix)
    if arc == jumps:
        a = matrix.entries
        return _signature([[x + y for x, y in zip(row, col)] for row, col in zip(a, zip(*a))], 1)
    if not simple:
        return _arc_inertia(matrix, arc)
    lo, sig_lo, hi, sig_hi = 0, 0, jumps, _arc_signature(matrix, jumps)
    while abs(sig_hi - sig_lo) != 2 * (hi - lo):
        mid = (lo + hi) // 2
        if arc == mid:
            return _arc_inertia(matrix, arc)
        if arc < mid:
            hi, sig_hi = mid, _arc_signature(matrix, mid)
        else:
            lo, sig_lo = mid, _arc_signature(matrix, mid)
    return sig_lo + (arc - lo) * (sig_hi - sig_lo) // (hi - lo)


def _arc_inertia(matrix: SeifertMatrix, arc: int) -> int:
    """The signature on any arc, from one integer congruence reduction at
    its canonical point t: half that of the real symmetric
    [[tS, -K], [K, tS]], scaled here by t's denominator."""
    entries = matrix.entries
    n = len(entries)
    t = _arc_point(_jumps(matrix)[0], arc)
    a, b = t.numerator, t.denominator
    big = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            skew = b * (entries[i][j] - entries[j][i])
            big[i][j] = big[n + i][n + j] = a * (entries[i][j] + entries[j][i])
            big[i][n + j] = -skew
            big[n + i][j] = skew
    return _signature(big, 2)


def _signature(sym, half: int) -> int:
    """(pos - neg) / half for a symmetric integer matrix that must be nondegenerate."""
    pos, neg, null = _symmetric_inertia(sym)
    if null != 0:
        raise ArithmeticError("singular Hermitian matrix despite nonzero Alexander value")
    return (pos - neg) // half


def tl_signature(matrix: SeifertMatrix, r: int, m: int) -> int:
    """Tristram-Levine signature at xi = exp(2*pi*i*r/m), 0 < r < m.

    Exact: xi is placed on its arc between jumps by Sturm counts at the
    ends of a rigorous rational enclosure of tan^2(pi*r/m), its width in
    bits doubled until both counts agree, taken from the count at u = 0
    that _jumps keeps (see _arc_at), and the arc's signature is 0 on arc
    0, forced by the jumps where two known arcs bound a staircase, or else
    the pivot signs of a fraction-free integer congruence reduction (see
    _arc_signature).  Raises SingularValueError when the Alexander
    polynomial vanishes at xi.  No memo per (r, m): only _jumps and
    _arc_signature cache, per matrix.
    """
    if not 0 < r < m:
        raise ValueError("need 0 < r < m")
    if not matrix.entries:
        return 0
    g = math.gcd(r, m)
    d = m // g
    k = min(r // g, d - r // g)  # xi and its conjugate have one signature
    seq, jumps, _, zero = _jumps(matrix)
    if _alexander_vanishes_at(matrix.alexander, d, jumps):
        raise SingularValueError(r, m)
    if 2 * k == d or not jumps:
        return _arc_signature(matrix, jumps)
    return _arc_signature(matrix, _arc_at(seq, zero, k, d))


def sigma_total(matrix: SeifertMatrix, m: int) -> int:
    """Total signature sum over r = 1 .. m-1 at the m-th roots of unity.

    Raises SingularValueError, with the smallest such r, when the Alexander
    polynomial vanishes at one of them, which needs 3 <= d <= 8 jumps^2 for
    its order d (_alexander_vanishes_at).  Otherwise xi^r and xi^(m-r) share
    a signature, so the sum is twice each arc's signature times its count
    of r < m/2, plus the last arc once more, for xi = -1, when m is even.
    The sum, or the singular outcome, is cached per (matrix, m), so the
    surgeries p/q sharing |p| compute it once.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    total = _sigma_total_cached(matrix, m)
    if isinstance(total, SingularValueError):
        # A fresh exception: raising the cached one again would add every
        # caller's frames to its traceback and keep them alive.
        raise SingularValueError(total.r, total.m)
    return total


@lru_cache(maxsize=None)
def _sigma_total_cached(matrix: SeifertMatrix, m: int) -> int | SingularValueError:
    if not matrix.entries:
        return 0
    seq, jumps, _, zero = _jumps(matrix)
    for d in range(min(m, 8 * jumps * jumps), 2, -1):
        if m % d == 0 and _alexander_vanishes_at(matrix.alexander, d, jumps):
            return SingularValueError(m // d, m)
    counts = _arc_counts(seq, zero, jumps, m)
    total = sum(2 * n * _arc_signature(matrix, arc) for arc, n in enumerate(counts) if n)
    if m % 2 == 0:
        total += _arc_signature(matrix, jumps)
    return total


def _symmetric_inertia(m):
    """Inertia (pos, neg, zero) of a symmetric integer matrix, by
    fraction-free congruence reduction with Bareiss division (Bareiss, 1968).

    Each step takes a nonzero diagonal pivot d, forms d times the Schur
    complement of the rest and divides it by the previous pivot prev (1 at
    first): every entry is then a minor of the leading block bordered by
    one row and one column, so the division is exact, and d is a leading
    principal minor, so the true pivot d/prev has the sign of d * prev.
    Row 0 is the pivot whenever its diagonal entry is nonzero, and a row
    whose lead is 0 takes d x / prev: the same formula without its zero
    product, so its division is exact too.  The forms 2S and the arc forms
    of torus knots are sparse, so both cases are common.

    When the whole diagonal is zero, e_i -> e_i + e_j for some m_ij != 0
    makes the diagonal entry 2 m_ij.  That unimodular congruence Q of the
    trailing block leaves its inertia alone, and a bordered minor is linear
    in its last row and in its last column, so the block of minors becomes
    Q^T M Q as well and later divisions stay exact.
    """
    m = [list(row) for row in m]
    pos = neg = 0
    prev = 1
    while m:
        size = len(m)
        piv = 0 if m[0][0] else next((i for i in range(size) if m[i][i]), None)
        if piv is None:
            pair = next(
                ((i, j) for i in range(size) for j in range(i + 1, size) if m[i][j]),
                None,
            )
            if pair is None:
                return pos, neg, size
            piv, j = pair
            for row in m:
                row[piv] += row[j]
            m[piv] = [x + y for x, y in zip(m[piv], m[j])]
        d = m[piv][piv]
        if (d < 0) == (prev < 0):
            pos += 1
        else:
            neg += 1
        prow = m.pop(piv)
        del prow[piv]
        rows = []
        for row in m:
            lead = row.pop(piv)
            if lead:
                rows.append([(d * x - lead * y) // prev for x, y in zip(row, prow)])
            else:
                rows.append([d * x // prev for x in row])
        m, prev = rows, d
    return pos, neg, 0


def parse_lspace_form(poly: SymLaurentPoly) -> LSpaceForm:
    """Recognize (-1)^k + sum_j (-1)^(k-j) (T^n_j + T^-n_j).

    Returns the exponent sequence, or raises NotLSpaceFormError if the
    coefficients do not alternate in exactly that pattern.
    """
    support = [j for j, c in enumerate(poly.higher, start=1) if c != 0]
    k = len(support)
    if poly.a0 != (-1) ** k:
        raise NotLSpaceFormError(f"constant term {poly.a0} != (-1)^{k}")
    for idx, n_j in enumerate(support, start=1):
        expected = (-1) ** (k - idx)
        if poly.coefficient(n_j) != expected:
            raise NotLSpaceFormError(
                f"coefficient of T^{n_j} is {poly.coefficient(n_j)}, expected {expected}"
            )
    return LSpaceForm(tuple(support))


def delta2_from_form(form: LSpaceForm) -> int:
    """Second derivative at 1 in terms of the exponents: 2 sum (-1)^(k-j) n_j^2."""
    k = len(form.exponents)
    return 2 * sum((-1) ** (k - j) * n * n for j, n in enumerate(form.exponents, start=1))
