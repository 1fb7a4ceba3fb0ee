"""Knot invariants from Seifert matrices.

Covers the normalized symmetric Alexander polynomial, its second derivative
at 1, Tristram-Levine signatures at roots of unity (exact, via real
cyclotomic field arithmetic with certified pivot signs), the total
signature sum, and recognition of the Alexander-polynomial shape forced by
L-space surgeries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import (
    RealCyclotomicField,
    _frac_divmod,
    _poly_divexact,
    _poly_mul,
    _poly_sub,
    _trim,
    cyclotomic_polynomial,
)

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
# Determinants over Z[T], entries as coefficient lists, low degree first.


def _poly_matrix_det(rows):
    """Determinant by fraction-free Bareiss elimination (Bareiss, 1968).

    After step k each trailing entry is a (k+1)-minor of the input, so the
    division by the previous pivot is exact and entry degrees stay bounded
    by the minor size: O(n^3) polynomial operations in all.
    """
    # Trim first: [0, 0] is truthy but is the zero polynomial, and a zero
    # pivot must never be chosen.
    m = [[_trim(list(entry)) for entry in row] for row in rows]
    n = len(m)
    if n == 0:
        return [1]
    sign = 1
    prev = [1]
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return []
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pivot, pivot_row = m[k][k], m[k]
        for row in m[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, n):
                num = _poly_sub(_poly_mul(pivot, row[j]), _poly_mul(lead, pivot_row[j]))
                row[j] = _poly_divexact(num, prev)
        prev = pivot
    det = m[n - 1][n - 1]
    return det if sign > 0 else [-c for c in det]


@dataclass(frozen=True)
class SeifertMatrix:
    """Square integer matrix presenting a knot; the 0x0 matrix is the unknot.

    Validity requires even size and det(A - A^T) = +-1 (a unimodular
    Seifert pairing).
    """

    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        object.__setattr__(self, "entries", rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("Seifert matrix must be square")
        if n % 2 != 0:
            raise ValueError("Seifert matrix must have even size")
        skew = [[[rows[i][j] - rows[j][i]] for j in range(n)] for i in range(n)]
        det = _poly_matrix_det(skew)
        det_val = det[0] if det else 0
        if abs(det_val) != 1:
            raise ValueError(f"det(A - A^T) = {det_val}, not +-1: not a valid Seifert pairing")

    @property
    def size(self) -> int:
        return len(self.entries)

    def mirror(self) -> "SeifertMatrix":
        """Seifert matrix of the mirror knot: -A^T."""
        # -A^T - (-A^T)^T = A - A^T: the mirror has this matrix's pairing,
        # which is already known to be unimodular, so __init__'s
        # determinant check is skipped.
        mirrored = object.__new__(SeifertMatrix)
        entries = tuple(tuple(-x for x in column) for column in zip(*self.entries))
        object.__setattr__(mirrored, "entries", entries)
        return mirrored


@dataclass(frozen=True)
class SymLaurentPoly:
    """Symmetric normalized Laurent polynomial a0 + sum a_j (T^j + T^-j).

    Invariants: value 1 at T = 1, and the top coefficient is nonzero unless
    the polynomial is constant.
    """

    a0: int
    higher: tuple[int, ...] = ()

    def __init__(self, a0, higher=()):
        higher = tuple(int(x) for x in higher)
        while higher and higher[-1] == 0:
            higher = higher[:-1]
        object.__setattr__(self, "a0", int(a0))
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
        if g == 0:
            return str(self.a0)
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
            coef = "" if (mag == 1 and mono) else str(mag)
            term = coef + mono if mono else str(mag)
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts) if parts else "0"


@dataclass(frozen=True)
class LSpaceForm:
    """Strictly increasing positive exponents n_1 < ... < n_k; empty means 1."""

    exponents: tuple[int, ...] = ()

    def __init__(self, exponents=()):
        exps = tuple(int(x) for x in exponents)
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
    """Normalized Alexander polynomial: det(A - T A^T) scaled to be symmetric
    and equal to 1 at T = 1."""
    n = matrix.size
    if n == 0:
        return SymLaurentPoly(1)
    a = matrix.entries
    rows = [[[a[i][j], -a[j][i]] for j in range(n)] for i in range(n)]
    det = _poly_matrix_det(rows)
    c = list(det) + [0] * (n + 1 - len(det))
    if any(c[i] != c[n - i] for i in range(n + 1)):
        raise ArithmeticError("det(A - T A^T) is not palindromic; invalid Seifert pairing")
    half = n // 2
    a0 = c[half]
    higher = [c[half + j] for j in range(1, half + 1)]
    return SymLaurentPoly(a0, higher)


def delta2_at_one(poly: SymLaurentPoly) -> int:
    """Second derivative at T = 1: each T^j + T^-j contributes 2 j^2."""
    return 2 * sum(c * j * j for j, c in enumerate(poly.higher, start=1))


def _alexander_vanishes_at(poly: SymLaurentPoly, d: int) -> bool:
    """Exact test of poly(xi) = 0 for xi a primitive d-th root of unity."""
    return not _frac_divmod(poly.as_int_poly(), cyclotomic_polynomial(d))[1]


@lru_cache(maxsize=None)
def _tl_signature_cached(entries, r, m):
    a = entries
    n = len(a)
    if n == 0:
        return 0
    g = math.gcd(r, m)
    d = m // g
    rp = r // g
    poly = alexander_from_seifert(SeifertMatrix(entries))
    if _alexander_vanishes_at(poly, d):
        raise SingularValueError(r, m)
    # A(xi) = (1-conj(xi))A + (1-xi)A^T is Hermitian for |xi| = 1 with
    # real part (1-cos)(A+A^T) and imaginary part sin*(A-A^T).  Its inertia
    # is half that of the real symmetric matrix [[2Re, -2Im], [2Im, 2Re]],
    # whose entries live in Q(2cos(pi/(2d))).
    field = RealCyclotomicField(4 * d)
    two_cos = field.two_cos_multiple(4 * rp)
    two_sin = field.two_cos_multiple(d - 4 * rp)
    re_coef = field.scalar(2) - two_cos  # 2(1 - cos)
    zero = field.zero()
    big = [[zero] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            sym = a[i][j] + a[j][i]
            skew = a[i][j] - a[j][i]
            re = re_coef * sym if sym else zero
            im = two_sin * skew if skew else zero
            big[i][j] = re
            big[n + i][n + j] = re
            big[i][n + j] = -im
            big[n + i][j] = im
    pos, neg, null = _symmetric_inertia(big)
    if null != 0:
        raise ArithmeticError("singular Hermitian matrix despite nonzero Alexander value")
    return (pos - neg) // 2


def tl_signature(matrix: SeifertMatrix, r: int, m: int) -> int:
    """Tristram-Levine signature at xi = exp(2*pi*i*r/m), 0 < r < m.

    Exact: pivot signs in the congruence reduction are certified field
    computations.  Raises SingularValueError when the Alexander polynomial
    vanishes at xi.
    """
    if not 0 < r < m:
        raise ValueError("need 0 < r < m")
    return _tl_signature_cached(matrix.entries, r, m)


def sigma_total(matrix: SeifertMatrix, m: int) -> int:
    """Total signature sum over r = 1 .. m-1 at the m-th roots of unity."""
    if m < 1:
        raise ValueError("need m >= 1")
    return sum(tl_signature(matrix, r, m) for r in range(1, m))


def _symmetric_inertia(m):
    """Inertia (pos, neg, zero) of a symmetric matrix of field elements, by
    congruence reduction with exact pivots and hyperbolic pairs."""
    pos = neg = zero = 0
    while m:
        size = len(m)
        piv = next((i for i in range(size) if not m[i][i].is_zero()), None)
        if piv is not None:
            d = m[piv][piv]
            if d.sign() > 0:
                pos += 1
            else:
                neg += 1
            dinv = d.inverse()
            rest = [k for k in range(size) if k != piv]
            col = [m[k][piv] * dinv for k in rest]
            m = [
                [m[a][b] - col[ia] * m[piv][b] for b in rest]
                for ia, a in enumerate(rest)
            ]
            continue
        pair = next(
            ((i, j) for i in range(size) for j in range(i + 1, size) if not m[i][j].is_zero()),
            None,
        )
        if pair is None:
            zero += size
            break
        i, j = pair
        pos += 1
        neg += 1
        binv = m[i][j].inverse()
        rest = [k for k in range(size) if k not in (i, j)]
        ci = [m[k][i] * binv for k in rest]
        cj = [m[k][j] * binv for k in rest]
        m = [
            [m[a][b] - ci[ia] * m[j][b] - cj[ia] * m[i][b] for b in rest]
            for ia, a in enumerate(rest)
        ]
    return pos, neg, zero


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
