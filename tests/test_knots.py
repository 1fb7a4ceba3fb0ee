import json
import math
import os
from fractions import Fraction
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import dehnsurg
import dehnsurg.cli
import dehnsurg.knots as knots

from dehnsurg import (
    LSpaceForm,
    NotLSpaceFormError,
    SeifertMatrix,
    SingularValueError,
    SymLaurentPoly,
    alexander_from_seifert,
    delta2_at_one,
    delta2_from_form,
    parse_lspace_form,
    sigma_total,
    tl_signature,
)
from dehnsurg.cyclotomic import (
    RealCyclotomicField,
    _frac_divmod,
    _in_two_cos,
    _poly_add,
    _poly_mul,
    _poly_sub,
)
from dehnsurg.knots import (
    _alexander_vanishes_at,
    _arc_inertia,
    _arc_signature,
    _cayley,
    _int_det,
    _jumps,
    _packed_alexander,
    _poly_divexact,
    _prime_factors,
    _roots_upto,
    _sturm,
    _symmetric_inertia,
    _tan2_enclosure,
    _totient,
    _trim,
    cyclotomic_polynomial,
)
from torus import litherland_sigma_total, torus_seifert

TREFOIL = SeifertMatrix([[-1, 1], [0, -1]])
FIGURE_EIGHT = SeifertMatrix([[1, 1], [0, -1]])
UNKNOT = SeifertMatrix([])
TORUS_2_5 = SeifertMatrix([[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [0, 0, 0, -1]])


def random_seifert(rng, genus):
    """Random valid Seifert pairing: fixed standard skew part plus an
    arbitrary symmetric integer matrix."""
    n = 2 * genus
    a = [[0] * n for _ in range(n)]
    for b in range(genus):
        a[2 * b][2 * b + 1] = 1  # skew part is the standard symplectic form
    for i in range(n):
        for j in range(i, n):
            s = rng.randint(-2, 2)
            a[i][j] += s
            if j != i:
                a[j][i] += s
    return SeifertMatrix(a)


def cofactor_det(rows):
    """Test-only oracle: determinant over Z[T] by cofactor expansion along
    rows, with a memo on the set of columns still free (exponential)."""
    n = len(rows)
    memo = {}

    def minor(i, mask):
        if i == n:
            return [1]
        if mask in memo:
            return memo[mask]
        total = []
        sign = 1
        for j in range(n):
            bit = 1 << j
            if mask & bit:
                entry = rows[i][j]
                if entry:
                    term = _poly_mul(entry, minor(i + 1, mask & ~bit))
                    if sign < 0:
                        term = [-t for t in term]
                    total = _poly_add(total, term)
                sign = -sign
        memo[mask] = total
        return total

    return minor(0, (1 << n) - 1)


# Test-only second oracle, the package's former determinant path: Bareiss
# elimination over Z[T], entries as coefficient lists, low degree first.


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


# Test-only third oracle, the package's former Alexander path: integer
# determinants of A - T A^T at T = 0, 2, ..., n, D(1) = 1, and exact Newton
# interpolation.


def _interpolate(values) -> list[int]:
    """The len(values) integer coefficients, low degree first, of the
    polynomial of degree below len(values) taking values[t] at t = 0, 1, ...

    Newton divided differences at consecutive integers are integers when
    the polynomial has integer coefficients, so level k divides exactly by
    k; a remainder means no such polynomial and raises ArithmeticError.
    The Newton form sum_k c_k t(t-1)...(t-k+1) is then expanded in place.
    """
    c = list(values)
    n = len(c)
    # Level k: c[j] becomes the divided difference on t = j - k, ..., j.
    for k in range(1, n):
        for j in range(n - 1, k - 1, -1):
            c[j], r = divmod(c[j] - c[j - 1], k)
            if r:
                raise ArithmeticError("values are not those of an integer polynomial")
    # Horner: c[k:] becomes c_k + (t - k) * c[k+1:]; k = 0 subtracts nothing.
    for k in range(n - 2, 0, -1):
        for j in range(k, n - 1):
            c[j] -= k * c[j + 1]
    return c


def evaluation_alexander(matrix: SeifertMatrix) -> SymLaurentPoly:
    """Normalized Alexander polynomial: D(T) = det(A - T A^T) scaled to be
    symmetric and equal to 1 at T = 1.

    D has degree at most n = size, so it is interpolated exactly from its
    integer values D(0), D(1), ..., D(n).  All n + 1 points are used, so
    the palindrome check below sees every coefficient.
    """
    n = matrix.size
    if n == 0:
        return SymLaurentPoly(1)
    a = matrix.entries
    pairs = [list(zip(row, col)) for row, col in zip(a, zip(*a))]
    # D(1) = det(A - A^T) needs no elimination: a skew-symmetric integer
    # matrix of even size has det = Pf^2 >= 0, so a valid pairing, whose
    # determinant is +-1, has D(1) = +1; the mirror -A^T has the same pairing.
    dets = (_int_det([[x - t * y for x, y in row] for row in pairs]) for t in range(2, n + 1))
    c = _interpolate([_int_det(a), 1, *dets])
    if any(c[i] != c[n - i] for i in range(n + 1)):
        raise ArithmeticError("det(A - T A^T) is not palindromic; invalid Seifert pairing")
    half = n // 2
    a0 = c[half]
    higher = [c[half + j] for j in range(1, half + 1)]
    return SymLaurentPoly(a0, higher)


def float_signature(matrix, r, m):
    """Independent floating-point oracle; returns (signature, margin)."""
    entries = matrix.entries
    if not entries:
        return 0, 1.0
    xi = np.exp(2j * np.pi * r / m)
    a = np.array(entries, dtype=complex)
    h = (1 - np.conj(xi)) * a + (1 - xi) * a.T
    ev = np.linalg.eigvalsh(h)
    return int((ev > 0).sum() - (ev < 0).sum()), float(np.abs(ev).min())


def field_signature(entries, r, m):
    """Test-only exact oracle, the package's former signature path: the
    inertia of the Hermitian form over Q(2cos(pi/(2d))), with certified
    pivot signs.  None where the form is singular, which is exactly where
    the Alexander polynomial vanishes at xi."""
    a = entries
    n = len(a)
    if n == 0:
        return 0
    g = math.gcd(r, m)
    d = m // g
    rp = r // g
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
    pos, neg, null = field_inertia(big)
    return None if null else (pos - neg) // 2


def field_inertia(m):
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


def fraction_inertia(m):
    """Inertia (pos, neg, zero) of a symmetric rational matrix, by congruence
    reduction with exact Fraction pivots and hyperbolic pairs."""
    m = [[Fraction(x) for x in row] for row in m]
    pos = neg = zero = 0
    while m:
        size = len(m)
        piv = next((i for i in range(size) if m[i][i]), None)
        if piv is not None:
            d = m[piv][piv]
            if d > 0:
                pos += 1
            else:
                neg += 1
            rest = [k for k in range(size) if k != piv]
            col = [m[k][piv] / d for k in rest]
            m = [
                [m[a][b] - c * m[piv][b] for b in rest] if c else [m[a][b] for b in rest]
                for a, c in zip(rest, col)
            ]
            continue
        pair = next(
            ((i, j) for i in range(size) for j in range(i + 1, size) if m[i][j]),
            None,
        )
        if pair is None:
            zero += size
            break
        i, j = pair
        pos += 1
        neg += 1
        b = m[i][j]
        rest = [k for k in range(size) if k not in (i, j)]
        ci = [m[k][i] / b for k in rest]
        cj = [m[k][j] / b for k in rest]
        m = [
            [m[a][b] - ci[ia] * m[j][b] - cj[ia] * m[i][b] for b in rest]
            for ia, a in enumerate(rest)
        ]
    return pos, neg, zero


def test_seifert_validation():
    with pytest.raises(ValueError):
        SeifertMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        SeifertMatrix([[0]])  # odd size
    with pytest.raises(ValueError):
        SeifertMatrix([[0, 2], [0, 0]])  # det(A - A^T) = 4
    assert UNKNOT.size == 0


def test_alexander_examples():
    assert alexander_from_seifert(TREFOIL) == SymLaurentPoly(-1, (1,))
    assert alexander_from_seifert(UNKNOT) == SymLaurentPoly(1)
    assert alexander_from_seifert(FIGURE_EIGHT) == SymLaurentPoly(3, (-1,))
    assert str(alexander_from_seifert(TREFOIL)) == "T - 1 + T^-1"
    assert str(alexander_from_seifert(FIGURE_EIGHT)) == "-T + 3 - T^-1"
    # [[0, 1], [0, 0]] presents the unknot, so a block sum with it keeps the
    # Alexander polynomial, though det A = 0.
    assert alexander_from_seifert(SeifertMatrix([[0, 1], [0, 0]])) == SymLaurentPoly(1)
    trefoil_plus_null = [[-1, 1, 0, 0], [0, -1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
    assert alexander_from_seifert(SeifertMatrix(trefoil_plus_null)) == SymLaurentPoly(-1, (1,))


def test_mirror_equals_validated_negative_transpose(corpus):
    rng = random.Random(8)
    matrices = [r.seifert for r in corpus if r.seifert is not None]
    matrices += [random_seifert(rng, genus) for genus in range(1, 6)]
    for a in matrices:
        n = a.size
        validated = SeifertMatrix([[-a.entries[j][i] for j in range(n)] for i in range(n)])
        assert a.mirror() == validated
        assert a.mirror().mirror() == a


def test_alexander_normalization_invariants():
    rng = random.Random(5)
    for _ in range(40):
        a = random_seifert(rng, rng.randint(0, 3))
        poly = alexander_from_seifert(a)
        assert poly.a0 + 2 * sum(poly.higher) == 1
        if poly.higher:
            assert poly.higher[-1] != 0
        # mirroring and transposing preserve the polynomial
        assert alexander_from_seifert(a.mirror()) == poly


def test_sym_laurent_validation():
    with pytest.raises(ValueError):
        SymLaurentPoly(0, (2,))  # evaluates to 4 at T=1
    p = SymLaurentPoly(3, (-1, 0))
    assert p.higher == (-1,)
    assert p.coefficient(0) == 3
    assert p.coefficient(-1) == -1
    assert p.coefficient(5) == 0


def test_delta2_examples():
    assert delta2_at_one(SymLaurentPoly(-1, (1,))) == 2
    assert delta2_at_one(SymLaurentPoly(1)) == 0
    assert delta2_at_one(SymLaurentPoly(3, (-1,))) == -2
    assert delta2_at_one(alexander_from_seifert(TORUS_2_5)) == 6


def test_tl_signature_examples():
    assert tl_signature(TREFOIL, 1, 2) == -2
    assert tl_signature(UNKNOT, 1, 2) == 0
    assert tl_signature(FIGURE_EIGHT, 1, 2) == 0


def test_tl_signature_argument_validation():
    with pytest.raises(ValueError):
        tl_signature(TREFOIL, 0, 2)
    with pytest.raises(ValueError):
        tl_signature(TREFOIL, 2, 2)


def test_tl_signature_singular_at_alexander_root():
    # The trefoil polynomial vanishes at primitive sixth roots of unity.
    with pytest.raises(SingularValueError):
        tl_signature(TREFOIL, 1, 6)
    with pytest.raises(SingularValueError):
        tl_signature(TREFOIL, 5, 6)
    # ... but not at the primitive third root hiding inside m = 6.
    assert tl_signature(TREFOIL, 2, 6) == -2


def test_sigma_total_examples():
    assert sigma_total(TREFOIL, 2) == -2
    assert sigma_total(TREFOIL, 1) == 0
    assert sigma_total(TREFOIL, 3) == -4
    assert sigma_total(UNKNOT, 7) == 0
    assert sigma_total(TORUS_2_5, 2) == -4
    with pytest.raises(SingularValueError) as err:
        sigma_total(TREFOIL, 6)
    assert err.value.r == 1 and err.value.m == 6


def test_signature_matches_float_oracle():
    rng = random.Random(12)
    matrices = [TREFOIL, FIGURE_EIGHT, TORUS_2_5] + [
        random_seifert(rng, rng.randint(1, 3)) for _ in range(12)
    ]
    for a in matrices:
        poly = alexander_from_seifert(a)
        for m in range(2, 13):
            for r in range(1, m):
                approx, margin = float_signature(a, r, m)
                try:
                    exact = tl_signature(a, r, m)
                except SingularValueError:
                    assert margin < 1e-6, (a.entries, r, m)
                    continue
                if margin > 1e-8:
                    assert exact == approx, (a.entries, r, m)


# Largest m checked against the field oracle, by genus: the oracle's cost
# grows steeply with the field degree and the matrix size.
FIELD_ORACLE_M = {0: 24, 1: 24, 2: 16, 3: 13, 4: 12}


def test_signature_matches_field_oracle(corpus):
    rng = random.Random(14)
    matrices = [r.seifert for r in corpus if r.seifert is not None]
    matrices += [random_seifert(rng, genus) for genus in (1, 2, 2, 3, 4)]
    for a in matrices:
        known = {}  # conjugate roots share one Hermitian spectrum
        for m in range(2, FIELD_ORACLE_M[a.size // 2] + 1):
            for r in range(1, m):
                g = math.gcd(r, m)
                d = m // g
                k = min(r // g, d - r // g)
                if (k, d) not in known:
                    known[k, d] = field_signature(a.entries, k, d)
                if known[k, d] is None:
                    with pytest.raises(SingularValueError):
                        tl_signature(a, r, m)
                else:
                    assert tl_signature(a, r, m) == known[k, d], (a.entries, r, m)


def test_sigma_total_at_large_m_finishes_quickly(corpus_by_name):
    torus_2_7 = corpus_by_name["torus_2_7"].seifert
    start = time.perf_counter()
    assert sigma_total(torus_2_7, 37) == -128
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, elapsed


def test_sigma_total_genus_ten_finishes_quickly():
    rng = random.Random(34)
    a = random_seifert(rng, 10)
    start = time.perf_counter()
    total = sigma_total(a, 13)
    elapsed = time.perf_counter() - start
    assert total % 2 == 0
    assert elapsed < 5.0, elapsed


TORUS_KNOTS = {"trefoil_right": (2, 3), "torus_2_5": (2, 5), "torus_2_7": (2, 7)}


def test_sigma_total_matches_litherland(corpus_by_name):
    for name, (p, q) in TORUS_KNOTS.items():
        a = corpus_by_name[name].seifert
        for m in [*range(1, 80), 1009, 10**6 + 3, 10**9 + 7]:
            want = litherland_sigma_total(p, q, m)
            if want is None:
                with pytest.raises(SingularValueError):
                    sigma_total(a, m)
            else:
                assert sigma_total(a, m) == want, (name, m)
    # Every torus knot of genus <= 12 and its mirror, whose signatures
    # negate; on several of them some arcs are no staircase and take the 2n x 2n
    # congruence reduction.
    knots_up_to_genus_12 = [
        (p, q) for p in range(2, 26) for q in range(p + 1, 26) if math.gcd(p, q) == 1 and (p - 1) * (q - 1) <= 24
    ]
    assert len(knots_up_to_genus_12) == 24
    reduced = 0
    for p, q in knots_up_to_genus_12:
        right = torus_seifert(p, q)
        jumps = _jumps(right)[1]
        last = _arc_signature(right, jumps)
        reduced += any(_arc_signature(right, arc) != arc * last // jumps for arc in range(jumps))
        for m in [*range(1, 41), 1009, 10**6 + 3]:
            want = litherland_sigma_total(p, q, m)
            for a, sign in ((right, 1), (right.mirror(), -1)):
                if want is None:
                    with pytest.raises(SingularValueError):
                        sigma_total(a, m)
                else:
                    assert sigma_total(a, m) == sign * want, (p, q, sign, m)
    assert reduced >= 5, reduced


def test_sigma_total_cold_time_independent_of_m(corpus_by_name, clear_caches):
    torus_2_7 = corpus_by_name["torus_2_7"].seifert
    rng = random.Random(35)
    for m in sorted({int(10 ** rng.uniform(1, 6)) for _ in range(25)} | {10**6}):
        if litherland_sigma_total(2, 7, m) is None:
            continue
        clear_caches()
        start = time.perf_counter()
        sigma_total(torus_2_7, m)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.05, (m, elapsed)


def test_sigma_total_builds_no_fraction_on_staircases(corpus_by_name, clear_caches, fraction_calls):
    # The roots of unity are placed on integer pairs.
    for name in ("trefoil_right", "trefoil_left", "torus_2_5", "torus_2_7"):
        a = corpus_by_name[name].seifert
        for m in range(1, 14):
            clear_caches()
            try:
                sigma_total(a, m)
            except SingularValueError:
                pass
            assert fraction_calls == [], (name, m)


def block_sum(*matrices):
    """Seifert matrix of the connected sum: the block-diagonal sum."""
    n = sum(a.size for a in matrices)
    rows, offset = [], 0
    for a in matrices:
        rows += [[0] * offset + list(row) + [0] * (n - offset - a.size) for row in a.entries]
        offset += a.size
    return SeifertMatrix(rows)


def signature_test_matrices(corpus):
    """The corpus, its mirrors, random pairings of genus 1-6 and connected
    sums, among them sums whose D has repeated roots."""
    rng = random.Random(70)
    by_name = {r.name: r.seifert for r in corpus if r.seifert is not None}
    matrices = [a for a in by_name.values() if a.size]
    matrices += [a.mirror() for a in matrices]
    matrices += [random_seifert(rng, genus) for genus in range(1, 7) for _ in range(20)]
    right, t25, t27 = by_name["trefoil_right"], by_name["torus_2_5"], by_name["torus_2_7"]
    eight = by_name["figure_eight"]
    matrices += [
        block_sum(t25, t25, right.mirror()),
        block_sum(right, right),
        block_sum(right, right.mirror()),
        block_sum(t25, right, eight),
        block_sum(t27, t25.mirror()),
        block_sum(t27, random_seifert(rng, 2)),
    ]
    return matrices


def test_arc_rule_matches_the_inertia_on_every_arc(corpus, clear_caches, monkeypatch):
    # _arc_signature reads arc 0 and staircases off the jumps and runs the
    # integer inertia only on the other arcs; every arc must agree with it.
    inertia_arcs = []

    def recorded(matrix, arc):
        inertia_arcs.append(arc)
        return _arc_inertia(matrix, arc)

    monkeypatch.setattr(knots, "_arc_inertia", recorded)
    clear_caches()
    staircase = fallback = 0
    for a in signature_test_matrices(corpus):
        jumps = _jumps(a)[1]
        inertia_arcs.clear()
        got = [_arc_signature(a, arc) for arc in range(jumps + 1)]
        assert got == [_arc_inertia(a, arc) for arc in range(jumps + 1)], a.entries
        assert got[0] == 0 and 0 not in inertia_arcs and jumps not in inertia_arcs
        fallback += len(inertia_arcs)
        staircase += jumps - 1 - len(inertia_arcs) if jumps else 0
    assert staircase >= 8 and fallback >= 10, (staircase, fallback)
    # Two double roots of D, jumps of -4, around a simple one, a jump of +2:
    # the last arc is -2 per jump, yet the arcs are no staircase.
    by_name = {r.name: r.seifert for r in corpus}
    a = block_sum(by_name["torus_2_5"], by_name["torus_2_5"], by_name["trefoil_left"])
    assert a.size == 10 and not _jumps(a)[2]
    assert [_arc_signature(a, arc) for arc in range(4)] == [0, -4, -2, -6]


def test_staircase_search_reduces_only_the_arcs_it_splits_at(clear_caches, monkeypatch):
    # Torus knots whose signature steps change direction: the search forces
    # every arc between two known ones 2 per jump apart and reduces only the
    # middle arcs it splits at, each once.
    reduced = []
    monkeypatch.setattr(knots, "_arc_inertia", lambda a, arc: reduced.append(arc) or _arc_inertia(a, arc))
    for (p, q), reductions in (((5, 6), 3), ((6, 7), 5)):
        clear_caches()
        reduced.clear()
        assert sigma_total(torus_seifert(p, q), 61) == litherland_sigma_total(p, q, 61), (p, q)
        assert len(reduced) == len(set(reduced)) == reductions, (p, q, reduced)


def test_cyclotomic_factors_are_bounded_by_the_jumps(corpus):
    # Phi_d | Delta puts phi(d)/2 distinct jumps on the upper semicircle, and
    # never happens for d <= 2: the singularity test divides by no other.
    divisors = set()
    for a in signature_test_matrices(corpus):
        poly, jumps = a.alexander, _jumps(a)[1]
        for d in range(1, 201):
            try:
                _poly_divexact(poly.as_int_poly(), list(cyclotomic_polynomial(d)))
                divides = True
            except ArithmeticError:
                divides = False
            if divides:
                assert d >= 3 and _totient(d, _prime_factors(d)) <= 2 * jumps, (a.entries, d)
                divisors.add(d)
            assert _alexander_vanishes_at(poly, d, jumps) == divides, (a.entries, d)
    assert {6, 10, 14} <= divisors


def test_tan2_enclosure_contains_true_value():
    import mpmath

    rng = random.Random(36)
    big = 10**9 + 7
    # r = m/4 is where the complementary angle takes over; at r = (m-1)/2,
    # theta is within pi/m of pi
    cases = [(1, 3), (1, 4), (2, 5), (499, 1000), (1, big), (big // 4, big), (big // 4 + 1, big)]
    cases.append(((big - 1) // 2, big))
    for _ in range(40):
        m = rng.choice([rng.randint(3, 60), rng.randint(61, 10**6), rng.randint(10**6, 10**12)])
        cases.append((rng.randint(1, (m - 1) // 2), m))

    def mpf(x):
        return mpmath.mpf(x.numerator) / x.denominator

    for r, m in cases:
        with mpmath.workdps(100):
            true = mpmath.tan(mpmath.pi * r / m) ** 2
            for w in (64, 128, 256):
                lo, hi = (x if x is None else Fraction(*x) for x in _tan2_enclosure(r, m, w))
                assert 0 <= lo and mpf(lo) <= true, (r, m, w)
                assert hi is None or true <= mpf(hi), (r, m, w)
        # at 256 bits every case here is bounded and tight
        assert hi is not None and hi - lo <= hi * Fraction(1, 1 << 100), (r, m)


def _distinct_primes(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % k for k in range(2, math.isqrt(p) + 1))]


def _poly_jumps(poly):
    """The positive roots of D(u) = (1 + u)^deg Delta(e^(i theta)), as _jumps
    counts them, for a polynomial with no Seifert matrix."""
    d = knots._cayley(poly.as_int_poly())[::2]
    d[1::2] = [-x for x in d[1::2]]
    return _roots_upto(_sturm(d), None)


def test_cyclotomic_filter_divides_only_where_phi_d_at_plus_minus_one_allows(monkeypatch):
    # Phi_d(1) = p for d = p^k and Phi_d(-1) = p for d = 2 p^k, p odd: no
    # prime power reaches a division, nor d = 2 p^k with p not dividing
    # Delta(-1), and every answer is plain division's, on seeded normalized
    # symmetric polynomials and on their products with cyclotomic factors.
    rng = random.Random(2507)
    polys = []
    for _ in range(3000):
        higher = [rng.randint(-3, 3) for _ in range(rng.randint(0, 5))]
        polys.append(SymLaurentPoly(1 - 2 * sum(higher), higher))
    factors = [cyclotomic_polynomial(d) for d in (6, 10, 12, 15)]  # each with Phi_d(1) = 1
    for _ in range(400):
        c = rng.choice(polys[:200]).as_int_poly()
        for phi in rng.sample(factors, rng.randint(1, 2)):
            c = _poly_mul(c, list(phi))
        half = len(c) // 2
        polys.append(SymLaurentPoly(c[half], c[half + 1 :]))
    for d in range(1, 201):
        cyclotomic_polynomial(d)  # cached: the patch below sees only the test's divisions
    divided = []
    monkeypatch.setattr(knots, "_poly_divexact", lambda a, b: divided.append(b) or _poly_divexact(a, b))
    reached, vanished = set(), set()
    for poly in polys:
        jumps, higher = _poly_jumps(poly), poly.higher
        at_minus_one = poly.a0 - 2 * sum(higher[::2]) + 2 * sum(higher[1::2])
        for d in range(3, 201):
            divided.clear()
            got = _alexander_vanishes_at(poly, d, jumps)
            try:
                _poly_divexact(poly.as_int_poly(), list(cyclotomic_polynomial(d)))
                want = True
            except ArithmeticError:
                want = False
            assert got == want, (poly, d)
            if divided:
                primes = _distinct_primes(d)
                assert len(primes) > 1, (poly, d)
                if d % 4 == 2 and len(primes) == 2:
                    assert at_minus_one % primes[1] == 0, (poly, d)
                reached.add(d)
            if got:
                vanished.add(d)
    assert {6, 10, 12, 15} <= vanished and {6, 10, 12, 14, 15} <= reached


def test_sigma_total_places_nothing_without_jumps(corpus_by_name, clear_caches, monkeypatch):
    # With no jumps every r is on arc 0, so no root of unity is placed.
    placed = []
    enclosure = knots._tan2_enclosure
    monkeypatch.setattr(knots, "_tan2_enclosure", lambda *args: placed.append(args) or enclosure(*args))
    for name in ("figure_eight", "twist_6_1"):
        a = corpus_by_name[name].seifert
        clear_caches()
        assert _jumps(a)[1] == 0
        assert [sigma_total(a, m) for m in range(1, 61)] == [0] * 60
    assert placed == []
    sigma_total(corpus_by_name["trefoil_right"].seifert, 59)
    assert placed


def test_signatures_run_no_cayley_map_once_delta_is_derived(corpus, clear_caches, monkeypatch):
    # _jumps reads D(u) off the packed digits, dividing out the (1 + u)^(g - deg)
    # they carry: once Delta is derived, neither the total signature nor
    # any single one runs the Cayley map again.
    calls = []
    cayley = knots._cayley
    monkeypatch.setattr(knots, "_cayley", lambda c: calls.append(c) or cayley(c))
    rng = random.Random(75)
    matrices = [SeifertMatrix(r.seifert.entries) for r in corpus if r.seifert is not None and r.seifert.size]
    for genus in range(4):
        base = random_seifert(rng, genus).entries if genus else ()
        for extra in (1, 2, 3):
            matrices.append(SeifertMatrix(_with_null_blocks(base, extra)))
    matrices += [a.mirror() for a in matrices]
    clear_caches()
    for a in matrices:
        calls.clear()
        a.alexander
        assert len(calls) == 1, a.entries  # the one derivation of Delta
        calls.clear()
        for m in range(1, 41):
            for f, args in [(sigma_total, (a, m)), *((tl_signature, (a, r, m)) for r in range(1, m))]:
                try:
                    f(*args)
                except SingularValueError:
                    pass
        assert calls == [], a.entries
    assert sum(a.size // 2 > a.alexander.degree for a in matrices) >= 24


def test_arc_placement_refines_a_wide_enclosure(corpus, clear_caches, monkeypatch):
    # An enclosure answered at a sixteenth of the bits asked for, at least
    # 8, is still proven, only wider: _arc_at must double its width until
    # the Sturm counts at both ends agree, and every signature stays.
    matrices = [record.seifert for record in corpus if record.seifert is not None]
    big = 10**6 + 3

    def signatures():
        clear_caches()
        out = []
        for a in matrices:
            for m in [*range(1, 14), big]:
                rs = range(1, m) if m < big else (1, 2, m // 4, m // 4 + 1, m // 3, m // 2, m - 1)
                for f, args in [(sigma_total, (a, m)), *((tl_signature, (a, r, m)) for r in rs)]:
                    try:
                        out.append(f(*args))
                    except SingularValueError as e:
                        out.append((e.r, e.m))
        return out

    want = signatures()
    enclosure, arc_at = knots._tan2_enclosure, knots._arc_at
    asked, placed = [], []
    monkeypatch.setattr(knots, "_tan2_enclosure", lambda r, m, w: asked.append(w) or enclosure(r, m, max(8, w // 16)))
    monkeypatch.setattr(knots, "_arc_at", lambda *args: placed.append(args) or arc_at(*args))
    assert signatures() == want
    assert placed and len(asked) > len(placed)


def test_arc_placement_rarely_refines(corpus, clear_caches, monkeypatch):
    # _arc_at's first enclosure, from the guarded pi, holds a root of D
    # only when one is about as close to u as its width: over
    # every placement that the total and the single signatures make, at most
    # 1.01 enclosures are asked for per placement.
    rng = random.Random(3301)
    matrices = [r.seifert for r in corpus if r.seifert is not None and r.seifert.size]
    matrices += [random_seifert(rng, 1 + i % 4) for i in range(20)]
    matrices += [torus_seifert(p, q) for p, q in ((2, 3), (3, 5), (4, 5), (5, 6))]
    enclosure, arc_at = knots._tan2_enclosure, knots._arc_at
    asked, placed = [], []
    monkeypatch.setattr(knots, "_tan2_enclosure", lambda *args: asked.append(args) or enclosure(*args))
    monkeypatch.setattr(knots, "_arc_at", lambda *args: placed.append(args) or arc_at(*args))
    clear_caches()
    for a in matrices:
        for m in [*range(1, 61), 10**6 + 3, 10**9 + 7, 10**18 + 3]:
            rs = range(1, m) if m <= 60 else (1, 2, m // 4, m // 4 + 1, m // 3, m // 2, m - 1)
            for f, args in [(sigma_total, (a, m)), *((tl_signature, (a, r, m)) for r in rs)]:
                try:
                    f(*args)
                except SingularValueError:
                    pass
    assert len(placed) > 20000 and len(asked) <= 1.01 * len(placed), (len(asked), len(placed))


def test_sigma_total_reads_the_sturm_count_at_zero_once_per_sum(corpus, clear_caches, monkeypatch):
    # _jumps keeps the sign variations at u = 0 that count the jumps, and
    # _arc_counts shares them with every placement, so once _jumps and the
    # arcs' signatures, cached per matrix and reading u = 0 on their own,
    # are computed, no sum reads u = 0 again.
    variations = knots._variations
    zero_reads = []

    def counting(seq, *points):
        zero_reads.extend(x for x in points if x == (0, 1))
        return variations(seq, *points)

    monkeypatch.setattr(knots, "_variations", counting)
    sums = 0
    for record in corpus:
        a = record.seifert
        if a is None or record.name in ("figure_eight", "twist_6_1"):
            continue
        clear_caches()
        jumps = _jumps(a)[1]
        for arc in range(jumps + 1):
            _arc_signature(a, arc)
        for m in range(1, 61):
            zero_reads.clear()
            try:
                sigma_total(a, m)
            except SingularValueError:
                assert zero_reads == [], (record.name, m)
                continue
            assert zero_reads == [], (record.name, m)
            sums += bool(jumps and m >= 3)
    assert sums >= 5 * 50


def test_variations_match_a_fraction_count():
    # The one-pass count against its definition: each entry's value at a/b
    # as a Fraction (its top coefficient at +infinity), zero values
    # dropped, and a change between each two neighbours of opposite sign.
    def reference(seq, x):
        if x is None:
            values = [p[-1] for p in seq]
        else:
            t = Fraction(*x)
            values = [sum(c * t**k for k, c in enumerate(p)) for p in seq]
        signs = [v > 0 for v in values if v]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    rng = random.Random(3201)
    vanishing = 0
    for _ in range(3000):
        small, large = (rng.randint(0, 9), rng.randint(2, 9)), (rng.randint(0, 10**9), rng.randint(2, 10**9))
        a, b = rng.choice([(0, 1), small, large])
        seq = []
        for _ in range(rng.randint(1, 5)):
            degree = rng.randint(0, 6)
            root = degree and rng.random() < 0.4  # a factor b t - a: the value at a/b is 0
            p = [rng.choice((0, 0, 1, -1, 2, -5)) for _ in range(degree - root)]
            p.append(rng.choice((1, -1, 3, -7)))
            if root:
                p = [b * y - a * x for x, y in zip(p + [0], [0] + p)]
            vanishing += bool(root)
            seq.append(p)
        points = [(a, b), None, (0, 1)]
        rng.shuffle(points)
        assert knots._variations(seq, *points) == [reference(seq, x) for x in points], (seq, points)
    assert vanishing > 1000, vanishing


def test_cos_fixed_shifts_before_it_divides():
    # floor(floor(t / 2^s) / c) = floor(t / (2^s c)) for t >= 0, so the
    # fixed-point cosine equals the formula that divides once by c 2^(2w).
    def floor_formula(a, b, w):
        p, err_pi = knots._pi_fixed(w)
        x = p * a // b
        x2, shift = x * x, 2 * w
        total = term = 1 << w
        k = 0
        while term:
            k += 1
            term = term * x2 // ((2 * k - 1) * 2 * k << shift)
            total += -term if k % 2 else term
        return total, 2 * k + 2 + err_pi + 1

    rng = random.Random(2508)
    for _ in range(10**4):
        w = rng.randint(8, 300)
        b = rng.choice([rng.randint(1, 60), rng.randint(61, 10**6), rng.randint(10**6, 10**18)])
        a = rng.choice([0, b // 2, rng.randint(0, b // 2)])
        assert knots._cos_fixed(a, b, w) == floor_formula(a, b, w), (a, b, w)


def test_pi_fixed_is_within_its_bound_of_a_few_units():
    # Machin's sum at w + 8 bits floored by 2^8: pi 2^w is within e of p at
    # every w, and e <= 4 for w <= 150, every first width of _arc_at for
    # m < 2^73.  The reference is floor(pi 2^top) from mpmath with 64 guard
    # bits, so pi 2^w lies in [big, big + 1) / 2^(top - w).
    import mpmath

    top = 1100 + 64
    with mpmath.workprec(top + 64):
        big = int(mpmath.floor(mpmath.pi * mpmath.mpf(2) ** top))
    for w in range(4, 1101):
        p, e = knots._pi_fixed(w)
        shift = top - w
        assert (p - e) << shift <= big and big + 1 <= (p + e) << shift, (w, p, e)
        assert w > 150 or e <= 4, (w, e)


def test_tan2_enclosure_at_the_first_width_contains_true_value(monkeypatch):
    # _arc_at's first enclosure has about 2 log2(m) bits, not a fixed 64; on
    # the cases of test_tan2_enclosure_contains_true_value it must still
    # hold tan^2(pi r/m).  The width is the one _arc_at asks for first,
    # read by placing u against D = 1, which has no root to refine around.
    import mpmath

    asked = []
    monkeypatch.setattr(knots, "_tan2_enclosure", lambda r, m, w: asked.append(w) or _tan2_enclosure(r, m, w))

    def first_width(r, m):
        asked.clear()
        knots._arc_at(((1,),), 0, r, m)
        (w,) = asked
        return w

    rng = random.Random(36)
    big = 10**9 + 7
    cases = [(1, 3), (1, 4), (2, 5), (499, 1000), (1, big), (big // 4, big), (big // 4 + 1, big)]
    cases.append(((big - 1) // 2, big))
    for _ in range(40):
        m = rng.choice([rng.randint(3, 60), rng.randint(61, 10**6), rng.randint(10**6, 10**12)])
        cases.append((rng.randint(1, (m - 1) // 2), m))
    for r, m in cases:
        w = first_width(r, m)
        with mpmath.workdps(100):
            true = mpmath.tan(mpmath.pi * r / m) ** 2
            lo, hi = (x if x is None else Fraction(*x) for x in _tan2_enclosure(r, m, w))
            assert 0 <= lo and mpmath.mpf(lo.numerator) / lo.denominator <= true, (r, m, w)
            assert hi is None or true <= mpmath.mpf(hi.numerator) / hi.denominator, (r, m, w)


def test_integer_inertia_matches_fraction_oracle():
    rng = random.Random(37)
    for trial in range(400):
        n = trial % 11
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.choice((0, 0, 1, -1, 2, -3, 7, -(10**12) - 39))
        if n and trial % 3 == 1:  # all-zero diagonal: hyperbolic steps
            for i in range(n):
                m[i][i] = 0
        if n > 1 and trial % 4 == 2:  # singular: a repeated row and column
            k = rng.randrange(1, n)
            m[k] = list(m[0])
            for row in m:
                row[k] = row[0]
        assert _symmetric_inertia(m) == fraction_inertia(m), m
    # A hyperbolic step after ordinary pivots, with previous pivot 2 and -2:
    # the step keeps the block's minors exact, and the true pivots' signs
    # are those of d * prev.  Then block sums of those, with a random form,
    # under unimodular congruences, which move the zeros of the diagonal.
    after_pivot = [[2, 2, 0], [2, 2, 2], [0, 2, 0]]
    seeds = [after_pivot, [[-x for x in row] for row in after_pivot]]
    bases = list(seeds)
    for trial in range(60):
        blocks = [rng.choice(seeds) for _ in range(rng.randint(1, 3))]
        k = rng.randint(0, 3)
        blocks.append([[0] * k for _ in range(k)])
        for i in range(k):
            for j in range(i, k):
                blocks[-1][i][j] = blocks[-1][j][i] = rng.choice((0, 1, -2, 5))
        n = sum(map(len, blocks))
        m = [[0] * n for _ in range(n)]
        offset = 0
        for block in blocks:
            for i, row in enumerate(block):
                m[offset + i][offset : offset + len(row)] = row
            offset += len(block)
        bases.append(m)
        if trial % 2:
            bases.append(_congruent(m, _unimodular(rng, n)))
    assert [_symmetric_inertia(m) for m in seeds] == [(2, 1, 0), (1, 2, 0)]
    for m in bases:
        assert _symmetric_inertia(m) == fraction_inertia(m), m
    # Sparse forms: the second step meets a row whose lead is 0 and divides
    # it by the first pivot, 2 or, negated, -2; and a zero corner with a
    # later nonzero diagonal entry, so row 0 is not the first pivot.
    zero_leads = [[2, 0, 0, 1], [0, 3, 0, 1], [0, 0, 5, 1], [1, 1, 1, 4]]
    sparse = [zero_leads, [[-x for x in row] for row in zero_leads], [[0, 1, 0], [1, 2, 1], [0, 1, -3]]]
    assert [_symmetric_inertia(m) for m in sparse] == [(4, 0, 0), (0, 4, 0), (1, 2, 0)]
    for m in sparse:
        assert _symmetric_inertia(m) == fraction_inertia(m), m
    assert _symmetric_inertia([]) == (0, 0, 0)
    assert _symmetric_inertia([[0, 1], [1, 0]]) == (1, 1, 0)
    assert _symmetric_inertia([[0, 0], [0, 0]]) == (0, 0, 2)


def run_without_mpmath(code):
    """Run code in a fresh interpreter; it fails if mpmath got imported."""
    src = str(Path(dehnsurg.__file__).resolve().parent.parent)
    check = f"{code}\nimport sys\nsys.exit('mpmath' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", check], env={**os.environ, "PYTHONPATH": src})
    return done.returncode


def test_import_does_not_load_mpmath():
    assert run_without_mpmath("import dehnsurg") == 0


def test_signatures_do_not_load_mpmath():
    code = (
        "import dehnsurg as ds\n"
        "records = {r.name: r for r in ds.load_knots(ds.bundled_corpus_path())}\n"
        "assert ds.sigma_total(records['torus_2_7'].seifert, 13) == -48"
    )
    assert run_without_mpmath(code) == 0


def test_runtime_never_imports_the_field_oracle(tmp_path):
    out = tmp_path / "s.csv"
    code = f"""
import sys
sys.modules["dehnsurg.cyclotomic"] = None  # any import of it now raises ImportError
import dehnsurg as ds
from dehnsurg.cli import main

corpus = str(ds.bundled_corpus_path())
knot = ["--knot", corpus, "--name", "torus_2_5"]
commands = [
    ["dedekind", "1", "3"],
    ["lens", "3", "1"],
    ["alexander", *knot],
    ["casson-walker", *knot, "--slope", "1/2"],
    ["casson-gordon", *knot, "--slope", "5/2", "--verbose"],
    ["signature", *knot, "--m", "13"],
    ["hf-rank", *knot, "--slope", "3/1"],
    ["distinguish", *knot, "--slopes", "5/1", "5/2", "--verbose"],
    ["sweep", "--knot", corpus, "--pmax", "4", "--qmax", "4", "--out", {str(out)!r}],
]
for argv in commands:
    assert main(argv) == 0, argv
"""
    assert run_without_mpmath(code) == 0
    assert out.read_text().startswith("name,")


def test_every_command_and_field_sign_runs_with_mpmath_blocked(tmp_path):
    code = f"""
import sys
sys.modules["mpmath"] = None  # any import of mpmath now raises ImportError
import dehnsurg as ds
from dehnsurg.cli import main
from dehnsurg.cyclotomic import RealCyclotomicField

corpus = str(ds.bundled_corpus_path())
knot = ["--knot", corpus, "--name", "torus_2_5"]
commands = [
    ["dedekind", "1", "3"],
    ["lens", "3", "1"],
    ["alexander", *knot],
    ["casson-walker", *knot, "--slope", "1/2"],
    ["casson-gordon", *knot, "--slope", "5/2", "--verbose"],
    ["signature", *knot, "--m", "13"],
    ["hf-rank", *knot, "--slope", "3/1"],
    ["distinguish", *knot, "--slopes", "5/1", "5/2", "--verbose"],
    ["sweep", "--knot", corpus, "--pmax", "4", "--qmax", "4", "--out", {str(tmp_path / "s.csv")!r}],
]
for argv in commands:
    assert main(argv) == 0, argv
for n, sign in ((3, -1), (4, 0), (8, 1), (97, 1)):
    assert RealCyclotomicField(n).generator().sign() == sign, n
"""
    src = str(Path(dehnsurg.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


def test_signature_symmetries():
    rng = random.Random(13)
    matrices = [TREFOIL, FIGURE_EIGHT] + [random_seifert(rng, rng.randint(1, 2)) for _ in range(8)]
    for a in matrices:
        for m in range(2, 10):
            try:
                total = sigma_total(a, m)
            except SingularValueError:
                continue
            assert total % 2 == 0
            for r in range(1, m):
                assert tl_signature(a, r, m) == tl_signature(a, m - r, m)
                assert tl_signature(a.mirror(), r, m) == -tl_signature(a, r, m)


def test_parse_lspace_form():
    assert parse_lspace_form(SymLaurentPoly(-1, (1,))).exponents == (1,)
    assert parse_lspace_form(SymLaurentPoly(1)).exponents == ()
    assert parse_lspace_form(alexander_from_seifert(TORUS_2_5)).exponents == (1, 2)
    with pytest.raises(NotLSpaceFormError):
        parse_lspace_form(SymLaurentPoly(3, (-1,)))
    # wrong alternation: 1 - (T^2 + T^-2) + (T^3 + T^-3) skips sign at n_1
    with pytest.raises(NotLSpaceFormError):
        parse_lspace_form(SymLaurentPoly(1, (0, 1, -1)))


def test_lspace_form_validation():
    with pytest.raises(ValueError):
        LSpaceForm((2, 2))
    with pytest.raises(ValueError):
        LSpaceForm((0, 1))
    form = LSpaceForm((1, 3))
    assert form.genus == 3
    assert form.full_sequence() == (-3, -1, 0, 1, 3)
    assert LSpaceForm(()).genus == 0


def test_delta2_from_form_examples():
    assert delta2_from_form(LSpaceForm((1,))) == 2
    assert delta2_from_form(LSpaceForm(())) == 0
    assert delta2_from_form(LSpaceForm((1, 3))) == 16


def test_delta2_agreement_between_routes():
    for a in (TREFOIL, TORUS_2_5, UNKNOT):
        poly = alexander_from_seifert(a)
        form = parse_lspace_form(poly)
        assert delta2_at_one(poly) == delta2_from_form(form)


def test_delta2_nonzero_for_nonempty_forms():
    # exhaustive over strictly increasing sequences with top term <= 9
    from itertools import combinations

    for k in range(1, 10):
        for combo in combinations(range(1, 10), k):
            assert delta2_from_form(LSpaceForm(combo)) != 0


def test_bareiss_det_matches_cofactor_oracle():
    rng = random.Random(31)
    coeffs = (0, 0, 0, 1, -1, 2, -3)
    for trial in range(160):
        n = trial % 11
        rows = [
            [[rng.choice(coeffs) for _ in range(rng.randint(0, 3))] for _ in range(n)]
            for _ in range(n)
        ]
        if n and trial % 4 == 1:
            # zero leading columns, some written as untrimmed zero polynomials,
            # force row swaps
            for row in rows:
                row[0] = [0, 0] if rng.random() < 0.5 else []
            if n > 1:
                rows[rng.randrange(n)][0] = [rng.choice((1, -2)), 1]
        if n > 1 and trial % 4 == 2:
            rows[-1] = [list(e) for e in rows[0]]  # singular: repeated row
        assert _poly_matrix_det(rows) == cofactor_det(rows), rows
    assert _poly_matrix_det([]) == [1]
    assert _poly_matrix_det([[[0, 0], [1]], [[2], [0]]]) == [-2]


def test_alexander_matches_cofactor_oracle(corpus):
    rng = random.Random(32)
    matrices = [r.seifert for r in corpus if r.seifert is not None]
    matrices += [random_seifert(rng, genus) for genus in range(1, 6) for _ in range(3)]
    for a in matrices:
        e, n = a.entries, a.size
        c = cofactor_det([[[e[i][j], -e[j][i]] for j in range(n)] for i in range(n)])
        c += [0] * (n + 1 - len(c))  # det(A - T A^T) = T^(n/2) * Delta(T)
        half = n // 2
        assert alexander_from_seifert(a) == SymLaurentPoly(c[half], c[half + 1 :]), e


def test_genus_ten_seifert_matrix_finishes_quickly():
    rng = random.Random(33)
    start = time.perf_counter()
    a = random_seifert(rng, 10)
    poly = alexander_from_seifert(a)
    elapsed = time.perf_counter() - start
    assert a.size == 20
    assert poly.a0 + 2 * sum(poly.higher) == 1
    assert elapsed < 5.0, elapsed


def test_int_det_matches_cofactor_oracle():
    rng = random.Random(38)
    values = (0, 0, 0, 1, -1, 2, -3, 10**12 - 11, -(10**12) - 39)
    for trial in range(220):
        n = trial % 11
        rows = [[rng.choice(values) for _ in range(n)] for _ in range(n)]
        if n and trial % 4 == 1:  # zero leading columns force row swaps
            for row in rows:
                row[0] = 0
            if n > 1:
                rows[rng.randrange(1, n)][0] = rng.choice((1, -2))
                for row in rows[: n // 2]:
                    row[1] = 0
        if n > 1 and trial % 4 == 2:  # singular: a repeated row
            rows[rng.randrange(1, n)] = list(rows[0])
        want = cofactor_det([[[x] for x in row] for row in rows])
        assert _int_det(rows) == (want[0] if want else 0), rows
    assert _int_det([]) == 1
    assert _int_det([[0, 1], [2, 0]]) == -2
    assert _int_det([[0, 0], [0, 5]]) == 0


def _unimodular(rng, n):
    """A random integer matrix of determinant 1: a product of elementary
    row operations."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1, 2))
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]
    return p


def _congruent(a, p):
    """The Seifert matrix P A P^T, which presents the same knot."""
    n = len(a)
    pa = [[sum(p[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(pa[i][k] * p[j][k] for k in range(n)) for j in range(n)] for i in range(n)]


def test_alexander_matches_both_determinant_oracles(corpus):
    rng = random.Random(39)
    matrices = [r.seifert for r in corpus if r.seifert is not None]
    matrices += [random_seifert(rng, genus) for genus in range(1, 9)]
    # det A = 0: the top (and, by symmetry, the bottom) coefficients of
    # det(A - T A^T) vanish, and T = 0 gives a singular matrix.
    null = [[0, 1], [0, 0]]
    for genus in range(0, 4):
        base = random_seifert(rng, genus).entries if genus else ()
        for extra in (1, 2):
            n = 2 * genus + 2 * extra
            a = [[0] * n for _ in range(n)]
            for i, row in enumerate(base):
                a[i][: len(row)] = row
            for b in range(extra):
                k = 2 * genus + 2 * b
                for i in range(2):
                    a[k + i][k : k + 2] = null[i]
            matrices.append(SeifertMatrix(a))
            matrices.append(SeifertMatrix(_congruent(a, _unimodular(rng, n))))
    for a in matrices:
        e, n = a.entries, a.size
        rows = [[[e[i][j], -e[j][i]] for j in range(n)] for i in range(n)]
        c = _poly_matrix_det(rows)
        if n <= 12:  # the cofactor oracle is exponential in n
            assert c == cofactor_det(rows), e
        c += [0] * (n + 1 - len(c))  # det(A - T A^T) = T^(n/2) * Delta(T)
        half = n // 2
        assert alexander_from_seifert(a) == SymLaurentPoly(c[half], c[half + 1 :]), e


def test_valid_seifert_pairings_have_determinant_plus_one(corpus):
    # det(A - A^T) = Pf^2 >= 0 for an even-size skew-symmetric matrix, so a
    # validated pairing has D(1) = +1, the lowest digit e_0 of the packed
    # determinant in alexander_from_seifert; the mirror has the same pairing.
    rng = random.Random(41)
    matrices = [r.seifert for r in corpus if r.seifert is not None]
    matrices += [random_seifert(rng, genus) for genus in range(1, 7)]
    matrices += [SeifertMatrix(_congruent(a.entries, _unimodular(rng, a.size))) for a in matrices[-3:]]
    for a in matrices + [a.mirror() for a in matrices]:
        e = a.entries
        assert _int_det([[x - y for x, y in zip(row, col)] for row, col in zip(e, zip(*e))]) == 1, e


def test_interpolation_is_exact_or_raises():
    rng = random.Random(40)
    for n in range(0, 12):
        coeffs = [rng.randint(-(10**6), 10**6) for _ in range(n + 1)]
        values = [sum(c * t**k for k, c in enumerate(coeffs)) for t in range(n + 1)]
        assert _interpolate(values) == coeffs
    # t(t - 1)/2 takes integer values but has no integer coefficients
    with pytest.raises(ArithmeticError):
        _interpolate([0, 0, 1])
    with pytest.raises(ArithmeticError):
        _interpolate([1, 1, 2, 1, 1])


def test_dense_size_twenty_validation_and_alexander_finish_quickly():
    rng = random.Random(41)
    n, g = 20, 10
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = rng.choice((-2, -1, 1, 2))
    for i in range(g):
        a[i][g + i] += 1
    start = time.perf_counter()
    poly = alexander_from_seifert(SeifertMatrix(a))
    elapsed = time.perf_counter() - start
    assert poly.a0 + 2 * sum(poly.higher) == 1
    assert elapsed < 1.0, elapsed


def _with_null_blocks(base, extra):
    """base (a Seifert matrix's rows) padded with extra diagonal blocks
    [[0, 1], [0, 0]]: still a valid pairing, with det A = 0."""
    n = len(base) + 2 * extra
    a = [[0] * n for _ in range(n)]
    for i, row in enumerate(base):
        a[i][: len(row)] = row
    for k in range(len(base), n, 2):
        a[k][k + 1] = 1
    return a


def test_seifert_matrix_carries_its_alexander_polynomial(corpus):
    rng = random.Random(53)
    matrices = [r.seifert for r in corpus if r.seifert is not None]
    matrices += [random_seifert(rng, genus) for genus in range(1, 9)]
    for genus in range(4):
        base = random_seifert(rng, genus).entries if genus else ()
        for extra in (1, 2):
            a = _with_null_blocks(base, extra)
            matrices.append(SeifertMatrix(a))
            matrices.append(SeifertMatrix(_congruent(a, _unimodular(rng, len(a)))))
    assert any(_int_det(a.entries) == 0 for a in matrices if a.size)
    for a in matrices:
        want = alexander_from_seifert(a)
        assert a.alexander == want, a
        assert a.mirror().alexander == want, a
        assert alexander_from_seifert(a.mirror()) == want, a
    for record in corpus:
        if record.seifert is not None:
            assert record.alexander == record.seifert.alexander


def _hadamard_square(rows):
    """The square of alexander_from_seifert's bound on every digit e_j."""
    return 4 ** len(rows) * math.prod(
        max(sum(x * x for x in row), sum(y * y for y in col)) for row, col in zip(rows, zip(*rows))
    )


def test_packed_alexander_matches_all_oracles(corpus):
    rng = random.Random(61)
    matrices = [r.seifert for r in corpus if r.seifert is not None]
    matrices += [random_seifert(rng, genus) for genus in range(1, 11)]
    for genus in range(4):
        base = random_seifert(rng, genus).entries if genus else ()
        for extra in (1, 2):
            a = _with_null_blocks(base, extra)
            matrices.append(SeifertMatrix(a))
            matrices.append(SeifertMatrix(_congruent(a, _unimodular(rng, len(a)))))
    # Entries near +-10^12 in the symmetric part, where the bound is loose.
    huge = (10**12 - 11, -(10**12) - 39, 10**12 + 7, -(10**12) + 3, 0, 1, -1)
    for genus in (1, 2, 3, 5):
        a = _with_null_blocks((), genus)
        n = len(a)
        for i in range(n):
            for j in range(i, n):
                s = rng.choice(huge)
                a[i][j] += s
                a[j][i] += s if j != i else 0
        matrices.append(SeifertMatrix(a))
        matrices.append(SeifertMatrix(_congruent(a, _unimodular(rng, n))))
    # A large diagonal M on the unknot's standard J+: the top digit is
    # det(A + A^T) = (4M^2 - 1)^g, against a bound of (4M^2 + 4)^g.
    for genus in (1, 3, 6):
        for big in (10**6, 10**12):
            a = _with_null_blocks((), genus)
            for i in range(len(a)):
                a[i][i] = big
            top = _packed_alexander(a)[-1]
            assert top == (4 * big * big - 1) ** genus
            assert top * top < _hadamard_square(a) < 2 * top * top
            matrices.append(SeifertMatrix(a))
    assert any(_int_det(a.entries) == 0 for a in matrices if a.size)
    for a in matrices + [a.mirror() for a in matrices]:
        e, n = a.entries, a.size
        want = evaluation_alexander(a)
        assert a.alexander == alexander_from_seifert(a) == want, e
        rows = [[[e[i][j], -e[j][i]] for j in range(n)] for i in range(n)]
        c = _poly_matrix_det(rows)
        if n <= 10:  # the cofactor oracle is exponential in n
            assert c == cofactor_det(rows), e
        c += [0] * (n + 1 - len(c))  # det(A - T A^T) = T^(n/2) * Delta(T)
        assert want == SymLaurentPoly(c[n // 2], c[n // 2 + 1 :]), e
        # The packed digits are the coefficients of det(K + X S) over Z[X].
        x_rows = [[[e[i][j] - e[j][i], e[i][j] + e[j][i]] for j in range(n)] for i in range(n)]
        x_det = _poly_matrix_det(x_rows)
        digits = [0] * (n + 1)
        digits[::2] = _packed_alexander(e)
        assert x_det + [0] * (n + 1 - len(x_det)) == digits, e


def test_corrupted_packed_determinant_raises(monkeypatch):
    # A digit e_j off by d adds d (1 - T)^(2j) (1 + T)^(n - 2j) to 2^n D:
    # the division by 2^n catches d not divisible by 2^n, the check against
    # det A = D(0) the rest, and e_0 is the validated det(A - A^T).  The
    # first two run on the polynomial's first read, so it is read here.
    rng = random.Random(63)
    rows = [random_seifert(rng, genus).entries for genus in range(1, 5)]
    rows += [_with_null_blocks(random_seifert(rng, 2).entries, 1)]
    packed = knots._packed_alexander
    for a in rows:
        n = len(a)
        for j in range(n // 2 + 1):
            for d in (1, -1, 2, 6, 720, 1 << n, -(3 << n), rng.randint(1, 10**9)):
                def corrupted(r, j=j, d=d):
                    return [e + d * (i == j) for i, e in enumerate(packed(r))]

                monkeypatch.setattr(knots, "_packed_alexander", corrupted)
                with pytest.raises((ValueError, ArithmeticError)):
                    SeifertMatrix(a).alexander
    # A determinant with a digit above e_g: the constructor raises.
    monkeypatch.setattr(knots, "_packed_alexander", packed)
    monkeypatch.setattr(knots, "_int_det", lambda r, det=knots._int_det: det(r) + (1 << 10_000))
    with pytest.raises(ArithmeticError, match="digit above"):
        SeifertMatrix(rows[0])


def test_a_determinant_check_failing_on_first_read_reaches_the_cli(tmp_path, capsys, monkeypatch):
    # With the Cayley map off by one, 2^n no longer divides 2^n D.  The file
    # gives no polynomial, so it loads and the check fires when `alexander`
    # reads Delta; cli.main reports the ArithmeticError as for any error.
    path = tmp_path / "k.json"
    path.write_text(json.dumps([{"name": "t", "seifert_matrix": TORUS_2_5.entries}]))
    monkeypatch.setattr(knots, "_cayley", lambda c, cayley=knots._cayley: [x + 1 for x in cayley(c)])
    dehnsurg.load_knots(path)
    code = dehnsurg.cli.main(["alexander", "--knot", str(path), "--name", "t"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == "error: 2^n det(A - T A^T) is not divisible by 2^n; the determinant is wrong\n"


def test_invalid_pairings_keep_their_error_message():
    # det(A - A^T) = Pf^2 for an even-size skew-symmetric integer matrix, so
    # an invalid pairing has det(A - A^T) in {0, 4, 9, ...}.
    rng = random.Random(62)
    for pf in (0, 2, 3, 5, 10**6):
        for genus in (1, 2, 4):
            a = _with_null_blocks((), genus)
            a[0][1] = pf
            n = len(a)
            for i in range(n):
                for j in range(i, n):
                    s = rng.randint(-3, 3)
                    a[i][j] += s
                    a[j][i] += s if j != i else 0
            a = _congruent(a, _unimodular(rng, n))
            skew = [[x - y for x, y in zip(row, col)] for row, col in zip(a, zip(*a))]
            assert _int_det(skew) == pf * pf
            with pytest.raises(ValueError) as info:
                SeifertMatrix(a)
            assert str(info.value) == f"det(A - A^T) = {pf * pf}, not +-1: not a valid Seifert pairing"


def test_non_integral_entries_are_rejected_not_truncated():
    with pytest.raises(ValueError, match="must be integers"):
        SeifertMatrix([[-1.7, 1], [0.9, -1]])  # int() made this the trefoil
    with pytest.raises(ValueError, match="must be integers"):
        SeifertMatrix([[-1, 1.0], [0, -1]])
    with pytest.raises(ValueError, match="must be integers"):
        SymLaurentPoly(3.9, [-1.2])  # int() made this the figure-eight's
    with pytest.raises(ValueError, match="must be integers"):
        SymLaurentPoly(Fraction(-1), [1])
    with pytest.raises(ValueError, match="must be integers"):
        LSpaceForm((1, 2.5))
    # Integer types other than int still construct, as ints.
    assert SeifertMatrix(np.array([[-1, 1], [0, -1]])) == TREFOIL
    assert SymLaurentPoly(np.int64(3), [np.int64(-1)]) == alexander_from_seifert(FIGURE_EIGHT)
    assert type(SymLaurentPoly(np.int64(1)).a0) is int


def _in_u(poly_x) -> list:
    """(1 + u)^deg * f(2(1 - u)/(1 + u)) for f a polynomial in x = 2cos(theta)."""
    deg = len(poly_x) - 1
    out: list = []
    for i, c in enumerate(poly_x):
        if c:
            term = [c << i]
            for _ in range(i):
                term = _poly_mul(term, [1, -1])
            for _ in range(deg - i):
                term = _poly_mul(term, [1, 1])
            out = _poly_add(out, term)
    return out


def test_cayley_applied_twice_multiplies_by_two_to_the_n():
    rng = random.Random(71)
    polys = [[rng.randint(-30, 30) for _ in range(rng.randint(1, 26))] for _ in range(200)]
    polys += [[rng.randint(-(10**30), 10**30) for _ in range(n)] for n in (1, 2, 9, 40)]
    for c in polys:
        assert _cayley(_cayley(c)) == [x << (len(c) - 1) for x in c], c


def test_jumps_match_the_two_cos_oracle(corpus):
    # D(u) from the Cayley image of Delta against the former route through
    # Delta in 2cos(theta), with the same jump count and squarefree flag,
    # and the sign variations at u = 0 that count the jumps.
    rng = random.Random(73)
    matrices = [r.seifert for r in corpus if r.seifert is not None]
    matrices += [random_seifert(rng, genus) for genus in range(1, 13)]
    for genus in range(4):
        base = random_seifert(rng, genus).entries if genus else ()
        for extra in (1, 2, 3):
            a = _with_null_blocks(base, extra)
            matrices.append(SeifertMatrix(a))
            matrices.append(SeifertMatrix(_congruent(a, _unimodular(rng, len(a)))))
    gaps = [a.size // 2 - a.alexander.degree for a in matrices]
    assert sum(gap >= 2 for gap in gaps) >= 8
    for a in matrices + [a.mirror() for a in matrices]:
        d = _in_u(_in_two_cos(a.alexander.a0, a.alexander.higher))
        seq = _sturm(d)
        want = (seq, _roots_upto(seq, None), len(seq[0]) == len(d), knots._variations(seq, (0, 1))[0])
        assert _jumps(a) == want, a.entries


def fraction_primitive(p) -> tuple:
    """The positive multiple of a rational polynomial with coprime integer
    coefficients: signs, and so Sturm counts, are unchanged."""
    p = [Fraction(c) for c in p]
    den = math.lcm(*(c.denominator for c in p))
    ints = [int(c * den) for c in p]
    g = math.gcd(*ints)
    return tuple(c // g for c in ints)


def fraction_sturm(p) -> tuple:
    """Sturm sequence of the squarefree part of a nonzero polynomial p, by
    division over the rationals: the oracle for the package's integer
    pseudo-remainder chain."""
    p = fraction_primitive(p)
    if len(p) < 2:
        return (p,)
    seq = [p, fraction_primitive([i * c for i, c in enumerate(p)][1:])]
    while True:
        rem = _frac_divmod(seq[-2], seq[-1])[1]
        if not rem:
            break
        seq.append(fraction_primitive([-c for c in rem]))
    if len(seq[-1]) > 1:  # the last entry is gcd(p, p'): p has repeated roots
        return fraction_sturm(_frac_divmod(p, seq[-1])[0])
    return tuple(seq)


def test_integer_sturm_matches_fraction_oracle(corpus):
    rng = random.Random(67)

    def random_poly(deg, bound):
        p = [rng.randint(-bound, bound) for _ in range(deg)]
        return p + [rng.choice([c for c in range(-bound, bound + 1) if c])]

    polys = [random_poly(rng.randint(0, 14), 9) for _ in range(150)]
    # Sparse ones, whose remainders can drop by two or more degrees: there
    # the pseudo-remainder multiplier lc^(deg a - deg b + 1) can be negative.
    for _ in range(150):
        p = [rng.choice((0, 0, 0, -1, 1, 2, -3)) for _ in range(rng.randint(1, 14))]
        polys.append(p + [rng.choice((-2, -1, 1, 3))])
    # Repeated roots: f^k * h, of degree at most 14.
    for _ in range(80):
        f = random_poly(rng.randint(1, 3), 4)
        k = rng.randint(2, 4)
        while k * (len(f) - 1) > 12:
            k -= 1
        p = random_poly(rng.randint(0, 14 - k * (len(f) - 1)), 5)
        for _ in range(k):
            p = _poly_mul(p, f)
        polys.append(p)
    matrices = [r.seifert for r in corpus if r.seifert is not None]
    matrices += [random_seifert(rng, genus) for genus in range(1, 7) for _ in range(3)]
    for a in matrices:
        polys.append(_in_u(_in_two_cos(a.alexander.a0, a.alexander.higher)))
    repeated = odd_multiplier = 0
    for p in polys:
        seq, want = _sturm(p), fraction_sturm(p)
        assert seq == want, p
        repeated += len(want[0]) < len(_trim(list(p)))  # squarefree part is shorter
        odd_multiplier += any(
            (len(a) - len(b)) % 2 == 0 and b[-1] < 0 for a, b in zip(want, want[1:-1])
        )
        points = [None, Fraction(0)]
        points += [Fraction(rng.randint(1, 400), rng.randint(1, 40)) for _ in range(8)]
        for x in points:
            x = x if x is None else x.as_integer_ratio()
            assert _roots_upto(seq, x) == _roots_upto(want, x), (p, x)
    assert repeated >= 40 and odd_multiplier >= 5
