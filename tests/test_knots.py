import random

import numpy as np
import pytest

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
