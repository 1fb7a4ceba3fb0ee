import math
import random

import pytest

from dehnsurg import (
    KnotFloerData,
    LSpaceForm,
    Slope,
    build_cone,
    bundled_corpus_path,
    cli,
    cone_rank_oracle,
    delta_dimension,
    hfcone,
    lspace_model,
    mirror_of,
    nu_of,
    rank_formula,
)
from conftest import all_lspace_models, random_floer_data, reduced_slopes

UNKNOT = KnotFloerData(0, (1,), 0)
TREFOIL = lspace_model(LSpaceForm((1,)))
FIG8 = KnotFloerData(1, (1, 3, 1), 0)


def test_data_validation():
    with pytest.raises(ValueError):
        KnotFloerData(1, (1, 2), 0)  # wrong length
    with pytest.raises(ValueError):
        KnotFloerData(1, (1, 2, 3), 0)  # asymmetric
    with pytest.raises(ValueError):
        KnotFloerData(1, (2, 3, 2), 0)  # rank at |s| = g must be 1
    with pytest.raises(ValueError):
        KnotFloerData(1, (1, 3, 1), 2)  # threshold out of range
    with pytest.raises(ValueError):
        KnotFloerData(1, (1, 0, 1), 0)  # nonpositive rank
    data = KnotFloerData(2, (1, 2, 5, 2, 1), -1)
    assert data.a_rank(0) == 5
    assert data.a_rank(7) == 1
    assert data.excess() == 6


def test_non_integral_data_is_rejected_not_truncated():
    with pytest.raises(ValueError, match="must be integers"):
        KnotFloerData(1, [1.5, 1, 1.2], 1)  # int() made this (1, 1, 1)
    with pytest.raises(ValueError, match="must be integers"):
        KnotFloerData(1.0, (1, 1, 1), 1)
    with pytest.raises(ValueError, match="must be integers"):
        KnotFloerData(1, (1, 1, 1), 0.5)


def test_flip_symmetry_is_built_in():
    data = KnotFloerData(2, (1, 1, 1, 1, 1), 1)
    for s in range(-4, 5):
        assert data.h_nonzero(s) == data.v_nonzero(-s)


def test_nu_examples():
    assert nu_of(UNKNOT) == 0
    assert nu_of(TREFOIL) == 1
    assert nu_of(FIG8) == 0
    assert nu_of(KnotFloerData(2, (1, 1, 1, 1, 1), -2)) == -2


def test_mirror_is_involution_fixing_valid_data():
    # The flip symmetry of the model makes the formal mirror fix every
    # valid instance (see the design notes); it must at least be an
    # involution, and the unknot is a fixed point.
    rng = random.Random(99)
    assert mirror_of(UNKNOT) == UNKNOT
    for _ in range(30):
        data = random_floer_data(rng)
        assert mirror_of(mirror_of(data)) == data
        assert mirror_of(data) == data


def test_lspace_model_examples():
    assert lspace_model(LSpaceForm(())) == UNKNOT
    tref = lspace_model(LSpaceForm((1,)))
    assert tref.g == 1 and nu_of(tref) == 1
    big = lspace_model(LSpaceForm((1, 3)))
    assert big.g == 3 and nu_of(big) == 3 and big.ranks == (1,) * 7


def test_build_cone_examples():
    cone = build_cone(UNKNOT, Slope(1, 1), 0)
    assert cone.homology_rank() == 1
    assert build_cone(TREFOIL, Slope(1, 1), 0).homology_rank() == 1
    assert build_cone(TREFOIL, Slope.of(1, 2), 0).homology_rank() == 3


def test_build_cone_validation():
    with pytest.raises(ValueError):
        build_cone(UNKNOT, Slope(1, 0), 0)  # q = 0
    with pytest.raises(ValueError):
        build_cone(UNKNOT, Slope(2, 1), 5)  # spin-c index out of range


def test_cone_block_structure():
    cone = build_cone(FIG8, Slope(2, 1), 1)
    # columns may only hit the rows t and t + p
    row_of = {t: k for k, t in enumerate(cone.b_indices)}
    for t, dim, vec in zip(cone.a_indices, cone.a_dims, cone.columns):
        allowed = 0
        if t in row_of:
            allowed |= 1 << row_of[t]
        if t + 2 in row_of:
            allowed |= 1 << row_of[t + 2]
        assert vec & ~allowed == 0
        assert dim == FIG8.a_rank(t)  # q = 1


def test_oracle_examples():
    for p in range(-6, 7):
        if p == 0:
            continue
        for q in (1, 2, 3):
            if math.gcd(p, q) != 1:
                continue
            assert cone_rank_oracle(UNKNOT, Slope(p, q)) == abs(p)
    assert cone_rank_oracle(FIG8, Slope(1, 1)) == 3
    assert cone_rank_oracle(TREFOIL, Slope(7, 2)) == 7
    assert cone_rank_oracle(TREFOIL, Slope(-1, 1)) == 3


def test_truncation_stability():
    rng = random.Random(4)
    for _ in range(10):
        data = random_floer_data(rng)
        for slope in (Slope(3, 2), Slope(-2, 3), Slope(5, 1)):
            base = sum(
                build_cone(data, slope, i).homology_rank() for i in range(abs(slope.p))
            )
            for extra in (1, 2, 3):
                wider = sum(
                    build_cone(data, slope, i, extra_window=extra).homology_rank()
                    for i in range(abs(slope.p))
                )
                assert wider == base


def test_per_spinc_positivity():
    rng = random.Random(6)
    datasets = [UNKNOT, TREFOIL, FIG8] + [random_floer_data(rng) for _ in range(10)]
    for data in datasets:
        for slope in (Slope(5, 2), Slope(-4, 3), Slope(7, 1), Slope(-6, 1)):
            if math.gcd(slope.p, slope.q) != 1:
                continue
            for i in range(abs(slope.p)):
                assert build_cone(data, slope, i).homology_rank() >= 1


def test_rank_formula_examples():
    assert rank_formula(TREFOIL, Slope(1, 1)) == 1
    assert rank_formula(TREFOIL, Slope.of(1, 2)) == 3
    assert rank_formula(UNKNOT, Slope(-5, 1)) == 5
    assert rank_formula(FIG8, Slope(1, 1)) == 3
    with pytest.raises(ValueError):
        rank_formula(TREFOIL, Slope(1, 0))
    with pytest.raises(ValueError):
        rank_formula(TREFOIL, Slope(0, 1))


def test_oracle_equals_formula_moderate_sweep():
    rng = random.Random(17)
    datasets = [UNKNOT, TREFOIL, FIG8] + all_lspace_models(3) + [
        random_floer_data(rng) for _ in range(40)
    ]
    for data in datasets:
        for slope in reduced_slopes(5, 4):
            assert cone_rank_oracle(data, slope) == rank_formula(data, slope), (data, slope)


def test_mirror_rank_identity_on_nonpositive_thresholds():
    # With the formal mirror fixing all valid data, the rank identity
    # rank(d, p/q) = rank(mirror(d), -p/q) holds exactly on the nu <= 0
    # part of the model (for nu >= 1 the two sides genuinely differ; the
    # decisions ledger records why the model cannot do better).
    rng = random.Random(23)
    datasets = [UNKNOT, FIG8] + [d for d in (random_floer_data(rng) for _ in range(60)) if nu_of(d) <= 0]
    for data in datasets[:30]:
        for slope in reduced_slopes(4, 3):
            lhs = cone_rank_oracle(data, slope)
            rhs = cone_rank_oracle(mirror_of(data), slope.negated())
            assert lhs == rhs, (data, slope)


def test_lspace_detection_regime():
    for form in (LSpaceForm((1,)), LSpaceForm((2,)), LSpaceForm((1, 2)), LSpaceForm((1, 2, 4))):
        model = lspace_model(form)
        top = form.genus
        for p in range(1, 13):
            for q in (1, 2, 3):
                if math.gcd(p, q) != 1:
                    continue
                if p >= (2 * top - 1) * q:
                    assert cone_rank_oracle(model, Slope(p, q)) == p, (form, p, q)


def test_delta_dimension():
    assert delta_dimension(UNKNOT) == 1
    assert delta_dimension(FIG8) == 1
    with pytest.raises(ValueError):
        delta_dimension(TREFOIL)  # nu = 1


def test_delta_dimension_on_generated_models(model_corpus):
    for data in model_corpus:
        if nu_of(data) == 0:
            assert delta_dimension(data) == 1


def test_nu_tau_bracket_on_corpus(corpus):
    for record in corpus:
        if record.hf is not None and record.tau is not None:
            assert nu_of(record.hf) in (record.tau, record.tau + 1)
        if record.hf is not None and record.nu is not None:
            assert nu_of(record.hf) == record.nu


def test_truncation_instability_is_an_error(monkeypatch, capsys):
    # Every oracle call ranks on W and on W + 2; make the wider window
    # disagree and both the oracle and hf-rank must refuse the answer.
    rank = hfcone._cone_rank
    monkeypatch.setattr(hfcone, "_cone_rank", lambda d, s, extra: rank(d, s, extra) + (extra == 2))
    message = "truncation instability: rank 3 vs 4 on a wider window"
    with pytest.raises(ArithmeticError) as info:
        cone_rank_oracle(FIG8, Slope(1, 1))
    assert str(info.value) == message
    argv = ["hf-rank", "--knot", str(bundled_corpus_path()), "--name", "figure_eight", "--slope", "1/1"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_window_matches_the_old_window():
    # build_cone truncates at W = g + ceil(|p|/q) + 1; the old window,
    # W = g + |p| + 1, is the same cone with extra_window = |p| - ceil(|p|/q).
    # Every Spin^c class must have the same homology rank at both.
    rng = random.Random(2026)
    slopes = [
        Slope(p, q) for p in range(-14, 15) for q in range(1, 15) if p and math.gcd(p, q) == 1
    ]
    cases = 0
    for g in range(5):
        for _ in range(12):
            half = [1] + [rng.randint(1, 5) for _ in range(g)]
            ranks = half + half[-2::-1]
            for threshold in range(-g, g + 1):
                data = KnotFloerData(g, ranks, threshold)
                for slope in slopes:
                    pp = abs(slope.p)
                    old = pp - -(-pp // slope.q)
                    for i in range(pp):
                        new_rank = build_cone(data, slope, i).homology_rank()
                        old_rank = build_cone(data, slope, i, extra_window=old).homology_rank()
                        assert new_rank == old_rank, (data, slope, i)
                    cases += 1
    assert cases == 76200


def bitmask_sum(data, slope):
    return sum(build_cone(data, slope, i).homology_rank() for i in range(abs(slope.p)))


def test_oracle_equals_the_bitmask_sum(model_corpus):
    # Criterion 5's box, both signs: the forest count on the classes that
    # can differ against GF(2) elimination on every class.
    for data in model_corpus:
        for slope in reduced_slopes(8, 8):
            want = bitmask_sum(data, slope)
            assert cone_rank_oracle(data, slope) == want, (data, slope)


def test_classes_off_the_window_have_rank_one():
    # A class holding no t in [-gq, (g+1)q) is never ranked by the oracle.
    rng = random.Random(16)
    checked = 0
    for _ in range(40):
        data = random_floer_data(rng, g_max=4)
        g = data.g
        for slope in reduced_slopes(30, 6):
            pp, q = abs(slope.p), slope.q
            window = {t % pp for t in range(-g * q, (g + 1) * q)}
            for i in range(pp):
                if i not in window:
                    assert build_cone(data, slope, i).homology_rank() == 1, (data, slope, i)
                    checked += 1
    assert checked > 10000


def test_oracle_rejects_what_the_cone_rejects():
    with pytest.raises(ValueError, match="q >= 1"):
        cone_rank_oracle(FIG8, Slope(1, 0))
    with pytest.raises(ValueError, match="p must be nonzero"):
        cone_rank_oracle(FIG8, Slope(0, 1))
