import copy
import csv
import hashlib
import json
import math
import pickle
import random
from collections import Counter
from decimal import Decimal
from dehnsurg import replace
from fractions import Fraction
from functools import partial

import pytest

import dehnsurg as ds
from dehnsurg import (
    BY_CASSON_GORDON,
    BY_CASSON_WALKER,
    BY_HF_RANK,
    DIFFERENT_HOMOLOGY,
    INCONCLUSIVE,
    UNKNOT_COSMETIC,
    KnotRecord,
    LensSpace,
    Slope,
    SymLaurentPoly,
    Verdict,
    distinguish,
    full_invariants,
    lens_op_homeomorphic,
    load_knots,
    mirror_record,
    sweep,
)
from dehnsurg.dedekind import dedekind_numerator, dedekind_sum
from dehnsurg.hfcone import cone_rank_oracle, mirror_of, rank_formula
from dehnsurg.knots import (
    NotLSpaceFormError,
    SingularValueError,
    alexander_from_seifert,
    parse_lspace_form,
    sigma_total,
)
from dehnsurg.obstruction import _STAGES, SweepRow, _check_pair, _stages
from dehnsurg.surgery import casson_gordon_surgered, casson_walker_surgered
from conftest import reduced_slopes
from test_knots import random_seifert


def slope_pairs_same_p(p_max, q_max):
    for p in range(1, p_max + 1):
        group = []
        if p == 1:
            group.append(Slope(1, 0))
        group += [Slope(p, q) for q in range(1, q_max + 1) if math.gcd(p, q) == 1]
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                yield group[i], group[j]


def test_verdict_validation():
    with pytest.raises(ValueError):
        Verdict(BY_CASSON_WALKER, 1, 1)
    Verdict(UNKNOT_COSMETIC)  # no witnesses required


def test_distinguish_examples(corpus_by_name):
    tref = corpus_by_name["trefoil_right"]
    unknot = corpus_by_name["unknot"]
    v = distinguish(tref, Slope(1, 1), Slope.of(1, 2))
    assert v.tag == BY_CASSON_WALKER
    assert (v.value1, v.value2) == (-2, -4)
    v = distinguish(unknot, Slope(5, 2), Slope(5, 3))
    assert v.tag == UNKNOT_COSMETIC
    v = distinguish(unknot, Slope(5, 1), Slope(5, 2))
    assert v.tag == BY_CASSON_GORDON
    # s(1,5) = 1/5 and s(2,5) = 0, so the lens values are -4 and 0
    assert (v.value1, v.value2) == (Fraction(-4), Fraction(0))


def test_distinguish_rejections(corpus_by_name):
    tref = corpus_by_name["trefoil_right"]
    with pytest.raises(ValueError):
        distinguish(tref, Slope(2, 1), Slope(2, 1))
    with pytest.raises(ValueError):
        distinguish(tref, Slope(-2, 1), Slope(2, 1))
    with pytest.raises(ValueError):
        distinguish(tref, Slope(0, 1), Slope(2, 1))


def test_different_homology(corpus_by_name):
    v = distinguish(corpus_by_name["trefoil_right"], Slope(3, 1), Slope(5, 1))
    assert v.tag == DIFFERENT_HOMOLOGY
    assert (v.value1, v.value2) == (3, 5)


def test_infinite_slope_pairs(corpus_by_name):
    tref = corpus_by_name["trefoil_right"]
    v = distinguish(tref, Slope(1, 1), Slope(1, 0))
    assert v.tag == BY_CASSON_WALKER
    assert v.value2 == 0  # lambda(S^3)
    v = distinguish(tref, Slope(-1, 1), Slope(1, 0))
    assert v.tag == BY_CASSON_WALKER
    with pytest.raises(ValueError):
        distinguish(tref, Slope(1, 0), Slope(1, 0))


def test_hf_rank_step_fires_for_alexander_one_records():
    # A record with trivial Alexander polynomial but nontrivial Floer data:
    # only the rank comparison can separate its surgeries.
    record = KnotRecord(
        name="alexander_one",
        alexander=SymLaurentPoly(1),
        hf=ds.KnotFloerData(2, (1, 2, 3, 2, 1), 1),
    )
    v = distinguish(record, Slope(1, 1), Slope.of(1, 2))
    assert v.tag == BY_HF_RANK
    assert v.value1 != v.value2
    # a record with vanishing second derivative but no Floer data and a
    # polynomial outside the alternating form is inconclusive
    bare = KnotRecord(name="bare", alexander=SymLaurentPoly(7, (-4, 1)))
    assert bare.delta2 == 0
    v = distinguish(bare, Slope(1, 1), Slope.of(1, 2))
    assert v.tag == INCONCLUSIVE


def test_unknot_completeness(corpus_by_name):
    unknot = corpus_by_name["unknot"]
    for s1, s2 in slope_pairs_same_p(10, 10):
        v = distinguish(unknot, s1, s2)
        p = s1.p
        if s1.is_infinite or s2.is_infinite:
            cosmetic = p == 1
        else:
            cosmetic = lens_op_homeomorphic(LensSpace(p, s1.q), LensSpace(p, s2.q))
        assert (v.tag == UNKNOT_COSMETIC) == cosmetic, (s1, s2, v)


def test_all_tie_rows_are_cosmetic_only_on_trivial_records():
    # Delta = 1 and nothing else on file: where the lens parts tie, every
    # stage ties, but nothing on file says the surgeries are homeomorphic.
    kt = KnotRecord(name="kt", alexander=SymLaurentPoly(1))
    report = sweep(kt, 5, 5)
    assert report.counts == {BY_CASSON_GORDON: 22, INCONCLUSIVE: 44}
    assert report.nontrivial_inconclusive == 44
    assert distinguish(kt, Slope(5, 2), Slope(5, 3)).tag == INCONCLUSIVE
    marked = sweep(replace(kt, trivial=True), 5, 5)
    assert marked.counts == {BY_CASSON_GORDON: 22, UNKNOT_COSMETIC: 44}
    assert marked.nontrivial_inconclusive == 0
    assert [row[:4] for row in marked.rows] == [row[:4] for row in report.rows]


def test_step_ordering_soundness(corpus_by_name):
    # Of the invariant pair (tau_cg, lambda), at least one differs exactly
    # when one of the two comparison steps fires; cross-checked against the
    # full invariant values computed without the decision shortcut.
    for name in ("trefoil_right", "figure_eight", "twist_5_2", "unknot"):
        record = corpus_by_name[name]
        for s1, s2 in slope_pairs_same_p(5, 4):
            if s1.is_infinite or s2.is_infinite:
                continue
            lam1, tau1, _ = full_invariants(record, s1)
            lam2, tau2, _ = full_invariants(record, s2)
            fired = distinguish(record, s1, s2).tag in (BY_CASSON_GORDON, BY_CASSON_WALKER)
            assert ((lam1, tau1) != (lam2, tau2)) == fired, (name, s1, s2)


def test_mirror_coherence(corpus):
    for record in corpus:
        mirrored = mirror_record(record)
        for s1, s2 in slope_pairs_same_p(6, 6):
            lhs = distinguish(record, s1.negated(), s2.negated())
            rhs = distinguish(mirrored, s1, s2)
            assert lhs.tag == rhs.tag, (record.name, s1, s2)


def test_mirror_record_fields(corpus_by_name):
    tref = corpus_by_name["trefoil_right"]
    m = mirror_record(tref)
    assert m.seifert.entries == ((1, 0), (-1, 1))
    assert m.tau == -1
    assert m.alexander == tref.alexander
    assert m.ambient.lambda_value == 0
    left = corpus_by_name["trefoil_left"]
    assert m.seifert.entries == left.seifert.entries


def test_gordon_luecke_shadow(corpus):
    infinity = Slope(1, 0)
    for record in corpus:
        if record.trivial:
            continue
        for slope in reduced_slopes(10, 10, signs=(1,)):
            v = distinguish(record, slope, infinity)
            assert v.tag not in (INCONCLUSIVE, UNKNOT_COSMETIC), (record.name, slope)


def test_sweep_counts_and_determinism(corpus_by_name):
    tref = corpus_by_name["trefoil_right"]
    report1 = sweep(tref, 10, 10)
    report2 = sweep(tref, 10, 10)
    assert report1.rows == report2.rows
    assert report1.nontrivial_inconclusive == 0
    assert INCONCLUSIVE not in report1.counts
    assert UNKNOT_COSMETIC not in report1.counts
    # rows are sorted by (p, q1, q2) and cover both signs
    keys = [(r.p, r.q1, r.q2) for r in report1.rows]
    assert keys == sorted(keys)
    assert {r.p for r in report1.rows} == {p for p in range(-10, 11) if p != 0}


def test_sweep_negative_rows_match_direct_distinguish(corpus):
    # sweep decides pairs without calling distinguish; every row of both
    # signs must agree with it.  One record sits in an ambient manifold with
    # nonzero Casson-Walker invariant, whose mirror differs from it in what
    # distinguish reads; one has Delta''(1) = 0 and nontrivial Floer data,
    # so the rank stage and its mirror run at both signs.
    poincare = ds.AmbientData(Fraction(2), "Sigma(2,3,5)")
    alexander_one = KnotRecord(
        name="alexander_one",
        alexander=SymLaurentPoly(1),
        hf=ds.KnotFloerData(2, (1, 2, 3, 2, 1), 1),
    )
    records = corpus + [replace(corpus[1], name="in_poincare", ambient=poincare), alexander_one]
    by_name = {r.name: r for r in records}
    rows = sweep(records, 10, 10).rows
    assert {row.p < 0 for row in rows} == {True, False}
    assert {row.p < 0 for row in rows if row.name == "alexander_one" and row.tag == BY_HF_RANK} == {
        True,
        False,
    }
    for row in rows:
        s1, s2 = (Slope(1, 0) if q == 0 else Slope(row.p, q) for q in (row.q1, row.q2))
        v = distinguish(by_name[row.name], s1, s2)
        assert row == SweepRow(row.name, row.p, row.q1, row.q2, v.tag, v.value1, v.value2)


@pytest.mark.parametrize("box", [(10, 10), (7, 12)])
def test_sweep_of_many_records_joins_the_single_record_sweeps(corpus, box):
    # sweep shares each |p| group's lens part across signs and records and
    # reads Delta''(1) once per record; sweeping the records together must
    # give what sweeping each alone gives.  Past the corpus: an ambient
    # manifold with lambda = 2, a record whose rank stage runs at both
    # signs, and records with Delta''(1) = 0 and no Floer data: the all-tie
    # rows of two nontrivial ones (one with Delta = 1) are Inconclusive and
    # count as bad, those of the one marked trivial (Delta = 1) are
    # UnknotCosmetic.
    records = oracle_records(corpus) + [
        KnotRecord(name="alexander_one_no_floer", alexander=SymLaurentPoly(1)),
        KnotRecord(name="bare", alexander=SymLaurentPoly(7, (-4, 1))),
        KnotRecord(name="bare_trivial", alexander=SymLaurentPoly(1), trivial=True),
    ]
    report = sweep(records, *box)
    alone = [sweep(record, *box) for record in records]
    assert report.rows == tuple(row for part in alone for row in part.rows)
    assert report.counts == sum((Counter(part.counts) for part in alone), Counter())
    assert report.counts == Counter(row.tag for row in report.rows)
    assert report.nontrivial_inconclusive == sum(part.nontrivial_inconclusive for part in alone)
    assert 0 < report.nontrivial_inconclusive == report.counts[INCONCLUSIVE]
    assert UNKNOT_COSMETIC in {row.tag for row in report.rows if row.name == "bare_trivial"}
    assert all(type(row) is SweepRow for row in report.rows)
    assert {row.name for row in report.rows if row.tag == BY_HF_RANK} == {"alexander_one"}


def test_distinguish_computes_no_dedekind_sum_for_different_p(corpus_by_name, monkeypatch):
    # Homology decides a pair with different |p| before the lens part is
    # reached, so large_p pairs of that kind cost no Dedekind sum.
    def boom(*args, **kwargs):
        raise AssertionError("Dedekind sum computed for a pair with different p")

    monkeypatch.setattr("dehnsurg.obstruction.dedekind_numerator", boom)
    tref = corpus_by_name["trefoil_right"]
    pairs = [
        (Slope(3, 1), Slope(5, 2)),
        (Slope(-1000003, 7), Slope(-999983, 7)),
        (Slope(1, 0), Slope(4, 1)),
        (Slope(-7, 2), Slope(1, 0)),
    ]
    for s1, s2 in pairs:
        v = distinguish(tref, s1, s2)
        assert v.tag == DIFFERENT_HOMOLOGY, (s1, s2)
        assert v.value1 != v.value2


def test_distinguish_reads_only_the_stages_it_needs(corpus_by_name, monkeypatch):
    # A Casson-Gordon difference decides before the Casson-Walker witness,
    # the rank and the mirror's Floer data are computed; a Casson-Walker
    # difference decides without the rank or the mirror's Floer data.  Each
    # patched name is one a later stage calls, and a pair that reaches that
    # stage trips it: trefoil_right (Delta''(1) = 2) reaches Casson-Walker,
    # alexander_one (Delta''(1) = 0, with Floer data) the rank stage.
    tref = corpus_by_name["trefoil_right"]
    floer = KnotRecord(
        name="alexander_one",
        alexander=SymLaurentPoly(1),
        hf=ds.KnotFloerData(2, (1, 2, 3, 2, 1), 1),
    )
    cg_pairs = [(Slope(5, 1), Slope(5, 2)), (Slope(-5, 1), Slope(-5, 2))]
    cw_pair = (Slope(-1, 1), Slope.of(-1, 2))
    hf_pairs = [(Slope(1, 1), Slope.of(1, 2)), (Slope(-1, 1), Slope.of(-1, 2))]
    decided = [(record, pair) for record in (tref, floer) for pair in cg_pairs] + [(tref, cw_pair)]
    expected = {(record.name, pair): distinguish(record, *pair) for record, pair in decided}
    assert {v.tag for (name, pair), v in expected.items() if pair in cg_pairs} == {BY_CASSON_GORDON}
    assert expected["trefoil_right", cw_pair].tag == BY_CASSON_WALKER
    assert {distinguish(floer, *pair).tag for pair in hf_pairs} == {BY_HF_RANK}

    def boom(name):
        def fail(*args, **kwargs):
            raise AssertionError(f"{name} called after the decision")

        return fail

    monkeypatch.setattr("dehnsurg.obstruction.rank_formula", boom("rank_formula"))
    monkeypatch.setattr("dehnsurg.obstruction.mirror_of", boom("mirror_of"))
    for record, pair in decided:
        assert distinguish(record, *pair) == expected[record.name, pair]
    with pytest.raises(AssertionError, match="rank_formula called"):
        distinguish(floer, *hf_pairs[0])
    with pytest.raises(AssertionError, match="mirror_of called"):
        distinguish(floer, *hf_pairs[1])
    monkeypatch.setattr("dehnsurg.obstruction._casson_walker", boom("_casson_walker"))
    for record, pair in decided[:-1]:
        assert distinguish(record, *pair) == expected[record.name, pair]
    with pytest.raises(AssertionError, match="_casson_walker called"):
        distinguish(tref, *cw_pair)


def test_delta2_is_computed_when_a_record_is_built(monkeypatch):
    # Records rebuilt through __init__ (replace, mirror_record) re-derive it.
    kt = KnotRecord(name="kt", alexander=SymLaurentPoly(1))
    assert kt.delta2 == 0 and replace(kt, alexander=SymLaurentPoly(3, (-1,))).delta2 == -2
    corpus = load_knots(ds.bundled_corpus_path())
    assert [mirror_record(record).delta2 for record in corpus] == [record.delta2 for record in corpus]

    def decide_all():
        return (
            sweep(corpus, 6, 6),
            [distinguish(record, Slope(1, 1), Slope.of(1, 2)) for record in corpus],
            [distinguish(record, Slope(-1, 1), Slope.of(-1, 2)) for record in corpus],
        )

    expected = decide_all()

    def boom(*args, **kwargs):
        raise AssertionError("Delta''(1) computed after the record was built")

    monkeypatch.setattr("dehnsurg.obstruction.delta2_at_one", boom)
    assert decide_all() == expected

# The Fraction-valued stage rule that the integer keys replaced, kept
# verbatim as an oracle for distinguish.


def _stage(record: KnotRecord, slopes, sign: int, tag: str):
    """One stage's tag and values on the given surgeries (None if it does
    not run).  The slopes have positive p, on the mirror knot when ``sign``
    is -1, whose data only the stage that needs it reads.  After a
    Casson-Gordon tie two Casson-Walker values differ exactly when
    Delta''(1) != 0, so that stage runs only then, and the rank stage,
    which it would always pre-empt, only otherwise.
    """
    if tag == DIFFERENT_HOMOLOGY:
        return tag, [s.p for s in slopes]
    if tag == BY_CASSON_GORDON:
        return tag, [-4 * s.p * dedekind_sum(s.q, s.p) for s in slopes]
    delta2 = record.delta2
    if tag == BY_CASSON_WALKER:
        if delta2 == 0:
            return tag, None
        ambient = record.ambient if sign > 0 else record.ambient.negated()
        return tag, [casson_walker_surgered(ambient, delta2, s) for s in slopes]
    if delta2 != 0 or record.hf is None:
        return tag, None
    # Infinite surgery returns the ambient integral homology L-space,
    # whose hat homology has rank 1.
    hf = record.hf if sign > 0 else mirror_of(record.hf)
    return tag, [1 if s.is_infinite else rank_formula(hf, s) for s in slopes]


def _first_difference(record: KnotRecord, stages, i: int, j: int) -> Verdict:
    """The first stage whose values on surgeries i and j differ gives the
    verdict; when every stage ties, the L-space form of the Alexander
    polynomial does."""
    for tag, values in stages:
        if values is not None and values[i] != values[j]:
            return Verdict(tag, values[i], values[j])
    try:
        form = parse_lspace_form(record.alexander)
    except NotLSpaceFormError:
        return Verdict(INCONCLUSIVE)
    if form.exponents:
        raise ArithmeticError(
            "alternating Alexander form with nonzero top term cannot reach this step"
        )
    return Verdict(UNKNOT_COSMETIC if record.trivial else INCONCLUSIVE)


def fraction_rule_distinguish(record, s1, s2):
    sign = _check_pair(s1, s2)
    if sign < 0:
        s1, s2 = s1.negated(), s2.negated()
    stages = map(partial(_stage, record, (s1, s2), sign), _STAGES)
    return _first_difference(record, stages, 0, 1)


def oracle_records(corpus):
    """The corpus plus a record in an ambient manifold with nonzero
    Casson-Walker invariant and one with Delta''(1) = 0 and Floer data."""
    poincare = ds.AmbientData(Fraction(2), "Sigma(2,3,5)")
    alexander_one = KnotRecord(
        name="alexander_one",
        alexander=SymLaurentPoly(1),
        hf=ds.KnotFloerData(2, (1, 2, 3, 2, 1), 1),
    )
    return corpus + [replace(corpus[1], name="in_poincare", ambient=poincare), alexander_one]


def seeded_slope_pairs(rng, count):
    """Same-sign pairs with |p| log-uniform up to 10^6, a third of them
    with Casson-Gordon forced to tie (q2 = q1^-1 mod p, shifted by a
    multiple of p), plus pairs with the infinite slope."""
    pairs = [(Slope(1, 0), Slope(sign, 1)) for sign in (1, -1)]
    while len(pairs) < count:
        p = round(10 ** rng.uniform(0, 6))
        sign = rng.choice((1, -1))
        q1 = rng.randrange(1, 2 * p + 2)
        if math.gcd(p, q1) != 1:
            continue
        kind = rng.randrange(4)
        if kind == 0:
            q2 = pow(q1, -1, p) + p * rng.randrange(3) if p > 1 else rng.randrange(2, 9)
        elif kind == 1:
            pairs.append((Slope(sign * p, q1), Slope(1, 0)))
            continue
        else:
            q2 = rng.randrange(1, 2 * p + 2)
        if q2 > 0 and q2 != q1 and math.gcd(p, q2) == 1:
            pairs.append((Slope(sign * p, q1), Slope(sign * p, q2)))
    return pairs


def test_distinguish_matches_the_fraction_rule(corpus):
    rng = random.Random(20261018)
    tags = set()
    for record in oracle_records(corpus):
        pairs = seeded_slope_pairs(rng, 150) + list(slope_pairs_same_p(4, 5))
        for s1, s2 in pairs + [(s1.negated(), s2.negated()) for s1, s2 in pairs]:
            v = distinguish(record, s1, s2)
            expected = fraction_rule_distinguish(record, s1, s2)
            assert v == expected, (record.name, s1, s2)
            assert (type(v.value1), type(v.value2)) == (
                type(expected.value1),
                type(expected.value2),
            )
            tags.add(v.tag)
    assert tags == {
        DIFFERENT_HOMOLOGY,
        BY_CASSON_GORDON,
        BY_CASSON_WALKER,
        BY_HF_RANK,
        UNKNOT_COSMETIC,
    }


def test_integer_keys_match_the_values():
    for p in range(1, 301):
        for q in range(1, p + 1):
            if math.gcd(p, q) != 1:
                continue
            u, den = dedekind_numerator(q, p)
            assert den == 12 * p
            assert u == 12 * p * dedekind_sum(q, p)
            assert Fraction(-u, 3) == ds.lens_tau_cg(LensSpace(p, q))


def test_stage_keys_tie_exactly_when_the_values_do(corpus):
    knots = [record for record in corpus if record.delta2 != 0]
    assert len({record.delta2 for record in knots}) > 2
    for record in knots:
        for lam in (Fraction(0), Fraction(2), Fraction(-1, 3)):
            ambient = ds.AmbientData(lam, "Y")
            knot = replace(record, ambient=ambient)
            delta2 = record.delta2
            for sign in (1, -1):
                signed = ambient if sign > 0 else ambient.negated()
                for p in range(1, 16):
                    group = [Slope(1, 0)] if p == 1 else []
                    group += [Slope(p, q) for q in range(1, 16) if math.gcd(p, q) == 1]
                    stages = {
                        tag: (keys, witness)
                        for tag, keys, witness in _stages(knot, [(s.p, s.q) for s in group], sign)
                    }
                    cg_keys, cg_witness = stages[BY_CASSON_GORDON]
                    cw_keys, cw_witness = stages[BY_CASSON_WALKER]
                    cg = [-4 * s.p * dedekind_sum(s.q, s.p) for s in group]
                    cw = [casson_walker_surgered(signed, delta2, s) for s in group]
                    assert [cg_witness(i) for i in range(len(group))] == cg
                    assert [cw_witness(i) for i in range(len(group))] == cw
                    assert all(type(cw_witness(i)) is Fraction for i in range(len(group)))
                    for i in range(len(group)):
                        for j in range(len(group)):
                            assert (cg_keys[i] == cg_keys[j]) == (cg[i] == cg[j])
                            assert (cw_keys[i] == cw_keys[j]) == (cw[i] == cw[j])


SWEEP_CSV_SHA256 = {
    10: "677e9c62addfaa8fecdd34042a46aa89a10f17aaec660dced3b47c9d5f31c058",
    30: "febb8240cf6f1850e82f20ec631912560ce1d34348f18c1910adac87a6aa9d24",
}


@pytest.mark.parametrize("box", sorted(SWEEP_CSV_SHA256))
def test_sweep_csv_bytes_are_pinned(corpus, box):
    # The bytes `dehnsurg sweep` writes to --out for the bundled corpus at
    # --pmax N --qmax N.
    text = "\n".join(sweep(corpus, box, box).csv_lines()) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_CSV_SHA256[box]


def test_sweep_figure_eight_never_inconclusive(corpus_by_name):
    report = sweep(corpus_by_name["figure_eight"], 10, 10)
    assert report.nontrivial_inconclusive == 0
    assert set(report.counts) <= {BY_CASSON_GORDON, BY_CASSON_WALKER}


def test_sweep_csv_shape(corpus_by_name):
    report = sweep(corpus_by_name["unknot"], 3, 3)
    lines = list(report.csv_lines())
    assert lines[0] == "name,p,q1,q2,tag,witness1,witness2"
    assert all(line.count(",") == 6 for line in lines)


def test_sweep_computes_one_dedekind_sum_per_residue_class(corpus, monkeypatch):
    # U = 12p s(q,p) depends only on q mod p, and sweep builds each |p|
    # group once per call for every record: sweep(corpus, 10, 10) needs one
    # Dedekind sum per (|p|, q mod |p|) class, 32 of them where one per
    # slope would be 64, and repeating the records adds none.
    calls = []

    def counted(q, p):
        calls.append((q % p, p))
        return dedekind_numerator(q, p)

    monkeypatch.setattr("dehnsurg.obstruction.dedekind_numerator", counted)
    classes = {(q % p, p) for p in range(1, 11) for q in range(11) if math.gcd(p, q) == 1}
    report = sweep(corpus, 10, 10)
    assert len(calls) == len(classes) == 32 and set(calls) == classes
    calls.clear()
    assert sweep(corpus * 3, 10, 10).rows == report.rows * 3
    assert len(calls) == 32


def test_sweep_csv_quotes_names_with_commas(corpus_by_name):
    record = replace(corpus_by_name["trefoil_right"], name="a,b")
    lines = sweep(record, 3, 3).csv_lines()
    rows = list(csv.reader(lines))
    assert len(rows) == len(lines) > 1
    assert all(len(row) == 7 for row in rows)
    assert all(row[0] == "a,b" for row in rows[1:])


def test_full_invariants_values(corpus_by_name):
    tref = corpus_by_name["trefoil_right"]
    lam, tau, rank = full_invariants(tref, Slope(2, 1))
    assert lam == -1  # s(1,2) - (1/2)*2
    assert tau == 2  # -8*s(1,2) + 2
    assert rank == 2


FULL_INVARIANTS_SHA256 = "0268c482a16afabd5bcdd08dc4a4a8d959b21987c98d5dd73711916535bb7905"


def test_full_invariants_values_are_pinned(corpus):
    # lambda,tau,rank as text, one line per (record, slope), for the nine
    # bundled records at 1/0 and every reduced p/q with 1 <= |p| <= 13,
    # 1 <= q <= 13: 2,079 cases.
    slopes = [Slope(1, 0)] + reduced_slopes(13, 13)
    lines = [",".join(map(str, full_invariants(record, slope))) for record in corpus for slope in slopes]
    assert len(corpus) == 9 and len(lines) == 2079
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == FULL_INVARIANTS_SHA256


def test_full_invariants_builds_no_slope(corpus, monkeypatch):
    # full_invariants ranks the slope it is given: with obstruction's Slope
    # raising, every record with knot Floer data gets the same values at
    # both signs and at 1/0.
    slopes = [Slope(1, 0)] + reduced_slopes(7, 7)
    records = [record for record in corpus if record.hf is not None]
    want = {(record.name, slope): full_invariants(record, slope) for record in records for slope in slopes}

    def boom(*args):
        raise AssertionError(f"full_invariants built Slope{args}")

    monkeypatch.setattr("dehnsurg.obstruction.Slope", boom)
    for record in records:
        for slope in slopes:
            assert full_invariants(record, slope) == want[record.name, slope], (record.name, slope)


def test_full_invariants_builds_one_fraction_per_value(corpus, clear_caches, fraction_calls):
    # Each surgered value is one fraction from Dedekind integers, and the
    # signature term is placed without fractions.
    for record in corpus:
        for slope in reduced_slopes(13, 13):
            clear_caches()
            fraction_calls.clear()
            values = full_invariants(record, slope)
            built = sum(isinstance(value, Fraction) for value in values)
            assert len(fraction_calls) <= built, (record.name, slope, fraction_calls)


def test_full_invariants_runs_one_euclid_pass_per_slope(corpus_by_name, dedekind_calls):
    # The Casson-Walker and Casson-Gordon values read the same s(q,p).
    tref = corpus_by_name["trefoil_right"]
    for slope in (Slope(7, 2), Slope(-7, 3), Slope(1000003, 999983), Slope(1, 0)):
        dedekind_calls.clear()
        full_invariants(tref, slope)
        assert len(dedekind_calls) == 1, slope


def test_distinguish_builds_no_slope(corpus_by_name, monkeypatch):
    # distinguish hands _stages (p, q) pairs, p negated on the mirror and
    # 1/0 kept as it is, without building a Slope.
    tref = corpus_by_name["trefoil_right"]
    pairs = {
        (Slope(-5, 1), Slope(-5, 2)): Verdict(BY_CASSON_GORDON, -4, 0),
        (Slope(-1, 1), Slope(1, 0)): Verdict(BY_CASSON_WALKER, -2, 0),
        (Slope(1, 0), Slope(-1, 1)): Verdict(BY_CASSON_WALKER, 0, -2),
    }
    built = []
    init = Slope.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Slope, "__init__", counting)
    for pair, verdict in pairs.items():
        assert distinguish(tref, *pair) == verdict, pair
    assert built == []


def test_full_invariants_tau_is_none_where_sigma_is_undefined(corpus):
    # Delta(T) = T - 1 + T^-1 vanishes at the primitive 6th roots of unity,
    # so sigma(trefoil, 6) is undefined and the Casson-Gordon value with it.
    singular = 0
    for record in corpus:
        if record.seifert is None:
            continue
        for slope in reduced_slopes(12, 6):
            _, tau, _ = full_invariants(record, slope)
            try:
                sigma = sigma_total(record.seifert, abs(slope.p))
            except SingularValueError:
                assert tau is None, (record.name, slope)
                singular += 1
            else:
                assert tau == casson_gordon_surgered(sigma, slope), (record.name, slope)
    assert singular > 0


def test_full_invariants_rank_matches_the_cone_oracle(corpus):
    # full_invariants ranks by the closed formula; the mapping cone is its
    # reference at both signs, and the infinite slope has rank 1.
    records = [record for record in corpus if record.hf is not None]
    assert len(records) == 6
    for record in records:
        assert full_invariants(record, Slope(1, 0))[2] == 1
        for slope in reduced_slopes(13, 13):
            assert full_invariants(record, slope)[2] == cone_rank_oracle(record.hf, slope), (record.name, slope)


def test_full_invariants_never_runs_the_cone(corpus, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("full_invariants ran the mapping cone")

    monkeypatch.setattr("dehnsurg.hfcone.cone_rank_oracle", boom)
    monkeypatch.setattr("dehnsurg.hfcone._cone_rank", boom)
    slopes = [Slope(1, 0), Slope(7, 2), Slope(-7, 3), Slope(1, 10000019), Slope(-1000003, 999983)]
    for record in corpus:
        if record.hf is not None:
            for slope in slopes:
                assert full_invariants(record, slope)[2] == (rank_formula(record.hf, slope) if slope.q else 1)


def test_casson_walker_witness_is_the_mirrored_surgery_value(corpus_by_name):
    # distinguish's Casson-Walker witnesses are casson_walker_surgered on the
    # mirrored surgeries, in value and in type: a Fraction.
    decided = set()
    for name in ("trefoil_right", "figure_eight", "torus_2_5"):
        for lam in (0, 3, Fraction(-5, 7)):
            record = replace(corpus_by_name[name], ambient=ds.AmbientData(lam, "Y"))
            for pair in slope_pairs_same_p(4, 5):
                for s1, s2 in (pair, tuple(s.negated() for s in pair)):
                    v = distinguish(record, s1, s2)
                    if v.tag != BY_CASSON_WALKER:
                        continue
                    sign = _check_pair(s1, s2)
                    ambient = record.ambient if sign > 0 else record.ambient.negated()
                    for got, s in ((v.value1, s1), (v.value2, s2)):
                        want = casson_walker_surgered(ambient, record.delta2, s if sign > 0 else s.negated())
                        assert got == want and type(got) is type(want), (name, lam, s1, s2)
                    decided.add((sign, type(v.value1)))
    assert decided == {(1, Fraction), (-1, Fraction)}


def test_ambient_lambda_is_exact_down_to_witnesses_far_below_float_spacing(corpus_by_name):
    # lambda(Y) is an int or a Fraction, refused at construction otherwise:
    # the two Casson-Walker witnesses below differ by 2/p, far below the
    # spacing of floats near them, and a float lambda would tie them.
    for lam in (0.5, "1/2", True, Decimal("0.5")):
        with pytest.raises(ValueError, match="lambda_value"):
            ds.AmbientData(lam, "Y")
    for lam in (0, 2, Fraction(1, 2)):
        assert ds.AmbientData(lam, "Y").lambda_value == lam
    record = replace(corpus_by_name["trefoil_right"], ambient=ds.AmbientData(Fraction(1, 2), "Y"))
    p = 10**12 + 10**6 - 1
    v = distinguish(record, Slope(p, 10**6), Slope(p, 10**6 + 1))
    assert v.tag == BY_CASSON_WALKER
    assert v.value1 - v.value2 == Fraction(2, p)


def test_ambient_record(tmp_path):
    path = tmp_path / "poincare.json"
    path.write_text(
        json.dumps(
            [
                {
                    "name": "core",
                    "alexander": {"a0": 1},
                    "lambda_ambient": "2",
                    "ambient": "Sigma(2,3,5)",
                    "hf": {"g": 0, "a": [1], "v_threshold": 0},
                }
            ]
        )
    )
    record = load_knots(path)[0]
    assert record.ambient.lambda_value == 2
    lam, _, _ = full_invariants(record, Slope(1, 0))
    assert lam == 2
    assert mirror_record(record).ambient.lambda_value == -2


def test_load_knots_corpus(corpus):
    names = [r.name for r in corpus]
    assert "unknot" in names and "trefoil_right" in names
    assert sum(1 for r in corpus if r.trivial) == 1
    for record in corpus:
        assert record.alexander.a0 + 2 * sum(record.alexander.higher) == 1


def test_a_record_derived_late_equals_the_record_built_early(tmp_path):
    # A record whose file gives no polynomial takes Delta and Delta''(1)
    # from its Seifert matrix on first read; every view of it matches the
    # record built with the polynomial up front.
    rng = random.Random(2028)
    matrices = [random_seifert(rng, rng.randint(1, 5)) for _ in range(60)]
    matrices += [matrix.mirror() for matrix in matrices]
    raw = json.loads(ds.bundled_corpus_path().read_text())
    raw += [{"name": f"r{i}", "seifert_matrix": [list(row) for row in m.entries]} for i, m in enumerate(matrices)]
    path = tmp_path / "late.json"
    path.write_text(json.dumps(raw))
    early = [
        KnotRecord(r.name, alexander_from_seifert(r.seifert), r.seifert, r.hf, r.ambient, r.tau, r.nu, r.trivial)
        for r in load_knots(path)
    ]
    views = (
        lambda r: r,
        hash,
        repr,
        lambda r: r.delta2,
        lambda r: pickle.loads(pickle.dumps(r)),
        lambda r: pickle.loads(pickle.dumps(r)).delta2,
        copy.deepcopy,
        lambda r: copy.deepcopy(r).delta2,
        lambda r: replace(r, name="x"),
    )
    for view in views:
        for late, built in zip(load_knots(path), early, strict=True):
            assert view(late) == view(built)
    for record in load_knots(path):
        assert record.seifert.alexander is record.seifert.alexander
        assert record.alexander is record.alexander
    with pytest.raises(ValueError, match="need an Alexander polynomial or a Seifert matrix"):
        KnotRecord("x", None)


def test_record_refuses_the_trivial_mark_unless_alexander_is_one():
    fig8 = KnotRecord("x", SymLaurentPoly(3, (-1,)))
    message = "'trivial' is true but the Alexander polynomial is -T + 3 - T^-1, not 1"
    with pytest.raises(ValueError) as info:
        KnotRecord("x", SymLaurentPoly(3, (-1,)), trivial=True)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        replace(fig8, trivial=True)
    assert str(info.value) == message
    assert replace(KnotRecord("u", SymLaurentPoly(1)), trivial=True).trivial


def test_loader_accepts_trivial_only_with_alexander_one(tmp_path):
    path = tmp_path / "k.json"
    records = [
        {"name": "u", "alexander": {"a0": 1}, "trivial": True},
        {"name": "null", "seifert_matrix": [[0, 1], [0, 0]], "trivial": True},
        {"name": "fig8", "alexander": {"a0": 3, "a": [-1]}, "trivial": False},
    ]
    path.write_text(json.dumps(records))
    assert [r.trivial for r in load_knots(path)] == [True, True, False]
    for i, (raw, poly) in enumerate(
        (
            ({"alexander": {"a0": 3, "a": [-1]}}, "-T + 3 - T^-1"),
            ({"seifert_matrix": [[-1, 1], [0, -1]]}, "T - 1 + T^-1"),
        )
    ):
        path.write_text(json.dumps(records[:i] + [{"name": "k", **raw, "trivial": True}]))
        with pytest.raises(ValueError) as info:
            load_knots(path)
        assert str(info.value) == (
            f"{path}: record {i} (k): 'trivial' is true but the Alexander polynomial is {poly}, not 1"
        )


def test_load_knots_error_reporting(tmp_path):
    bad = tmp_path / "bad.json"

    bad.write_text("{")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_knots(bad)

    bad.write_text(json.dumps({"name": "x"}))
    with pytest.raises(ValueError, match="must be a JSON list"):
        load_knots(bad)

    bad.write_text(json.dumps([{"name": "x"}]))
    with pytest.raises(ValueError, match="at least one of"):
        load_knots(bad)

    # Seifert matrix and Alexander polynomial that disagree
    bad.write_text(
        json.dumps(
            [
                {
                    "name": "trefoil_wrong",
                    "seifert_matrix": [[-1, 1], [0, -1]],
                    "alexander": {"a0": 3, "a": [-1]},
                }
            ]
        )
    )
    with pytest.raises(ValueError, match="trefoil_wrong.*does not match"):
        load_knots(bad)

    # nu/tau bracket violation
    bad.write_text(
        json.dumps(
            [
                {
                    "name": "bad_bracket",
                    "alexander": {"a0": -1, "a": [1]},
                    "hf": {"g": 1, "a": [1, 1, 1], "v_threshold": 1},
                    "tau": -1,
                }
            ]
        )
    )
    with pytest.raises(ValueError, match="bracket"):
        load_knots(bad)

    bad.write_text(json.dumps([{"name": "a", "alexander": {"a0": 1}}] * 2))
    with pytest.raises(ValueError, match="duplicate"):
        load_knots(bad)

    bad.write_text("[]")
    assert load_knots(bad) == []


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("seifert_matrix", [[-1.7, 1], [0.9, -1]], "bad seifert_matrix: need a list of rows of integers"),
        (
            "seifert_matrix",
            [[0, 2], [0, 0]],
            "bad seifert_matrix: det(A - A^T) = 4, not +-1: not a valid Seifert pairing",
        ),
        (
            "alexander",
            {"a0": 3.9, "a": [-1.2]},
            "bad alexander polynomial: 'a0' must be an integer and 'a' a list of integers",
        ),
        (
            "hf",
            {"g": 1, "a": [1.5, 1, 1.2], "v_threshold": 1},
            "bad hf data: 'g' and 'v_threshold' must be integers and 'a' a list of integers",
        ),
        ("hf", {"g": 1, "a": [1, 3, 1]}, "bad hf data: hf data missing key 'v_threshold'"),
        # A misspelt key is refused, not read as the field left at its default.
        ("lambda_ambeint", "2", "unknown key 'lambda_ambeint'"),
        ("alexander", {"a0": 1, "b": [0], "c": [1]}, "bad alexander polynomial: unknown key 'b'"),
        (
            "hf",
            {"g": 1, "a": [1, 3, 1], "v_treshold": 0, "v_threshold": 0},
            "bad hf data: unknown key 'v_treshold'",
        ),
        # lambda is -2 times Casson's integer invariant: no integral homology
        # sphere has an odd or fractional one.
        (
            "lambda_ambient",
            "-2/3",
            "bad lambda_ambient: need an even integer for an integral homology sphere, got -2/3",
        ),
        (
            "lambda_ambient",
            1,
            "bad lambda_ambient: need an even integer for an integral homology sphere, got 1",
        ),
        (
            "lambda_ambient",
            "3",
            "bad lambda_ambient: need an even integer for an integral homology sphere, got 3",
        ),
    ],
)
def test_loader_messages_for_non_integral_and_invalid_fields(tmp_path, field, value, message):
    # The loader rejects non-integers before any constructor sees them, so
    # its messages do not depend on how the constructors check types.
    path = tmp_path / "bad.json"
    record = {"name": "k", "alexander": {"a0": 1}}
    record[field] = value
    path.write_text(json.dumps([record]))
    with pytest.raises(ValueError) as info:
        load_knots(path)
    assert str(info.value) == f"{path}: record 0 (k): {message}"
