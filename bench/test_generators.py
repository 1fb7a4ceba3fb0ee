"""Tests of the benchmark's seeded input generators and reference checks."""

import math
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import dehnsurg as ds  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def test_generated_seifert_matrices_are_valid():
    rng = random.Random(0)
    for n in range(2, 13, 2):
        for values in (workloads.INGEST_SPARSE_VALUES, workloads.INGEST_DENSE_VALUES):
            a = workloads.seifert_matrix(rng, n, values)
            skew = [[a[i][j] - a[j][i] for j in range(n)] for i in range(n)]
            assert checks.bareiss_det(skew) == 1
            ds.SeifertMatrix(a)  # raises unless det(A - A^T) = +-1


def test_ingest_corpora_validate_and_match_reference_alexander():
    corpora = workloads.ingest_corpora(seed=0)
    assert Counter(label for label, _, _ in corpora) == {
        "small": 14,
        "dense10": 3,
        "dense12": 2,
        "dense14": 1,
    }
    for _, records, name in corpora:
        assert name in {r["name"] for r in records}
        for record in records:
            matrix = ds.SeifertMatrix(record["seifert_matrix"])
            if matrix.size <= 10:
                poly = ds.alexander_from_seifert(matrix)
                assert record["expected"] == (poly.a0, poly.higher)


def test_large_p_pairs_follow_the_stage_mix():
    records = ds.load_knots(ds.bundled_corpus_path())
    blocks = workloads.large_p_pairs(records, seed=0)
    assert len(blocks) == workloads.LARGE_P_BLOCKS
    for block in blocks:
        assert Counter(pair["stage"] for pair in block) == Counter(
            [stage for stage, _, _ in workloads.LARGE_P_SLOTS]
            + ["unequal"] * len(workloads.LARGE_P_UNEQUAL_SLOTS)
        )
        equal_p = [abs(pair["p1"]) for pair in block if pair["stage"] != "unequal"]
        assert sum(p > 1 << 20 for p in equal_p) == 1
        assert 1000 <= min(equal_p) and max(equal_p) <= 2_000_000
        for pair in block:
            p1, p2, q1, q2 = pair["p1"], pair["p2"], pair["q1"], pair["q2"]
            assert (p1 > 0) == (p2 > 0)
            if pair["stage"] == "unequal":
                assert abs(p1) != abs(p2)
                continue
            assert p1 == p2 and q1 != q2
            if pair["stage"] == "cg":
                assert checks.dedekind_reciprocity(q1, p1) != checks.dedekind_reciprocity(q2, p1)
            else:
                # Ties: q2 is the inverse of q1 mod p, so the sums agree.
                assert ds.dedekind_sum(q1, p1) == ds.dedekind_sum(q2, p1)


def test_invariant_sessions_vary_only_the_slopes_with_the_seed():
    records = ds.load_knots(ds.bundled_corpus_path())
    a, b = (workloads.invariant_sessions(records, seed) for seed in (5, 6))
    assert a != b
    assert sorted((r.name, p) for r, p, _, _ in a) == sorted((r.name, p) for r, p, _, _ in b)
    for record, p, q1, q2 in a:
        assert q1 + q2 == workloads.INVARIANT_Q_SUM and q1 != q2
        assert math.gcd(q1, p) == math.gcd(q2, p) == 1
    for record in {r for r, _, _, _ in a}:
        assert {p > 0 for r, p, _, _ in a if r is record} == {True, False}


def test_generators_are_seeded():
    records = ds.load_knots(ds.bundled_corpus_path())

    def first_block(seed):
        block = workloads.large_p_pairs(records, seed)[0]
        return [(p["record"].name, p["p1"], p["q1"], p["q2"]) for p in block]

    assert first_block(3) == first_block(3)
    assert first_block(3) != first_block(4)
    assert workloads.invariant_sessions(records, 3) == workloads.invariant_sessions(records, 3)
    assert workloads.ingest_corpora(3)[0][1] == workloads.ingest_corpora(3)[0][1]


def test_reference_dedekind_sums_agree_with_the_package():
    rng = random.Random(1)
    pairs = [(q, p) for p in range(-40, 41) if p for q in range(-45, 46)]
    pairs += [(rng.randrange(1, 10**5), rng.randrange(2, 10**5)) for _ in range(200)]
    for q, p in pairs:
        assert checks.dedekind_reciprocity(q, p) == ds.dedekind_sum(q, p), (q, p)


def _package_containers() -> dict:
    """Every dict, list and set held by a module of the package or by one
    of its classes, by qualified name."""
    found = {}
    for module in workloads.package_modules():
        for name, obj in vars(module).items():
            if name.startswith("__"):
                continue
            held = [(name, obj)]
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                held += [(f"{name}.{k}", v) for k, v in vars(obj).items() if not k.startswith("__")]
            for key, value in held:
                if isinstance(value, (dict, list, set)):
                    found[f"{module.__name__}.{key}"] = value
    return found


def test_reset_empties_every_cache_an_op_fills(tmp_path):
    """A memo the reset cannot see would let repeated inputs hit it."""
    containers = _package_containers()
    caches, _ = workloads._package_caches()
    for name in workloads.PLANS:
        plan = workloads.build(name, 0, tmp_path)
        try:
            op = plan.cycle[0]
            plan.reset()
            sizes = {key: len(value) for key, value in containers.items()}
            op.run()
            plan.reset()
        finally:
            plan.close()
        assert [key for key, value in containers.items() if len(value) > sizes[key]] == [], name
        assert [cache for cache in caches if cache.cache_info().currsize] == [], name
