"""Seeded workloads of the dehnsurg benchmark.

Each workload is a plan: a cycle of operations, run over and over.  The
cycle holds the workload's whole input mix, so a run that stops at a cycle
boundary always measures the same mix, whatever its seed or length.  The
package receives only the generated inputs; it never sees the seed.

* ``sweep``: ``sweep(record, 10, 10)`` on each record of the bundled
  corpus, both slope signs: the box of the documented ``dehnsurg sweep
  --pmax 10 --qmax 10``.  The paper's main use; deterministic.
* ``large_p``: ``distinguish`` on slope pairs with |p| spread evenly in
  log scale from 1e3 to about 2e6, with a fixed stage mix.  Dedekind sums on few, huge p.
* ``invariants``: ``full_invariants`` on both slopes of a pair sharing a
  small |p|; one op is one pair, as in one ``distinguish --verbose``
  process.  Signatures over cyclotomic fields.
* ``ingest``: ``cli.main(["alexander", ...])`` on generated corpora, mostly
  low genus with a tail of dense Seifert matrices of size 10 to 14.
  Seifert validation and Alexander determinants, plus the CLI layer.

Every op starts with the package's caches empty (``Plan.reset``), as
each command starts in a fresh process, so a run that repeats its inputs
cycle after cycle gains nothing from a cache that lives as long as the
process.  A cache added to the package must be a functools cache or a
module- or class-level dict, list or set, so that the reset sees it;
``test_reset_empties_every_cache_an_op_fills`` checks this.

A row is a CSV row for ``sweep``, a verdict for ``large_p``, one surgery's
invariants for ``invariants`` and a corpus record loaded for ``ingest``.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import checks

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

SWEEP_BOX = (10, 10)

# large_p: |p| is spread over [1e3, 2**(20 + w)], cut into 12 equal
# strata of width w in log2(|p|) so that a stratum boundary falls on 2**20,
# where dedekind_sum leaves its int64 vector path for its integer loop.
# Each block draws one |p| per stratum, so exactly one op in twelve takes
# the integer loop, and the stage of each stratum is fixed.  A cycle is
# LARGE_P_BLOCKS blocks, so that each input recurs in a run.
LARGE_P_LOG2_LO = math.log2(1000)
LARGE_P_SPLIT = 20
LARGE_P_STRATA = 12
LARGE_P_WIDTH = (LARGE_P_SPLIT - LARGE_P_LOG2_LO) / (LARGE_P_STRATA - 1)
LARGE_P_SPLIT_STRATUM = LARGE_P_STRATA - 1
# (stage, record, slope sign) of each stratum, lowest |p| first, then of
# the pairs with unequal |p|.  The table is the same for every seed, so that
# every run measures the same mix of records and signs; every bundled record
# and both signs appear in each third of the |p| range.
LARGE_P_SLOTS = (
    ("cg", "trefoil_right", 1),
    ("cw", "torus_2_7", -1),
    ("cg", "figure_eight", -1),
    ("unknot", "unknot", -1),
    ("cg", "torus_2_5", 1),
    ("cw", "twist_5_2", -1),
    ("cg", "trefoil_left", 1),
    ("cg", "twist_6_1", -1),
    ("cw", "torus_2_5", -1),
    ("cg", "twist_7_2", 1),
    ("cg", "torus_2_7", 1),
    ("cg", "figure_eight", -1),
)
LARGE_P_UNEQUAL_SLOTS = (("trefoil_left", -1), ("twist_7_2", -1), ("unknot", 1))
LARGE_P_BLOCKS = 2
LARGE_P_JITTER = 0.05

INVARIANT_P = range(2, 14)
# q1 + q2 of a session, so 1 <= q <= 13.
INVARIANT_Q_SUM = 14

# ingest: one corpus per slot; None is a corpus of low-genus records only,
# a number adds one dense record of that size.
INGEST_SMALL_SIZES = (2, 2, 4, 4, 6)
# The dense records are spread evenly through the cycle, in an order that
# is the same for every seed: the peak memory of a run depends on it.
INGEST_SLOTS = (
    *(None, None, 10, None, None, 12, None, None, 10, None),
    *(None, 14, None, None, 10, None, None, 12, None, None),
)
INGEST_SPARSE_VALUES = (-1, 0, 0, 1)
INGEST_DENSE_VALUES = (-2, -1, 1, 2)

EXPECTED_TAG = {
    "unequal": "DifferentHomology",
    "cg": "DistinguishedByCassonGordon",
    "cw": "DistinguishedByCassonWalker",
    "unknot": "UnknotCosmetic",
}


@dataclass
class Op:
    key: str  # names the input; reference values are keyed by it
    label: str  # stage or size class, for the realised mix
    run: Callable[[], object]
    data: dict = field(default_factory=dict)


class Result(NamedTuple):
    op: Op
    ns: int  # time inside the op
    out: tuple | None  # comparable strings, None when the op raised
    error: str | None
    rows: int


@dataclass
class Plan:
    cycle: list  # of Op
    output: Callable[[Op, object], tuple]  # raw result -> comparable strings
    rows: Callable[[Op, object], int]
    check: Callable[[Op, tuple], str | None]  # independent check
    reference: dict | None = None
    kernel: str = "python"  # calibration kernel, see calibrate.py
    close: Callable[[], None] = lambda: None
    # Run before each op, untimed.
    reset: Callable[[], None] = field(default_factory=lambda: package_reset())


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def sha256_lines(lines) -> str:
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def seifert_matrix(rng: random.Random, n: int, values) -> list:
    """A = B + J+, with B a random symmetric matrix over ``values`` and J+
    the upper half of the standard symplectic form [[0, I], [-I, 0]].

    A - A^T is that form, so det(A - A^T) = 1 by construction.
    """
    g = n // 2
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = rng.choice(values)
    for i in range(g):
        a[i][g + i] += 1
    return a


def _coprime(rng: random.Random, p: int) -> int:
    while True:
        q = rng.randint(1, p - 1)
        if math.gcd(q, p) == 1:
            return q


def package_modules() -> list:
    import dehnsurg.cli  # noqa: F401  (imports every other module)

    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "dehnsurg"]


def _package_caches():
    """Every functools cache and instance registry in the package."""
    caches, registries = {}, {}
    for module in package_modules():
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                caches[id(obj)] = obj
            if isinstance(obj, type) and isinstance(obj.__dict__.get("_instances"), dict):
                registries[id(obj)] = obj.__dict__["_instances"]
    return list(caches.values()), list(registries.values())


def package_reset() -> Callable[[], None]:
    """A function that empties every cache of the package, as at the start
    of a fresh process.  The caches are found once, here."""
    caches, registries = _package_caches()

    def reset():
        for cache in caches:
            cache.cache_clear()
        for registry in registries:
            registry.clear()

    return reset


# ---------------------------------------------------------------------------
# sweep


def sweep_plan(seed: int, workdir: Path) -> Plan:
    from dehnsurg import obstruction

    records = obstruction.load_knots(obstruction.bundled_corpus_path())
    reference = load_reference("sweep")
    pmax, qmax = SWEEP_BOX
    cycle = [Op(r.name, r.name, lambda r=r: obstruction.sweep(r, pmax, qmax)) for r in records]

    def check(op, out):
        # The digest of the CSV, header included, that `dehnsurg sweep`
        # writes for this record.
        want = reference["records"].get(op.key)
        return None if out == (want,) else f"csv sha256 {out[0]} != recorded {want}"

    return Plan(
        cycle,
        output=lambda op, report: (sha256_lines(report.csv_lines()),),
        rows=lambda op, report: len(report.rows),
        check=check,
    )


# ---------------------------------------------------------------------------
# large_p


def _stratum_p(k: int, frac: float) -> int:
    lo_x = LARGE_P_LOG2_LO + k * LARGE_P_WIDTH
    p = int(2 ** (lo_x + frac * LARGE_P_WIDTH))
    lo, hi = math.ceil(2**lo_x), int(2 ** (lo_x + LARGE_P_WIDTH))
    if k == LARGE_P_SPLIT_STRATUM:
        lo = max(lo, (1 << LARGE_P_SPLIT) + 1)
    if k == LARGE_P_SPLIT_STRATUM - 1:
        hi = min(hi, (1 << LARGE_P_SPLIT) - 1)
    return min(max(p, lo), hi)


def large_p_pairs(records, seed: int) -> list:
    """LARGE_P_BLOCKS blocks of slope pairs, each with one pair per slot of
    LARGE_P_SLOTS and of LARGE_P_UNEQUAL_SLOTS, in a seeded order.

    Returns lists of dicts with keys stage, record, p1, q1, p2, q2 (signed
    p).  Within a stratum, block b puts log2|p| at (b + 1/2) / LARGE_P_BLOCKS
    of its width, moved by a seeded jitter of at most LARGE_P_JITTER of
    that: the blocks cover each stratum evenly, and the seed changes the
    inputs but hardly the cost of a cycle.
    """
    rng = random.Random(f"large_p:{seed}")
    by_name = {r.name: r for r in records}
    blocks = []
    for block in range(LARGE_P_BLOCKS):
        pairs = []
        for k, (stage, name, sign) in enumerate(LARGE_P_SLOTS):
            jitter = rng.uniform(-LARGE_P_JITTER, LARGE_P_JITTER)
            p = _stratum_p(k, (block + 0.5 + jitter) / LARGE_P_BLOCKS)
            if stage == "cg":
                q1 = _coprime(rng, p)
                while True:
                    q2 = _coprime(rng, p)
                    if checks.dedekind_reciprocity(q1, p) != checks.dedekind_reciprocity(q2, p):
                        break
            else:
                while True:
                    q1 = _coprime(rng, p)
                    if q1 * q1 % p != 1:
                        break
                q2 = pow(q1, -1, p)
            pairs.append(dict(stage=stage, record=by_name[name], p1=sign * p, q1=q1, p2=sign * p, q2=q2))
        for name, sign in LARGE_P_UNEQUAL_SLOTS:
            p1 = _stratum_p(rng.randrange(LARGE_P_STRATA), rng.random())
            p2 = p1
            while p2 == p1:
                p2 = _stratum_p(rng.randrange(LARGE_P_STRATA), rng.random())
            pairs.append(
                dict(
                    stage="unequal",
                    record=by_name[name],
                    p1=sign * p1,
                    q1=_coprime(rng, p1),
                    p2=sign * p2,
                    q2=_coprime(rng, p2),
                )
            )
        rng.shuffle(pairs)
        blocks.append(pairs)
    return blocks


def large_p_expected(pair) -> tuple:
    """The verdict, recomputed without the package's decision code."""
    stage, record = pair["stage"], pair["record"]
    tag = EXPECTED_TAG[stage]
    if stage == "unequal":
        return tag, str(abs(pair["p1"])), str(abs(pair["p2"]))
    if stage == "unknot":
        # q1 q2 = 1 (mod p): L(p, q1) and L(p, q2) are homeomorphic.
        return tag, "None", "None"
    # Negative pairs are decided on the mirror with positive slopes.
    p = abs(pair["p1"])
    mirrored = pair["p1"] < 0
    values = []
    for q in (pair["q1"], pair["q2"]):
        s = checks.dedekind_reciprocity(q, p)
        if stage == "cg":
            values.append(-4 * p * s)
        else:
            ambient = record.ambient.lambda_value
            ambient = -ambient if mirrored else ambient
            values.append(ambient + s - Fraction(q, p) * checks.delta2(record.alexander.higher))
    return (tag, *map(str, values))


def large_p_plan(seed: int, workdir: Path) -> Plan:
    from dehnsurg import obstruction
    from dehnsurg.surgery import Slope

    records = obstruction.load_knots(obstruction.bundled_corpus_path())

    def to_op(pair):
        s1, s2 = Slope(pair["p1"], pair["q1"]), Slope(pair["p2"], pair["q2"])
        key = f"{pair['record'].name}|{s1}|{s2}"
        return Op(
            key,
            pair["stage"],
            lambda: obstruction.distinguish(pair["record"], s1, s2),
            data=pair,
        )

    def check(op, out):
        want = large_p_expected(op.data)
        return None if out == want else f"verdict {out} != expected {want}"

    cycle = [to_op(pair) for block in large_p_pairs(records, seed) for pair in block]
    return Plan(
        cycle,
        output=lambda op, v: (v.tag, str(v.value1), str(v.value2)),
        rows=lambda op, v: 1,
        check=check,
        kernel="numeric",
    )


# ---------------------------------------------------------------------------
# invariants


def invariant_sessions(records, seed: int) -> list:
    """One session per (record, |p|) with 2 <= |p| <= 13 at which the
    signature sum is defined: two slopes of one sign sharing |p|.

    The sign alternates with |p| and from record to record, so each record
    has both.  The seed picks the slopes among the pairs coprime to p with
    q1 + q2 = INVARIANT_Q_SUM: the cone oracle's work grows with q, so a
    fixed sum keeps the cost of a cycle nearly the same for every seed.
    """
    rng = random.Random(f"invariants:{seed}")
    sessions = []
    for i, record in enumerate(records):
        if record.seifert is None:
            continue
        a0, higher = record.alexander.a0, record.alexander.higher
        for p in INVARIANT_P:
            if checks.alexander_vanishes_on_unit_roots(a0, higher, p):
                continue
            sign = 1 if (i + p) % 2 == 0 else -1
            pairs = [
                (q, INVARIANT_Q_SUM - q)
                for q in range(1, INVARIANT_Q_SUM)
                if q != INVARIANT_Q_SUM - q and math.gcd(q, p) == math.gcd(INVARIANT_Q_SUM - q, p) == 1
            ]
            q1, q2 = rng.choice(pairs)
            sessions.append((record, sign * p, q1, q2))
    rng.shuffle(sessions)
    return sessions


def invariants_plan(seed: int, workdir: Path) -> Plan:
    from dehnsurg import obstruction
    from dehnsurg.hfcone import rank_formula
    from dehnsurg.surgery import Slope

    records = obstruction.load_knots(obstruction.bundled_corpus_path())

    def inspect(record, slopes):
        return [obstruction.full_invariants(record, s) for s in slopes]

    cycle = []
    for record, p, q1, q2 in invariant_sessions(records, seed):
        slopes = (Slope(p, q1), Slope(p, q2))
        cycle.append(
            Op(
                f"{record.name}|{slopes[0]}|{slopes[1]}",
                record.name,
                lambda r=record, s=slopes: inspect(r, s),
                data=dict(record=record, slopes=slopes),
            )
        )

    sigma_cache = {}

    def expected(record, slope):
        p, q = slope.p, slope.q
        key = (record.name, abs(p))
        if key not in sigma_cache:
            sigma_cache[key] = checks.float_signature_total(record.seifert.entries, abs(p))
        sigma = sigma_cache[key]
        if sigma is None:
            return None
        s = checks.dedekind_reciprocity(q, p)
        lam = record.ambient.lambda_value + s - Fraction(q, p) * checks.delta2(record.alexander.higher)
        tau = -4 * p * s - sigma
        rank = rank_formula(record.hf, slope) if record.hf is not None else None
        return (str(lam), str(tau), str(rank))

    def check(op, out):
        want = []
        for slope in op.data["slopes"]:
            values = expected(op.data["record"], slope)
            if values is None:
                return "signature too close to a jump to check"
            want.extend(values)
        want = tuple(want)
        return None if out == want else f"invariants {out} != expected {want}"

    return Plan(
        cycle,
        output=lambda op, pair: tuple(str(x) for values in pair for x in values),
        rows=lambda op, pair: len(pair),
        check=check,
        reference=load_reference("invariants"),
    )


# ---------------------------------------------------------------------------
# ingest


def ingest_corpora(seed: int) -> list:
    """One corpus per slot of INGEST_SLOTS, in that order.

    Returns a list of (slot label, records, queried name), where each record
    is a dict in the corpus JSON format plus an "expected" Alexander pair.
    """
    rng = random.Random(f"ingest:{seed}")
    corpora = []
    for slot, dense in enumerate(INGEST_SLOTS):
        records = []
        sizes = list(INGEST_SMALL_SIZES)
        rng.shuffle(sizes)
        for i, n in enumerate(sizes):
            matrix = seifert_matrix(rng, n, INGEST_SPARSE_VALUES)
            records.append({"name": f"c{slot}_k{i}_g{n // 2}", "seifert_matrix": matrix})
        if dense is None:
            label, name = "small", rng.choice(records)["name"]
        else:
            # The dense record is the one queried, so its Alexander
            # polynomial is an output that gets checked.
            label, name = f"dense{dense}", f"c{slot}_dense_g{dense // 2}"
            matrix = seifert_matrix(rng, dense, INGEST_DENSE_VALUES)
            records.insert(rng.randrange(len(records) + 1), {"name": name, "seifert_matrix": matrix})
        for record in records:
            a0, higher = checks.alexander_coefficients(record["seifert_matrix"])
            record["expected"] = (a0, higher)
        # The first record of each size up to 4 also gives its polynomial,
        # which the loader checks against the Seifert matrix.
        for size in (2, 4):
            record = next(r for r in records if len(r["seifert_matrix"]) == size)
            record["alexander"] = {"a0": record["expected"][0], "a": list(record["expected"][1])}
        corpora.append((label, records, name))
    return corpora


def ingest_plan(seed: int, workdir: Path) -> Plan:
    import tempfile

    from dehnsurg import cli
    from dehnsurg.knots import SymLaurentPoly

    tmp = tempfile.TemporaryDirectory(prefix=f"ingest-{seed}-", dir=workdir)
    cycle = []
    for i, (label, records, name) in enumerate(ingest_corpora(seed)):
        path = Path(tmp.name) / f"corpus_{i:02d}.json"
        path.write_text(json.dumps([{k: v for k, v in r.items() if k != "expected"} for r in records]))
        target = next(r for r in records if r["name"] == name)

        def run(path=str(path), name=name):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(["alexander", "--knot", path, "--name", name])
                except SystemExit as e:  # argparse rejected the arguments
                    code = e.code
            return code, out.getvalue(), err.getvalue()

        cycle.append(
            Op(f"{i}|{name}", label, run, data=dict(records=len(records), expected=target["expected"]))
        )

    def check(op, out):
        a0, higher = op.data["expected"]
        want = ("0", f"{SymLaurentPoly(a0, higher)}\n", "")
        return None if out == want else f"cli output {out} != expected {want}"

    return Plan(
        cycle,
        output=lambda op, raw: tuple(map(str, raw)),
        rows=lambda op, raw: op.data["records"],
        check=check,
        reference=load_reference("ingest"),
        close=tmp.cleanup,
    )


PLANS = {
    "sweep": sweep_plan,
    "large_p": large_p_plan,
    "invariants": invariants_plan,
    "ingest": ingest_plan,
}


def build(name: str, seed: int, workdir: Path) -> Plan:
    return PLANS[name](seed, workdir)
