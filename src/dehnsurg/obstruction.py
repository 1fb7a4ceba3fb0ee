"""Decision procedure: which invariant distinguishes two surgeries on a knot.

Given a knot record and two slopes of the same sign (infinity allowed on
either side), the stages run cheapest first: order of first homology, the
lens-space part of the total Casson-Gordon invariant (the knot signature
term cancels for equal p, so no signatures are computed here),
Casson-Walker when Delta''(1) != 0, and hat-homology rank when knot Floer
data is on file.  The first stage whose values on the two surgeries differ
names the invariant and gives the witnesses; when all tie, the record's
``trivial`` mark decides, with Delta = 1 (_tie_tag).  Negative pairs are
decided as positive pairs on the mirror knot.  ``sweep`` decides every
same-sign pair with equal |p| in a slope box through the same stages: the
Casson-Gordon decisions once per |p| for every record and sign (_groups),
then the later stages on the tied pairs only (_decide); ``dehnsurg sweep``
streams the rows to its CSV, each q and witness formatted once.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter, namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, groupby, islice, repeat
from operator import itemgetter
from pathlib import Path

from ._value import Value, replace
from .dedekind import dedekind_numerator
from .hfcone import KnotFloerData, mirror_of, nu_of, rank_formula
from .knots import SeifertMatrix, SingularValueError, SymLaurentPoly, delta2_at_one, sigma_total
from .surgery import AmbientData, Slope, _casson_gordon, _casson_walker, _casson_walker_at, _numerator

__all__ = [
    "DIFFERENT_HOMOLOGY",
    "BY_CASSON_GORDON",
    "BY_CASSON_WALKER",
    "BY_HF_RANK",
    "UNKNOT_COSMETIC",
    "INCONCLUSIVE",
    "Verdict",
    "KnotRecord",
    "SweepRow",
    "SweepReport",
    "distinguish",
    "sweep",
    "load_knots",
    "mirror_record",
    "full_invariants",
    "bundled_corpus_path",
]

DIFFERENT_HOMOLOGY = "DifferentHomology"
BY_CASSON_GORDON = "DistinguishedByCassonGordon"
BY_CASSON_WALKER = "DistinguishedByCassonWalker"
BY_HF_RANK = "DistinguishedByHFRank"
UNKNOT_COSMETIC = "UnknotCosmetic"
INCONCLUSIVE = "Inconclusive"

# The stages, cheapest first; a verdict from one carries two distinct witnesses.
_STAGES = (DIFFERENT_HOMOLOGY, BY_CASSON_GORDON, BY_CASSON_WALKER, BY_HF_RANK)


class Verdict(Value):
    """Outcome of the obstruction: the distinguishing invariant, with the
    two witnessing values, or a cosmetic/inconclusive signal."""

    _fields = ("tag", "value1", "value2")

    def __init__(self, tag: str, value1: object = None, value2: object = None):
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "value1", value1)
        object.__setattr__(self, "value2", value2)
        if tag in _STAGES and value1 == value2:
            raise ValueError(f"verdict {tag} needs two distinct witnesses")


class KnotRecord(Value):
    """A knot with whatever invariant inputs are on file for it.

    The Alexander polynomial is given, or None: then it and Delta''(1) are
    taken from the Seifert matrix on first read, and a record with neither
    raises ValueError, as does a given one that differs from the Seifert
    matrix's.  Seifert and knot Floer data are optional, as are the tau/nu
    annotations used for cross-checks.  Only Delta = 1 can be marked
    trivial, which __init__ checks by reading Delta."""

    _fields = ("name", "alexander", "seifert", "hf", "ambient", "tau", "nu", "trivial")

    def __init__(
        self,
        name: str,
        alexander: SymLaurentPoly | None,
        seifert: SeifertMatrix | None = None,
        hf: KnotFloerData | None = None,
        ambient: AmbientData = AmbientData(),
        tau: int | None = None,
        nu: int | None = None,
        trivial: bool = False,
    ):
        object.__setattr__(self, "name", name)
        if alexander is not None:
            object.__setattr__(self, "alexander", alexander)
            object.__setattr__(self, "delta2", delta2_at_one(alexander))
        elif seifert is None:
            raise ValueError("need an Alexander polynomial or a Seifert matrix")
        object.__setattr__(self, "seifert", seifert)
        object.__setattr__(self, "hf", hf)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "trivial", trivial)
        if alexander is not None and seifert is not None and alexander != seifert.alexander:
            raise ValueError(
                f"alexander polynomial {alexander} does not match the one "
                f"derived from the Seifert matrix, {seifert.alexander}"
            )
        if trivial and self.alexander.degree:
            raise ValueError(f"'trivial' is true but the Alexander polynomial is {self.alexander}, not 1")

    @cached_property
    def alexander(self) -> SymLaurentPoly:
        return self.seifert.alexander

    @cached_property
    def delta2(self) -> int:
        """Delta''(1), derived: not compared, not shown."""
        return delta2_at_one(self.alexander)


def mirror_record(record: KnotRecord) -> KnotRecord:
    """Record of the mirror knot in the orientation-reversed ambient manifold."""
    return replace(
        record,
        name=f"mirror({record.name})",
        seifert=record.seifert.mirror() if record.seifert is not None else None,
        hf=mirror_of(record.hf) if record.hf is not None else None,
        ambient=record.ambient.negated(),
        tau=-record.tau if record.tau is not None else None,
        nu=None,
    )


def _check_pair(s1: Slope, s2: Slope) -> int:
    """Validate a slope pair and return -1 if it needs mirroring, else +1."""
    if s1 == s2:
        raise ValueError("the two slopes must be distinct")
    if s1.p == 0 or s2.p == 0:
        raise ValueError("0-surgery is not a rational homology sphere; slope 0 rejected")
    # The infinite slope 1/0 takes the sign of the other slope.
    p1 = s2.p if s1.is_infinite else s1.p
    p2 = s1.p if s2.is_infinite else s2.p
    if (p1 > 0) != (p2 > 0):
        raise ValueError("mixed-sign slope pairs are outside the obstruction's hypothesis")
    return 1 if p1 > 0 else -1


def _signed_inputs(record: KnotRecord, sign: int):
    """What _stages reads through the sign: lambda * sign, and the Floer
    data the rank stage ranks, hf or mirror_of(hf), or None where that
    stage does not run."""
    lam, hf = record.ambient.lambda_value, record.hf if record.delta2 == 0 else None
    if sign < 0:
        lam = -lam
        if hf is not None:
            hf = mirror_of(hf)
    return lam, hf


def _hf_rank(hf: KnotFloerData, slope: Slope) -> int:
    """Rank of hat HF of the surgery on slope, by the closed formula: the
    infinite slope (q = 0) returns the ambient integral homology L-space,
    rank 1."""
    return rank_formula(hf, slope) if slope.q else 1


def _stages(record: KnotRecord, slopes, sign: int, us=None):
    """Each stage's tag, integer keys on the given surgeries and a function
    from a surgery's index to its witness, computed when reached.  Keys tie
    exactly when the stage's values do.  The slopes are (p, q) integer
    pairs with p > 0, on the mirror knot when ``sign`` is -1, whose data
    only the stage that needs it reads.  Past the homology stage only
    surgeries with equal p are compared, and for coprime q, p the lens part
    -4p s(q,p) is -U/3 with the integer U = 12p s(q,p), which a caller
    holding it passes in as ``us``.  After a Casson-Gordon tie two
    Casson-Walker values lambda + (U - 12 q Delta''(1))/(12p) differ
    exactly when Delta''(1) != 0, so that stage runs only then, and the
    rank stage, which it would always pre-empt, only otherwise.
    """
    ps = [p for p, _ in slopes]
    yield DIFFERENT_HOMOLOGY, ps, ps.__getitem__
    if us is None:
        us = [dedekind_numerator(q, p)[0] for p, q in slopes]
    yield BY_CASSON_GORDON, us, lambda i: Fraction(-us[i], 3)
    delta2 = record.delta2
    lam, hf = _signed_inputs(record, sign)
    if delta2 != 0:
        yield BY_CASSON_WALKER, *_casson_walker(lam, delta2, slopes, us)
    elif hf is not None:
        ranks = [_hf_rank(hf, Slope(p, q)) for p, q in slopes]
        yield BY_HF_RANK, ranks, ranks.__getitem__


def _tie_tag(record: KnotRecord) -> str:
    """The tag when every stage is tied: UnknotCosmetic only for a record
    marked trivial, so with Delta = 1 (KnotRecord), else Inconclusive.

    No other Delta reaches a tie that the L-space form could decide: an
    alternating form with exponents n_1 < ... < n_k has Delta''(1) =
    2 sum_j (-1)^(k-j) n_j^2 > 0, so the Casson-Walker keys U - 12 q
    Delta''(1) separate every pair left tied by the Casson-Gordon stage
    (acceptance criterion 9).
    """
    return UNKNOT_COSMETIC if record.trivial else INCONCLUSIVE


def distinguish(record: KnotRecord, s1: Slope, s2: Slope) -> Verdict:
    """Find the invariant separating the two surgered manifolds: the first
    stage whose values differ.

    For pairs of negative slopes the question is transported to the mirror
    knot with positive slopes, p/q becoming |p|/q (1/0 is 1/0 at both signs),
    so reported witnesses are the invariants of the mirrored surgeries.
    """
    sign = _check_pair(s1, s2)  # both finite p have this sign
    for tag, keys, witness in _stages(record, ((abs(s1.p), s1.q), (abs(s2.p), s2.q)), sign):
        if keys[0] != keys[1]:
            return Verdict(tag, witness(0), witness(1))
    return Verdict(_tie_tag(record))


def full_invariants(record: KnotRecord, slope: Slope):
    """All computable invariants of one surgered manifold, decision-free.

    Returns (casson_walker, casson_gordon_or_None, hf_rank_or_None), each
    value built as one fraction, or an int for the rank; the Casson-Walker
    value is _casson_walker_at's signed one-slope formula, which the
    stages' p > 0 batch (_casson_walker) states too; the Casson-Gordon
    value needs a Seifert matrix for the signature term, and is None also
    when the Alexander polynomial vanishes at a |p|-th root of unity, where
    sigma(K, |p|) is undefined; the rank needs knot Floer data and comes
    from the closed formula on the given slope, as in the rank stage
    (_hf_rank; the mapping cone runs in ``dehnsurg hf-rank`` and in the
    tests).
    """
    p, q = slope.p, slope.q
    u, den = _numerator(slope)  # one Euclid pass serves both formulas
    lam = _casson_walker_at(record.ambient.lambda_value, record.delta2, p, q, u)
    tau = None
    if record.seifert is not None:
        try:
            tau = _casson_gordon(sigma_total(record.seifert, abs(p)), p, u, den)
        except SingularValueError:
            pass
    rank = _hf_rank(record.hf, slope) if record.hf is not None else None
    return lam, tau, rank


SweepRow = namedtuple("SweepRow", "name p q1 q2 tag witness1 witness2")


class SweepReport(Value):
    _fields = ("rows", "counts", "nontrivial_inconclusive")

    def __init__(self, rows: tuple[SweepRow, ...], counts: dict, nontrivial_inconclusive: int):
        self._set_fields(rows, counts, nontrivial_inconclusive)

    def csv_lines(self) -> list[str]:
        """The report as CSV lines without terminators, header first, as
        ``dehnsurg sweep`` writes them (_csv_text)."""
        text = _CSV_HEADER + "".join(
            _csv_text(name, p, *(map(_csv_field, column) for column in list(zip(*rows))[2:]))
            for (name, p), rows in groupby(self.rows, itemgetter(0, 1))
        )
        return text.split("\n")[:-1]


_CSV_HEADER = ",".join(SweepRow._fields) + "\n"


def _csv_field(value) -> str:
    """A sweep row's field as CSV text: empty for a missing witness (None)."""
    return "" if value is None else str(value)


def _csv_text(name: str, p: int, q1s, q2s, tags, w1s, w2s) -> str:
    """One (record, signed p) group's rows as the csv module writes them,
    each line ending in a newline, from columns of text (_csv_field).  Only
    the name can need quotes, when it holds a comma, a quote or a line
    break; the integers, tags and witnesses never do.  Under a CRLF line
    terminator every Python quotes a carriage return, as 3.13 always does."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerow((name, p))
    head = out.getvalue()[:-2]  # the quoted name and p
    text = "\n".join(map(",".join, zip(repeat(head), q1s, q2s, tags, w1s, w2s)))
    return text + "\n" if text else text


def _groups(p_max: int, q_max: int, fmt):
    """What no record or sign changes, built once per sweep call.  For each
    |p| group, p = 1 .. p_max, of slopes p/q with q <= q_max (1/0 as q = 0):
    its pairs' q1 and q2 columns in combinations order; their Casson-Gordon
    tag, witness1 and witness2 columns, with the tag None and no witnesses
    where the keys U tie; and each tied pair's position and the indices of
    its slopes among the slopes of tied pairs.  Then those slopes, as (p, q)
    pairs, and their keys.  The columns hold fmt(q), fmt(w) and fmt(None).

    U = 12p s(q,p) depends only on q mod p, so one Dedekind sum and one
    witness fmt(-U/3) serve each residue.  The tied pairs are exactly the
    pairs inside one U class.
    """
    groups, slopes, us = [], [], []
    missing = fmt(None)
    for p in range(1, p_max + 1):
        qs = [0] if p == 1 else []
        qs += [q for q in range(1, q_max + 1) if math.gcd(p, q) == 1]
        lens = {}  # q mod p -> U, fmt(-U/3)
        for r in {q % p for q in qs}:
            u = dedekind_numerator(r, p)[0]
            lens[r] = u, fmt(Fraction(-u, 3))
        index = {}  # q -> its slope's index among the slopes of tied pairs
        q1s, q2s, tags, w1s, w2s, tied = [], [], [], [], [], []
        for (q1, f1, (u1, w1)), (q2, f2, (u2, w2)) in combinations([(q, fmt(q), lens[q % p]) for q in qs], 2):
            q1s.append(f1)
            q2s.append(f2)
            if u1 != u2:
                tags.append(BY_CASSON_GORDON)
                w1s.append(w1)
                w2s.append(w2)
            else:
                i = index.setdefault(q1, len(slopes) + len(index))
                tied.append((len(tags), i, index.setdefault(q2, len(slopes) + len(index))))
                tags.append(None)
                w1s.append(missing)
                w2s.append(missing)
        groups.append(((q1s, q2s), (tags, w1s, w2s), tied))
        slopes += [(p, q) for q in index]
        us += [lens[q % p][0] for q in index]
    return groups, slopes, us


def _sign_free(record: KnotRecord) -> bool:
    """Whether _stages gives the record's surgeries the same keys and
    witnesses at both signs: it reads the sign only through _signed_inputs."""
    return _signed_inputs(record, 1) == _signed_inputs(record, -1)


def _decide(record, template, sign, fmt):
    """For each |p| group of the template (_groups), the q1, q2, tag,
    witness1 and witness2 columns of its pairs, each pair decided by its
    first differing stage as in distinguish.  Only the pairs left tied by
    the Casson-Gordon stage run the later stages, in one pass of _stages
    over their slopes (1/0 and 1/1 are always among them), which builds one
    witness fmt(w) per slope and stage.
    """
    groups, slopes, us = template
    indices = range(len(slopes))
    stages = [
        (tag, keys, list(map(fmt, map(w, indices))))
        for tag, keys, w in islice(_stages(record, slopes, sign, us), 2, None)  # after Casson-Gordon
    ]
    tie = _tie_tag(record)
    decided = []
    for qs, cg, tied in groups:
        tags, w1s, w2s = map(list, cg)
        for k, i, j in tied:
            for tag, keys, ws in stages:
                if keys[i] != keys[j]:
                    tags[k], w1s[k], w2s[k] = tag, ws[i], ws[j]
                    break
            else:
                tags[k] = tie
        decided.append((*qs, tags, w1s, w2s))
    return decided


def _sweep_groups(records, p_max: int, q_max: int, fmt):
    """Yield each (record, signed p) group in sweep's order as its name,
    signed p and columns (q1, q2, tag, witness1, witness2).  The columns
    hold fmt(q) and fmt(w), fmt applied once per q of a |p| group and once
    per witness built, and fmt(None) for a missing witness.

    The template (_groups) serves both signs and every record.  Each record
    is decided once per sign, or once when it is sign-free (_sign_free),
    and only its decisions are held.
    """
    if p_max < 1 or q_max < 1:
        raise ValueError("p_max and q_max must be >= 1")
    if isinstance(records, KnotRecord):
        records = [records]
    template = _groups(p_max, q_max, fmt)
    for record in records:
        # Negative slopes are decided as their positive mirrors.
        decided = _decide(record, template, -1, fmt)
        for sign, ps in ((-1, range(p_max, 0, -1)), (1, range(1, p_max + 1))):
            if sign > 0 and not _sign_free(record):
                decided = _decide(record, template, 1, fmt)
            for p in ps:
                yield record.name, sign * p, decided[p - 1]


def sweep(records, p_max: int, q_max: int) -> SweepReport:
    """Decide every same-sign slope pair with equal |p|, as distinguish does.

    Pairs are grouped by the signed surgery coefficient p with 1 <= |p| <=
    p_max and 0 <= q <= q_max; the infinite slope joins the |p| = 1 groups
    with q recorded as 0.  Rows come out in (p, q1, q2) order per record.
    The report collects _sweep_groups, which says what is computed once
    and which ``dehnsurg sweep`` formats and streams instead.  Only a
    nontrivial record's all-tie pairs are Inconclusive (_tie_tag), so their
    count is the count of that tag.
    """
    rows, tags = [], []
    for name, p, columns in _sweep_groups(records, p_max, q_max, lambda w: w):
        # The rows become SweepRows in C, without the Python-level SweepRow.__new__.
        rows += map(tuple.__new__, repeat(SweepRow), zip(repeat(name), repeat(p), *columns))
        tags.append(columns[2])
    counts = dict(Counter(chain.from_iterable(tags)))
    return SweepReport(tuple(rows), counts, counts.get(INCONCLUSIVE, 0))


# ---------------------------------------------------------------------------
# Corpus files.


def bundled_corpus_path() -> Path:
    """Path of the knot corpus shipped with the package."""
    return Path(__file__).parent / "data" / "knots.json"


def _is_int(value) -> bool:
    """A JSON integer; JSON true and false load as Python bools, which are ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_list(value) -> bool:
    """A JSON list of integers."""
    return isinstance(value, list) and all(map(_is_int, value))


def _parse_fraction(value) -> Fraction:
    if isinstance(value, str) or _is_int(value):
        return Fraction(value)
    raise ValueError(f"expected an integer or 'a/b' string, got {value!r}")


_RECORD_KEYS = ("name", "seifert_matrix", "alexander", "hf", "tau", "nu", "lambda_ambient", "ambient", "trivial")
_HF_KEYS = ("g", "a", "v_threshold")


def _record_from_dict(raw: dict, context: str) -> KnotRecord:
    def fail(msg):
        raise ValueError(f"{context}: {msg}")

    def build(prefix, make, *args):
        """make(*args), or one error naming the record, prefix and the reason."""
        try:
            return make(*args)
        except (ValueError, ZeroDivisionError) as e:
            fail(f"{prefix}{e}")

    def refuse_unknown_keys(spec, allowed, prefix):
        for key in spec:  # file order, so the key named does not depend on hash seeds
            if key not in allowed:
                fail(f"{prefix}unknown key {key!r}")

    if not isinstance(raw, dict):
        fail("record must be a JSON object")
    refuse_unknown_keys(raw, _RECORD_KEYS, "")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        fail("missing or empty 'name'")
    seifert = None
    if "seifert_matrix" in raw:
        rows = raw["seifert_matrix"]
        if not isinstance(rows, list) or not all(map(_int_list, rows)):
            fail("bad seifert_matrix: need a list of rows of integers")
        seifert = build("bad seifert_matrix: ", SeifertMatrix, rows)
    alexander = None
    if "alexander" in raw:
        spec = raw["alexander"]
        if not isinstance(spec, dict) or "a0" not in spec:
            fail("bad alexander polynomial: need an object with an 'a0' entry")
        refuse_unknown_keys(spec, ("a0", "a"), "bad alexander polynomial: ")
        a0, higher = spec["a0"], spec.get("a", [])
        if not _is_int(a0) or not _int_list(higher):
            fail("bad alexander polynomial: 'a0' must be an integer and 'a' a list of integers")
        alexander = build("bad alexander polynomial: ", SymLaurentPoly, a0, higher)
    if seifert is None and alexander is None:
        fail("need at least one of 'seifert_matrix' or 'alexander'")
    hf = None
    if "hf" in raw:
        spec = raw["hf"]
        if not isinstance(spec, dict):
            fail("bad hf data: need a JSON object")
        refuse_unknown_keys(spec, _HF_KEYS, "bad hf data: ")
        scalars = [spec[key] for key in ("g", "v_threshold") if key in spec]
        if not all(map(_is_int, scalars)) or not _int_list(spec.get("a", [])):
            fail("bad hf data: 'g' and 'v_threshold' must be integers and 'a' a list of integers")
        missing = [key for key in _HF_KEYS if key not in spec]
        if missing:
            fail(f"bad hf data: hf data missing key {missing[0]!r}")
        hf = build("bad hf data: ", KnotFloerData, *map(spec.get, _HF_KEYS))
    tau = raw.get("tau")
    nu = raw.get("nu")
    for key, value in (("tau", tau), ("nu", nu)):
        if value is not None and not _is_int(value):
            fail(f"'{key}' must be an integer, got {value!r}")
    ambient_name = raw.get("ambient", "S3")
    if not isinstance(ambient_name, str):
        fail(f"'ambient' must be a string, got {ambient_name!r}")
    trivial = raw.get("trivial", False)
    if not isinstance(trivial, bool):
        fail(f"'trivial' must be true or false, got {trivial!r}")
    if hf is not None:
        model_nu = nu_of(hf)
        if nu is not None and nu != model_nu:
            fail(f"declared nu = {nu} but the hf data has nu = {model_nu}")
        if tau is not None and model_nu not in (tau, tau + 1):
            fail(f"nu = {model_nu} violates the bracket {{tau, tau+1}} for tau = {tau}")
    lam = build("bad lambda_ambient: ", _parse_fraction, raw.get("lambda_ambient", 0))
    # lambda is -2 times Casson's integer invariant of the ambient integral
    # homology sphere, so any other value describes no ambient at all.
    if lam.denominator != 1 or lam.numerator % 2:
        fail(f"bad lambda_ambient: need an even integer for an integral homology sphere, got {lam}")
    ambient = AmbientData(lam, ambient_name)
    return build("", KnotRecord, name, alexander, seifert, hf, ambient, tau, nu, trivial)


def load_knots(path) -> list[KnotRecord]:
    """Load and validate a JSON list of knot records."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:  # bad UTF-8 or JSON, or an integer past the interpreter's digit limit
        raise ValueError(f"{path}: not valid JSON: {e}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to load") from None
    if not isinstance(data, list):
        raise ValueError(f"{path}: top level must be a JSON list of records")
    records = []
    seen = set()
    for i, raw in enumerate(data):
        name = raw.get("name", "?") if isinstance(raw, dict) else "?"
        record = _record_from_dict(raw, f"{path}: record {i} ({name})")
        if record.name in seen:
            raise ValueError(f"{path}: duplicate record name {record.name!r}")
        seen.add(record.name)
        records.append(record)
    return records
