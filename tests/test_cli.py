import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

import dehnsurg as ds
from dehnsurg import cli, knots, obstruction
from dehnsurg.cli import main
from test_knots import random_seifert
from test_obstruction import SWEEP_CSV_SHA256

CORPUS = str(ds.bundled_corpus_path())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dedekind(capsys):
    code, out, _ = run(capsys, "dedekind", "1", "3")
    assert code == 0 and out == "1/18\n"


def test_dedekind_huge_p(capsys):
    # s(1,p) = (p-1)(p-2)/(12p)
    code, out, _ = run(capsys, "dedekind", "1", "1000000007")
    assert code == 0 and out == "166666668500000005/2000000014\n"


def test_distinguish_verbose_counts_its_dedekind_sums(capsys, dedekind_calls):
    # Two for the Casson-Gordon keys, two printed s(q,p), and one per
    # slope for the surgered invariants.
    argv = ["distinguish", "--knot", CORPUS, "--name", "trefoil_right", "--slopes", "7/2", "7/3", "--verbose"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "tag=DistinguishedByCassonGordon" in out
    assert len(dedekind_calls) <= 6


def test_dedekind_negative_non_coprime(capsys):
    # s(6,-9) = -s(2,3) = 1/18
    code, out, _ = run(capsys, "dedekind", "6", "-9")
    assert code == 0 and out == "1/18\n"


def test_lens(capsys):
    code, out, _ = run(capsys, "lens", "3", "1")
    assert code == 0 and out == "lambda=1/18 tau_cg=-2/3\n"


def test_alexander(capsys):
    code, out, _ = run(capsys, "alexander", "--knot", CORPUS, "--name", "trefoil_right")
    assert code == 0 and out == "T - 1 + T^-1\n"


def test_alexander_of_a_constant_polynomial(capsys):
    assert run(capsys, "alexander", "--knot", CORPUS, "--name", "unknot") == (0, "1\n", "")


def test_casson_walker(capsys):
    code, out, _ = run(
        capsys, "casson-walker", "--knot", CORPUS, "--name", "trefoil_right", "--slope", "1/1"
    )
    assert code == 0 and out == "-2\n"


def test_casson_walker_infinite_slope(capsys):
    code, out, _ = run(
        capsys, "casson-walker", "--knot", CORPUS, "--name", "trefoil_right", "--slope", "inf"
    )
    assert code == 0 and out == "0\n"


def test_casson_gordon(capsys):
    code, out, _ = run(
        capsys, "casson-gordon", "--knot", CORPUS, "--name", "trefoil_right", "--slope", "2/1"
    )
    assert code == 0 and out == "2\n"


def test_casson_gordon_verbose(capsys):
    code, out, _ = run(
        capsys,
        "casson-gordon",
        "--knot",
        CORPUS,
        "--name",
        "trefoil_right",
        "--slope",
        "2/1",
        "--verbose",
    )
    assert code == 0
    assert out.splitlines() == ["s(1,2)=0", "sigma(K,2)=-2", "2"]


def test_casson_gordon_zero_slope_exits_1(capsys):
    code, out, err = run(
        capsys, "casson-gordon", "--knot", CORPUS, "--name", "trefoil_right", "--slope", "0/1"
    )
    assert code == 1 and out == ""
    assert "0-surgery does not yield a rational homology sphere" in err


def test_signature(capsys):
    code, out, _ = run(capsys, "signature", "--knot", CORPUS, "--name", "trefoil_right", "--m", "3")
    assert code == 0 and out == "-4\n"


def test_signature_singular_exits_1(capsys):
    code, _, err = run(capsys, "signature", "--knot", CORPUS, "--name", "trefoil_right", "--m", "6")
    assert code == 1
    assert "vanishes" in err


@pytest.mark.parametrize(
    "argv, want",
    [
        (("casson-gordon", "--slope", "1009/1"), "-337008\n"),
        (("casson-gordon", "--slope", "1000000007/1"), "-333333335666666666\n"),
        (("signature", "--m", "1000000007"), "-1333333344\n"),
    ],
)
def test_large_order_finishes_in_bounded_time(capsys, clear_caches, argv, want):
    # tau = -4p s(1,p) - sigma = -(p-1)(p-2)/3 - sigma, where sigma(trefoil, p) is
    # -4(p-1)/3 for p = 1 (mod 6) and -4(p+1)/3 for p = 5 (mod 6)
    clear_caches()
    start = time.perf_counter()
    code, out, _ = run(capsys, argv[0], "--knot", CORPUS, "--name", "trefoil_right", *argv[1:])
    elapsed = time.perf_counter() - start
    assert code == 0 and out == want
    assert elapsed < 1.0, elapsed


def test_hf_rank_both(capsys, monkeypatch):
    # With no flag, hf-rank runs the oracle and the formula, and insists
    # they agree: a formula one above the cone is one error line.
    argv = ["hf-rank", "--knot", CORPUS, "--name", "trefoil_right", "--slope", "1/2"]
    assert run(capsys, *argv) == (0, "oracle=3 formula=3\n", "")
    monkeypatch.setattr(cli, "rank_formula", lambda data, slope: cli.cone_rank_oracle(data, slope) + 1)
    assert run(capsys, *argv) == (1, "oracle=3 formula=4\n", "error: oracle 3 != formula 4\n")


def test_hf_rank_single_modes(capsys):
    code, out, _ = run(
        capsys, "hf-rank", "--knot", CORPUS, "--name", "figure_eight", "--slope", "1/1", "--formula"
    )
    assert code == 0 and out == "formula=3\n"


@pytest.mark.parametrize("slope", ["1000000007/1", "1/100003", "-1/100003"])
def test_hf_rank_at_large_slopes_matches_the_formula(capsys, corpus_by_name, slope):
    # The oracle ranks min(|p|, 3q) classes of figure_eight (g = 1), each
    # a forest over O(q + |p|/q) columns; the bitmask cone ran out of
    # memory at 1/100003.
    want = ds.rank_formula(corpus_by_name["figure_eight"].hf, ds.Slope.parse(slope))
    code, out, _ = run(
        capsys, "hf-rank", "--knot", CORPUS, "--name", "figure_eight", "--slope", slope
    )
    assert code == 0 and out == f"oracle={want} formula={want}\n"


def test_out_of_memory_is_one_error_line(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "cone_rank_oracle", exhausted)
    code, out, err = run(
        capsys, "hf-rank", "--knot", CORPUS, "--name", "figure_eight", "--slope", "1/100003"
    )
    assert code == 1 and out == ""
    assert err == "error: out of memory\n"


def test_hf_rank_missing_data(capsys):
    code, _, err = run(
        capsys, "hf-rank", "--knot", CORPUS, "--name", "twist_5_2", "--slope", "1/1"
    )
    assert code == 1 and "no knot Floer data" in err


@pytest.mark.parametrize("mode", [(), ("--formula",)])
def test_hf_rank_at_the_infinite_slope_exits_1(capsys, mode):
    # Neither the cone nor the closed formula takes 1/0, whose surgery is
    # the ambient manifold; one error line says so in both modes.
    argv = ["hf-rank", "--knot", CORPUS, "--name", "figure_eight", "--slope", "inf", *mode]
    want = "error: hf-rank needs a finite slope (the infinite surgery has rank 1)\n"
    assert run(capsys, *argv) == (1, "", want)


_BARE = {"name": "x", "alexander": {"a0": 1}}
_HF = {"g": 1, "a": [1, 1, 1], "v_threshold": 1}


@pytest.mark.parametrize(
    "records, argv, message",
    [
        ([_BARE], ("casson-gordon", "--name", "x", "--slope", "1/1"), "x: Casson-Gordon needs a Seifert matrix"),
        ([_BARE], ("signature", "--name", "x", "--m", "3"), "x: signatures need a Seifert matrix"),
        ([[1, 2]], ("alexander", "--name", "x"), "{path}: record 0 (?): record must be a JSON object"),
        ([{"alexander": {"a0": 1}}], ("alexander", "--name", "x"), "{path}: record 0 (?): missing or empty 'name'"),
        (
            [{"name": "x", "alexander": {"a0": 2}}],
            ("alexander", "--name", "x"),
            "{path}: record 0 (x): bad alexander polynomial: polynomial is not normalized: value at T = 1 must be 1",
        ),
        (
            [{**_BARE, "hf": {**_HF, "a": [1, 1, 2]}}],
            ("alexander", "--name", "x"),
            "{path}: record 0 (x): bad hf data: ranks must be symmetric under s -> -s",
        ),
        (
            [{**_BARE, "hf": {"g": -1, "a": [], "v_threshold": 0}}],
            ("alexander", "--name", "x"),
            "{path}: record 0 (x): bad hf data: truncation degree g must be >= 0",
        ),
        (
            [{"name": "x", "alexander": {"a0": -1, "a": [1]}, "hf": _HF, "nu": 0}],
            ("alexander", "--name", "x"),
            "{path}: record 0 (x): declared nu = 0 but the hf data has nu = 1",
        ),
        (None, ("sweep", "--pmax", "0", "--qmax", "2", "--out", "{out}"), "p_max and q_max must be >= 1"),
        (None, ("signature", "--name", "trefoil_right", "--m", "0"), "need m >= 1"),
    ],
)
def test_error_branches_are_one_line_and_exit_1(tmp_path, capsys, records, argv, message):
    # Each refusal is one error line, with the record's context where
    # there is one, and exit code 1: no traceback, and no file written.
    path = CORPUS
    if records is not None:
        path = str(tmp_path / "k.json")
        Path(path).write_text(json.dumps(records))
    out_csv = tmp_path / "r.csv"
    argv = [arg.format(out=out_csv) for arg in argv]
    got = run(capsys, argv[0], "--knot", path, *argv[1:])
    assert got == (1, "", f"error: {message.format(path=path)}\n")
    assert not out_csv.exists() and len(os.listdir(tmp_path)) == (records is not None)


def test_distinguish(capsys):
    code, out, _ = run(
        capsys,
        "distinguish",
        "--knot",
        CORPUS,
        "--name",
        "trefoil_right",
        "--slopes",
        "1/1",
        "1/2",
    )
    assert code == 0
    assert out == "tag=DistinguishedByCassonWalker value1=-2 value2=-4\n"


def test_distinguish_unknot_cosmetic(capsys):
    code, out, _ = run(
        capsys, "distinguish", "--knot", CORPUS, "--name", "unknot", "--slopes", "5/2", "5/3"
    )
    assert code == 0 and out == "tag=UnknotCosmetic\n"


def test_distinguish_verbose(capsys):
    code, out, _ = run(
        capsys,
        "distinguish",
        "--knot",
        CORPUS,
        "--name",
        "trefoil_right",
        "--slopes",
        "5/1",
        "5/2",
        "--verbose",
    )
    assert code == 0
    lines = out.splitlines()
    assert "s(1,5)=1/5" in lines
    assert "s(2,5)=0" in lines
    assert "sigma(K,5)=-8" in lines
    assert lines[-1].startswith("tag=DistinguishedByCassonGordon")


def test_distinguish_verbose_where_sigma_is_undefined(capsys):
    # The trefoil's Alexander polynomial vanishes at the primitive 6th
    # roots of unity; the decision never needs sigma(K, 6).
    argv = ["distinguish", "--knot", CORPUS, "--name", "trefoil_right", "--slopes", "6/1", "6/5"]
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    code, out, err = run(capsys, *argv, "--verbose")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert "sigma(K,6)=undefined" in lines
    assert lines[-2].startswith("invariants2: ") and "tau_cg=None" in lines[-2]
    assert lines[-1] == plain.strip()


def test_distinguish_verbose_exits_as_plain_distinguish(capsys, corpus):
    # Every same-sign pair with equal |p| <= 12 and q <= 6, as sweep pairs
    # them; on pairs of unequal |p| --verbose adds nothing beyond the
    # per-slope invariants, which test_obstruction covers.
    pairs = 0
    for record in corpus:
        for p in [*range(1, 13), *range(-1, -13, -1)]:
            slopes = [f"{p}/{q}" for q in range(1, 7) if math.gcd(p, q) == 1]
            for pair in combinations(slopes, 2):
                argv = ["distinguish", "--knot", CORPUS, "--name", record.name, "--slopes", *pair]
                assert main([*argv, "--verbose"]) == main(argv), argv
                pairs += 1
        capsys.readouterr()
    assert pairs > 1000


def test_distinguish_verbose_at_large_slopes(capsys, corpus_by_name):
    hf = corpus_by_name["figure_eight"].hf
    argv = ["distinguish", "--knot", CORPUS, "--name", "figure_eight", "--slopes"]
    slopes = ["1000000007/1", "1000000007/2"]
    code, plain, _ = run(capsys, *argv, *slopes)
    assert code == 0
    code, out, _ = run(capsys, *argv, *slopes, "--verbose")
    assert code == 0
    lines = out.splitlines()
    for label, slope in zip(("invariants1", "invariants2"), slopes):
        line = next(line for line in lines if line.startswith(f"{label}: "))
        assert line.endswith(f" hf_rank={ds.rank_formula(hf, ds.Slope.parse(slope))}"), line
    assert lines[-1] == plain.strip()


def test_distinguish_verbose_computes_sigma_once(capsys, clear_caches):
    # Printed once and needed by full_invariants for each slope.
    clear_caches()
    code, out, _ = run(
        capsys,
        "distinguish",
        "--knot",
        CORPUS,
        "--name",
        "trefoil_right",
        "--slopes",
        "5/1",
        "5/2",
        "--verbose",
    )
    assert code == 0 and "sigma(K,5)=-8" in out.splitlines()
    info = knots._sigma_total_cached.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_distinguish_verbose_computes_an_undefined_sigma_once(capsys, clear_caches):
    # Delta(T) = T - 1 + T^-1 vanishes at the primitive 6th roots of unity:
    # the singular outcome is cached as a value is.
    clear_caches()
    code, out, _ = run(
        capsys,
        "distinguish",
        "--knot",
        CORPUS,
        "--name",
        "trefoil_right",
        "--slopes",
        "6/1",
        "6/5",
        "--verbose",
    )
    assert code == 0 and "sigma(K,6)=undefined" in out.splitlines()
    info = knots._sigma_total_cached.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_distinguish_negative_slopes(capsys):
    code, out, _ = run(
        capsys,
        "distinguish",
        "--knot",
        CORPUS,
        "--name",
        "trefoil_right",
        "--slopes",
        "-1/1",
        "-1/2",
    )
    assert code == 0
    assert out == "tag=DistinguishedByCassonWalker value1=-2 value2=-4\n"


def test_distinguish_mixed_sign_exits_1(capsys):
    code, _, err = run(
        capsys,
        "distinguish",
        "--knot",
        CORPUS,
        "--name",
        "trefoil_right",
        "--slopes",
        "-1/1",
        "1/2",
    )
    assert code == 1 and "mixed-sign" in err


def test_deeply_nested_corpus_exits_1(tmp_path, capsys):
    corpus = tmp_path / "deep.json"
    corpus.write_text("[" * 100000)
    code, out, err = run(capsys, "alexander", "--knot", str(corpus), "--name", "x")
    assert code == 1 and out == ""
    assert err == f"error: {corpus}: JSON nested too deeply to load\n"


def test_undecodable_corpus_exits_1(tmp_path, capsys):
    corpus = tmp_path / "latin1.json"
    corpus.write_bytes(b'[{"name": "k\xf6", "alexander": {"a0": 1}}]')
    code, out, err = run(capsys, "alexander", "--knot", str(corpus), "--name", "x")
    assert code == 1 and out == ""
    assert err.startswith(f"error: {corpus}: not valid JSON: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


def test_unknown_name_exits_1(capsys, tmp_path):
    # Every command finds its record through the one lookup, and its one
    # error line names the records on file.
    out_csv = str(tmp_path / "s.csv")
    for argv in (
        ["alexander", "--knot", CORPUS, "--name", "nonesuch"],
        ["sweep", "--knot", CORPUS, "--name", "nonesuch", "--pmax", "2", "--qmax", "2", "--out", out_csv],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith(f"error: no knot named 'nonesuch' in {CORPUS} (have: unknot, "), argv
        assert err.count("\n") == 1, argv
    assert not os.listdir(tmp_path)


def test_usage_error_exits_2(capsys):
    for argv in (
        ["dedekind", "1"],
        ["casson-walker", "--knot", CORPUS, "--name", "unknot", "--slope", "x/y"],
        ["hf-rank", "--knot", CORPUS, "--name", "figure_eight", "--slope", "1/1", "--oracle"],
        ["hf-rank", "--knot", CORPUS, "--name", "figure_eight", "--slope", "1/1", "--both"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        capsys.readouterr()


def test_sweep_cli(tmp_path, capsys):
    out_csv = tmp_path / "report.csv"
    code, out, _ = run(
        capsys,
        "sweep",
        "--knot",
        CORPUS,
        "--name",
        "trefoil_right",
        "--pmax",
        "4",
        "--qmax",
        "4",
        "--out",
        str(out_csv),
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "name,p,q1,q2,tag,witness1,witness2"
    assert "rows=" in out
    # identical second run, byte for byte
    run(capsys, "sweep", "--knot", CORPUS, "--name", "trefoil_right", "--pmax", "4", "--qmax", "4", "--out", str(out_csv) + ".2")
    assert out_csv.read_text() == (tmp_path / "report.csv.2").read_text()


def test_sweep_exit_code_on_inconclusive(tmp_path, capsys):
    # vanishing second derivative, no Floer data, not the alternating form:
    # pairs with equal Dedekind sums stay inconclusive and fail the sweep
    import json

    corpus = tmp_path / "mystery.json"
    corpus.write_text(json.dumps([{"name": "mystery", "alexander": {"a0": 7, "a": [-4, 1]}}]))
    code, out, err = run(
        capsys,
        "sweep",
        "--knot",
        str(corpus),
        "--pmax",
        "3",
        "--qmax",
        "3",
        "--out",
        str(tmp_path / "r.csv"),
    )
    assert code == 1
    assert "inconclusive" in err.lower()


def test_sweep_exits_1_on_a_nontrivial_record_with_alexander_one(tmp_path, capsys):
    # Delta = 1 and nothing else on file: the lens-tied pairs are not
    # cosmetic unless the record is marked trivial.
    corpus = tmp_path / "kt.json"
    corpus.write_text(json.dumps([{"name": "kt", "alexander": {"a0": 1}}]))
    argv = ["sweep", "--knot", str(corpus), "--pmax", "5", "--qmax", "5"]
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "r.csv"))
    assert code == 1 and "inconclusive" in err.lower()
    assert "UnknotCosmetic" not in (tmp_path / "r.csv").read_text()


def test_sweep_rejects_trivial_mark_on_a_nontrivial_alexander(tmp_path, capsys):
    # Marked trivial, its inconclusive rows would not count and sweep would exit 0.
    corpus = tmp_path / "fake.json"
    corpus.write_text(json.dumps([{"name": "x", "alexander": {"a0": 7, "a": [-4, 1]}, "trivial": True}]))
    argv = ["sweep", "--knot", str(corpus), "--pmax", "5", "--qmax", "5"]
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "r.csv"))
    assert code == 1 and out == ""
    assert err == (
        f"error: {corpus}: record 0 (x): 'trivial' is true but the Alexander "
        "polynomial is T^2 - 4T + 7 - 4T^-1 + T^-2, not 1\n"
    )


@pytest.mark.parametrize(
    "field, value",
    [
        ("trivial", "no"),
        ("trivial", 1),
        ("tau", "zz"),
        ("tau", False),
        ("nu", False),
        ("nu", "0"),
        ("nu", 0.0),
        ("alexander", {"a0": True}),
        ("alexander", {"a0": "1"}),
        ("alexander", {"a0": -1, "a": ["1"]}),
        ("alexander", {"a0": -1, "a": [True]}),
        ("alexander", {"a0": 1, "a": "0"}),
        ("alexander", [1]),
        ("ambient", 3),
        ("lambda_ambient", True),
        ("lambda_ambient", "1/0"),
        ("seifert_matrix", [["-1", True], [False, -1]]),
        ("seifert_matrix", [["0", True], [False, 0]]),
        ("seifert_matrix", [[0, 1.0], [0, 0]]),
        ("seifert_matrix", "[[0, 1], [0, 0]]"),
        ("hf", {"g": "1", "a": [1, "1", True], "v_threshold": "1"}),
        ("hf", {"g": 0, "a": [True], "v_threshold": 0}),
        ("hf", {"g": 0, "a": [1], "v_threshold": False}),
        ("hf", [0, [1], 0]),
        ("lambda_ambient", 0.5),
    ],
)
def test_sweep_rejects_mistyped_record_fields(tmp_path, capsys, field, value):
    record = {"name": "k", "alexander": {"a0": 1}, "hf": {"g": 0, "a": [1], "v_threshold": 0}}
    record[field] = value
    corpus = tmp_path / "bad.json"
    corpus.write_text(json.dumps([record]))
    code, out, err = run(
        capsys, "sweep", "--knot", str(corpus), "--pmax", "2", "--qmax", "2", "--out", str(tmp_path / "r.csv")
    )
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {corpus}: record 0 (k): "), err


def _seifert_corpus(tmp_path):
    """Six Seifert records, k0 and k1 also giving their Alexander polynomials."""
    rng = random.Random(28)
    records = [
        {"name": f"k{i}", "seifert_matrix": [list(row) for row in random_seifert(rng, genus).entries]}
        for i, genus in enumerate((1, 2, 1, 3, 2, 1))
    ]
    for record in records[:2]:
        poly = ds.SeifertMatrix(record["seifert_matrix"]).alexander
        record["alexander"] = {"a0": poly.a0, "a": list(poly.higher)}
    path = tmp_path / "six.json"
    path.write_text(json.dumps(records))
    return str(path)


@pytest.mark.parametrize(
    "argv, derived",
    [
        (("alexander", "--name", "k3"), 3),
        (("casson-walker", "--name", "k3", "--slope", "1/2"), 3),
        (("sweep", "--pmax", "2", "--qmax", "2"), 6),
    ],
)
def test_each_record_derives_its_alexander_only_when_read(tmp_path, capsys, monkeypatch, argv, derived):
    # Loading derives the polynomials that k0 and k1 give, to match them;
    # the queried record's is derived when the command reads it, the other
    # three never.  sweep reads every record.
    path = _seifert_corpus(tmp_path)
    calls = []
    original = knots.alexander_from_seifert

    def counting(matrix):
        calls.append(matrix)
        return original(matrix)

    monkeypatch.setattr(knots, "alexander_from_seifert", counting)
    if argv[0] == "sweep":
        argv += ("--out", str(tmp_path / "r.csv"))
    code, _, err = run(capsys, argv[0], "--knot", path, *argv[1:])
    assert code == 0 and err == ""
    assert len(calls) == derived


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"seifert_matrix": [[0, 1], [0, "x"]]}, "bad seifert_matrix: need a list of rows of integers"),
        ({"seifert_matrix": [[0, 1, 0], [0, 0]]}, "bad seifert_matrix: Seifert matrix must be square"),
        (
            {"seifert_matrix": [[0, 1, 0], [0, 0, 0], [0, 0, 0]]},
            "bad seifert_matrix: Seifert matrix must have even size",
        ),
        (
            {"seifert_matrix": [[0, 2], [0, 0]]},
            "bad seifert_matrix: det(A - A^T) = 4, not +-1: not a valid Seifert pairing",
        ),
        (
            {"seifert_matrix": [[-1, 1], [0, -1]], "alexander": {"a0": 3, "a": [-1]}},
            "alexander polynomial -T + 3 - T^-1 does not match the one derived "
            "from the Seifert matrix, T - 1 + T^-1",
        ),
        (
            {"seifert_matrix": [[-1, 1], [0, -1]], "trivial": True},
            "'trivial' is true but the Alexander polynomial is T - 1 + T^-1, not 1",
        ),
    ],
)
def test_loading_validates_every_record_not_only_the_queried_one(tmp_path, capsys, bad, message):
    corpus = tmp_path / "bad.json"
    first = {"name": "first", "seifert_matrix": [[1, 1], [0, -1]]}
    corpus.write_text(json.dumps([first, {"name": "second", **bad}]))
    code, out, err = run(capsys, "alexander", "--knot", str(corpus), "--name", "first")
    assert code == 1 and out == ""
    assert err == f"error: {corpus}: record 1 (second): {message}\n"


@pytest.mark.parametrize("box", sorted(SWEEP_CSV_SHA256))
def test_sweep_cli_writes_the_pinned_bytes(tmp_path, capsys, box):
    out = tmp_path / "r.csv"
    code, _, _ = run(capsys, "sweep", "--knot", CORPUS, "--pmax", str(box), "--qmax", str(box), "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_CSV_SHA256[box]


def test_sweep_cli_agrees_with_the_library(tmp_path, capsys):
    # The CLI streams the rows that sweep() collects; its counts, exit code
    # and bytes must be the report's.  Past the corpus: a nontrivial record
    # with Delta = 1, whose all-tie rows are Inconclusive, and a record in an
    # ambient manifold with lambda = 2, decided at each sign on its own.
    raw = json.loads(Path(CORPUS).read_text())
    trefoil = next(r for r in raw if r["name"] == "trefoil_right")
    raw += [
        {"name": "alexander_one", "alexander": {"a0": 1}},
        {**trefoil, "name": "in_poincare", "ambient": "Sigma(2,3,5)", "lambda_ambient": 2},
    ]
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(raw))
    out = tmp_path / "r.csv"
    code, stdout, err = run(capsys, "sweep", "--knot", str(corpus), "--pmax", "10", "--qmax", "10", "--out", str(out))
    report = ds.sweep(ds.load_knots(corpus), 10, 10)
    assert report.nontrivial_inconclusive > 0 and code == 1
    assert stdout.splitlines() == [f"rows={len(report.rows)}"] + [
        f"{tag}={report.counts[tag]}" for tag in sorted(report.counts)
    ]
    assert err == f"inconclusive on nontrivial records: {report.nontrivial_inconclusive}\n"
    assert out.read_text() == "\n".join(report.csv_lines()) + "\n"
    witnesses = {(row.p, row.q1, row.q2): row.witness1 for row in report.rows if row.name == "in_poincare"}
    assert any(witnesses[-p, q1, q2] != w for (p, q1, q2), w in witnesses.items() if p > 0)


def test_sweep_cli_rows_match_csv_lines_byte_for_byte(tmp_path, capsys):
    # The CLI formats its rows itself, one string per group from text
    # columns; its file must equal csv_lines() and what csv.writer writes
    # for the report's rows.  Past the corpus: names the csv module quotes,
    # a Delta''(1) = 0 record with Floer data (rank-stage rows at both
    # signs), a record in an ambient manifold with lambda = 2 (decided at
    # each sign on its own) and a nontrivial record with Delta = 1 (its
    # Inconclusive rows have empty witnesses).
    raw = json.loads(Path(CORPUS).read_text())
    trefoil = next(r for r in raw if r["name"] == "trefoil_right")
    raw += [
        {**trefoil, "name": "with, comma"},
        {**trefoil, "name": 'with "quotes"'},
        {"name": "rank_stage", "alexander": {"a0": 1}, "hf": {"g": 2, "a": [1, 2, 3, 2, 1], "v_threshold": 1}},
        {**trefoil, "name": "in_poincare", "ambient": "Sigma(2,3,5)", "lambda_ambient": 2},
        {"name": "alexander_one", "alexander": {"a0": 1}},
    ]
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(raw))
    out = tmp_path / "r.csv"
    code, _, _ = run(capsys, "sweep", "--knot", str(corpus), "--pmax", "10", "--qmax", "10", "--out", str(out))
    report = ds.sweep(ds.load_knots(corpus), 10, 10)
    assert code == 1
    written = out.read_bytes()
    assert written == ("\n".join(report.csv_lines()) + "\n").encode()
    oracle = io.StringIO()
    writer = csv.writer(oracle, lineterminator="\n")
    writer.writerow(obstruction.SweepRow._fields)
    writer.writerows(report.rows)
    assert written == oracle.getvalue().encode()
    assert b'\n"with, comma",-10,' in written and b'\n"with ""quotes""",10,' in written
    assert {row.p > 0 for row in report.rows if row.name == "rank_stage" and row.tag == ds.BY_HF_RANK} == {
        True,
        False,
    }
    assert b"\nalexander_one,-1,0,1,Inconclusive,,\n" in written


def test_sweep_cli_quotes_names_with_line_breaks(tmp_path, capsys):
    # A name holding a carriage return or a newline is quoted on every
    # Python version (3.13's bytes), so csv.reader reads each row back as
    # one row, exactly the report's.
    raw = json.loads(Path(CORPUS).read_text())
    trefoil = next(r for r in raw if r["name"] == "trefoil_right")
    names = ["a\rb", "a\r\nb", "a\nb"]
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([{**trefoil, "name": name} for name in names]))
    out = tmp_path / "r.csv"
    code, _, _ = run(capsys, "sweep", "--knot", str(corpus), "--pmax", "4", "--qmax", "4", "--out", str(out))
    report = ds.sweep(ds.load_knots(corpus), 4, 4)
    assert code == 0
    written = out.read_bytes()
    assert written == ("\n".join(report.csv_lines()) + "\n").encode()
    for name in names:
        assert b'\n"' + name.encode() + b'",-4,' in written
    with open(out, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert rows == [list(obstruction.SweepRow._fields)] + [
        ["" if field is None else str(field) for field in row] for row in report.rows
    ]
    assert {row[0] for row in rows[1:]} == set(names)


@pytest.mark.parametrize("old", [None, b"an older report\n"])
def test_sweep_error_leaves_out_as_it_was(tmp_path, capsys, monkeypatch, old):
    stages = obstruction._stages
    calls = []

    def stages_failing_at_the_third_group(*args):
        calls.append(args)
        if len(calls) == 3:
            raise ArithmeticError("injected failure")
        return stages(*args)

    monkeypatch.setattr(obstruction, "_stages", stages_failing_at_the_third_group)
    out = tmp_path / "r.csv"
    if old is not None:
        out.write_bytes(old)
    code, stdout, err = run(capsys, "sweep", "--knot", CORPUS, "--pmax", "5", "--qmax", "5", "--out", str(out))
    assert len(calls) == 3
    assert code == 1 and stdout == "" and err == "error: injected failure\n"
    if old is None:
        assert not out.exists()
    else:
        assert out.read_bytes() == old
    # No partial file is left beside --out either.
    assert os.listdir(tmp_path) == ([] if old is None else ["r.csv"])


def test_sweep_memory_does_not_grow_with_the_box(tmp_path):
    # At (60, 60) the parent design held 820,530 rows and peaked near 274 MB;
    # streamed, the peak is that of a small interpreter.  The wrapper reads
    # the peak RSS of its one child, in kilobytes on Linux and bytes on macOS.
    out = tmp_path / "r.csv"
    wrapper = (
        "import resource, subprocess, sys\n"
        "code = subprocess.call(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
        "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    argv = ["-m", "dehnsurg.cli", "sweep", "--knot", CORPUS, "--pmax", "60", "--qmax", "60", "--out", str(out)]
    src = str(Path(ds.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", wrapper, sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    code, maxrss = map(int, done.stdout.split())
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "8c1bd1aa05e618bc8bbbfaa217bbbf5b2b9d9ac1cd29d5438cb05c3e1bb6962c"
    )
    peak_mb = maxrss / (2**20 if sys.platform == "darwin" else 2**10)
    assert peak_mb < 64, f"peak RSS {peak_mb:.1f} MB"


def test_cone_oracle_memory_does_not_grow_with_q():
    # At 1/300007 the one class ranked has 2.1 million columns, so anything
    # kept per row or column would take over 100 MB; the scan keeps one flag.
    # The peak is read as in test_sweep_memory_does_not_grow_with_the_box.
    wrapper = (
        "import resource, subprocess, sys\n"
        "out = subprocess.run(sys.argv[1:], capture_output=True, text=True).stdout\n"
        "print(out.strip(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    argv = ["-m", "dehnsurg.cli", "hf-rank", "--knot", CORPUS, "--name", "figure_eight", "--slope", "1/300007"]
    src = str(Path(ds.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", wrapper, sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    out, maxrss = done.stdout.rsplit(maxsplit=1)
    assert out == "oracle=600015 formula=600015"
    peak_mb = int(maxrss) / (2**20 if sys.platform == "darwin" else 2**10)
    assert peak_mb < 32, f"peak RSS {peak_mb:.1f} MB"
