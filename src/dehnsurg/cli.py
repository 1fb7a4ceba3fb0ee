"""Command-line front end: every invariant, corpus ingestion, and reports.

All numeric output is printed as exact fractions, so reports are diffable
and byte-identical across runs.  Exit codes: 0 success, 1 computation
error or exhausted memory, with one error line (for sweep, also a nonzero
inconclusive count on nontrivial records), 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections import Counter
from pathlib import Path

from .dedekind import LensSpace, dedekind_sum, lens_lambda, lens_tau_cg
from .hfcone import cone_rank_oracle, rank_formula
from .knots import SingularValueError, sigma_total
from .obstruction import _CSV_HEADER, INCONCLUSIVE, _csv_field, _csv_text, _sweep_groups, distinguish, full_invariants, load_knots
from .surgery import Slope, casson_gordon_surgered, casson_walker_surgered


def _slope_arg(text: str) -> Slope:
    try:
        return Slope.parse(text)
    except (ValueError, TypeError) as e:
        raise argparse.ArgumentTypeError(f"bad slope {text!r}: {e}")


def _load_record(args):
    records = load_knots(args.knot)
    for record in records:
        if record.name == args.name:
            return record
    known = ", ".join(r.name for r in records)
    raise ValueError(f"no knot named {args.name!r} in {args.knot} (have: {known})")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dehnsurg",
        description="Exact surgery invariants and the cosmetic-surgery obstruction.",
    )
    # Let negative slopes like -1/2 through the option tokenizer; none of
    # our option names starts with a digit.
    slope_like = re.compile(r"^-\d+(/\d+)?$")
    parser._negative_number_matcher = slope_like
    sub = parser.add_subparsers(dest="command", required=True)

    def new_command(name, help_text, run):
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = slope_like
        p.set_defaults(run=run)
        return p

    p = new_command("dedekind", "Dedekind sum s(q,p)", _cmd_dedekind)
    p.add_argument("q", type=int)
    p.add_argument("p", type=int)

    p = new_command("lens", "Casson-Walker and Casson-Gordon values of L(p,q)", _cmd_lens)
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)

    def knot_args(p, slope=False):
        p.add_argument("--knot", required=True, help="JSON corpus file")
        p.add_argument("--name", required=True, help="record name")
        if slope:
            p.add_argument("--slope", required=True, type=_slope_arg, help="p/q or inf")

    p = new_command("alexander", "normalized Alexander polynomial", _cmd_alexander)
    knot_args(p)

    p = new_command("casson-walker", "Casson-Walker invariant of the surgery", _cmd_casson_walker)
    knot_args(p, slope=True)

    p = new_command("casson-gordon", "total Casson-Gordon invariant of the surgery", _cmd_casson_gordon)
    knot_args(p, slope=True)
    p.add_argument("--verbose", action="store_true")

    p = new_command("signature", "total Tristram-Levine signature sum sigma(K,m)", _cmd_signature)
    knot_args(p)
    p.add_argument("--m", required=True, type=int)

    p = new_command("hf-rank", "hat-homology rank of the surgered manifold", _cmd_hf_rank)
    knot_args(p, slope=True)
    p.add_argument("--formula", action="store_true", help="closed formula only, without the cone")

    p = new_command("distinguish", "which invariant separates two surgeries", _cmd_distinguish)
    knot_args(p)
    p.add_argument("--slopes", required=True, nargs=2, type=_slope_arg, metavar=("S1", "S2"))
    p.add_argument("--verbose", action="store_true")

    p = new_command("sweep", "distinguish all same-sign slope pairs, write CSV", _cmd_sweep)
    p.add_argument("--knot", required=True)
    p.add_argument("--name", help="restrict to one record")
    p.add_argument("--pmax", required=True, type=int)
    p.add_argument("--qmax", required=True, type=int)
    p.add_argument("--out", required=True, help="CSV output path")
    return parser


def _cmd_dedekind(args) -> int:
    print(dedekind_sum(args.q, args.p))
    return 0


def _cmd_lens(args) -> int:
    lens = LensSpace(args.p, args.q)
    print(f"lambda={lens_lambda(lens)} tau_cg={lens_tau_cg(lens)}")
    return 0


def _cmd_alexander(args) -> int:
    record = _load_record(args)
    print(record.alexander)
    return 0


def _cmd_casson_walker(args) -> int:
    record = _load_record(args)
    print(casson_walker_surgered(record.ambient, record.delta2, args.slope))
    return 0


def _cmd_casson_gordon(args) -> int:
    record = _load_record(args)
    if record.seifert is None:
        raise ValueError(f"{record.name}: Casson-Gordon needs a Seifert matrix")
    slope = args.slope
    if slope.p == 0:
        raise ValueError("0-surgery does not yield a rational homology sphere")
    sigma = sigma_total(record.seifert, abs(slope.p))
    if args.verbose:
        print(f"s({slope.q},{slope.p})={dedekind_sum(slope.q, slope.p)}")
        print(f"sigma(K,{abs(slope.p)})={sigma}")
    print(casson_gordon_surgered(sigma, slope))
    return 0


def _cmd_signature(args) -> int:
    record = _load_record(args)
    if record.seifert is None:
        raise ValueError(f"{record.name}: signatures need a Seifert matrix")
    print(sigma_total(record.seifert, args.m))
    return 0


def _cmd_hf_rank(args) -> int:
    record = _load_record(args)
    if record.hf is None:
        raise ValueError(f"{record.name}: no knot Floer data on file")
    if args.slope.is_infinite:
        raise ValueError("hf-rank needs a finite slope (the infinite surgery has rank 1)")
    if args.formula:
        print(f"formula={rank_formula(record.hf, args.slope)}")
        return 0
    oracle = cone_rank_oracle(record.hf, args.slope)
    formula = rank_formula(record.hf, args.slope)
    print(f"oracle={oracle} formula={formula}")
    if oracle != formula:
        raise ArithmeticError(f"oracle {oracle} != formula {formula}")
    return 0


def _cmd_distinguish(args) -> int:
    record = _load_record(args)
    s1, s2 = args.slopes
    verdict = distinguish(record, s1, s2)
    if args.verbose:
        for s in (s1, s2):
            if not s.is_infinite:
                print(f"s({s.q},{s.p})={dedekind_sum(s.q, s.p)}")
        if record.seifert is not None and not (s1.is_infinite or s2.is_infinite):
            if abs(s1.p) == abs(s2.p):
                try:
                    sigma = sigma_total(record.seifert, abs(s1.p))
                except SingularValueError:
                    sigma = "undefined"
                print(f"sigma(K,{abs(s1.p)})={sigma}")
        for label, s in (("invariants1", s1), ("invariants2", s2)):
            lam, tau, rank = full_invariants(record, s)
            print(f"{label}: lambda={lam} tau_cg={tau} hf_rank={rank}")
    out = f"tag={verdict.tag}"
    if verdict.value1 is not None or verdict.value2 is not None:
        out += f" value1={verdict.value1} value2={verdict.value2}"
    print(out)
    return 0


def _cmd_sweep(args) -> int:
    records = load_knots(args.knot) if args.name is None else [_load_record(args)]
    # Each group's rows go to a file beside --out as one string, each q and
    # witness formatted once, and the file replaces --out only once
    # complete, so an error leaves --out as it was.
    out = Path(args.out)
    tmp = out.with_name(f"{out.name}.{os.getpid()}.tmp")
    counts, rows = Counter(), 0
    f = open(tmp, "x")  # outside the try: a name clash must not remove the other file
    try:
        with f:
            f.write(_CSV_HEADER)
            for name, p, columns in _sweep_groups(records, args.pmax, args.qmax, _csv_field):
                f.write(_csv_text(name, p, *columns))
                tags = columns[2]
                counts.update(tags)
                rows += len(tags)
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    print(f"rows={rows}")
    for tag in sorted(counts):
        print(f"{tag}={counts[tag]}")
    # Only a nontrivial record's all-tie pairs are Inconclusive (_tie_tag).
    if counts[INCONCLUSIVE]:
        print(f"inconclusive on nontrivial records: {counts[INCONCLUSIVE]}", file=sys.stderr)
        return 1
    return 0


_parser: argparse.ArgumentParser | None = None  # built on first use


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, ArithmeticError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
