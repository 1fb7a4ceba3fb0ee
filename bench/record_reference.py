"""Record the reference outputs the benchmark compares against.

Writes ``bench/reference/{sweep,invariants,ingest}.json`` from the package
as it stands.  Run it only on a commit whose outputs are known to be right;
a change that claims a speed-up must leave these files alone.

Usage: python3 bench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import dehnsurg  # noqa: E402

import workloads  # noqa: E402

# The default seed, and one seed kept out of tuning for checking claims.
REFERENCE_SEEDS = (0, 99)


def record_sweep() -> dict:
    records = dehnsurg.load_knots(dehnsurg.bundled_corpus_path())
    pmax, qmax = workloads.SWEEP_BOX
    digests = {r.name: workloads.sha256_lines(dehnsurg.sweep(r, pmax, qmax).csv_lines()) for r in records}
    return {"box": [pmax, qmax], "records": digests}


def record_seeded(name: str, workdir: Path) -> dict:
    seeds = {}
    for seed in REFERENCE_SEEDS:
        plan = workloads.build(name, seed, workdir)
        try:
            values = {}
            for op in plan.cycle:
                plan.reset()
                values[op.key] = list(plan.output(op, op.run()))
        finally:
            plan.close()
        seeds[str(seed)] = values
    return {"seeds": seeds}


def main() -> int:
    out = BENCH_DIR / "reference"
    out.mkdir(exist_ok=True)
    workdir = BENCH_DIR.parent / ".bench_out"
    workdir.mkdir(exist_ok=True)
    workloads.load_reference = lambda name: None
    tables = {
        "sweep": record_sweep(),
        "invariants": record_seeded("invariants", workdir),
        "ingest": record_seeded("ingest", workdir),
    }
    for name, table in tables.items():
        (out / f"{name}.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out / name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
