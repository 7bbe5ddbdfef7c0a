#!/usr/bin/env python3
"""Print a digest of the circuits blocksynth emits on a fixed corpus.

Each case is one synthesis. Its line gives the case name, the SHA-256 of
the ``.real`` text followed by ``repr(report.stages)``, the Toffoli count
and the gate count. The last line is one SHA-256 over every case line.
Two revisions that print the same last line emit byte-identical circuits
and stage ledgers on the whole corpus.

The corpus is khazad, skipjack and ``sample(w, seed, kind)`` for widths
3-9, seeds 1-3 and both kinds (uniform and parity_aligned). Every map runs
at the default config and at depth 0 with no exhaustive tail; the maps up
to width 8 also run with a 12-position exhaustive tail, where the tail's
search runs deepest. That is 126 syntheses.

Usage: PYTHONPATH=src python3 scripts/circuit_digest.py [--quiet]
"""

from __future__ import annotations

import argparse
import hashlib
from pathlib import Path

from blocksynth import SynthesisConfig, format_real, parse_permutation, sample, synthesize

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"

CONFIGS = {
    "default": SynthesisConfig(),
    "d0t0": SynthesisConfig(depths={j: 0 for j in range(1, 25)}, exhaustive_tail=0),
    "tail12": SynthesisConfig(exhaustive_tail=12),
}
TAIL12_MAX_WIDTH = 8


def corpus():
    """(name, permutation) for each map, in a fixed order."""
    for name in ("khazad", "skipjack"):
        yield name, parse_permutation((BENCH / f"{name}.perm").read_text())
    for kind in ("uniform", "parity_aligned"):
        for width in range(3, 10):
            for seed in (1, 2, 3):
                yield f"sample-{width}-{seed}-{kind}", sample(width, seed, kind)


def cases():
    """(case name, permutation, config) for each synthesis."""
    for name, perm in corpus():
        for label, cfg in CONFIGS.items():
            if label != "tail12" or perm.width <= TAIL12_MAX_WIDTH:
                yield f"{name} {label}", perm, cfg


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quiet", action="store_true", help="print only the combined digest")
    args = parser.parse_args()

    combined = hashlib.sha256()
    count = 0
    for name, perm, cfg in cases():
        seq, report = synthesize(perm, cfg)
        digest = hashlib.sha256((format_real(seq) + repr(report.stages)).encode()).hexdigest()
        line = f"{name}\t{digest}\ttoffoli {report.toffoli_total}\tgates {len(seq)}"
        combined.update(line.encode() + b"\n")
        count += 1
        if not args.quiet:
            print(line)
    print(f"combined {combined.hexdigest()} over {count} syntheses")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
