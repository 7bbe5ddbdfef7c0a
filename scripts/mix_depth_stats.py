#!/usr/bin/env python3
"""Measure how hard the mixing pass works on random permutations.

For seeded uniform samples at one width, reports the distribution of
composite depths (CX gates emitted) and how often fully controlled repair
gates were required.  Both passes check their own postconditions (the
interrupting-row target after mixing, an exact balance after the follow-up
balancing pass) and raise if one fails, so a run that finishes confirms
them for every sample.

Usage: python3 scripts/mix_depth_stats.py [--width 8] [--samples 500] [--seed 0]
"""

from __future__ import annotations

import argparse
from collections import Counter

from blocksynth import sample
from blocksynth.conditioning import _mix_engine, _run_preprocess
from blocksynth.reduction import _Engine


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--width", type=int, default=8)
    parser.add_argument("--samples", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    depth_hist: Counter[int] = Counter()
    exact = with_fixups = 0
    total_fixup_gates = 0
    for k in range(args.samples):
        perm = sample(args.width, seed=args.seed + k)
        engine = _Engine(perm)
        stats = _mix_engine(engine)
        depth_hist[stats.depth] += 1
        exact += stats.fixup_gates == 0
        with_fixups += stats.fixup_gates > 0
        total_fixup_gates += stats.fixup_gates
        _run_preprocess(engine)

    n = args.samples
    print(f"width {args.width}, {n} samples")
    print(f"exact composite (no repair gates): {exact}/{n} ({100*exact/n:.1f}%)")
    shallow = sum(v for d, v in depth_hist.items() if d <= 2)
    print(f"composite depth <= 2: {shallow}/{n} ({100*shallow/n:.1f}%)")
    for depth in sorted(depth_hist):
        v = depth_hist[depth]
        print(f"  depth {depth}: {v:>5} ({100*v/n:.1f}%)")
    print(f"samples needing repair gates: {with_fixups} (total {total_fixup_gates} gates)")
    print("mixing and balancing postconditions held for every sample")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
