"""Seeded corpora for the blocksynth benchmark.

A workload is a list of maps.  Each map is described by a ``MapSpec`` made
from the workload name and the run's ``--seed`` alone; ``build`` turns the
specs into ``Permutation`` objects, which are the only thing the program
under test receives.  Uniform and parity-aligned maps come from
``blocksynth.sample`` with a per-map seed drawn from a generator keyed on
(workload, seed), so two run seeds give disjoint corpora rather than
shifted copies of one another.

Why each workload exists is recorded next to its name in BENCHMARK.json;
the comments below say what each one is meant to load.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

SBOXES = ("khazad", "skipjack")

# Default config: depth 1 everywhere, exhaustive_tail=9 (the README default).
DEFAULT = "default"
# Depth 0 at every scale, no exhaustive tail: acceptance criterion 9's
# config, the only one that finishes widths 10-11 in seconds.
D0_TAIL0 = "d0-tail0"

# (width, kind, count, config) per workload.  The S-boxes are added to
# sbox8 separately because they come from files, not from the seed.
_LAYOUT = {
    # The paper's real traffic: 8-bit S-boxes at the README default, where
    # lookahead pair selection does most of the work.
    "sbox8": [(8, "uniform", 4, DEFAULT)],
    # Widths 10-11 at depth 0: no selection search at all, so the gate
    # kernel, emission and preprocessing carry the load.
    "wide_d0": [(11, "uniform", 1, D0_TAIL0), (10, "uniform", 1, D0_TAIL0)],
    # Seconds-long run for the benchmark's own tests; not in BENCHMARK.json.
    "smoke": [(3, "uniform", 6, DEFAULT), (4, "uniform", 4, DEFAULT)],
}

WORKLOADS = tuple(_LAYOUT)


@dataclass(frozen=True)
class MapSpec:
    name: str
    width: int
    kind: str  # "sbox", "uniform" or "parity_aligned"
    seed: int | None  # per-map sample seed; None for the S-box files
    config: str  # DEFAULT or D0_TAIL0


def specs(workload: str, seed: int) -> list[MapSpec]:
    """The corpus of ``workload`` for run seed ``seed``, in run order."""
    if workload not in _LAYOUT:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    out = []
    if workload == "sbox8":
        out = [MapSpec(name, 8, "sbox", None, DEFAULT) for name in SBOXES]
    rng = random.Random(f"blocksynth-bench:{workload}:{seed}")
    for width, kind, count, config in _LAYOUT[workload]:
        for _ in range(count):
            s = rng.getrandbits(32)
            out.append(MapSpec(f"{kind}-{width}-{s}", width, kind, s, config))
    return out


def synthesis_config(bs, config: str):
    if config == DEFAULT:
        return bs.SynthesisConfig()
    if config == D0_TAIL0:
        return bs.SynthesisConfig(
            depths={j: 0 for j in range(1, bs.MAX_WIDTH + 1)}, exhaustive_tail=0
        )
    raise ValueError(f"unknown config {config!r}")


def build(bs, root: Path, workload: str, seed: int) -> list[tuple[MapSpec, object]]:
    """(spec, Permutation) pairs; S-boxes are read from ``root/benchmarks``."""
    out = []
    for spec in specs(workload, seed):
        if spec.kind == "sbox":
            text = (root / "benchmarks" / f"{spec.name}.perm").read_text(encoding="utf-8")
            perm = bs.parse_permutation(text)
        else:
            perm = bs.sample(spec.width, spec.seed, spec.kind)
        out.append((spec, perm))
    return out
