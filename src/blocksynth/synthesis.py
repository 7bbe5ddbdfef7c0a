"""End-to-end circuit synthesis for arbitrary permutations.

``synthesize`` walks the width down one line at a time.  At each stage the
current permutation is inspected: already-reducible states cost nothing;
all-normal states go straight to reduction; an exact half count of
interrupting rows goes to preprocessing then reduction; a balanced
normal/inverted split goes to the general reduction; anything else is first
mixed.  Stage gates are widened back to the original width (lines keep
their numbers; the stripped lines are the trailing ones) and concatenated;
widths 1 and 2 are finished from a precomputed optimal table instead.

Pair selection inside the reductions optionally looks ahead: candidate
pairs are scored by the exact Toffoli-equivalents of their construction
and slide gates, plus the best reachable score over the next depth-1
positions; ties go to the pair that leaves the most free blocks.  The
scorer works on plain data: one (row, column, partner column) triple per
unallocated pair, and each candidate's gates as the (ones, zeros, target)
column masks that ``reduction``'s gate builders produce.  It never copies
the engine or builds a ``Gate``; the engine turns the masks into gates only
for the pair it emits.  Near the end of a stage the remaining positions are
solved exactly by branch and bound (``exhaustive_tail``).

The emitted sequence is always verified against the input before being
returned; a failure is an internal error, not a user error.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Literal, Mapping, Optional

from .blocks import classify_positions
from .conditioning import MixConfig, _mix_engine, _run_preprocess
from .core import (
    Gate,
    GateSequence,
    Permutation,
    WidthMismatch,
    apply_gate,
    cx,
    is_reducible,
    reduce_width,
    verify_identity,
    x,
)
from .cost import DEFAULT_TABLE, quantum_cost, toffoli_count, toffoli_equivalents
from .reduction import (
    Masks,
    RelevantPair,
    _alloc_masks,
    _cons_masks,
    _Engine,
    _i_pick_rows,
    _n_pick_rows,
    _region_mask,
    _run_general,
    _run_normal,
    bounds,
)


@dataclass(frozen=True)
class SynthesisConfig:
    """Tuning knobs for ``synthesize``.

    ``depths`` maps j to the lookahead depth used while the remaining row
    count r of the current phase satisfies 2^(j-1) < r <= 2^j (that is,
    j = (r-1).bit_length()); missing entries default to depth 1, and depth 0
    reproduces the plain scan-order selection.  ``exhaustive_tail`` switches
    the last positions of a stage to exact branch-and-bound (0 disables).
    ``post_peephole`` cancels adjacent identical gates in the result.
    """

    depths: Optional[Mapping[int, int]] = None
    exhaustive_tail: int = 9
    mix: MixConfig = field(default_factory=MixConfig)
    post_peephole: bool = True

    def depth_for(self, remaining_rows: int) -> int:
        if remaining_rows <= 0:
            return 0
        j = (remaining_rows - 1).bit_length()
        if self.depths is None:
            return 1
        return self.depths.get(j, 1)


@dataclass(frozen=True)
class StageStats:
    """Per-width accounting of one stage of the pipeline."""

    width: int
    mix_gates: int
    pre_gates: int
    red_gates: int
    toffoli: int
    bound: int  # analytic per-reduction Toffoli budget at this width
    region_lifts: int
    mix_depth: int  # composite length the mixing search applied
    mix_fixups: int  # fully controlled repair gates after the composite
    lift_toffoli: int = 0  # Toffoli-equivalents spent lifting pairs in-region


@dataclass(frozen=True)
class SynthesisReport:
    width: int
    stages: tuple[StageStats, ...]
    gate_count: int
    toffoli_total: int
    quantum_cost_total: int
    bound_total: int
    assumption1_deviations: int
    region_lifts: int
    wall_time_s: float
    cost_table: str
    config: SynthesisConfig
    lift_toffoli: int = 0  # Toffoli-equivalents spent on region lifts


# ---------------------------------------------------------------------------
# Lookahead pair selection.


# ``_pair_gates``, ``_suffix`` and ``_count_free`` run once per scored
# candidate, search node and tied candidate, so a profile or trace of these
# module attributes counts the search.

# (even row r, column of r, column of r + 1), one per unallocated pair.
Pairs = list[tuple[int, int, int]]


def _track(column: int, masks: list[Masks]) -> int:
    for ones, zeros, tmask in masks:
        if column & ones == ones and not column & zeros:
            column ^= tmask
    return column


def _pair_gates(
    n: int, i: int, ca: int, cb: int, memo: dict
) -> tuple[list[Masks], int]:
    """Construction+slide gates for a pair at columns (ca, cb), as masks,
    and their Toffoli cost.

    ``memo`` lives for one selection, whose width is fixed and whose search
    meets the same (i, ca, cb) in many branches.
    """
    key = (i, ca, cb)
    found = memo.get(key)
    if found is None:
        masks = _cons_masks(n, i, ca, cb)
        masks += _alloc_masks(n, i, _track(ca, masks))
        cost = 0
        for ones, zeros, _ in masks:
            cost += toffoli_equivalents((ones | zeros).bit_count())
        found = memo[key] = (masks, cost)
    return found


def _admissible_from(
    n: int, pairs: Pairs, i: int, kind: str
) -> list[tuple[int, int, int, int]]:
    """In-region pairs of the phase kind as (smaller-column row, partner,
    their columns), by row."""
    mask = _region_mask(n, i)
    want = 0 if kind == "normal" else 1  # parity of the even row's column
    out = []
    for r, ca, cb in pairs:
        if (ca & mask) != mask or (cb & mask) != mask:
            continue
        if ca & 1 != want or cb & 1 == want:
            continue
        out.append((r, r + 1, ca, cb) if ca < cb else (r + 1, r, cb, ca))
    out.sort()
    return out


def _advance(pairs: Pairs, skip: int, masks: list[Masks]) -> Pairs:
    """The pairs other than row ``skip``'s, moved by ``masks``."""
    out = []
    for r, c, p in pairs:
        if r == skip:
            continue
        for ones, zeros, tmask in masks:
            if c & ones == ones and not c & zeros:
                c ^= tmask
            if p & ones == ones and not p & zeros:
                p ^= tmask
        out.append((r, c, p))
    return out


def _count_free(pairs: Pairs, masks: list[Masks], skip: int, kind: str) -> int:
    """Blocks of the phase kind among the pairs other than row ``skip``'s
    once ``masks`` have run.

    A gate that neither controls nor targets line n (column bit 0) moves the
    two columns of a block together, so it can neither make nor break one:
    only the masks up to the last one touching line n need to run.
    """
    k = len(masks)
    while k and not (masks[k - 1][0] | masks[k - 1][1] | masks[k - 1][2]) & 1:
        k -= 1
    want = 0 if kind == "normal" else 1
    after = _advance(pairs, skip, masks[:k])
    return sum(1 for _, c, p in after if c ^ p == 1 and c & 1 == want)


def _suffix(
    n: int,
    pairs: Pairs,
    i: int,
    depth_left: int,
    phase_end: int,
    kind: str,
    budget: float,
    memo: dict,
) -> Optional[int]:
    """Cheapest total over the next ``depth_left`` positions, or None if the
    incoming budget cannot be beaten.  Runs dry (cost 0) where no admissible
    pair exists — the plain fallback path is not modelled."""
    if depth_left == 0 or i >= phase_end:
        return 0
    cands = _admissible_from(n, pairs, i, kind)
    if not cands:
        return 0
    scored = []
    for a, _, ca, cb in cands:
        masks, c0 = _pair_gates(n, i, ca, cb, memo)
        scored.append((c0, a, masks))
    scored.sort(key=lambda t: t[0])
    best: Optional[int] = None
    for c0, a, masks in scored:
        if c0 >= budget:
            break
        if depth_left == 1 or i + 1 >= phase_end:
            sub = 0
        else:
            nxt = _advance(pairs, a & ~1, masks)
            sub = _suffix(
                n, nxt, i + 1, depth_left - 1, phase_end, kind, budget - c0, memo
            )
            if sub is None:
                continue
        total = c0 + sub
        if best is None or total < best:
            best = total
            budget = total
        if best == 0:
            break
    return best


def _lookahead_choose(
    n: int,
    pairs: Pairs,
    i: int,
    kind: str,
    phase_end: int,
    d: int,
) -> Optional[tuple[int, int]]:
    cands = _admissible_from(n, pairs, i, kind)
    if not cands or d <= 0:
        return None
    best_total: Optional[int] = None
    tied: list[tuple[int, int, list[Masks]]] = []
    memo: dict = {}
    for a, b, ca, cb in cands:
        masks, c0 = _pair_gates(n, i, ca, cb, memo)
        if d == 1 or i + 1 >= phase_end:
            total = c0
        else:
            if best_total is not None and c0 > best_total:
                continue
            budget = math.inf if best_total is None else best_total - c0 + 1
            nxt = _advance(pairs, a & ~1, masks)
            sub = _suffix(n, nxt, i + 1, d - 1, phase_end, kind, budget, memo)
            if sub is None:
                continue
            total = c0 + sub
        if best_total is None or total < best_total:
            best_total = total
            tied = [(a, b, masks)]
        elif total == best_total:
            tied.append((a, b, masks))
    if len(tied) == 1:
        return tied[0][0], tied[0][1]
    # Ties go to the pair leaving the most free blocks, then the lowest rows.
    best_key = None
    best_pair = None
    for a, b, masks in tied:
        key = (-_count_free(pairs, masks, a & ~1, kind), a, b)
        if best_key is None or key < best_key:
            best_key = key
            best_pair = (a, b)
    return best_pair


def select_with_lookahead(
    perm: Permutation,
    i: int,
    cfg: Optional[SynthesisConfig] = None,
    phase: Literal["normal_part", "inverted_part"] = "normal_part",
) -> RelevantPair:
    """Pick the pair for position i by cost lookahead.

    ``normal_part`` selects among in-region normal pairs for the left-half
    positions (phase ends at a quarter of the columns), ``inverted_part``
    among inverted pairs for the right half.  With depth 0, or when the
    region holds no admissible pair, this degrades to the plain scan-order
    selection (including its out-of-region fallback).
    """
    cfg = cfg or SynthesisConfig()
    engine = _Engine(perm)
    if phase == "normal_part":
        chosen = _make_selector(engine, "normal", perm.size // 4, cfg)(i)
        return RelevantPair(*(chosen or _n_pick_rows(engine, i)))
    chosen = _make_selector(engine, "inverted", perm.size // 2, cfg)(i)
    return RelevantPair(*(chosen or _i_pick_rows(engine, i)))


def _make_selector(engine: _Engine, kind: str, phase_end: int, cfg: SynthesisConfig):
    n = engine.n
    tail_at = (1 << (n - 1)) - cfg.exhaustive_tail
    def select(i: int) -> Optional[tuple[int, int]]:
        if i >= tail_at:
            d = phase_end - i
        else:
            d = cfg.depth_for(2 * (phase_end - i))
        if d <= 0:
            return None
        pos = engine.pos
        pairs = [(r, pos[r], pos[r + 1]) for r in engine.entries[2 * i:] if not r & 1]
        return _lookahead_choose(n, pairs, i, kind, phase_end, d)
    return select


# ---------------------------------------------------------------------------
# Small-width endgame.

_TWO_BIT_TABLE: dict[tuple[int, ...], tuple[Gate, ...]] = {}


def _two_bit_table() -> dict[tuple[int, ...], tuple[Gate, ...]]:
    if not _TWO_BIT_TABLE:
        gens = [x(2, 1), x(2, 2), cx(2, 1, 2), cx(2, 2, 1)]
        start = (0, 1, 2, 3)
        _TWO_BIT_TABLE[start] = ()
        frontier = [start]
        while frontier:
            nxt = []
            for state in frontier:
                for g in gens:
                    reached = apply_gate(Permutation(2, state), g).entries
                    if reached not in _TWO_BIT_TABLE:
                        _TWO_BIT_TABLE[reached] = (g,) + _TWO_BIT_TABLE[state]
                        nxt.append(reached)
            frontier = nxt
    return _TWO_BIT_TABLE


def search_two_bit(perm: Permutation) -> GateSequence:
    """Minimum-length sequence mapping a width-2 permutation to the identity.

    Breadth-first over the 24 width-2 permutations with generator order
    X line 1, X line 2, CX 1->2, CX 2->1; ties resolve to the generator
    discovered first.
    """
    if perm.width != 2:
        raise WidthMismatch(f"two-bit search needs width 2, got {perm.width}")
    return GateSequence(2, _two_bit_table()[perm.entries])


def peephole(seq: GateSequence) -> GateSequence:
    """Cancel adjacent identical gates (every gate is an involution)."""
    stack: list[Gate] = []
    for g in seq:
        if stack and stack[-1] == g:
            stack.pop()
        else:
            stack.append(g)
    return GateSequence(seq.width, tuple(stack))


# ---------------------------------------------------------------------------
# The pipeline.


def synthesize(
    perm: Permutation, cfg: Optional[SynthesisConfig] = None
) -> tuple[GateSequence, SynthesisReport]:
    """Produce a circuit computing ``perm`` (no garbage lines) plus a report.

    The returned sequence maps ``perm`` to the identity when applied to it,
    which by the dual reading means the circuit run on input x outputs
    perm(x).  Verification happens internally before returning.
    """
    cfg = cfg or SynthesisConfig()
    t0 = time.perf_counter()
    n0 = perm.width
    out: list[Gate] = []
    stages: list[StageStats] = []
    current = perm

    for w in range(n0, 2, -1):
        mix_gates = pre_gates = red_gates = 0
        mix_depth = mix_fix = lifts = lift_tof = 0
        stage_seq = GateSequence(w)
        if not is_reducible(current):
            engine = _Engine(current)
            counts = classify_positions(current)
            size, half, quarter = engine.size, engine.size // 2, engine.size // 4
            if counts.normal == size:
                _run_normal(engine, _make_selector(engine, "normal", half, cfg))
                red_gates = len(engine.gates)
            else:
                balanced = counts.interrupting == 0 and counts.normal == half
                if not balanced:
                    if counts.interrupting != half:
                        mstats = _mix_engine(engine, cfg.mix)
                        mix_depth, mix_fix = mstats.depth, mstats.fixup_gates
                        mix_gates = len(engine.gates)
                    mark = len(engine.gates)
                    _run_preprocess(engine)
                    pre_gates = len(engine.gates) - mark
                mark = len(engine.gates)
                _run_general(
                    engine,
                    _make_selector(engine, "normal", quarter, cfg),
                    _make_selector(engine, "inverted", half, cfg),
                )
                red_gates = len(engine.gates) - mark
            lifts = engine.stats.region_lifts
            lift_tof = engine.stats.lift_toffoli
            stage_seq = engine.sequence()
            current = engine.snapshot()
        stages.append(
            StageStats(
                width=w,
                mix_gates=mix_gates,
                pre_gates=pre_gates,
                red_gates=red_gates,
                toffoli=toffoli_count(stage_seq),
                bound=bounds(w).per_reduction_total,
                region_lifts=lifts,
                mix_depth=mix_depth,
                mix_fixups=mix_fix,
                lift_toffoli=lift_tof,
            )
        )
        out.extend(g.widen(n0) for g in stage_seq)
        current = reduce_width(current)

    if n0 >= 2:
        out.extend(g.widen(n0) for g in search_two_bit(current))
    elif not current.is_identity():
        out.append(x(1, 1))

    seq = GateSequence(n0, tuple(out))
    if cfg.post_peephole:
        seq = peephole(seq)
    if not verify_identity(perm, seq):
        raise RuntimeError(
            "internal error: synthesized circuit does not realize the input"
        )
    report = SynthesisReport(
        width=n0,
        stages=tuple(stages),
        gate_count=len(seq),
        toffoli_total=toffoli_count(seq),
        quantum_cost_total=quantum_cost(seq, DEFAULT_TABLE),
        bound_total=sum(s.bound for s in stages),
        assumption1_deviations=sum(s.mix_fixups for s in stages),
        region_lifts=sum(s.region_lifts for s in stages),
        wall_time_s=time.perf_counter() - t0,
        cost_table=DEFAULT_TABLE.name,
        config=cfg,
        lift_toffoli=sum(s.lift_toffoli for s in stages),
    )
    return seq, report
