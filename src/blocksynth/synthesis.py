"""End-to-end circuit synthesis for arbitrary permutations.

``synthesize`` walks the width down one line at a time on one working copy,
an ``_Engine`` built from the input.  At each stage the pair census of the
current state (``reduction._pair_split``) picks the path: all-normal states
go straight to reduction, and all-inverted ones too after one X on the
last line; an exact half count of interrupting rows goes to preprocessing
then reduction; a balanced normal/inverted split goes to the general
reduction; anything else is first mixed.  An already-reducible state is
all-normal and holds every block, so its stage emits nothing.  The engine
records mask triples and folds the X and CX gates among them into its
affine column frame, so the census and the end-of-stage strip read the
state through ``_Engine.pos`` and ``entries``, which materialize the frame
once, and the selectors through ``_Engine.pairs_from``, which maps the
pairs' columns through it.  When a stage ends its ``Gate``s are built at the
input width (lines keep their numbers; the stripped lines are the trailing
ones), and ``_Engine.strip`` drops the identity last line.  Width 2 is
finished from a precomputed optimal table, width 1 with at most one X,
both on the same engine, which builds each distinct gate once per call.

Pair selection inside the reductions is one branch and bound, ``_suffix``:
candidate pairs are scored by the exact Toffoli-equivalents of their
construction and slide gates plus the best reachable score over the next
positions.  Lookahead searches a per-scale depth ahead; near the end of a
stage (``exhaustive_tail``) the depth runs to the end of the phase, so the
same search solves the tail exactly.  The scorer works on plain data: one
(row, column, partner column) triple per unallocated pair, and each
candidate's gates as the (ones, zeros, target) column masks that
``reduction``'s gate builders produce.  It never copies the engine or
builds a ``Gate``; the engine records the masks of the pair it emits.  The
search's root collects every candidate that reaches the best total; ties
go to the pair that leaves the most free blocks, a count read off the
current blocks and a histogram of the candidates by slot gap, without
running any candidate's masks (``_count_free``).

Adjacent identical gates are cancelled (``peephole``), and the result is
always verified against the input before being returned; a failure is an
internal error, not a user error.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Optional

from .conditioning import _mix_engine, _run_preprocess
from .core import (
    Gate,
    GateSequence,
    MAX_WIDTH,
    Masks,
    Permutation,
    WidthMismatch,
    apply_gate,
    cx,
    verify_identity,
    x,
)
from .cost import DEFAULT_TABLE, quantum_cost, toffoli_count, toffoli_equivalents
from .reduction import (
    INVERTED,
    NORMAL,
    _alloc_masks,
    _cons_masks,
    _Engine,
    _pair_split,
    _region_mask,
    _run_general,
    _run_normal,
    _track,
    bounds,
)


@dataclass(frozen=True)
class SynthesisConfig:
    """Tuning knobs for ``synthesize``.

    ``depths`` maps j to the lookahead depth used while the remaining row
    count r of the current phase satisfies 2^(j-1) < r <= 2^j (that is,
    j = (r-1).bit_length(), so 1 <= j <= MAX_WIDTH); missing entries default
    to depth 1, and depth 0 reproduces the plain scan-order selection.
    ``exhaustive_tail`` switches the last positions of a stage to exact
    branch-and-bound (0 disables).
    """

    depths: Optional[Mapping[int, int]] = None
    exhaustive_tail: int = 9

    def __post_init__(self) -> None:
        depths = self.depths or {}
        checked = [("exhaustive_tail", self.exhaustive_tail)]
        checked += [("lookahead depths", d) for d in depths.values()]
        for what, value in checked:
            # A fractional depth never counts down to 0: its search would
            # run to the end of every phase.
            if type(value) is not int:
                raise ValueError(f"{what} must be of type int, got {value!r}")
            if value < 0:
                raise ValueError(f"{what} must be non-negative, got {value}")
        for j in depths:
            # ``depth_for`` looks buckets up by int: any other key is never read.
            if type(j) is not int:
                raise ValueError(f"lookahead depth buckets must be of type int, got {j!r}")
        stray = sorted(j for j in depths if not 1 <= j <= MAX_WIDTH)
        if stray:
            raise ValueError(
                f"lookahead depth buckets must be within 1..{MAX_WIDTH}, got {stray[0]}"
            )

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
    mix_depth: int  # CX gates in the mixing composite
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


# ``_pair_gates`` builds and costs one candidate's masks; it and ``_suffix``
# run once per scored candidate and search node.  ``_count_free`` runs once
# per tied candidate and reads no masks.  So a profile or trace of these
# module attributes counts the search.

# (even row r, column of r, column of r + 1), one per unallocated pair.
Pairs = list[tuple[int, int, int]]


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
    n: int, pairs: Pairs, i: int, kind: int
) -> list[tuple[int, int, int, int]]:
    """In-region pairs of the phase kind as (smaller-column row, partner,
    their columns), by row."""
    mask = _region_mask(n, i)
    out = []
    for r, ca, cb in pairs:
        if (ca & mask) != mask or (cb & mask) != mask:
            continue
        if ca & 1 != kind or cb & 1 == kind:
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


def _blocks(pairs: Pairs, kind: int) -> int:
    """Blocks of the phase kind among ``pairs``."""
    return sum(1 for _, c, p in pairs if c ^ p == 1 and c & 1 == kind)


def _count_free(blocks: int, gaps: Counter[int], gap: int) -> int:
    """Blocks of the phase kind left once the in-region pair whose slots
    differ by ``gap`` is conjoined and slid, besides that pair itself.

    ``blocks`` counts the phase's blocks now, ``gaps`` the admissible pairs
    by slot gap (``gaps[0]`` are the blocks inside the region).  The only
    gate touching line n is the conjoining MCT, which flips the candidate's
    top differing line on the region's odd columns.  The gates before it
    change every pair's column difference by one invertible linear map, and
    never a region line.  So each block outside the region stays one, each
    block inside it breaks, and each admissible pair with the candidate's
    difference becomes one.
    """
    return blocks - gaps[0] + gaps[gap] - 1


def _suffix(
    n: int,
    pairs: Pairs,
    i: int,
    depth_left: int,
    phase_end: int,
    kind: int,
    budget: float,
    memo: dict,
    tied: Optional[list[tuple[int, int, int, int]]] = None,
) -> Optional[int]:
    """Cheapest total over the next ``depth_left`` positions, or None if the
    incoming budget cannot be beaten.  Runs dry (cost 0) where no admissible
    pair exists — the plain fallback path is not modelled.

    At the root, ``tied`` collects every candidate whose total equals the
    best: the budget keeps one unit of slack there, so each candidate that
    can reach the best is costed exactly, whatever the visiting order.
    """
    if depth_left == 0 or i >= phase_end:
        return 0
    cands = _admissible_from(n, pairs, i, kind)
    if not cands:
        return 0
    scored = []
    for cand in cands:
        masks, c0 = _pair_gates(n, i, cand[2], cand[3], memo)
        scored.append((c0, cand, masks))
    scored.sort(key=lambda t: t[0])
    slack = 0 if tied is None else 1
    best: Optional[int] = None
    for c0, cand, masks in scored:
        if c0 >= budget:
            break
        if depth_left == 1 or i + 1 >= phase_end:
            sub = 0
        else:
            nxt = _advance(pairs, cand[0] & ~1, masks)
            sub = _suffix(
                n, nxt, i + 1, depth_left - 1, phase_end, kind, budget - c0, memo
            )
            if sub is None:
                continue
        total = c0 + sub
        if best is None or total < best:
            best, budget = total, total + slack
            if tied is not None:
                tied.clear()
        if tied is not None:
            tied.append(cand)
    return best


def _lookahead_choose(
    n: int,
    pairs: Pairs,
    i: int,
    kind: int,
    phase_end: int,
    d: int,
) -> Optional[tuple[int, int]]:
    """The pair that ``_suffix`` finds cheapest over the next ``d``
    positions; ties go to the pair leaving the most free blocks, then to
    the lowest rows."""
    tied: list[tuple[int, int, int, int]] = []
    _suffix(n, pairs, i, d, phase_end, kind, math.inf, {}, tied)
    if len(tied) > 1:
        # ``max`` keeps the first of equals, and the sort puts rows in order.
        blocks = _blocks(pairs, kind)
        gaps = Counter((ca ^ cb) >> 1 for _, _, ca, cb in _admissible_from(n, pairs, i, kind))
        return max(sorted(tied), key=lambda t: _count_free(blocks, gaps, (t[2] ^ t[3]) >> 1))[:2]
    return tied[0][:2] if tied else None


def _make_selector(engine: _Engine, kind: int, phase_end: int, cfg: SynthesisConfig):
    """The lookahead selector for one phase of a reduction on ``engine``.

    ``kind`` NORMAL selects among in-region normal pairs for the positions
    before ``phase_end`` (a quarter of the columns in a general reduction,
    half in an all-normal one), INVERTED among inverted pairs up to half.
    The selector returns None at depth 0 or when the region holds no
    admissible pair; the reduction then takes its plain scan.
    """
    n = engine.n
    tail_at = (1 << (n - 1)) - cfg.exhaustive_tail
    def select(i: int) -> Optional[tuple[int, int]]:
        if i >= tail_at:
            d = phase_end - i
        else:
            d = cfg.depth_for(2 * (phase_end - i))
        if d <= 0:
            return None
        return _lookahead_choose(n, engine.pairs_from(i), i, kind, phase_end, d)
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
    engine = _Engine(perm)

    for w in range(n0, 2, -1):
        mix_gates = pre_gates = mix_depth = mix_fix = 0
        pairs = engine.size // 2
        normal, inverted = _pair_split(engine.pos)
        if inverted == pairs:  # X on the last line makes every pair normal
            engine.emit((0, 0, 1))
            normal = pairs
            mix_gates = 1
        if normal == pairs:
            _run_normal(engine, _make_selector(engine, NORMAL, pairs, cfg))
            red_gates = len(engine.gates) - mix_gates
        else:
            if not normal == inverted == pairs // 2:  # not balanced
                if normal + inverted != pairs // 2:  # not half interrupting
                    mstats = _mix_engine(engine)
                    mix_depth, mix_fix = mstats.depth, mstats.fixup_gates
                    mix_gates = len(engine.gates)
                mark = len(engine.gates)
                _run_preprocess(engine)
                pre_gates = len(engine.gates) - mark
            mark = len(engine.gates)
            _run_general(
                engine,
                _make_selector(engine, NORMAL, pairs // 2, cfg),
                _make_selector(engine, INVERTED, pairs, cfg),
            )
            red_gates = len(engine.gates) - mark
        stage_seq = engine.sequence()
        stages.append(
            StageStats(
                width=w,
                mix_gates=mix_gates,
                pre_gates=pre_gates,
                red_gates=red_gates,
                toffoli=toffoli_count(stage_seq),
                bound=bounds(w).per_reduction_total,
                region_lifts=engine.region_lifts,
                mix_depth=mix_depth,
                mix_fixups=mix_fix,
                lift_toffoli=engine.lift_toffoli,
            )
        )
        out.extend(stage_seq)
        engine.strip()

    if engine.n == 2:
        engine.emit(*(g.masks() for g in search_two_bit(engine.snapshot())))
    elif engine.entries[0]:
        engine.emit((0, 0, 1))
    out.extend(engine.sequence())

    seq = peephole(GateSequence(n0, tuple(out)))
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
