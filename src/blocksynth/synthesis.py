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
affine column frame, and every read maps through that frame: the census
and the end-of-stage strip take whole arrays (``_Engine.pos`` and
``entries``), the selectors the unallocated pairs
(``_Engine.pairs_from``).  When a stage ends its ``Gate``s are built at the
input width (lines keep their numbers; the stripped lines are the trailing
ones), and ``_Engine.strip`` drops the identity last line.  Width 2 is
finished from a precomputed optimal table, width 1 with at most one X,
both on the same engine, which builds each distinct gate once per call.

Pair selection inside the reductions is one branch and bound, ``_suffix``:
candidate pairs are scored by the exact Toffoli-equivalents of their
construction and slide gates plus the best reachable score over the next
positions.  Lookahead searches a per-scale depth ahead; near the end of a
stage (``exhaustive_tail``) the depth runs to the end of the phase, so the
same search solves the tail exactly.  The selections of one phase that
search to its end share a table of the states met below their roots: a
state is the position, the depth left and the unallocated pairs' column
pairs, and pick orders and successive selections often reach the same one.
An entry holds the state's exact cost, or a budget it could not beat; a
child is looked up before it is searched.  The scorer works on plain data:
one (row, column, partner column) triple per unallocated pair.  A node
whose children are searched builds each candidate's conjoin and slide in
closed form (``_pair_gates``): at most four (ones, zeros, target) column
masks, each CX run one triple that targets all its lines, priced by the
conjoining and sliding MCTs alone.  A node whose children are leaves (every
depth-1 selection, and the last position of a tail search) needs only
prices, and at one position a price takes two values: the slide's, the same
for every candidate, plus the conjoin's unless the pair is a block.  So
``_price_leaves`` prices the candidates in the pass that filters them, with
no masks and no sort.  The scorer never copies the engine or builds a
``Gate``; the engine emits the chosen pair gate by gate, from
``reduction``'s gate builders.  The search's root collects every candidate
that reaches the best total, and the census of its state: the phase's
blocks and a histogram of the candidates by slot gap.  Ties go to the pair
that leaves the most free blocks, a count read off that census without
running any candidate's masks (``_count_free``).

Each stage's Toffoli count, less what its region lifts and mix repair
gates cost, is checked against ``bounds(w).per_reduction_total``, and its
preprocessing pass, less its lifts, against ``preprocessing_bound(w)``.
Adjacent identical gates are cancelled (``peephole``), and the result is
always verified against the input before being returned.  A failure of
either check is an ``InternalError``, not a user error.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

from .conditioning import _mix_engine, _run_preprocess
from .core import (
    Gate,
    GateSequence,
    InternalError,
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
    _Engine,
    _pair_split,
    _region_mask,
    _run_general,
    _run_normal,
    bounds,
    preprocessing_bound,
)


@dataclass(frozen=True)
class SynthesisConfig:
    """Tuning knobs for ``synthesize``.

    ``depths`` maps j to the lookahead depth used while the remaining row
    count r of the current phase satisfies 2^(j-1) < r <= 2^j (that is,
    j = (r-1).bit_length(), so 1 <= j <= MAX_WIDTH); missing entries default
    to depth 1, and depth 0 reproduces the plain scan-order selection.
    ``exhaustive_tail`` switches the last positions of a stage to exact
    branch-and-bound (0 disables).  ``depths`` is kept as a read-only copy,
    so the caller's dict can change without getting past the checks below.
    """

    depths: Optional[Mapping[int, int]] = None
    exhaustive_tail: int = 9

    def __post_init__(self) -> None:
        if self.depths is not None:
            object.__setattr__(self, "depths", MappingProxyType(dict(self.depths)))
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

    def __reduce__(self):
        # A mappingproxy does not pickle; ``bench --jobs`` sends configs to
        # worker processes.
        depths = None if self.depths is None else dict(self.depths)
        return SynthesisConfig, (depths, self.exhaustive_tail)

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


# ``_pair_gates`` builds one candidate's masks and price; it runs once per
# candidate of a node whose children are searched.  ``_suffix`` runs once
# per search node, and prices a node whose children are leaves in its
# filtering pass (``_price_leaves``).  ``_count_free`` runs once per tied
# candidate and reads no masks.  So a profile or trace of these module
# attributes counts the search.

# (even row r, column of r, column of r + 1), one per unallocated pair.
Pairs = list[tuple[int, int, int]]
# (smaller-column row, partner, smaller column, larger column).
Cand = tuple[int, int, int, int]


def _pair_gates(n: int, i: int, ca: int, cb: int) -> tuple[list[Masks], int]:
    """Conjoin-plus-slide of the in-region pair at columns (ca, cb), as at
    most four mask triples, and its Toffoli cost.

    The triples move every column as ``reduction._cons_masks`` and
    ``_alloc_masks`` do, with each CX run folded into one triple whose
    target holds all the run's lines (a run wrapped in X on its control is
    the run with that control negative).  Only the conjoining and sliding
    MCTs cost anything.  The conjoining MCT moves only the odd member, so
    the slot is the even member's column after the run, shifted right.
    """
    masks: list[Masks] = []
    cost = 0
    gamma = ca ^ cb
    even = cb if ca & 1 else ca
    if gamma != 1:
        t = 1 << gamma.bit_length() >> 1  # the top line the columns differ on
        run = gamma & (t - 2)
        if run:
            masks.append((0, t, run) if 2 * i & t else (t, 0, run))
            if (even ^ 2 * i) & t:
                even ^= run
        region = _region_mask(n, i)
        masks.append((region | 1, 0, t))
        cost = toffoli_equivalents(region.bit_count() + 1)
    gamma = i ^ (even >> 1)  # slot to position, in block coordinates
    if gamma:
        below = 1 << gamma.bit_length() >> 1
        if gamma ^ below:
            masks.append((below << 1, 0, (gamma ^ below) << 1))
        low = i & (below - 1)
        masks.append((low << 1, 0, below << 1))
        cost += toffoli_equivalents(low.bit_count())
    return masks, cost


def _admissible_from(n: int, pairs: Pairs, i: int, kind: int) -> list[Cand]:
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


class _Root:
    """What a search's root hands ``_lookahead_choose``: the candidates
    whose total equals the best, and the tie-break census of the root's
    state (``_count_free``'s ``blocks`` and ``gaps``)."""

    __slots__ = ("tied", "blocks", "gaps")

    def __init__(self) -> None:
        self.tied: list[Cand] = []
        self.blocks = 0
        self.gaps: Counter[int] = Counter()


def _price_leaves(
    n: int, pairs: Pairs, i: int, kind: int, budget: float, root: Optional[_Root]
) -> Optional[int]:
    """``_suffix`` at a node whose children are leaves: the cheapest
    candidate's price, found in the pass that filters the pairs.

    A candidate's price is ``_pair_gates``' cost, and at one position it
    takes two values: the slide's, plus the conjoin's unless the pair is a
    block.  The conjoin costs the same for every candidate.  So does the
    slide, whose controls are the bits of i below the top bit where i and
    the slot differ.  Every region column starts with the region's m-1
    ones, and 2i either lies past the previous region's first column and
    starts with m-2 ones then a 0, or is the region's first column.  In the
    first case every slot first differs from i on that 0, so the controls
    are i's bits past the prefix.  In the second, i holds no 1 past the
    prefix, and no slide costs anything.  At a root the pass also collects
    the tied candidates and the tie-break census.
    """
    region = _region_mask(n, i)
    conjoin = toffoli_equivalents(region.bit_count() + 1)
    best = math.inf
    tied: list[Cand] = []
    gaps = []
    blocks = 0
    for r, c, p in pairs:
        if c & p & region != region:
            if c ^ p == 1 and c & 1 == kind:
                blocks += 1
            continue
        gamma = c ^ p
        if c & 1 != kind or not gamma & 1:
            continue  # of the other kind, or interrupting
        cost = conjoin
        if gamma == 1:
            blocks += 1
            cost = 0
        gaps.append(gamma >> 1)
        if cost <= best:
            cand = (r, r + 1, c, p) if c < p else (r + 1, r, p, c)
            if cost < best:
                best, tied = cost, [cand]
            else:
                tied.append(cand)
    if root is not None:
        root.blocks, root.gaps = blocks, Counter(gaps)
    if not gaps:
        return 0
    best += toffoli_equivalents((i & ~(region >> 1)).bit_count())  # the slide
    if best >= budget:
        return None
    if root is not None:
        root.tied = tied
    return best


def _suffix(
    n: int,
    pairs: Pairs,
    i: int,
    depth_left: int,
    phase_end: int,
    kind: int,
    budget: float,
    seen: Optional[dict],
    root: Optional[_Root] = None,
) -> Optional[int]:
    """Cheapest total over the next ``depth_left`` positions, or None if the
    incoming budget cannot be beaten.  Runs dry (cost 0) where no admissible
    pair exists — the plain fallback path is not modelled.

    At the root, ``root.tied`` collects every candidate whose total equals
    the best: the budget keeps one unit of slack there, so each candidate
    that can reach the best is costed exactly, whatever the visiting order.
    ``root`` also gets the root state's tie-break census.

    Below the root the answer depends only on the state, so ``seen``, when
    given, keeps one entry per child state searched: (True, its exact
    minimum) or (False, a budget it could not beat).  A child is looked up
    before it is searched, and searched again only when its entry cannot
    decide the new budget.
    """
    if depth_left == 0 or i >= phase_end:
        return 0
    if depth_left == 1 or i + 1 >= phase_end:
        return _price_leaves(n, pairs, i, kind, budget, root)
    cands = _admissible_from(n, pairs, i, kind)
    tied = None
    if root is not None:
        root.blocks = _blocks(pairs, kind)
        root.gaps = Counter((ca ^ cb) >> 1 for _, _, ca, cb in cands)
        tied = root.tied
    if not cands:
        return 0
    scored = []
    for cand in cands:
        masks, c0 = _pair_gates(n, i, cand[2], cand[3])
        scored.append((c0, cand, masks))
    scored.sort(key=lambda t: t[0])
    slack = 0 if tied is None else 1
    best: Optional[int] = None
    for c0, cand, masks in scored:
        if c0 >= budget:
            break
        nxt = _advance(pairs, cand[0] & ~1, masks)
        left = budget - c0
        key = known = None
        if seen is not None:
            # Rows never matter; the even row's column keeps the pair kind.
            key = (i + 1, depth_left - 1, frozenset((c, p) for _, c, p in nxt))
            known = seen.get(key)
        if known is not None and (known[0] or known[1] >= left):
            # An exact cost answers any budget; a bound, any at or below it.
            exact, v = known
            sub = v if exact and v < left else None
        else:
            sub = _suffix(n, nxt, i + 1, depth_left - 1, phase_end, kind, left, seen)
            if key is not None:
                seen[key] = (False, left) if sub is None else (True, sub)
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
    seen: Optional[dict],
) -> Optional[tuple[int, int]]:
    """The pair that ``_suffix`` finds cheapest over the next ``d``
    positions; ties go to the pair leaving the most free blocks, then to
    the lowest rows.  ``seen`` is ``_suffix``'s state table, or None; a
    table stays valid while ``n``, ``kind`` and ``phase_end`` do."""
    root = _Root()
    _suffix(n, pairs, i, d, phase_end, kind, math.inf, seen, root)
    tied = root.tied
    if len(tied) > 1:
        # ``max`` keeps the first of equals, and the sort puts rows in order.
        return max(
            sorted(tied), key=lambda t: _count_free(root.blocks, root.gaps, (t[2] ^ t[3]) >> 1)
        )[:2]
    return tied[0][:2] if tied else None


def _make_selector(engine: _Engine, kind: int, phase_end: int, cfg: SynthesisConfig):
    """The lookahead selector for one phase of a reduction on ``engine``.

    ``kind`` NORMAL selects among in-region normal pairs for the positions
    before ``phase_end`` (a quarter of the columns in a general reduction,
    half in an all-normal one), INVERTED among inverted pairs up to half.
    The selector returns None at depth 0 or when the region holds no
    admissible pair; the reduction then takes its plain scan.

    The selections whose search runs to ``phase_end`` share one ``_suffix``
    state table, dropped with the selector: each such selection's states
    were mostly met by the one before it.  A search of fixed depth meets
    its states at other depths next time, and the few orders that reach
    one state within a search do not repay the keys, so it keeps none.
    """
    n = engine.n
    tail_at = (1 << (n - 1)) - cfg.exhaustive_tail
    seen: dict = {}
    def select(i: int) -> Optional[tuple[int, int]]:
        if i >= tail_at:
            d = phase_end - i
        else:
            d = cfg.depth_for(2 * (phase_end - i))
        if d <= 0:
            return None
        table = seen if d >= phase_end - i else None
        return _lookahead_choose(n, engine.pairs_from(i), i, kind, phase_end, d, table)
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
                mark, lifted = len(engine.gates), engine.lift_toffoli
                _run_preprocess(engine)
                pre_gates = len(engine.gates) - mark
                spent = sum(
                    toffoli_equivalents((ones | zeros).bit_count())
                    for ones, zeros, _ in engine.gates[mark:]
                ) - (engine.lift_toffoli - lifted)
                budget = preprocessing_bound(w)
                if spent > budget:
                    raise InternalError(
                        f"internal error: width-{w} preprocessing spent {spent} Toffolis "
                        f"besides its lifts, over its budget of {budget}"
                    )
            mark = len(engine.gates)
            _run_general(
                engine,
                _make_selector(engine, NORMAL, pairs // 2, cfg),
                _make_selector(engine, INVERTED, pairs, cfg),
            )
            red_gates = len(engine.gates) - mark
        stage_seq = engine.sequence()
        stage = StageStats(
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
        # Region lifts and mix repair gates (each fully controlled) are the
        # logged deviations from the analysis behind the budget.
        spent = stage.toffoli - stage.lift_toffoli - mix_fix * toffoli_equivalents(w - 1)
        if spent > stage.bound:
            raise InternalError(
                f"internal error: the width-{w} stage spent {spent} Toffolis besides "
                f"its lifts and mix repairs, over its budget of {stage.bound}"
            )
        stages.append(stage)
        out.extend(stage_seq)
        engine.strip()

    if engine.n == 2:
        engine.emit(*(g.masks() for g in search_two_bit(engine.snapshot())))
    elif engine.row(0):
        engine.emit((0, 0, 1))
    out.extend(engine.sequence())

    seq = peephole(GateSequence(n0, tuple(out)))
    if not verify_identity(perm, seq):
        raise InternalError(
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
