"""End-to-end circuit synthesis for arbitrary permutations.

``synthesize`` drives the widths and the endgame: it walks the width down
one line at a time on one working copy, an ``_Engine`` built from the
input, and runs one ``_stage`` per width.  In ``_stage`` the pair census
of the current state (``reduction._pair_split``) picks the path:
all-normal states go straight to reduction, and all-inverted ones too
after one X on the last line; an exact half count of interrupting rows
goes to preprocessing then reduction; a balanced normal/inverted split
goes to the general reduction; anything else is first mixed.  An
already-reducible state is all-normal and holds every block, so its stage
emits nothing.  The engine records mask triples and applies them to its
row-indexed bit planes; the census and the end-of-stage strip read the
planes directly, and a selector whose children are searched reads the
unallocated pairs' columns (``_Engine.pairs_from``).  When a stage ends
``_Engine.strip`` drops the identity last line.  The engine records every
gate at the input width (lines keep their numbers; the stripped lines are
the trailing ones), so the whole synthesis is one record.  Width 2 is
finished from a precomputed optimal table, width 1 with at most one X, both
on the same engine, and then its record is built once, each distinct gate
of the width once per process (``_Engine.sequence``).

Pair selection inside the reductions is one branch and bound, ``_suffix``:
candidate pairs are scored by the exact Toffoli-equivalents of their
construction and slide gates plus the best reachable score over the rest
of the phase.  It runs near the end of a stage (``exhaustive_tail``) and
solves that tail exactly; before it a selection looks one position ahead
(depth 1) or not at all (depth 0).  From a search's root
(``_lookahead_choose``, which reads ``_Engine.pairs_from``) to its leaves
a pair is its two columns alone, the even row's first; the root maps its
tied pairs back to rows with ``_Engine.row`` of their first columns.  The
tail's selections in one phase share a table of the states met below their
roots: a state is the position and the unallocated pairs' column pairs,
and pick orders and successive selections often reach the same one.  An
entry holds the state's exact cost, or a budget it could not beat; a
child is looked up before it is searched.  A node whose children are
searched builds each candidate's conjoin and slide in closed form
(``reduction._pair_gates``): at most four (ones, zeros, target) column
masks, each CX run one triple that targets all its lines, priced by the
conjoining and sliding MCTs alone.  Every selection of a width shares
one memo of those, keyed by position and columns, that lives as long as
the process (``_PRICES``).  A node whose children
are leaves (every depth-1 selection, and the last position of a tail
search) needs only prices, and at one position a price takes two values:
the slide's, the same for every candidate, plus the conjoin's unless the
pair is a block.  So such a node is priced in the pass that filters its
pairs, with no masks and no sort (``_price_leaves``).  Such a root
(``_choose_leaf``) reads the engine's planes instead of a pair list: the
candidates and the blocks among them are row masks, and where a block is
cheapest the pick is the block at the lowest row.  Otherwise its
candidates all tie.  Every search in a phase that ends at 2^(n-1), a
reduction's final phase, is also bounded: every position left pays its
slide, and a conjoin is due unless every pair left is a block
(``_floor``).  That bound holds only if no node runs dry, which every
state of that phase guarantees (see ``_make_selector``).  The scorer never
copies the engine or builds a ``Gate``; the engine emits the chosen pair's
triples from the same ``_pair_gates``, one gate per target line.  A
selector returns a pick at every position: where its root finds no
admissible pair in the region, or at depth 0 before the tail, it takes
the plain pick (``reduction._pick_rows``).

Every root breaks a tie one way (``_rank_ties``), on the engine's planes:
the planes of the pairs' column differences split the candidates' even
rows into groups by slot gap, and the tie goes to the pair that leaves
the most free blocks, the size of its group (``_count_free``), then to
the lowest rows.  No candidate's masks run.  A leaf root ranks all its
candidates; a searched root (``_lookahead_choose``) maps ``_suffix``'s
tied column pairs back to their rows and ranks only the groups holding
one, unless a single pair ties.

``_stage`` reads the stage's gate ledger (``StageStats``) as the growth of
the engine's running totals since the stage began, and checks its Toffoli
count, less what its region lifts and mix repair gates cost, against
``bounds(w).per_reduction_total``, and its preprocessing pass, less its
lifts, against ``preprocessing_bound(w)``.
Adjacent identical gates are cancelled (``peephole``), and the result is
always verified against the input before being returned.  A failure of
either check is an ``InternalError``, not a user error.
"""

from __future__ import annotations

import math
import time
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
    Selector,
    _conjoin,
    _Engine,
    _pair_gates,
    _pair_split,
    _pick_rows,
    _region_mask,
    _run_general,
    _run_normal,
    bounds,
    preprocessing_bound,
)


@dataclass(frozen=True)
class SynthesisConfig:
    """Tuning knobs for ``synthesize``.

    ``depths`` maps j to the lookahead depth, 0 or 1, used while the
    remaining row count r of the current phase satisfies 2^(j-1) < r <= 2^j
    (that is, j = (r-1).bit_length(), so 1 <= j <= MAX_WIDTH); missing
    entries default to depth 1, and depth 0 reproduces the plain
    scan-order selection.  ``exhaustive_tail`` switches the last positions
    of a stage to exact branch-and-bound (0 disables).  ``depths`` is kept
    as a read-only copy, so the caller's dict can change without getting
    past the checks below.
    """

    depths: Optional[Mapping[int, int]] = None
    exhaustive_tail: int = 9

    def __post_init__(self) -> None:
        if self.depths is not None:
            object.__setattr__(self, "depths", MappingProxyType(dict(self.depths)))
        depths = self.depths or {}
        tail = self.exhaustive_tail
        if type(tail) is not int:
            raise ValueError(f"exhaustive_tail must be of type int, got {tail!r}")
        if tail < 0:
            raise ValueError(f"exhaustive_tail must be non-negative, got {tail}")
        for d in depths.values():
            if type(d) is not int or d not in (0, 1):
                raise ValueError(f"lookahead depths must be 0 or 1, got {d!r}")
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


# ``_pair_gates`` builds one candidate's masks and price; the width's memo
# calls it once per distinct (position, columns) that a node whose children
# are searched meets, in the whole process.  ``_suffix`` runs once per
# search node but a root whose children are leaves, which ``_choose_leaf``
# answers from the planes; it prices a node whose children are leaves in
# its filtering pass (``_price_leaves``).  ``_count_free`` runs once per
# root that ranks a tie, leaf or searched, and reads no masks.  The search
# looks these up in this module's globals, and ``_Engine.allocate`` its
# ``_pair_gates`` in ``reduction``'s.  So a profile or trace of these
# module attributes counts the search alone.

# (column of the even row, column of the odd row), one per unallocated
# pair: rows never matter below a search's root, and at the root the even
# row is the row at the first column.
Cols = list[tuple[int, int]]
# For each position j from a search's root on: the slides of positions j
# up to the phase end together, and j's conjoin (``_floor``).
Floor = dict[int, tuple[int, int]]
# ``_pair_gates``' answers by width, then by (position, even row's column,
# odd row's column).  Each is a pure function of its keys and all tuples,
# so every selector of a width shares one memo for the life of the
# process (uniform width-8 maps at the default config: 443 entries over all
# widths after one map, 875 after 400).
_PRICES: dict[int, dict[tuple[int, int, int], tuple[tuple[Masks, ...], int]]] = {}


def _advance(cols: Cols, skip: tuple[int, int], masks: tuple[Masks, ...]) -> Cols:
    """The pairs other than ``skip``, moved by ``masks``."""
    out = []
    for pair in cols:
        if pair == skip:
            continue
        c, p = pair
        for ones, zeros, tmask in masks:
            if c & ones == ones and not c & zeros:
                c ^= tmask
            if p & ones == ones and not p & zeros:
                p ^= tmask
        out.append((c, p))
    return out


def _count_free(groups: list[int]) -> list[int]:
    """The tie-break rank of each group of a root's candidates, split by
    slot gap (masks of their even rows): the blocks of the phase kind that a
    member leaves once conjoined and slid, less a constant of the node.

    That rank is the group's size.  The only gate touching line n is the
    conjoining MCT, which flips the candidate's top differing line on the
    region's odd columns.  The gates before it change every pair's column
    difference by one invertible linear map, and never a region line.  So
    each block outside the region stays one, each block inside it breaks,
    and each admissible pair with the candidate's slot gap becomes one.  Of
    B blocks of the phase kind, B - Z + G - 1 are left besides the pair
    itself, where Z counts the blocks inside the region (the group at gap
    0) and G the candidate's group; only G depends on the candidate.
    """
    return list(map(int.bit_count, groups))


def _slide(n: int, i: int) -> int:
    """What the slide to position i costs every in-region candidate (see
    ``_price_leaves``)."""
    return toffoli_equivalents((i & ~(_region_mask(n, i) >> 1)).bit_count())


def _floor(n: int, start: int, end: int) -> Floor:
    """For each position j in ``start``..``end - 1``: the slides of
    positions j..end-1 together, and j's conjoin.

    At one position every in-region candidate pays the same slide (see
    ``_price_leaves``).  The conjoin's controls are the region's lines plus
    line n, and the region mask only grows with the position, so a conjoin
    never gets cheaper later in a phase.
    """
    out = {}
    slides = 0
    for j in range(end - 1, start - 1, -1):
        slides += _slide(n, j)
        out[j] = (slides, _conjoin(n, j))
    return out


def _price_leaves(n: int, cols: Cols, i: int, kind: int, budget: float) -> Optional[int]:
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
    prefix, and no slide costs anything.  So the pass stops at the first
    in-region block.
    """
    region = _region_mask(n, i)
    block = None  # stays None while no pair is admissible
    for c, p in cols:
        if c & p & region == region and c & 1 == kind and (c ^ p) & 1:
            block = c ^ p == 1
            if block:
                break
    if block is None:
        return 0
    best = _slide(n, i)
    if not block:
        best += _conjoin(n, i)
    return None if best >= budget else best


def _suffix(
    n: int,
    cols: Cols,
    i: int,
    phase_end: int,
    kind: int,
    budget: float,
    seen: dict,
    gates: dict,
    floor: Optional[Floor] = None,
    tied: Optional[Cols] = None,
) -> Optional[int]:
    """Cheapest total over positions i..``phase_end`` - 1, or None if the
    incoming budget cannot be beaten.  Runs dry (cost 0) where no admissible
    pair exists: the plain pick's lift is not modelled.  ``gates`` holds
    ``_pair_gates``' answers by (position, columns).

    At a root whose children are searched, ``tied`` collects every pair
    whose total equals the best, for ``_rank_ties``: the budget keeps one
    unit of slack there, so each candidate that can reach the best is
    costed exactly, whatever the visiting order.

    Below the root the answer depends only on the state, the position and
    the pairs' columns, so ``seen`` keeps one entry per child state
    searched: (True, its exact minimum) or (False, a budget it could not
    beat).  A child is looked up before it is searched, and searched again
    only when its entry cannot decide the new budget.

    ``floor`` (``_floor`` of the phase) is given only to a search that runs
    to the end of a phase ending at 2^(n-1), a reduction's final phase,
    where no node runs dry (see ``_make_selector``).  There every child's
    positions all get a pair: it pays their slides, and unless every pair
    it holds is a block, a conjoin no cheaper than its first position's,
    since only a conjoin makes a block (each CX run keeps column
    difference 1, and the slide's controls lie strictly between line n and
    its target).  Every child holds a pair that is not a block, whichever
    candidate it took, when some pair besides the candidates is not one, or
    when the candidates differ in their column difference: a conjoin turns
    exactly the candidates with its difference into blocks and breaks
    those already in the region (see ``_count_free``).  A child whose bound
    reaches its budget would fail it, so it is not searched.
    """
    if i + 1 >= phase_end:
        return _price_leaves(n, cols, i, kind, budget)
    region = _region_mask(n, i)
    scored = []
    gammas = set()
    loose = False  # some pair besides the candidates is not a block
    for pair in cols:
        c, p = pair
        gamma = c ^ p
        if c & p & region != region or c & 1 != kind or not gamma & 1:
            loose = loose or gamma != 1
            continue
        gammas.add(gamma)
        key = (i, c, p)
        priced = gates.get(key)
        if priced is None:
            priced = gates[key] = _pair_gates(n, i, c, p)
        scored.append((priced[1], pair, priced[0]))
    if not scored:
        return 0
    scored.sort(key=lambda t: t[0])
    bound = 0
    if floor is not None:
        slides, conjoin = floor[i + 1]
        bound = slides + conjoin if loose or len(gammas) > 1 else slides
    slack = 0 if tied is None else 1
    best: Optional[int] = None
    for c0, pair, masks in scored:
        left = budget - c0
        if left <= bound:
            break  # and so would every dearer candidate
        nxt = _advance(cols, pair, masks)
        key = (i + 1, frozenset(nxt))
        known = seen.get(key)
        if known is not None and (known[0] or known[1] >= left):
            # An exact cost answers any budget; a bound, any at or below it.
            exact, v = known
            sub = v if exact and v < left else None
        else:
            sub = _suffix(n, nxt, i + 1, phase_end, kind, left, seen, gates, floor)
            seen[key] = (False, left) if sub is None else (True, sub)
        if sub is None:
            continue
        total = c0 + sub
        if best is None or total < best:
            best, budget = total, total + slack
            if tied is not None:
                tied.clear()
        if tied is not None:
            tied.append(pair)
    return best


def _rank_ties(engine: _Engine, rows: int, diffs: list[int], tied: int) -> tuple[int, int]:
    """The pick among the ``tied`` rows, a nonempty part of ``rows``, the
    even rows of a root's candidates: the member at the smaller column
    first, of the pair that leaves the most free blocks (``_count_free``),
    then of the lowest even row r (the smaller-column row is r or r + 1, so
    rows sort by r).

    ``diffs`` (``_Engine.differences`` of ``rows``) split ``rows`` into
    groups by slot gap, one AND per group and gap bit, so no column is
    read; only the groups holding a tied row are ranked.  The member at the
    smaller column is the one with a 0 on the top bit the columns differ
    on: bit 0 for a block.
    """
    groups = [rows]
    for d in reversed(diffs):
        split = []
        for g in groups:
            ones = g & d
            if ones and ones != g:
                split += (ones, g ^ ones)
            else:
                split.append(g)
        groups = split
    sizes = _count_free(groups)
    if tied != rows:
        sizes = [size if g & tied else 0 for g, size in zip(groups, sizes)]
        groups = [g & tied for g in groups]
    # The biggest group, then the lowest row: a group's lowest bit.
    top = max(sizes)
    r = min(g & -g for g, size in zip(groups, sizes) if size == top).bit_length() - 1
    b = next((b for b in range(len(diffs), 0, -1) if diffs[b - 1] >> r & 1), 0)
    return (r + 1, r) if engine.q[b] >> r & 1 else (r, r + 1)


def _choose_leaf(engine: _Engine, i: int, kind: int) -> Optional[tuple[int, int]]:
    """The cheapest pair at a root whose children are leaves (depth 1, or
    the last position of a search), read off the engine's planes.

    The slide costs every candidate the same, so the cheapest are the
    blocks, if any, unless the conjoin is free as well, a CX at position 0
    (see ``_price_leaves``).  Blocks tie on their slot gap, so the pick is
    the block at the lowest even row, the member whose row parity is
    ``kind`` first.  Otherwise every candidate ties, and ``_rank_ties``
    picks among all of them.
    """
    rows = engine.kind_pairs(i, kind) & engine.even
    if not rows:
        return None
    diffs = engine.differences(rows)
    if _conjoin(engine.n, i):
        apart = 0
        for d in diffs:
            apart |= d
        blocks = rows ^ rows & apart
        if blocks:
            r = (blocks & -blocks).bit_length() - 1
            return r ^ kind, r ^ kind ^ 1
    return _rank_ties(engine, rows, diffs, rows)


def _lookahead_choose(
    engine: _Engine,
    cols: Cols,
    i: int,
    kind: int,
    phase_end: int,
    seen: dict,
    gates: dict,
    floor: Optional[Floor],
) -> Optional[tuple[int, int]]:
    """The pair that ``_suffix`` finds cheapest over the rest of the phase
    from the engine's state, whose unallocated pairs are ``cols``;
    ``_rank_ties`` breaks a tie.  ``seen``, ``gates`` and ``floor`` are
    ``_suffix``'s; ``seen`` stays valid while the width, ``kind`` and
    ``phase_end`` do, and ``gates`` while the width does.

    This is the root whose children are searched, a tail root with i + 1 <
    ``phase_end``; ``_choose_leaf`` takes the others.  ``_suffix`` searches
    on the pairs' columns alone, and each tied pair's even row is the row
    at its first column.
    """
    tied: Cols = []
    _suffix(engine.n, cols, i, phase_end, kind, math.inf, seen, gates, floor, tied)
    if not tied:
        return None
    if len(tied) == 1:
        c, p = tied[0]
        r = engine.row(c)
        return (r, r + 1) if c < p else (r + 1, r)
    mask = 0
    for c, _ in tied:
        mask |= 1 << engine.row(c)
    rows = engine.kind_pairs(i, kind) & engine.even
    return _rank_ties(engine, rows, engine.differences(rows), mask)


def _make_selector(
    engine: _Engine, kind: int, phase_end: int, cfg: SynthesisConfig
) -> Selector:
    """The selector for one phase of a reduction on ``engine``: it returns
    the pair to allocate at every position it is asked about.

    ``kind`` NORMAL selects among normal pairs for the positions before
    ``phase_end`` (a quarter of the columns in a general reduction, half in
    an all-normal one), INVERTED among inverted pairs up to half.  Before
    the last ``exhaustive_tail`` positions of the stage a selection is a
    leaf root at depth 1 (``_choose_leaf``) or the plain pick at depth 0
    (``_pick_rows``).  In the tail every selection searches to
    ``phase_end``.  A root whose region holds no admissible pair takes the
    plain pick too, which then lifts the best pair outside the region.

    The tail's selections share one ``_suffix`` state table: each one's
    states were mostly met by the one before it, and it is dropped with
    the selector.  Every selector of the width shares one memo of
    ``_pair_gates``, ``_PRICES[n]``, which outlives it.

    A phase ending at 2^(n-1) is its reduction's last, and the phase's
    ``_floor`` bounds each of its searches.  The selector's precondition,
    under which that bound is exact, is that ``engine`` holds the
    reduction's state at each position i asked for.  There every pair left
    is of ``kind`` (no gate before the closing CX targets line n, so no
    pair changes kind), and the blocks below position i hold the columns
    below 2i, so the pairs left hold exactly the columns from 2i on.  Then
    no node of a search from i runs dry.  Position i's region holds 2^k of
    the 2^n - 2i columns left, where 2^n - 2i < 2^(k+1).  So the columns
    outside it are fewer than the pairs left, and some pair lies wholly
    inside it: an admissible pair.  No gate a candidate emits targets line
    n, so every pair keeps its kind; and the gates keep the columns below
    2i among themselves, so a child's pairs hold exactly the columns from
    2i + 2 on.
    """
    n = engine.n
    tail_at = (1 << (n - 1)) - cfg.exhaustive_tail
    seen: dict = {}
    gates = _PRICES.setdefault(n, {})
    floor = _floor(n, max(tail_at, 0), phase_end) if phase_end == 1 << (n - 1) else None

    def select(i: int) -> tuple[int, int]:
        found = None
        if i >= tail_at and i + 1 < phase_end:
            cols = engine.pairs_from(i)
            found = _lookahead_choose(engine, cols, i, kind, phase_end, seen, gates, floor)
        elif i >= tail_at or cfg.depth_for(2 * (phase_end - i)):
            found = _choose_leaf(engine, i, kind)
        return _pick_rows(engine, i, kind) if found is None else found
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
    """Cancel adjacent identical gates (every gate is an involution).  The
    cached hashes decide almost every comparison before ``==`` runs."""
    stack: list[Gate] = []
    for g in seq:
        if stack and stack[-1]._hash == g._hash and stack[-1] == g:
            stack.pop()
        else:
            stack.append(g)
    return GateSequence(seq.width, tuple(stack))


# ---------------------------------------------------------------------------
# The pipeline.


def _stage(engine: _Engine, cfg: SynthesisConfig) -> StageStats:
    """Reduce ``engine``'s state P to Q ⊗ I_2 and account for the stage.

    The stage's gates run in three parts: the X or mixing gates
    (``mix_gates``), preprocessing (``pre_gates``) and the reduction
    (``red_gates``).  Each figure is a total's growth since the stage
    began or across a part, and both budgets are checked at the end.
    """
    w, pairs = engine.n, engine.size // 2
    gates0, toffoli0 = len(engine.gates), engine.toffoli
    lifts0, lift_toffoli0 = engine.region_lifts, engine.lift_toffoli
    mix_depth = mix_fix = 0
    normal, inverted = _pair_split(engine)
    if inverted == pairs:  # X on the last line makes every pair normal
        engine.emit((0, 0, 1))
        normal = pairs
    general = normal != pairs
    preprocess = general and not normal == inverted == pairs // 2  # not balanced
    if preprocess and normal + inverted != pairs // 2:  # not half interrupting
        mstats = _mix_engine(engine)
        mix_depth, mix_fix = mstats.depth, mstats.fixup_gates
    # No lift runs before preprocessing.
    mix_gates, mix_toffoli = len(engine.gates) - gates0, engine.toffoli - toffoli0
    if preprocess:
        _run_preprocess(engine)
    pre_gates = len(engine.gates) - gates0 - mix_gates
    pre_spent = engine.toffoli - toffoli0 - mix_toffoli - (engine.lift_toffoli - lift_toffoli0)
    if general:
        _run_general(
            engine,
            _make_selector(engine, NORMAL, pairs // 2, cfg),
            _make_selector(engine, INVERTED, pairs, cfg),
        )
    else:
        _run_normal(engine, _make_selector(engine, NORMAL, pairs, cfg))
    stage = StageStats(
        width=w,
        mix_gates=mix_gates,
        pre_gates=pre_gates,
        red_gates=len(engine.gates) - gates0 - mix_gates - pre_gates,
        toffoli=engine.toffoli - toffoli0,
        bound=bounds(w).per_reduction_total,
        region_lifts=engine.region_lifts - lifts0,
        mix_depth=mix_depth,
        mix_fixups=mix_fix,
        lift_toffoli=engine.lift_toffoli - lift_toffoli0,
    )
    # Region lifts and mix repair gates are the logged deviations from the
    # analysis behind the budgets; the repairs are mixing's only Toffolis.
    stage_spent = stage.toffoli - stage.lift_toffoli - mix_toffoli
    for what, spent, besides, budget in (
        (f"width-{w} preprocessing", pre_spent, "its lifts", preprocessing_bound(w)),
        (f"the width-{w} stage", stage_spent, "its lifts and mix repairs", stage.bound),
    ):
        if spent > budget:
            raise InternalError(
                f"internal error: {what} spent {spent} Toffolis besides {besides}, "
                f"over its budget of {budget}"
            )
    return stage


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
    stages: list[StageStats] = []
    engine = _Engine(perm)

    for _ in range(n0, 2, -1):
        stages.append(_stage(engine, cfg))
        engine.strip()

    if engine.n == 2:
        engine.emit(*(g.masks() for g in search_two_bit(engine.snapshot())))
    elif engine.row(0):
        engine.emit((0, 0, 1))

    seq = peephole(engine.sequence())
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
        region_lifts=engine.region_lifts,
        wall_time_s=time.perf_counter() - t0,
        cost_table=DEFAULT_TABLE.name,
        config=cfg,
        lift_toffoli=engine.lift_toffoli,
    )
    return seq, report
