"""Independent oracles and two shorthands shared by the test suite.

Everything here recomputes expectations from first principles (bit fiddling,
brute-force search, explicit summation) without calling into the package's
own logic, so that tests compare two genuinely separate computations.  The
exceptions build on the package: ``apply_sequence`` only chains its own
``apply_gate``, ``mct`` is shorthand for a ``Gate``, and ``cons_masks``
raises its ``PreconditionViolated``.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import ceil, comb

from blocksynth import Gate, PreconditionViolated, apply_gate


def sim_gate(width: int, target: int, controls, x: int) -> int:
    """Reference semantics of one multiple-controlled NOT on input ``x``.

    Lines are 1-based with line 1 the most significant bit.  ``controls``
    holds (line, polarity) pairs; the target bit flips iff every control
    line carries its polarity.
    """
    for line, polarity in controls:
        bit = (x >> (width - line)) & 1
        if bit != (1 if polarity else 0):
            return x
    return x ^ (1 << (width - target))


def sim_circuit(width: int, gates, x: int) -> int:
    """Run [(target, controls), ...] left-to-right on ``x``."""
    for target, controls in gates:
        x = sim_gate(width, target, controls, x)
    return x


def mct(width: int, controls, target: int) -> Gate:
    """A ``Gate`` with ``controls`` given as bare lines (positive) or
    (line, polarity) pairs."""
    return Gate(
        width,
        target,
        tuple((c, True) if isinstance(c, int) else (c[0], bool(c[1])) for c in controls),
    )


def apply_sequence(perm, seq):
    """``perm`` with ``seq``'s gates applied in order, one ``apply_gate``
    each."""
    for g in seq:
        perm = apply_gate(perm, g)
    return perm


def findm(l: int, n: int) -> int:
    """The paper's m for block-wise position l: the smallest m >= 1 whose
    region, the columns whose m-1 most significant bits are all 1, starts
    at or past column 2l.  Found by trying m = 1, 2, ... in turn.

    Defined for l in 0..2^(n-1)-1; the position one past the end has no
    region.
    """
    if not 0 <= l < 1 << (n - 1):
        raise ValueError(f"l={l} outside 0..2^{n-1}-1")
    m = 1
    while (1 << n) - (1 << (n - m + 1)) < 2 * l:
        m += 1
    return m


def region_mask(n: int, i: int) -> int:
    """The m-1 most significant of n bits, m = findm(i, n): a column is in
    position i's region when it holds them all."""
    m = findm(i, n)
    return ((1 << (m - 1)) - 1) << (n - m + 1)


# --- The engine's scans as column walks. -----------------------------------
# Each walks the columns of a plain (entries, pos) state in the order the
# scan's contract names, so the engine's bit-plane scans have an oracle.


def walk_region(entries, pos, region: int, kind: int):
    """The first pair of ``kind`` with both members in the region (the
    columns >= ``region``) by ascending column, the member at the smaller
    column first; None when there is none.  A member of a kind-k pair has
    (row ^ column) & 1 == k and its partner a column of the other parity."""
    for col in range(region, len(entries) - 1):
        a = entries[col]
        partner = pos[a ^ 1]
        if (a ^ col) & 1 != kind or not (partner ^ col) & 1:
            continue
        if partner > col:
            return a, a ^ 1
    return None


def walk_member(entries, pos, region: int, i: int, col_parity: int, kind: int, taken: int):
    """The first interrupting member at a column of ``col_parity``, over
    the region's columns and then the rest from 2i, whose row is not in the
    mask ``taken`` and whose flip to the other column parity turns its pair
    to ``kind``; None when there is none."""
    columns = [*range(region + col_parity, len(entries), 2), *range(2 * i + col_parity, region, 2)]
    for col in columns:
        r = entries[col]
        if (r ^ col) & 1 == kind or taken >> r & 1 or (pos[r ^ 1] ^ col) & 1:
            continue
        return r
    return None


def candidates(pairs, region: int, kind: int):
    """The in-region pairs of ``kind`` among ``pairs``, (even row, its
    column, its partner's column) triples, each as (smaller-column row,
    partner, smaller column, larger column)."""
    return [
        (r, r + 1, c, p) if c < p else (r + 1, r, p, c)
        for r, c, p in pairs
        if c & p & region == region and c & 1 == kind and (c ^ p) & 1
    ]


def tie_pick(cands, tied):
    """A root's pick among the ``tied`` candidates, some of ``cands``, both
    as ``candidates`` gives them: the one whose slot gap the most of
    ``cands`` share, then the one at the lowest rows; None when nothing is
    tied."""
    if not tied:
        return None
    gaps = Counter((t[2] ^ t[3]) >> 1 for t in cands)
    return max(sorted(tied), key=lambda t: gaps[(t[2] ^ t[3]) >> 1])[:2]


def leaf_pick(pairs, region: int, kind: int):
    """A depth-1 root's pick among ``pairs``, (even row, its column, its
    partner's column) triples: the in-region pairs of ``kind`` all pay the
    same slide, and all but the blocks a conjoin, which is free only when
    the region is every column.  ``tie_pick`` ranks the cheapest."""
    cands = candidates(pairs, region, kind)
    blocks = [t for t in cands if t[2] ^ t[3] == 1]
    return tie_pick(cands, blocks if blocks and region else cands)


def fills_phase(n: int, cols, i: int, kind: int) -> bool:
    """The premise of a bounded search from position i of a phase ending at
    2^(n-1): ``cols``, (even row's column, its partner's column) pairs,
    hold exactly the columns 2i..2^n-1, and every one is of ``kind``, one
    even and one odd column with the even row's of parity ``kind``.  Every
    state of a reduction's final phase meets it."""
    lo = 2 * i
    return len(cols) == (1 << (n - 1)) - i and all(
        (c ^ p) & 1 and c & 1 == kind and c >= lo and p >= lo for c, p in cols
    )


def pairs_at(pos, i: int):
    """(even row r, column of r, column of r + 1) for each pair whose even
    row sits at column 2i or past it, by row."""
    return [(r, pos[r], pos[r + 1]) for r in range(0, len(pos), 2) if pos[r] >= 2 * i]


# --- The paper's conjoin and slide, gate by gate. ---------------------------
# Each returns (ones, zeros, target) column-mask triples, one target line
# per gate, in the order the package's engine emits them.


def block_bit(index: int, line: int, width: int) -> int:
    """Bit of an (n-1)-bit block position index at block line 1..n-1."""
    return (index >> (width - 1 - line)) & 1


def cons_masks(n: int, i: int, alpha: int, beta: int) -> list:
    """Gates conjoining the residents of columns ``alpha`` and ``beta`` into
    two columns differing only in bit n; empty when they already do.

    Requires opposite column parity, and the pair to sit inside the
    iteration-i region whenever its columns differ on a protected prefix
    line (a line of the region mask).
    """
    gamma = alpha ^ beta
    if (gamma & 1) == 0:
        raise PreconditionViolated(
            f"columns {alpha} and {beta} share parity; the pair cannot be "
            "conjoined into last-bit-adjacent columns"
        )
    region = region_mask(n, i)
    delta = n + 1 - gamma.bit_length()  # first line on which the columns differ
    if delta == n:
        return []  # already a block
    if gamma & region:
        raise PreconditionViolated(
            f"pair columns {alpha},{beta} differ inside the protected prefix "
            f"(line {delta}); lift the pair into the region first"
        )
    t = 1 << (n - delta)
    out = []
    # CX delta->j for each lower differing line, wrapped in X on delta when
    # block position i has delta's bit set; no run, no wrapper.
    rest = gamma & (t - 2)  # differing lines delta+1..n-1
    while rest:
        bit = 1 << (rest.bit_length() - 1)
        out.append((t, 0, bit))
        rest ^= bit
    if out and block_bit(i, delta, n) == 1:
        out = [(0, 0, t), *out, (0, 0, t)]
    out.append((region | 1, 0, t))  # controls on lines 1..m-1 and line n
    return out


def track(column: int, masks) -> int:
    """Where ``masks``, applied in order, move ``column``."""
    for ones, zeros, tmask in masks:
        if column & ones == ones and not column & zeros:
            column ^= tmask
    return column


def alloc_masks(n: int, i: int, alpha: int) -> list:
    """Gates sliding the conjoined pair at column ``alpha`` to position i;
    empty when it is already there."""
    gamma = i ^ (alpha >> 1)  # in block coordinates: line l is bit n-1-l
    if gamma == 0:
        return []  # already allocated
    below = 1 << (gamma.bit_length() - 1)  # first differing block line
    t = below << 1
    out = []
    rest = gamma ^ below
    while rest:
        bit = 1 << (rest.bit_length() - 1)
        out.append((t, 0, bit << 1))
        rest ^= bit
    out.append(((i & (below - 1)) << 1, 0, t))  # i's set bits below the target
    return out


def as_plain(seq):
    """Strip a GateSequence down to [(target, ((line, polarity), ...)), ...]."""
    return [(g.target, tuple(g.controls)) for g in seq]


def with_identity_wire(entries) -> tuple[int, ...]:
    """Entries of Q ⊗ I_2: Q on the leading lines, an identity last line."""
    return tuple(2 * r + b for r in entries for b in (0, 1))


def circuit_table(width: int, gates) -> list[int]:
    """Full input/output table of a plain-form circuit."""
    return [sim_circuit(width, gates, x) for x in range(1 << width)]


def balanced_entries(width: int, seed: int) -> tuple[int, ...]:
    """Row placement with half the pairs normal, half inverted, none mixed.

    Pair ⟨2j, 2j+1⟩ is normal when each member sits at a column of its own
    parity and inverted when both sit at the opposite parity.  The first
    half of the pairs is laid out normal, the rest inverted, over shuffled
    even/odd column pools.
    """
    size = 1 << width
    rng = random.Random(f"{seed}:balanced:{width}")
    evens = list(range(0, size, 2))
    odds = list(range(1, size, 2))
    rng.shuffle(evens)
    rng.shuffle(odds)
    entries = [0] * size
    quarter = size // 4
    for j in range(size // 2):
        if j < quarter:  # normal: even row -> even column, odd row -> odd
            entries[evens.pop()] = 2 * j
            entries[odds.pop()] = 2 * j + 1
        else:  # inverted: even row -> odd column, odd row -> even
            entries[odds.pop()] = 2 * j
            entries[evens.pop()] = 2 * j + 1
    return tuple(entries)


def half_interrupting_entries(width: int, seed: int) -> tuple[int, ...]:
    """Row placement with exactly half the pairs interrupting.

    Each of the first half of the pairs is normal or inverted at random.
    Of the rest, the interrupting ones, the first half sit at two even
    columns and the others at two odd columns, over shuffled even/odd
    column pools.  Width must be at least 3.
    """
    size = 1 << width
    pairs = size // 2
    rng = random.Random(f"{seed}:half:{width}")
    evens = list(range(0, size, 2))
    odds = list(range(1, size, 2))
    rng.shuffle(evens)
    rng.shuffle(odds)
    entries = [0] * size
    for j in range(pairs):
        if j < pairs // 2:  # normal, or inverted with the pools swapped
            first, second = (evens, odds) if rng.random() < 0.5 else (odds, evens)
        elif j < 3 * pairs // 4:
            first = second = evens
        else:
            first = second = odds
        entries[first.pop()] = 2 * j
        entries[second.pop()] = 2 * j + 1
    return tuple(entries)


def independent_parity(entries) -> str:
    """Sign of a permutation by cycle decomposition (no package code)."""
    seen = [False] * len(entries)
    transpositions = 0
    for start in range(len(entries)):
        if seen[start]:
            continue
        length = 0
        c = start
        while not seen[c]:
            seen[c] = True
            c = entries[c]
            length += 1
        transpositions += length - 1
    return "odd" if transpositions % 2 else "even"


def positions(perm) -> list[int]:
    """The column of each row: ``perm.entries`` inverted."""
    pos = [0] * len(perm.entries)
    for col, row in enumerate(perm.entries):
        pos[row] = col
    return pos


def mismatch_rows(entries) -> int:
    """Rows belonging to a pair with exactly one parity-mismatched member."""
    size = len(entries)
    pos = [0] * size
    for col, row in enumerate(entries):
        pos[row] = col
    count = 0
    for j in range(size // 2):
        a_bad = (2 * j ^ pos[2 * j]) & 1
        b_bad = ((2 * j + 1) ^ pos[2 * j + 1]) & 1
        if a_bad != b_bad:
            count += 2
    return count


# --- Independent recomputation of the analytic gate budgets. ---------------


def conjoin_budget(n: int) -> int:
    """Worst-case Toffoli-equivalents spent conjoining all pairs.

    A position needing an m-control gate contributes 2m-3; the 2^(n-m)
    positions sharing region scale m are summed explicitly, skipping the
    final forced position.
    """
    total = 0
    for m in range(2, n):
        total += (2 * m - 3) * (1 << (n - m))
    return total


def slide_budget(n: int) -> int:
    """Worst-case Toffoli-equivalents spent sliding conjoined pairs left."""
    total = 0
    for j in range(2, n - 1):
        for i in range(2, n - j + 1):
            total += (2 * i - 3) * comb(n - j, i)
    return total


def conditioning_budget(n: int) -> int:
    """Worst-case Toffoli-equivalents of the balancing passes, rounded up."""
    s = Fraction(5 * (1 << n), 16) + 2 * n - 5
    for i in range(2, n - 2):
        s += (2 * i - 3) * comb(n - 3, i)
    return ceil(s)


def rebalance_budget(n: int) -> int:
    """Worst-case Toffoli-equivalents of the half-to-quarter conversion."""
    s = Fraction(3 * (1 << n), 16) - 1
    for i in range(2, n - 2):
        s += (2 * i - 3) * comb(n - 3, i)
    return ceil(s)


def flat_spectrum(pos):
    """Stands in for ``conditioning._walsh_spectrum`` to force mixing's
    repairs: every |W(a)| ties and is nonzero, so the pick is a = 1, which
    emits no CX and leaves the count as it was."""
    return [len(pos) // 2] * len(pos)
