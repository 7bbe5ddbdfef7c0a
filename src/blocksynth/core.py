"""Permutations, gates, and the column-exchange semantics of gate application.

A width-n permutation is stored in one-line notation: ``entries[c]`` is the
row number sitting in column ``c``.  Lines are numbered 1..n with line 1 the
*most significant* bit of a column number (so an X on line 1 swaps the two
halves of the entry array).  Most circuit formats index the other way round;
everything in this package sticks to the MSB-first convention.

A gate acts on a permutation by exchanging columns: for every column ``c``
whose bits satisfy all controls, the entries at ``c`` and at ``c`` with the
target bit flipped are swapped.  Because a control may never sit on the
target line, the set of satisfying columns is closed under the target flip.
``exchange_columns`` is the one implementation of this: it walks only the
gate's satisfying subcube, 2^(n-1-m) column pairs for m controls.  Gates
that share their controls commute, so a run of them is the single map
c -> c ^ T on the satisfying columns, T the XOR of their target bits; the
kernel takes such a multi-bit target mask and still visits 2^(n-1-m) pairs.

The same map read by rows is cheaper to carry out: keep, for each column
bit b, a *bit plane*, an int whose bit r is bit b of row r's column.  A
gate then ANDs the planes of its controls (complemented for a negative
one) into the mask of the rows it moves, and XORs that mask into each
target plane: O(m + |T|) big-int operations in place of the kernel's
2^(n-1-m) pair visits.
``reduction._Engine`` keeps its working copy that way.  ``_planes`` and
``_values`` turn a list of numbers into planes and back in C-level byte
passes, one byte lane of eight planes at a time.

The same ``GateSequence`` that maps a permutation P to the identity, executed
left-to-right as a circuit on an input register x, computes P(x).  That dual
reading is the contract for every emitted circuit, and ``verify_identity``
checks it bit-sliced over all 2^n inputs at once: each line is one plane
whose bit x is the line's value on input x, a gate does
``v[target] ^= AND(controls)``, and the result must equal the planes of P's
entries.
"""

from __future__ import annotations

import random
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Literal, Sequence

MAX_WIDTH = 24


class WidthMismatch(ValueError):
    """Objects of different widths were combined."""


class NotABijection(ValueError):
    """Entry list is not a permutation of 0..2^n-1."""


class PreconditionViolated(ValueError):
    """An operation was invoked on a state outside its contract."""


class InternalError(RuntimeError):
    """A check of the library's own work failed: a bug, not bad input."""


# A gate as its column masks (must-be-1, must-be-0, target): the one gate
# form between ``_Engine`` and ``_Engine.sequence``, which builds ``Gate``s.
Masks = tuple[int, int, int]


@dataclass(frozen=True)
class Gate:
    """A multiple-controlled NOT.

    ``controls`` holds (line, polarity) pairs; polarity True fires on bit 1.
    ``target`` is the line whose bit gets flipped.  Lines are 1-based,
    MSB-first.  Negative controls are first-class here and only materialized
    as X-conjugations when exporting to formats that lack them.
    """

    width: int
    target: int
    controls: tuple[tuple[int, bool], ...] = ()

    def __post_init__(self) -> None:
        if not 1 <= self.target <= self.width:
            raise ValueError(f"target {self.target} outside lines 1..{self.width}")
        seen = set()
        for line, _ in self.controls:
            if not 1 <= line <= self.width:
                raise ValueError(f"control line {line} outside 1..{self.width}")
            if line == self.target or line in seen:
                raise ValueError(f"control line {line} repeated or equal to target")
            seen.add(line)
        # Gates key the per-call dicts that build, render and expand each
        # distinct gate once, so the hash is computed once, here.
        object.__setattr__(self, "_hash", hash((self.width, self.target, self.controls)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def control_count(self) -> int:
        return len(self.controls)

    def masks(self) -> Masks:
        """(must-be-1 mask, must-be-0 mask, target mask) over column bits."""
        n = self.width
        ones = zeros = 0
        for line, positive in self.controls:
            bit = 1 << (n - line)
            if positive:
                ones |= bit
            else:
                zeros |= bit
        return ones, zeros, 1 << (n - self.target)

    @classmethod
    def from_masks(cls, width: int, ones: int, zeros: int, tmask: int) -> "Gate":
        """Inverse of ``masks``; controls come out in ascending line order."""
        controls = []
        rest = ones | zeros
        while rest:  # highest control bit first: the lowest line number
            top = rest.bit_length()
            bit = 1 << (top - 1)
            controls.append((width + 1 - top, bool(ones & bit)))
            rest ^= bit
        return cls(width, width + 1 - tmask.bit_length(), tuple(controls))

    def __str__(self) -> str:  # compact diagnostic form, e.g. C(1,3̄)X@2
        if not self.controls:
            return f"X@{self.target}"
        ctl = ",".join(f"{l}" if p else f"!{l}" for l, p in self.controls)
        return f"C({ctl})X@{self.target}"


def x(width: int, target: int) -> Gate:
    return Gate(width, target)


def cx(width: int, control: int, target: int, *, positive: bool = True) -> Gate:
    return Gate(width, target, ((control, positive),))


def toffoli(width: int, c1: int, c2: int, target: int) -> Gate:
    return Gate(width, target, ((c1, True), (c2, True)))


def _check_width(width: int) -> None:
    if type(width) is not int:
        raise ValueError(f"width must be an int, got {width!r}")
    if not 1 <= width <= MAX_WIDTH:
        raise ValueError(f"width must be in 1..{MAX_WIDTH}, got {width}")


@dataclass(frozen=True)
class Permutation:
    """Bijection on {0..2^n-1} in one-line notation."""

    width: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_width(self.width)
        size = 1 << self.width
        if len(self.entries) != size:
            raise NotABijection(
                f"width {self.width} needs {size} entries, got {len(self.entries)}"
            )
        if set(map(type, self.entries)) != {int}:
            raise NotABijection("entries must be ints")
        if sorted(self.entries) != list(range(size)):
            raise NotABijection("entries are not a permutation of 0..2^n-1")

    @property
    def size(self) -> int:
        return 1 << self.width


@dataclass(frozen=True)
class GateSequence:
    """Ordered list of same-width gates; executed left-to-right."""

    width: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        for g in self.gates:
            if g.width != self.width:
                raise WidthMismatch(
                    f"gate width {g.width} in sequence of width {self.width}"
                )

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)


def exchange_columns(entries: list[int], ones: int, zeros: int, tmask: int) -> None:
    """Apply the map c -> c ^ ``tmask`` to the columns c that have every
    ``ones`` bit set and every ``zeros`` bit clear, in place.

    With one target bit that is the gate with masks ``(ones, zeros, tmask)``;
    with several it is the run of same-control gates, one per target bit, in
    any order (they commute).  Visits each exchanged column pair once, from
    its side with ``tmask``'s top bit clear: 2^(n-1-m) pairs for m controls.
    Raises ``PreconditionViolated`` when ``tmask`` is empty or overlaps a
    control.
    """
    check_target(ones, zeros, tmask)
    free = (len(entries) - 1) & ~(ones | zeros | 1 << tmask.bit_length() >> 1)
    steps = []
    while free:
        low = free & -free
        steps.append(low)
        free ^= low
    order = _gray_order(len(steps))
    steps.append(0)
    c = ones
    for k in order:
        d = c ^ tmask
        entries[c], entries[d] = entries[d], entries[c]
        c ^= steps[k]


@lru_cache(maxsize=None)
def _gray_order(k: int) -> tuple[int, ...]:
    """The free bit that each step of a k-bit Gray-code walk flips: step j
    flips the lowest set bit of j + 1, so the walk meets every subset of the
    free bits once; the closing step is k, which flips nothing."""
    order: tuple[int, ...] = ()
    for j in range(k):
        order = order + (j,) + order
    return order + (k,)


def check_target(ones: int, zeros: int, tmask: int) -> None:
    """Raise ``PreconditionViolated`` when ``tmask`` is empty or overlaps a
    control."""
    if not tmask or tmask & (ones | zeros):
        raise PreconditionViolated(
            f"target mask {tmask:#x} is empty or overlaps the controls "
            f"{ones:#x}/{zeros:#x}"
        )


def apply_gate(perm: Permutation, gate: Gate) -> Permutation:
    """Exchange the column pairs selected by ``gate``'s controls."""
    if perm.width != gate.width:
        raise WidthMismatch(f"permutation width {perm.width}, gate width {gate.width}")
    entries = list(perm.entries)
    exchange_columns(entries, *gate.masks())
    return Permutation(perm.width, tuple(entries))


# A value of up to 8, 16 or 32 bits fills one, two or four bytes of an
# ``array`` lane; byte j of the lane holds bits 8j..8j+7 of the value.
_LANE_CODES = {1: "B", 2: "H", 4: "I"}
_LITTLE = sys.byteorder == "little"
# Table k maps a byte to the ASCII digit of its bit k, and the ASCII digit
# "1" back to bit k set, "0" to nothing.
_TO_DIGIT = [bytes(48 + (v >> k & 1) for v in range(256)) for k in range(8)]
_FROM_DIGIT = [bytes((v == 49) << k for v in range(256)) for k in range(8)]


def _lane(width: int) -> tuple[int, str]:
    """Bytes per value of ``width`` bits, and the ``array`` type code."""
    size = 1 if width <= 8 else 2 if width <= 16 else 4
    return size, _LANE_CODES[size]


def _planes(values: Sequence[int], width: int) -> list[int]:
    """Plane b holds, as bit x, bit b of ``values[x]``, for b < ``width``.

    Each byte lane of the values is sliced out of one ``array``; a
    translation table turns a lane into the digits of one plane, read
    highest x first by ``int``.
    """
    size, code = _lane(width)
    raw = array(code, values)
    raw.reverse()
    data = raw.tobytes()
    out = []
    for b in range(width):
        if not b & 7:
            j = b >> 3
            lane = data[j if _LITTLE else size - 1 - j :: size]
        out.append(int(lane.translate(_TO_DIGIT[b & 7]), 2))
    return out


def _values(planes: Sequence[int], count: int) -> list[int]:
    """Inverse of ``_planes``: the ``count`` values whose bit b at index x
    is bit x of ``planes[b]``.

    A plane's binary digits, translated to bit b of a byte each, read as
    one big-endian int whose byte x is that bit of value x; eight such ints
    OR into one byte lane of the result.
    """
    width = len(planes)
    size, code = _lane(width)
    out = bytearray(count * size)
    digits = f"0{count}b"
    for j in range(0, width, 8):
        lane = 0
        for b in range(j, min(j + 8, width)):
            text = format(planes[b], digits).encode()
            lane |= int.from_bytes(text.translate(_FROM_DIGIT[b - j]), "big")
        k = j >> 3
        out[k if _LITTLE else size - 1 - k :: size] = lane.to_bytes(count, "little")
    return memoryview(out).cast(code).tolist()


def verify_identity(perm: Permutation, seq: GateSequence) -> bool:
    """True iff applying ``seq`` to ``perm`` yields the identity.

    Equivalently (the emitted-circuit contract): running ``seq`` as a circuit
    on every input x returns perm(x).  That is how it is checked, on all 2^n
    inputs at once: plane ``v[n - l]`` holds line l's value on input x as
    bit x.
    """
    if perm.width != seq.width:
        raise WidthMismatch(f"permutation width {perm.width}, seq width {seq.width}")
    n = perm.width
    full = (1 << perm.size) - 1
    v = _planes(range(perm.size), n)  # line l is plane n - l
    for g in seq.gates:
        fire = full
        for line, positive in g.controls:
            fire &= v[n - line] if positive else ~v[n - line]
        v[n - g.target] ^= fire
    return v == _planes(perm.entries, n)


def sample(
    width: int, seed: int, kind: Literal["uniform", "parity_aligned"] = "uniform"
) -> Permutation:
    """Seeded pseudorandom permutation.

    ``parity_aligned`` keeps every row at a column of its own parity
    (r_i ≡ i mod 2), i.e. all relevant pairs sit at normal positions.
    """
    _check_width(width)  # before allocating 2^width rows
    stride = {"uniform": 1, "parity_aligned": 2}.get(kind)
    if stride is None:
        raise ValueError(f"unknown sample kind {kind!r}")
    rng = random.Random(f"{seed}:{kind}:{width}")
    size = 1 << width
    entries = [0] * size
    for start in range(stride):  # shuffle each class of rows among its columns
        rows = list(range(start, size, stride))
        rng.shuffle(rows)
        entries[start::stride] = rows
    return Permutation(width, tuple(entries))
