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

A gate with at most one control is an affine map of the column numbers
(c -> c ^ T, or c -> c ^ T when bit t of c reads the control's value).  So
a holder of the entries may leave them in place and compose such gates
into an affine column frame F instead: column c's entry is stored at F(c).
``exchange_columns`` takes that frame and walks the image of the
satisfying subcube, at the same 2^(n-1-m) pairs; ``reduction._Engine``
keeps such a frame.

The same ``GateSequence`` that maps a permutation P to the identity, executed
left-to-right as a circuit on an input register x, computes P(x).  That dual
reading is the contract for every emitted circuit, and ``verify_identity``
checks it bit-sliced over all 2^n inputs at once: line l is one int whose
bit x is line l's value on input x, a gate does ``v[target] ^= AND(controls)``,
and the result must equal the bit-planes of P's entries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Literal, Sequence

MAX_WIDTH = 24


class WidthMismatch(ValueError):
    """Objects of different widths were combined."""


class NotABijection(ValueError):
    """Entry list is not a permutation of 0..2^n-1."""


class PreconditionViolated(ValueError):
    """An operation was invoked on a state outside its contract."""


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


def mct(width: int, controls: Iterable[int | tuple[int, bool]], target: int) -> Gate:
    """Multiple-controlled NOT; bare ints mean positive controls."""
    normalized = tuple(
        (c, True) if isinstance(c, int) else (c[0], bool(c[1])) for c in controls
    )
    return Gate(width, target, normalized)


@dataclass(frozen=True)
class Permutation:
    """Bijection on {0..2^n-1} in one-line notation."""

    width: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.width) is not int:
            raise ValueError(f"width must be an int, got {self.width!r}")
        if not 1 <= self.width <= MAX_WIDTH:
            raise ValueError(f"width must be in 1..{MAX_WIDTH}, got {self.width}")
        size = 1 << self.width
        if len(self.entries) != size:
            raise NotABijection(
                f"width {self.width} needs {size} entries, got {len(self.entries)}"
            )
        if set(map(type, self.entries)) != {int}:
            raise NotABijection("entries must be ints")
        if sorted(self.entries) != list(range(size)):
            raise NotABijection("entries are not a permutation of 0..2^n-1")

    @classmethod
    def identity(cls, width: int) -> "Permutation":
        return cls(width, tuple(range(1 << width)))

    @classmethod
    def from_entries(cls, entries: Sequence[int]) -> "Permutation":
        size = len(entries)
        width = size.bit_length() - 1
        if size != 1 << width or size < 2:
            raise NotABijection(f"entry count {size} is not a power of two >= 2")
        return cls(width, tuple(entries))

    @property
    def size(self) -> int:
        return 1 << self.width

    def __call__(self, column: int) -> int:
        return self.entries[column]


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

    def __add__(self, other: "GateSequence") -> "GateSequence":
        if other.width != self.width:
            raise WidthMismatch(f"{self.width} vs {other.width}")
        return GateSequence(self.width, self.gates + other.gates)

    @classmethod
    def of(cls, *gates: Gate) -> "GateSequence":
        if not gates:
            raise ValueError("use GateSequence(width) for an empty sequence")
        return cls(gates[0].width, tuple(gates))


# Affine column map: (images of column bits 0..n-1, offset).  Column c maps
# to the offset XOR the images of c's set bits.
Frame = tuple[Sequence[int], int]


def linear_image(images: Sequence[int], mask: int) -> int:
    """XOR of ``images[b]`` over the set bits b of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out ^= images[low.bit_length() - 1]
        mask ^= low
    return out


def exchange_columns(
    entries: list[int],
    ones: int,
    zeros: int,
    tmask: int,
    pos: list[int] | None = None,
    frame: Frame | None = None,
) -> None:
    """Apply the map c -> c ^ ``tmask`` to the columns c that have every
    ``ones`` bit set and every ``zeros`` bit clear, in place.

    With one target bit that is the gate with masks ``(ones, zeros, tmask)``;
    with several it is the run of same-control gates, one per target bit, in
    any order (they commute).  Visits each exchanged column pair once, from
    its side with ``tmask``'s top bit clear: 2^(n-1-m) pairs for m controls.
    ``pos``, when given, is the inverse of ``entries`` and is kept in step.

    ``frame``, when given, is an affine map F from the gate's columns to the
    indices of ``entries``: the pair (c, c ^ tmask) is stored at (F(c),
    F(c) ^ F's image of ``tmask``).  The walk starts at F(``ones``) and
    steps by the images of the free bits, so it costs the same as without a
    frame, which is the identity.  Raises ``PreconditionViolated`` when
    ``tmask`` is empty or overlaps a control.
    """
    check_target(ones, zeros, tmask)
    if pos is None:
        pos = [0] * len(entries)  # scratch: nobody reads it
    free = (len(entries) - 1) & ~(ones | zeros | 1 << tmask.bit_length() >> 1)
    steps = []
    while free:
        low = free & -free
        steps.append(low)
        free ^= low
    if frame is not None:
        images, offset = frame
        ones, tmask = offset ^ linear_image(images, ones), linear_image(images, tmask)
        steps = [images[low.bit_length() - 1] for low in steps]
    order = _gray_order(len(steps))
    steps.append(0)
    c = ones
    for k in order:
        d = c ^ tmask
        ra, rb = entries[c], entries[d]
        entries[c], entries[d] = rb, ra
        pos[ra], pos[rb] = d, c
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


def apply_sequence(
    perm: Permutation, acc: GateSequence, seq: GateSequence
) -> tuple[Permutation, GateSequence]:
    """Apply ``seq`` to ``perm`` and append it to the accumulator ``acc``."""
    if perm.width != seq.width or acc.width != seq.width:
        raise WidthMismatch(
            f"widths differ: perm {perm.width}, acc {acc.width}, seq {seq.width}"
        )
    entries = list(perm.entries)
    scratch = [0] * perm.size  # one throwaway ``pos`` for every gate
    for g in seq.gates:
        exchange_columns(entries, *g.masks(), scratch)
    return Permutation(perm.width, tuple(entries)), acc + seq


def run_circuit(seq: GateSequence, x: int) -> int:
    """Execute the sequence left-to-right on the input bit string ``x``."""
    if not 0 <= x < (1 << seq.width):
        raise ValueError(f"input {x} outside 0..2^{seq.width}-1")
    for g in seq.gates:
        ones, zeros, tmask = g.masks()
        if (x & ones) == ones and (x & zeros) == 0:
            x ^= tmask
    return x


def _bit_planes(width: int, values: Iterable[int]) -> list[int]:
    """Index l (1..width) holds, as bit x, line l's bit of ``values[x]``."""
    rows = [format(v, f"0{width}b") for v in values]
    rows.reverse()  # bit x of a plane is character size-1-x of its string
    return [0] + [int("".join(plane), 2) for plane in zip(*rows)]


def verify_identity(perm: Permutation, seq: GateSequence) -> bool:
    """True iff applying ``seq`` to ``perm`` yields the identity.

    Equivalently (the emitted-circuit contract): running ``seq`` as a circuit
    on every input x returns perm(x).  That is how it is checked, on all 2^n
    inputs at once: ``v[l]`` holds line l's value on input x as bit x.
    """
    if perm.width != seq.width:
        raise WidthMismatch(f"permutation width {perm.width}, seq width {seq.width}")
    n = perm.width
    full = (1 << perm.size) - 1
    v = _bit_planes(n, range(perm.size))
    for g in seq.gates:
        fire = full
        for line, positive in g.controls:
            fire &= v[line] if positive else ~v[line]
        v[g.target] ^= fire
    return v == _bit_planes(n, perm.entries)


def parity(perm: Permutation) -> Literal["even", "odd"]:
    """Sign of the permutation via cycle decomposition."""
    seen = [False] * perm.size
    transpositions = 0
    for start in range(perm.size):
        if seen[start]:
            continue
        length = 0
        c = start
        while not seen[c]:
            seen[c] = True
            c = perm.entries[c]
            length += 1
        transpositions += length - 1
    return "even" if transpositions % 2 == 0 else "odd"


def sample(
    width: int, seed: int, kind: Literal["uniform", "parity_aligned"] = "uniform"
) -> Permutation:
    """Seeded pseudorandom permutation.

    ``parity_aligned`` keeps every row at a column of its own parity
    (r_i ≡ i mod 2), i.e. all relevant pairs sit at normal positions.
    """
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
